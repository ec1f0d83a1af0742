"""Command-line front end.

Five subcommands: simulate, estimate, sweep, budget, detect.  Every
command is deterministic for a given config and seed; nothing in the
default output depends on wall-clock time, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 runtime failure (protocol or
estimation errors), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adversary import (
    detect_outliers,
    mad_deviations,
    make_oracle_plan,
    make_random_timing_plan,
    remeasure_epoch,
    robust_parameter_fit,
)
from .config import (
    BUDGET_KEYS,
    ConfigError,
    RunSetup,
    build_setup,
    from_config,
    load_config,
)
from .protocol_sim import CausalityError, ProtocolOverrunError
from .secrecy import budget
from .signal_model import MeasurementEpoch
from .sweep import SweepRow, log_spaced_values, run_sweep

__all__ = ["main"]


# every number is written with 13 significant digits
_DIGITS = 13
_FLOAT = f"%.{_DIGITS - 1}e"

# A written time is off by at most half a unit in its 13th digit, 5e-13
# of its value; checking row j against j times row 1 meets two such
# errors.  The tolerance is twice their sum, for the check's own
# rounding.
_COMB_RTOL = 2.0 * 10.0 ** (1 - _DIGITS)

# table rows are formatted, and epoch rows parsed, this many at a time,
# so the scratch arrays of only one chunk are alive at once
_WRITE_CHUNK = 2048

# 10^(12 - e) for the decimal exponents e = -10..12 (i = e + 10): the
# powers of ten up to 10^22, each exact in float64
_SCALE = np.array([float(10 ** (12 - e)) for e in range(-10, 13)])


def _digit_words() -> np.ndarray:
    """Word i (i < 10^4) holds the four ASCII digits of i, zero-padded."""
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        digits[..., j] = np.arange(ord("0"), ord("9") + 1).reshape(
            [10 if k == j else 1 for k in range(4)])
    return digits.reshape(-1).view(np.uint32)


_DIGIT_WORDS = _digit_words()

# "e+dd" or "e-dd" as word e + 10, for the exponents e = -10..12 a
# fast-path cell prints
_EXP_WORDS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-10, 13)),
                           dtype=np.uint32)

# every row of simulate's epoch file ends in these 38 bytes, then a
# newline: a time and an rtt cell "d.dddddddddddde+dd", each byte
# between the low and the high template's (the exponent sign's range
# holds "+", "," and "-")
_TAIL_LO = np.frombuffer(b",0.000000000000e+00" * 2, dtype=np.uint8)
_TAIL_SPAN = (np.frombuffer(b",9.999999999999e-99" * 2, dtype=np.uint8)
              - _TAIL_LO)
# a cell's 13 digits, its exponent sign and its exponent's 2 digits, by
# their places in the tail (one row per cell)
_TAIL_DIGITS = np.array([[c + 1, *range(c + 3, c + 15)] for c in (0, 19)])
_TAIL_SIGNS = np.array([16, 35])
_TAIL_EXPS = np.array([[17, 18], [36, 37]])


def _fmt(x) -> str:
    return _FLOAT % float(x)


def _write_text(parts, out_path) -> None:
    """The strings ``parts``, one after another, to ``out_path`` or to
    stdout."""
    if out_path is None:
        sys.stdout.writelines(parts)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def _write_lines(lines, out_path) -> None:
    _write_text(["\n".join(lines) + "\n"], out_path)


def _float_cells(x: np.ndarray):
    """``_FLOAT % v`` for the float64 array ``x``: a uint8 array of one
    fixed-width cell per value, and the mask of the cells it leaves to
    the ``%`` format, whose bytes it does not set."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # floor(log10 x), clipped to the scale table
        e = np.fmax(np.fmin(np.floor(np.log10(x)), 12.0), -10.0)
        i = e.astype(np.int64) + 10
        m = x * _SCALE[i]
        n = np.rint(m)
        ok = (m >= 1e12) & (n < 1e13) & (np.abs(m - n) < 0.5)
    n[~ok] = 0.0
    q = n.astype(np.int64)
    lead = q // 10 ** 12
    q -= lead * 10 ** 12
    hi = q // 10 ** 8
    q -= hi * 10 ** 8
    mid = q // 10 ** 4
    q -= mid * 10 ** 4
    words = np.empty((x.size, 4), dtype=np.uint32)
    words[:, 0] = _DIGIT_WORDS[hi]
    words[:, 1] = _DIGIT_WORDS[mid]
    words[:, 2] = _DIGIT_WORDS[q]
    words[:, 3] = _EXP_WORDS[i]
    cells = np.empty((x.size, 18), dtype=np.uint8)
    cells[:, 0] = lead + ord("0")
    cells[:, 1] = ord(".")
    cells[:, 2:] = words.view(np.uint8)
    return cells, ~ok


def _int_cells(v: np.ndarray):
    """``"%d" % v`` for the int64 array ``v``: a uint8 array of one
    fixed-width cell per value, leading zeros as NUL, and the mask of
    the cells left to the ``%`` format: the negative ones."""
    neg = v < 0
    u = np.where(neg, 0, v)
    width = len(str(int(u.max()))) if u.size else 1
    groups = (width + 3) // 4
    words = np.empty((v.size, groups), dtype=np.uint32)
    rest = u
    for j in range(groups - 1, -1, -1):
        above = rest // 10 ** 4
        words[:, j] = _DIGIT_WORDS[rest - above * 10 ** 4]
        rest = above
    cells = words.view(np.uint8)[:, 4 * groups - width:]
    # the digit of 10^k in a value below 10^k is a leading zero: NUL
    for k in range(1, width):
        cells[:, width - 1 - k] *= u >= 10 ** k
    return cells, neg


def _int_column(column) -> np.ndarray:
    """``column`` as an int64 array, a flag as the integer 0 or 1; as
    an object array of its ints where int64 cannot hold them all, which
    the writer formats cell by cell."""
    arr = np.asarray(column)
    if arr.dtype.kind in "bi":
        return arr.astype(np.int64, copy=False)
    return np.asarray(column, dtype=object)


def _format_rows(columns, cell_formats) -> str:
    """The rows of ``columns`` as text, cell ``j`` of a row formatted
    by ``cell_formats[j]`` (``_FLOAT`` or ``"%d"``) and the cells joined
    by commas, one line per row."""
    n = len(columns[0])
    parts = []
    for column, fmt in zip(columns, cell_formats):
        if column.dtype == object:
            cells, left = np.zeros((n, 0), dtype=np.uint8), np.ones(n, bool)
        elif fmt == "%d":
            cells, left = _int_cells(column)
        else:
            cells, left = _float_cells(column)
        rows = np.flatnonzero(left)
        if rows.size:
            # the cells left, by one % format over them all
            texts = ("\n".join([fmt] * rows.size)
                     % tuple(column[rows].tolist())).split("\n")
            texts = np.array(texts, dtype=bytes).view(np.uint8).reshape(
                rows.size, -1)
            width = texts.shape[1]
            if width > cells.shape[1]:
                cells = np.pad(cells, ((0, 0), (0, width - cells.shape[1])))
            cells[rows, :width] = texts
            cells[rows, width:] = 0
        parts += [cells, np.full((n, 1), ord(","), dtype=np.uint8)]
    parts[-1][:] = ord("\n")
    return (np.concatenate(parts, axis=1).tobytes().replace(b"\0", b"")
            .decode("ascii"))


def _write_table(header_lines, cell_formats, columns, out_path) -> None:
    """The header lines, then one line per row of ``columns``
    (equal-length arrays or sequences), cell ``j`` written byte for byte
    as ``cell_formats[j] % v`` writes it, ``_FLOAT`` or ``"%d"``.

    Rows are formatted ``_WRITE_CHUNK`` at a time in numpy, each cell a
    fixed-width byte field padded with NUL, and the NULs are dropped once
    per chunk.  Why the bytes are the ``%`` format's:

    - A float x > 0.  Let e be floor(log10 x) clipped to [-10, 12], and
      t = x * 10^(12 - e) exactly.  The power is exact in float64, so M,
      x times it, is t correctly rounded.  The cell is taken from
      N = rint(M) when 10^12 <= M, N < 10^13 and |M - N| < 1/2.  Then t
      rounds to N as well: rounding is monotonic and every D + 1/2 below
      2^52 is a float, so M < D + 1/2 gives t < D + 1/2, and likewise
      from below.  So t < 10^13 - 1/2, and ``%.12e`` prints the digits of
      N (split exactly from int64) with exponent e.  t is below 10^12
      only when M = 10^12, within 2^-14 of it, where the exponent e - 1
      prints that same text.  Nothing rests on log10 being exact: an
      estimate a decade off gives M >= 10^13, or M below 10^12 unless
      it rounds up to 10^12, the case just named.
    - A non-negative int64 prints its digits, a flag 0 or 1.

    Every other cell is written by the ``%`` format, in one call per
    column chunk: negative numbers, 0.0, nan, +-inf, x outside
    [1e-10, 1e13), the rare M near a half or rounding to 10^13, and
    columns of Python ints past int64.
    """
    columns = [_int_column(c) if fmt == "%d" else np.asarray(c, dtype=float)
               for c, fmt in zip(columns, cell_formats)]
    n = len(columns[0])
    parts = ["\n".join(header_lines) + "\n"]
    for start in range(0, n, _WRITE_CHUNK):
        parts.append(_format_rows([c[start:start + _WRITE_CHUNK]
                                   for c in columns], cell_formats))
    _write_text(parts, out_path)


def _config_from_args(args) -> dict:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


# ======================================================================
# subcommands
# ======================================================================


def cmd_simulate(args) -> int:
    setup = build_setup(_config_from_args(args))
    epoch, _ = setup.run_epoch()
    header = [
        f"# protocol = {setup.protocol}",
        f"# seed = {setup.scenario.seed}",
        f"# t_prime_s = {_fmt(epoch.t_prime)}",
        "index,t_rel_s,rtt_s",
    ]
    _write_table(header, ("%d", _FLOAT, _FLOAT),
                 [np.arange(epoch.n), epoch.t_vec, epoch.y_vec], args.out)
    return 0


def _read_lines(path: str, lines: list[str]):
    """The ``#`` headers (key -> (line number, value)) and the time and
    rtt columns of an epoch file's lines.  Each line is stripped, then
    read as a ``#`` header, a blank or ``index,`` line (skipped) or a
    row of three cells; the first bad row is named by its line number.
    An rtt must be finite and non-negative, as a measurement is."""
    headers: dict[str, tuple[int, str]] = {}
    t_rows, y_rows = [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            headers[key.strip()] = (lineno, value.strip())
            continue
        if not line or line.startswith("index,"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path} line {lineno}: expected 3 columns")
        try:
            t, y = float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: bad number") from None
        if not (math.isfinite(y) and y >= 0.0):
            raise ConfigError(f"{path} line {lineno}: rtt_s must be finite "
                              f"and non-negative")
        t_rows.append(t)
        y_rows.append(y)
    return headers, np.array(t_rows), np.array(y_rows)


def _row_values(rows: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
    """Write to ``out``, a (2, k) float array, the time and rtt cells of
    the k rows of an epoch file's body whose bytes are ``rows`` and
    whose newlines lie at ``ends``; False, with ``out`` part written,
    unless every row is ``simulate``'s: an index of digits, then
    ``,d.dddddddddddde+dd`` twice with the exponent in [-10, 12], then
    the newline.

    The rows hold 2 commas and 9 non-digit bytes each, and the 38 bytes
    before each newline lie between the low and the high template.  So
    no row is shorter than that tail (a tail over a newline misses the
    template), the index cells are digits and the sign bytes no commas.
    A cell's 13 digits are an integer N < 10^13 < 2^53, summed exactly;
    10^(12 - e) is exact for these exponents e, and the cell's value is
    N / 10^(12 - e), which one float64 division rounds correctly, as
    ``float`` does: the writer's argument in ``_write_table``, run
    backwards.
    """
    k = ends.size
    if not (ends[0] >= _TAIL_LO.size
            and np.count_nonzero(rows == ord(",")) == 2 * k
            and np.count_nonzero(rows - np.uint8(ord("0")) > 9) == 9 * k):
        return False
    # each byte of a tail less the low template's: a digit's value, 0
    # for the sign "+" and 2 for "-"
    tails = sliding_window_view(rows, _TAIL_LO.size)[ends - _TAIL_LO.size]
    tails -= _TAIL_LO
    if not (tails <= _TAIL_SPAN).all():
        return False
    # e + 10 in uint8, where an exponent below -10 wraps to 167 or
    # more, past the scale table as one above 12 lies
    e = tails[:, _TAIL_EXPS]
    e = 10 * e[..., 0] + e[..., 1]
    i = np.where(tails[:, _TAIL_SIGNS] == 0, 10 + e, 10 - e)
    if i.max() >= _SCALE.size:
        return False
    # N from the lead digit and three 4-digit groups, each built in small
    # ints, then in float64 with every partial sum an integer
    d = tails[:, _TAIL_DIGITS]
    d2 = 10 * d[..., 1::2] + d[..., 2::2]
    d4 = 100 * d2[..., ::2].astype(np.uint16) + d2[..., 1::2]
    num = d[..., 0].astype(float)
    for j in range(3):
        num *= 1e4
        num += d4[..., j]
    np.divide(num, _SCALE[i], out=out.T)
    return True


def _bulk_rows(text: str):
    """The header lines and the time and rtt columns of an epoch file's
    text in ``simulate``'s layout (``#`` lines, an ``index,`` line, then
    rows only, ASCII, each ending in a newline), as ``_read_lines``
    reads ``text.splitlines()``; None for any other text.

    The header lines are ``splitlines`` of the text before the body,
    taken only where it breaks at its newlines alone.  The body is read
    as bytes: its newlines found at once, then ``_WRITE_CHUNK`` rows at a
    time parsed by ``_row_values``, which accepts only bytes no other
    line break can lie in.
    """
    h = end = 0
    while text.startswith("#", end):
        end = text.find("\n", end) + 1
        if end == 0:
            return None
        h += 1
    if not text.startswith("index,", end):
        return None
    end = text.find("\n", end) + 1
    head = text[:end].splitlines()
    if end == 0 or len(head) != h + 1 or not text.endswith("\n"):
        return None
    try:
        body = np.frombuffer(text[end:].encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero(body == ord("\n"))
    cols = np.empty((2, ends.size))
    for start in range(0, ends.size, _WRITE_CHUNK):
        first = ends[start - 1] + 1 if start else 0
        chunk = ends[start:start + _WRITE_CHUNK]
        if not _row_values(body[first:chunk[-1] + 1], chunk - first,
                           cols[:, start:start + chunk.size]):
            return None
    return head[:h], cols[0], cols[1]


def _read_epoch_csv(path: str, setup: RunSetup) -> MeasurementEpoch:
    """The epoch in the file at ``path``, checked against ``setup``.  A
    file in ``simulate``'s layout is parsed as bytes by ``_bulk_rows``,
    to the epoch that ``_read_lines``, the reader of any other file and
    the one that names a bad line, would give bit for bit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read epoch file {path}: {exc}") from None
    bulk = _bulk_rows(text)
    if bulk is None:
        headers, t_col, y_col = _read_lines(path, text.splitlines())
    else:
        head, t_col, y_col = bulk
        headers = _read_lines(path, head)[0]
    if "t_prime_s" not in headers:
        raise ConfigError(f"{path}: missing '# t_prime_s = ...' header")
    lineno, value = headers["t_prime_s"]
    try:
        t_prime = float(value)
    except ValueError:
        raise ConfigError(f"{path} line {lineno}: bad t_prime_s "
                          f"value") from None
    if not math.isfinite(t_prime):
        raise ConfigError(f"{path} line {lineno}: t_prime_s must be "
                          f"finite, got {value!r}")
    # the fit models the file with the config's protocol, and a climex
    # fit replays n_pings dither draws from the config's seed: a file
    # written under others would be fitted against the wrong model
    checked = {"protocol": setup.protocol}
    if setup.protocol == "climex":
        checked["seed"] = str(setup.scenario.seed)
    for key, want in checked.items():
        if key in headers and headers[key][1] != want:
            raise ConfigError(f"{path}: epoch written with {key} = "
                              f"{headers[key][1]}, config has {key} = {want}")
    n_pings = setup.scenario.n_pings
    if setup.protocol == "climex" and t_col.size != n_pings:
        raise ConfigError(f"{path}: {t_col.size} measurement rows, config "
                          f"has n_pings = {n_pings}")
    if t_col.size < 2:
        raise ConfigError(f"{path}: need at least two measurement rows")
    # the pings form a comb t_m * j: row j = 1 gives t_m, and every row
    # must agree with the comb to the digits it was written with
    t_m = float(t_col[1])
    comb = t_m * np.arange(t_col.size, dtype=float)
    if not (t_m > 0.0 and np.all(np.abs(t_col - comb) <= _COMB_RTOL * comb)):
        raise ConfigError(f"{path}: time column is not a ping comb "
                          f"t_m * j, t_m = {t_m!r} from row 1")
    return MeasurementEpoch(t_prime=t_prime, t_m=t_m, y_vec=y_col)


def cmd_estimate(args) -> int:
    setup = build_setup(_config_from_args(args))
    if args.infile is not None:
        epoch = _read_epoch_csv(args.infile, setup)
    else:
        epoch, _ = setup.run_epoch()
    ce = setup.estimate(epoch)
    est = ce.estimate
    lines = [
        f"f_d_hat_hz = {_fmt(est.f_d_hat)}",
        f"phi_hat_rad = {_fmt(est.phi_hat)}",
        f"rho_hat_m = {_fmt(est.rho_hat)}",
        f"cost_s2 = {_fmt(est.cost)}",
        f"at_grid_edge = {int(est.at_grid_edge)}",
        f"f_counterpart_hz = {_fmt(ce.f_counterpart_hz)}",
        f"t_b_hat_s = {_fmt(ce.t_b_hat)}",
        f"phi_test_hat_rad = {_fmt(ce.phi_test_hat)}",
        f"t_test_s = {_fmt(ce.t_test)}",
    ]
    _write_lines(lines, args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"bad --values list: {args.values!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"bad --values list: {args.values!r} holds "
                              f"a value that is not finite")
    else:
        try:
            values = list(log_spaced_values(args.lo, args.hi, args.n_values))
        except ValueError as exc:
            raise ConfigError(f"bad --lo/--hi/--n-values: {exc}") from None
    rows = run_sweep(cfg, values, args.trials, timing=args.timing)
    header = ["f_d_true_hz,trial,seed,f_d_err_hz,phi_test_err_rad,"
              "rho_err_m,runtime_s"]
    _write_table(header, (_FLOAT, "%d", "%d") + (_FLOAT,) * 4,
                 [[getattr(r, f.name) for r in rows]
                  for f in dataclasses.fields(SweepRow)], args.out)
    return 0


def cmd_budget(args) -> int:
    cfg = _config_from_args(args)
    # a run needs no budget, so build_setup takes a config whose lottery
    # holds no beat (say f0_hz = 1e5, where 10 ppm is a 1 Hz lottery)
    rep = from_config(cfg, BUDGET_KEYS, budget,
                      build_setup(cfg).budget_inputs)
    lines = [f"{name} = {v}" if isinstance(v, int) else f"{name} = {v:.6f}"
             for name, v in dataclasses.asdict(rep).items()]
    _write_lines(lines, args.out)
    return 0


def cmd_detect(args) -> int:
    setup = build_setup(_config_from_args(args))
    epoch, log = setup.run_epoch()
    n = epoch.n
    attacked = np.zeros(n, dtype=bool)
    won = np.zeros(n, dtype=bool)
    if setup.attack != "none":
        maker = (make_random_timing_plan if setup.attack == "random"
                 else make_oracle_plan)
        plan = maker(log, setup.rho_ae, setup.attack_n, rng=setup.attack_seed)
        attacked[plan.indices] = True
        epoch, won = remeasure_epoch(log, plan)
    amp, delta_vec = setup.fit_model()
    est, _ = robust_parameter_fit(epoch, setup.consts, amplitude=amp,
                                  grid=setup.grid, delta_vec=delta_vec,
                                  trim=setup.detect_trim)
    flags, resid = detect_outliers(epoch, est, setup.consts, amp,
                                   delta_vec=delta_vec, k=setup.detect_k)
    _, sigma_hat = mad_deviations(resid)
    lines = [
        f"n_pings = {n}",
        f"n_attacked = {int(attacked.sum())}",
        f"n_preempted = {int(won.sum())}",
        f"n_flagged = {int(flags.sum())}",
        f"true_positives = {int(np.sum(flags & won))}",
        f"false_positives = {int(np.sum(flags & ~won))}",
        f"threshold_k = {setup.detect_k:.6f}",
        f"sigma_hat_s = {_fmt(sigma_hat)}",
    ]
    _write_lines(lines, args.out)
    if args.residuals is not None:
        _write_table(["index,attacked,preempted,flagged,residual_s"],
                     ("%d", "%d", "%d", "%d", _FLOAT),
                     [np.arange(n), attacked, won, flags, resid],
                     args.residuals)
    return 0


# ======================================================================
# parser and entry point
# ======================================================================


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned
    again after: a process that calls ``main`` many times, as the tests
    and in-process callers do, builds it once (argparse set-up costs
    ~1 ms, mostly in the help formatter's locale lookups).  Parsing
    leaves the parser as it was."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file; defaults otherwise")
    common.add_argument("--seed", type=int, help="override the scenario seed")
    common.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")

    p = argparse.ArgumentParser(
        prog="climex",
        description="Clocked-impulse-exchange simulation and estimation")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", parents=[common],
                        help="run one exchange epoch, emit the epoch CSV")
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", parents=[common],
                        help="estimate counterpart parameters from an epoch")
    pe.add_argument("--in", dest="infile", metavar="PATH",
                    help="epoch CSV from 'simulate'; default simulates "
                         "internally")
    pe.set_defaults(func=cmd_estimate)

    pw = sub.add_parser("sweep", parents=[common],
                        help="accuracy sweep over the true beat frequency")
    pw.add_argument("--values", metavar="LIST",
                    help="comma-separated beat values in Hz")
    pw.add_argument("--lo", type=float, default=2.0,
                    help="lowest beat of the log-spaced sweep (default 2)")
    pw.add_argument("--hi", type=float, default=1000.0,
                    help="highest beat (default 1000)")
    pw.add_argument("--n-values", type=int, default=20,
                    help="number of swept values (default 20)")
    pw.add_argument("--trials", type=int, default=20,
                    help="trials per value (default 20)")
    pw.add_argument("--timing", action="store_true",
                    help="fill the runtime column (makes output "
                         "non-reproducible byte for byte)")
    pw.set_defaults(func=cmd_sweep)

    pb = sub.add_parser("budget", parents=[common],
                        help="secret-bit accounting report")
    pb.set_defaults(func=cmd_budget)

    pd = sub.add_parser("detect", parents=[common],
                        help="run an injection scenario and flag outliers")
    pd.add_argument("--residuals", metavar="PATH",
                    help="also write the per-ping residual CSV here")
    pd.set_defaults(func=cmd_detect)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolOverrunError, CausalityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
