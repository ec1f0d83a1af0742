"""Command-line front end.

Five subcommands: simulate, estimate, sweep, budget, detect.  Every
command is deterministic for a given config and seed; nothing in the
default output depends on wall-clock time, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 runtime failure (protocol or
estimation errors), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .adversary import (
    ShortEpochError,
    detect_outliers,
    mad_deviations,
    make_oracle_plan,
    make_random_timing_plan,
    remeasure_epoch,
    robust_parameter_fit,
)
from .config import ConfigError, RunSetup, build_setup, load_config
from .estimators import complete_estimate
from .protocol_sim import (
    CausalityError,
    ProtocolOverrunError,
    replay_dither,
    run_exchange,
)
from .secrecy import KeyRangeError, budget
from .signal_model import MeasurementEpoch
from .sweep import log_spaced_values, run_sweep

__all__ = ["main"]


# every number is written with 13 significant digits
_DIGITS = 13
_FLOAT = f"%.{_DIGITS - 1}e"

# A written time is off by at most half a unit in its 13th digit, 5e-13
# of its value; checking row j against j times row 1 meets two such
# errors.  The tolerance is twice their sum, for the check's own
# rounding.
_COMB_RTOL = 2.0 * 10.0 ** (1 - _DIGITS)

# epoch rows are parsed this many at a time, so the cell strings of
# only one chunk are alive at once
_PARSE_CHUNK = 512

_ASCII_DIGITS = frozenset("0123456789")


def _fmt(x) -> str:
    return _FLOAT % float(x)


def _write_text(text, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_lines(lines, out_path) -> None:
    _write_text("\n".join(lines) + "\n", out_path)


def _write_table(header_lines, row_format, columns, out_path) -> None:
    """The header lines, then one ``row_format`` line per row of
    ``columns`` (equal-length sequences of Python numbers), built by one
    ``%`` format over the interleaved cells."""
    width, n = len(columns), len(columns[0])
    cells = [None] * (width * n)
    for j, column in enumerate(columns):
        cells[j::width] = column
    _write_text("\n".join(header_lines) + "\n"
                + (row_format + "\n") * n % tuple(cells), out_path)


def _setup_from_args(args) -> RunSetup:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return build_setup(cfg)


def _run_epoch(setup: RunSetup):
    return run_exchange(setup.initiator, setup.responder, setup.scenario,
                        setup.consts, setup.noise, kind=setup.protocol)


def _model_amplitude(setup: RunSetup) -> float:
    if setup.protocol == "rtt":
        return 1.0 / setup.consts.f_nominal
    return setup.consts.a_scale


def _known_dither(setup: RunSetup):
    # the collector owns the dither stream, so a fit on its own traffic
    # regenerates the draws from the scenario seed
    if setup.protocol == "rtt":
        return None
    return replay_dither(setup.scenario, setup.consts)


# ======================================================================
# subcommands
# ======================================================================


def cmd_simulate(args) -> int:
    setup = _setup_from_args(args)
    epoch, _ = _run_epoch(setup)
    header = [
        f"# protocol = {setup.protocol}",
        f"# seed = {setup.scenario.seed}",
        f"# t_prime_s = {_fmt(epoch.t_prime)}",
        "index,t_rel_s,rtt_s",
    ]
    _write_table(header, f"%d,{_FLOAT},{_FLOAT}",
                 [range(epoch.n), epoch.t_vec.tolist(), epoch.y_vec.tolist()],
                 args.out)
    return 0


def _split_epoch_lines(lines: list[str]):
    """The ``#`` headers of an epoch file (key -> (line number, value)),
    its measurement rows in order, and the numbers of the lines that are
    not rows: headers, blank lines and ``index,`` lines.

    A line that starts with an ASCII digit is a row as it stands:
    stripping it could only trim its last cell, which the number parse
    trims anyway.  Only the other lines are stripped and classified.
    """
    headers: dict[str, tuple[int, str]] = {}
    body: list[str] = []
    dropped: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        if raw[:1] in _ASCII_DIGITS:
            body.append(raw)
            continue
        line = raw.strip()
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            headers[key.strip()] = (lineno, value.strip())
        elif line and not line.startswith("index,"):
            body.append(line)
            continue
        dropped.append(lineno)
    return headers, body, dropped


def _parse_rows(path: str, body: list[str], dropped: list[int]):
    """The time and value columns of the rows, as float64 arrays.

    Each chunk of k rows is joined with ",\n" and split on commas.  The
    rows all have three cells exactly when that gives 3 k cells and the
    k - 1 newlines all fall in cells 3, 6, 9, ...; the time and value
    cells are then every third cell from 1 and from 2, and numpy parses
    each column in one call, taking ``float`` of every cell.  An rtt
    must be finite and non-negative, as a measurement is.  If a chunk
    fails, its rows are checked one by one and the error names the line
    of the first bad row.
    """
    n = len(body)
    t_col, y_col = np.empty(n), np.empty(n)
    for start in range(0, n, _PARSE_CHUNK):
        chunk = body[start:start + _PARSE_CHUNK]
        cells = ",\n".join(chunk).split(",")
        try:
            if (len(cells) != 3 * len(chunk)
                    or "".join(cells[3::3]).count("\n") != len(chunk) - 1):
                raise ValueError
            t_col[start:start + len(chunk)] = np.array(cells[1::3],
                                                       dtype=float)
            y = y_col[start:start + len(chunk)]
            y[:] = np.array(cells[2::3], dtype=float)
            if not np.all(np.isfinite(y) & (y >= 0.0)):
                raise ValueError
        except ValueError:
            _raise_bad_row(path, chunk, start, dropped)
    return t_col, y_col


def _raise_bad_row(path: str, chunk: list[str], start: int,
                   dropped: list[int]):
    for k, line in enumerate(chunk, start=start):
        parts = line.split(",")
        if len(parts) != 3:
            problem = "expected 3 columns"
        else:
            try:
                float(parts[1])
                rtt = float(parts[2])
            except ValueError:
                problem = "bad number"
            else:
                if math.isfinite(rtt) and rtt >= 0.0:
                    continue
                problem = "rtt_s must be finite and non-negative"
        # row k sits after every dropped line that comes before it
        lineno = k + 1
        for skipped in dropped:
            if skipped > lineno:
                break
            lineno += 1
        raise ConfigError(f"{path} line {lineno}: {problem}")
    raise AssertionError("bulk row parse failed on rows that parse")


def _read_epoch_csv(path: str, setup: RunSetup) -> MeasurementEpoch:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read epoch file {path}: {exc}") from None
    headers, body, dropped = _split_epoch_lines(text.splitlines())
    del text        # the lines hold it now: 0.3 MB less peak at 10^4 rows
    t_col, y_col = _parse_rows(path, body, dropped)
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
    # fit replays the dither from the config's seed: a file written
    # under others would be fitted against the wrong model
    checked = {"protocol": setup.protocol}
    if setup.protocol == "climex":
        checked["seed"] = str(setup.scenario.seed)
    for key, want in checked.items():
        if key in headers and headers[key][1] != want:
            raise ConfigError(f"{path}: epoch written with {key} = "
                              f"{headers[key][1]}, config has {key} = {want}")
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
    setup = _setup_from_args(args)
    if args.infile is not None:
        epoch = _read_epoch_csv(args.infile, setup)
    else:
        epoch, _ = _run_epoch(setup)
    ce = complete_estimate(
        epoch, setup.initiator.f_hz, setup.consts, grid=setup.grid,
        amplitude=_model_amplitude(setup), delta_vec=_known_dither(setup),
        t_test=epoch.t_prime + setup.t_test_offset)
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
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
    # a beat the search grid cannot hold comes back as a grid-edge fit
    # with an error of the beat's size, and a zero beat has no phase
    lo, hi = cfg["grid_f_lo_hz"], cfg["grid_f_hi_hz"]
    for v in map(float, values):
        if v == 0.0:
            raise ConfigError(f"swept beat {v!r} Hz: a zero beat leaves "
                              f"the counterpart phase unobservable")
        if not lo <= v <= hi:
            raise ConfigError(f"swept beat {v!r} Hz is outside the search "
                              f"grid [{lo!r}, {hi!r}] Hz")
    rows = run_sweep(cfg, values, args.trials, timing=args.timing)
    header = ["f_d_true_hz,trial,seed,f_d_err_hz,phi_test_err_rad,"
              "rho_err_m,runtime_s"]
    fields = ("f_d_true", "trial", "seed", "f_d_err", "phi_test_err",
              "rho_err", "runtime")
    _write_table(header, ",".join([_FLOAT, "%d", "%d"] + [_FLOAT] * 4),
                 [[getattr(r, name) for r in rows] for name in fields],
                 args.out)
    return 0


def cmd_budget(args) -> int:
    setup = _setup_from_args(args)
    rep = budget(setup.budget_inputs)
    lines = [
        f"n_freq_values = {rep.n_freq}",
        f"pair_count_exact = {rep.pair_count}",
        f"pair_count_area = {rep.pair_area:.6f}",
        f"log2_pairs_exact = {rep.log2_pairs:.6f}",
        f"log2_pairs_area = {rep.log2_pairs_area:.6f}",
        f"bits_f = {rep.bits_f}",
        f"n_phi_states = {rep.n_phi_states:.6f}",
        f"log2_phi = {rep.log2_phi:.6f}",
        f"bits_phi = {rep.bits_phi}",
        f"n_rho_states = {rep.n_rho_states:.6f}",
        f"log2_rho = {rep.log2_rho:.6f}",
        f"bits_rho = {rep.bits_rho}",
        f"bits_total_floor = {rep.bits_total_floor}",
        f"bits_total_rounded = {rep.bits_total_rounded}",
        f"log2_total_exact = {rep.log2_total:.6f}",
        f"log2_total_area = {rep.log2_total_area:.6f}",
    ]
    _write_lines(lines, args.out)
    return 0


def cmd_detect(args) -> int:
    setup = _setup_from_args(args)
    epoch, log = _run_epoch(setup)
    n = epoch.n
    attacked = np.zeros(n, dtype=bool)
    won = np.zeros(n, dtype=bool)
    if setup.attack != "none":
        if setup.attack_n < 1:
            raise ConfigError("attack_n must be positive when attack is on")
        maker = (make_random_timing_plan if setup.attack == "random"
                 else make_oracle_plan)
        plan = maker(log, setup.rho_ae, setup.attack_n, rng=setup.attack_seed)
        attacked[plan.indices] = True
        epoch, won = remeasure_epoch(log, plan)
    amp = _model_amplitude(setup)
    delta_vec = _known_dither(setup)
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
                     f"%d,%d,%d,%d,{_FLOAT}",
                     [range(n), attacked.tolist(), won.tolist(),
                      flags.tolist(), resid.tolist()], args.residuals)
    return 0


# ======================================================================
# parser and entry point
# ======================================================================


def build_parser() -> argparse.ArgumentParser:
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
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolOverrunError, CausalityError, KeyRangeError,
            ShortEpochError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
