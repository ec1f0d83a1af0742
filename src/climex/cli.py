"""Command-line front end.

Five subcommands: simulate, estimate, sweep, budget, detect.  Every
command is deterministic for a given config and seed; nothing in the
default output depends on wall-clock time, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 runtime failure (protocol or
estimation errors), 2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
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

# A written time is off by at most half a unit in its 13th digit, 5e-13
# of its value; checking row j against j times row 1 meets two such
# errors.  The tolerance is twice their sum, for the check's own
# rounding.
_COMB_RTOL = 2.0 * 10.0 ** (1 - _DIGITS)


def _fmt(x) -> str:
    return format(float(x), f".{_DIGITS - 1}e")


def _write_lines(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    lines = [
        f"# protocol = {setup.protocol}",
        f"# seed = {setup.scenario.seed}",
        f"# t_prime_s = {_fmt(epoch.t_prime)}",
        "index,t_rel_s,rtt_s",
    ]
    lines.extend(f"{i},{_fmt(epoch.t_vec[i])},{_fmt(epoch.y_vec[i])}"
                 for i in range(epoch.n))
    _write_lines(lines, args.out)
    return 0


def _read_epoch_csv(path: str, setup: RunSetup) -> MeasurementEpoch:
    headers: dict[str, tuple[int, str]] = {}
    t_rows: list[float] = []
    y_rows: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read epoch file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            headers[key.strip()] = (lineno, value.strip())
            continue
        if line.startswith("index,"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path} line {lineno}: expected 3 columns")
        try:
            t_rows.append(float(parts[1]))
            y_rows.append(float(parts[2]))
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: bad number") from None
    if "t_prime_s" not in headers:
        raise ConfigError(f"{path}: missing '# t_prime_s = ...' header")
    lineno, value = headers["t_prime_s"]
    try:
        t_prime = float(value)
    except ValueError:
        raise ConfigError(f"{path} line {lineno}: bad t_prime_s "
                          f"value") from None
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
    if len(t_rows) < 2:
        raise ConfigError(f"{path}: need at least two measurement rows")
    # the pings form a comb t_m * j: row j = 1 gives t_m, and every row
    # must agree with the comb to the digits it was written with
    t_m = t_rows[1]
    comb = t_m * np.arange(len(t_rows), dtype=float)
    if not (t_m > 0.0 and np.all(np.abs(np.asarray(t_rows) - comb)
                                  <= _COMB_RTOL * comb)):
        raise ConfigError(f"{path}: time column is not a ping comb "
                          f"t_m * j, t_m = {t_rows[1]!r} from row 1")
    return MeasurementEpoch(t_prime=t_prime, t_m=t_m,
                            y_vec=np.asarray(y_rows))


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
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"bad --values list: {args.values!r}") from None
    else:
        values = list(log_spaced_values(args.lo, args.hi, args.n_values))
    rows = run_sweep(cfg, values, args.trials, timing=args.timing)
    lines = ["f_d_true_hz,trial,seed,f_d_err_hz,phi_test_err_rad,"
             "rho_err_m,runtime_s"]
    lines.extend(
        f"{_fmt(r.f_d_true)},{r.trial},{r.seed},{_fmt(r.f_d_err)},"
        f"{_fmt(r.phi_test_err)},{_fmt(r.rho_err)},{_fmt(r.runtime)}"
        for r in rows)
    _write_lines(lines, args.out)
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
        rows = ["index,attacked,preempted,flagged,residual_s"]
        rows.extend(
            f"{i},{int(attacked[i])},{int(won[i])},{int(flags[i])},"
            f"{_fmt(resid[i])}" for i in range(n))
        _write_lines(rows, args.residuals)
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
