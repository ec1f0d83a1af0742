"""The four workloads.

Each workload is a loop of independent units.  ``unit(i, tr)`` builds
unit ``i``'s config from the workload seed, calls the package only
through public functions of its modules (each call wrapped by ``tr``),
and returns an ``Outcome``: a canonical text of everything the unit
computed (floats in hex, so equal text means bit-equal results),
whether its own checks passed, and the figures ``finish`` aggregates.

Accuracy figures and criterion checks use the first ``min_units``
units only, so they are a pure function of the seed however many units
the timed loop gets through; the loop always runs at least that many.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import climex
from climex.adversary import (
    detect_outliers,
    eve_estimate_rtt,
    eve_tdoa_epoch,
    make_oracle_plan,
    make_random_timing_plan,
    remeasure_epoch,
    robust_parameter_fit,
)
from climex.cli import main
from climex.config import DEFAULTS, build_setup
from climex.estimators import complete_estimate, phase_error
from climex.protocol_sim import (
    measure_phi_test_local,
    run_climex_epoch,
    run_rtt_epoch,
)
from climex.secrecy import KeyRangeError, budget, derive_key
from climex.sweep import log_spaced_values, run_sweep
from tracing import Finish, Outcome

__all__ = ["WORKLOADS"]


def canon(*values) -> str:
    parts = []
    for v in values:
        if isinstance(v, np.ndarray):
            parts.append(hashlib.sha256(np.ascontiguousarray(v).tobytes())
                         .hexdigest()[:16])
        elif isinstance(v, float):
            parts.append(v.hex())
        else:
            parts.append(str(v))
    return " ".join(parts)


def count_search(tr, grid, samples: int, edge=None) -> None:
    """Computed work of one grid search: the coarse ladder plus the
    full +-df refine window, each step one phasor multiply per sample.
    The one-sided refine window of an edge pick is not subtracted."""
    ladder = grid.freq_values().size + 2 * grid.refine + 1
    tr.add("estimators.samples", samples)
    tr.add("estimators.ladder_points", ladder)
    tr.add("estimators.phasor_mults", ladder * samples)
    if edge is not None:
        tr.add("estimators.flagged_fits")
        tr.add("estimators.edge_fits", int(edge))


# ======================================================================
# sweep-accuracy: criterion-2 trials plus key agreement
# ======================================================================


class SweepAccuracy:
    """One unit is one criterion-2 trial at the default config (10^4
    plain pings, 1 ns jitter, 2 ns stamping, default grid).  Unit i
    takes beat value i mod 20 of the log-spaced 2 Hz..1 kHz set and
    trial i div 20, seeded by run_sweep's rule with TRIALS trials per
    value, so every unit is a row run_sweep would produce."""

    name = "sweep-accuracy"
    unit_layer = "sweep"
    min_units = 100
    TRIALS = 1_000_000
    N_VALUES = 20
    N_EQUIV = 3

    def __init__(self, seed: int, work_dir: str):
        self.cfg = dict(DEFAULTS, seed=seed)
        self.values = log_spaced_values(2.0, 1000.0, self.N_VALUES)
        rep = budget(build_setup(self.cfg).budget_inputs)
        self.widths = (rep.bits_f, rep.bits_phi, rep.bits_rho)

    def _row_cfg(self, i: int) -> tuple:
        vi, ti = i % self.N_VALUES, i // self.N_VALUES
        value = float(self.values[vi])
        cfg = dict(self.cfg, protocol="rtt",
                   offset_b_hz=float(self.cfg["offset_a_hz"]) - value)
        cfg["seed"] = int(self.cfg["seed"]) + vi * self.TRIALS + ti
        return cfg, value, ti

    def _key(self, tr, *args):
        try:
            return tr.call(derive_key, *args)
        except KeyRangeError:
            return None

    def unit(self, i: int, tr) -> Outcome:
        cfg, _, ti = self._row_cfg(i)
        setup = tr.call(build_setup, cfg)
        epoch, _ = tr.call(run_rtt_epoch, setup.initiator, setup.responder,
                           setup.scenario, setup.consts, setup.noise)
        tr.add("protocol_sim.pings", setup.scenario.n_pings)
        t_test = epoch.t_prime + setup.t_test_offset
        ce = tr.call(complete_estimate, epoch, setup.initiator.f_hz,
                     setup.consts, grid=setup.grid,
                     amplitude=1.0 / setup.consts.f_nominal, t_test=t_test)
        count_search(tr, setup.grid, epoch.n, ce.estimate.at_grid_edge)
        est = ce.estimate
        f_d_true = setup.initiator.f_hz - setup.responder.f_hz
        phi_true = tr.call(measure_phi_test_local, setup.responder, t_test)
        row = (f_d_true, ti, cfg["seed"], est.f_d_hat - f_d_true,
               tr.call(phase_error, ce.phi_test_hat, phi_true),
               est.rho_hat - setup.scenario.rho_ab)
        tr.add("sweep.rows")

        key_est = self._key(tr, setup.initiator.f_hz, ce.f_counterpart_hz,
                            ce.phi_test_hat, est.rho_hat, setup.budget_inputs)
        key_true = self._key(tr, setup.initiator.f_hz, setup.responder.f_hz,
                             phi_true, setup.scenario.rho_ab,
                             setup.budget_inputs)
        refused = key_est is None or key_true is None
        mismatch = None
        if refused:
            tr.add("secrecy.refused")
        else:
            mismatch = self._mismatch(key_est, key_true)
            tr.add("secrecy.pairs")
            for part, bad in zip(("f", "phi", "rho"), mismatch):
                tr.add(f"secrecy.{part}_mismatch", int(bad))
        ok = (all(math.isfinite(v) for v in row)
              and all(k is None or len(k) == sum(self.widths)
                      for k in (key_est, key_true)))
        return Outcome(canon(*row, key_est, key_true), ok,
                       {"row": row, "refused": refused,
                        "match": None if refused else not any(mismatch)})

    def _mismatch(self, a: str, b: str) -> tuple:
        out, pos = [], 0
        for w in self.widths:
            out.append(a[pos:pos + w] != b[pos:pos + w])
            pos += w
        return tuple(out)

    def finish(self, outcomes: list, tr) -> Finish:
        first = [o for o in outcomes[:self.min_units] if o is not None]
        rows = np.array([o.data["row"] for o in first]) if first else None
        pairs = [o.data["match"] for o in first if not o.data["refused"]]
        metrics = {
            "f_d_err_med_hz": float(np.median(np.abs(rows[:, 3]))),
            "phi_test_err_med_rad": float(np.median(rows[:, 4])),
            "rho_err_med_m": float(np.median(np.abs(rows[:, 5]))),
            "key_match_frac": sum(pairs) / len(pairs) if pairs else 0.0,
            "key_refused_frac": sum(o.data["refused"] for o in first)
                                / len(first),
        } if first else {}
        checks = {}
        if len(first) >= self.min_units:
            checks = {
                "f_d_err_med_le_0.5Hz": metrics["f_d_err_med_hz"] <= 0.5,
                "phi_test_err_med_le_0.1rad":
                    metrics["phi_test_err_med_rad"] <= 0.1,
                "rho_err_med_le_2cm": metrics["rho_err_med_m"] <= 0.02,
            }
        # the benchmark's trial must be run_sweep's row, bit for bit;
        # rows with small trial indices keep the reference run short
        done = [i for i, o in enumerate(outcomes[:3 * self.N_VALUES])
                if o is not None]
        rng = np.random.default_rng([int(self.cfg["seed"]), 1])
        sample = rng.choice(done, size=min(self.N_EQUIV, len(done)),
                            replace=False) if done else []
        failed = set()
        for i in (int(j) for j in sample):
            cfg, value, ti = self._row_cfg(i)
            cfg["seed"] -= ti
            ref = run_sweep(cfg, [value], ti + 1)[-1]
            got = outcomes[i].data["row"]
            want = (ref.f_d_true, ref.trial, ref.seed, ref.f_d_err,
                    ref.phi_test_err, ref.rho_err)
            if canon(*got) != canon(*want):
                failed.add(i)
        checks["run_sweep_rows_bit_equal"] = not failed
        return Finish(metrics, checks, failed)


# ======================================================================
# listener: criterion-4 passive tap, plain against protected
# ======================================================================


class Listener:
    """One unit is one seed with the beat drawn log-uniformly from
    2 Hz to 1 kHz: a plain and a dithered epoch of 10^4 pings at the
    default noise, each tapped at (4.0 m, 2.5 m) and fitted by the
    listener on its comb-fit time grid."""

    name = "listener"
    unit_layer = "unit"
    min_units = 50

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def unit(self, i: int, tr) -> Outcome:
        rng = np.random.default_rng([self.seed, i])
        f_d = float(np.exp(rng.uniform(np.log(2.0), np.log(1000.0))))
        scen_seed, plain_seed, prot_seed = (int(x) for x in
                                            rng.integers(2**31, size=3))
        cfg = dict(DEFAULTS, protocol="climex", dither="uniform",
                   offset_b_hz=DEFAULTS["offset_a_hz"] - f_d,
                   rho_ae_m=4.0, rho_be_m=2.5, seed=scen_seed)
        setup = tr.call(build_setup, cfg)
        f_d_true = setup.initiator.f_hz - setup.responder.f_hz
        errs, parts = [], []
        for runner, eve_seed in ((run_rtt_epoch, plain_seed),
                                 (run_climex_epoch, prot_seed)):
            _, log = tr.call(runner, setup.initiator, setup.responder,
                             setup.scenario, setup.consts, setup.noise)
            tr.add("protocol_sim.pings", setup.scenario.n_pings)
            tap = tr.call(eve_tdoa_epoch, log, setup.rho_ae, setup.rho_be,
                          setup.noise, eve_seed)
            est = tr.call(eve_estimate_rtt, tap, setup.consts,
                          grid=setup.grid)
            count_search(tr, setup.grid, tap.tdoa.size)
            errs.append(abs(est.f_d_hat - f_d_true))
            parts += [est.f_d_hat, est.f_b_hat, est.phi_hat, est.cost]
        ok = all(math.isfinite(v) for v in parts)
        return Outcome(canon(f_d_true, *parts), ok, {"errs": errs})

    def finish(self, outcomes: list, tr) -> Finish:
        first = [o for o in outcomes[:self.min_units] if o is not None]
        if not first:
            return Finish({}, {}, set())
        errs = np.array([o.data["errs"] for o in first])
        plain, prot = (float(x) for x in np.median(errs, axis=0))
        metrics = {"listener_contrast": prot / plain,
                   "plain_beat_err_med_hz": plain,
                   "protected_beat_err_med_hz": prot}
        checks = {}
        if len(first) >= self.min_units:
            checks = {"contrast_ge_10": prot >= 10.0 * plain,
                      "plain_beat_err_med_le_0.5Hz": plain <= 0.5}
        return Finish(metrics, checks, set())


# ======================================================================
# injection-detect: criterion-7 short epochs
# ======================================================================


class InjectionDetect:
    """One unit is one seed of the criterion-7 scenario: a 200-ping
    plain epoch at ps noise and a 500 Hz beat, put through a
    random-timing injection, a clean pass and an oracle injection,
    each with 40 forgeries from 3.5 m, a trimmed robust refit and
    k = 4 outlier detection."""

    name = "injection-detect"
    unit_layer = "unit"
    # the targets are rates.  The clean false-positive rate measures
    # about 2.5 % and reached 4.5 % on one seed at 400 epochs; at 600
    # the 5 % target sits near four binomial standard deviations away,
    # so sampling alone does not cross it.
    min_units = 600

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed

    def _pass(self, tr, setup, epoch, won, amp):
        est, keep = tr.call(robust_parameter_fit, epoch, setup.consts,
                            amplitude=amp, grid=setup.grid,
                            trim=setup.detect_trim)
        count_search(tr, setup.grid, epoch.n)
        count_search(tr, setup.grid, int(keep.sum()), est.at_grid_edge)
        flags, resid = tr.call(detect_outliers, epoch, est, setup.consts,
                               amp, k=setup.detect_k)
        tr.add("adversary.fit_samples", keep.size)
        tr.add("adversary.kept", int(keep.sum()))
        tr.add("adversary.checked", flags.size)
        tr.add("adversary.flagged", int(flags.sum()))
        out = canon(est.f_d_hat, est.phi_hat, est.rho_hat, est.cost, keep,
                    flags, resid)
        return out, bool(np.any(flags & won)), bool(np.any(flags))

    def unit(self, i: int, tr) -> Outcome:
        rng = np.random.default_rng([self.seed, i])
        scen_seed, attack_seed = (int(x) for x in rng.integers(2**31, size=2))
        cfg = dict(DEFAULTS, n_pings=200, sigma_j_s=1.0e-12,
                   sigma_c_s=2.0e-12, delta0_s=2.0e-8, rho_ae_m=3.5,
                   attack="random", attack_n=40, attack_seed=attack_seed,
                   offset_b_hz=DEFAULTS["offset_a_hz"] - 500.0,
                   theta_a_rad=0.3, theta_b_rad=1.1, seed=scen_seed)
        setup = tr.call(build_setup, cfg)
        amp = 1.0 / setup.consts.f_nominal
        epoch, log = tr.call(run_rtt_epoch, setup.initiator, setup.responder,
                             setup.scenario, setup.consts, setup.noise)
        tr.add("protocol_sim.pings", setup.scenario.n_pings)

        outs, ok = [], True
        plan = tr.call(make_random_timing_plan, log, setup.rho_ae,
                       setup.attack_n, setup.attack_seed)
        ep_r, won_r = tr.call(remeasure_epoch, log, plan)
        # a blind forger from 3.5 m always beats the honest respond
        ok &= int(won_r.sum()) == setup.attack_n
        out, hit, _ = self._pass(tr, setup, ep_r, won_r, amp)
        outs.append(out)

        out, _, clean_fp = self._pass(tr, setup, epoch,
                                      np.zeros(epoch.n, dtype=bool), amp)
        outs.append(out)

        plan = tr.call(make_oracle_plan, log, setup.rho_ae, setup.attack_n,
                       setup.attack_seed)
        ep_o, won_o = tr.call(remeasure_epoch, log, plan)
        out, oracle_hit, _ = self._pass(tr, setup, ep_o, won_o, amp)
        outs.append(out)

        tr.add("adversary.forged", 2 * setup.attack_n)
        tr.add("adversary.preempted", int(won_r.sum() + won_o.sum()))
        tr.add("adversary.oracle_passes")
        tr.add("adversary.oracle_hits", int(oracle_hit))
        return Outcome(" | ".join(outs), ok,
                       {"hit": hit, "clean_fp": clean_fp,
                        "oracle": oracle_hit})

    def finish(self, outcomes: list, tr) -> Finish:
        first = [o for o in outcomes[:self.min_units] if o is not None]
        if not first:
            return Finish({}, {}, set())
        n = len(first)
        metrics = {
            "detect_hit_frac": sum(o.data["hit"] for o in first) / n,
            "clean_fp_frac": sum(o.data["clean_fp"] for o in first) / n,
            "oracle_flag_frac": sum(o.data["oracle"] for o in first) / n,
        }
        checks = {}
        if n >= self.min_units:
            checks = {
                "detect_hit_frac_ge_0.99": metrics["detect_hit_frac"] >= 0.99,
                "clean_fp_frac_le_0.05": metrics["clean_fp_frac"] <= 0.05,
                "oracle_flag_frac_le_0.05":
                    metrics["oracle_flag_frac"] <= 0.05,
            }
        return Finish(metrics, checks, set())


# ======================================================================
# cli-default: the command-line tool's five commands
# ======================================================================


# (span name, arguments, output file the command writes or None)
COMMANDS = (
    ("simulate", ["simulate", "--config", "run.cfg", "--out", "sim.csv"],
     "sim.csv"),
    ("estimate_in", ["estimate", "--config", "run.cfg", "--in", "sim.csv"],
     None),
    ("estimate", ["estimate", "--config", "run.cfg"], None),
    ("detect", ["detect", "--config", "attack.cfg", "--residuals",
                "res.csv"], "res.csv"),
    ("budget", ["budget"], None),
)

COMMAND_TIMEOUT_S = 60

ATTACK_CFG = ("n_pings = 200\nattack = random\nattack_n = 40\n"
              "rho_ae_m = 3.5\nsigma_j_s = 1e-12\nsigma_c_s = 2e-12\n"
              "delta0_s = 2e-8\n")


class CliDefault:
    """One unit is one cycle of the commands a user runs, through
    ``climex.cli.main``: ``simulate --out``, ``estimate --in`` on that
    CSV, ``estimate``, ``detect`` with a random-attack config plus
    ``--residuals``, and ``budget``, on benchmark-written config files.
    Units 2k and 2k+1 share a config, so every command runs twice and
    its output is compared byte for byte.

    The timed units run in the measuring process: run as separate
    processes, the cycle's timings spread by up to a fifth between runs
    on a shared machine, start-up noise swamping the work.  Start-up is
    measured by ``setup_s`` (fresh interpreters importing the package)
    and ``cli.import_ms``.  After the timed loop unit 0's cycle runs
    again as ``python -m climex`` subprocesses from the scratch
    directory, the package found through an absolute ``PYTHONPATH``;
    their output must equal the in-process output byte for byte."""

    name = "cli-default"
    unit_layer = "unit"
    min_units = 2
    N_IMPORT = 3

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(climex.__file__)))
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _write_configs(self, i: int) -> None:
        rng = random.Random(f"{self.seed}/{i // 2}")
        seed, attack_seed = rng.randrange(2**31), rng.randrange(2**31)
        texts = (f"seed = {seed}\n",
                 ATTACK_CFG + f"seed = {seed}\nattack_seed = {attack_seed}\n")
        for name, text in zip(("run.cfg", "attack.cfg"), texts):
            with open(self._path(name), "w", encoding="utf-8") as fh:
                fh.write(text)

    def _argv(self, args: list) -> list:
        return [self._path(a) if a.endswith((".cfg", ".csv")) else a
                for a in args]

    def _produced(self, stdout: bytes, out_file) -> bytes:
        if out_file is None:
            return stdout
        with open(self._path(out_file), "rb") as fh:
            return fh.read()

    def unit(self, i: int, tr) -> Outcome:
        self._write_configs(i)
        digest = hashlib.sha256()
        ok = True
        for name, args, out_file in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with tr.span("cli", name), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(self._argv(args))
            stdout = out.getvalue().encode()
            produced = self._produced(stdout, out_file)
            tr.add("cli.output_bytes",
                   len(stdout) + (len(produced) if out_file else 0))
            tr.add("cli.nonzero_exits", int(code != 0))
            if code != 0 or err.getvalue() or not produced:
                ok = False
                sys.stderr.write(f"{name}: exit {code}: {err.getvalue()}\n")
            digest.update(name.encode() + b"\0" + stdout + b"\0"
                          + produced + b"\0")
        return Outcome(digest.hexdigest(), ok, {})

    def _process_cycle(self) -> tuple:
        """Unit 0's cycle as ``python -m climex`` subprocesses.  Returns
        its output digest (as a unit computes it) and wall time."""
        self._write_configs(0)
        digest = hashlib.sha256()
        t0 = time.perf_counter()
        for name, args, out_file in COMMANDS:
            r = subprocess.run([sys.executable, "-m", "climex"]
                               + self._argv(args),
                               cwd=self.work_dir, env=self.env,
                               capture_output=True, check=False,
                               timeout=COMMAND_TIMEOUT_S)
            if r.returncode != 0 or r.stderr:
                sys.stderr.write(f"python -m climex {name}: exit "
                                 f"{r.returncode}: {r.stderr.decode()}\n")
            digest.update(name.encode() + b"\0" + r.stdout + b"\0"
                          + self._produced(r.stdout, out_file) + b"\0")
        return digest.hexdigest(), time.perf_counter() - t0

    def finish(self, outcomes: list, tr) -> Finish:
        # units 2k and 2k+1 ran the same configs: byte-identical output
        twice = {i + 1 for i in range(0, len(outcomes) - 1, 2)
                 if outcomes[i] is not None and outcomes[i + 1] is not None
                 and outcomes[i].out != outcomes[i + 1].out}
        process_out, process_s = self._process_cycle()
        same = outcomes[0] is not None and outcomes[0].out == process_out
        checks = {"outputs_identical_when_run_twice": not twice,
                  "process_output_equals_in_process": same}
        if tr.enabled:
            tr.add("cli.import_ms", self._bare_import_ms())
        return Finish({"process_cycle_ms": process_s * 1000.0}, checks,
                      twice if same else twice | {0})

    def _bare_import_ms(self) -> float:
        """Median wall time of a fresh interpreter importing the package:
        the start-up floor under every command."""
        times = []
        for _ in range(self.N_IMPORT):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import climex"],
                           cwd=self.work_dir, env=self.env, check=True,
                           capture_output=True, timeout=COMMAND_TIMEOUT_S)
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)


WORKLOADS = {w.name: w for w in (SweepAccuracy, Listener, InjectionDetect,
                                 CliDefault)}
