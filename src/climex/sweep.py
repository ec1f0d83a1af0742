"""Batch accuracy sweeps over the true beat frequency.

Each swept value adjusts the responder offset so the exchange realizes
that beat, then runs independent seeded trials of the full pipeline:
tick-level plain exchange, grid-search estimation, counterpart phase
prediction, comparison against the hidden truth.  Row seeds are
``base_seed + value_index * trials + trial_index`` so any row can be
reproduced in isolation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import build_setup
from .estimators import complete_estimate, phase_error
from .protocol_sim import measure_phi_test_local, run_rtt_epoch

__all__ = ["SweepRow", "log_spaced_values", "run_sweep"]


@dataclass(frozen=True)
class SweepRow:
    """One trial's outcome; errors are estimate minus truth, the phase
    error is the circular magnitude."""

    f_d_true: float
    trial: int
    seed: int
    f_d_err: float
    phi_test_err: float
    rho_err: float
    runtime: float


def log_spaced_values(lo: float, hi: float, n: int) -> np.ndarray:
    for name, v in (("lo", lo), ("hi", hi)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for log spacing")
    if n < 1:
        raise ValueError("need at least one value")
    if n == 1:
        return np.asarray([lo])
    return np.geomspace(lo, hi, n)


def run_sweep(cfg: dict, f_d_values, trials: int, *,
              timing: bool = False) -> list[SweepRow]:
    """Estimation-accuracy sweep on the plain exchange.

    ``cfg`` is a config dictionary (see :mod:`climex.config`); its
    protocol entry is ignored because estimation runs on the plain
    round-trip phase.  The responder offset is recomputed per swept
    value; everything else comes from ``cfg``.  With ``timing`` off the
    runtime field is 0.0 so downstream output stays byte-stable.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rows: list[SweepRow] = []
    base_seed = int(cfg["seed"])
    for vi, value in enumerate(f_d_values):
        c2 = dict(cfg)
        c2["protocol"] = "rtt"
        c2["offset_b_hz"] = float(cfg["offset_a_hz"]) - float(value)
        for ti in range(trials):
            c2["seed"] = base_seed + vi * trials + ti
            setup = build_setup(c2)
            epoch, _ = run_rtt_epoch(setup.initiator, setup.responder,
                                     setup.scenario, setup.consts, setup.noise)
            t_test = epoch.t_prime + setup.t_test_offset
            t0 = time.perf_counter() if timing else 0.0
            ce = complete_estimate(epoch, setup.initiator.f_hz, setup.consts,
                                   grid=setup.grid, t_test=t_test)
            runtime = time.perf_counter() - t0 if timing else 0.0
            f_d_true = setup.initiator.f_hz - setup.responder.f_hz
            phi_true = measure_phi_test_local(setup.responder, t_test)
            rows.append(SweepRow(
                f_d_true=f_d_true,
                trial=ti,
                seed=c2["seed"],
                f_d_err=ce.estimate.f_d_hat - f_d_true,
                phi_test_err=phase_error(ce.phi_test_hat, phi_true),
                rho_err=ce.estimate.rho_hat - setup.scenario.rho_ab,
                runtime=runtime,
            ))
    return rows
