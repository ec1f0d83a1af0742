"""Tick-level simulation of the ping/respond exchange.

The engine realizes both exchange flavors from explicit clock edges.
The initiator emits on every M-th edge of its oscillator; the responder
latches each arrival against its own edge comb (:func:`latch_gap`, the
passive listener's latch too), scales the latched gap onto the public
amplitude, adds the deterministic processing delay, and replies.  Nothing in here is fitted: this is the forward model the
estimators are blind-tested against, so it must agree with the
closed-form epoch models of :mod:`climex.signal_model` rather than call
them.

Dither convention: a drawn dither value advances the scheduled emission
(the ping leaves at nominal minus delta).  Advancing the ping makes the
responder's latched gap larger by the same amount modulo its period,
which is the plus sign the measurement model carries inside its
modulus, so the recorded dither vector plugs directly into
``epoch_model``.  The published epoch timestamp is the nominal
(undithered) first emission.

Timestamps are absolute seconds in float64.  Phase extraction from an
absolute time loses precision as the magnitude grows: the latched gaps
agree with the closed forms to about 1e-12 s for scenario start times
up to 1e3 s, and drift from there (several ps at 1e4 s, ~5 ns at
1e7 s).  So a scenario refuses a start time outside +-1e3 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal_model import (
    ClockParams,
    MeasurementEpoch,
    NoiseParams,
    ProtocolConstants,
    draw_epoch_noise,
    fold,
    require_finite,
)

__all__ = [
    "ProtocolOverrunError",
    "CausalityError",
    "ScenarioConfig",
    "ArrivalLog",
    "DITHER_SLOT",
    "NOISE_SLOT",
    "scenario_stream",
    "first_edge_at_or_after",
    "cycles_to_next_edge",
    "latch_gap",
    "measure_phi_test_local",
    "ping_decimation",
    "replay_dither",
    "run_exchange",
    "run_rtt_epoch",
    "run_climex_epoch",
]

_TWO_PI = 2.0 * np.pi
_T_START_LIMIT = 1.0e3     # s: the agreement bound above


class ProtocolOverrunError(RuntimeError):
    """A respond (or a dithered ping) collides with the next ping slot."""


class CausalityError(RuntimeError):
    """Event ordering violates signal causality."""


# ======================================================================
# scenario configuration and random streams
# ======================================================================


@dataclass(frozen=True)
class ScenarioConfig:
    """Exchange-level knobs that are not clock or noise parameters.
    ``dither`` "uniform" advances each ping by U(0, 1 / f_nominal).
    ``t_start`` lies within +-1e3 s, where the tick engine holds."""

    t_m: float = 1.0e-4
    n_pings: int = 10000
    rho_ab: float = 3.0
    t_start: float = 0.0
    dither: str = "none"
    seed: int = 0

    def __post_init__(self):
        require_finite(t_m=self.t_m, rho_ab=self.rho_ab)
        if self.t_m <= 0.0:
            raise ValueError("ping interval t_m must be positive")
        if self.n_pings < 1:
            raise ValueError("n_pings must be at least 1")
        if self.rho_ab < 0.0:
            raise CausalityError("negative initiator-responder distance")
        if not abs(self.t_start) <= _T_START_LIMIT:
            raise ValueError(f"start time t_start = {self.t_start!r} s is "
                             f"outside +-{_T_START_LIMIT:g} s, where the "
                             f"tick engine meets the closed forms")
        if self.dither not in ("none", "uniform"):
            raise ValueError(f"unknown dither kind {self.dither!r}")


# the spawn keys of the initiator's streams under the scenario seed
DITHER_SLOT = 1
NOISE_SLOT = 2


def scenario_stream(seed, slot: int) -> np.random.Generator:
    """The generator of one of the initiator's draws: child ``slot`` of
    ``SeedSequence(seed)``, addressed by spawn key.

    Each draw owns its slot, so changing one knob (say, the dither kind)
    never shifts the draws seen by another, and a caller builds only the
    stream it draws from.  Adversary draws take their own explicit seeds.
    """
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(slot,)))


# ======================================================================
# clock-edge helpers
# ======================================================================


def first_edge_at_or_after(clock: ClockParams, t: float) -> float:
    """Time of the clock's first edge at or after ``t`` (within one ulp)."""
    u = clock.f_hz * t + clock.theta_rad / _TWO_PI
    k = math.ceil(u)
    return (k - clock.theta_rad / _TWO_PI) / clock.f_hz


def cycles_to_next_edge(clock: ClockParams, t):
    """Fraction of a period left until the clock's next edge, in
    ``[0, 1)``: the wait a latch on this clock adds to an arrival at
    ``t``, in periods.  Zero means an edge falls exactly at ``t``."""
    return fold(-(clock.theta_rad / _TWO_PI)
                - clock.f_hz * np.asarray(t, dtype=float), 1.0)


def latch_gap(clock: ClockParams, t, noise):
    """The wait a latch on ``clock`` adds to arrivals at ``t``, with the
    latch's timing ``noise`` inside the modulus: in ``[0, period)``."""
    return fold(clock.period * cycles_to_next_edge(clock, t) + noise,
                clock.period)


def measure_phi_test_local(clock: ClockParams, t: float) -> float:
    """Phase left until the clock's next edge at ``t``, in ``[0, 2 pi)``:
    the check phase at the agreed test time, and on the responder's clock
    at ``t_prime + rho / c`` an epoch's true phase."""
    return float(_TWO_PI * cycles_to_next_edge(clock, t))


def ping_decimation(t_m: float, consts: ProtocolConstants) -> int:
    """Number of initiator clock edges per ping slot."""
    m = int(round(t_m * consts.f_nominal))
    if m < 1:
        raise ValueError("ping interval shorter than one clock period")
    return m


# ======================================================================
# the exchange engine
# ======================================================================


@dataclass
class ArrivalLog:
    """Ground-truth event record of one simulated epoch.

    Everything an omniscient observer could tap: adversary models read
    their observables from here, and tests read the hidden truth.
    """

    t_prime: float
    t_m_eff: float
    amplitude: float
    scale: float
    ping_nominal: np.ndarray
    ping_emit: np.ndarray
    respond_emit: np.ndarray
    respond_arrive: np.ndarray
    delta: np.ndarray
    noise_inner: np.ndarray
    noise_outer: np.ndarray
    cfg: ScenarioConfig
    consts: ProtocolConstants
    noise: NoiseParams


def replay_dither(cfg: ScenarioConfig,
                  consts: ProtocolConstants) -> np.ndarray:
    """Regenerate the initiator's private ping dither for a scenario.

    The draws are a pure function of ``cfg.seed``, so the initiator can
    rebuild them when refitting an epoch it recorded earlier (the epoch
    CSV does not carry them).  ``dither == "none"`` gives zeros.
    """
    if cfg.dither == "uniform":
        return scenario_stream(cfg.seed, DITHER_SLOT).uniform(
            0.0, 1.0 / consts.f_nominal, size=cfg.n_pings)
    return np.zeros(cfg.n_pings)


def run_exchange(initiator: ClockParams, responder: ClockParams,
                 cfg: ScenarioConfig, consts: ProtocolConstants,
                 noise: NoiseParams, kind: str = "rtt"):
    """Simulate one epoch of the exchange at clock-edge level.

    Returns ``(epoch, log)``.  The epoch is what the initiator walks
    away with: nominal relative measurement times (it trusts its own
    clock) and round-trip values.  The log is ground truth.

    kind "rtt":     responder replies after its raw edge gap; the
                    sawtooth amplitude is its private period.
    kind "climex":  ping emissions are dithered and the responder
                    rescales its gap onto the public amplitude.
    """
    if kind not in ("rtt", "climex"):
        raise ValueError(f"unknown exchange kind {kind!r}")

    n = cfg.n_pings
    if kind == "rtt":
        amplitude = responder.period
        delta = np.zeros(n)
    else:
        amplitude = consts.a_scale
        delta = replay_dither(cfg, consts)
    scale = amplitude / responder.period

    # t_m is counted in edges of the initiator's own (offset) oscillator
    t_m_eff = ping_decimation(cfg.t_m, consts) / initiator.f_hz
    e0 = first_edge_at_or_after(initiator, cfg.t_start)
    idx = np.arange(n, dtype=float)
    ping_nominal = e0 + t_m_eff * idx
    ping_emit = ping_nominal - delta
    if n >= 2 and np.any(np.diff(ping_emit) <= 0.0):
        raise ProtocolOverrunError("dither span reorders ping emissions")

    ping_arrive = ping_emit + cfg.rho_ab / consts.c
    n_in, w_out = draw_epoch_noise(n, noise,
                                   scenario_stream(cfg.seed, NOISE_SLOT))

    gap = latch_gap(responder, ping_arrive, n_in)

    respond_emit = ping_arrive + scale * gap + consts.delta_0
    respond_arrive = respond_emit + cfg.rho_ab / consts.c

    y = (respond_arrive - ping_emit) + w_out
    if np.any(y < 0.0):
        raise CausalityError("a respond arrives before its ping was sent")
    if n >= 2 and np.any(respond_arrive[:-1] >= ping_emit[1:]):
        raise ProtocolOverrunError("respond overruns the next ping slot")

    epoch = MeasurementEpoch(t_prime=e0, t_m=cfg.t_m, y_vec=y)
    log = ArrivalLog(
        t_prime=e0, t_m_eff=t_m_eff, amplitude=amplitude, scale=scale,
        ping_nominal=ping_nominal, ping_emit=ping_emit,
        respond_emit=respond_emit, respond_arrive=respond_arrive,
        delta=delta, noise_inner=n_in, noise_outer=w_out, cfg=cfg,
        consts=consts, noise=noise,
    )
    return epoch, log


def run_rtt_epoch(initiator, responder, cfg, consts, noise):
    """Plain round-trip epoch; dither settings in ``cfg`` are ignored."""
    return run_exchange(initiator, responder, cfg, consts, noise, kind="rtt")


def run_climex_epoch(initiator, responder, cfg, consts, noise):
    return run_exchange(initiator, responder, cfg, consts, noise, kind="climex")
