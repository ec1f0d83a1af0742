"""Adversary models: passive parameter recovery and active injection.

The passive adversary (Eve) owns a receiver at a fixed position.  She
timestamps every overheard ping and respond, and her primary observable
is the per-ping time difference of arrival between the two.  That TDOA
equals the responder's scaled edge gap plus constants, so against the
plain round-trip exchange she can run the very same sawtooth search the
initiator runs.  Against the dithered exchange the sawtooth she sees is
smeared over a full period and the search returns noise.

The active adversary injects forged responds.  The initiator's
time-to-digital converter stops on the first respond-like arrival in a
ping slot, so a forgery wins exactly when it arrives before the honest
respond.  Detection works on wrap-aware residuals against the fitted
sawtooth: the measurement is only defined modulo the amplitude, and a
linear residual would flag every benign wrap of the sawtooth as an
outlier.  The flip side is a blind zone: a forgery landing within
threshold of any multiple of the amplitude sits on an adjacent tooth
and is invisible to this test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    ParamEstimate,
    SearchGrid,
    dither_cycles,
    grid_search,
    model_fold_values,
)
from .protocol_sim import ArrivalLog, latch_gap, ping_decimation
from .signal_model import (
    ClockParams,
    MeasurementEpoch,
    NoiseParams,
    ProtocolConstants,
    fold,
)

__all__ = [
    "ShortEpochError",
    "EveEpoch",
    "EveEstimate",
    "InjectionPlan",
    "eve_tdoa_epoch",
    "eve_interarrival_epoch",
    "eve_estimate_rtt",
    "make_random_timing_plan",
    "make_oracle_plan",
    "inject_responses",
    "remeasure_epoch",
    "detect_outliers",
    "robust_parameter_fit",
    "mad_deviations",
    "CONSISTENCY_CONSTANT",
]

# MAD to sigma for a normal population
CONSISTENCY_CONSTANT = 1.4826

# how far ahead of the honest respond an oracle forgery lands, s
_ORACLE_LEAD_S = 1.0e-12

_MIN_EPOCH = 16


class ShortEpochError(ValueError):
    """Epoch too short for the requested statistical operation."""


# ======================================================================
# passive observables
# ======================================================================


@dataclass
class EveEpoch:
    """What a passive listener records during one epoch.

    ping_times  noisy absolute ping arrival timestamps, s
    tdoa        per-ping respond-minus-ping arrival difference, s
    """

    ping_times: np.ndarray
    tdoa: np.ndarray


@dataclass(frozen=True)
class EveEstimate:
    """Protocol parameters recovered by the passive listener."""

    t_m_hat: float
    f_d_hat: float
    f_a_hat: float
    f_b_hat: float
    t_b_hat: float
    phi_hat: float
    cost: float


def eve_tdoa_epoch(log: ArrivalLog, rho_ae: float, rho_be: float,
                   noise: NoiseParams, rng=None) -> EveEpoch:
    """Tap one exchange from position (rho_ae, rho_be).

    The TDOA is formed as (respond emission - ping emission) plus the
    path difference (rho_be - rho_ae) / c, the way a hardware
    start/stop converter differences the two arrivals; the absolute
    station time never enters the difference.  One composite noise draw
    per TDOA element, then an independent draw per ping timestamp, in
    that order.  The position must close a triangle with A and B,
    |rho_ae - rho_be| <= rho_ab <= rho_ae + rho_be; on its edge the
    listener is collinear with them.
    """
    if rho_ae < 0.0 or rho_be < 0.0:
        raise ValueError("distances must be non-negative")
    rho_ab = log.cfg.rho_ab
    if not abs(rho_ae - rho_be) <= rho_ab <= rho_ae + rho_be:
        raise ValueError(f"geometry violates the triangle inequality: "
                         f"rho_ae = {rho_ae!r}, rho_be = {rho_be!r}, "
                         f"rho_ab = {rho_ab!r} m")
    g = np.random.default_rng(rng)
    n = log.ping_emit.size
    c = log.consts.c
    tdoa_noise = g.normal(0.0, noise.sigma_outer, size=n)
    stamp_noise = g.normal(0.0, noise.sigma_outer, size=n)
    tdoa = (log.respond_emit - log.ping_emit) + (rho_be - rho_ae) / c + tdoa_noise
    ping_times = log.ping_emit + rho_ae / c + stamp_noise
    return EveEpoch(ping_times=ping_times, tdoa=tdoa)


def eve_interarrival_epoch(log: ArrivalLog, eve_clock: ClockParams,
                           rho_ae: float, noise: NoiseParams,
                           rng=None) -> MeasurementEpoch:
    """Latch overheard ping arrivals against the listener's own clock.

    Even without seeing responds, the edge gaps of the ping stream on
    the listener's oscillator trace a sawtooth beating at (f_initiator
    - f_eve); with dithered pings the gaps smear over the full period.
    The values are edge gaps, so they live in [0, 1 / f_eve); the inner
    composite noise applies (emit jitter, channel, her latch).  The
    relative time grid is rebuilt from her own timestamp record via a
    least-squares slope.
    """
    if rho_ae < 0.0:
        raise ValueError("distance must be non-negative")
    g = np.random.default_rng(rng)
    n = log.ping_emit.size
    arr = log.ping_emit + rho_ae / log.consts.c
    latch_noise = g.normal(0.0, noise.sigma_inner, size=n)
    stamp_noise = g.normal(0.0, noise.sigma_outer, size=n)
    vals = latch_gap(eve_clock, arr, latch_noise)
    rec = arr + stamp_noise
    slope, icpt = _comb_fit(rec)
    return MeasurementEpoch(t_prime=float(icpt), t_m=slope, y_vec=vals)


def _comb_fit(times: np.ndarray):
    """Least-squares (spacing, start) of a nominally uniform pulse comb.

    The closed-form line on the centred index x_j = j - (n - 1) / 2,
    whose squares sum to Sxx = n (n^2 - 1) / 12: the spacing is sum x_j
    (t_j - m) / Sxx about the stamps' float mean m (t_j - m is exact
    where the comb keeps one sign), corrected once by the same sum over
    the residuals; the start, mean less (n - 1) / 2 spacings, is one
    ``math.fsum`` of its terms.  Over combs starting up to 1e3 s out,
    the spacing came within 1 ulp of exact rational least squares and
    the start within 1.3 ulp of the largest stamp, at ~35 us per 10^4
    pulses (2-CPU x86_64 VM).
    """
    n = times.size
    if n < 8:
        raise ShortEpochError("need at least 8 pulses to fit the comb")
    mid = 0.5 * (n - 1)
    x = np.arange(n, dtype=float) - mid
    sxx = n * (n * n - 1) / 12
    mean = float(np.add.reduce(times) / n)
    d = times - mean
    shift = float(np.add.reduce(d) / n)
    slope = float(np.dot(x, d)) / sxx
    d -= slope * x
    d *= x
    fix = float(np.add.reduce(d)) / sxx
    return slope + fix, math.fsum((mean, shift, -slope * mid, -fix * mid))


def eve_estimate_rtt(epoch: EveEpoch, consts: ProtocolConstants,
                     grid: SearchGrid | None = None) -> EveEstimate:
    """Recover both clock frequencies from a tapped plain exchange.

    The ping comb pins the realized ping interval; counting it in
    advertised clock periods gives the initiator frequency to the
    comb-fit precision.  The TDOA sawtooth then yields the beat, and
    with it the responder frequency.  A dense joint search over period
    and beat is never needed: the comb carries the period information
    at far better resolution than the sawtooth amplitude could.

    The sawtooth is fitted on the public comb t_nom j, the counted clock
    periods at the nominal frequency, whose ladder plan the initiator's
    fits share; the beat per ping is the same on either axis, so t_nom /
    slope (1 + 3e-6 at the default offset) turns it into listener Hz.

    Run against a dithered exchange, the same procedure returns a beat
    drawn from a featureless cost surface.
    """
    slope, icpt = _comb_fit(epoch.ping_times)
    periods = ping_decimation(slope, consts)
    f_a_hat = periods / slope
    t_nom = periods / consts.f_nominal
    fit_epoch = MeasurementEpoch(t_prime=icpt, t_m=t_nom, y_vec=epoch.tdoa)
    est = grid_search(fit_epoch, consts, grid=grid)
    f_d_hat = est.f_d_hat * (t_nom / slope)
    f_b_hat = f_a_hat - f_d_hat
    if f_b_hat <= 0.0:
        raise ValueError("responder frequency came out non-positive")
    return EveEstimate(t_m_hat=slope, f_d_hat=f_d_hat, f_a_hat=f_a_hat,
                       f_b_hat=f_b_hat, t_b_hat=1.0 / f_b_hat,
                       phi_hat=est.phi_hat, cost=est.cost)


# ======================================================================
# active injection
# ======================================================================


@dataclass(frozen=True)
class InjectionPlan:
    """Forged responds: which ping slots, when the forger transmits,
    and from how far away the forgeries travel to the initiator."""

    indices: np.ndarray
    emit_times: np.ndarray
    rho_ea: float
    w_seed: int


def _attack_slots(log: ArrivalLog, n_attack: int, g) -> np.ndarray:
    """The ``n_attack`` ping slots a plan forges, drawn without
    replacement from ``g`` and sorted."""
    n = log.ping_emit.size
    if not 0 < n_attack <= n:
        raise ValueError("n_attack must be in [1, n_pings]")
    return np.sort(g.choice(n, size=n_attack, replace=False))


def make_random_timing_plan(log: ArrivalLog, rho_ae: float, n_attack: int,
                            rng=None) -> InjectionPlan:
    """Respond-looking pulses at plausible but blind delays.

    The forger hears each ping rho_ae / c after emission and replies a
    uniform delay in [0, delta_0 / 2) later; it knows the public
    processing delay but not the responder's edge comb.  Whether a
    forgery preempts the honest respond depends on the geometry; the
    per-slot outcome is settled at remeasurement.
    """
    g = np.random.default_rng(rng)
    idx = _attack_slots(log, n_attack, g)
    hear = log.ping_emit[idx] + rho_ae / log.consts.c
    emit = hear + g.uniform(0.0, log.consts.delta_0 / 2.0, size=n_attack)
    w_seed = int(g.integers(2**63))
    return InjectionPlan(indices=idx, emit_times=emit, rho_ea=rho_ae,
                         w_seed=w_seed)


def make_oracle_plan(log: ArrivalLog, rho_ae: float, n_attack: int,
                     rng=None) -> InjectionPlan:
    """Forgeries timed from ground truth to preempt by 1 ps.

    An upper bound on the injector, not a realizable attacker: it reads
    the honest respond arrivals from the log and lands just ahead of
    them, on-model up to the lead and the fresh receive noise.
    """
    g = np.random.default_rng(rng)
    idx = _attack_slots(log, n_attack, g)
    emit = log.respond_arrive[idx] - _ORACLE_LEAD_S - rho_ae / log.consts.c
    w_seed = int(g.integers(2**63))
    return InjectionPlan(indices=idx, emit_times=emit, rho_ea=rho_ae,
                         w_seed=w_seed)


def inject_responses(log: ArrivalLog, plan: InjectionPlan):
    """First-arrival merge of honest and forged responds.

    Returns ``(first_arrival, won)``: per-slot stop times after the
    race, and the mask of slots where the forgery got there first.
    """
    c = log.consts.c
    forged_arrive = plan.emit_times + plan.rho_ea / c
    first = log.respond_arrive.copy()
    won = np.zeros(log.respond_arrive.size, dtype=bool)
    beaten = forged_arrive < first[plan.indices]
    winners = plan.indices[beaten]
    first[winners] = forged_arrive[beaten]
    won[winners] = True
    return first, won


def remeasure_epoch(log: ArrivalLog, plan: InjectionPlan):
    """Rebuild the initiator's epoch with the injection in flight.

    Slots the forgery lost keep their original measurement bit for bit
    (same arrival, same latch noise).  Slots it won are remeasured with
    fresh receive noise drawn from the plan's seed.

    Returns ``(epoch, won)``.
    """
    first, won = inject_responses(log, plan)
    w = log.noise_outer.copy()
    g = np.random.default_rng(plan.w_seed)
    w[won] = g.normal(0.0, log.noise.sigma_outer, size=int(won.sum()))
    y = (first - log.ping_emit) + w
    if np.any(y < 0.0):
        raise ValueError("a forged respond precedes its ping")
    epoch = MeasurementEpoch(t_prime=log.t_prime, t_m=log.cfg.t_m, y_vec=y)
    return epoch, won


# ======================================================================
# detection
# ======================================================================


def _circular_residuals(epoch: MeasurementEpoch, est: ParamEstimate,
                        consts: ProtocolConstants, amplitude: float,
                        delta_vec):
    m = model_fold_values(epoch.t_vec, est.f_d_hat, est.phi_hat, amplitude,
                          dither_cycles(delta_vec, consts, epoch.n))
    full = m + consts.delta_0 + 2.0 * est.rho_hat / consts.c
    half = amplitude / 2.0
    return fold(epoch.y_vec - full + half, amplitude) - half


def _median(x: np.ndarray) -> float:
    """``np.median`` of a finite 1-D array from one partition, bit for
    bit: the middle values are averaged as numpy's ``mean`` does, from a
    +0 sum, which also hides the sign of a zero, so which of two equal
    zeros the partition puts in the middle never shows."""
    n = x.size
    h = n // 2
    if n % 2:
        return 0.0 + float(np.partition(x, h)[h])
    part = np.partition(x, [h - 1, h])
    return (0.0 + float(part[h - 1]) + float(part[h])) / 2.0


def _quantile(x: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)`` (method "linear") of a finite 1-D array
    from one partition, bit for bit: numpy's own partition points (they
    decide which of two equal zeros lands where, and a zero's sign can
    survive the interpolation), then its ``_lerp`` of the two order
    statistics around (n - 1) q, which takes the upper one's side from
    gamma = 1/2 on."""
    n = x.size
    v = (n - 1) * q
    lo = hi = -1
    if v < n - 1:
        lo = math.floor(v)
        hi = lo + 1
    part = np.partition(x, sorted({0, -1, lo, hi}))
    a, b = float(part[lo]), float(part[hi])
    gamma = v - lo
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


def mad_deviations(r: np.ndarray):
    """Absolute deviations of ``r`` about its median, and their median
    absolute deviation scaled to a normal sigma.  Returns
    ``(deviations, sigma_hat)``."""
    dev = np.abs(r - _median(r))
    return dev, CONSISTENCY_CONSTANT * _median(dev)


def detect_outliers(epoch: MeasurementEpoch, est: ParamEstimate,
                    consts: ProtocolConstants, amplitude: float, *,
                    delta_vec=None, k: float = 4.0):
    """Flag measurements inconsistent with the fitted sawtooth.

    Residuals are taken circularly (folded to [-amplitude/2,
    amplitude/2)) so benign wraps of the sawtooth never flag.  The
    scale is the median absolute deviation about the median, scaled to
    sigma (:func:`mad_deviations`); a point flags when its deviation
    exceeds k of those.

    Returns ``(flags, residuals)``.
    """
    if epoch.n < _MIN_EPOCH:
        raise ShortEpochError(f"need at least {_MIN_EPOCH} measurements")
    r = _circular_residuals(epoch, est, consts, amplitude, delta_vec)
    dev, sigma_hat = mad_deviations(r)
    return dev > k * sigma_hat, r


def robust_parameter_fit(epoch: MeasurementEpoch, consts: ProtocolConstants, *,
                         amplitude: float,
                         grid: SearchGrid | None = None, delta_vec=None,
                         trim: float = 0.05):
    """Grid search hardened against a contaminated epoch.

    ``amplitude`` is the model's, as for :func:`detect_outliers`.  Fits
    once, drops the ``trim`` fraction with the largest circular
    deviations, and refits on the survivors.  Returns ``(estimate,
    keep_mask)``.
    """
    if epoch.n < _MIN_EPOCH:
        raise ShortEpochError(f"need at least {_MIN_EPOCH} measurements")
    if not 0.0 <= trim < 0.5:
        raise ValueError("trim must be in [0, 0.5)")
    est0 = grid_search(epoch, consts, amplitude=amplitude, grid=grid,
                       delta_vec=delta_vec)
    dev, _ = mad_deviations(_circular_residuals(epoch, est0, consts,
                                                amplitude, delta_vec))
    keep = dev <= _quantile(dev, 1.0 - trim)
    est1 = grid_search(epoch, consts, amplitude=amplitude, grid=grid,
                       delta_vec=delta_vec, sample_mask=keep)
    return est1, keep
