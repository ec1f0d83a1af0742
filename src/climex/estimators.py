"""Parameter estimation from round-trip sawtooth epochs.

The estimation problem: given one epoch of round-trip values, recover
the beat frequency f_d, the sawtooth phase phi at the epoch timestamp,
and the line-of-sight distance rho.  The constant floor (processing
delay plus two-way flight time) carries rho; the sawtooth shape carries
f_d and phi.  A grid search with the constant profiled out is robust
where gradient methods are hopeless, because the surface is a comb of
aliases.

Frequency stage.  A plain least-squares residual is useless for picking
f_d once the timing noise is an appreciable fraction of the sawtooth
period: every sample that wraps past an edge contributes an error of
order the full amplitude, so at a few ns of noise on a 10 ns sawtooth
the true frequency scores worse than a flat model.  The frequency sweep
therefore scores each candidate by the phase-locking resultant

    R(f) = | sum_j exp(2 pi i (y_j / a - f t_j - delta_j / t_b)) |

which maps each sample onto the unit circle, where a wrap is a no-op.
At the true frequency the angles pile up (R ~ N), anywhere else they
decohere (R ~ sqrt(N)).  R is invariant to phi and to the constant
floor, so the stage estimates f alone.

Every epoch sits on the ping comb t_j = t_m j, so the coarse ladder
f_lo + df k is a chirp-z transform of the sample phasors (Rabiner,
Schafer and Rader 1969), computed by Bluestein's FFT convolution in
O((N + K) log(N + K)) instead of N K.  The convolution is padded to
L = the smallest 11-smooth integer >= N + K - 1 (12 000 for the default
10^4 pings and 2001 frequencies, where a power of two would take
16 384), the lengths pocketfft transforms without a generic prime pass.
A masked refit keeps the full comb and gives dropped samples zero
weight.  On the comb R(f) repeats with period 1 / t_m, so a coarse
ladder spanning a full period holds exact alias ties and is refused.

The short refine ladder around the coarse pick steps a running phasor.
It starts from the coarse ladder's own sample phasors, moved to the
window's first frequency by a running product [1, z, z^2, ...] along
the comb, and each step multiplies by the plan's step phasor, itself a
running product; no complex exp is taken over the comb for either.

The coarse and refine magnitudes feed nothing but two argmax calls, so
their rounding matters only where two candidates tie to within it; a
test holds the picks equal to a stepping loop from fresh exps.  The
continuous outputs are another matter: phi, rho and the noise readback
come from :func:`_circular_level` and the readout at the picked
frequency, whose rounding reaches the printed fit, so that path keeps
its exact expressions and the outputs stay bit for bit the same.

The Bluestein chirp, the kernel's spectrum and the refine step phasor
depend only on the comb and the grid, (t_m, N, df, K, df / refine), not
on the samples.  A fit takes them from a small memo, the ladder plan,
which keeps the two most recently used keys (enough for the 10^4-ping
estimate comb and the 200-ping detection comb); a masked refit indexes
the refine phasor with its mask.  The arrays are built by the same
expressions either way, so a fit is bit for bit the same from a fresh
or a reused plan.

Phase stage.  At the selected frequency the resultant angle xi of the
sample phasors locates the epoch's constant level on the fold circle,
phase plus floor, known only jointly (mod a).  The floor, which carries
rho, is read from the epoch mean against the smoothed fold mean of the
model (see :func:`_smoothed_fold_mean`) and removed from xi; two passes
settle the coupling.  The first pass starts from xi with the fold mean
taken as a / 2.  There is no least-squares phase profile: its argmin
was a discrete pick that input rounding flips on a sample-phase
lattice (rational f_d t_m).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signal_model import MeasurementEpoch, ProtocolConstants, fold

__all__ = [
    "SearchGrid",
    "ParamEstimate",
    "CounterpartEstimate",
    "cost_J",
    "model_fold_values",
    "dither_cycles",
    "grid_search",
    "predict_phi_test",
    "complete_estimate",
    "phase_error",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SearchGrid:
    """Grid-search layout.

    The coarse stage scans f in [f_lo, f_hi] at step df.  The refine
    stage steps df / ``refine`` in a +-df window around the coarse pick
    (refine = 1 changes nothing).
    """

    f_lo: float = -1000.0
    f_hi: float = 1000.0
    df: float = 1.0
    refine: int = 10

    def __post_init__(self):
        # they key the ladder plan, where a NaN would never match
        if not all(np.isfinite((self.f_lo, self.f_hi, self.df))):
            raise ValueError("f_lo, f_hi and df must be finite")
        if not self.f_hi > self.f_lo:
            raise ValueError("need f_hi > f_lo")
        if self.df <= 0.0:
            raise ValueError("df must be positive")
        if self.refine < 1:
            raise ValueError("refine must be at least 1")

    def freq_values(self) -> np.ndarray:
        """Coarse ladder f_lo + df k, k = 0 .. floor((f_hi - f_lo) / df),
        never past f_hi; the 1e-9 relative slack keeps a span that df
        divides up to rounding (df = 0.1) at its last point."""
        n = int(np.floor((self.f_hi - self.f_lo) / self.df * (1.0 + 1e-9)))
        return self.f_lo + self.df * np.arange(n + 1)


@dataclass(frozen=True)
class ParamEstimate:
    """Grid-search output: beat, phase at epoch timestamp, distance,
    residual cost, and whether the coarse pick sat on the grid edge."""

    f_d_hat: float
    phi_hat: float
    rho_hat: float
    cost: float
    at_grid_edge: bool = False


@dataclass(frozen=True)
class CounterpartEstimate:
    """Everything one side learns about the other from a single epoch."""

    estimate: ParamEstimate
    f_counterpart_hz: float
    t_b_hat: float
    phi_test_hat: float
    t_test: float


def phase_error(a: float, b: float) -> float:
    """Smallest circular distance between two phases, in [0, pi]."""
    return float(abs(fold(a - b + np.pi, _TWO_PI) - np.pi))


def cost_J(y_vec, model_vec) -> float:
    """Sum of squared mean-removed residuals."""
    z = np.asarray(y_vec, dtype=float) - np.asarray(model_vec, dtype=float)
    z = z - z.mean()
    return float(np.dot(z, z))


def model_fold_values(t_vec, f_d: float, phi: float, amplitude: float,
                      dither_cycles=0.0) -> np.ndarray:
    """Noise-free folded sawtooth at the given parameters.

    ``amplitude * fold(f_d t + phi / 2 pi + dither_cycles, 1)``, with
    the known dither in cycles of the nominal period (see
    :func:`dither_cycles`).  This is the model the grid search scores:
    the noise-free :func:`climex.signal_model.sawtooth` written in
    cycles, equal to it up to float rounding.
    """
    t = np.asarray(t_vec, dtype=float)
    return amplitude * fold(f_d * t + phi / _TWO_PI + dither_cycles, 1.0)


def dither_cycles(delta_vec, consts: ProtocolConstants, n: int):
    """A known per-ping dither (s) in cycles of the nominal period,
    broadcast to ``n`` pings; 0.0 without one."""
    if delta_vec is None:
        return 0.0
    d = np.broadcast_to(np.asarray(delta_vec, dtype=float), (n,))
    return d / (1.0 / consts.f_nominal)


# ======================================================================
# the sweep core
# ======================================================================


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the Abramowitz-Stegun 7.1.26 erf
    polynomial (|error| < 1.5e-7, far below the noise scales here).

    The formula is 0.5 (1 + sign(x) erf(|x|)), x = z / sqrt(2), with
    erf(x) = 1 - t (0.254829592 + t (-0.284496736 + t (1.421413741
    + t (-1.453152027 + t 1.061405429)))) exp(-x x), t = 1 / (1 +
    0.3275911 x).  It is evaluated in four arrays, each step the same
    IEEE operation as in that expression with its operands in the same
    order, so the result is the same bit for bit, nan payloads included
    (a vectorised product of two nans keeps the sign of one of them).
    """
    x = np.asarray(z, dtype=float) / np.sqrt(2.0)
    s = np.sign(x)
    np.abs(x, out=x)
    t = np.multiply(0.3275911, x)
    np.add(1.0, t, out=t)
    np.divide(1.0, t, out=t)
    e = np.negative(x)
    np.multiply(e, x, out=e)
    np.exp(e, out=e)
    poly = np.multiply(t, 1.061405429, out=x)
    for coef in (-1.453152027, 1.421413741, -0.284496736, 0.254829592):
        np.add(coef, poly, out=poly)
        np.multiply(t, poly, out=poly)
    np.multiply(poly, e, out=e)
    np.subtract(1.0, e, out=e)          # erf(|z| / sqrt(2))
    np.multiply(s, e, out=e)
    np.add(1.0, e, out=e)
    np.multiply(0.5, e, out=e)
    return e


def _smoothed_fold_mean(q: np.ndarray, a: float, sigma: float) -> float:
    """Mean of the folded model over the epoch's sample phases, with the
    fold smoothed by Gaussian timing noise of scale sigma.

    E[fold(x + n, a)] = x + a (Phi(-x/sigma) - Phi((x-a)/sigma)) for
    each sample at ramp position x = a q.  The smoothing matters when
    the sample phases live on a coarse lattice (rational f_d t_m): the
    sharp lattice mean wobbles by up to half a lattice cell as the
    candidate phase moves, while the smoothed mean is flat, which keeps
    the phase/rho readout stable.
    """
    x = a * q
    if sigma <= 0.0:
        return float(x.mean())
    # x + a (Phi(-x/sigma) - Phi((x-a)/sigma)), step by step in place,
    # operands in the expression's order (see _norm_cdf)
    u = np.negative(x)
    np.divide(u, sigma, out=u)
    corr = _norm_cdf(u)
    np.subtract(x, a, out=u)
    np.divide(u, sigma, out=u)
    np.subtract(corr, _norm_cdf(u), out=corr)
    np.multiply(a, corr, out=corr)
    np.add(x, corr, out=corr)
    return float(corr.mean())


def _circular_level(t, y, dphase, a, f):
    """Resultant angle and implied noise scale at a fixed frequency.

    The angle locates the epoch's constant level on the fold circle
    (phase plus floor, confounded mod a); the resultant length R gives
    a wrapped-normal noise-scale readback sigma = (a/2pi) sqrt(-2 ln R).
    """
    ang = _TWO_PI * (y / a - dphase - f * t)
    v = np.exp(1j * ang).mean()
    xi = fold((a / _TWO_PI) * float(np.angle(v)), a)
    r = min(float(np.abs(v)), 1.0)
    if r <= 0.0:
        r = 1.0 / y.size
    sigma = (a / _TWO_PI) * np.sqrt(-2.0 * np.log(r))
    return xi, float(sigma)


def _stepped_mags(cur, step, count):
    """|R| on a uniform frequency ladder of count points, by stepping.

    ``cur`` holds the sample phasors at the first frequency and is
    stepped in place; ``step`` holds exp(-2 pi i f_step t) on the same
    samples.  The rounding accumulated over a few dozen steps is far
    below the noise contrast the magnitudes are compared at, and the
    magnitudes feed only an argmax.
    """
    mags = np.empty(count)
    mags[0] = abs(cur.sum())
    for k in range(1, count):
        cur *= step
        mags[k] = abs(cur.sum())
    return mags


def _geometric(z, n):
    """[1, z, z^2, ..., z^(n-1)] by a running product.

    On the comb t_j = t_m j this stands in for exp(-2 pi i f t_j) with
    z = exp(-2 pi i f t_m), at a fraction of the cost of a complex exp.
    Its rounding grows with j: against the exp it is off by at most
    4e-13 at 10^4 pings for the 0.1 Hz refine step and 3e-12 for a
    2 kHz shift, ten times that at 10^5, which no argmax over a ladder
    sees outside a near tie.
    """
    g = np.full(n, z, dtype=complex)
    g[0] = 1.0
    return np.cumprod(g, out=g)


@functools.lru_cache(maxsize=64)
def _fast_len(m):
    """The smallest 11-smooth integer >= m (factors 2, 3, 5, 7, 11 only),
    the lengths pocketfft transforms without a generic prime pass."""
    k = m
    while True:
        r = k
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return k
        k += 1


def _bluestein(c, n, count):
    """The comb-only arrays of the chirp-z ladder W = exp(-2 pi i c) over
    n samples and count frequencies: the conjugate chirp W^(j^2/2) on the
    samples, and the FFT of the kernel W^(-m^2/2), zero-padded to
    L = _fast_len(n + count - 1) so the circular convolution does not
    wrap.  An 11-smooth L is what pocketfft transforms fastest; a power
    of two would pad the default comb's 12 000 points to 16 384.

    The chirp angle pi c m^2 reaches pi c N^2, so c is split into a
    24-bit head c_hi and a tail: c_hi m^2 is exact while m^2 < 2^29
    (m <= 23170) and rounds past that.
    The head product v = c_hi m^2 is reduced mod 2 as v - 2 floor(v / 2),
    which equals ``np.fmod(v, 2.0)`` bit for bit at a fraction of its
    cost: v >= 0 (the step c is never negative), halving, flooring and
    doubling are exact, and so is the final subtraction, by Sterbenz's
    lemma (2 floor(v / 2) is 0 or within a factor of two of v).
    """
    m2 = np.arange(max(n, count), dtype=float) ** 2
    c_hi = float(np.float32(c))
    v = c_hi * m2
    chirp = np.exp(1j * np.pi * (v - 2.0 * np.floor(v * 0.5)
                                 + (c - c_hi) * m2))
    size = _fast_len(n + count - 1)
    kern = np.zeros(size, dtype=complex)
    kern[:count] = chirp[:count]
    kern[size - n + 1:] = chirp[n - 1:0:-1]
    return chirp[:n].conj(), np.fft.fft(kern, out=kern)


def _bluestein_mags(t, y, dphase, a, f_start, count, weight, chirp,
                    kernel_hat):
    """|R_k| from the sample phasors and the arrays of :func:`_bluestein`,
    and the unweighted sample phasors p0 = exp(2 pi i (y / a - dphase -
    f_start t)), which start the refine window."""
    n = t.size
    # p0 by the expression's own operations, in place: one complex
    # array fewer at the peak
    ang = y / a
    ang -= dphase
    ang -= f_start * t
    p0 = np.multiply(1j * _TWO_PI, ang)
    del ang
    np.exp(p0, out=p0)
    x = np.zeros(kernel_hat.size, dtype=complex)
    np.multiply(p0, chirp, out=x[:n])
    if weight is not None:
        x[:n] *= weight
    x = np.fft.fft(x, out=x)                   # in place: one buffer only
    x *= kernel_hat
    return np.abs(np.fft.ifft(x, out=x)[:count]), p0


class _LadderPlan(NamedTuple):
    chirp: np.ndarray          # conjugate Bluestein chirp on the n pings
    kernel_hat: np.ndarray     # FFT of the Bluestein kernel, length L
    refine_step: np.ndarray    # exp(-2 pi i (df / refine) t) on the comb


@functools.lru_cache(maxsize=2)
def _ladder_plan(t_m, n, df, n_coarse, refine_step) -> _LadderPlan:
    """The arrays of a fit that depend only on the ping comb and the
    grid, built once per (t_m, n, df, n_coarse, refine_step).

    Two entries hold the two combs one process fits (10^4 pings for
    estimates and sweeps, 200 for detection); a comb whose t_m is itself
    an estimate (the listener's slope) misses and pays today's cost.
    The arrays are shared by every caller, so they are read-only.
    """
    chirp, kernel_hat = _bluestein(df * t_m, n, n_coarse)
    plan = _LadderPlan(chirp, kernel_hat, _geometric(
        np.exp(-1j * _TWO_PI * refine_step * t_m), n))
    for arr in plan:
        arr.flags.writeable = False
    return plan


def grid_search(epoch: MeasurementEpoch, consts: ProtocolConstants, *,
                amplitude: float | None = None, grid: SearchGrid | None = None,
                delta_vec=None, sample_mask=None) -> ParamEstimate:
    """Fit f_d by exhaustive search, then read phi and rho off the
    resultant angle and the floor.

    Parameters
    ----------
    epoch : MeasurementEpoch
    consts : ProtocolConstants
    amplitude : float, optional
        Sawtooth amplitude of the model.  Defaults to the nominal
        responder period (the plain round-trip reading); pass
        ``consts.a_scale`` when fitting scaled epochs.
    grid : SearchGrid, optional
    delta_vec : array_like, optional
        Known per-ping dither, s (the collector knows its own draws).
    sample_mask : boolean array, optional
        Restrict the fit to a subset of pings.

    The coarse ladder is one chirp-z transform on the epoch's ping comb
    (a mask gives dropped pings zero weight); the refine window steps a
    running phasor.  See the module docstring.

    Raises ValueError with fewer than two usable samples, or when the
    coarse ladder spans the alias period 1 / t_m.
    """
    if grid is None:
        grid = SearchGrid()
    a = (1.0 / consts.f_nominal) if amplitude is None else amplitude

    t = epoch.t_vec
    y = epoch.y_vec
    dphase = dither_cycles(delta_vec, consts, t.size)
    keep = (None if sample_mask is None
            else np.asarray(sample_mask, dtype=bool))
    if (t.size if keep is None else np.count_nonzero(keep)) < 2:
        raise ValueError("grid search needs at least two usable samples")

    n_coarse = grid.freq_values().size
    if (n_coarse - 1) * grid.df * epoch.t_m >= 1.0:
        raise ValueError(
            f"coarse ladder spans {(n_coarse - 1) * grid.df:g} Hz, not "
            f"below the alias period 1 / t_m = {1.0 / epoch.t_m:g} Hz")
    step = grid.df / grid.refine
    plan = _ladder_plan(epoch.t_m, t.size, grid.df, n_coarse, step)
    mags, cur = _bluestein_mags(t, y, dphase, a, grid.f_lo, n_coarse, keep,
                                plan.chirp, plan.kernel_hat)
    i_c = int(np.argmax(mags))          # first occurrence: smallest f wins ties
    f_c = grid.f_lo + grid.df * i_c
    at_edge = i_c in (0, n_coarse - 1)

    # +-df around the coarse pick; interior picks have grid points as
    # neighbours so only boundary picks need one-sided windows.  The
    # window's start phasors are the coarse ladder's, shifted along the
    # comb by a running product.
    k_lo = -grid.refine if i_c > 0 else 0
    k_hi = grid.refine if i_c < n_coarse - 1 else 0
    f_start = f_c + step * k_lo
    cur *= _geometric(np.exp(-1j * _TWO_PI * (f_start - grid.f_lo)
                             * epoch.t_m), t.size)
    step_phasor = plan.refine_step
    if keep is not None:
        t, y, cur, step_phasor = t[keep], y[keep], cur[keep], step_phasor[keep]
        if delta_vec is not None:
            dphase = dphase[keep]
    mags_f = _stepped_mags(cur, step_phasor, k_hi - k_lo + 1)
    del cur                 # not held through the readout's temporaries
    f_hat = f_c + step * (k_lo + int(np.argmax(mags_f)))

    # Phase/floor readout.  The resultant angle xi pins phase + floor
    # only jointly (mod a), so the floor is read from the epoch mean
    # against the smoothed fold model and then removed from xi.  The
    # first pass takes the fold mean as a/2; two passes settle the
    # coupling.
    ramp = f_hat * t + dphase
    xi, sigma = _circular_level(t, y, dphase, a, f_hat)
    y_mean = float(y.mean())
    p_hat = fold((xi - y_mean + 0.5 * a) / a, 1.0)
    for _ in range(2):
        q = fold(ramp + p_hat, 1.0)
        level = _smoothed_fold_mean(q, a, sigma)
        rho_hat = 0.5 * consts.c * (y_mean - level - consts.delta_0)
        p_hat = fold((xi - consts.delta_0 - 2.0 * rho_hat / consts.c) / a, 1.0)
    phi_hat = _TWO_PI * p_hat

    model = model_fold_values(t, f_hat, phi_hat, a, dphase)
    return ParamEstimate(f_d_hat=f_hat, phi_hat=phi_hat, rho_hat=rho_hat,
                         cost=cost_J(y, model), at_grid_edge=bool(at_edge))


# ======================================================================
# from a fit to the counterpart clock
# ======================================================================


def predict_phi_test(est: ParamEstimate, own_f_hz: float, t_prime: float,
                     t_test: float, consts: ProtocolConstants) -> float:
    """Predict the counterpart's local check phase at ``t_test``.

    ``est`` is the collector's own fit, so its beat is the local one
    (own minus counterpart) and the counterpart runs at
    f_c = own_f_hz - f_d_hat.  The epoch phase anchors the counterpart's edge comb: the estimated
    gap to its next edge, seen from the epoch-opening arrival, is
    phi_hat / (2 pi f_c) seconds at t_prime + rho / c.  Walking that
    comb to the test time gives the phase the counterpart will measure
    against its own clock:

    ``2 pi - 2 pi f_c fold(t_test - t_prime - phi_hat / (2 pi f_c)
    - rho / c, 1 / f_c)``, wrapped to [0, 2 pi).

    Raises ValueError when the estimated beat is exactly zero: a
    beat-free epoch is flat and carries no phase information about the
    counterpart clock.
    """
    if est.f_d_hat == 0.0:
        raise ValueError("estimated beat frequency is zero; counterpart "
                         "phase is unobservable from this epoch")
    f_c = own_f_hz - est.f_d_hat
    if f_c <= 0.0:
        raise ValueError("counterpart frequency came out non-positive")
    g0 = est.phi_hat / (_TWO_PI * f_c)
    arg = t_test - t_prime - g0 - est.rho_hat / consts.c
    val = _TWO_PI - _TWO_PI * f_c * fold(arg, 1.0 / f_c)
    return fold(val, _TWO_PI)


def complete_estimate(epoch: MeasurementEpoch, own_f_hz: float,
                      consts: ProtocolConstants, *, grid: SearchGrid | None = None,
                      amplitude: float | None = None, delta_vec=None,
                      t_test: float) -> CounterpartEstimate:
    """Grid search plus everything derived from it, in one call.

    Works on an epoch the caller collected itself, so the returned beat
    is in the collector-local convention and the counterpart frequency
    is own_f minus beat regardless of which side is calling.
    """
    est = grid_search(epoch, consts, amplitude=amplitude, grid=grid,
                      delta_vec=delta_vec)
    phi_test = predict_phi_test(est, own_f_hz, epoch.t_prime, t_test, consts)
    f_cp = own_f_hz - est.f_d_hat
    return CounterpartEstimate(estimate=est, f_counterpart_hz=f_cp,
                               t_b_hat=1.0 / f_cp, phi_test_hat=phi_test,
                               t_test=t_test)
