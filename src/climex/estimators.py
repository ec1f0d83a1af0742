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
f_lo + df k is one chirp-z transform of the sample phasors (Rabiner,
Schafer and Rader 1969), which :func:`_ladder_mags` takes from the
comb's ladder plan:

* On a DFT-aligned comb, df t_m = 1 / M for a whole M with N <= M <= L
  (see :func:`_dft_len` for the slip bound), the transform is the DFT
  itself: the ladder is bins 0 .. K - 1 of one length-M FFT of the
  phasors, zero-padded, and the plan holds no chirp or kernel.  The
  default comb (t_m = 100 us, df = 1 Hz, 10^4 pings) has M = 10^4.
* Any other comb, such as the listener's least-squares slope or the
  200-ping detection comb (M = 10^4 > L = 2200), takes Bluestein's FFT
  convolution in O((N + K) log(N + K)) instead of N K, padded to L =
  the smallest 11-smooth integer >= N + K - 1 (12 000 for 10^4 pings
  and 2001 frequencies, where a power of two would take 16 384), the
  lengths pocketfft transforms without a generic prime pass.

A masked refit keeps the full comb and zeroes the dropped samples'
phasors.  On the comb R(f) repeats with period 1 / t_m, so a coarse
ladder spanning a full period holds exact alias ties and is refused.

The sample phasors p0 are built without a complex exp: the phase is
reduced exactly to the nearest whole cycle, then looked up in a
2048-entry unit-circle table and finished by a short Taylor step (see
:func:`_unit_phasors`), within 3e-15 of the exp at about a third of
its cost.  The Bluestein chirp and the refine tables are table phasors
in the same way.

The short refine window around the coarse pick, K frequencies at step
s = (df / refine) t_m cycles per ping, is a blocked two-level DFT of
the same sample phasors (see :func:`_window_mags`).  With B =
ceil(sqrt(N)) and ping j = B b + r, the phasor exp(-2 pi i s j k)
splits into inner[r, k] = exp(-2 pi i s r k) and outer[b, k] =
exp(-2 pi i s B b k), two tables of B x K and ceil(N / B) x K in the
ladder plan.  The window is then one complex matrix product of the
phasors, viewed as a floor(N / B) x B block (the N mod B tail pings
are one more small product), and one vector product, in place of K
Python steps over the comb.  Only the B + ceil(N / B) start phasors
that move the tables to the window's first frequency take a complex
exp per fit.  The tables hold the default window's 21 columns; a
wider window runs in chunks of 21, so the refine stage never holds
more than a few sqrt(N) x 21 phasors.

The rule that keeps the outputs exact: p0, the Bluestein chirp and
the refine tables, and everything built from them (the coarse and
refine magnitudes, BLAS's rounding in the window's matrix product
included) feed nothing but two argmax calls, so their
rounding matters only where two candidates tie to within it; a test
holds the picks equal to a stepping loop from fresh exps.  The
continuous outputs are another matter: phi, rho and the noise readback
come from :func:`_circular_level` and the readout at the picked
frequency, whose rounding reaches the printed fit, so that path keeps
its exact expressions (a complex exp, not the table) and the outputs
stay bit for bit the same.

The choice of ladder, the Bluestein chirp, the kernel's spectrum and
the refine tables depend only on the comb and the grid, (t_m, N, df,
K, df / refine), not on the samples.  A fit takes them from a small
memo, the ladder plan, which keeps the two most recently used keys
(enough for the 10^4-ping estimate comb and the 200-ping detection
comb); a masked refit zeroes the dropped pings' phasors in place, so
the blocks keep their shape.  The arrays are built by the same
expressions either way, so a fit is bit for bit the same from a fresh
or a reused plan.  The listener's slope comb has a t_m of its own in
every epoch, so each of its fits builds a plan; that build takes no
complex exp over the comb (the chirp is table phasors), and the
listener's other per-comb set-up, the comb fit's design matrix, is
memoised by comb length (see :func:`climex.adversary._comb_design`).

The fit's working arrays that are as long as the comb (the sample
phasors and their temporaries, the readout's ramp, the resultant's
angle and unit phasors, and the smoothed fold mean's x and CDF arrays,
both Phi arguments as one (2, m) block) are taken from a per-thread
stack scratch (see :class:`_Scratch`) and written with ``out=``, by the
same operations in the same order as into a fresh array, so the outputs
are the same bit for bit; a warm fit allocates none of them, so a loop
of fits does not fault them back in after the allocator trims its heap.
A masked refit still takes fresh copies of its kept samples.  Plan
arrays and everything a fit returns or stores are never scratch (a
Bluestein plan build takes its chirp from the scratch and keeps
copies).  The scratch holds 10 floats per ping of the thread's longest
comb (80 kB per 1000 pings), or 7 per coarse frequency where a short
comb's Bluestein plan has more frequencies than pings, for the
thread's life, plus the last ladder plan's length L in complex values;
with the ladder plan's memo (its chirp and kernel, about n + L
phasors, and its two refine tables, about 2 sqrt(n) x 21 phasors, for
each of two combs) this is what the estimator holds between fits.

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
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signal_model import (MeasurementEpoch, ProtocolConstants, fold,
                           require_finite)

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
        require_finite(f_lo=self.f_lo, f_hi=self.f_hi, df=self.df)
        if not self.f_hi > self.f_lo:
            raise ValueError("need f_hi > f_lo")
        if self.df <= 0.0:
            raise ValueError("df must be positive")
        if self.refine < 1:
            raise ValueError("refine must be at least 1")

    @property
    def n_coarse(self) -> int:
        """Size of the coarse ladder, floor((f_hi - f_lo) / df) + 1; the
        1e-9 relative slack keeps a span that df divides up to rounding
        (df = 0.1) at its last point."""
        return math.floor((self.f_hi - self.f_lo) / self.df
                          * (1.0 + 1e-9)) + 1

    def freq_values(self) -> np.ndarray:
        """Coarse ladder f_lo + df k, k = 0 .. n_coarse - 1, never past
        f_hi."""
        return self.f_lo + self.df * np.arange(self.n_coarse)


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
    a scalar broadcast to ``n`` pings; 0.0 without one.  An array that
    is not ``n`` long is refused with a ValueError naming it."""
    if delta_vec is None:
        return 0.0
    d = np.asarray(delta_vec, dtype=float)
    if d.ndim and d.shape != (n,):
        raise ValueError(f"delta_vec has shape {d.shape}, not the "
                         f"epoch's ({n},)")
    return np.broadcast_to(d, (n,)) / (1.0 / consts.f_nominal)


# ======================================================================
# the fit's scratch
# ======================================================================


class _Scratch(threading.local):
    """One thread's working arrays for its fits: a stack in one float
    block, so that a warm fit allocates none of them.

    A stage of a fit is a ``with`` block that takes its arrays (see
    :meth:`take`) and gives them back when it exits, so stages that
    never overlap share floats.  A take past the block's end gets a
    fresh array; a stage that exits with nothing left taken grows the
    block to the most the thread has taken at once, so the next fit
    takes every array from it.  The block never shrinks, and a fresh
    ``_Scratch()``, whose block is empty, hands out fresh arrays.

    ``padded``, the coarse ladder's zero-padded buffer, is as long as
    the ladder plan, for a short comb many times n (Bluestein's L >= n
    + K - 1), so it is held apart and sized to the last ladder.  Its
    replacement also keeps a fit's large numpy temporaries on the heap:
    freeing a buffer past glibc's mmap threshold raises that threshold,
    and the heap's trim threshold with it.  Taken from the block, it
    cost ~700 minor faults per cli-default cycle, against none; with
    both thresholds pinned high (``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_``) neither layout faults.
    """

    def __init__(self):
        self.block = np.empty(0)
        self.padded = np.empty(0, dtype=complex)
        self.top = self.peak = 0
        self.marks = []

    def __enter__(self):
        self.marks.append(self.top)
        return self

    def __exit__(self, *exc):
        self.top = top = self.marks.pop()
        if top == 0 and self.block.size < self.peak:
            self.block = np.empty(self.peak)

    def take(self, shape, dtype=float) -> np.ndarray:
        """An array of ``shape`` and ``dtype`` (float, np.int64 or
        complex) from the top of the block; a complex one starts on an
        even float, so it is aligned as a fresh one is."""
        wide = 2 if dtype is complex else 1
        start = self.top + (self.top & (wide - 1))
        self.top = end = start + wide * math.prod(shape)
        if end > self.block.size:       # the peak matters only past it
            self.peak = max(self.peak, end)
            return np.empty(shape, dtype)
        return np.ndarray(shape, dtype, self.block, 8 * start)


_SCRATCH = _Scratch()


# ======================================================================
# the sweep core
# ======================================================================


def _norm_cdf(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the Abramowitz-Stegun 7.1.26 erf
    polynomial (|error| < 1.5e-7, far below the noise scales here).

    The formula is 0.5 (1 + sign(x) erf(|x|)), x = z / sqrt(2), with
    erf(x) = 1 - t (0.254829592 + t (-0.284496736 + t (1.421413741
    + t (-1.453152027 + t 1.061405429)))) exp(-x x), t = 1 / (1 +
    0.3275911 x).  It is evaluated in four arrays, each step the same
    IEEE operation as in that expression with its operands in the same
    order, so the result is the same bit for bit, nan payloads included
    (a vectorised product of two nans keeps the sign of one of them).
    ``work``, a float block of shape (4,) + z.shape, holds the four
    arrays (z may be its first row, which is then overwritten); the
    result is its last row.
    """
    x, s, t, e = work
    np.divide(z, np.sqrt(2.0), out=x)
    np.sign(x, out=s)
    np.abs(x, out=x)
    np.multiply(0.3275911, x, out=t)
    np.add(1.0, t, out=t)
    np.divide(1.0, t, out=t)
    np.negative(x, out=e)
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


def _smoothed_fold_mean(q: np.ndarray, a: float, sigma: float,
                        work: _Scratch) -> float:
    """Mean of the folded model over the epoch's sample phases, with the
    fold smoothed by Gaussian timing noise of scale sigma.

    E[fold(x + n, a)] = x + a (Phi(-x/sigma) - Phi((x-a)/sigma)) for
    each sample at ramp position x = a q.  The smoothing matters when
    the sample phases live on a coarse lattice (rational f_d t_m): the
    sharp lattice mean wobbles by up to half a lattice cell as the
    candidate phase moves, while the smoothed mean is flat, which keeps
    the phase/rho readout stable.  Both Phi arguments go through one
    :func:`_norm_cdf` call as a (2, m) block; x and that call's arrays
    are taken from the scratch ``work``.
    """
    m = q.size
    with work:
        block = work.take((9, m))
        x = np.multiply(a, q, out=block[0])
        if sigma <= 0.0:
            return float(np.add.reduce(x) / m)
        # x + a (Phi(-x/sigma) - Phi((x-a)/sigma)), step by step in place,
        # operands in the expression's order (see _norm_cdf)
        cdf_work = block[1:].reshape(4, 2, m)
        u = cdf_work[0]
        np.negative(x, out=u[0])
        np.subtract(x, a, out=u[1])
        np.divide(u, sigma, out=u)
        phi = _norm_cdf(u, cdf_work)
        corr = np.subtract(phi[0], phi[1], out=phi[0])
        np.multiply(a, corr, out=corr)
        np.add(x, corr, out=corr)
        return float(np.add.reduce(corr) / m)


def _circular_level(t, y, dphase, a, f, work: _Scratch):
    """Resultant angle and implied noise scale at a fixed frequency.

    The angle locates the epoch's constant level on the fold circle
    (phase plus floor, confounded mod a); the resultant length R gives
    a wrapped-normal noise-scale readback sigma = (a/2pi) sqrt(-2 ln R).
    The angle and the unit phasors are taken from the scratch ``work``.
    """
    m = y.size
    with work:
        unit = work.take((m,), complex)
        ang, term = work.take((2, m))
        # 2 pi (y / a - dphase - f t), then exp(1j ang), as exact expressions
        np.divide(y, a, out=ang)
        ang -= dphase
        np.multiply(f, t, out=term)
        ang -= term
        ang *= _TWO_PI
        np.multiply(1j, ang, out=unit)
        np.exp(unit, out=unit)
        v = np.add.reduce(unit) / m
    xi = fold((a / _TWO_PI) * float(np.angle(v)), a)
    r = min(float(np.abs(v)), 1.0)
    if r <= 0.0:
        r = 1.0 / m
    sigma = (a / _TWO_PI) * np.sqrt(-2.0 * np.log(r))
    return xi, float(sigma)


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

    The chirp exp(i pi w), w the reduced angle v - 2 floor(v / 2) + (c -
    c_hi) m^2, is :func:`_unit_phasors` of w / 2, within 3e-15 of the
    complex exp of w reduced exactly to [-1, 1], at ~105 against ~225 us
    on 10^4 pings (2-CPU x86_64 VM).  It feeds only the coarse ladder's
    argmax, the same rule as p0 (see the module docstring).  Its
    temporaries come from the thread's scratch: 7 floats per
    max(n, count), below a fit's 10 per ping for any comb but a short
    one fitted over many frequencies (200 pings and 2001 frequencies
    hold 14 007 floats, 112 kB).
    """
    m2 = np.arange(max(n, count), dtype=float) ** 2
    c_hi = float(np.float32(c))
    v = c_hi * m2
    w = v - 2.0 * np.floor(v * 0.5) + (c - c_hi) * m2
    size = _fast_len(n + count - 1)
    kern = np.zeros(size, dtype=complex)
    # the plan keeps copies, never the scratch chirp itself
    with _SCRATCH as work:
        chirp = _unit_phasors(0.5 * w, work)
        kern[:count] = chirp[:count]
        kern[size - n + 1:] = chirp[n - 1:0:-1]
        conj = chirp[:n].conj()
    return conj, np.fft.fft(kern, out=kern)


# the most a DFT-aligned ladder may slip against the exact one over the
# whole epoch, in cycles (see _dft_len)
_ALIGN_SLIP = 1e-12


def _dft_len(c, n, count):
    """The DFT length M that the ladder W = exp(-2 pi i c) over n samples
    and count frequencies is bins 0 .. count - 1 of, or None.

    The comb is DFT-aligned when M = round(1 / c) is within the slip
    bound of 1 / c: the ladder's worst phase slip against the DFT's,
    (count - 1)(n - 1) |c - 1 / M| cycles, is at most _ALIGN_SLIP =
    1e-12, which moves a magnitude by at most 2 pi 1e-12 n, below the
    Bluestein path's own rounding at 10^5 pings (~1e-11 n).  The
    transform must also be no longer than the Bluestein length L
    (n <= M <= L) and 11-smooth: a prime M takes pocketfft's own, slower
    chirp-z pass.  The default comb (t_m = 100 us, df = 1 Hz, 10^4
    pings) is aligned with M = 10^4 and no slip at all; the listener's
    slope comb and the 200-ping detection comb are not.
    """
    size = _fast_len(n + count - 1)
    if c * (size + 1) < 1.0:       # M past L (and 1 / c perhaps not finite)
        return None
    m = round(1.0 / c)
    if ((count - 1) * (n - 1) * abs(c - 1.0 / m) <= _ALIGN_SLIP
            and n <= m <= size and _fast_len(m) == m):
        return m
    return None


# exp(2 pi i k / 2048), k = 0 .. 2047: the unit-circle table of
# _unit_phasors (32 KB), and the Taylor coefficients of its step in
# table cells d, th = 2 pi d / 2048
_TABLE_SIZE = 1 << 11
_UNIT_TABLE = np.exp((1j * _TWO_PI / _TABLE_SIZE) * np.arange(_TABLE_SIZE))
_UNIT_TABLE.flags.writeable = False
_CELL = _TWO_PI / _TABLE_SIZE
_COS2, _COS4 = _CELL ** 2 / 2.0, _CELL ** 4 / 24.0
_SIN3 = _CELL ** 3 / 6.0


def _unit_phasors(x, work: _Scratch):
    """exp(2 pi i x) for a float array x, without a complex exp; x is not
    written.

    Three steps.  r = x - rint(x) is exact and in [-1/2, 1/2] (rint(x) is
    0 or within a factor of two of x, Sterbenz's lemma; r = 0 once
    |x| >= 2^52).  Scaled by 2048 (exact), r splits as k + d with k =
    rint(2048 r) and |d| <= 1/2, again exactly; the table gives
    exp(2 pi i k / 2048), and exp(i th), th = 2 pi d / 2048, |th| <=
    1.6e-3, is the Taylor step 1 - th^2/2 + th^4/24 + i (th - th^3/6),
    whose truncation is below th^5 / 120 < 8e-17.  The table entries,
    the step and the product each round by a few 1e-16, so the result is
    within 3e-15 of np.exp(2j * pi * (x - rint(x))).

    That error is far below the noise contrast of any ladder, and the
    phasors feed only argmax calls (see the module docstring).  Costs
    about a third of the complex exp on 10^4 samples.  The result, then
    its temporaries (d, d2, the int64 table index and the complex step),
    are taken from the scratch ``work``; the caller's stage frees them.
    """
    p = work.take(x.shape, complex)
    d, d2 = work.take((2,) + x.shape)
    index = work.take(x.shape, np.int64)
    step = work.take(x.shape, complex)
    np.rint(x, out=d)
    np.subtract(x, d, out=d)
    d *= _TABLE_SIZE
    np.rint(d, out=d2)
    d -= d2
    np.copyto(index, d2, casting="unsafe")
    # k is in -1024 .. 1024, and a negative k counts from the end of the
    # table, as it should: "wrap" is exact there, and unlike the default
    # "raise" it writes straight into out
    _UNIT_TABLE.take(index, out=p, mode="wrap")
    np.multiply(d, d, out=d2)
    cos, sin = step.real, step.imag
    np.multiply(d2, _COS4, out=cos)
    cos -= _COS2
    cos *= d2
    cos += 1.0
    d2 *= -_SIN3
    d2 += _CELL
    np.multiply(d2, d, out=sin)
    p *= step
    return p


def _sample_phasors(t, y, dphase, a, f_start, work: _Scratch):
    """The sample phasors p0 = exp(2 pi i (y / a - dphase -
    f_start t)), which feed the coarse ladder and start the refine
    window.  They are taken from the scratch ``work`` after the angle and
    the ramp, which the caller's stage gives back with them."""
    ang, ramp = work.take((2, y.size))
    np.divide(y, a, out=ang)
    ang -= dphase
    np.multiply(f_start, t, out=ramp)
    ang -= ramp
    return _unit_phasors(ang, work)


class _LadderPlan(NamedTuple):
    size: int                  # M on a DFT-aligned comb, else Bluestein's L
    chirp: np.ndarray | None   # conjugate Bluestein chirp on the n pings
    kernel_hat: np.ndarray | None  # FFT of the Bluestein kernel, length L
    inner: np.ndarray          # refine table, B x _WINDOW_COLS
    outer: np.ndarray          # refine table, ceil(n / B) x _WINDOW_COLS


# the refine tables' width: the default window, +-df at refine 10; a
# wider window runs in chunks of this many frequencies
_WINDOW_COLS = 2 * SearchGrid.refine + 1


def _window_tables(s, n):
    """The step-phasor powers of the blocked refine window at step s =
    (df / refine) t_m cycles per ping: with B = ceil(sqrt(n)) and ping j
    = B b + r, inner[r, k] = exp(-2 pi i s r k) and outer[b, k] =
    exp(-2 pi i s B b k), whose product is exp(-2 pi i s j k).  Each
    phase is one rounding of s times the exact integer r k or B b k."""
    size = math.isqrt(n - 1) + 1
    k = np.arange(_WINDOW_COLS, dtype=float)
    inner = np.multiply.outer(np.arange(size, dtype=float), k)
    outer = np.multiply.outer(np.arange(0, n, size, dtype=float), k)
    # a fresh scratch hands out fresh arrays, as a plan array must be
    return (_unit_phasors(inner * -s, _Scratch()),
            _unit_phasors(outer * -s, _Scratch()))


@functools.lru_cache(maxsize=2)
def _ladder_plan(t_m, n, df, n_coarse, refine_step) -> _LadderPlan:
    """The arrays of a fit that depend only on the ping comb and the
    grid, built once per (t_m, n, df, n_coarse, refine_step).

    A DFT-aligned comb (see :func:`_dft_len`) holds its length M and no
    chirp or kernel; any other the Bluestein arrays and their length L.
    Either holds the refine window's two tables (see
    :func:`_window_tables`), about 2 sqrt(n) x 21 phasors.
    Two entries hold the two combs one process fits (10^4 pings for
    estimates and sweeps, 200 for detection), which build their plans
    once per process.  A comb whose t_m is itself an estimate (the
    listener's least-squares slope) misses on every fit and builds its
    plan, ~0.5 ms at 10^4 pings on a 2-CPU x86_64 VM (the chirp from the
    table, the kernel's FFT and the refine tables).
    The arrays are shared by every caller, so they are read-only.
    """
    m = _dft_len(df * t_m, n, n_coarse)
    chirp, kernel_hat = ((None, None) if m is not None
                         else _bluestein(df * t_m, n, n_coarse))
    plan = _LadderPlan(m or kernel_hat.size, chirp, kernel_hat,
                       *_window_tables(refine_step * t_m, n))
    for arr in plan[1:]:
        if arr is not None:
            arr.flags.writeable = False
    return plan


def _window_mags(p, shift, step, count, plan):
    """|R_k|, k = 0 .. count - 1, on the refine window shift + step k
    (in cycles per ping, from the frequency of the sample phasors p),
    as a blocked two-level DFT.  With ping j = B b + r,

        R_k = sum_b row_b outer[b, k] sum_r p[B b + r] col_r inner[r, k],

    where col_r = exp(-2 pi i shift r) and row_b = exp(-2 pi i shift B b)
    move the plan's tables to the window's start: one matrix product of
    p, seen as a floor(n / B) x B block, against col times inner, one
    small product for the n mod B tail pings, then one vector product
    with row.  A window wider than the tables runs in chunks of their
    width, each from the start phasors of its own first frequency.
    """
    n = p.size
    size, cols = plan.inner.shape
    full = n - n % size
    head = p[:full].reshape(-1, size)
    r = np.arange(size)
    j0 = np.arange(0, n, size)             # first ping of each block
    mags = np.empty(count)
    for k0 in range(0, count, cols):
        kc = min(cols, count - k0)
        ang = -_TWO_PI * (shift + step * k0)
        col = np.exp(1j * ang * r)
        row = np.exp(1j * ang * j0)
        inner = plan.inner[:, :kc] * col[:, None]
        q = np.empty((row.size, kc), dtype=complex)
        np.matmul(head, inner, out=q[:head.shape[0]])
        if full < n:
            np.matmul(p[full:], inner[:n - full], out=q[-1])
        q *= plan.outer[:, :kc]
        mags[k0:k0 + kc] = np.abs(row @ q)
    return mags


def _ladder_mags(p0, count, plan, work: _Scratch):
    """|R_k|, k = 0 .. count - 1, from the sample phasors p0, zero-padded
    to the plan's length: bins 0 .. count - 1 of their DFT on a
    DFT-aligned comb; on any other, p0 times the plan's chirp, convolved
    with its kernel by FFT (Bluestein).  The padded buffer is the
    scratch ``work``'s, zeroed past p0 on each call."""
    n = p0.size
    if work.padded.size != plan.size:
        work.padded = np.empty(plan.size, dtype=complex)
    x = work.padded
    x[n:] = 0.0
    if plan.chirp is None:
        x[:n] = p0
    else:
        np.multiply(p0, plan.chirp, out=x[:n])
    x = np.fft.fft(x, out=x)                   # in place: one buffer only
    if plan.kernel_hat is not None:
        x *= plan.kernel_hat
        x = np.fft.ifft(x, out=x)
    return np.abs(x[:count])


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

    The coarse ladder is one FFT on a DFT-aligned ping comb and one
    Bluestein chirp-z transform on any other (a mask zeroes the dropped
    pings' phasors); the refine window is one blocked DFT product.  See the
    module docstring.

    Raises ValueError with fewer than two usable samples, when the
    coarse ladder spans the alias period 1 / t_m, or when
    ``sample_mask`` or ``delta_vec`` is not the epoch's length.
    """
    if grid is None:
        grid = SearchGrid()
    a = (1.0 / consts.f_nominal) if amplitude is None else amplitude

    t = epoch.t_vec
    y = epoch.y_vec
    dphase = dither_cycles(delta_vec, consts, t.size)
    keep = (None if sample_mask is None
            else np.asarray(sample_mask, dtype=bool))
    if keep is not None and keep.shape != t.shape:
        raise ValueError(f"sample_mask has shape {keep.shape}, not the "
                         f"epoch's {t.shape}")
    if (t.size if keep is None else np.count_nonzero(keep)) < 2:
        raise ValueError("grid search needs at least two usable samples")

    n_coarse = grid.n_coarse
    if (n_coarse - 1) * grid.df * epoch.t_m >= 1.0:
        raise ValueError(
            f"coarse ladder spans {(n_coarse - 1) * grid.df:g} Hz, not "
            f"below the alias period 1 / t_m = {1.0 / epoch.t_m:g} Hz")
    step = grid.df / grid.refine
    plan = _ladder_plan(epoch.t_m, t.size, grid.df, n_coarse, step)
    # one stage, so a block too small grows once, at its end; the inner
    # frequency stage gives the sample phasors back before the readout.
    # Dropped pings keep a zero phasor; the readout takes the kept ones.
    with _SCRATCH as work:
        with work:
            cur = _sample_phasors(t, y, dphase, a, grid.f_lo, work)
            if keep is not None:
                cur *= keep
            mags = _ladder_mags(cur, n_coarse, plan, work)
            i_c = int(np.argmax(mags))  # first occurrence: smallest f wins
            f_c = grid.f_lo + grid.df * i_c
            at_edge = i_c in (0, n_coarse - 1)

            # +-df around the coarse pick; interior picks have grid points
            # as neighbours so only boundary picks need one-sided windows.
            k_lo = -grid.refine if i_c > 0 else 0
            k_hi = grid.refine if i_c < n_coarse - 1 else 0
            f_start = f_c + step * k_lo
            i_f = int(np.argmax(_window_mags(
                cur, (f_start - grid.f_lo) * epoch.t_m, step * epoch.t_m,
                k_hi - k_lo + 1, plan)))
        f_hat = f_c + step * (k_lo + i_f)
        if keep is not None:
            t, y = t[keep], y[keep]
            if delta_vec is not None:
                dphase = dphase[keep]

        # Phase/floor readout.  The resultant angle xi pins phase + floor
        # only jointly (mod a), so the floor is read from the epoch mean
        # against the smoothed fold model and then removed from xi.  The
        # first pass takes the fold mean as a/2; two passes settle the
        # coupling.
        ramp = np.multiply(f_hat, t, out=work.take(t.shape))
        ramp += dphase
        xi, sigma = _circular_level(t, y, dphase, a, f_hat, work)
        y_mean = float(np.add.reduce(y) / y.size)
        p_hat = fold((xi - y_mean + 0.5 * a) / a, 1.0)
        for _ in range(2):
            q = fold(ramp + p_hat, 1.0)
            level = _smoothed_fold_mean(q, a, sigma, work)
            rho_hat = 0.5 * consts.c * (y_mean - level - consts.delta_0)
            p_hat = fold((xi - consts.delta_0 - 2.0 * rho_hat / consts.c)
                         / a, 1.0)
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
