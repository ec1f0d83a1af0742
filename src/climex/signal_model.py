"""Sawtooth timing observables for clocked-impulse exchange.

An initiator pings a responder every ``t_m`` seconds.  The responder
cannot reply at an arbitrary instant: it waits for the next edge of its
own oscillator and then adds a fixed processing delay.  Collected over
an epoch, those wait times trace a sawtooth whose repetition rate is
the beat between the two clock frequencies and whose height is the
responder period (or, with delay scaling engaged, a public amplitude
the responder chooses).

Conventions used throughout the package:

* ``fold(x, p)`` is the mathematical modulus with result in ``[0, p)``.
* The sawtooth phase ``phi`` of an epoch is quoted at the epoch
  timestamp ``t_prime``; measurement times inside the epoch are
  relative to ``t_prime``.
* Each ping carries two independent composite noise terms.  The term
  inside the modulus pools initiator emission jitter, the forward
  channel, and the responder latch (variance ``sigma_c**2 +
  2*sigma_j**2``).  The term outside pools respond generation and the
  return path (variance ``sigma_c**2 + sigma_j**2``).
  :func:`draw_epoch_noise` draws the inner vector first and the outer
  vector second, so a tick-level simulation and a closed-form model
  that share a seeded generator consume identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "fold",
    "ClockParams",
    "NoiseParams",
    "ProtocolConstants",
    "SawtoothArgs",
    "MeasurementEpoch",
    "draw_epoch_noise",
    "sawtooth",
    "epoch_model",
]

SPEED_OF_LIGHT_M_S = 299792458.0

_TWO_PI = 2.0 * np.pi


def fold(x, period):
    """Mathematical modulus of ``x`` onto the half-open range ``[0, period)``.

    ``np.mod`` can return exactly ``period`` when ``x`` is a negative
    value tiny compared to ``period``; the half-open contract requires
    0.0 there, so that case is mapped explicitly.

    A float array folded onto period 1 (the clock latch, in cycles)
    takes ``x - floor(x)``, about ten times cheaper than ``np.mod`` and
    equal to it bit for bit, nan and inf included.  ``np.mod(x, 1)``
    is the exact ``fmod`` plus 1 once for a negative remainder, so it
    rounds the real number ``x - floor(x)`` once; the floor is exact and
    the subtraction rounds that same real number once.  Everything else
    (integer arrays, other periods) goes through ``np.mod``, except a
    float scalar, which takes Python's ``%``: the same rule as
    ``np.mod`` (the fmod, plus the period once for a negative remainder,
    +0 for a zero one) without the array round trip.
    """
    if period <= 0.0:
        raise ValueError("period must be positive")
    if isinstance(x, float):
        v = float(x % period)
        return 0.0 if v >= period else v
    if period == 1.0 and isinstance(x, np.ndarray) and x.dtype.kind == "f":
        out = x - np.floor(x)
    else:
        out = np.mod(x, period)
    if np.ndim(out) == 0:
        v = float(out)
        return 0.0 if v >= period else v
    out[out >= period] = 0.0
    return out


# ======================================================================
# parameter records
# ======================================================================


def require_finite(error=ValueError, /, **values) -> None:
    """Raise ``error`` naming the first of ``values`` that is not a
    finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ClockParams:
    """A free-running oscillator: frequency in Hz and phase offset in rad.

    The clock's edge comb is the set of times t where
    ``f_hz * t + theta_rad / (2 pi)`` crosses an integer.
    """

    f_hz: float
    theta_rad: float = 0.0

    def __post_init__(self):
        require_finite(**vars(self))
        if self.f_hz <= 0.0:
            raise ValueError("clock frequency must be positive")

    @property
    def period(self) -> float:
        return 1.0 / self.f_hz


@dataclass(frozen=True)
class NoiseParams:
    """Per-stage timing noise, both sigmas in seconds.

    sigma_j is the jitter of a single emit or latch event; sigma_c is
    the one-way channel contribution.
    """

    sigma_j: float = 0.0
    sigma_c: float = 0.0

    def __post_init__(self):
        require_finite(**vars(self))
        if self.sigma_j < 0.0 or self.sigma_c < 0.0:
            raise ValueError("noise sigmas must be non-negative")

    @property
    def sigma_inner(self) -> float:
        """Composite sigma of the term inside the responder-side modulus."""
        return float(np.sqrt(self.sigma_c**2 + 2.0 * self.sigma_j**2))

    @property
    def sigma_outer(self) -> float:
        """Composite sigma of the term added after the responder edge."""
        return float(np.sqrt(self.sigma_c**2 + self.sigma_j**2))


@dataclass(frozen=True)
class ProtocolConstants:
    """Public protocol parameters, known to everyone including adversaries.

    c          propagation speed, m/s
    f_nominal  advertised base frequency both clocks are disciplined to, Hz
    delta_0    deterministic responder processing delay, s
    a_scale    public sawtooth amplitude used when delay scaling is on, s
    """

    c: float = SPEED_OF_LIGHT_M_S
    f_nominal: float = 1.0e8
    delta_0: float = 25.0e-9
    a_scale: float = 25.0e-9

    def __post_init__(self):
        require_finite(**vars(self))
        if self.c <= 0.0 or self.f_nominal <= 0.0 or self.a_scale <= 0.0:
            raise ValueError("c, f_nominal and a_scale must be positive")
        if self.delta_0 < 0.0:
            raise ValueError("delta_0 must be non-negative")


@dataclass(frozen=True)
class SawtoothArgs:
    """Parameters of one epoch's sawtooth: beat frequency, responder
    period, and phase at the epoch timestamp."""

    f_d: float
    t_b: float
    phi: float = 0.0

    def __post_init__(self):
        if self.t_b <= 0.0:
            raise ValueError("responder period t_b must be positive")


@dataclass
class MeasurementEpoch:
    """One epoch of round-trip measurements on a uniform ping comb.

    The initiator pings every ``t_m`` seconds, so measurement j sits at
    ``t_m * j`` after the epoch timestamp; the comb is part of the type.

    t_prime  absolute epoch timestamp, s
    t_m      ping spacing, a positive finite scalar, s
    y_vec    measured values, non-negative, s
    t_vec    derived: the measurement times ``t_m * arange(n)``, s
    """

    t_prime: float
    t_m: float
    y_vec: np.ndarray
    t_vec: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.t_m) != 0 or not (np.isfinite(self.t_m)
                                          and self.t_m > 0.0):
            raise ValueError("ping spacing t_m must be a positive finite "
                             "scalar")
        self.y_vec = np.asarray(self.y_vec, dtype=float)
        if self.y_vec.ndim != 1:
            raise ValueError("y_vec must be one-dimensional")
        if self.y_vec.size == 0:
            raise ValueError("epoch must contain at least one measurement")
        if not np.all(np.isfinite(self.y_vec)):
            raise ValueError("epoch values must be finite")
        if np.any(self.y_vec < 0.0):
            raise ValueError("measured values must be non-negative")
        self.t_vec = self.t_m * np.arange(self.y_vec.size, dtype=float)

    @property
    def n(self) -> int:
        return int(self.y_vec.size)


# ======================================================================
# noise and sawtooth models
# ======================================================================


def draw_epoch_noise(n_pings: int, noise: NoiseParams, rng=None):
    """Draw the per-ping noise vectors for one epoch.

    Returns ``(inner, outer)``.  The inner vector is drawn first; with
    a zero sigma the draws still consume generator state, so stream
    alignment between runs does not depend on the noise level.  Each
    vector is ``normal(0, sigma)`` bit for bit, written as numpy computes
    it, 0 + sigma z on the same standard normal draws, without its
    per-element call.
    """
    g = np.random.default_rng(rng)
    inner = g.standard_normal(n_pings) * noise.sigma_inner + 0.0
    outer = g.standard_normal(n_pings) * noise.sigma_outer + 0.0
    return inner, outer


def sawtooth(t_vec, args: SawtoothArgs, *, delta_vec=0.0,
             amplitude: float | None = None, noise_vec=0.0):
    """Responder wait-to-next-edge sawtooth, values in ``[0, amplitude)``.

    ``(a / t_b) * fold((t_b / 2 pi) * fold(2 pi f_d t + phi, 2 pi)
    + delta + n, t_b)``

    ``amplitude`` defaults to ``args.t_b``; with zero dither that is the
    plain round trip's h(t), and with the public amplitude and the
    initiator's dither it is the exchange's g(t).  ``delta_vec`` (per-ping
    dither, s) and ``noise_vec`` (pre-drawn inner noise, s) are scalars
    or vectors and both enter inside the modulus.
    """
    a = args.t_b if amplitude is None else amplitude
    if a <= 0.0:
        raise ValueError("amplitude must be positive")
    t = np.asarray(t_vec, dtype=float)
    cyc = fold(_TWO_PI * args.f_d * t + args.phi, _TWO_PI)
    core = fold(args.t_b / _TWO_PI * cyc + delta_vec + noise_vec, args.t_b)
    return (a / args.t_b) * core


# ======================================================================
# closed-form epoch models
# ======================================================================


def epoch_model(t_prime: float, n_pings: int, t_m: float,
                args: SawtoothArgs, rho: float, consts: ProtocolConstants, *,
                delta_vec=0.0, amplitude: float | None = None,
                noise: NoiseParams | None = None, rng=None) -> MeasurementEpoch:
    """Closed-form epoch of ``n_pings`` pings spaced ``t_m`` apart.

    ``y_i = sawtooth(i t_m) + delta_0 + 2 rho / c + w_i``, with the
    dither ``delta_vec`` and the inner noise inside the sawtooth's
    modulus.  The defaults (no dither, amplitude ``args.t_b``) give the
    plain round trip; the dithered exchange passes its dither and
    ``amplitude=consts.a_scale``.  With ``noise`` the inner and outer
    vectors come from :func:`draw_epoch_noise`.
    """
    if n_pings < 1:
        raise ValueError("n_pings must be at least 1")
    if rho < 0.0:
        raise ValueError("rho must be non-negative")
    t = t_m * np.arange(n_pings, dtype=float)
    n_in, w_out = ((0.0, 0.0) if noise is None
                   else draw_epoch_noise(n_pings, noise, rng))
    saw = sawtooth(t, args, delta_vec=delta_vec, amplitude=amplitude,
                   noise_vec=n_in)
    y = saw + consts.delta_0 + 2.0 * rho / consts.c + w_out
    return MeasurementEpoch(t_prime, t_m, y)
