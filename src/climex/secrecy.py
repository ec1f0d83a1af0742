"""Secret-bit accounting for the shared physical parameters.

Both sides of the exchange end up knowing four quantities an outsider
does not: the two oscillator frequencies (drawn from a lottery around
the advertised base), the check phase at the agreed test time, and the
line-of-sight distance.  This module counts how many key bits those
quantities are worth under stated quantization steps, and turns a
concrete parameter tuple into a bit string.

Frequency pairs are counted two ways.  The exact count is the number
of ordered pairs on the offset lattice that the beat window admits.  The
area figure replaces the lattice by the continuous offset square, where
the beat window cuts two triangles; for the default inputs the triangle
legs are 998 Hz, so the area is 998**2.  The two counts differ below a
per cent and give the same floor bit width; both are reported.

The ppm figure is the total width of the offset lottery: offsets are
drawn from +-(ppm * 1e-6 * f0 / 2) around the base frequency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .signal_model import fold, require_finite

__all__ = [
    "KeyRangeError",
    "BudgetInputs",
    "SecrecyBudget",
    "count_valid_pairs_formula",
    "valid_pair_area",
    "budget",
    "derive_key",
]

_TWO_PI = 2.0 * math.pi


class KeyRangeError(ValueError):
    """A parameter lies outside the valid key-material region."""


@dataclass(frozen=True)
class BudgetInputs:
    """Quantization layout of the key material.

    f0_hz         advertised base frequency
    ppm           total offset-lottery width, parts per million of f0
    f_step_hz     offset lattice step
    f_d_min_hz    smallest usable |beat|
    f_d_max_hz    largest usable |beat|
    phi_step_rad  phase quantization step
    rho_max_m     largest encodable distance
    rho_step_m    distance quantization step
    """

    f0_hz: float = 1.0e8
    ppm: float = 10.0
    f_step_hz: float = 1.0
    f_d_min_hz: float = 2.0
    f_d_max_hz: float = 1000.0
    phi_step_rad: float = 0.1
    rho_max_m: float = 100.0
    rho_step_m: float = 0.02

    def __post_init__(self):
        require_finite(**vars(self))
        if min(self.f0_hz, self.ppm, self.f_step_hz, self.phi_step_rad,
               self.rho_max_m, self.rho_step_m) <= 0.0:
            raise ValueError("budget inputs must be positive")
        if not 0.0 < self.f_d_min_hz <= self.f_d_max_hz:
            raise ValueError("need 0 < f_d_min <= f_d_max")
        # at least one state per quantity: no bit width is negative
        if self.phi_step_rad > _TWO_PI or self.rho_step_m > self.rho_max_m:
            raise ValueError("need phi_step <= 2 pi and rho_step <= rho_max")

    @property
    def half_span_hz(self) -> float:
        # divide last so integer-valued spans come out exact in binary
        return self.ppm * self.f0_hz / 2.0e6

    @property
    def n_freq(self) -> int:
        """Number of lattice offsets in [-half_span, half_span]."""
        return int(round(2.0 * self.half_span_hz / self.f_step_hz)) + 1

    def _beat_steps(self):
        """Beat window converted to lattice-step counts."""
        k_min = math.ceil(self.f_d_min_hz / self.f_step_hz - 1.0e-9)
        k_max = math.floor(self.f_d_max_hz / self.f_step_hz + 1.0e-9)
        return max(k_min, 1), k_max


def _span_sum(lo: int, hi: int, top: int) -> int:
    """sum(top - d for d in lo .. hi), 0 when the span is empty."""
    if lo > hi:
        return 0
    return (2 * top - lo - hi) * (hi - lo + 1) // 2


def count_valid_pairs_formula(inputs: BudgetInputs) -> int:
    """Exact count of ordered offset pairs with a usable beat.

    Ordered pairs at step distance k number 2 (n - k); summing over the
    admitted k telescopes to (2 n - k_min - K)(K - k_min + 1) with
    K = min(k_max, n - 1).
    """
    n = inputs.n_freq
    k_min, k_max = inputs._beat_steps()
    return 2 * _span_sum(k_min, min(k_max, n - 1), n)


def valid_pair_area(inputs: BudgetInputs) -> float:
    """Continuous-square version of the pair count, in Hz**2.

    The beat window cuts two triangles with legs (span - f_d_min) out
    of the offset square; an active upper beat bound trims two corner
    triangles back off.
    """
    span = 2.0 * inputs.half_span_hz
    outer = max(span - inputs.f_d_min_hz, 0.0)
    inner = max(span - inputs.f_d_max_hz, 0.0)
    return outer * outer - inner * inner


@dataclass(frozen=True)
class SecrecyBudget:
    """Bit-accounting report. Bit widths are floors of the state counts;
    the rounded and real totals are reported alongside because the
    floor loses up to one bit per component.  ``climex budget`` prints
    every field, in this order, under its own name."""

    n_freq_values: int
    pair_count_exact: int
    pair_count_area: float
    log2_pairs_exact: float
    log2_pairs_area: float
    bits_f: int
    n_phi_states: float
    log2_phi: float
    bits_phi: int
    n_rho_states: float
    log2_rho: float
    bits_rho: int
    bits_total_floor: int
    bits_total_rounded: int
    log2_total_exact: float
    log2_total_area: float


def budget(inputs: BudgetInputs | None = None) -> SecrecyBudget:
    """Count the key bits carried by the four shared parameters."""
    if inputs is None:
        inputs = BudgetInputs()
    pairs = count_valid_pairs_formula(inputs)
    if pairs < 1:
        raise ValueError("no valid frequency pairs under these inputs")
    area = valid_pair_area(inputs)
    if area <= 0.0:
        raise ValueError("no valid pair area under these inputs: the offset "
                         "lottery is no wider than f_d_min, or f_d_min = "
                         "f_d_max")
    n_phi = _TWO_PI / inputs.phi_step_rad
    n_rho = inputs.rho_max_m / inputs.rho_step_m
    l2_pairs = math.log2(pairs)
    l2_area = math.log2(area)
    l2_phi = math.log2(n_phi)
    l2_rho = math.log2(n_rho)
    bits_f = math.floor(l2_pairs)
    bits_phi = math.floor(l2_phi)
    bits_rho = math.floor(l2_rho)
    return SecrecyBudget(
        n_freq_values=inputs.n_freq,
        pair_count_exact=pairs,
        pair_count_area=area,
        log2_pairs_exact=l2_pairs,
        log2_pairs_area=l2_area,
        bits_f=bits_f,
        n_phi_states=n_phi,
        log2_phi=l2_phi,
        bits_phi=bits_phi,
        n_rho_states=n_rho,
        log2_rho=l2_rho,
        bits_rho=bits_rho,
        bits_total_floor=bits_f + bits_phi + bits_rho,
        bits_total_rounded=round(l2_pairs) + round(l2_phi) + round(l2_rho),
        log2_total_exact=l2_pairs + l2_phi + l2_rho,
        log2_total_area=l2_area + l2_phi + l2_rho,
    )


# ======================================================================
# key derivation
# ======================================================================


def _offset_index(f_hz: float, inputs: BudgetInputs) -> int:
    d = f_hz - inputs.f0_hz
    h = inputs.half_span_hz
    if d < -h or d > h:
        raise KeyRangeError(f"frequency offset {d:+.6f} Hz outside the "
                            f"+-{h:.6f} Hz lottery span")
    i = math.floor((d + h) / inputs.f_step_hz)
    return min(i, inputs.n_freq - 1)


def _pair_rank(i: int, j: int, n: int, k_min: int, k_max: int) -> int:
    """Rank of ordered pair (i, j) in row-major enumeration of the valid
    set, the pairs (r, c) of an n x n lattice with k_min <= |r - c| <=
    k_max (k_min >= 1), in closed form.

    The pairs in rows r < i, counted by step d = |r - c|: a column
    below, c = r - d >= 0, leaves i - d rows; a column above, c = r + d
    <= n - 1, leaves min(i, n - d) rows, which is i up to d = n - i.
    Then the pairs left of j in row i, at c = i - d and c = i + d."""
    below = _span_sum(k_min, min(k_max, i - 1), i)
    above = (i * max(min(k_max, n - i) - k_min + 1, 0)
             + _span_sum(max(k_min, n - i + 1), min(k_max, n - 1), n))
    left = (max(min(k_max, i) - max(k_min, i - j + 1) + 1, 0)
            + max(min(k_max, j - i - 1) - k_min + 1, 0))
    return below + above + left


@functools.lru_cache(maxsize=2)
def _bit_widths(inputs: BudgetInputs):
    """(bits_f, bits_phi, bits_rho) of ``budget(inputs)``, counted once
    per distinct layout; a layout that ``budget`` refuses raises here
    on every call."""
    rep = budget(inputs)
    return rep.bits_f, rep.bits_phi, rep.bits_rho


def derive_key(f_initiator_hz: float, f_responder_hz: float,
               phi_test_rad: float, rho_m: float,
               inputs: BudgetInputs | None = None) -> str:
    """Turn the four shared parameters into a bit string.

    Both sides call this with the frequencies in protocol order
    (initiator first), each substituting its estimate for the frequency
    it does not own.  Quantities are floored onto their lattices; the
    pair is ranked in the row-major enumeration of the valid set and
    every index is truncated to its floor bit width (low bits kept),
    so the output length is always bits_f + bits_phi + bits_rho.
    Indices at or past the truncation capacity alias; the budget report
    carries that loss, the derivation does not hide it.

    Raises KeyRangeError when a parameter leaves the valid region or
    is not finite.
    """
    require_finite(KeyRangeError, f_initiator_hz=f_initiator_hz,
                   f_responder_hz=f_responder_hz, phi_test_rad=phi_test_rad,
                   rho_m=rho_m)
    if inputs is None:
        inputs = BudgetInputs()
    bits_f, bits_phi, bits_rho = _bit_widths(inputs)
    n = inputs.n_freq
    k_min, k_max = inputs._beat_steps()

    i = _offset_index(f_initiator_hz, inputs)
    j = _offset_index(f_responder_hz, inputs)
    if not k_min <= abs(i - j) <= min(k_max, n - 1):
        raise KeyRangeError("beat between the two frequencies is outside "
                            "the usable window")
    rank = _pair_rank(i, j, n, k_min, k_max)

    phi = fold(phi_test_rad, _TWO_PI)
    phi_idx = math.floor(phi / inputs.phi_step_rad)

    if rho_m < 0.0 or rho_m > inputs.rho_max_m:
        raise KeyRangeError(f"distance {rho_m} m outside [0, "
                            f"{inputs.rho_max_m}] m")
    rho_idx = math.floor(rho_m / inputs.rho_step_m)
    rho_idx = min(rho_idx, int(round(inputs.rho_max_m / inputs.rho_step_m)) - 1)

    # the low bits of each index; a 0-bit field writes none
    fields = ((rank, bits_f), (phi_idx, bits_phi), (rho_idx, bits_rho))
    return "".join(format(idx & ((1 << bits) - 1), f"0{bits}b")
                   for idx, bits in fields if bits)
