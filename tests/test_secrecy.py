"""Key-space accounting and key derivation.

The exact pair count for the default layout is a closed-form sum:
with n = 1001 lattice offsets and the beat window spanning steps
2..1000, the ordered pairs number 2 * sum_{k=2}^{1000} (1001 - k)
= 999000.  The continuous-area shortcut gives (2*500 - 2)^2 = 996004.
Both values and their logs are pinned below.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from climex import (
    BudgetInputs,
    KeyRangeError,
    budget,
    count_valid_pairs_formula,
    derive_key,
    valid_pair_area,
)
from climex.secrecy import _pair_rank

TINY = BudgetInputs(f0_hz=1.0e6, ppm=6.0, f_step_hz=1.0,
                    f_d_min_hz=1.0, f_d_max_hz=6.0)


def count_valid_pairs(inputs: BudgetInputs) -> int:
    """Exact count of ordered offset pairs with a usable beat.

    Materializes the pair lattice, so intended for protocol-scale
    grids (a few thousand offsets at most).
    """
    n = inputs.n_freq
    if n > 5000:
        raise ValueError("lattice too large to enumerate; use the formula")
    k_min, k_max = inputs._beat_steps()
    i = np.arange(n)
    d = np.abs(i[:, None] - i[None, :])
    return int(np.count_nonzero((d >= k_min) & (d <= k_max)))


def test_tiny_grid_counts():
    # 7 offsets, beat window 1..6 steps: 2 * (6+5+4+3+2+1) = 42
    assert TINY.n_freq == 7
    assert count_valid_pairs(TINY) == 42
    assert count_valid_pairs_formula(TINY) == 42


@settings(max_examples=200, deadline=None)
@given(half=st.integers(1, 60),
       f_step=st.sampled_from([1.0, 0.5, 0.25, 2.0, 3.0]),
       f_d_min=st.floats(1e-3, 130.0),
       width=st.floats(0.0, 250.0))
def test_formula_matches_enumeration_on_random_layouts(half, f_step, f_d_min,
                                                       width):
    # beat windows that cut the lattice anywhere, past its width included
    inp = BudgetInputs(f0_hz=1.0e6, ppm=2.0 * half, f_step_hz=f_step,
                       f_d_min_hz=f_d_min, f_d_max_hz=f_d_min + width)
    assert count_valid_pairs(inp) == count_valid_pairs_formula(inp)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 50), k_min=st.integers(1, 55),
       width=st.integers(0, 60))
@example(n=TINY.n_freq, k_min=1, width=5)
def test_pair_rank_is_the_row_major_position(n, k_min, width):
    # every valid pair of a small lattice, k_max past n - 1 included,
    # ranks at its index in the row-major enumeration
    k_max = k_min + width
    pairs = [(i, j) for i in range(n) for j in range(n)
             if k_min <= abs(i - j) <= k_max]
    ranks = [_pair_rank(i, j, n, k_min, k_max) for i, j in pairs]
    assert ranks == list(range(len(pairs)))


def test_default_pair_count_and_area():
    inp = BudgetInputs()
    assert inp.n_freq == 1001
    assert count_valid_pairs(inp) == 999000
    assert count_valid_pairs_formula(inp) == 999000
    assert valid_pair_area(inp) == 998.0 ** 2


def test_enumeration_guards_against_huge_lattices():
    big = BudgetInputs(ppm=200.0)
    with pytest.raises(ValueError):
        count_valid_pairs(big)
    # the closed form has no such limit
    assert count_valid_pairs_formula(big) > 0


def test_default_budget_values():
    b = budget()
    assert b.n_freq_values == 1001
    assert b.pair_count_exact == 999000
    assert b.pair_count_area == 998.0 ** 2
    assert b.log2_pairs_exact == pytest.approx(19.9301, abs=1e-3)
    assert b.log2_pairs_area == pytest.approx(19.9258, abs=1e-3)
    assert b.log2_phi == pytest.approx(5.9734, abs=1e-3)
    assert b.log2_rho == pytest.approx(12.2877, abs=1e-3)
    assert b.bits_f == 19
    assert b.bits_phi == 5
    assert b.bits_rho == 12
    assert b.bits_total_floor == 36
    assert b.bits_total_rounded == 38
    assert b.log2_total_exact == pytest.approx(38.1912, abs=5e-3)
    assert b.log2_total_area == pytest.approx(38.1869, abs=5e-3)
    assert b.n_rho_states == 5000


def test_budget_rejects_empty_pair_set():
    inp = BudgetInputs(f_d_min_hz=1500.0, f_d_max_hz=2000.0)
    assert count_valid_pairs_formula(inp) == 0
    with pytest.raises(ValueError):
        budget(inp)
    # pairs that span no area: a 2 Hz lottery at the 2 Hz beat floor, and
    # a beat window of no width; log2 of the area raised a bare "math
    # domain error"
    for inp in (BudgetInputs(f0_hz=2.0e5),
                BudgetInputs(f_d_min_hz=500.0, f_d_max_hz=500.0)):
        assert count_valid_pairs_formula(inp) > 0
        assert valid_pair_area(inp) == 0.0
        with pytest.raises(ValueError, match="no valid pair area"):
            budget(inp)


def test_inputs_validation():
    with pytest.raises(ValueError):
        BudgetInputs(f_step_hz=0.0)
    with pytest.raises(ValueError):
        BudgetInputs(f_d_min_hz=5.0, f_d_max_hz=2.0)
    with pytest.raises(ValueError):
        BudgetInputs(f_d_min_hz=0.0)
    # a step past the range leaves the quantity less than one state,
    # a negative bit width
    for bad in ({"phi_step_rad": 7.0}, {"rho_step_m": 200.0}):
        with pytest.raises(ValueError, match="need phi_step <= 2 pi and "
                                             "rho_step <= rho_max"):
            BudgetInputs(**bad)


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------


@st.composite
def _key_material(draw):
    """Valid budget inputs whose lottery holds a usable pair, and key
    material inside them: a lattice pair (never the last offset, whose
    cell is the single point +half_span), a phase and a distance."""
    span = draw(st.floats(0.01, 1.0e4))
    steps = draw(st.integers(1, 4000))
    f_d_min = draw(st.floats(1e-3, span))
    inputs = BudgetInputs(
        f0_hz=1.0e8, ppm=span / 100.0, f_step_hz=span / steps,
        f_d_min_hz=f_d_min,
        f_d_max_hz=draw(st.floats(f_d_min, 2.0 * span)),
        # 2 pi and rho_max are the widest steps: a field of 0 bits
        phi_step_rad=draw(st.sampled_from([2.0 * math.pi, 1e-3])
                          | st.floats(1e-3, 2.0 * math.pi)),
        rho_max_m=(rho_max := draw(st.floats(1e-2, 1e3))),
        rho_step_m=rho_max * draw(st.sampled_from([1.0, 1e-4])
                                  | st.floats(1e-4, 1.0)))
    n = inputs.n_freq
    k_min, k_max = inputs._beat_steps()
    assume(k_min <= min(k_max, n - 2))
    k = draw(st.integers(k_min, min(k_max, n - 2)))
    i = draw(st.integers(0, n - 2 - k))
    ij = (i, i + k) if draw(st.booleans()) else (i + k, i)
    f = [inputs.f0_hz - inputs.half_span_hz + (x + 0.5) * inputs.f_step_hz
         for x in ij]
    phi = draw(st.floats(-100.0, 100.0))
    rho = draw(st.floats(0.0, rho_max))
    return inputs, (f[0], f[1], phi, rho)


@settings(max_examples=150, deadline=None)
@given(_key_material())
def test_key_length_matches_budget(material):
    # every field is as wide as the budget's floor bit width, a 0-bit
    # one too, so the key is bits_total_floor long
    inputs, args = material
    try:
        rep = budget(inputs)
    except ValueError as exc:
        # the pairs span no area: f_d_min is the lottery's width
        assert "no valid pair area" in str(exc)
        return
    k = derive_key(*args, inputs)
    assert min(rep.bits_f, rep.bits_phi, rep.bits_rho) >= 0
    assert len(k) == rep.bits_total_floor
    assert set(k) <= {"0", "1"}


def test_tiny_grid_hand_key():
    # first valid ordered pair (rank 0), phi bin 2, rho bin 50
    k = derive_key(1.0e6 - 3.0, 1.0e6 - 2.0, 0.25, 1.0, TINY)
    assert k == "00000" + "00010" + "000000110010"


def test_key_is_bin_invariant():
    inp = BudgetInputs()
    base = derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.23, 50.0, inp)
    # inputs omitted are the default inputs
    assert derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.23, 50.0) == base
    moved = derive_key(1.0e8 + 313.4, 1.0e8 - 186.7, 1.2999, 50.013, inp)
    assert moved == base
    # crossing a bin boundary changes the key
    other = derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.35, 50.0, inp)
    assert other != base


def test_neighbouring_pairs_get_distinct_prefixes():
    k1 = derive_key(1.0e6 - 3.0, 1.0e6 - 2.0, 0.25, 1.0, TINY)
    k2 = derive_key(1.0e6 - 3.0, 1.0e6 - 1.0, 0.25, 1.0, TINY)
    assert k1[:5] != k2[:5]
    assert k1[5:] == k2[5:]


def test_key_range_errors():
    inp = BudgetInputs()
    with pytest.raises(KeyRangeError):
        derive_key(1.0e8 + 600.0, 1.0e8 - 187.0, 1.0, 50.0, inp)
    with pytest.raises(KeyRangeError):
        derive_key(1.0e8 + 313.0, 1.0e8 + 313.0, 1.0, 50.0, inp)
    with pytest.raises(KeyRangeError):
        derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.0, -1.0, inp)
    with pytest.raises(KeyRangeError):
        derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.0, 200.0, inp)
    narrow = BudgetInputs(f_d_max_hz=100.0)
    with pytest.raises(KeyRangeError):
        derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.0, 50.0, narrow)
    # a value that is not finite is named; each raised a bare ValueError
    # from math.floor, and an infinite phase a RuntimeWarning from fold
    good = [1.0e8 + 313.0, 1.0e8 - 187.0, 1.0, 50.0]
    for pos, name in enumerate(("f_initiator_hz", "f_responder_hz",
                                "phi_test_rad", "rho_m")):
        for bad in (math.nan, math.inf, -math.inf):
            args = list(good)
            args[pos] = bad
            with pytest.raises(KeyRangeError, match=f"^{name} must be "
                                                    f"finite, got {bad!r}$"):
                derive_key(*args, inp)


def test_key_refuses_a_refused_layout_on_every_call():
    # the bit widths are counted once per layout, and a layout the
    # budget refuses is refused again, not remembered
    for inp in (BudgetInputs(f_d_min_hz=1500.0, f_d_max_hz=2000.0),
                BudgetInputs(f_d_min_hz=500.0, f_d_max_hz=500.0)):
        for _ in range(2):
            with pytest.raises(ValueError, match="^no valid "):
                derive_key(1.0e8 + 313.0, 1.0e8 - 187.0, 1.0, 50.0, inp)


def test_total_log_is_consistent():
    b = budget()
    assert b.log2_total_exact == pytest.approx(
        math.log2(b.pair_count_exact) + b.log2_phi + b.log2_rho, abs=1e-9)
