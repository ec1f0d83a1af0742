"""Estimator checks.

The cost-expectation and wrap-inflation oracles were computed from the
noise composition by hand: residual variance at the truth equals
sigma_inner^2 + sigma_outer^2 per sample when no fold boundary is
crossed, and each crossing contributes one squared amplitude.  Accuracy
pins come from fixed-seed runs; tolerances leave room above the
observed values but stay well inside the documented targets.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.signal
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from climex import (
    ClockParams,
    NoiseParams,
    ProtocolConstants,
    SawtoothArgs,
    SearchGrid,
    MeasurementEpoch,
    complete_estimate,
    cost_J,
    epoch_model,
    fold,
    grid_search,
    measure_phi_test_local,
    model_fold_values,
    phase_error,
    predict_phi_test,
    run_climex_epoch,
    run_rtt_epoch,
)
from climex import estimators
from climex.adversary import (
    detect_outliers,
    eve_estimate_rtt,
    eve_tdoa_epoch,
    robust_parameter_fit,
)
from climex.config import DEFAULTS, build_setup
from climex.estimators import (
    _ALIGN_SLIP,
    _LadderPlan,
    _Scratch,
    _bluestein,
    _dft_len,
    _fast_len,
    _ladder_mags,
    _ladder_plan,
    _sample_phasors,
    _unit_phasors,
    _window_mags,
    dither_cycles,
)
from climex.protocol_sim import run_exchange


def resultant_mags(t, y, dphase, a, f_start, f_step, count):
    """|R(f)| on the uniform frequency ladder f_start + f_step * k, for
    any set of sample times: the stepping loop, the oracle of the chirp-z
    ladder and of grid_search's picks.

    Stepping multiplies the running phasor by exp(-2 pi i f_step t)
    instead of re-exponentiating per frequency; the accumulated rounding
    over a few thousand steps is ~1e-13 relative, far below the noise
    contrast the magnitudes are compared at.
    """
    base = 2.0 * np.pi * (y / a - dphase - f_start * t)
    cur = np.exp(1j * base)
    step = np.exp(-1j * 2.0 * np.pi * f_step * t)
    mags = np.empty(count)
    for k in range(count):
        mags[k] = abs(cur.sum())
        cur *= step
    return mags


def _chirp_z_mags(t, y, dphase, a, f_start, f_step, count, weight=None):
    """|R(f)| on the uniform ladder f_start + f_step k, k < count, for a
    grid t_j = tau j, as one Bluestein chirp-z transform: the coarse
    ladder of grid_search on a comb that is not DFT-aligned, with a fresh
    ladder plan on every call.

    With W = exp(-2 pi i f_step tau), R_k = sum_j x_j W^(jk) where x_j
    carries the f_start phasor and the optional per-sample weight.
    Writing jk = (j^2 + k^2 - (k - j)^2) / 2 turns the sum into the
    convolution of x_j W^(j^2/2) with W^(-m^2/2), taken by FFT; the
    leading W^(k^2/2) has unit modulus and is dropped.

    The chirp angle pi c m^2, c = f_step tau, reaches pi c N^2, far past
    the accumulated angles of a stepping loop.  Splitting c into a
    24-bit head plus a tail keeps the angle as precise as the loop's:
    the head's product with m^2 is exact while m^2 < 2^29 and is then
    reduced mod 2 exactly.  Past that (m > 23170) the product rounds: at
    N = 10^5 and tau = 10^-4 s the transform meets the loop to about
    1e-11 N (at most 1.3e-11 of the peak on locked epochs, three seeds).
    """
    work = _Scratch()
    p0 = _sample_phasors(t, y, dphase, a, f_start, work)
    if weight is not None:
        p0 *= weight
    return _ladder_mags(p0, count, _bluestein_plan(f_step * t[1], t.size,
                                                   count), work)


def _bluestein_plan(c, n, count):
    """A ladder plan on Bluestein's path at chirp step c, whatever the
    comb (no refine tables)."""
    chirp, kernel_hat = _bluestein(c, n, count)
    return _LadderPlan(kernel_hat.size, chirp, kernel_hat, None, None)


def _fft_plan(m):
    """A ladder plan on the DFT-aligned path of length m (no refine
    tables)."""
    return _LadderPlan(m, None, None, None, None)


# ----------------------------------------------------------------------
# pieces
# ----------------------------------------------------------------------


def test_phase_error_is_circular():
    assert phase_error(0.1, 2.0 * np.pi - 0.1) == pytest.approx(0.2)
    assert phase_error(np.pi, -np.pi) == pytest.approx(0.0)
    assert phase_error(1.0, 4.0) == phase_error(4.0, 1.0)
    assert phase_error(0.0, np.pi) == pytest.approx(np.pi)


def test_cost_ignores_constant_offsets():
    y = np.array([1.0, 2.0, 5.0, 3.0])
    assert cost_J(y, y) == 0.0
    # a constant shift is absorbed by the distance floor, so it must
    # not contribute to the sawtooth cost
    assert cost_J(y, y + 0.7) == pytest.approx(0.0, abs=1e-24)


def test_model_fold_values_hand_case():
    t = np.array([0.0, 1.0e-3, 2.0e-3])
    m = model_fold_values(t, 100.0, 0.0, 10.0e-9)
    assert np.allclose(m, [0.0, 1.0e-9, 2.0e-9], atol=1e-22)
    # dither enters in cycles of the ramp
    md = model_fold_values(t, 100.0, 0.0, 10.0e-9, np.full(3, 0.25))
    assert np.allclose(md, [2.5e-9, 3.5e-9, 4.5e-9], atol=1e-22)


def test_search_grid_validation():
    with pytest.raises(ValueError):
        SearchGrid(f_lo=5.0, f_hi=5.0)
    with pytest.raises(ValueError):
        SearchGrid(df=-1.0)
    with pytest.raises(ValueError):
        SearchGrid(refine=0)
    for bad in (dict(f_lo=float("nan")), dict(f_hi=float("inf")),
                dict(df=float("inf")), dict(df=float("nan"))):
        with pytest.raises(ValueError, match="finite"):
            SearchGrid(**bad)


def test_freq_values_stop_at_f_hi():
    default = SearchGrid().freq_values()
    assert default.size == 2001 and default[-1] == 1000.0
    # 2000 / 3 is not whole: the ladder stops at 998, not 1001
    three = SearchGrid(df=3.0).freq_values()
    assert three.size == 667 and three[-1] == 998.0
    seven = SearchGrid(df=0.7).freq_values()
    assert seven.size == 2858 and 1000.0 - 0.7 < seven[-1] <= 1000.0
    # 2000 / 0.1 divides up to rounding, so 1000 stays the last point
    tenth = SearchGrid(df=0.1).freq_values()
    assert tenth.size == 20001 and tenth[-1] == pytest.approx(1000.0)


@settings(max_examples=200, deadline=None)
@given(f_lo=st.floats(-1e3, 1e3),
       df=st.one_of(st.sampled_from([0.1, 0.7, 1.0 / 3.0, 0.01, 3.0]),
                    st.floats(1e-3, 10.0)),
       steps=st.integers(0, 100_000),
       over=st.floats(0.0, 0.999))
@example(f_lo=-1000.0, df=0.1, steps=20_000, over=0.0)
@example(f_lo=-1000.0, df=3.0, steps=666, over=2.0 / 3.0)
def test_coarse_ladder_size_is_the_ladders(f_lo, df, steps, over):
    # f_hi = f_lo + df (steps + over), rounded: a span that df divides
    # up to rounding (over = 0) keeps its last point, and a partial step
    # short of the slack adds none; the count is the ladder's size
    # either way
    f_hi = f_lo + df * (steps + over)
    assume(f_hi > f_lo and f_hi - f_lo >= 1e-2)
    grid = SearchGrid(f_lo=f_lo, f_hi=f_hi, df=df)
    assert grid.n_coarse == grid.freq_values().size == steps + 1


# ----------------------------------------------------------------------
# coarse ladder: chirp-z transform against the stepping loop
# ----------------------------------------------------------------------


def _ladder_inputs(seed, n, locked):
    # a known dither phase per sample; a locked epoch carries it, so its
    # phasors line up at 0.37 cycles per sample
    rng = np.random.default_rng(seed)
    a = 1.0e-8
    dphase = rng.uniform(0.0, 1.0, n)
    if locked:
        y = a * np.mod(0.37 * np.arange(n) + dphase
                       + 0.01 * rng.normal(size=n), 1.0)
    else:
        y = rng.uniform(0.0, a, n)
    keep = rng.random(n) < 0.8
    keep[:2] = True
    return y, dphase, a, keep


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 3000),
       log_tau=st.floats(-7.0, -1.0),
       count=st.integers(1, 3000),
       span=st.floats(0.0, 0.999),
       lo=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1),
       locked=st.booleans(),
       masked=st.booleans())
# a short ladder near the alias period on a long grid, between the
# comb's peaks (R ~ 1 of N = 3000): the chirp angle pi c m^2 reaches
# ~3e7 rad, and an unreduced angle misses there by 1e-8 of the peak
@example(n=3000, log_tau=-3.0, count=2, span=0.99, lo=-0.5, seed=3,
         locked=True, masked=False)
def test_chirp_z_ladder_matches_loop(n, log_tau, count, span, lo, seed,
                                     locked, masked):
    # any ladder short of the alias period 1 / tau, on random phasors or
    # a locked comb; zero weights must equal dropping the samples
    tau = 10.0 ** log_tau
    df = span / (tau * max(count - 1, 1))
    f_lo = lo / tau
    t = tau * np.arange(n)
    y, dphase, a, keep = _ladder_inputs(seed, n, locked)
    if not masked:
        keep[:] = True
    czt = _chirp_z_mags(t, y, dphase, a, f_lo, df, count,
                        keep if masked else None)
    loop = resultant_mags(t[keep], y[keep], dphase[keep], a, f_lo, df, count)
    assert np.max(np.abs(czt - loop)) <= 1e-9 * np.max(loop)


@pytest.mark.parametrize("n, tau, f_lo, df, count, masked", [
    (10000, 1.0e-4, -1000.0, 1.0, 2001, False),   # the default ladder
    (10000, 1.0e-4, -1000.0, 0.7, 2858, False),   # df not dividing the span
    (200, 1.0e-4, -1000.0, 1.0, 2001, True),      # a short masked refit
])
def test_chirp_z_ladder_matches_scipy_czt(n, tau, f_lo, df, count, masked):
    t = tau * np.arange(n)
    y, dphase, a, keep = _ladder_inputs(7, n, locked=True)
    w = keep if masked else np.ones(n, dtype=bool)
    x = w * np.exp(2j * np.pi * (y / a - dphase - f_lo * t))
    ref = np.abs(scipy.signal.czt(x, count, np.exp(-2j * np.pi * df * tau),
                                  1.0))
    got = _chirp_z_mags(t, y, dphase, a, f_lo, df, count,
                        keep if masked else None)
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(ref)


@pytest.mark.parametrize("n", [30000, 100000])
def test_chirp_z_ladder_past_exact_chirp_angles(n):
    # past m = 23170 (m^2 >= 2^29) the chirp's 24-bit head product
    # rounds; on locked epochs the transform must still meet the loop
    # within the 1.3e-11 of the peak that its docstring states, and pick
    # the same frequency
    tau = 1.0e-4
    t = tau * np.arange(n)
    for seed in (0, 1, 2):
        y, dphase, a, _ = _ladder_inputs(seed, n, locked=True)
        # 201 points around the lock at 0.37 / tau = 3700 Hz
        czt = _chirp_z_mags(t, y, dphase, a, 3600.0, 1.0, 201)
        loop = resultant_mags(t, y, dphase, a, 3600.0, 1.0, 201)
        assert np.argmax(czt) == np.argmax(loop) == 100
        assert np.max(np.abs(czt - loop)) <= 1.3e-11 * np.max(loop)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3000),
       count=st.integers(1, 250),
       log_step=st.floats(-7.0, -3.0),
       shift=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2**32 - 1),
       locked=st.booleans(),
       masked=st.booleans())
# n mod B = 5 tail pings (B = 15); 10^4 + 1 pings (B = 101, a 2-ping
# tail); a prime n; a window of several 21-column chunks
@example(n=200, count=21, log_step=-5.0, shift=0.37, seed=0, locked=True,
         masked=True)
@example(n=10_001, count=21, log_step=-5.0, shift=0.37, seed=1, locked=True,
         masked=True)
@example(n=997, count=11, log_step=-5.0, shift=-0.2, seed=2, locked=False,
         masked=False)
@example(n=3000, count=201, log_step=-6.0, shift=0.3699, seed=3,
         locked=True, masked=True)
def test_refine_window_matches_loop(n, count, log_step, shift, seed, locked,
                                    masked):
    # the blocked window's magnitudes, zero phasors for dropped pings,
    # meet the stepping loop's over the kept pings
    step = 10.0 ** log_step
    y, dphase, a, keep = _ladder_inputs(seed, n, locked)
    if not masked:
        keep[:] = True
    t = np.arange(n, dtype=float)          # t_m = 1: frequencies in cycles
    p = _sample_phasors(t, y, dphase, a, 0.0, _Scratch()) * keep
    plan = _ladder_plan(1.0, n, 1.0, 1, step)
    win = _window_mags(p, shift, step, count, plan)
    loop = resultant_mags(t[keep], y[keep], dphase[keep], a, shift, step,
                          count)
    assert np.max(np.abs(win - loop)) <= 1e-9 * np.max(loop)


def test_fast_len_is_scipys_complex_fast_length():
    # the Bluestein length: the smallest 11-smooth integer at or above m
    ms = list(range(1, 20_001)) + [99_991, 100_000, 100_001, 100_352,
                                   100_353, 101_999]
    assert ([_fast_len(m) for m in ms]
            == [scipy.fft.next_fast_len(m, real=False) for m in ms])


_PHASES = st.one_of(
    st.floats(-2.0**40, 2.0**40),
    st.integers(-2**40, 2**40).map(lambda k: k + 0.5),     # half-integers
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0**40, -2.0**40, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(x=st.lists(_PHASES, min_size=1, max_size=300).map(np.array))
@example(x=np.random.default_rng(0).uniform(-1.0, 1.0, 10_000)
         * 2.0 ** np.random.default_rng(1).uniform(-30.0, 40.0, 10_000))
def test_table_phasors_are_the_exp_within_their_bound(x):
    # the bound _unit_phasors states, against the exp of the exactly
    # reduced phase; x is read-only, so a write to it would raise
    x.flags.writeable = False
    got = _unit_phasors(x, _Scratch())
    want = np.exp(2j * np.pi * (x - np.rint(x)))
    assert got.dtype == complex and got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 3e-15


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 20_000).map(_fast_len),
       fill=st.floats(0.0, 1.0),
       reach=st.floats(0.0, 1.0),
       log_tau=st.floats(-7.0, -1.0),
       lo=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1),
       locked=st.booleans(),
       masked=st.booleans())
@example(m=10_000, fill=1.0, reach=0.2, log_tau=-4.0, lo=-0.1, seed=0,
         locked=True, masked=False)                  # the default comb
def test_fft_ladder_is_the_chirp_z_ladder_on_aligned_combs(m, fill, reach,
                                                           log_tau, lo, seed,
                                                           locked, masked):
    # n <= M pings and count frequencies with n + count - 1 >= M, so M is
    # within the Bluestein length: the plan takes the FFT ladder, whose
    # magnitudes meet the chirp-z transform's to rounding and pick alike
    n = max(2, min(m, round(fill * m)))
    count = m - n + 1 + round(reach * (n - 1))
    assert _dft_len(1.0 / m, n, count) == m
    tau = 10.0 ** log_tau
    y, dphase, a, keep = _ladder_inputs(seed, n, locked)
    work = _Scratch()
    p0 = _sample_phasors(tau * np.arange(n), y, dphase, a, lo / tau, work)
    if masked:
        p0 *= keep
    fft = _ladder_mags(p0, count, _fft_plan(m), work)
    czt = _ladder_mags(p0, count, _bluestein_plan(1.0 / m, n, count), work)
    assert np.max(np.abs(fft - czt)) <= 1e-12 * n
    assume(not _near_tie(czt))
    assert np.argmax(fft) == np.argmax(czt)


def _near_tie(mags):
    # the top two magnitudes within 1e-9 of the larger: rounding may
    # settle the pick there, so the test makes no claim about it
    if mags.size < 2:
        return False
    second, first = np.sort(mags)[-2:]
    return first - second <= 1e-9 * first


@settings(max_examples=100, deadline=None)
@given(n=st.integers(16, 30_000),
       log_tm=st.floats(-6.0, -2.0),
       span=st.floats(0.05, 0.95),
       lo=st.floats(-0.5, 0.0),
       count=st.integers(2, 1200),
       refine=st.integers(1, 12),
       lock=st.one_of(st.none(), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1),
       masked=st.booleans(),
       dithered=st.booleans())
# 10^5 pings: the chirp's head product rounds past m = 23170, and the
# running products reach j = 10^5
@example(n=100_000, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=10,
         lock=0.63, seed=5, masked=True, dithered=True)
# DFT-aligned combs past m = 23170, df t_m = 1 / n: the FFT ladder
@example(n=30_000, log_tm=-4.0, span=200 / 30_000, lo=-0.1, count=201,
         refine=10, lock=0.37, seed=1, masked=False, dithered=False)
@example(n=100_000, log_tm=-4.0, span=0.002, lo=-0.0005, count=201,
         refine=10, lock=0.81, seed=2, masked=True, dithered=True)
# slope combs, 1.23e-7 off those: Bluestein with head products that round
@example(n=30_000, log_tm=-3.9999995, span=200 / 30_000 * (1 + 1.23e-7),
         lo=-0.1, count=201, refine=10, lock=0.37, seed=3, masked=True,
         dithered=False)
@example(n=100_000, log_tm=-3.9999995, span=0.002 * (1 + 1.23e-7),
         lo=-0.0005, count=201, refine=10, lock=0.52, seed=4, masked=False,
         dithered=True)
# the blocked refine window: n mod B = 5 pings in the tail block (B = 15)
# with 3 of them masked; 10^4 + 1 pings (B = 101, a 2-ping tail, one
# masked); a prime n (997, B = 32)
@example(n=200, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=10,
         lock=0.37, seed=3, masked=True, dithered=True)
@example(n=10_001, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=10,
         lock=0.52, seed=4, masked=True, dithered=False)
@example(n=997, log_tm=-4.0, span=0.3, lo=-0.2, count=301, refine=7,
         lock=0.61, seed=8, masked=False, dithered=True)
# one-sided windows at both grid edges
@example(n=2000, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=10,
         lock=0.0, seed=9, masked=True, dithered=False)
@example(n=2000, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=10,
         lock=1.0, seed=10, masked=False, dithered=True)
# a 201-point window, ten chunks of the tables' 21 columns
@example(n=10_000, log_tm=-4.0, span=0.2, lo=-0.1, count=201, refine=100,
         lock=0.44, seed=11, masked=True, dithered=True)
# a slope comb on the default grid, as an interarrival epoch's: 10^4
# pings at t_m = 1e-4 (1 - 3.13e-6), a Bluestein ladder whose chirp and
# plan are built per fit
@example(n=10_000, log_tm=-4.0 + np.log10(1.0 - 3.13e-6),
         span=0.2 * (1.0 - 3.13e-6), lo=-0.1 * (1.0 - 3.13e-6), count=2001,
         refine=10, lock=0.7501, seed=12, masked=False, dithered=False)
def test_grid_search_picks_are_the_stepping_loops(n, log_tm, span, lo, count,
                                                  refine, lock, seed, masked,
                                                  dithered):
    # the coarse pick, the grid-edge flag and the refined beat equal
    # those of the loop over the whole coarse ladder followed by the loop
    # over the refine window from a fresh exp: the FFT or chirp-z ladder,
    # the 11-smooth padding, the table phasors and the running-product
    # phasors move the magnitudes by rounding only.  A ladder whose top
    # two magnitudes nearly tie (see _near_tie) is skipped.
    consts = ProtocolConstants()
    rng = np.random.default_rng(seed)
    t_m = 10.0 ** log_tm
    df = span / (t_m * (count - 1))
    grid = SearchGrid(f_lo=lo / t_m, f_hi=lo / t_m + df * (count - 1),
                      df=df, refine=refine)
    a = 1.0 / consts.f_nominal
    delta = rng.uniform(0.0, 3.0 * a, n) if dithered else None
    dphase = dither_cycles(delta, consts, n)
    t = t_m * np.arange(n)
    if lock is None:
        cycles = rng.uniform(0.0, 1.0, n)
    else:
        f_true = grid.f_lo + lock * (grid.f_hi - grid.f_lo)
        cycles = np.mod(f_true * t + dphase + 0.05 * rng.normal(size=n), 1.0)
    epoch = MeasurementEpoch(t_prime=0.0, t_m=t_m,
                             y_vec=a * cycles + 2.5e-8)
    keep = rng.random(n) < 0.7 if masked else np.ones(n, dtype=bool)
    keep[:2] = True

    y = epoch.y_vec
    dk = dphase[keep] if dithered else dphase
    n_coarse = grid.freq_values().size
    coarse = resultant_mags(t[keep], y[keep], dk, a, grid.f_lo, grid.df,
                            n_coarse)
    assume(not _near_tie(coarse))
    i_c = int(np.argmax(coarse))
    f_c = grid.f_lo + grid.df * i_c
    k_lo = -refine if i_c > 0 else 0
    k_hi = refine if i_c < n_coarse - 1 else 0
    step = grid.df / refine
    fine = resultant_mags(t[keep], y[keep], dk, a, f_c + step * k_lo, step,
                          k_hi - k_lo + 1)
    assume(not _near_tie(fine))

    est = grid_search(epoch, consts, grid=grid, delta_vec=delta,
                      sample_mask=keep if masked else None)
    assert est.at_grid_edge == (i_c in (0, n_coarse - 1))
    assert est.f_d_hat == f_c + step * (k_lo + int(np.argmax(fine)))


# ----------------------------------------------------------------------
# ladder plan: the comb-only arrays, built once and shared
# ----------------------------------------------------------------------


def _cold_and_warm(monkeypatch, epoch, consts, **kw):
    # the warm fit must find its plan in the memo and build no chirp,
    # kernel spectrum or refine table of its own: its one table-phasor
    # call is the sample phasors, and its refine window reads the plan's
    # two tables (a cold fit builds them as two more table-phasor calls);
    # a masked fit zeroes its dropped pings in place, keeping all n
    _ladder_plan.cache_clear()
    cold = grid_search(epoch, consts, **kw)
    before = _ladder_plan.cache_info()
    calls, windows = [], []

    def no_bluestein(*args):
        raise AssertionError("warm fit built a chirp")

    def unit_phasors(x, *work):
        calls.append("phasors")
        return real_phasors(x, *work)

    def window(p, shift, step, count, plan):
        calls.append("window")
        windows.append((p.copy(), plan))
        return real_window(p, shift, step, count, plan)

    real_phasors = estimators._unit_phasors
    real_window = estimators._window_mags
    with monkeypatch.context() as m:
        m.setattr(estimators, "_bluestein", no_bluestein)
        m.setattr(estimators, "_unit_phasors", unit_phasors)
        m.setattr(estimators, "_window_mags", window)
        warm = grid_search(epoch, consts, **kw)
    after = _ladder_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert calls == ["phasors", "window"], "warm fit built a refine table"
    grid = SearchGrid()
    plan = _ladder_plan(epoch.t_m, epoch.n, grid.df, grid.freq_values().size,
                        grid.df / grid.refine)
    p, used = windows[0]
    assert used.inner is plan.inner and used.outer is plan.outer
    assert p.size == epoch.n
    mask = kw.get("sample_mask")
    if mask is not None:
        assert not p[~mask].any() and np.all(p[mask] != 0.0)
    return cold, warm


def test_ladder_plan_fit_is_identical_cold_and_warm(monkeypatch, clock_pair,
                                                    scenario, consts,
                                                    desk_noise):
    ini, res = clock_pair(500.3)
    plain, _ = run_rtt_epoch(ini, res, scenario(n_pings=4000, seed=21),
                             consts, desk_noise)
    dithered, log = run_climex_epoch(
        ini, res, scenario(n_pings=4000, seed=22, dither="uniform"),
        consts, desk_noise)
    mask = np.ones(plain.n, dtype=bool)
    mask[::7] = False
    mask[1000:1300] = False
    rtt, scaled = 1.0 / consts.f_nominal, consts.a_scale
    for ep, kw in ((plain, dict(amplitude=rtt)),
                   (dithered, dict(amplitude=scaled, delta_vec=log.delta)),
                   (plain, dict(amplitude=rtt, sample_mask=mask)),
                   (dithered, dict(amplitude=scaled, delta_vec=log.delta,
                                   sample_mask=mask))):
        cold, warm = _cold_and_warm(monkeypatch, ep, consts, **kw)
        for field in dataclasses.fields(cold):
            assert getattr(warm, field.name) == getattr(cold, field.name)


def test_each_comb_gets_its_own_plan(clock_pair, scenario, consts,
                                     desk_noise):
    # another ping spacing, then another ping count, fitted while the
    # first comb's plan is in the memo, gives the cold fit's answer
    ini, res = clock_pair(313.7)
    amp = 1.0 / consts.f_nominal
    first, _ = run_rtt_epoch(ini, res, scenario(n_pings=3000, seed=31),
                             consts, desk_noise)
    for other in (scenario(n_pings=3000, seed=32, t_m=0.8e-4),
                  scenario(n_pings=2500, seed=33)):
        ep, _ = run_rtt_epoch(ini, res, other, consts, desk_noise)
        _ladder_plan.cache_clear()
        cold = grid_search(ep, consts, amplitude=amp)
        _ladder_plan.cache_clear()
        grid_search(first, consts, amplitude=amp)
        beside = grid_search(ep, consts, amplitude=amp)
        info = _ladder_plan.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        assert beside == cold
        assert abs(beside.f_d_hat - 313.7) < 0.5


def test_ladder_plan_is_read_only_and_holds_two_combs():
    assert _ladder_plan.cache_info().maxsize == 2
    # a Bluestein plan holds four arrays, an aligned one the two refine
    # tables: B = ceil(sqrt(n)) rows of inner and ceil(n / B) of outer,
    # each as wide as the default window, whose products are the powers
    # of the step phasor on the comb
    for n, arrays, rows in ((300, 4, (18, 17)), (10_000, 2, (100, 100))):
        plan = _ladder_plan(1.0e-4, n, 1.0, 2001, 0.1)
        held = [arr for arr in plan if isinstance(arr, np.ndarray)]
        assert len(held) == arrays
        assert plan.inner.shape == (rows[0], 21)
        assert plan.outer.shape == (rows[1], 21)
        j = rows[0] * np.arange(rows[1])[:, None] + np.arange(rows[0])
        k = np.arange(21)
        prod = plan.outer[:, None, :] * plan.inner[None, :, :]
        want = np.exp(-2j * np.pi * 1.0e-5 * j[:, :, None] * k)
        assert np.max(np.abs(prod - want)) <= 1e-14
        for arr in held:
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr *= 2.0


def test_only_unaligned_combs_build_a_chirp(monkeypatch):
    # the default comb is bins 0 .. 2000 of the length-10^4 DFT and builds
    # no Bluestein arrays; the listener fits on the same public comb, so
    # it finds that plan and leaves the memo at one entry; the 200-ping
    # detection comb still builds them
    built = []
    real = estimators._bluestein

    def counting(c, n, count):
        built.append(n)
        return real(c, n, count)

    monkeypatch.setattr(estimators, "_bluestein", counting)
    _ladder_plan.cache_clear()
    s = build_setup(dict(DEFAULTS))
    epoch, log = run_exchange(s.initiator, s.responder, s.scenario, s.consts,
                              s.noise)
    grid_search(epoch, s.consts, grid=s.grid)
    assert built == []
    assert _ladder_plan.cache_info().currsize == 1
    tap = eve_tdoa_epoch(log, s.rho_ae, s.rho_be, s.noise, 9000)
    eve_estimate_rtt(tap, s.consts, grid=s.grid)
    assert built == []
    info = _ladder_plan.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)
    short = build_setup(dict(DEFAULTS, n_pings=200))
    epoch, _ = run_exchange(short.initiator, short.responder, short.scenario,
                            short.consts, short.noise)
    grid_search(epoch, short.consts, grid=short.grid)
    assert built == [200]


def test_alignment_slip_bound_at_its_edge():
    # walk c up from 1 / M one float at a time: the last c whose slip
    # (count - 1)(n - 1)|c - 1/M| is within _ALIGN_SLIP takes the FFT
    # ladder, the next does not, and at the edge the FFT magnitudes still
    # meet the exact ladder's (Bluestein at that c) within the stated
    # 2 pi _ALIGN_SLIP n plus rounding
    n, count, m = 10_000, 2001, 10_000
    slip = lambda c: (count - 1) * (n - 1) * abs(c - 1.0 / m)
    c = 1.0 / m
    while slip(np.nextafter(c, 1.0)) <= _ALIGN_SLIP:
        c = float(np.nextafter(c, 1.0))
    assert c > 1.0 / m
    assert _dft_len(c, n, count) == m
    assert _dft_len(float(np.nextafter(c, 1.0)), n, count) is None
    tau = 1.0e-4
    y, dphase, a, _ = _ladder_inputs(11, n, locked=True)
    work = _Scratch()
    p0 = _sample_phasors(tau * np.arange(n), y, dphase, a, 0.0, work)
    fft = _ladder_mags(p0, count, _fft_plan(m), work)
    exact = _ladder_mags(p0, count, _bluestein_plan(c, n, count), work)
    bound = (2.0 * np.pi * _ALIGN_SLIP + 1e-12) * n
    assert np.max(np.abs(fft - exact)) <= bound
    assert np.argmax(fft) == np.argmax(exact)
    # the other conditions: n <= M <= the Bluestein length, M 11-smooth
    assert _dft_len(1.0 / m, m + 1, count) is None
    assert _dft_len(1.0 / m, 5000, 2001) is None      # L = 7000 < M
    assert _dft_len(1.0 / 10_007, n, count) is None   # a prime M
    assert _dft_len(1.0 / m, m, 1) == m


# ----------------------------------------------------------------------
# cost oracles
# ----------------------------------------------------------------------


def test_cost_at_truth_matches_noise_power(consts):
    # femtosecond noise keeps every sample clear of the fold boundary
    # on this seed, so the chi-square expectation applies directly
    noise = NoiseParams(sigma_j=1.0e-15, sigma_c=2.0e-15)
    args = SawtoothArgs(f_d=313.7, t_b=1.0000019e-8, phi=2.2)
    ep = epoch_model(0.0, 10000, 1.0e-4, args, 3.0, consts, noise=noise,
                     rng=np.random.default_rng(3))
    m = model_fold_values(ep.t_vec, args.f_d, args.phi, args.t_b)
    expect = ep.n * (noise.sigma_inner ** 2 + noise.sigma_outer ** 2)
    assert cost_J(ep.y_vec, m) == pytest.approx(expect, rel=0.10)


def test_cost_wrap_inflation(consts):
    # f_d t_m = 1/20 puts the sample phases on a 20-point lattice; with
    # phi = 2.2 one lattice point sits ~1.4 ps from the fold boundary,
    # so picosecond noise wraps a fraction of those samples by a full
    # period each.  The cost is then wrap-dominated: J ~ n_wrap * t_b^2.
    noise = NoiseParams(sigma_j=1.0e-12, sigma_c=2.0e-12)
    args = SawtoothArgs(f_d=500.0, t_b=1.0000019e-8, phi=2.2)
    ep = epoch_model(0.0, 10000, 1.0e-4, args, 3.0, consts, noise=noise,
                     rng=np.random.default_rng(3))
    m = model_fold_values(ep.t_vec, args.f_d, args.phi, args.t_b)
    r = ep.y_vec - m
    n_wrap = int(np.sum(np.abs(r - np.median(r)) > 0.5 * args.t_b))
    assert n_wrap > 50
    assert cost_J(ep.y_vec, m) == pytest.approx(n_wrap * args.t_b ** 2,
                                                rel=0.10)


def test_cost_grows_away_from_truth(consts):
    noise = NoiseParams(sigma_j=1.0e-12, sigma_c=2.0e-12)
    args = SawtoothArgs(f_d=313.7, t_b=1.0000019e-8, phi=2.2)
    ep = epoch_model(0.0, 10000, 1.0e-4, args, 3.0, consts, noise=noise,
                     rng=np.random.default_rng(3))
    j_true = cost_J(ep.y_vec, model_fold_values(
        ep.t_vec, args.f_d, args.phi, args.t_b))
    j_off = cost_J(ep.y_vec, model_fold_values(
        ep.t_vec, args.f_d + 5.0, args.phi, args.t_b))
    assert j_off > 100.0 * j_true


# ----------------------------------------------------------------------
# grid search
# ----------------------------------------------------------------------


def test_zero_noise_recovery_off_grid_beat(clock_pair, scenario, consts,
                                           zero_noise):
    ini, res = clock_pair(500.3)
    ep, log = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=11),
                            consts, zero_noise)
    est = grid_search(ep, consts, amplitude=1.0 / consts.f_nominal)
    phi_true = measure_phi_test_local(res, log.t_prime + 3.0 / consts.c)
    assert abs(est.f_d_hat - 500.3) < 0.05
    assert phase_error(est.phi_hat, phi_true) < 0.02
    assert abs(est.rho_hat - 3.0) < 0.01
    assert not est.at_grid_edge


def test_zero_noise_confounded_sum_is_exact(consts):
    # on a coarse sample-phase lattice the noise-free fit can trade a
    # phase slice against the distance floor (the mean-removed cost is
    # flat across one lattice cell), but the combination
    # a * phi / 2 pi + 2 rho / c it feeds back into is pinned exactly
    phi_exact = 2.0 * np.pi * 37 / 640.0
    a = 1.0e-8
    args = SawtoothArgs(f_d=100.0, t_b=a, phi=phi_exact)
    ep = epoch_model(0.5, 10000, 1.0e-4, args, 3.0, consts)
    est = grid_search(ep, consts, amplitude=a)
    assert est.f_d_hat == pytest.approx(100.0, abs=1e-9)
    s_hat = fold(a * est.phi_hat / (2 * np.pi) + 2 * est.rho_hat / consts.c, a)
    s_true = fold(a * phi_exact / (2 * np.pi) + 2 * 3.0 / consts.c, a)
    d = fold(s_hat - s_true + a / 2, a) - a / 2
    assert abs(d) < 1e-18
    # the individual split stays within one lattice cell of the truth
    assert phase_error(est.phi_hat, phi_exact) < 2 * np.pi / 100.0
    assert abs(est.rho_hat - 3.0) < consts.c * a / (2 * 100.0)


def test_desk_noise_single_trial(clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(47.3)
    cfg = scenario(n_pings=10000, seed=123)
    ep, log = run_rtt_epoch(ini, res, cfg, consts, desk_noise)
    t_test = ep.t_prime + 0.25
    ce = complete_estimate(ep, ini.f_hz, consts,
                           amplitude=1.0 / consts.f_nominal, t_test=t_test)
    assert abs(ce.estimate.f_d_hat - 47.3) < 0.2
    assert phase_error(ce.phi_test_hat,
                       measure_phi_test_local(res, t_test)) < 0.3
    assert abs(ce.estimate.rho_hat - 3.0) < 0.05
    assert ce.f_counterpart_hz == pytest.approx(res.f_hz, abs=0.2)
    assert ce.t_b_hat == pytest.approx(res.period, abs=1e-16)


def test_accuracy_improves_with_epoch_length(clock_pair, scenario, consts,
                                             desk_noise):
    ini, res = clock_pair(500.0)
    med = {}
    for n in (600, 10000):
        errs = []
        for s in range(9):
            ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=n, seed=40 + s),
                                  consts, desk_noise)
            t_test = ep.t_prime + 0.25
            ce = complete_estimate(ep, ini.f_hz, consts,
                                   amplitude=1.0 / consts.f_nominal,
                                   t_test=t_test)
            errs.append(phase_error(ce.phi_test_hat,
                                    measure_phi_test_local(res, t_test)))
        med[n] = float(np.median(errs))
    assert med[10000] < med[600] / 3.0


def test_dither_does_not_degrade_owner_estimate(clock_pair, scenario, consts,
                                                desk_noise):
    # the initiator knows its own dither draws, so feeding them to the
    # fit must leave the error distribution statistically unchanged
    ini, res = clock_pair(500.0)
    errs = {"none": [], "uniform": []}
    for kind in errs:
        for s in range(12):
            cfg = scenario(n_pings=4000, seed=300 + s, dither=kind)
            ep, log = run_climex_epoch(ini, res, cfg, consts, desk_noise)
            t_test = ep.t_prime + 0.25
            ce = complete_estimate(ep, ini.f_hz, consts,
                                   amplitude=consts.a_scale,
                                   delta_vec=log.delta, t_test=t_test)
            errs[kind].append(phase_error(
                ce.phi_test_hat, measure_phi_test_local(res, t_test)))
    ks = scipy.stats.ks_2samp(errs["none"], errs["uniform"])
    assert ks.pvalue > 0.01
    assert np.median(errs["uniform"]) < 0.1


def test_grid_edge_is_flagged(clock_pair, scenario, consts, zero_noise):
    ini, res = clock_pair(500.3)
    ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=11),
                          consts, zero_noise)
    est = grid_search(ep, consts, amplitude=1.0 / consts.f_nominal,
                      grid=SearchGrid(f_lo=-50.0, f_hi=50.0))
    assert est.at_grid_edge


def test_sample_mask_excludes_corruption(clock_pair, scenario, consts,
                                         zero_noise):
    ini, res = clock_pair(500.3)
    ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=11),
                          consts, zero_noise)
    y = ep.y_vec.copy()
    y[500:600] += 4.0e-9
    ep_bad = MeasurementEpoch(ep.t_prime, ep.t_m, y)
    mask = np.ones(ep.n, dtype=bool)
    mask[500:600] = False
    est = grid_search(ep_bad, consts, amplitude=1.0 / consts.f_nominal,
                      sample_mask=mask)
    assert abs(est.f_d_hat - 500.3) < 0.05
    assert abs(est.rho_hat - 3.0) < 0.01


def test_grid_search_refuses_bad_shapes_by_name(clock_pair, scenario, consts,
                                               zero_noise):
    # a mask or a dither that is not the epoch's length is named, not
    # left to a broadcast error deep in the fit
    ini, res = clock_pair(500.3)
    ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=200, seed=11),
                          consts, zero_noise)
    amp = 1.0 / consts.f_nominal
    for shape in (199, 201, (2, 100)):
        with pytest.raises(ValueError, match="sample_mask has shape"):
            grid_search(ep, consts, amplitude=amp,
                        sample_mask=np.ones(shape, dtype=bool))
    with pytest.raises(ValueError, match="delta_vec has shape"):
        grid_search(ep, consts, amplitude=amp, delta_vec=np.zeros(199))
    # a mask that keeps one ping leaves no beat to read
    one = np.zeros(200, dtype=bool)
    one[7] = True
    with pytest.raises(ValueError, match="^grid search needs at least two "
                                         "usable samples$"):
        grid_search(ep, consts, amplitude=amp, sample_mask=one)
    # a scalar dither still stands for every ping
    assert (grid_search(ep, consts, amplitude=amp, delta_vec=0.0)
            == grid_search(ep, consts, amplitude=amp,
                           delta_vec=np.zeros(200)))


def test_wide_refine_window_runs_in_bounded_memory():
    # refine = 1000 on the default comb is a 2001-point window, run in
    # chunks of the tables' 21 columns: its warm fit allocates no more
    # at its peak than the default window's (1 KB covers a few Python
    # ints; one n-long complex array would be 160 KB), and its picks are
    # the stepping loop's
    s = build_setup(dict(DEFAULTS))
    epoch, _ = run_exchange(s.initiator, s.responder, s.scenario, s.consts,
                            s.noise)
    wide = SearchGrid(refine=1000)
    peaks = {}
    for grid in (SearchGrid(), wide):
        grid_search(epoch, s.consts, grid=grid)         # plan in the memo
        tracemalloc.start()
        try:
            est = grid_search(epoch, s.consts, grid=grid)
            peaks[grid.refine] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] <= peaks[10] + 1024

    t, y, a = epoch.t_vec, epoch.y_vec, 1.0 / s.consts.f_nominal
    coarse = resultant_mags(t, y, 0.0, a, wide.f_lo, wide.df, 2001)
    f_c = wide.f_lo + wide.df * int(np.argmax(coarse))
    step = wide.df / wide.refine
    fine = resultant_mags(t, y, 0.0, a, f_c - wide.df, step, 2001)
    assert not _near_tie(coarse) and not _near_tie(fine)
    assert est.f_d_hat == f_c + step * (int(np.argmax(fine)) - 1000)


# ----------------------------------------------------------------------
# the fit's scratch
# ----------------------------------------------------------------------


def _hex_fields(est):
    return {f.name: (getattr(est, f.name).hex()
                     if isinstance(getattr(est, f.name), float)
                     else getattr(est, f.name))
            for f in dataclasses.fields(est)}


def _cold_scratch(monkeypatch):
    """Give this thread's fits an empty scratch, and return it."""
    work = estimators._Scratch()
    monkeypatch.setattr(estimators, "_SCRATCH", work)
    assert work.block.size == 0 and work.peak == 0
    return work


def test_fit_is_the_same_in_every_scratch_order(clock_pair, scenario, consts,
                                                desk_noise, monkeypatch):
    # a fit takes its working arrays from this thread's scratch; whatever
    # an earlier fit left there, a block grown for a shorter fit (so some
    # arrays are fresh) or for a longer one, a plain, a masked (2251 of
    # 3001 pings, so odd lengths) and a climex fit give the answer they
    # give from an empty scratch
    ini, res = clock_pair(271.3)
    amp = 1.0 / consts.f_nominal
    plain, _ = run_rtt_epoch(ini, res, scenario(n_pings=3001, seed=41),
                             consts, desk_noise)
    other, _ = run_rtt_epoch(ini, res, scenario(n_pings=2500, seed=42),
                             consts, desk_noise)
    dithered, log = run_climex_epoch(
        ini, res, scenario(n_pings=3001, seed=43, dither="uniform"),
        consts, desk_noise)
    mask = np.ones(plain.n, dtype=bool)
    mask[1::4] = False
    fits = {
        "plain": lambda: grid_search(plain, consts, amplitude=amp),
        "other length": lambda: grid_search(other, consts, amplitude=amp),
        "masked": lambda: grid_search(plain, consts, amplitude=amp,
                                      sample_mask=mask),
        "climex": lambda: grid_search(dithered, consts,
                                      amplitude=consts.a_scale,
                                      delta_vec=log.delta),
    }
    cold = {}
    for name, fit in fits.items():
        work = _cold_scratch(monkeypatch)
        cold[name] = _hex_fields(fit())
        assert work.peak > 0        # the fit took from this scratch
    for name in ("plain", "masked", "climex"):
        for before in fits:
            _cold_scratch(monkeypatch)
            fits[before]()
            assert _hex_fields(fits[name]()) == cold[name], (name, before)
        assert _hex_fields(fits[name]()) == cold[name]      # warm


def test_threads_fit_as_they_do_serially(clock_pair, scenario, consts,
                                         desk_noise):
    # each thread has its own scratch: four threads fitting four epochs
    # of one comb length at once, switching as often as the interpreter
    # lets them, get the serial answers every time
    ini, res = clock_pair(431.9)
    amp = 1.0 / consts.f_nominal
    epochs = [run_rtt_epoch(ini, res, scenario(n_pings=4000, seed=seed),
                            consts, desk_noise)[0] for seed in range(51, 55)]
    serial = [_hex_fields(grid_search(ep, consts, amplitude=amp))
              for ep in epochs]
    assert len({str(fit) for fit in serial}) == 4
    start = threading.Barrier(4)
    got = [None] * 4

    def run(i):
        start.wait(timeout=30)
        got[i] = [_hex_fields(grid_search(epochs[i], consts, amplitude=amp))
                  for _ in range(8)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[fit] * 8 for fit in serial]


def test_no_returned_array_is_scratch(monkeypatch):
    # what a fit, a robust refit, a detection or a listener fit returns
    # is its own: no array of it shares memory with the scratch the call
    # left behind, in a first round from an empty scratch and in a warm
    # second round
    s = build_setup(dict(DEFAULTS))
    epoch, log = run_exchange(s.initiator, s.responder, s.scenario, s.consts,
                              s.noise)
    short = build_setup(dict(DEFAULTS, n_pings=200))
    short_epoch, _ = run_exchange(short.initiator, short.responder,
                                  short.scenario, short.consts, short.noise)
    amp = 1.0 / s.consts.f_nominal
    calls = [
        lambda: grid_search(epoch, s.consts, grid=s.grid),
        lambda: robust_parameter_fit(epoch, s.consts, amplitude=amp,
                                     grid=s.grid),
        lambda: detect_outliers(epoch, grid_search(epoch, s.consts,
                                                   grid=s.grid),
                                s.consts, amp),
        lambda: eve_estimate_rtt(eve_tdoa_epoch(log, s.rho_ae, s.rho_be,
                                                s.noise, 9000),
                                 s.consts, grid=s.grid),
        lambda: robust_parameter_fit(short_epoch, short.consts,
                                     amplitude=amp, grid=short.grid),
    ]
    work = _cold_scratch(monkeypatch)
    for call in calls + calls:
        out = call()
        for value in out if isinstance(out, tuple) else (out,):
            if dataclasses.is_dataclass(value):
                assert all(type(getattr(value, f.name)) in (float, bool)
                           for f in dataclasses.fields(value))
            else:
                assert isinstance(value, np.ndarray)
                assert not np.shares_memory(value, work.block)
                assert not np.shares_memory(value, work.padded)
    assert work.block.size == 10 * 10_000        # the default fit's peak


def test_a_short_fit_keeps_the_block(monkeypatch):
    # the block only grows: a 200-ping fit between two 10^4-ping fits
    # takes its arrays from the block and does not replace it
    s = build_setup(dict(DEFAULTS))
    epoch, _ = run_exchange(s.initiator, s.responder, s.scenario, s.consts,
                            s.noise)
    short = build_setup(dict(DEFAULTS, n_pings=200))
    short_epoch, _ = run_exchange(short.initiator, short.responder,
                                  short.scenario, short.consts, short.noise)
    work = _cold_scratch(monkeypatch)
    grid_search(epoch, s.consts, grid=s.grid)
    block = work.block
    grid_search(short_epoch, short.consts, grid=short.grid)
    grid_search(epoch, s.consts, grid=s.grid)
    assert work.block is block
    assert work.top == 0 and work.peak == block.size


def test_warm_default_fit_peak_allocation():
    # a warm default fit writes its phasors, ladder buffer, resultant and
    # smoothed fold mean into its scratch; what it still allocates (the
    # folded ramp, the model and cost, the ladder's magnitudes) peaks
    # near 340 kB, and one more 10^4-ping complex working array (160 kB)
    # would pass 420 kB
    s = build_setup(dict(DEFAULTS))
    epoch, _ = run_exchange(s.initiator, s.responder, s.scenario, s.consts,
                            s.noise)
    grid_search(epoch, s.consts, grid=s.grid)
    tracemalloc.start()
    try:
        grid_search(epoch, s.consts, grid=s.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 420_000


def test_grid_search_refuses_aliased_grid(clock_pair, scenario, consts,
                                          zero_noise):
    # at t_m = 1 ms the resultant repeats every 1 kHz: the default
    # +-1 kHz ladder holds 500 Hz and -500 Hz as an exact tie
    ini, res = clock_pair(500.0)
    ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=1000, seed=11, t_m=1e-3),
                          consts, zero_noise)
    amp = 1.0 / consts.f_nominal
    with pytest.raises(ValueError, match="alias period"):
        grid_search(ep, consts, amplitude=amp)
    with pytest.raises(ValueError, match="alias period"):
        grid_search(ep, consts, amplitude=amp,
                    grid=SearchGrid(f_lo=-500.0, f_hi=500.0))
    est = grid_search(ep, consts, amplitude=amp,
                      grid=SearchGrid(f_lo=-400.0, f_hi=599.0))
    assert abs(est.f_d_hat - 500.0) < 0.05


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------


def test_predict_phi_test_rejects_degenerate_fits(consts):
    from climex import ParamEstimate
    est = ParamEstimate(f_d_hat=0.0, phi_hat=1.0, rho_hat=3.0, cost=0.0)
    with pytest.raises(ValueError):
        predict_phi_test(est, 1.0e8, 0.0, 0.25, consts)
    est2 = ParamEstimate(f_d_hat=2.0e8, phi_hat=1.0, rho_hat=3.0, cost=0.0)
    with pytest.raises(ValueError):
        predict_phi_test(est2, 1.0e8, 0.0, 0.25, consts)


def test_phi_test_prediction_noise_free(clock_pair, scenario, consts,
                                        zero_noise):
    ini, res = clock_pair(313.7)
    ep, log = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=5),
                            consts, zero_noise)
    t_test = ep.t_prime + 0.25
    ce = complete_estimate(ep, ini.f_hz, consts,
                           amplitude=1.0 / consts.f_nominal, t_test=t_test)
    truth = measure_phi_test_local(res, t_test)
    assert phase_error(ce.phi_test_hat, truth) < 0.05
