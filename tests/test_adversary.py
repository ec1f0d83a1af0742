"""Passive listener and injection attacker behaviour.

Accuracy pins are fixed-seed runs.  The headline contrast: a listener
recovers the beat from plain round-trip traffic but loses it entirely
once the responder's reply is rescaled to the public amplitude and the
initiator dithers its pings.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from climex import (
    ClockParams,
    InjectionPlan,
    MeasurementEpoch,
    NoiseParams,
    ProtocolConstants,
    ShortEpochError,
    detect_outliers,
    eve_estimate_rtt,
    eve_interarrival_epoch,
    eve_tdoa_epoch,
    grid_search,
    inject_responses,
    make_oracle_plan,
    make_random_timing_plan,
    remeasure_epoch,
    robust_parameter_fit,
    run_climex_epoch,
    run_rtt_epoch,
)
from climex.adversary import _comb_design, _comb_fit, _median, _quantile

RHO_AE = 4.0
RHO_BE = 2.5


# ----------------------------------------------------------------------
# passive taps
# ----------------------------------------------------------------------


def test_tdoa_depends_only_on_path_difference(clock_pair, scenario, consts,
                                              zero_noise):
    # two eavesdropper positions with the same rho_BE - rho_AE must see
    # bit-identical arrival differences when the receiver is noiseless
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(seed=6), consts, zero_noise)
    e1 = eve_tdoa_epoch(log, 4.0, 2.5, zero_noise, np.random.default_rng(1))
    e2 = eve_tdoa_epoch(log, 5.5, 4.0, zero_noise, np.random.default_rng(1))
    assert np.array_equal(e1.tdoa, e2.tdoa)
    # the raw ping stamps do move with the position
    assert not np.array_equal(e1.ping_times, e2.ping_times)


def _off_triangle(rho_ae, rho_be):
    return (f"geometry violates the triangle inequality: rho_ae = {rho_ae}, "
            f"rho_be = {rho_be}, rho_ab = 3.0 m")


# rho_AB = 3 here: a listener 10 m from one end and 2 m from the other,
# or 1 m from both, cannot close the triangle; one in line with both
# stations, beyond B or between them, lies on its edge
@pytest.mark.parametrize("rho_ae, rho_be, message", [
    (-1.0, 2.5, "distances must be non-negative"),
    (10.0, 2.0, _off_triangle(10.0, 2.0)),
    (2.0, 10.0, _off_triangle(2.0, 10.0)),
    (1.0, 1.0, _off_triangle(1.0, 1.0)),
    (4.0, 1.0, None),
    (1.0, 2.0, None),
])
def test_tdoa_geometry_validation(clock_pair, scenario, consts, zero_noise,
                                  rho_ae, rho_be, message):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(seed=6), consts, zero_noise)
    if message is None:
        ep = eve_tdoa_epoch(log, rho_ae, rho_be, zero_noise, 1)
        assert ep.tdoa.size == log.ping_emit.size
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eve_tdoa_epoch(log, rho_ae, rho_be, zero_noise, 1)


def test_listener_reads_rtt_traffic(clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=1000),
                           consts, desk_noise)
    ep = eve_tdoa_epoch(log, RHO_AE, RHO_BE, desk_noise,
                        np.random.default_rng(9000))
    est = eve_estimate_rtt(ep, consts)
    assert abs(est.f_d_hat - 500.0) < 0.2
    assert abs(est.f_a_hat - ini.f_hz) < 0.5
    assert abs(est.f_b_hat - res.f_hz) < 0.7
    assert abs(est.t_b_hat - res.period) < 1e-16


def test_amplitude_rescaling_breaks_listener_lock(clock_pair, scenario,
                                                  consts, desk_noise):
    # the reply delay is scaled to the public amplitude, so the beat the
    # listener fits against a nominal-period sawtooth collapses to zero
    ini, res = clock_pair(500.0)
    _, log = run_climex_epoch(ini, res,
                              scenario(n_pings=10000, seed=1000,
                                       dither="uniform"),
                              consts, desk_noise)
    ep = eve_tdoa_epoch(log, RHO_AE, RHO_BE, desk_noise,
                        np.random.default_rng(9500))
    est = eve_estimate_rtt(ep, consts)
    assert abs(est.f_d_hat - 500.0) > 100.0


def test_interarrival_beat_and_its_destruction(clock_pair, scenario, consts,
                                               desk_noise):
    ini, res = clock_pair(500.0)
    eve_clk = ClockParams(f_hz=1.0e8 + 91.0, theta_rad=0.7)
    beat = ini.f_hz - eve_clk.f_hz

    _, log = run_rtt_epoch(ini, res, scenario(seed=77), consts, desk_noise)
    ep = eve_interarrival_epoch(log, eve_clk, RHO_AE, desk_noise,
                                np.random.default_rng(123))
    est = grid_search(ep, consts, amplitude=eve_clk.period)
    assert abs(est.f_d_hat - beat) < 0.5

    _, log_d = run_climex_epoch(ini, res,
                                scenario(seed=77, dither="uniform"),
                                consts, desk_noise)
    ep_d = eve_interarrival_epoch(log_d, eve_clk, RHO_AE, desk_noise,
                                  np.random.default_rng(123))
    est_d = grid_search(ep_d, consts, amplitude=eve_clk.period)
    assert abs(est_d.f_d_hat - beat) > 10.0
    with pytest.raises(ValueError, match="^distance must be non-negative$"):
        eve_interarrival_epoch(log, eve_clk, -1.0, desk_noise, 123)


def test_listener_fit_needs_enough_pulses(clock_pair, scenario, consts,
                                          desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=7, seed=2), consts,
                           desk_noise)
    ep = eve_tdoa_epoch(log, RHO_AE, RHO_BE, desk_noise,
                        np.random.default_rng(4))
    with pytest.raises(ShortEpochError):
        eve_estimate_rtt(ep, consts)


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(8, 300), st.integers(8, 100_000)),
       rel=st.floats(-1e-2, 1e-2),
       offset=st.floats(-1e3, 1e3),
       sigma=st.sampled_from([0.0, 1e-12, 2e-9, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
# the listener's tap: 10^4 pings, 2 ns stamps; and a noise-free comb
@example(n=10_000, rel=-3.13e-6, offset=0.0, sigma=2e-9, seed=9000)
@example(n=8, rel=0.0, offset=1e3, sigma=0.0, seed=0)
def test_comb_fit_is_polyfit_bit_for_bit(n, rel, offset, sigma, seed):
    # the once-built design gives np.polyfit's line in every bit; the
    # stamps are not written, and the cached design is read-only and
    # the same after the fit as a fresh build
    rng = np.random.default_rng(seed)
    times = offset + 1e-4 * (1.0 + rel) * np.arange(n)
    if sigma:
        times += rng.normal(0.0, sigma, n)
    times.flags.writeable = False
    want = np.polyfit(np.arange(n, dtype=float), times, 1)
    got = _comb_fit(times)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]
    lhs, scale, rcond = _comb_design(n)
    assert not lhs.flags.writeable and not scale.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        lhs[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        scale *= 2.0
    _comb_design.cache_clear()
    fresh = _comb_design(n)
    assert fresh[0] is not lhs
    assert lhs.tobytes() == fresh[0].tobytes()
    assert scale.tobytes() == fresh[1].tobytes() and rcond == fresh[2]


# ----------------------------------------------------------------------
# injection
# ----------------------------------------------------------------------


def test_random_timing_plan_bounds_and_wins(clock_pair, scenario, consts,
                                            desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=60, seed=3), consts,
                           desk_noise)
    plan = make_random_timing_plan(log, 3.5, 60, np.random.default_rng(5))
    hear = log.ping_emit[plan.indices] + 3.5 / consts.c
    assert np.all(plan.emit_times >= hear)
    assert np.all(plan.emit_times < hear + consts.delta_0 / 2)
    # 3.5 m of one-way path beats the honest reply's 25 ns hold time
    first, won = inject_responses(log, plan)
    assert won.all()
    assert np.all(first[plan.indices] < log.respond_arrive[plan.indices])


def test_random_timing_plan_validates_count(clock_pair, scenario, consts,
                                            desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=60, seed=3), consts,
                           desk_noise)
    with pytest.raises(ValueError):
        make_random_timing_plan(log, 3.5, 0, np.random.default_rng(5))
    with pytest.raises(ValueError):
        make_random_timing_plan(log, 3.5, 61, np.random.default_rng(5))


def test_oracle_plan_preempts_by_lead(clock_pair, scenario, consts,
                                      desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=60, seed=3), consts,
                           desk_noise)
    plan = make_oracle_plan(log, 3.5, 20, np.random.default_rng(6))
    first, won = inject_responses(log, plan)
    assert won[plan.indices].all()
    mask = np.zeros(60, dtype=bool)
    mask[plan.indices] = True
    assert not won[~mask].any()
    gap = log.respond_arrive[plan.indices] - first[plan.indices]
    assert np.all(gap > 0)
    assert np.all(gap < 1e-11)


def test_remeasure_touches_only_won_slots(clock_pair, scenario, consts,
                                          desk_noise):
    ini, res = clock_pair(500.0)
    ep_clean, log = run_rtt_epoch(ini, res, scenario(n_pings=200, seed=9),
                                  consts, desk_noise)
    plan = make_random_timing_plan(log, 3.5, 50, np.random.default_rng(7))
    ep1, won1 = remeasure_epoch(log, plan)
    ep2, won2 = remeasure_epoch(log, plan)
    assert np.array_equal(ep1.y_vec, ep2.y_vec)
    assert np.array_equal(won1, won2)
    assert np.array_equal(ep1.y_vec[~won1], ep_clean.y_vec[~won1])
    assert np.all(ep1.y_vec[won1] != ep_clean.y_vec[won1])


def test_forged_reply_cannot_precede_the_ping(clock_pair, scenario, consts,
                                              desk_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=60, seed=3), consts,
                           desk_noise)
    plan = InjectionPlan(indices=np.array([5]),
                         emit_times=np.array([log.ping_emit[5] - 1e-5]),
                         rho_ea=3.5, w_seed=1)
    with pytest.raises(ValueError):
        remeasure_epoch(log, plan)


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------


def test_clean_epoch_raises_no_flags(clock_pair, scenario, consts,
                                     desk_noise):
    ini, res = clock_pair(500.3)
    ep, _ = run_rtt_epoch(ini, res, scenario(seed=31), consts, desk_noise)
    est = grid_search(ep, consts, amplitude=1.0 / consts.f_nominal)
    flags, residuals = detect_outliers(ep, est, consts,
                                       1.0 / consts.f_nominal)
    assert flags.sum() == 0
    assert residuals.shape == (ep.n,)


def test_detection_needs_a_minimum_epoch(clock_pair, scenario, consts,
                                         desk_noise):
    ini, res = clock_pair(500.0)
    ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=15, seed=3), consts,
                          desk_noise)
    est = grid_search(ep, consts, amplitude=1.0 / consts.f_nominal)
    with pytest.raises(ShortEpochError):
        detect_outliers(ep, est, consts, 1.0 / consts.f_nominal)


def test_robust_fit_survives_corruption(clock_pair, scenario, consts,
                                        pico_noise):
    # 5% of the samples pulled 3 ns off the sawtooth: the plain fit's
    # distance estimate absorbs part of the bump, the trimmed refit does
    # not, and the trim removes exactly the corrupted set
    ini, res = clock_pair(500.3)
    ep, _ = run_rtt_epoch(ini, res, scenario(seed=31), consts, pico_noise)
    idx = np.random.default_rng(8).choice(ep.n, size=100, replace=False)
    y = ep.y_vec.copy()
    y[idx] += 3.0e-9
    ep_bad = MeasurementEpoch(ep.t_prime, ep.t_m, y)

    amp = 1.0 / consts.f_nominal
    plain = grid_search(ep_bad, consts, amplitude=amp)
    rob, keep = robust_parameter_fit(ep_bad, consts, amplitude=amp)
    assert abs(plain.rho_hat - 3.0) > 0.01
    assert abs(rob.rho_hat - 3.0) < 0.005
    assert keep.sum() == ep.n - 100
    assert keep[idx].sum() == 0

    flags, _ = detect_outliers(ep_bad, rob, consts, amp)
    assert flags[idx].all()
    mask = np.zeros(ep.n, dtype=bool)
    mask[idx] = True
    assert flags[~mask].sum() == 0


def test_robust_fit_trim_validation(clock_pair, scenario, consts,
                                    desk_noise):
    ini, res = clock_pair(500.0)
    ep, _ = run_rtt_epoch(ini, res, scenario(seed=31), consts, desk_noise)
    with pytest.raises(ValueError):
        robust_parameter_fit(ep, consts, amplitude=1.0 / consts.f_nominal,
                             trim=0.5)


# finite float64 values with ties, both zeros and subnormals, small
# enough that a sum of two stays finite (numpy warns on the overflow)
_STAT_VALUES = st.one_of(
    st.floats(-1e307, 1e307),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0]),
    st.integers(-3, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_STAT_VALUES, min_size=16, max_size=10_000).map(np.array),
       trim=st.floats(0.0, 0.5, exclude_max=True))
@example(x=np.array([-0.0] * 16), trim=0.0)
@example(x=np.array([-0.0] * 17), trim=0.05)
@example(x=np.array([0.0, -0.0] * 8 + [5e-324]), trim=0.25)
@example(x=np.random.default_rng(0).normal(size=10_000), trim=0.05)
# the quantile's partition points decide which zero lands next to a
# subnormal; gamma = 1/2 exactly takes the upper side of the lerp
@example(x=np.random.default_rng(30).choice([0.0, -0.0, 5e-324, -5e-324, 1.0],
                                            22), trim=0.3)
@example(x=np.random.default_rng(34).normal(size=21), trim=0.025)
@example(x=np.random.default_rng(1).integers(-2, 3, 9_999).astype(float),
         trim=0.4999)
def test_partition_statistics_are_numpys_bit_for_bit(x, trim):
    # the MAD's median and the trimmed refit's quantile, each from one
    # partition, equal np.median and np.quantile(method="linear") in
    # every bit (the sign of a zero included); x is not written
    x.flags.writeable = False
    q = 1.0 - trim
    assert (np.float64(_median(x)).tobytes()
            == np.float64(np.median(x)).tobytes())
    assert (np.float64(_quantile(x, q)).tobytes()
            == np.float64(np.quantile(x, q, method="linear")).tobytes())
