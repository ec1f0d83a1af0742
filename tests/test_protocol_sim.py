"""Tick-engine checks: edge arithmetic, determinism, equivalence with
the closed-form generators, and the failure modes."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from climex import (
    CausalityError,
    ClockParams,
    NoiseParams,
    ProtocolConstants,
    ProtocolOverrunError,
    SawtoothArgs,
    ScenarioConfig,
    epoch_model,
    first_edge_at_or_after,
    fold,
    measure_phi_test_local,
    ping_decimation,
    replay_dither,
    run_climex_epoch,
    run_exchange,
    run_rtt_epoch,
    sawtooth,
    scenario_stream,
)
from climex.protocol_sim import DITHER_SLOT, NOISE_SLOT, latch_gap

_TWO_PI = 2.0 * np.pi


# ----------------------------------------------------------------------
# edge arithmetic
# ----------------------------------------------------------------------


def test_first_edge_hand_values():
    clk = ClockParams(f_hz=10.0, theta_rad=0.0)
    assert first_edge_at_or_after(clk, 0.05) == pytest.approx(0.1, abs=1e-15)
    assert first_edge_at_or_after(clk, 0.1) == pytest.approx(0.1, abs=1e-15)
    # theta = pi advances the comb by half a period
    clk2 = ClockParams(f_hz=10.0, theta_rad=np.pi)
    assert first_edge_at_or_after(clk2, 0.0) == pytest.approx(0.05, abs=1e-15)


def test_phase_to_next_edge_hand_value():
    clk = ClockParams(f_hz=10.0, theta_rad=0.0)
    assert measure_phi_test_local(clk, 0.05) == pytest.approx(np.pi,
                                                              abs=1e-12)
    assert measure_phi_test_local(clk, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_phase_at_returned_edge_is_zero():
    rng = np.random.default_rng(11)
    clk = ClockParams(f_hz=123.4, theta_rad=0.8)
    for t in rng.uniform(0.0, 5.0, 200):
        e = first_edge_at_or_after(clk, t)
        assert e >= t - 1e-12
        p = measure_phi_test_local(clk, e)
        # the edge itself reads as zero phase-to-go (mod full turn)
        assert min(p, 2.0 * np.pi - p) < 1e-5
        assert e - t < clk.period + 1e-12


def test_measure_phi_test_matches_edge_phase():
    clk = ClockParams(f_hz=10.0, theta_rad=0.0)
    # quarter period past an edge leaves three quarters of a turn to go
    assert measure_phi_test_local(clk, 0.125) == pytest.approx(1.5 * np.pi)
    # the phase left is the wait for the next edge, in turns
    rng = np.random.default_rng(4)
    clk = ClockParams(f_hz=123.4, theta_rad=0.8)
    for t in rng.uniform(0.0, 3.0, 100):
        wait = _TWO_PI * clk.f_hz * (first_edge_at_or_after(clk, t) - t)
        assert abs(fold(measure_phi_test_local(clk, t) - wait + np.pi,
                        _TWO_PI) - np.pi) < 1e-9


def test_latch_gap_hand_values():
    clk = ClockParams(f_hz=10.0, theta_rad=0.0)
    # half a period to the next edge, then noise that carries the wait
    # past it onto the following tooth
    assert latch_gap(clk, 0.05, 0.0) == pytest.approx(0.05, abs=1e-15)
    assert latch_gap(clk, 0.05, 0.06) == pytest.approx(0.01, abs=1e-15)
    assert latch_gap(clk, 0.05, -0.06) == pytest.approx(0.09, abs=1e-15)
    gaps = latch_gap(clk, np.array([0.0, 0.025, 0.075]), 0.0)
    assert gaps == pytest.approx([0.0, 0.075, 0.025], abs=1e-15)


def test_ping_decimation(consts):
    assert ping_decimation(1.0e-4, consts) == 10000
    assert ping_decimation(1.6e-8, consts) == 2
    with pytest.raises(ValueError):
        ping_decimation(1.0e-9, consts)  # shorter than one period


def test_scenario_streams_are_stable_and_disjoint():
    a = scenario_stream(77, NOISE_SLOT).normal(size=8)
    b = scenario_stream(77, NOISE_SLOT).normal(size=8)
    assert np.array_equal(a, b)
    c = scenario_stream(77, DITHER_SLOT).normal(size=8)
    assert not np.array_equal(b, c)
    # every recorded draw hangs on these spawn slots of the seed
    assert (DITHER_SLOT, NOISE_SLOT) == (1, 2)
    for seed in (0, 77, 12345):
        kids = np.random.SeedSequence(seed).spawn(6)
        for k in (DITHER_SLOT, NOISE_SLOT):
            ref = np.random.default_rng(kids[k]).uniform(size=16)
            assert np.array_equal(scenario_stream(seed, k).uniform(size=16),
                                  ref)


# ----------------------------------------------------------------------
# exchanges
# ----------------------------------------------------------------------


def test_exchange_is_deterministic(clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(500.0)
    ep1, _ = run_rtt_epoch(ini, res, scenario(seed=13), consts, desk_noise)
    ep2, _ = run_rtt_epoch(ini, res, scenario(seed=13), consts, desk_noise)
    ep3, _ = run_rtt_epoch(ini, res, scenario(seed=14), consts, desk_noise)
    assert np.array_equal(ep1.y_vec, ep2.y_vec)
    assert not np.array_equal(ep1.y_vec, ep3.y_vec)


def test_epoch_reports_nominal_grid(clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(500.0)
    cfg = scenario(n_pings=300, seed=2)
    ep, log = run_rtt_epoch(ini, res, cfg, consts, desk_noise)
    assert np.array_equal(ep.t_vec, cfg.t_m * np.arange(300))
    assert ep.t_prime == log.ping_nominal[0]
    # true emissions run on the initiator's edge comb, not the grid
    assert log.t_m_eff == 10000 / ini.f_hz


def test_climex_with_no_dither_native_amplitude_equals_rtt(
        clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(500.0)
    cfg = scenario(n_pings=800, seed=6)
    native = ProtocolConstants(c=consts.c, f_nominal=consts.f_nominal,
                               delta_0=consts.delta_0, a_scale=res.period)
    ep_r, _ = run_rtt_epoch(ini, res, cfg, native, desk_noise)
    ep_c, _ = run_climex_epoch(ini, res, cfg, native, desk_noise)
    assert np.array_equal(ep_r.y_vec, ep_c.y_vec)


def test_rtt_tick_matches_closed_form(clock_pair, scenario, consts, desk_noise):
    ini, res = clock_pair(500.0)
    ep, log = run_rtt_epoch(ini, res, scenario(n_pings=400, seed=7),
                            consts, desk_noise)
    phi = measure_phi_test_local(res, log.t_prime + 3.0 / consts.c)
    args = SawtoothArgs(f_d=ini.f_hz - res.f_hz, t_b=res.period, phi=phi)
    h = sawtooth(log.ping_emit - log.t_prime, args, noise_vec=log.noise_inner)
    y_hat = h + consts.delta_0 + 2.0 * 3.0 / consts.c + log.noise_outer
    assert np.max(np.abs(y_hat - ep.y_vec)) < 1.0e-14


def test_climex_tick_matches_closed_form(clock_pair, scenario, consts,
                                         desk_noise):
    ini, res = clock_pair(500.0)
    cfg = scenario(n_pings=400, seed=7, dither="uniform")
    ep, log = run_climex_epoch(ini, res, cfg, consts, desk_noise)
    phi = measure_phi_test_local(res, log.t_prime + 3.0 / consts.c)
    args = SawtoothArgs(f_d=ini.f_hz - res.f_hz, t_b=res.period, phi=phi)
    g = sawtooth(log.ping_nominal - log.t_prime, args, delta_vec=log.delta,
                 amplitude=log.amplitude, noise_vec=log.noise_inner)
    y_hat = g + consts.delta_0 + 2.0 * 3.0 / consts.c + log.noise_outer
    assert np.max(np.abs(y_hat - ep.y_vec)) < 1.0e-14
    assert log.amplitude == consts.a_scale
    # the dither advances emissions, never delays them
    assert np.all(log.delta >= 0.0)
    assert np.all(log.delta < 1.0 / consts.f_nominal)
    assert np.all(log.ping_emit <= log.ping_nominal)


@settings(max_examples=40, deadline=None)
@given(log_t_start=st.floats(-6.0, 3.0), f_d=st.floats(2.0, 1000.0),
       sign=st.sampled_from((-1.0, 1.0)), theta_a=st.floats(0.0, 6.28),
       theta_b=st.floats(0.0, 6.28), rho=st.floats(0.0, 30.0),
       kind=st.sampled_from(("rtt", "climex")), seed=st.integers(0, 2**31))
@example(log_t_start=3.0, f_d=500.0, sign=1.0, theta_a=0.3, theta_b=1.1,
         rho=3.0, kind="climex", seed=7)
def test_tick_matches_closed_form_up_to_1e3_s(log_t_start, f_d, sign,
                                              theta_a, theta_b, rho, kind,
                                              seed):
    # The latch reads the edge phase off an absolute time, so its
    # rounding grows with the start time: about 1e-12 s of agreement
    # holds up to t_start = 1e3 s.  A sample within that error of an
    # edge lands on the other tooth, hence the comparison mod amplitude.
    consts = ProtocolConstants()
    noise = NoiseParams(sigma_j=1.0e-9, sigma_c=2.0e-9)
    ini = ClockParams(f_hz=1.0e8 + 313.0, theta_rad=theta_a)
    res = ClockParams(f_hz=ini.f_hz - sign * f_d, theta_rad=theta_b)
    cfg = ScenarioConfig(n_pings=300, rho_ab=rho, t_start=10.0 ** log_t_start,
                         dither="uniform" if kind == "climex" else "none",
                         seed=seed)
    ep, log = run_exchange(ini, res, cfg, consts, noise, kind=kind)
    args = SawtoothArgs(f_d=ini.f_hz - res.f_hz, t_b=res.period,
                        phi=measure_phi_test_local(res, log.t_prime
                                                   + rho / consts.c))
    want = epoch_model(log.t_prime, cfg.n_pings, log.t_m_eff, args, rho,
                       consts, delta_vec=log.delta, amplitude=log.amplitude,
                       noise=noise, rng=scenario_stream(seed, NOISE_SLOT))
    a = log.amplitude
    gap = fold(want.y_vec - ep.y_vec + a / 2.0, a) - a / 2.0
    assert np.max(np.abs(gap)) < 1.0e-12


def test_rtt_log_uses_unit_scale(clock_pair, scenario, consts, zero_noise):
    ini, res = clock_pair(500.0)
    _, log = run_rtt_epoch(ini, res, scenario(n_pings=50, seed=1),
                           consts, zero_noise)
    assert log.scale == 1.0
    assert log.amplitude == res.period
    assert np.all(log.delta == 0.0)


# ----------------------------------------------------------------------
# failure modes
# ----------------------------------------------------------------------


def test_wide_dither_overruns(clock_pair, zero_noise):
    # 70 ns slots hold every respond (20 ns of flight, 20 ns of delay
    # and a gap below 25 ns); the dither, up to one 10 ns period, moves
    # the next ping up by as much and overruns some slot in 50
    ini, res = clock_pair(500.0)
    consts = ProtocolConstants(delta_0=2.0e-8)
    cfg = dict(t_m=7.0e-8, n_pings=50, rho_ab=3.0, seed=1)
    run_climex_epoch(ini, res, ScenarioConfig(**cfg), consts, zero_noise)
    with pytest.raises(ProtocolOverrunError, match="overruns the next"):
        run_climex_epoch(ini, res, ScenarioConfig(dither="uniform", **cfg),
                         consts, zero_noise)


def test_replayed_dither_matches_the_exchange(clock_pair, scenario, consts,
                                              desk_noise):
    # the fit needs the same draws the engine used, regenerated from
    # the seed alone
    ini, res = clock_pair(500.0)
    cfg = scenario(n_pings=400, seed=17, dither="uniform")
    _, log = run_climex_epoch(ini, res, cfg, consts, desk_noise)
    assert np.array_equal(replay_dither(cfg, consts), log.delta)
    cfg_plain = scenario(n_pings=400, seed=17)
    assert np.all(replay_dither(cfg_plain, consts) == 0.0)


def test_slow_processing_overruns(clock_pair, scenario, desk_noise):
    ini, res = clock_pair(500.0)
    slow = ProtocolConstants(delta_0=2.0e-4)
    with pytest.raises(ProtocolOverrunError):
        run_rtt_epoch(ini, res, scenario(n_pings=50, seed=1), slow, desk_noise)


# an unknown kind; a respond that the micro-second stamp noise puts before
# its ping, with no flight time and no processing delay; and an
# initiator at twice the nominal rate, whose one-edge slot of 5 ns the
# 10 ns dither span reorders
@pytest.mark.parametrize("kind, f_ini, t_m, rho_ab, delta_0, sigma, error, "
                         "message", [
    ("bogus", 1.0e8 + 313.0, 1.0e-4, 3.0, 2.0e-8, 0.0, ValueError,
     "unknown exchange kind 'bogus'"),
    ("rtt", 1.0e8 + 313.0, 1.0e-4, 0.0, 0.0, 1.0e-6, CausalityError,
     "a respond arrives before its ping was sent"),
    ("climex", 2.0e8, 1.0e-8, 3.0, 2.0e-8, 0.0, ProtocolOverrunError,
     "dither span reorders ping emissions"),
], ids=["unknown_kind", "respond_before_ping", "dither_reorders_pings"])
def test_run_exchange_refusals(kind, f_ini, t_m, rho_ab, delta_0, sigma,
                               error, message):
    ini = ClockParams(f_hz=f_ini, theta_rad=0.3)
    res = ClockParams(f_hz=1.0e8 - 187.0, theta_rad=1.1)
    cfg = ScenarioConfig(t_m=t_m, n_pings=50, rho_ab=rho_ab,
                         dither="uniform", seed=1)
    with pytest.raises(error, match=f"^{message}$"):
        run_exchange(ini, res, cfg, ProtocolConstants(delta_0=delta_0),
                     NoiseParams(sigma_j=0.0, sigma_c=sigma), kind=kind)


def test_negative_distance_is_causality_error():
    with pytest.raises(CausalityError):
        ScenarioConfig(t_m=1.0e-4, n_pings=50, rho_ab=-1.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(t_m=0.0, n_pings=10)
    with pytest.raises(ValueError):
        ScenarioConfig(t_m=1.0e-4, n_pings=0)
    with pytest.raises(ValueError, match="unknown dither kind 'gauss'"):
        ScenarioConfig(dither="gauss")
    # the tick engine meets the closed forms to ~1e-12 s up to 1e3 s
    # and drifts past it (~5 ns at 1e7 s, which ran without a word)
    for t_start in (1.0e3, -1.0e3, 0.0):
        assert ScenarioConfig(t_start=t_start).t_start == t_start
    for t_start in (1.001e3, -1.001e3, 1.0e7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"outside \+-1000 s"):
            ScenarioConfig(t_start=t_start)
