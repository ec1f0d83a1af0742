"""Measurement-model checks: fold conventions, sawtooth hand values,
noise moments, and the closed-form epoch generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from climex import (
    BudgetInputs,
    ClockParams,
    MeasurementEpoch,
    NoiseParams,
    ProtocolConstants,
    SawtoothArgs,
    ScenarioConfig,
    draw_epoch_noise,
    epoch_model,
    fold,
    sawtooth,
)


# ----------------------------------------------------------------------
# fold
# ----------------------------------------------------------------------


def test_fold_hand_values():
    assert fold(2.5, 2.0) == 0.5
    assert fold(-0.5, 2.0) == 1.5
    assert fold(4.0, 2.0) == 0.0
    assert fold(0.0, 2.0) == 0.0
    with pytest.raises(ValueError, match="^period must be positive$"):
        fold(1.0, 0.0)


def test_fold_negative_epsilon_maps_to_zero():
    # np.mod(-1e-18, 1.0) rounds to 1.0; the result must stay below the
    # period, so the implementation has to remap that case
    assert fold(-1.0e-18, 1.0) == 0.0
    x = np.array([-1.0e-18, 1.0 - 1.0e-18, -1.0e-300])
    out = fold(x, 1.0)
    assert np.all(out < 1.0)
    assert np.all(out >= 0.0)


def test_fold_half_open_range_property():
    rng = np.random.default_rng(101)
    for _ in range(20):
        x = rng.normal(0.0, 50.0, size=10000)
        period = float(rng.uniform(0.1, 7.0))
        v = fold(x, period)
        assert np.all(v >= 0.0)
        assert np.all(v < period)


@st.composite
def _fold_inputs(draw):
    # a period from 1e-12 to 1e12, and values of either sign from 1e-300
    # to 1e300 mixed with negatives 1e-15 to 1e-30 of the period, where
    # np.mod rounds up to the period itself
    period = 10.0 ** draw(st.floats(-12.0, 12.0))
    wide = st.builds(lambda sign, e: sign * 10.0 ** e,
                     st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0))
    tiny_negative = st.floats(-30.0, -15.0).map(lambda e: -period * 10.0 ** e)
    xs = draw(st.lists(st.one_of(wide, tiny_negative,
                                 st.sampled_from([0.0, -0.0])),
                       min_size=1, max_size=30))
    return period, xs


@settings(max_examples=200, deadline=None)
@given(_fold_inputs())
@example((1.0, [-1.0e-18, 1.0 - 1.0e-18, -1.0e-300, -5e-324]))
@example((2.0 * np.pi, [-1.0e-16, -1.0e300, 1.0e300]))
def test_fold_is_half_open_over_log_wide_magnitudes(inputs):
    period, xs = inputs
    out = fold(np.array(xs), period)
    assert np.all((out >= 0.0) & (out < period))
    for x, from_array in zip(xs, out):
        v = fold(x, period)
        assert v == from_array and 0.0 <= v < period
        if np.mod(x, period) == period:
            assert v == 0.0


# ----------------------------------------------------------------------
# sawtooth conventions
# ----------------------------------------------------------------------


def test_sawtooth_h_quarter_cycle():
    # f_d = 100 Hz at t = 2.5 ms is a quarter beat cycle: the wait value
    # is a quarter of the responder period
    args = SawtoothArgs(f_d=100.0, t_b=10.0e-9, phi=0.0)
    h = sawtooth(np.array([2.5e-3]), args)
    assert h[0] == pytest.approx(2.5e-9, rel=1e-12)


def test_sawtooth_g_scales_to_public_amplitude():
    args = SawtoothArgs(f_d=100.0, t_b=10.0e-9, phi=0.0)
    g = sawtooth(np.array([2.5e-3]), args, amplitude=5.0e-9)
    assert g[0] == pytest.approx(1.25e-9, rel=1e-12)

    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0, 5000)
    vals = sawtooth(t, args, amplitude=5.0e-9)
    assert np.all(vals >= 0.0)
    assert np.all(vals < 5.0e-9)


def test_sawtooth_g_with_zero_dither_and_native_amplitude_is_h():
    args = SawtoothArgs(f_d=313.7, t_b=10.0e-9, phi=2.2)
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 4000)
    nvec = rng.normal(0.0, 2.0e-9, 4000)
    # the defaults are no dither and the responder's own period
    h = sawtooth(t, args, noise_vec=nvec)
    g = sawtooth(t, args, delta_vec=np.zeros(4000), amplitude=args.t_b,
                 noise_vec=nvec)
    assert np.array_equal(h, g)


def test_sawtooth_h_periodic_in_beat():
    args = SawtoothArgs(f_d=50.0, t_b=10.0e-9, phi=1.7)
    t = np.array([0.003, 0.0113, 0.0207])
    d = sawtooth(t + 1.0 / 50.0, args) - sawtooth(t, args)
    assert np.max(np.abs(d)) < 1.0e-20


def test_sawtooth_dither_shifts_ramp_position():
    args = SawtoothArgs(f_d=100.0, t_b=10.0e-9, phi=0.0)
    t = np.array([2.5e-3])
    base = sawtooth(t, args, amplitude=10.0e-9)
    shifted = sawtooth(t, args, delta_vec=1.0e-9, amplitude=10.0e-9)
    assert shifted[0] == pytest.approx(base[0] + 1.0e-9, abs=1e-21)


# ----------------------------------------------------------------------
# noise model
# ----------------------------------------------------------------------


def test_noise_sigma_composition(desk_noise):
    assert desk_noise.sigma_inner == pytest.approx(np.sqrt(6.0) * 1.0e-9)
    assert desk_noise.sigma_outer == pytest.approx(np.sqrt(5.0) * 1.0e-9)


def test_noise_draw_moments(desk_noise):
    inner, outer = draw_epoch_noise(10 ** 6, desk_noise,
                                    np.random.default_rng(42))
    # one-million-sample std estimates sit well inside 2 percent
    assert abs(inner.std() / desk_noise.sigma_inner - 1.0) < 0.02
    assert abs(outer.std() / desk_noise.sigma_outer - 1.0) < 0.02
    assert abs(np.corrcoef(inner, outer)[0, 1]) < 0.01


def test_noise_zero_sigma_still_consumes_stream():
    # stream alignment between noisy and noise-free runs relies on the
    # draws happening either way
    g1 = np.random.default_rng(5)
    draw_epoch_noise(100, NoiseParams(0.0, 0.0), g1)
    g2 = np.random.default_rng(5)
    draw_epoch_noise(100, NoiseParams(1e-9, 2e-9), g2)
    after1 = g1.integers(2 ** 32)
    after2 = g2.integers(2 ** 32)
    assert after1 == after2


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        NoiseParams(sigma_j=-1.0e-9, sigma_c=1.0e-9)


# ----------------------------------------------------------------------
# closed-form epochs
# ----------------------------------------------------------------------


def test_rtt_epoch_floor_is_delay_plus_round_trip(consts):
    args = SawtoothArgs(f_d=50.0, t_b=10.0e-9, phi=1.7)
    ep = epoch_model(0.0, 1000, 1.0e-4, args, 3.0, consts)
    resid = ep.y_vec - sawtooth(ep.t_vec, args)
    floor = consts.delta_0 + 2.0 * 3.0 / consts.c
    assert np.max(np.abs(resid - floor)) < 1.0e-20


def test_climex_epoch_reduces_to_rtt(consts, desk_noise):
    args = SawtoothArgs(f_d=313.7, t_b=10.0e-9, phi=0.9)
    # the plain round trip is the exchange with zero dither at the
    # responder's own period, which are the defaults
    ep_r = epoch_model(0.25, 500, 1.0e-4, args, 3.0, consts,
                       noise=desk_noise, rng=np.random.default_rng(9))
    ep_c = epoch_model(0.25, 500, 1.0e-4, args, 3.0, consts,
                       delta_vec=np.zeros(500), amplitude=args.t_b,
                       noise=desk_noise, rng=np.random.default_rng(9))
    assert np.array_equal(ep_r.y_vec, ep_c.y_vec)
    assert np.array_equal(ep_r.t_vec, ep_c.t_vec)


def test_epoch_models_validate_inputs(consts):
    args = SawtoothArgs(f_d=50.0, t_b=10.0e-9)
    with pytest.raises(ValueError):
        epoch_model(0.0, 0, 1.0e-4, args, 3.0, consts)
    with pytest.raises(ValueError):
        epoch_model(0.0, 10, 1.0e-4, args, -1.0, consts)
    with pytest.raises(ValueError):
        epoch_model(0.0, 10, 1.0e-4, args, 3.0, consts, amplitude=0.0)


def test_measurement_epoch_validation():
    ep = MeasurementEpoch(0.0, 1.0e-4, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(ep.t_vec, 1.0e-4 * np.arange(3.0))
    # the ping spacing is one positive, finite scalar
    for bad_t_m in (0.0, -1.0e-4, np.nan, np.inf, np.array([1.0e-4, 2.0e-4])):
        with pytest.raises(ValueError):
            MeasurementEpoch(0.0, bad_t_m, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        MeasurementEpoch(0.0, 1.0e-4, np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError):
        MeasurementEpoch(0.0, 1.0e-4, np.array([]))
    with pytest.raises(ValueError):
        MeasurementEpoch(0.0, 1.0e-4, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        MeasurementEpoch(0.0, 1.0e-4, np.ones((2, 2)))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ClockParams(f_hz=0.0)
    with pytest.raises(ValueError):
        SawtoothArgs(f_d=1.0, t_b=0.0)
    with pytest.raises(ValueError):
        ProtocolConstants(delta_0=-1.0e-9)
    with pytest.raises(ValueError):
        ProtocolConstants(a_scale=0.0)
    clk = ClockParams(f_hz=1.0e8)
    assert clk.period == 1.0e-8


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, field", [
    (lambda v: ClockParams(f_hz=v), "f_hz"),
    (lambda v: ClockParams(f_hz=1.0e8, theta_rad=v), "theta_rad"),
    (lambda v: NoiseParams(sigma_j=v), "sigma_j"),
    (lambda v: NoiseParams(sigma_c=v), "sigma_c"),
    (lambda v: ProtocolConstants(c=v), "c"),
    (lambda v: ProtocolConstants(f_nominal=v), "f_nominal"),
    (lambda v: ProtocolConstants(delta_0=v), "delta_0"),
    (lambda v: ProtocolConstants(a_scale=v), "a_scale"),
    (lambda v: ScenarioConfig(t_m=v), "t_m"),
    (lambda v: ScenarioConfig(rho_ab=v), "rho_ab"),
    (lambda v: BudgetInputs(f0_hz=v), "f0_hz"),
    (lambda v: BudgetInputs(ppm=v), "ppm"),
    (lambda v: BudgetInputs(f_step_hz=v), "f_step_hz"),
    (lambda v: BudgetInputs(f_d_min_hz=v), "f_d_min_hz"),
    (lambda v: BudgetInputs(f_d_max_hz=v), "f_d_max_hz"),
    (lambda v: BudgetInputs(phi_step_rad=v), "phi_step_rad"),
    (lambda v: BudgetInputs(rho_max_m=v), "rho_max_m"),
    (lambda v: BudgetInputs(rho_step_m=v), "rho_step_m"),
])
def test_parameter_records_refuse_fields_that_are_not_finite(make, field,
                                                             value):
    # each was accepted: ProtocolConstants(c=inf) fitted to nan without
    # complaint, and a nan passed every comparison of the other checks
    with pytest.raises(ValueError) as exc:
        make(value)
    assert str(exc.value) == f"{field} must be finite, got {value!r}"
