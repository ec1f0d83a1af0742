"""The exact elementwise kernels against their plain numpy references.

``fold`` on period 1, the Bluestein chirp angle, ``_norm_cdf`` and
``_smoothed_fold_mean`` are written for speed, with the claim that
they return the same floats as the straightforward expressions kept
below as references: ``np.mod`` for the fold, ``np.fmod`` for the chirp
angle (the chirp is the unit-circle table's phasors of that angle, its
kernel padded to ``scipy.fft.next_fast_len``), and the one-line
Abramowitz-Stegun CDF and smoothed mean.  The
property tests compare them bit for bit (nan payloads included), check
that the output dtype is the reference's and that no input array is
written to.  The last test pins four whole fits to ``float.hex``
values recorded from the reference kernels.
"""

import dataclasses

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from climex import estimators
from climex.adversary import (
    eve_estimate_rtt,
    eve_tdoa_epoch,
    make_oracle_plan,
    remeasure_epoch,
    robust_parameter_fit,
)
from climex.config import DEFAULTS, build_setup
from climex.estimators import (
    _Scratch,
    _bluestein,
    _norm_cdf,
    _smoothed_fold_mean,
    _unit_phasors,
    grid_search,
)
from climex.protocol_sim import replay_dither, run_exchange
from climex.signal_model import fold


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------


def _ref_fold(x, period):
    if period <= 0.0:
        raise ValueError("period must be positive")
    out = np.mod(x, period)
    if np.ndim(out) == 0:
        v = float(out)
        return 0.0 if v >= period else v
    out[out >= period] = 0.0
    return out


def _ref_chirp_angle(c, n, count):
    m2 = np.arange(max(n, count), dtype=float) ** 2
    c_hi = float(np.float32(c))
    return np.fmod(c_hi * m2, 2.0) + (c - c_hi) * m2


def _ref_bluestein(chirp, n, count):
    size = scipy.fft.next_fast_len(n + count - 1, real=False)
    kern = np.zeros(size, dtype=complex)
    kern[:count] = chirp[:count]
    kern[size - n + 1:] = chirp[n - 1:0:-1]
    return chirp[:n].conj(), np.fft.fft(kern, out=kern)


def _ref_norm_cdf(z):
    x = np.asarray(z, dtype=float) / np.sqrt(2.0)
    s = np.sign(x)
    x = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * x)
    poly = t * (0.254829592 + t * (-0.284496736 + t * (1.421413741
               + t * (-1.453152027 + t * 1.061405429))))
    erf = 1.0 - poly * np.exp(-x * x)
    return 0.5 * (1.0 + s * erf)


def _ref_smoothed_fold_mean(q, a, sigma):
    x = a * q
    if sigma <= 0.0:
        return float(x.mean())
    corr = a * (_ref_norm_cdf(-x / sigma) - _ref_norm_cdf((x - a) / sigma))
    return float((x + corr).mean())


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# ----------------------------------------------------------------------
# inputs: every float class
# ----------------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            -2.2250738585072014e-308, 2.0 ** 53, -(2.0 ** 53),
            2.0 ** 53 + 2.0, -(2.0 ** 52 + 0.5), 1e308, -1e308,
            1.7976931348623157e308, float("inf"), float("-inf"),
            float("nan"), -1e-18, -1e-300, 1.0 - 2.0 ** -53, -1.0, 1.0,
            0.5, -0.5]
with np.errstate(over="ignore"):
    _SPECIAL_F32 = np.array(_SPECIAL, dtype=np.float32)

_ANY_FLOAT64 = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(0, 2 ** 64 - 1).map(
        lambda b: np.array(b, dtype=np.uint64).view(np.float64).item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-1e6, 1e6))


@st.composite
def _fold_arrays(draw):
    kind = draw(st.sampled_from(["float64", "float32", "float16", "int64",
                                 "int32", "bool"]))
    if kind in ("float64", "float32", "float16"):
        vals = draw(st.lists(_ANY_FLOAT64, min_size=1, max_size=40))
        with np.errstate(over="ignore"):
            return np.array(vals).astype(kind)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=1,
                                      max_size=40)))
    info = np.iinfo(kind)
    vals = draw(st.lists(st.integers(int(info.min), int(info.max)),
                         min_size=1, max_size=40))
    return np.array(vals, dtype=kind)


@settings(max_examples=300, deadline=None)
@given(x=_fold_arrays(),
       period=st.one_of(st.just(1.0), st.floats(1e-9, 1e9)))
@example(x=np.array(_SPECIAL), period=1.0)
@example(x=_SPECIAL_F32, period=1.0)
@example(x=np.arange(-5, 5), period=1.0)
def test_fold_is_the_np_mod_fold_bit_for_bit(x, period):
    before = x.copy()
    with np.errstate(all="ignore"):
        want = _ref_fold(x.copy(), period)
        got = fold(x, period)
    assert _same_bits(got, want)
    assert _same_bits(x, before)
    # scalars and 0-d arrays stay on np.mod and come back as floats
    with np.errstate(all="ignore"):
        for v in x[:3]:
            for arg in (v.item(), np.asarray(v)):
                got_v, want_v = fold(arg, period), _ref_fold(arg, period)
                assert type(got_v) is type(want_v) is float
                assert np.float64(got_v).tobytes() == \
                    np.float64(want_v).tobytes()


def test_fold_is_the_np_mod_fold_on_random_bit_patterns():
    # every exponent and sign, each pattern equally likely: nan
    # payloads, subnormals and huge magnitudes all turn up; then values
    # within a few periods of zero, where the latch folds, for the
    # period-1 latch and periods of every scale, as arrays and as
    # Python float scalars
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    spread = rng.normal(size=50_000) * 10.0 ** rng.uniform(-20.0, 20.0,
                                                          50_000)
    near = rng.uniform(-1.5, 2.5, 50_000)
    for period in (1.0, 2.0 * np.pi, 1.0e-8, 0.75, 3.0e5, 2.0 ** -30):
        x = np.concatenate([bits.view(np.float64), _SPECIAL, spread,
                            near * period, -near * period * 1e-17])
        x.flags.writeable = False           # a write would raise
        with np.errstate(invalid="ignore"):
            assert _same_bits(fold(x, period), _ref_fold(x.copy(), period))
            for v in x[::97].tolist():
                got, want = fold(v, period), _ref_fold(v, period)
                assert type(got) is float and got.hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(c=st.one_of(st.just(0.0),
                   st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)),
       n=st.integers(2, 100_000),
       count=st.integers(1, 3000))
@example(c=1e-4, n=100_000, count=2001)        # 1 Hz steps, 10^5 pings
@example(c=1e-4 * (1 - 3.13e-6), n=10_000, count=2001)  # a listener's slope
@example(c=0.37, n=30_000, count=201)
@example(c=0.0, n=50, count=7)
def test_bluestein_chirp_is_the_table_chirp_of_the_fmod_angle(c, n, count):
    # chirp products c_hi m^2 up to m = 10^5, past the 2^29 where the
    # head product starts to round.  The reduced angle w is the fmod
    # reference's bit for bit; the chirp exp(i pi w) is the table's
    # _unit_phasors of w / 2, bit for bit, and within 3e-15 of the
    # complex exp of w reduced exactly to [-1, 1] (an exp of w itself
    # rounds pi w first, which costs up to ~1e-13 where the tail takes
    # |w| past 100)
    angles = []

    def unit_phasors(x, work):
        angles.append(x.copy())
        return _unit_phasors(x, work)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimators, "_unit_phasors", unit_phasors)
        got = _bluestein(c, n, count)
    w = _ref_chirp_angle(c, n, count)
    assert len(angles) == 1 and _same_bits(angles[0], 0.5 * w)
    table = _unit_phasors(0.5 * w, _Scratch())
    want = _ref_bluestein(table, n, count)
    assert _same_bits(got[0], want[0])
    assert _same_bits(got[1], want[1])
    exact = np.exp(1j * np.pi * (w - 2.0 * np.rint(0.5 * w)))
    assert np.abs(table - exact).max() <= 3e-15


_CDF_ARRAYS = st.one_of(
    st.lists(_ANY_FLOAT64, min_size=1, max_size=60).map(np.array),
    st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=60).map(
        lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-50, 50), min_size=1, max_size=60).map(np.array))


@settings(max_examples=300, deadline=None)
@given(z=_CDF_ARRAYS)
@example(z=np.array(_SPECIAL))
@example(z=np.linspace(-40.0, 40.0, 10_001))
def test_norm_cdf_is_the_one_line_cdf_bit_for_bit(z):
    before = z.copy()
    with np.errstate(all="ignore"):
        got = _norm_cdf(z, np.empty((4,) + z.shape))
        want = _ref_norm_cdf(z)
    assert _same_bits(got, want)
    assert _same_bits(z, before)


@settings(max_examples=200, deadline=None)
@given(q=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                  max_size=300).map(np.array),
       a=st.floats(1e-12, 1e-6),
       sigma_rel=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
def test_smoothed_fold_mean_is_the_one_line_mean_bit_for_bit(q, a,
                                                             sigma_rel):
    before = q.copy()
    sigma = sigma_rel * a
    got = _smoothed_fold_mean(q, a, sigma, _Scratch())
    want = _ref_smoothed_fold_mean(q, a, sigma)
    assert type(got) is float and got.hex() == want.hex()
    assert _same_bits(q, before)


# ----------------------------------------------------------------------
# whole fits, pinned
# ----------------------------------------------------------------------


def _epoch(setup):
    return run_exchange(setup.initiator, setup.responder, setup.scenario,
                        setup.consts, setup.noise, kind=setup.protocol)


def _plain_fit():
    s = build_setup(dict(DEFAULTS))
    epoch, _ = _epoch(s)
    return grid_search(epoch, s.consts, grid=s.grid), None


def _dithered_fit():
    s = build_setup(dict(DEFAULTS, protocol="climex"))
    epoch, _ = _epoch(s)
    return grid_search(epoch, s.consts, amplitude=s.consts.a_scale,
                       grid=s.grid,
                       delta_vec=replay_dither(s.scenario, s.consts)), None


def _oracle_attack_refit():
    s = build_setup(dict(DEFAULTS, n_pings=200, attack="oracle", attack_n=40,
                         rho_ae_m=3.5, sigma_j_s=1e-12, sigma_c_s=2e-12,
                         delta0_s=2e-8))
    _, log = _epoch(s)
    plan = make_oracle_plan(log, s.rho_ae, s.attack_n, rng=s.attack_seed)
    epoch, _ = remeasure_epoch(log, plan)
    est, keep = robust_parameter_fit(epoch, s.consts,
                                     amplitude=1.0 / s.consts.f_nominal,
                                     grid=s.grid, trim=s.detect_trim)
    return est, np.flatnonzero(~keep).tolist()


def _listener_fit():
    # the listener fits on its own least-squares comb slope
    s = build_setup(dict(DEFAULTS))
    _, log = _epoch(s)
    tap = eve_tdoa_epoch(log, s.rho_ae, s.rho_be, s.noise, 9000)
    return eve_estimate_rtt(tap, s.consts, grid=s.grid), None


_PINNED = {
    "plain_default_epoch": (_plain_fit, {
        "f_d_hat": "0x1.f400000000000p+8",
        "phi_hat": "0x1.e659a37a3b423p-5",
        "rho_hat": "0x1.7fe82fe8d13f1p+1",
        "cost": "0x1.aacae6ac70495p-43",
        "at_grid_edge": False}, None),
    "climex_with_replayed_dither": (_dithered_fit, {
        "f_d_hat": "0x1.f400000000000p+8",
        "phi_hat": "0x1.75767513a789ep-8",
        "rho_hat": "0x1.800bd49d0c2f2p+1",
        "cost": "0x1.ff9219422a392p-41",
        "at_grid_edge": False}, None),
    "oracle_attack_robust_refit": (_oracle_attack_refit, {
        "f_d_hat": "0x1.f400000000000p+8",
        "phi_hat": "0x1.88121d887d13cp+2",
        "rho_hat": "0x1.84a8c9e8820ffp+1",
        "cost": "0x1.dd591ce9ffa9dp-70",
        "at_grid_edge": False}, [29, 56, 62, 70, 85, 93, 135, 145, 153, 197]),
    "listener_on_a_slope_comb": (_listener_fit, {
        "t_m_hat": "0x1.a36dd8a827286p-14",
        "f_d_hat": "0x1.f400000000000p+8",
        "f_a_hat": "0x1.7d788e403dce4p+26",
        "f_b_hat": "0x1.7d7811403dce4p+26",
        "t_b_hat": "0x1.5799183ea72b1p-27",
        "phi_hat": "0x1.3ec71c5b7adbcp-5",
        "cost": "0x1.a3488f8f820eap-43"}, None),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_fit_is_pinned_bit_for_bit(case):
    fit, want, dropped = _PINNED[case]
    est, got_dropped = fit()
    got = {f.name: getattr(est, f.name) for f in dataclasses.fields(est)}
    assert {k: v.hex() if isinstance(v, float) else v
            for k, v in got.items()} == want
    assert got_dropped == dropped
