"""Acceptance suite: one test per headline requirement, so a verbose
run prints one pass/fail line for each.

1. a noise-free round-trip epoch exposes the beat in an FFT and the
   responder period in the sample range, in under a second
2. estimation accuracy medians over a 20-value x 20-trial sweep at the
   reference noise point, in under ten minutes
3. the key-budget report carries the documented counts and logs
4. a passive listener reads plain round-trip traffic but not the
   dithered, amplitude-rescaled exchange
5. observables depend on shared secrets only through the beat, the
   responder period, and the path difference
6. the dithered exchange with the dither and rescaling switched off is
   bit-identical to the plain one, and the tick simulation matches the
   closed-form model
7. random-timing injections are flagged, a perfectly timed oracle
   forger stays inside the clean false-positive budget
8. every CLI command is byte-reproducible under a fixed seed
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import climex
from climex import (
    ClockParams,
    NoiseParams,
    ProtocolConstants,
    SawtoothArgs,
    ScenarioConfig,
    detect_outliers,
    epoch_model,
    eve_estimate_rtt,
    eve_tdoa_epoch,
    log_spaced_values,
    make_oracle_plan,
    make_random_timing_plan,
    measure_phi_test_local,
    remeasure_epoch,
    robust_parameter_fit,
    run_climex_epoch,
    run_rtt_epoch,
    run_sweep,
    sawtooth,
)
from climex.cli import main
from climex.config import DEFAULTS


def test_criterion_1_noise_free_fft_beat_and_period(clock_pair, scenario,
                                                    consts, zero_noise):
    t0 = time.perf_counter()
    for f_d in (500.3, -313.7):
        ini, res = clock_pair(f_d)
        ep, _ = run_rtt_epoch(ini, res, scenario(n_pings=10000, seed=4),
                              consts, zero_noise)
        dur = ep.t_vec[-1] - ep.t_vec[0]
        mag = np.abs(np.fft.rfft(ep.y_vec - ep.y_vec.mean()))
        k = int(np.argmax(mag[1:])) + 1
        assert abs(k / dur - abs(f_d)) <= 1.0 / dur
        assert abs(np.ptp(ep.y_vec) - res.period) < 0.01 * res.period
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_sweep_accuracy_medians():
    t0 = time.perf_counter()
    values = log_spaced_values(2.0, 1000.0, 20)
    rows = run_sweep(dict(DEFAULTS), values, 20)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 400
    assert np.median([abs(r.f_d_err) for r in rows]) <= 0.5
    assert np.median([abs(r.phi_test_err) for r in rows]) <= 0.1
    assert np.median([abs(r.rho_err) for r in rows]) <= 0.02
    assert elapsed < 600.0


def test_criterion_3_budget_report_values(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "budget.txt"
    assert main(["budget", "--out", str(out)]) == 0
    got = dict(ln.partition(" = ")[::2] for ln in
               out.read_text().splitlines())
    assert float(got["pair_count_area"]) == 998.0 ** 2
    assert got["pair_count_exact"] == "999000"
    assert abs(float(got["log2_pairs_exact"]) - 19.93) <= 0.01
    assert abs(float(got["log2_pairs_area"]) - 19.93) <= 0.01
    assert abs(float(got["log2_phi"]) - 5.97) <= 0.01
    assert abs(float(got["log2_rho"]) - 12.29) <= 0.01
    assert got["bits_total_rounded"] == "38"
    assert abs(float(got["log2_total_exact"]) - 38.0) <= 0.25
    assert time.perf_counter() - t0 < 1.0


def test_criterion_4_eavesdropper_contrast(clock_pair, scenario, consts,
                                           desk_noise):
    ini, res = clock_pair(500.0)
    rtt_f_err, rtt_tb_err, climex_f_err = [], [], []
    for s in range(50):
        cfg = scenario(n_pings=10000, seed=1000 + s)
        _, log = run_rtt_epoch(ini, res, cfg, consts, desk_noise)
        ep = eve_tdoa_epoch(log, 4.0, 2.5, desk_noise,
                            np.random.default_rng(9000 + s))
        est = eve_estimate_rtt(ep, consts)
        rtt_f_err.append(abs(est.f_d_hat - 500.0))
        rtt_tb_err.append(abs(est.t_b_hat - res.period))

        cfg_d = scenario(n_pings=10000, seed=1000 + s, dither="uniform")
        _, log_d = run_climex_epoch(ini, res, cfg_d, consts, desk_noise)
        ep_d = eve_tdoa_epoch(log_d, 4.0, 2.5, desk_noise,
                              np.random.default_rng(9500 + s))
        est_d = eve_estimate_rtt(ep_d, consts)
        climex_f_err.append(abs(est_d.f_d_hat - 500.0))

    med_rtt = float(np.median(rtt_f_err))
    med_climex = float(np.median(climex_f_err))
    assert med_climex >= 10.0 * med_rtt
    assert med_climex > 100.0
    assert med_rtt <= 0.5
    # plain traffic leaks the responder period to within one beat bin
    assert float(np.median(rtt_tb_err)) <= res.period ** 2


def test_criterion_5_shared_secret_equivalence_classes(clock_pair, scenario,
                                                       consts, zero_noise):
    # (a) different offset lotteries with the same beat and the same
    # responder period produce identical noise-free observations
    rng = np.random.default_rng(50)
    for _ in range(100):
        d = int(rng.integers(2, 1001)) * (1 if rng.random() < 0.5 else -1)
        a1 = int(rng.integers(-450, 451))
        a2 = int(rng.integers(-450, 451))
        f_d1 = float(a1) - float(a1 - d)
        f_d2 = float(a2) - float(a2 - d)
        t_b = 1.0 / (1.0e8 + rng.uniform(-500.0, 500.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        t_prime = rng.uniform(0.0, 1.0e-4)
        rho = rng.uniform(0.0, 50.0)
        args1 = SawtoothArgs(f_d=f_d1, t_b=t_b, phi=phi)
        args2 = SawtoothArgs(f_d=f_d2, t_b=t_b, phi=phi)
        e1 = epoch_model(t_prime, 200, 1.0e-4, args1, rho, consts)
        e2 = epoch_model(t_prime, 200, 1.0e-4, args2, rho, consts)
        assert np.array_equal(e1.y_vec, e2.y_vec)
        delta = rng.uniform(0.0, 1.0e-8, 200)
        g1 = epoch_model(t_prime, 200, 1.0e-4, args1, rho, consts,
                         delta_vec=delta, amplitude=consts.a_scale)
        g2 = epoch_model(t_prime, 200, 1.0e-4, args2, rho, consts,
                         delta_vec=delta, amplitude=consts.a_scale)
        assert np.array_equal(g1.y_vec, g2.y_vec)

    # (b) a noise-free listener's arrival differences depend on her
    # position only through rho_BE - rho_AE; offsets quantized to
    # 1/1024 m make equal differences exact in binary
    ini, res = clock_pair(500.0)
    for i in range(100):
        proto = run_rtt_epoch if i % 2 == 0 else run_climex_epoch
        kind = "none" if i % 2 == 0 else "uniform"
        _, log = proto(ini, res, scenario(n_pings=50, seed=100 + i,
                                          dither=kind), consts, zero_noise)
        diff = int(rng.integers(-2048, 2049)) / 1024.0
        ae1 = (2662 + int(rng.integers(0, 4096))) / 1024.0
        shift = int(rng.integers(1, 2049)) / 1024.0
        ae2 = ae1 + shift
        t1 = eve_tdoa_epoch(log, ae1, ae1 + diff, zero_noise,
                            np.random.default_rng(0))
        t2 = eve_tdoa_epoch(log, ae2, ae2 + diff, zero_noise,
                            np.random.default_rng(0))
        assert np.array_equal(t1.tdoa, t2.tdoa)


def test_criterion_6_protocol_reduction_and_closed_form(consts, desk_noise):
    rng = np.random.default_rng(60)

    def draw_pair():
        off_a = rng.uniform(-450.0, 450.0)
        f_d = rng.uniform(2.0, 1000.0) * (1 if rng.random() < 0.5 else -1)
        ini = ClockParams(f_hz=1.0e8 + off_a,
                          theta_rad=rng.uniform(0.0, 2.0 * np.pi))
        res = ClockParams(f_hz=ini.f_hz - f_d,
                          theta_rad=rng.uniform(0.0, 2.0 * np.pi))
        return ini, res

    # with zero dither and the reply rescaled to the responder's own
    # period the exchange collapses to the plain protocol, bit for bit
    for i in range(20):
        ini, res = draw_pair()
        native = ProtocolConstants(a_scale=res.period)
        cfg = ScenarioConfig(t_m=1.0e-4, n_pings=300,
                             rho_ab=rng.uniform(0.0, 30.0),
                             dither="none", seed=600 + i)
        ep_c, _ = run_climex_epoch(ini, res, cfg, native, desk_noise)
        ep_r, _ = run_rtt_epoch(ini, res, cfg, native, desk_noise)
        assert np.array_equal(ep_c.y_vec, ep_r.y_vec)
        assert np.array_equal(ep_c.t_vec, ep_r.t_vec)

    # the tick-level simulation agrees with the closed-form observation
    # model to a picosecond everywhere
    for i in range(100):
        ini, res = draw_pair()
        rho = rng.uniform(0.0, 30.0)
        use_climex = i % 2 == 1
        cfg = ScenarioConfig(
            t_m=1.0e-4, n_pings=int(rng.integers(100, 400)), rho_ab=rho,
            dither="uniform" if use_climex else "none",
            seed=700 + i)
        runner = run_climex_epoch if use_climex else run_rtt_epoch
        ep, log = runner(ini, res, cfg, consts, desk_noise)
        phi = measure_phi_test_local(res, log.t_prime + rho / consts.c)
        args = SawtoothArgs(f_d=ini.f_hz - res.f_hz, t_b=res.period, phi=phi)
        floor = consts.delta_0 + 2.0 * rho / consts.c
        if use_climex:
            y_hat = sawtooth(log.ping_nominal - log.t_prime, args,
                             delta_vec=log.delta, amplitude=log.amplitude,
                             noise_vec=log.noise_inner)
        else:
            y_hat = sawtooth(log.ping_emit - log.t_prime, args,
                             noise_vec=log.noise_inner)
        y_hat = y_hat + floor + log.noise_outer
        assert np.max(np.abs(ep.y_vec - y_hat)) <= 1.0e-12


def test_criterion_7_injection_detection_rates(clock_pair, scenario,
                                               pico_noise):
    consts7 = ProtocolConstants(delta_0=2.0e-8)
    amp = 1.0 / consts7.f_nominal
    ini, res = clock_pair(500.0)
    random_hit, oracle_hit, clean_fp = 0, 0, 0
    for s in range(100):
        ep, log = run_rtt_epoch(ini, res, scenario(n_pings=200, seed=s),
                                consts7, pico_noise)

        plan = make_random_timing_plan(log, 3.5, 40,
                                       np.random.default_rng(5000 + s))
        ep_a, won = remeasure_epoch(log, plan)
        assert won.sum() == 40
        est, _ = robust_parameter_fit(ep_a, consts7, amplitude=amp)
        flags, _ = detect_outliers(ep_a, est, consts7, amp, k=4.0)
        random_hit += int(np.any(flags & won))

        est_c, _ = robust_parameter_fit(ep, consts7, amplitude=amp)
        flags_c, _ = detect_outliers(ep, est_c, consts7, amp, k=4.0)
        clean_fp += int(np.any(flags_c))

        plan_o = make_oracle_plan(log, 3.5, 40,
                                  np.random.default_rng(5000 + s))
        ep_o, won_o = remeasure_epoch(log, plan_o)
        est_o, _ = robust_parameter_fit(ep_o, consts7, amplitude=amp)
        flags_o, _ = detect_outliers(ep_o, est_o, consts7, amp, k=4.0)
        oracle_hit += int(np.any(flags_o & won_o))

    assert random_hit >= 99
    assert clean_fp <= 5
    # a zero-lead forger is indistinguishable up to receive noise: it
    # may not trip the detector more often than clean traffic does
    assert oracle_hit <= 5


def test_criterion_8_cli_reproducibility(tmp_path):
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("n_pings = 2000\n")
    atk_cfg = tmp_path / "attack.cfg"
    atk_cfg.write_text("n_pings = 200\nattack = random\nattack_n = 40\n"
                       "rho_ae_m = 3.5\nsigma_j_s = 1e-12\n"
                       "sigma_c_s = 2e-12\ndelta0_s = 2e-8\n")
    commands = [
        ["budget"],
        ["simulate", "--config", str(run_cfg)],
        ["estimate", "--config", str(run_cfg)],
        ["sweep", "--values", "500", "--trials", "1"],
        ["detect", "--config", str(atk_cfg)],
    ]
    # The children run from tmp_path, so a relative PYTHONPATH entry
    # (such as `src`) would no longer resolve; lead with the absolute
    # directory holding the package this process imported.
    pkg_file = Path(climex.__file__).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pkg_file.parents[1])]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # a child must load this very copy, not a stale installed one
    r = subprocess.run([sys.executable, "-c",
                        "import climex; print(climex.__file__)"],
                       capture_output=True, cwd=str(tmp_path), env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert Path(r.stdout.decode().strip()).resolve() == pkg_file
    for cmd in commands:
        outs = []
        for _ in range(2):
            r = subprocess.run([sys.executable, "-m", "climex"] + cmd,
                               capture_output=True, cwd=str(tmp_path),
                               env=env)
            assert r.returncode == 0, r.stderr.decode()
            assert r.stderr == b""
            outs.append(r.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0]) > 0
