"""Config parsing and the command-line front end.

CLI tests call main() in-process and capture files written via --out,
which keeps them fast and lets exit codes be asserted directly.  Byte
determinism across whole processes is exercised separately in the
acceptance suite.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from climex import budget
from climex.cli import main
from climex.config import (
    ConfigError,
    DEFAULTS,
    build_setup,
    load_config,
    parse_config_text,
)


# ----------------------------------------------------------------------
# config file handling
# ----------------------------------------------------------------------


def test_parse_overrides_comments_and_blanks():
    text = """
# run shape
n_pings = 500

protocol = climex
sigma_j_s = 2e-9   # trailing comment
"""
    cfg = parse_config_text(text)
    assert cfg == {"n_pings": 500, "protocol": "climex", "sigma_j_s": 2e-9}


@pytest.mark.parametrize("text,fragment", [
    ("n_pings 500", "expected 'key = value'"),
    ("bogus_key = 1", "unknown key"),
    ("n_pings = 5\nn_pings = 6", "line 2: duplicate key"),
    ("n_pings =", "empty value"),
    ("protocol = quic", "must be one of"),
    ("n_pings = 2.5", "must be an integer"),
    ("sigma_j_s = abc", "must be a number"),
    ("tm_s = nan", "line 1: tm_s must be finite"),
    ("grid_df_hz = inf", "line 1: grid_df_hz must be finite"),
    ("n_pings = 5\ngrid_f_lo_hz = -Infinity", "line 2: grid_f_lo_hz must "
     "be finite"),
    ("sigma_j_s = NaN", "must be finite"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_load_config_defaults_and_missing_file(tmp_path):
    assert load_config(None) == DEFAULTS
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.cfg"))


def test_build_setup_rejects_bad_geometry():
    cfg = dict(DEFAULTS)
    cfg["rho_ab_m"] = -1.0
    with pytest.raises(ConfigError):
        build_setup(cfg)


def test_build_setup_rejects_aliased_grid():
    # the resultant repeats every 1 / tm_s = 1000 Hz in f: the default
    # +-1000 Hz grid holds alias ties there, a +-400 Hz grid does not
    cfg = dict(DEFAULTS, tm_s=1.0e-3)
    with pytest.raises(ConfigError, match="alias period"):
        build_setup(cfg)
    setup = build_setup(dict(cfg, grid_f_lo_hz=-400.0, grid_f_hi_hz=400.0))
    assert setup.grid.f_hi - setup.grid.f_lo < 1.0 / setup.scenario.t_m


def test_build_setup_wires_the_clocks():
    setup = build_setup(dict(DEFAULTS))
    assert setup.initiator.f_hz == pytest.approx(1.0e8 + 313.0)
    assert setup.responder.f_hz == pytest.approx(1.0e8 - 187.0)
    assert setup.protocol == "rtt"
    assert setup.scenario.n_pings == 10000


# ----------------------------------------------------------------------
# CLI commands
# ----------------------------------------------------------------------


def _lines(path):
    return path.read_text().splitlines()


def _kv(path):
    out = {}
    for ln in _lines(path):
        key, _, val = ln.partition(" = ")
        out[key] = val
    return out


def test_budget_command_reports_the_budget(tmp_path):
    out = tmp_path / "budget.txt"
    assert main(["budget", "--out", str(out)]) == 0
    got = _kv(out)
    rep = budget()
    assert got["n_freq_values"] == "1001"
    assert got["pair_count_exact"] == "999000"
    assert float(got["pair_count_area"]) == 998.0 ** 2
    assert got["bits_total_rounded"] == "38"
    assert float(got["log2_total_exact"]) == pytest.approx(rep.log2_total,
                                                           abs=1e-6)


def test_simulate_output_shape_and_determinism(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("n_pings = 300\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfgp), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfgp), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = _lines(a)
    assert lines[0] == "# protocol = rtt"
    assert lines[1] == "# seed = 12345"
    assert lines[2].startswith("# t_prime_s = ")
    assert lines[3] == "index,t_rel_s,rtt_s"
    assert len(lines) == 4 + 300
    assert lines[4].startswith("0,")


def test_seed_flag_overrides_config(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("n_pings = 300\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simulate", "--config", str(cfgp), "--out", str(a)])
    main(["simulate", "--config", str(cfgp), "--seed", "99",
          "--out", str(b)])
    assert _lines(b)[1] == "# seed = 99"
    assert a.read_bytes() != b.read_bytes()


def test_estimate_roundtrip_through_epoch_csv(tmp_path):
    # estimating from the written CSV must agree with the in-memory
    # path up to the file's 12-digit quantization
    epoch_csv = tmp_path / "epoch.csv"
    direct, via_file = tmp_path / "direct.txt", tmp_path / "file.txt"
    assert main(["simulate", "--out", str(epoch_csv)]) == 0
    assert main(["estimate", "--out", str(direct)]) == 0
    assert main(["estimate", "--in", str(epoch_csv),
                 "--out", str(via_file)]) == 0
    d, f = _kv(direct), _kv(via_file)
    assert d["at_grid_edge"] == f["at_grid_edge"] == "0"
    assert float(d["f_d_hat_hz"]) == float(f["f_d_hat_hz"])
    assert abs(float(d["rho_hat_m"]) - float(f["rho_hat_m"])) < 1e-6
    assert abs(float(d["phi_test_hat_rad"]) -
               float(f["phi_test_hat_rad"])) < 1e-4
    assert abs(float(d["f_d_hat_hz"]) - 500.0) < 0.2
    assert abs(float(d["rho_hat_m"]) - 3.0) < 0.05
    assert float(d["t_b_hat_s"]) == pytest.approx(1.0 / (1.0e8 - 187.0),
                                                  abs=1e-16)


def test_estimate_demodulates_recorded_protected_epoch(tmp_path):
    # the epoch CSV carries no dither column; the estimate command must
    # rebuild the draws from the seed or the beat comes out wrong
    cfgp = tmp_path / "prot.cfg"
    cfgp.write_text("protocol = climex\n")
    epoch_csv = tmp_path / "epoch.csv"
    out = tmp_path / "est.txt"
    assert main(["simulate", "--config", str(cfgp),
                 "--out", str(epoch_csv)]) == 0
    assert main(["estimate", "--config", str(cfgp), "--in", str(epoch_csv),
                 "--out", str(out)]) == 0
    got = _kv(out)
    assert abs(float(got["f_d_hat_hz"]) - 500.0) < 0.2
    assert abs(float(got["rho_hat_m"]) - 3.0) < 0.05


def test_estimate_rejects_malformed_epoch_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for text, where in (
            ("index,t_rel_s,rtt_s\n0,0.0,4.5e-8\n", "missing"),
            ("# t_prime_s = abc\nindex,t_rel_s,rtt_s\n0,0.0,4.5e-8\n",
             "line 1")):
        bad.write_text(text)
        assert main(["estimate", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and where in err


def test_estimate_refuses_epoch_csv_from_another_model(tmp_path, capsys):
    # the fit takes its model from the config, so a file written under
    # another protocol, or a climex file under another dither seed, was
    # fitted wrongly: -591.1 and -668.0 Hz for a +500 Hz beat, or a
    # zero-beat error
    climex = tmp_path / "climex.cfg"
    climex.write_text("protocol = climex\n")
    rtt_csv, climex_csv = tmp_path / "rtt.csv", tmp_path / "climex.csv"
    assert main(["simulate", "--out", str(rtt_csv)]) == 0
    assert main(["simulate", "--config", str(climex), "--out",
                 str(climex_csv)]) == 0
    for argv, fragments in (
            (["--in", str(climex_csv)], ("protocol = climex",
                                         "protocol = rtt")),
            (["--config", str(climex), "--in", str(rtt_csv)],
             ("protocol = rtt", "protocol = climex")),
            (["--config", str(climex), "--seed", "7", "--in",
              str(climex_csv)], ("seed = 12345", "seed = 7"))):
        capsys.readouterr()
        assert main(["estimate"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and argv[-1] in err
        assert all(f in err for f in fragments)
    # matching headers, and files without them, are fitted as before
    out = tmp_path / "est.txt"
    assert main(["estimate", "--config", str(climex), "--in",
                 str(climex_csv), "--out", str(out)]) == 0
    assert float(_kv(out)["f_d_hat_hz"]) == 500.0
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(ln for ln in _lines(climex_csv)
                              if not ln.startswith(("# protocol", "# seed")))
                    + "\n")
    assert main(["estimate", "--config", str(climex), "--seed", "7",
                 "--in", str(bare)]) == 0
    assert main(["estimate", "--in", str(bare)]) == 1


def test_estimate_refuses_aliased_epoch_csv(tmp_path, capsys):
    # recorded at tm_s = 1 ms under a +-400 Hz grid, fitted under the
    # default +-1 kHz grid: 500 Hz and -500 Hz are exact alias ties
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text("tm_s = 1e-3\nn_pings = 1000\n"
                      "grid_f_lo_hz = -400\ngrid_f_hi_hz = 400\n")
    epoch_csv = tmp_path / "epoch.csv"
    assert main(["simulate", "--config", str(narrow),
                 "--out", str(epoch_csv)]) == 0
    assert main(["estimate", "--in", str(epoch_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alias period" in err


def test_estimate_refuses_epoch_csv_off_the_ping_comb(tmp_path, capsys):
    cfgp = tmp_path / "short.cfg"
    cfgp.write_text("n_pings = 200\n")
    good = tmp_path / "epoch.csv"
    assert main(["simulate", "--config", str(cfgp), "--out", str(good)]) == 0
    assert main(["estimate", "--config", str(cfgp), "--in", str(good)]) == 0
    lines = good.read_text().splitlines()
    head = lines.index("index,t_rel_s,rtt_s")
    # one time 1 ns late: 2e-5 of its value, far past the written digits
    i, t, y = lines[head + 8].split(",")
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("\n".join(
        lines[:head + 8] + [f"{i},{float(t) + 1e-9:.12e},{y}"]
        + lines[head + 9:]) + "\n")
    one_row = tmp_path / "one_row.csv"
    one_row.write_text("\n".join(lines[:head + 2]) + "\n")
    capsys.readouterr()
    for bad in (shifted, one_row):
        assert main(["estimate", "--config", str(cfgp),
                     "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(bad) in err


@settings(max_examples=25, deadline=None)
@given(tm_s=st.floats(-6.0, -3.4).map(lambda x: 10.0 ** x),
       n_pings=st.integers(2, 2000))
# 1 / 30000 s has more significant digits than the file keeps
@example(tm_s=1.0 / 30000.0, n_pings=2000)
def test_simulate_estimate_roundtrip_over_ping_spacings(tmp_path_factory,
                                                        tm_s, n_pings):
    # any ping spacing (1 us to 0.4 ms) inside the default grid's alias
    # limit: the written times pass the comb check and the fit picks
    # the same beat as the in-memory epoch
    work = tmp_path_factory.mktemp("comb")
    cfgp = work / "run.cfg"
    cfgp.write_text(f"tm_s = {tm_s!r}\nn_pings = {n_pings}\n")
    epoch_csv = work / "epoch.csv"
    direct, via_file = work / "direct.txt", work / "file.txt"
    assert main(["simulate", "--config", str(cfgp),
                 "--out", str(epoch_csv)]) == 0
    assert main(["estimate", "--config", str(cfgp),
                 "--out", str(direct)]) == 0
    assert main(["estimate", "--config", str(cfgp), "--in", str(epoch_csv),
                 "--out", str(via_file)]) == 0
    d, f = _kv(direct), _kv(via_file)
    assert f["f_d_hat_hz"] == d["f_d_hat_hz"]
    assert f["at_grid_edge"] == d["at_grid_edge"]


def test_sweep_single_value_row(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--values", "500", "--trials", "1",
                 "--out", str(out)]) == 0
    lines = _lines(out)
    assert lines[0] == ("f_d_true_hz,trial,seed,f_d_err_hz,"
                        "phi_test_err_rad,rho_err_m,runtime_s")
    assert len(lines) == 2
    f_true, trial, seed, f_err, phi_err, rho_err, runtime = \
        lines[1].split(",")
    assert float(f_true) == 500.0
    assert (trial, seed) == ("0", "12345")
    assert abs(float(f_err)) < 0.5
    assert abs(float(phi_err)) < 0.1
    assert abs(float(rho_err)) < 0.02
    assert float(runtime) == 0.0


def test_sweep_rejects_bad_values_list(tmp_path):
    assert main(["sweep", "--values", "2,abc"]) == 2


def test_detect_random_injection_smoke(tmp_path):
    cfgp = tmp_path / "attack.cfg"
    cfgp.write_text("n_pings = 200\nattack = random\nattack_n = 40\n"
                    "rho_ae_m = 3.5\nsigma_j_s = 1e-12\nsigma_c_s = 2e-12\n"
                    "delta0_s = 2e-8\n")
    out = tmp_path / "detect.txt"
    resid = tmp_path / "resid.csv"
    assert main(["detect", "--config", str(cfgp), "--out", str(out),
                 "--residuals", str(resid)]) == 0
    got = _kv(out)
    assert got["n_pings"] == "200"
    assert got["n_attacked"] == "40"
    assert got["n_preempted"] == "40"
    assert int(got["true_positives"]) >= 38
    assert int(got["false_positives"]) <= 2
    rows = _lines(resid)
    assert rows[0] == "index,attacked,preempted,flagged,residual_s"
    assert len(rows) == 1 + 200
    attacked = sum(int(r.split(",")[1]) for r in rows[1:])
    assert attacked == 40


def test_detect_clean_run_reports_no_attack(tmp_path):
    cfgp = tmp_path / "clean.cfg"
    cfgp.write_text("n_pings = 200\n")
    out = tmp_path / "detect.txt"
    assert main(["detect", "--config", str(cfgp), "--out", str(out)]) == 0
    got = _kv(out)
    assert got["n_attacked"] == "0"
    assert got["n_preempted"] == "0"


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["estimate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    zero = tmp_path / "zero.cfg"
    zero.write_text("attack = random\nattack_n = 0\n")
    assert main(["detect", "--config", str(zero)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    # refused at parse time; a NaN ping spacing used to reach the
    # simulator and fail there with exit 1
    nan = tmp_path / "nan.cfg"
    nan.write_text("tm_s = nan\n")
    assert main(["simulate", "--config", str(nan)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be finite" in err


def test_runtime_errors_exit_1(tmp_path, capsys):
    cfgp = tmp_path / "short.cfg"
    cfgp.write_text("n_pings = 10\nattack = random\nattack_n = 5\n")
    assert main(["detect", "--config", str(cfgp)]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()
