"""Config parsing and the command-line front end.

CLI tests call main() in-process and capture files written via --out,
which keeps them fast and lets exit codes be asserted directly.  Byte
determinism across whole processes is exercised separately in the
acceptance suite.
"""

import ast
import dataclasses
import importlib
import math
import re
import struct
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import climex
from climex import (
    BudgetInputs,
    NoiseParams,
    ProtocolConstants,
    ScenarioConfig,
    SearchGrid,
    SweepRow,
    budget,
    derive_key,
)
from climex import cli
from climex.cli import main
from climex.config import (
    ConfigError,
    DEFAULTS,
    RunSetup,
    build_setup,
    load_config,
    parse_config_text,
)
from climex.estimators import complete_estimate, phase_error
from climex.protocol_sim import (
    measure_phi_test_local,
    replay_dither,
    run_climex_epoch,
)
from climex.signal_model import MeasurementEpoch
from climex.sweep import log_spaced_values, run_sweep


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


def test_readme_key_table_names_every_config_key_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("| group | keys |\n", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`([a-z0-9_]+)`", table)
    assert sorted(named) == sorted(DEFAULTS)


def test_readme_quick_tour_runs_as_written(capsys):
    # the README's library code block, run as it stands: the dithered
    # epoch's fit prints the 500 Hz beat and the 3 m distance, then the
    # default budget's total
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    tour = readme.split("## Library quick tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```\n", 1)[0]
    exec(compile(code, "README.md quick tour", "exec"), {})
    fit, total = capsys.readouterr().out.splitlines()
    f_d, rho = (float(v) for v in fit.split())
    assert abs(f_d - 500.0) < 0.5 and abs(rho - 3.0) < 0.1
    assert abs(float(total) - 38.0) <= 0.25


def test_every_exported_name_resolves():
    # each module's __all__, and every name the package re-exports from
    # a module, which must also be in that module's __all__
    init = Path(climex.__file__)
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"climex.{node.module}")
            for alias in node.names:
                assert alias.name in mod.__all__, (node.module, alias.name)
                assert getattr(climex, alias.name) is getattr(mod,
                                                              alias.name)
    for path in init.parent.glob("*.py"):
        mod = importlib.import_module(f"climex.{path.stem}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (path.stem, name)


def test_build_setup_rejects_bad_geometry():
    cfg = dict(DEFAULTS)
    cfg["rho_ab_m"] = -1.0
    with pytest.raises(ConfigError):
        build_setup(cfg)


_NO_SEED = {k: v for k, v in DEFAULTS.items() if k != "seed"}


@pytest.mark.parametrize("cfg, message", [
    (dict(DEFAULTS, sigma_inner_s=1e-12), "unknown key 'sigma_inner_s' = "
     "1e-12"),
    (_NO_SEED, "missing key 'seed'"),
    (dict(DEFAULTS, protocol="climax"), "protocol must be one of rtt, "
     "climex, got 'climax'"),
    (dict(DEFAULTS, dither="gauss"), "dither must be one of none, uniform, "
     "got 'gauss'"),
    (dict(DEFAULTS, attack="forge"), "attack must be one of none, random, "
     "oracle, got 'forge'"),
    # each ran: a NaN check offset fitted phi_test_hat = nan unnamed
    (dict(DEFAULTS, t_test_offset_s=math.nan), "t_test_offset_s must be "
     "finite, got nan"),
    (dict(DEFAULTS, sigma_j_s=math.inf), "sigma_j_s must be finite, got inf"),
    (dict(DEFAULTS, rho_ae_m=math.nan), "rho_ae_m must be finite, got nan"),
    (dict(DEFAULTS, f0_hz=-math.inf), "f0_hz must be finite, got -inf"),
])
def test_build_setup_checks_its_dict(cfg, message):
    # a dict-built setup (the benchmark's and the tests') gets the file
    # path's key and choice checks, without its line numbers
    with pytest.raises(ConfigError) as err:
        build_setup(cfg)
    assert str(err.value) == message


def test_build_setup_takes_numpy_values():
    setup = build_setup(dict(DEFAULTS, seed=np.int64(7),
                             n_pings=np.int64(300), tm_s=np.float64(1e-4)))
    assert (setup.scenario.seed, setup.scenario.n_pings) == (7, 300)


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


def test_build_setup_reads_each_field_from_its_key():
    # the objects are built from key tables in field order: every field
    # must read its own key, here at values no other key shares
    cfg = dict(DEFAULTS, tm_s=2e-4, n_pings=300, rho_ab_m=4.5, t_start_s=1.5,
               dither="none", seed=9, c_mps=2.9e8, delta0_s=2e-8,
               a_scale_s=3e-8, sigma_j_s=1.5e-9, sigma_c_s=2.5e-9,
               grid_f_lo_hz=-900.0, grid_f_hi_hz=800.0, grid_df_hz=0.5,
               grid_refine=7, budget_ppm=12.0, budget_f_step_hz=0.5,
               budget_fd_min_hz=3.0, budget_fd_max_hz=900.0,
               budget_phi_step_rad=0.2, budget_rho_max_m=80.0,
               budget_rho_step_m=0.04)
    setup = build_setup(cfg)
    assert setup.scenario == ScenarioConfig(
        t_m=2e-4, n_pings=300, rho_ab=4.5, t_start=1.5, dither="none", seed=9)
    assert setup.consts == ProtocolConstants(c=2.9e8, f_nominal=1e8,
                                             delta_0=2e-8, a_scale=3e-8)
    assert setup.noise == NoiseParams(sigma_j=1.5e-9, sigma_c=2.5e-9)
    assert setup.grid == SearchGrid(f_lo=-900.0, f_hi=800.0, df=0.5,
                                    refine=7)
    assert setup.budget_inputs == BudgetInputs(
        f0_hz=1e8, ppm=12.0, f_step_hz=0.5, f_d_min_hz=3.0, f_d_max_hz=900.0,
        phi_step_rad=0.2, rho_max_m=80.0, rho_step_m=0.04)


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
    assert float(got["log2_total_exact"]) == pytest.approx(rep.log2_total_exact,
                                                           abs=1e-6)


def test_budget_follows_the_base_frequency(tmp_path):
    # the lottery is budget_ppm of f0_hz: 10 ppm of 2e8 Hz is 2001 offsets
    # at 1 Hz, and the setup's own clocks lie inside it and derive a key
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("f0_hz = 2e8\n")
    out = tmp_path / "budget.txt"
    assert main(["budget", "--config", str(cfgp), "--out", str(out)]) == 0
    assert _kv(out)["n_freq_values"] == "2001"
    setup = build_setup(load_config(str(cfgp)))
    key = derive_key(setup.initiator.f_hz, setup.responder.f_hz, 1.0,
                     setup.scenario.rho_ab, setup.budget_inputs)
    assert len(key) == budget(setup.budget_inputs).bits_total_floor


def test_budget_refuses_a_lottery_without_beats(tmp_path, capsys):
    # 10 ppm of 1e5 Hz is a 1 Hz lottery, 2 offsets, narrower than the
    # 2 Hz beat floor: budget exited 1 naming no key; a run needs no
    # budget, so simulate still takes the config
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("f0_hz = 1e5\n")
    assert main(["budget", "--config", str(cfgp)]) == 2
    assert capsys.readouterr().err == (
        "config error: no valid frequency pairs under these inputs: "
        "f0_hz = 100000.0, budget_ppm = 10.0, budget_f_step_hz = 1.0, "
        "budget_fd_min_hz = 2.0, budget_fd_max_hz = 1000.0, "
        "budget_phi_step_rad = 0.1, budget_rho_max_m = 100.0, "
        "budget_rho_step_m = 0.02\n")
    out = tmp_path / "epoch.csv"
    assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    assert len(_lines(out)) == 4 + 10_000


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
    # path up to the file's 12-digit quantization, also on the 200-ping
    # ps-noise epoch whose sample phases sit on a lattice (f_d t_m =
    # 1/20), where a discrete pick in the readout would flip with that
    # rounding
    cfgp = tmp_path / "run.cfg"
    epoch_csv = tmp_path / "epoch.csv"
    direct, via_file = tmp_path / "direct.txt", tmp_path / "file.txt"
    for text in ("", "n_pings = 200\nsigma_j_s = 1e-12\nsigma_c_s = 2e-12\n"
                     "delta0_s = 2e-8\ntheta_a_rad = 0.3\n"
                     "theta_b_rad = 1.1\n"):
        cfgp.write_text(text)
        config = ["--config", str(cfgp)]
        assert main(["simulate", "--out", str(epoch_csv)] + config) == 0
        assert main(["estimate", "--out", str(direct)] + config) == 0
        assert main(["estimate", "--in", str(epoch_csv),
                     "--out", str(via_file)] + config) == 0
        d, f = _kv(direct), _kv(via_file)
        assert d["at_grid_edge"] == f["at_grid_edge"] == "0"
        assert float(d["f_d_hat_hz"]) == float(f["f_d_hat_hz"])
        assert abs(float(d["rho_hat_m"]) - float(f["rho_hat_m"])) < 1e-6
        assert abs(float(d["phi_test_hat_rad"]) -
                   float(f["phi_test_hat_rad"])) < 1e-4
        assert abs(float(d["f_d_hat_hz"]) - 500.0) < 0.2
        assert abs(float(d["rho_hat_m"]) - 3.0) < 0.05
        assert float(d["t_b_hat_s"]) == pytest.approx(
            1.0 / (1.0e8 - 187.0), abs=1e-16)


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
    # a path that cannot be read: missing, or a directory
    for path in (tmp_path / "nope.csv", tmp_path):
        assert main(["estimate", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read epoch file {path}: ")


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
    # a climex fit replays n_pings dither draws, so a climex file of
    # another length is refused by its row count (it was an exit 1 that
    # named neither the file nor the key); rtt replays none
    for name, src, cfg, code in (("short_climex.csv", climex_csv, climex, 2),
                                 ("short_rtt.csv", rtt_csv, None, 0)):
        short = tmp_path / name
        short.write_text("\n".join(_lines(src)[:4 + 40]) + "\n")
        config = ["--config", str(cfg)] if cfg else []
        capsys.readouterr()
        assert main(["estimate", *config, "--in", str(short)]) == code
        if code:
            assert capsys.readouterr().err == (
                f"config error: {short}: 40 measurement rows, config has "
                f"n_pings = 10000\n")


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


# ----------------------------------------------------------------------
# table I/O against the per-row writer and per-line reader it replaced
# ----------------------------------------------------------------------


def _oracle_fmt(x):
    return format(float(x), ".12e")


def _oracle_simulate_text(setup, epoch):
    lines = [
        f"# protocol = {setup.protocol}",
        f"# seed = {setup.scenario.seed}",
        f"# t_prime_s = {_oracle_fmt(epoch.t_prime)}",
        "index,t_rel_s,rtt_s",
    ]
    lines.extend(f"{i},{_oracle_fmt(epoch.t_vec[i])},"
                 f"{_oracle_fmt(epoch.y_vec[i])}" for i in range(epoch.n))
    return "\n".join(lines) + "\n"


def _oracle_sweep_text(rows):
    lines = ["f_d_true_hz,trial,seed,f_d_err_hz,phi_test_err_rad,"
             "rho_err_m,runtime_s"]
    lines.extend(
        f"{_oracle_fmt(r.f_d_true)},{r.trial},{r.seed},"
        f"{_oracle_fmt(r.f_d_err)},{_oracle_fmt(r.phi_test_err)},"
        f"{_oracle_fmt(r.rho_err)},{_oracle_fmt(r.runtime)}" for r in rows)
    return "\n".join(lines) + "\n"


def _oracle_residuals_text(attacked, won, flags, resid):
    rows = ["index,attacked,preempted,flagged,residual_s"]
    rows.extend(
        f"{i},{int(attacked[i])},{int(won[i])},{int(flags[i])},"
        f"{_oracle_fmt(resid[i])}" for i in range(len(resid)))
    return "\n".join(rows) + "\n"


def _oracle_read_epoch_csv(path, setup):
    headers = {}
    t_rows, y_rows = [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read epoch file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("#").partition("=")
            headers[key.strip()] = (lineno, value.strip())
            continue
        if line.startswith("index,"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path} line {lineno}: expected 3 columns")
        try:
            t_rows.append(float(parts[1]))
            y_rows.append(float(parts[2]))
        except ValueError:
            raise ConfigError(f"{path} line {lineno}: bad number") from None
        if not (math.isfinite(y_rows[-1]) and y_rows[-1] >= 0.0):
            raise ConfigError(f"{path} line {lineno}: rtt_s must be finite "
                              f"and non-negative")
    if "t_prime_s" not in headers:
        raise ConfigError(f"{path}: missing '# t_prime_s = ...' header")
    lineno, value = headers["t_prime_s"]
    try:
        t_prime = float(value)
    except ValueError:
        raise ConfigError(f"{path} line {lineno}: bad t_prime_s "
                          f"value") from None
    checked = {"protocol": setup.protocol}
    if setup.protocol == "climex":
        checked["seed"] = str(setup.scenario.seed)
    for key, want in checked.items():
        if key in headers and headers[key][1] != want:
            raise ConfigError(f"{path}: epoch written with {key} = "
                              f"{headers[key][1]}, config has {key} = {want}")
    if len(t_rows) < 2:
        raise ConfigError(f"{path}: need at least two measurement rows")
    t_m = t_rows[1]
    comb = t_m * np.arange(len(t_rows), dtype=float)
    if not (t_m > 0.0 and np.all(np.abs(np.asarray(t_rows) - comb)
                                  <= cli._COMB_RTOL * comb)):
        raise ConfigError(f"{path}: time column is not a ping comb "
                          f"t_m * j, t_m = {t_rows[1]!r} from row 1")
    return MeasurementEpoch(t_prime=t_prime, t_m=t_m,
                            y_vec=np.asarray(y_rows))


def _bit_pattern_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_ANY_FLOAT64 = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(_bit_pattern_float))


@settings(max_examples=60, deadline=None)
@given(t_prime=_ANY_FLOAT64,
       cells=st.lists(st.tuples(_ANY_FLOAT64, _ANY_FLOAT64), max_size=40),
       ints=st.lists(st.integers(-2**63, 2**63), min_size=80, max_size=80))
def test_table_writers_match_per_row_writer(tmp_path_factory, t_prime,
                                            cells, ints):
    # the epoch and sweep CSVs, from stand-in data that may hold any
    # float64, equal the per-row f-string writer's text byte for byte
    work = tmp_path_factory.mktemp("writer")
    setup = build_setup(dict(DEFAULTS))
    t_vec = np.array([c[0] for c in cells], dtype=float)
    y_vec = np.array([c[1] for c in cells], dtype=float)
    epoch = SimpleNamespace(t_prime=t_prime, t_vec=t_vec, y_vec=y_vec,
                            n=len(cells))
    rows = [SweepRow(f_d_true=t, trial=ints[2 * i], seed=ints[2 * i + 1],
                     f_d_err=y, phi_test_err=-t, rho_err=y * 0.5,
                     runtime=t_prime) for i, (t, y) in enumerate(cells)]
    sim, sweep = work / "sim.csv", work / "sweep.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RunSetup, "run_epoch", lambda s: (epoch, None))
        mp.setattr(cli, "run_sweep", lambda *a, **k: rows)
        assert main(["simulate", "--out", str(sim)]) == 0
        assert main(["sweep", "--values", "500", "--trials", "1",
                     "--out", str(sweep)]) == 0
    assert sim.read_text() == _oracle_simulate_text(setup, epoch)
    assert sweep.read_text() == _oracle_sweep_text(rows)


def _near_halves(digits, exp):
    """The float nearest (D + 1/2) * 10^(e - 12), where ``%.12e`` rounds
    between D and D + 1, and the floats on either side of it."""
    x = float(Fraction(2 * digits + 1, 2) * Fraction(10) ** (exp - 12))
    return [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]


def _decade_edges(exp):
    """10^e and its neighbours, and the floats around the point where
    9.9999999999995 * 10^(e - 1) rounds up to 1.000000000000e+e."""
    x = float(Fraction(10) ** exp)
    return ([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
            + _near_halves(10 ** 13 - 1, exp - 1))


# the fast path's exponents run from -10 to 12; the exponents past them
# on either side go to the % format
_FAST_EXPS = range(-36, 38)

_INT64_EDGES = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 63 - 1, 10 ** 16,
                10 ** 4, 9999, 10, 9, 1, 0]
_INT64_EDGES += [-v for v in _INT64_EDGES] + [-2 ** 63]
_PAST_INT64 = [2 ** 63, -2 ** 63 - 1, 2 ** 64, -10 ** 30]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), x=_ANY_FLOAT64,
       digits=st.integers(10 ** 12, 10 ** 13 - 1),
       exp=st.sampled_from(_FAST_EXPS), i=st.integers(-2 ** 63, 2 ** 63 - 1),
       big=st.sampled_from(_PAST_INT64))
@example(seed=None, x=0.0, digits=0, exp=0, i=0, big=2 ** 63)
def test_cell_formatter_is_the_percent_format_bit_for_bit(
        tmp_path_factory, seed, x, digits, exp, i, big):
    # every float cell as _FLOAT % v and every int cell as "%d" % v: the
    # fast path's digits and exponents, its decade edges and near-half
    # cells, and each cell it leaves to the % format (negatives, zeros,
    # nan, inf, subnormals, exponents outside -10..12, M near a half or
    # rounding to 10^13, ints past int64)
    if seed is None:
        # every decade edge and near half at the ends of each exponent
        floats = [v for e in _FAST_EXPS for v in
                  _decade_edges(e) + _near_halves(10 ** 12, e)
                  + _near_halves(10 ** 13 - 2, e)]
        floats += [0.0, 9.9999999999995e-05, 5e-324, 2.2250738585072014e-308,
                   1e100, 9.99999999999995e99, 1e-100, math.nan, math.inf]
    else:
        rng = np.random.default_rng(seed)
        floats = [x] + _near_halves(digits, exp) + _decade_edges(exp)
        floats += [v for d, e in zip(rng.integers(10 ** 12, 10 ** 13, 50),
                                     rng.choice(_FAST_EXPS, 50))
                   for v in _near_halves(int(d), int(e))]
        # random bit patterns, and magnitudes spread over 10^+-40
        floats += rng.integers(0, 2 ** 64, 200, dtype=np.uint64,
                               endpoint=False).view(np.float64).tolist()
        floats += (10.0 ** rng.uniform(-40.0, 40.0, 400)).tolist()
    floats += [-v for v in floats]
    n = len(floats)
    rng = np.random.default_rng(0 if seed is None else seed)
    ints = np.concatenate([_INT64_EDGES, [i],
                           rng.integers(-2 ** 63, 2 ** 63, n, dtype=np.int64,
                                        endpoint=False),
                           rng.integers(-10 ** 5, 10 ** 5, n)])[:n]
    python_ints = (_PAST_INT64 + [big, i] + ints.tolist())[:n]
    flags = rng.random(n) < 0.5
    out = tmp_path_factory.mktemp("cells") / "cells.csv"
    cli._write_table(["h"], (cli._FLOAT, "%d", "%d", "%d", cli._FLOAT),
                     [np.array(floats), ints, python_ints, flags,
                      floats[::-1]], str(out))
    want = "h\n" + "".join(
        f"{cli._FLOAT % f},{d:d},{b:d},{g:d},{cli._FLOAT % r}\n"
        for f, d, b, g, r in zip(floats, ints.tolist(), python_ints,
                                 flags.tolist(), floats[::-1]))
    assert out.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_cell_formatter_holds_with_an_exponent_estimate_one_off(
        tmp_path, monkeypatch, shift):
    # the fast path vouches for a cell only while M lands in
    # [10^12, 10^13), so an exponent estimate a decade off sends a cell
    # to the fallback or to M = 10^12 from below, never to wrong digits
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    floats = [v for e in _FAST_EXPS for v in _decade_edges(e)]
    floats += (10.0 ** np.random.default_rng(5).uniform(-9.0, 30.0, 300)
               ).tolist()
    out = tmp_path / "cells.csv"
    cli._write_table([], (cli._FLOAT,), [floats], str(out))
    assert out.read_text() == "\n" + "".join(f"{cli._FLOAT % v}\n"
                                             for v in floats)


# a cell as the byte path takes it: simulate's layout, with an exponent
# from -10 to 12
_BYTE_PATH_CELL = re.compile(r"[0-9]\.[0-9]{12}e(\+(0[0-9]|1[0-2])|-(0[0-9]|10))")


@settings(max_examples=100, deadline=None)
@given(x=_ANY_FLOAT64, digits=st.integers(10 ** 12, 10 ** 13 - 1),
       exp=st.sampled_from(_FAST_EXPS))
@example(x=0.0, digits=None, exp=None)
def test_cell_reader_is_float_bit_for_bit(x, digits, exp):
    # the reader's twin of the cell formatter test: of the cells
    # _FLOAT % v writes, the byte path takes exactly those in its layout
    # and exponent window, each as float(cell) bit for bit, and sends
    # the file of any other cell to the line reader
    if digits is None:
        # every decade edge and near half at the ends of each exponent
        floats = [v for e in _FAST_EXPS for v in
                  _decade_edges(e) + _near_halves(10 ** 12, e)
                  + _near_halves(10 ** 13 - 2, e)]
    else:
        floats = [x] + _near_halves(digits, exp) + _decade_edges(exp)
    floats += [-v for v in floats] + [0.0]
    head = "# t_prime_s = 0\nindex,t_rel_s,rtt_s\n"
    taken = []
    for cell in (cli._FLOAT % v for v in floats):
        bulk = cli._bulk_rows(f"{head}0,{cell},{cell}\n")
        assert (bulk is not None) == bool(_BYTE_PATH_CELL.fullmatch(cell))
        if bulk is not None:
            assert float(bulk[1][0]).hex() == float(cell).hex()
            assert float(bulk[2][0]).hex() == float(cell).hex()
            taken.append(cell)
    # the cells taken, in both columns of one file of three parse chunks
    times = [taken[j % len(taken)] for j in range(2 * cli._WRITE_CHUNK + 1)]
    rtts = times[::-1]
    _, t_col, y_col = cli._bulk_rows(head + "".join(
        f"{j},{t},{y}\n" for j, (t, y) in enumerate(zip(times, rtts))))
    assert t_col.tobytes() == np.array([float(c) for c in times]).tobytes()
    assert y_col.tobytes() == np.array([float(c) for c in rtts]).tobytes()


def _recording(monkeypatch, name, owner=cli):
    """Wrap owner.<name> (a function of cli by default, or a method) so
    that each call's result is kept."""
    real, seen = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return seen


@pytest.mark.parametrize("n_pings", [cli._WRITE_CHUNK - 1, cli._WRITE_CHUNK,
                                     cli._WRITE_CHUNK + 1, 10000])
def test_simulate_csv_matches_per_row_writer(tmp_path, monkeypatch, n_pings):
    # the writer's chunk edges and the default 10^4-ping epoch, on a
    # simulated epoch's own numbers
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(f"n_pings = {n_pings}\n")
    epochs = _recording(monkeypatch, "run_epoch", RunSetup)
    out = tmp_path / "epoch.csv"
    assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    setup = build_setup(load_config(str(cfgp)))
    assert out.read_text() == _oracle_simulate_text(setup, epochs[0][0])


@pytest.mark.parametrize("protocol", ["rtt", "climex"])
def test_default_epoch_cells_take_the_fast_path(tmp_path, monkeypatch,
                                                protocol):
    # the byte-identity tests cannot see a cell drift to the slower %
    # format: the default 10^4-ping epoch leaves it no index cell and at
    # most 20 of its 2 * 10^4 time and rtt cells (8 under rtt at seed
    # 12345: the cell t = 0 and seven M near a half)
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text(f"protocol = {protocol}\n")
    ints = _recording(monkeypatch, "_int_cells")
    floats = _recording(monkeypatch, "_float_cells")
    assert main(["simulate", "--config", str(cfgp), "--out",
                 str(tmp_path / "epoch.csv")]) == 0
    assert sum(left.size for _, left in ints) == 10000
    assert sum(int(left.sum()) for _, left in ints) == 0
    assert sum(left.size for _, left in floats) == 20000
    assert sum(int(left.sum()) for _, left in floats) <= 20


def test_residual_csv_matches_per_row_writer(tmp_path, monkeypatch):
    # ps noise puts the residuals near 1e-11, below the fast path's
    # exponents; ns noise near 1e-9, inside them, over two chunks; the
    # negative residuals of both go to the % format
    cfgp = tmp_path / "attack.cfg"
    for text in ("n_pings = 200\nattack = random\nattack_n = 40\n"
                 "rho_ae_m = 3.5\nsigma_j_s = 1e-12\nsigma_c_s = 2e-12\n"
                 "delta0_s = 2e-8\n",
                 f"n_pings = {cli._WRITE_CHUNK + 1}\nattack = random\n"
                 f"attack_n = 40\n"):
        cfgp.write_text(text)
        plans = _recording(monkeypatch, "make_random_timing_plan")
        remeasured = _recording(monkeypatch, "remeasure_epoch")
        detected = _recording(monkeypatch, "detect_outliers")
        resid_csv = tmp_path / "resid.csv"
        assert main(["detect", "--config", str(cfgp), "--out",
                     str(tmp_path / "detect.txt"), "--residuals",
                     str(resid_csv)]) == 0
        (_, won), (flags, resid) = remeasured[0], detected[0]
        assert (resid < 0.0).any() and (resid > 0.0).any()
        attacked = np.zeros(resid.size, dtype=bool)
        attacked[plans[0].indices] = True
        assert resid_csv.read_text() == _oracle_residuals_text(
            attacked, won, flags, resid)
        monkeypatch.undo()


def _small_epoch_lines(tmp_path, n_pings):
    cfgp = tmp_path / f"n{n_pings}.cfg"
    cfgp.write_text(f"n_pings = {n_pings}\n")
    src = tmp_path / f"n{n_pings}.csv"
    assert main(["simulate", "--config", str(cfgp), "--out", str(src)]) == 0
    return str(cfgp), src.read_text().splitlines()


def _edit_cell(line, col, text):
    cells = line.split(",")
    cells[col] = text
    return ",".join(cells)


def _shortened(line):
    """The row ``line`` with its time and rtt cells in their shortest
    repr, so shorter than the 38-byte tail of a written row."""
    index, t, y = line.split(",")
    return f"{index},{float(t)!r},{float(y)!r}"


# rows parsed per chunk by the byte path, and the first row of its
# second chunk, counted in the lines of a simulated epoch file
_W = cli._WRITE_CHUNK
_SECOND_CHUNK = 4 + _W

# each case edits the lines of a simulated epoch file (3 header lines,
# the column names, then the rows); the 1200-row file is one of the
# byte path's parse chunks, the 2 * _WRITE_CHUNK + 1-row file three
_READER_CASES = {
    "as_written": (40, lambda ls: ls),
    "blank_lines": (40, lambda ls: ["", "  "] + ls[:10] + ["", "\t"]
                    + ls[10:] + [""]),
    "headers_after_body": (40, lambda ls: ls[3:] + ls[:3]),
    "repeated_header_last_wins": (40, lambda ls: ls + ["# t_prime_s = 2.5"]),
    "indented_header_and_index_line": (
        40, lambda ls: ["  " + ls[0], "\t" + ls[2]] + ls[3:20] + ["index,x"]
        + ls[20:]),
    "spaces_around_cells": (40, lambda ls: ls[:4] + [
        " " + ln.replace(",", " , ") + " \u2003" for ln in ls[4:]]),
    "underscore_digits": (40, lambda ls: ls[:5] + [
        _edit_cell(ls[5], 1, "1_0.0e-5"),
        _edit_cell(ls[6], 2, ls[6].split(",")[2].replace("e", "_0e"))]
        + ls[7:]),
    "full_width_digits": (40, lambda ls: ls[:7] + [
        "\uff17" + ls[7][1:],
        _edit_cell(ls[8], 2, ls[8].split(",")[2].translate(
            {ord(c): 0xFF10 + int(c) for c in "0123456789"}))] + ls[9:]),
    "non_numeric_index": (40, lambda ls: ls[:4] + [
        _edit_cell(ln, 0, "row") for ln in ls[4:]]),
    "nan_value": (40, lambda ls: ls[:9] + [_edit_cell(ls[9], 2, "nan")]
                  + ls[10:]),
    "bad_cell": (40, lambda ls: ls[:12] + [_edit_cell(ls[12], 2, "4.5e-8x")]
                 + ls[13:]),
    "inf_value_before_bad_cell": (40, lambda ls: ls[:9] + [
        _edit_cell(ls[9], 2, "inf")] + ls[10:12]
        + [_edit_cell(ls[12], 2, "4.5e-8x")] + ls[13:]),
    "negative_value_in_a_later_chunk": (1200, lambda ls: ls[:900] + [
        _edit_cell(ls[900], 2, "-1e-9")] + ls[901:]),
    "bad_time_cell_after_blanks": (1200, lambda ls: ls[:300] + ["", "#"]
                                   + ls[300:1100]
                                   + [_edit_cell(ls[1100], 1, "abc")]
                                   + ls[1101:]),
    "two_columns": (1200, lambda ls: ls[:700] + [ls[700].rsplit(",", 1)[0]]
                    + ls[701:]),
    "four_columns": (40, lambda ls: ls[:20] + [ls[20] + ",0"] + ls[21:]),
    "two_then_four_columns": (1200, lambda ls: ls[:600] + [
        ls[600].rsplit(",", 1)[0], ls[601] + ",7"] + ls[602:]),
    "empty_cell": (40, lambda ls: ls[:4] + [ls[4][:-1] + ","] + ls[5:]),
    "bad_row_before_missing_header": (40, lambda ls: ls[:2] + ls[3:15]
                                      + ["1,2,3,4"] + ls[15:]),
    # lines of three cells that parse, in simulate's layout otherwise,
    # that are no rows, and a line of spaces in a later parse chunk
    "header_of_three_numbers_in_body": (40, lambda ls: ls[:20]
                                        + ["# note = 1,2e-8,3e-8"] + ls[20:]),
    "indented_index_line_in_body": (40, lambda ls: ls[:20]
                                    + [" index,1e-4,2e-8"] + ls[20:]),
    "whitespace_only_line_in_body": (1200, lambda ls: ls[:800] + ["   "]
                                     + ls[800:]),
    "four_columns_on_the_last_row": (40, lambda ls: ls[:-1]
                                     + [ls[-1] + ",0"]),
    "no_index_line": (40, lambda ls: ls[:3] + ls[4:]),
    # the byte path's own edges: index cells that are not digits only
    # (\x0c splits a line for splitlines, not for a newline scan) or are
    # empty, cells outside the writer's layout or its exponent window,
    # rows shorter than a written row's tail, bytes outside ASCII, and
    # the chunk edges
    "letter_in_index": (40, lambda ls: ls[:10] + [_edit_cell(ls[10], 0, "6x")]
                        + ls[11:]),
    "sign_in_index": (40, lambda ls: ls[:10] + [_edit_cell(ls[10], 0, "+6")]
                      + ls[11:]),
    "hash_in_index": (40, lambda ls: ls[:10] + [_edit_cell(ls[10], 0, "6#")]
                      + ls[11:]),
    "form_feed_in_index": (40, lambda ls: ls[:10] + [
        _edit_cell(ls[10], 0, "6\x0c6")] + ls[11:]),
    "empty_index": (40, lambda ls: ls[:4] + [_edit_cell(ls[4], 0, "")]
                    + ls[5:10] + [_edit_cell(ls[10], 0, "")] + ls[11:]),
    "fourteen_digit_cell": (40, lambda ls: ls[:10] + [_edit_cell(
        ls[10], 2, ls[10].split(",")[2].replace("e", "3e"))] + ls[11:]),
    "upper_case_exponent": (40, lambda ls: ls[:10] + [_edit_cell(
        ls[10], 1, ls[10].split(",")[1].replace("e", "E"))] + ls[11:]),
    "comma_for_exponent_sign": (40, lambda ls: ls[:10] + [_edit_cell(
        ls[10], 2, ls[10].split(",")[2].replace("e-", "e,"))] + ls[11:]),
    "rtt_below_the_exponent_window": (40, lambda ls: ls[:10] + [
        _edit_cell(ls[10], 2, "5.000000000000e-11")] + ls[11:]),
    "no_final_newline": (40, lambda ls: ls),
    "headers_only_no_final_newline": (40, lambda ls: ls[:3]),
    "short_first_row": (40, lambda ls: ls[:4] + [_shortened(ls[4])] + ls[5:]),
    "short_row_in_body": (40, lambda ls: ls[:20] + [_shortened(ls[20])]
                          + ls[21:]),
    "form_feed_in_header": (40, lambda ls: ls[:3]
                            + ["# note = 1\x0c# t_prime_s = 2.5"] + ls[3:]),
    "non_ascii_header": (40, lambda ls: ls[:1] + ["# note = caf\u00e9"]
                         + ls[1:]),
    "non_ascii_index": (40, lambda ls: ls[:10] + [
        _edit_cell(ls[10], 0, "6\u00e9")] + ls[11:]),
    "as_written_over_three_chunks": (2 * _W + 1, lambda ls: ls),
    "short_row_starting_a_later_chunk": (2 * _W + 1, lambda ls: (
        ls[:_SECOND_CHUNK] + [_shortened(ls[_SECOND_CHUNK])]
        + ls[_SECOND_CHUNK + 1:])),
    "letter_in_a_later_chunk": (2 * _W + 1, lambda ls: (
        ls[:_SECOND_CHUNK + 5] + [_edit_cell(ls[_SECOND_CHUNK + 5], 0, "x")]
        + ls[_SECOND_CHUNK + 6:])),
    "rtt_below_the_window_on_a_one_row_chunk": (2 * _W + 1, lambda ls: (
        ls[:-1] + [_edit_cell(ls[-1], 2, "5.000000000000e-11")])),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_epoch_reader_matches_per_line_reader(tmp_path, monkeypatch, capsys,
                                              case, newline):
    n_pings, edit = _READER_CASES[case]
    cfgp, lines = _small_epoch_lines(tmp_path, n_pings)
    path = tmp_path / "case.csv"
    end = "" if case.endswith("no_final_newline") else newline
    path.write_bytes((newline.join(edit(lines)) + end).encode("utf-8"))
    setup = build_setup(load_config(cfgp))
    try:
        want = _oracle_read_epoch_csv(str(path), setup)
    except (ConfigError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            cli._read_epoch_csv(str(path), setup)
        assert str(got.value) == str(exc)
    else:
        got = cli._read_epoch_csv(str(path), setup)
        assert float(got.t_m).hex() == float(want.t_m).hex()
        assert float(got.t_prime).hex() == float(want.t_prime).hex()
        assert got.y_vec.dtype == want.y_vec.dtype
        assert got.y_vec.tobytes() == want.y_vec.tobytes()
    # the whole command: the same exit code, message and output
    runs = []
    for reader in (cli._read_epoch_csv, _oracle_read_epoch_csv):
        monkeypatch.setattr(cli, "_read_epoch_csv", reader)
        out = tmp_path / "est.txt"
        out.unlink(missing_ok=True)
        code = main(["estimate", "--config", cfgp, "--in", str(path),
                     "--out", str(out)])
        runs.append((code, capsys.readouterr().err,
                     out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("config", ["n_pings = 40", "n_pings = 1200", "",
                                    "protocol = climex"])
def test_simulate_epoch_files_take_the_bulk_read(tmp_path, config):
    # the line reader gives the same epoch, slower: simulate's own
    # files are read in bulk, of one parse chunk or of several, the
    # default 10^4-row file (the benchmark's) five
    cfgp, out = tmp_path / "run.cfg", tmp_path / "epoch.csv"
    cfgp.write_text(config + "\n")
    assert main(["simulate", "--config", str(cfgp), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    n_pings = build_setup(load_config(str(cfgp))).scenario.n_pings
    head, t_col, y_col = cli._bulk_rows(text)
    headers, t_lines, y_lines = cli._read_lines(str(out), text.splitlines())
    assert (len(head), t_col.size) == (3, n_pings)
    assert cli._read_lines(str(out), head)[0] == headers
    assert t_col.tobytes() == t_lines.tobytes()
    assert y_col.tobytes() == y_lines.tobytes()


def test_estimate_names_the_line_of_a_bad_row(tmp_path, capsys):
    # the two row refusals, each with exit 2 and the file's line number
    cfgp, lines = _small_epoch_lines(tmp_path, 40)
    bad = tmp_path / "bad.csv"
    for edited, message in (
            (lines[:10] + [_edit_cell(lines[10], 2, "4.5e-8?")] + lines[11:],
             "line 11: bad number"),
            (lines[:10] + ["", lines[10] + ",1"] + lines[11:],
             "line 12: expected 3 columns"),
            (lines[:10] + [lines[10].rsplit(",", 1)[0]] + lines[11:],
             "line 11: expected 3 columns")):
        bad.write_text("\n".join(edited) + "\n")
        assert main(["estimate", "--config", cfgp, "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{bad} {message}" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_estimate_refuses_a_non_finite_or_negative_rtt(tmp_path, capsys,
                                                       value):
    # a measurement is finite and non-negative: a file that says
    # otherwise is refused like any other malformed row (exit 1 with
    # MeasurementEpoch's message, naming neither file nor line, before)
    cfgp, lines = _small_epoch_lines(tmp_path, 40)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:9] + ["", _edit_cell(lines[9], 2, value)]
                             + lines[10:]) + "\n")
    assert main(["estimate", "--config", cfgp, "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {bad} line 11: rtt_s must be finite "
                   f"and non-negative\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_refuses_a_non_finite_epoch_timestamp(tmp_path, capsys,
                                                       value):
    # float() parses these, and the fit printed phi_test_hat_rad = nan
    # and t_test_s = nan with exit 0 before
    cfgp, lines = _small_epoch_lines(tmp_path, 40)
    assert lines[2].startswith("# t_prime_s = ")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:2] + [f"# t_prime_s = {value}"]
                             + lines[3:]) + "\n")
    assert main(["estimate", "--config", cfgp, "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {bad} line 3: t_prime_s must be finite, "
                   f"got {value!r}\n")


def test_sweep_timing_fills_only_the_runtime_column(tmp_path):
    # --timing times each fit; every other cell is the untimed run's
    runs = []
    for flag in ([], ["--timing"]):
        out = tmp_path / f"sweep{len(flag)}.csv"
        assert main(["sweep", "--values", "20,500", "--trials", "2",
                     "--out", str(out)] + flag) == 0
        runs.append([ln.rsplit(",", 1) for ln in _lines(out)])
    plain, timed = runs
    assert [cells[0] for cells in timed] == [cells[0] for cells in plain]
    assert [cells[1] for cells in plain[1:]] == ["0.000000000000e+00"] * 4
    runtimes = [float(cells[1]) for cells in timed[1:]]
    assert all(math.isfinite(r) and r > 0.0 for r in runtimes)


def test_sweep_single_value_row(tmp_path):
    # one log-spaced value is --lo itself: the same row
    out, lone = tmp_path / "sweep.csv", tmp_path / "lone.csv"
    assert main(["sweep", "--values", "500", "--trials", "1",
                 "--out", str(out)]) == 0
    assert main(["sweep", "--lo", "500", "--n-values", "1", "--trials", "1",
                 "--out", str(lone)]) == 0
    assert lone.read_bytes() == out.read_bytes()
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


def test_sweep_fits_the_configured_protocol():
    # a climex row is the protected exchange fitted with the public
    # amplitude and the replayed dither, as if wired by hand; the sweep
    # ran the plain exchange whatever the protocol, giving the rtt row
    cfg = dict(DEFAULTS, protocol="climex")
    row, = run_sweep(cfg, [500.0], 1)
    setup = build_setup(dict(cfg, offset_b_hz=cfg["offset_a_hz"] - 500.0))
    epoch, _ = run_climex_epoch(setup.initiator, setup.responder,
                                setup.scenario, setup.consts, setup.noise)
    t_test = epoch.t_prime + setup.t_test_offset
    ce = complete_estimate(
        epoch, setup.initiator.f_hz, setup.consts, grid=setup.grid,
        amplitude=setup.consts.a_scale,
        delta_vec=replay_dither(setup.scenario, setup.consts), t_test=t_test)
    f_d_true = setup.initiator.f_hz - setup.responder.f_hz
    want = SweepRow(
        f_d_true=f_d_true, trial=0, seed=cfg["seed"],
        f_d_err=ce.estimate.f_d_hat - f_d_true,
        phi_test_err=phase_error(
            ce.phi_test_hat, measure_phi_test_local(setup.responder, t_test)),
        rho_err=ce.estimate.rho_hat - setup.scenario.rho_ab, runtime=0.0)

    def bits(r):
        return [v.hex() if isinstance(v, float) else v
                for v in dataclasses.astuple(r)]

    assert bits(row) == bits(want)
    rtt_row, = run_sweep(dict(cfg, protocol="rtt"), [500.0], 1)
    assert bits(rtt_row) != bits(row)
    assert abs(row.f_d_err) < 0.5 and abs(row.rho_err) < 0.02


def test_sweep_rejects_bad_values_list(tmp_path):
    assert main(["sweep", "--values", "2,abc"]) == 2


@pytest.mark.parametrize("argv", [
    ["--trials", "0"],
    ["--values", "500", "--trials", "0"],
    ["--n-values", "0"],
    ["--lo", "0"],
    ["--lo", "10", "--hi", "5"],
])
def test_sweep_usage_errors_exit_2(argv, capsys):
    # the sweep library raises ValueError for these; as command-line
    # arguments they are usage errors (exit 1 before)
    assert main(["sweep"] + argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv, named", [
    (["--values", "1e6"], "swept beat 1000000.0 Hz is outside the search "
                          "grid [-1000.0, 1000.0] Hz"),
    (["--values", "500,-2000"], "swept beat -2000.0 Hz is outside the "
                                "search grid [-1000.0, 1000.0] Hz"),
    (["--values", "0"], "swept beat 0.0 Hz: a zero beat leaves the "
                        "counterpart phase unobservable"),
    (["--hi", "5000", "--n-values", "3"], "swept beat 5000.0 Hz is "
                                          "outside the search grid "
                                          "[-1000.0, 1000.0] Hz"),
], ids=["past_grid", "below_grid", "zero", "log_spaced_past_grid"])
def test_sweep_refuses_beats_the_grid_cannot_hold(argv, named, capsys,
                                                  tmp_path):
    # 1e6 wrote a row with f_d_err_hz = -1.0e6 and exit 0 before, and 0
    # exited 1 from the fit; nothing is written now
    out = tmp_path / "sweep.csv"
    assert main(["sweep"] + argv + ["--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("values, named", [
    ([5000.0], "swept beat 5000.0 Hz is outside the search grid "
               "[-1000.0, 1000.0] Hz"),
    ([500.0, 0.0], "swept beat 0.0 Hz: a zero beat leaves the counterpart "
                   "phase unobservable"),
], ids=["past_grid", "zero"])
def test_run_sweep_refuses_beats_the_grid_cannot_hold(values, named,
                                                     monkeypatch):
    # the library refuses them as the command does, before any trial:
    # 5000 Hz returned a row with f_d_err = -4943 Hz and no refusal
    def no_trial(cfg):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(climex.sweep, "build_setup", no_trial)
    with pytest.raises(ConfigError) as exc:
        run_sweep(dict(DEFAULTS), values, 1)
    assert str(exc.value) == named


def test_sweep_takes_beats_on_the_grid_edges(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--values", "1000,-1000", "--trials", "1",
                 "--out", str(out)]) == 0
    rows = _lines(out)[1:]
    assert [float(r.split(",")[0]) for r in rows] == [1000.0, -1000.0]


@pytest.mark.parametrize("argv, named", [
    (["--lo", "nan", "--n-values", "1", "--trials", "1"],
     "lo must be finite, got nan"),
    (["--lo", "2", "--hi", "inf", "--n-values", "2", "--trials", "1"],
     "hi must be finite, got inf"),
    (["--values", "nan", "--trials", "1"], "--values list: 'nan'"),
    (["--values", "2,inf", "--trials", "1"], "--values list: '2,inf'"),
], ids=["lo_nan", "hi_inf", "values_nan", "values_inf"])
def test_sweep_refuses_arguments_that_are_not_finite(argv, named, capsys):
    # nan passed the 0 < lo < hi check and an infinite hi had no bound:
    # exit 1 "epoch values must be finite", or a numpy RuntimeWarning
    # and exit 2 blaming the clock frequency
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("lo, hi", [(float("nan"), 10.0), (2.0, float("nan")),
                                    (2.0, float("inf")),
                                    (float("-inf"), 10.0)])
def test_log_spaced_values_needs_finite_bounds(lo, hi):
    with pytest.raises(ValueError, match="must be finite"):
        log_spaced_values(lo, hi, 3)


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(5e-324, 1e300))
def test_log_spaced_single_value_is_lo(lo):
    got = log_spaced_values(lo, 1e301, 1)
    assert got.shape == (1,) and got[0].hex() == lo.hex()


def test_run_sweep_needs_a_trial():
    with pytest.raises(ValueError, match="^need at least one trial$"):
        run_sweep(dict(DEFAULTS), [500.0], 0)


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
    # each exited 1 before, with numpy's "expected non-negative integer"
    # or "n_attack must be in [1, n_pings]", naming neither key nor value
    cfgp = tmp_path / "run.cfg"
    for text, argv, named in (
            ("", ["simulate", "--seed", "-1"], "seed must be a non-negative "
                                               "integer, got -1"),
            ("seed = -1\n", ["estimate"], "seed must be a non-negative "
                                          "integer, got -1"),
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "attack_seed = -1\n", ["detect"],
             "attack_seed must be a non-negative integer, got -1"),
            ("n_pings = 200\nattack = random\nattack_n = 500\n", ["detect"],
             "attack_n must be in [1, n_pings] when attack is on, got "
             "attack_n = 500 with n_pings = 200"),
            # checked by the setup, so simulate (which ignores the
            # attack) refused it no more than estimate does
            ("attack = random\nattack_n = 0\n", ["simulate"],
             "attack_n must be in [1, n_pings] when attack is on, got "
             "attack_n = 0 with n_pings = 10000"),
            ("grid_n_phi = 64\n", ["estimate"],
             "line 1: unknown key 'grid_n_phi'"),
            # the budget's lottery is around f0_hz, not a key of its own
            ("budget_f0_hz = 2e8\n", ["budget"],
             "line 1: unknown key 'budget_f0_hz'"),
            # every dither spans one nominal clock period
            ("dither_span_s = 1e-9\n", ["simulate"],
             "line 1: unknown key 'dither_span_s'"),
            # a ping interval under one clock period exited 1 unnamed
            ("tm_s = 1e-9\n", ["simulate"],
             "ping interval shorter than one clock period: tm_s = 1e-09, "
             "f0_hz = 100000000.0"),
            ("f0_hz = 1e3\n", ["estimate"],
             "ping interval shorter than one clock period: tm_s = 0.0001, "
             "f0_hz = 1000.0"),
            # detect_k <= 0 flagged every slot; a bad trim or a negative
            # listener distance exited 1 without naming the key
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "detect_k = 0\n", ["detect"], "detect_k must be positive, got 0.0"),
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "detect_k = -1\n", ["detect"],
             "detect_k must be positive, got -1.0"),
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "detect_trim = 0.7\n", ["detect"],
             "detect_trim must be in [0, 0.5), got 0.7"),
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "detect_trim = -0.1\n", ["detect"],
             "detect_trim must be in [0, 0.5), got -0.1"),
            ("n_pings = 200\nattack = random\nattack_n = 40\n"
             "rho_ae_m = -2\n", ["detect"],
             "rho_ae_m must be non-negative, got -2.0"),
            ("rho_be_m = -0.5\n", ["simulate"],
             "rho_be_m must be non-negative, got -0.5"),
            # BudgetInputs' own messages, which named no key, then every
            # budget key
            ("budget_fd_min_hz = 5000\n", ["budget"],
             "need 0 < f_d_min <= f_d_max: " + _budget_keys(
                 budget_fd_min_hz=5000.0)),
            ("budget_ppm = 0\n", ["budget"],
             "budget inputs must be positive: " + _budget_keys(
                 budget_ppm=0.0)),
            # a 2 pi phase step or a distance step past the range has a
            # 0-bit field; a larger one printed bits_phi = -1 or
            # bits_rho = -1 and exited 0
            ("budget_phi_step_rad = 7\n", ["budget"],
             "need phi_step <= 2 pi and rho_step <= rho_max: " + _budget_keys(
                 budget_phi_step_rad=7.0)),
            ("budget_rho_step_m = 200\n", ["budget"],
             "need phi_step <= 2 pi and rho_step <= rho_max: " + _budget_keys(
                 budget_rho_step_m=200.0)),
            # a 2 Hz lottery holds 2 pairs at a 2 Hz beat but no pair
            # area, whose log2 exited 1 with "math domain error"
            ("f0_hz = 2e5\n", ["budget"],
             "no valid pair area under these inputs: the offset lottery is "
             "no wider than f_d_min, or f_d_min = f_d_max: " + _budget_keys(
                 f0_hz=200000.0)),
            # the library's refusals below named no key: each is
            # followed by the keys of the object that refused
            # the tick engine drifts past 1e3 s: ~5 ns at 1e7 s
            ("t_start_s = 1e7\n", ["simulate"],
             "start time t_start = 10000000.0 s is outside +-1000 s, where "
             "the tick engine meets the closed forms: " + _scenario_keys(
                 t_start_s=10000000.0)),
            ("t_start_s = -1.001e3\n", ["estimate"],
             "start time t_start = -1001.0 s is outside +-1000 s, where "
             "the tick engine meets the closed forms: " + _scenario_keys(
                 t_start_s=-1001.0)),
            ("t_start_s = 5e3\n", ["simulate"],
             "start time t_start = 5000.0 s is outside +-1000 s, where "
             "the tick engine meets the closed forms: " + _scenario_keys(
                 t_start_s=5000.0)),
            ("tm_s = -1e-4\n", ["simulate"],
             "ping interval t_m must be positive: " + _scenario_keys(
                 tm_s=-0.0001)),
            ("n_pings = 0\n", ["simulate"],
             "n_pings must be at least 1: " + _scenario_keys(n_pings=0)),
            ("rho_ab_m = -1\n", ["simulate"],
             "negative initiator-responder distance: " + _scenario_keys(
                 rho_ab_m=-1.0)),
            ("grid_df_hz = 0\n", ["simulate"],
             "df must be positive: grid_f_lo_hz = -1000.0, grid_f_hi_hz = "
             "1000.0, grid_df_hz = 0.0, grid_refine = 10"),
            ("grid_refine = 0\n", ["simulate"],
             "refine must be at least 1: grid_f_lo_hz = -1000.0, "
             "grid_f_hi_hz = 1000.0, grid_df_hz = 1.0, grid_refine = 0"),
            ("delta0_s = -1e-9\n", ["simulate"],
             "delta_0 must be non-negative: c_mps = 299792458.0, "
             "f0_hz = 100000000.0, delta0_s = -1e-09, a_scale_s = 2.5e-08"),
            ("a_scale_s = 0\n", ["simulate"],
             "c, f_nominal and a_scale must be positive: c_mps = "
             "299792458.0, f0_hz = 100000000.0, delta0_s = 2.5e-08, "
             "a_scale_s = 0.0"),
            ("c_mps = 0\n", ["simulate"],
             "c, f_nominal and a_scale must be positive: c_mps = 0.0, "
             "f0_hz = 100000000.0, delta0_s = 2.5e-08, a_scale_s = 2.5e-08"),
            ("sigma_j_s = -1e-9\n", ["simulate"],
             "noise sigmas must be non-negative: sigma_j_s = -1e-09, "
             "sigma_c_s = 2e-09"),
            # the responder runs at f0_hz - 187 Hz
            ("f0_hz = -1\n", ["simulate"],
             "clock frequency must be positive: f0_hz = -1.0, offset_b_hz = "
             "-187.0, theta_b_rad = 0.0"),
            # a value just past a bound prints as given, not rounded
            # into the bound (6.28319 would read as inside 2 pi)
            ("budget_phi_step_rad = 6.2831854\n", ["budget"],
             "need phi_step <= 2 pi and rho_step <= rho_max: " + _budget_keys(
                 budget_phi_step_rad=6.2831854)),
            # a grid 0.0005 Hz wider than the alias period, which six
            # significant digits would print as equal
            ("tm_s = 1.0000001e-4\ngrid_f_lo_hz = -5000\n"
             "grid_f_hi_hz = 4999.9995\n", ["simulate"],
             "search grid span 9999.9995 Hz must be below the alias period "
             "1 / tm_s = 9999.9990000001 Hz")):
        cfgp.write_text(text)
        assert main(argv + ["--config", str(cfgp)]) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"


def _keys_text(keys, **changed):
    """``key = value`` for each of ``keys``, at its default unless
    ``changed`` gives another value, a float printed as its ``repr``."""
    values = dict(DEFAULTS, **changed)
    return ", ".join(
        f"{k} = {values[k]!r}" if isinstance(values[k], float)
        else f"{k} = {values[k]}" for k in keys)


def _budget_keys(**changed):
    return _keys_text(("f0_hz", "budget_ppm", "budget_f_step_hz",
                       "budget_fd_min_hz", "budget_fd_max_hz",
                       "budget_phi_step_rad", "budget_rho_max_m",
                       "budget_rho_step_m"), **changed)


def _scenario_keys(**changed):
    return _keys_text(("tm_s", "n_pings", "rho_ab_m", "t_start_s", "dither",
                       "seed"), **changed)


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
    # an output file that cannot be written
    out = tmp_path / "no_dir" / "out.txt"
    assert main(["budget", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    capsys.readouterr()


def test_parser_answers_the_same_after_a_usage_error(tmp_path, capsys):
    # the parser is built once per process and kept: the commands (and
    # the help text) give the same bytes from a fresh parser and from
    # one a usage error went through
    cli.build_parser.cache_clear()
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("n_pings = 200\nattack = random\nattack_n = 40\n")
    config = ["--config", str(cfgp)]
    commands = (["simulate"] + config, ["estimate"] + config,
                ["detect"] + config, ["budget"] + config,
                ["sweep", "--values", "500", "--trials", "1"] + config,
                ["--help"], ["detect", "--help"])

    def run_all():
        runs = []
        for argv in commands:
            runs.append((main(argv),) + capsys.readouterr())
        return runs

    first = run_all()
    parser = cli.build_parser()
    assert main(["bogus"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert run_all() == first
    assert cli.build_parser() is parser
    assert [run[0] for run in first] == [0] * len(commands)
