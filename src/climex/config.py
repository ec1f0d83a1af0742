"""Flat key = value configuration for the command-line tools.

One directive per line, ``key = value``.  Blank lines and lines whose
first non-blank character is ``#`` are ignored; an inline ``#`` starts
a trailing comment.  Unknown keys, duplicate keys and malformed values
are reported with their line number.

All time-like values are seconds, distances are meters, frequencies
are Hz; the unit is part of the key name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import SearchGrid
from .secrecy import BudgetInputs
from .signal_model import (
    SPEED_OF_LIGHT_M_S,
    ClockParams,
    NoiseParams,
    ProtocolConstants,
)
from .protocol_sim import (
    CausalityError,
    DitherSpec,
    ScenarioConfig,
    ping_decimation,
)

__all__ = ["ConfigError", "DEFAULTS", "parse_config_text", "load_config",
           "RunSetup", "build_setup"]


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


DEFAULTS: dict = {
    # exchange
    "protocol": "rtt",
    "f0_hz": 1.0e8,
    "offset_a_hz": 313.0,
    "offset_b_hz": -187.0,
    "theta_a_rad": 0.0,
    "theta_b_rad": 0.0,
    "tm_s": 1.0e-4,
    "n_pings": 10000,
    "t_start_s": 0.0,
    "sigma_j_s": 1.0e-9,
    "sigma_c_s": 2.0e-9,
    "rho_ab_m": 3.0,
    "rho_ae_m": 4.0,
    "rho_be_m": 2.5,
    "delta0_s": 2.5e-8,
    "a_scale_s": 2.5e-8,
    "c_mps": SPEED_OF_LIGHT_M_S,
    "dither": "uniform",
    "dither_span_s": 0.0,        # 0 means one nominal responder period
    "seed": 12345,
    # estimation
    "grid_f_lo_hz": -1000.0,
    "grid_f_hi_hz": 1000.0,
    "grid_df_hz": 1.0,
    "grid_refine": 10,
    # the check time after the epoch timestamp: the predicted phase error
    # grows linearly in t_test - t_prime through the counterpart-frequency
    # error, so the check sits within a second of the epoch
    "t_test_offset_s": 0.25,
    # detection / injection
    "detect_k": 4.0,
    "detect_trim": 0.05,
    "attack": "none",
    "attack_n": 0,
    "attack_seed": 777,
    # secrecy budget, over the offset lottery around f0_hz
    "budget_ppm": 10.0,
    "budget_f_step_hz": 1.0,
    "budget_fd_min_hz": 2.0,
    "budget_fd_max_hz": 1000.0,
    "budget_phi_step_rad": 0.1,
    "budget_rho_max_m": 100.0,
    "budget_rho_step_m": 0.02,
}

_INT_KEYS = {k for k, v in DEFAULTS.items() if isinstance(v, int)}
_CHOICES = {
    "protocol": ("rtt", "climex"),
    "dither": ("none", "uniform"),
    "attack": ("none", "random", "oracle"),
}


def parse_config_text(text: str) -> dict:
    """Parse overrides from config text.  Raises ConfigError with the
    offending line number on any problem."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in _CHOICES:
            if value not in _CHOICES[key]:
                raise ConfigError(
                    f"line {lineno}: {key} must be one of "
                    f"{', '.join(_CHOICES[key])}, got {value!r}")
            out[key] = value
        elif key in _INT_KEYS:
            try:
                out[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an "
                                  f"integer, got {value!r}") from None
        else:
            try:
                out[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be a number, "
                                  f"got {value!r}") from None
            if not math.isfinite(out[key]):
                raise ConfigError(f"line {lineno}: {key} must be finite, "
                                  f"got {value!r}")
    return out


def load_config(path: str | None) -> dict:
    """Defaults, optionally overridden by a config file."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        cfg.update(parse_config_text(text))
    return cfg


@dataclass(frozen=True)
class RunSetup:
    """Config dictionary materialized into the library's parameter
    objects."""

    protocol: str
    initiator: ClockParams
    responder: ClockParams
    scenario: ScenarioConfig
    consts: ProtocolConstants
    noise: NoiseParams
    grid: SearchGrid
    budget_inputs: BudgetInputs
    rho_ae: float
    rho_be: float
    t_test_offset: float
    detect_k: float
    detect_trim: float
    attack: str
    attack_n: int
    attack_seed: int


def build_setup(cfg: dict) -> RunSetup:
    """Validate and assemble a full run setup from a config dict."""
    for key in ("seed", "attack_seed"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be a non-negative integer, "
                              f"got {cfg[key]}")
    for key in ("rho_ae_m", "rho_be_m"):
        if cfg[key] < 0.0:
            raise ConfigError(f"{key} must be non-negative, got {cfg[key]:g}")
    if not cfg["detect_k"] > 0.0:
        raise ConfigError(f"detect_k must be positive, got {cfg['detect_k']:g}")
    if not 0.0 <= cfg["detect_trim"] < 0.5:
        raise ConfigError(f"detect_trim must be in [0, 0.5), "
                          f"got {cfg['detect_trim']:g}")
    try:
        initiator = ClockParams(f_hz=cfg["f0_hz"] + cfg["offset_a_hz"],
                                theta_rad=cfg["theta_a_rad"])
        responder = ClockParams(f_hz=cfg["f0_hz"] + cfg["offset_b_hz"],
                                theta_rad=cfg["theta_b_rad"])
        span = cfg["dither_span_s"]
        dither = DitherSpec(kind=cfg["dither"],
                            span=None if span <= 0.0 else span)
        scenario = ScenarioConfig(t_m=cfg["tm_s"], n_pings=cfg["n_pings"],
                                  rho_ab=cfg["rho_ab_m"],
                                  t_start=cfg["t_start_s"], dither=dither,
                                  seed=cfg["seed"])
        consts = ProtocolConstants(c=cfg["c_mps"], f_nominal=cfg["f0_hz"],
                                   delta_0=cfg["delta0_s"],
                                   a_scale=cfg["a_scale_s"])
        noise = NoiseParams(sigma_j=cfg["sigma_j_s"], sigma_c=cfg["sigma_c_s"])
        grid = SearchGrid(f_lo=cfg["grid_f_lo_hz"], f_hi=cfg["grid_f_hi_hz"],
                          df=cfg["grid_df_hz"], refine=cfg["grid_refine"])
        binputs = BudgetInputs(
            f0_hz=cfg["f0_hz"], ppm=cfg["budget_ppm"],
            f_step_hz=cfg["budget_f_step_hz"],
            f_d_min_hz=cfg["budget_fd_min_hz"],
            f_d_max_hz=cfg["budget_fd_max_hz"],
            phi_step_rad=cfg["budget_phi_step_rad"],
            rho_max_m=cfg["budget_rho_max_m"],
            rho_step_m=cfg["budget_rho_step_m"])
    except (ValueError, CausalityError) as exc:
        raise ConfigError(str(exc)) from None
    try:
        ping_decimation(scenario.t_m, consts)
    except ValueError as exc:
        raise ConfigError(f"{exc}: tm_s = {cfg['tm_s']:g}, "
                          f"f0_hz = {cfg['f0_hz']:g}") from None
    # on the uniform grid t_m j the resultant repeats with period 1 / t_m
    # in f, so a grid that wide holds exact alias ties
    if grid.f_hi - grid.f_lo >= 1.0 / scenario.t_m:
        raise ConfigError(
            f"search grid span {grid.f_hi - grid.f_lo:g} Hz must be below "
            f"the alias period 1 / tm_s = {1.0 / scenario.t_m:g} Hz")
    return RunSetup(
        protocol=cfg["protocol"], initiator=initiator, responder=responder,
        scenario=scenario, consts=consts, noise=noise, grid=grid,
        budget_inputs=binputs, rho_ae=cfg["rho_ae_m"], rho_be=cfg["rho_be_m"],
        t_test_offset=cfg["t_test_offset_s"], detect_k=cfg["detect_k"],
        detect_trim=cfg["detect_trim"], attack=cfg["attack"],
        attack_n=cfg["attack_n"], attack_seed=cfg["attack_seed"],
    )
