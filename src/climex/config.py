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

from .estimators import CounterpartEstimate, SearchGrid, complete_estimate
from .secrecy import BudgetInputs
from .signal_model import (
    SPEED_OF_LIGHT_M_S,
    ClockParams,
    NoiseParams,
    ProtocolConstants,
)
from .protocol_sim import (
    CausalityError,
    ScenarioConfig,
    ping_decimation,
    replay_dither,
    run_exchange,
)

__all__ = ["ConfigError", "DEFAULTS", "BUDGET_KEYS", "parse_config_text",
           "load_config", "RunSetup", "from_config", "build_setup"]


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
_FLOAT_KEYS = [k for k, v in DEFAULTS.items() if isinstance(v, float)]
_CHOICES = {
    "protocol": ("rtt", "climex"),
    "dither": ("none", "uniform"),
    "attack": ("none", "random", "oracle"),
}


def _check_choice(key: str, value, where: str = "") -> None:
    if value not in _CHOICES[key]:
        raise ConfigError(f"{where}{key} must be one of "
                          f"{', '.join(_CHOICES[key])}, got {value!r}")


def _check_finite(key: str, value, where: str = "") -> None:
    if not math.isfinite(float(value)):
        raise ConfigError(f"{where}{key} must be finite, got {value!r}")


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
            _check_choice(key, value, f"line {lineno}: ")
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
            _check_finite(key, value, f"line {lineno}: ")
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
    objects, with the rules that run and fit its protocol."""

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

    def run_epoch(self):
        """One epoch of the configured exchange: ``(epoch, log)``."""
        return run_exchange(self.initiator, self.responder, self.scenario,
                            self.consts, self.noise, kind=self.protocol)

    def fit_model(self):
        """The model amplitude and known dither of a fit: the plain
        sawtooth is one nominal period high and undithered, the protected
        one ``a_scale`` high, and its collector replays its own dither."""
        if self.protocol == "rtt":
            return 1.0 / self.consts.f_nominal, None
        return self.consts.a_scale, replay_dither(self.scenario, self.consts)

    def estimate(self, epoch) -> CounterpartEstimate:
        """The fit of ``epoch`` under :meth:`fit_model`, checked
        ``t_test_offset`` after the epoch timestamp."""
        amplitude, delta_vec = self.fit_model()
        return complete_estimate(
            epoch, self.initiator.f_hz, self.consts, grid=self.grid,
            amplitude=amplitude, delta_vec=delta_vec,
            t_test=epoch.t_prime + self.t_test_offset)


# the config keys behind BudgetInputs' fields, and behind the fields of
# each object build_setup reads straight from the config, in field order
BUDGET_KEYS = ("f0_hz", "budget_ppm", "budget_f_step_hz", "budget_fd_min_hz",
               "budget_fd_max_hz", "budget_phi_step_rad", "budget_rho_max_m",
               "budget_rho_step_m")
_FIELD_KEYS = {
    ScenarioConfig: ("tm_s", "n_pings", "rho_ab_m", "t_start_s", "dither",
                     "seed"),
    ProtocolConstants: ("c_mps", "f0_hz", "delta0_s", "a_scale_s"),
    NoiseParams: ("sigma_j_s", "sigma_c_s"),
    SearchGrid: ("grid_f_lo_hz", "grid_f_hi_hz", "grid_df_hz", "grid_refine"),
    BudgetInputs: BUDGET_KEYS,
}


def from_config(cfg: dict, keys, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose inputs are the values of ``keys``
    in ``cfg``.  A ValueError or CausalityError it raises comes back as
    a ConfigError: the reason, then each key with its value."""
    try:
        return make(*args, **kwargs)
    except (ValueError, CausalityError) as exc:
        raise ConfigError(f"{exc}: " + ", ".join(
            f"{k} = {cfg[k]:g}" if isinstance(cfg[k], float)
            else f"{k} = {cfg[k]}" for k in keys)) from None


def build_setup(cfg: dict) -> RunSetup:
    """Validate and assemble a full run setup from a config dict, which
    must hold exactly the keys of ``DEFAULTS``."""
    for key, value in cfg.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r} = {value!r}")
    for key in DEFAULTS:
        if key not in cfg:
            raise ConfigError(f"missing key {key!r}")
    for key in _CHOICES:
        _check_choice(key, cfg[key])
    for key in _FLOAT_KEYS:
        _check_finite(key, cfg[key])
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
    if cfg["attack"] != "none" and not 1 <= cfg["attack_n"] <= cfg["n_pings"]:
        raise ConfigError(f"attack_n must be in [1, n_pings] when attack is "
                          f"on, got attack_n = {cfg['attack_n']} with "
                          f"n_pings = {cfg['n_pings']}")
    initiator, responder = (from_config(
        cfg, ("f0_hz", f"offset_{s}_hz", f"theta_{s}_rad"), ClockParams,
        cfg["f0_hz"] + cfg[f"offset_{s}_hz"], cfg[f"theta_{s}_rad"])
        for s in "ab")
    scenario, consts, noise, grid, binputs = (
        from_config(cfg, keys, make, *(cfg[k] for k in keys))
        for make, keys in _FIELD_KEYS.items())
    from_config(cfg, ("tm_s", "f0_hz"), ping_decimation, scenario.t_m, consts)
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
