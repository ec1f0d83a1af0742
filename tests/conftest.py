"""Shared builders for the test suite.

Scenario seeds are pinned everywhere so that every statistical check is
reproducible; tolerance choices are commented at the assertion sites.
The property tests are pinned too: hypothesis derives its examples from
each test's name instead of a fresh random draw, and keeps no example
database between runs.
"""

import numpy as np
import pytest
from hypothesis import settings

from climex import (
    ClockParams,
    NoiseParams,
    ProtocolConstants,
    ScenarioConfig,
)

settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")

F_NOMINAL = 1.0e8


@pytest.fixture
def consts():
    return ProtocolConstants()


@pytest.fixture
def zero_noise():
    return NoiseParams(0.0, 0.0)


@pytest.fixture
def desk_noise():
    # jitter 1 ns, stamp 2 ns: the operating point of the accuracy targets
    return NoiseParams(sigma_j=1.0e-9, sigma_c=2.0e-9)


@pytest.fixture
def pico_noise():
    return NoiseParams(sigma_j=1.0e-12, sigma_c=2.0e-12)


@pytest.fixture
def clock_pair():
    """Factory for an (initiator, responder) pair realizing a given beat."""

    def make(f_d, offset_a=313.0, theta_a=0.3, theta_b=1.1):
        ini = ClockParams(f_hz=F_NOMINAL + offset_a, theta_rad=theta_a)
        res = ClockParams(f_hz=F_NOMINAL + offset_a - f_d, theta_rad=theta_b)
        return ini, res

    return make


@pytest.fixture
def scenario():
    """Factory for a ScenarioConfig with compact defaults."""

    def make(n_pings=2000, seed=0, dither="none", rho_ab=3.0, t_m=1.0e-4):
        return ScenarioConfig(t_m=t_m, n_pings=n_pings, rho_ab=rho_ab,
                              dither=dither,
                              seed=seed)

    return make
