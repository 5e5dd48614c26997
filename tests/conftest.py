"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.impairments import ImpairmentModel, ideal_impairments
from repro.channel.paths import PropagationPath
from repro.core.steering import SteeringModel
from repro.testbed.layout import office_testbed
from repro.testbed.scenarios import office_locations
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.intel5300 import Intel5300
from repro.wifi.ofdm import OfdmGrid


@pytest.fixture(scope="session")
def card() -> Intel5300:
    return Intel5300()


@pytest.fixture(scope="session")
def grid(card) -> OfdmGrid:
    return card.grid()


@pytest.fixture()
def ula() -> UniformLinearArray:
    return UniformLinearArray(num_antennas=3, position=(0.0, 0.0), normal_deg=0.0)


@pytest.fixture()
def steering(grid, ula) -> SteeringModel:
    return SteeringModel.for_grid(
        grid, num_antennas=ula.num_antennas, antenna_spacing_m=ula.spacing_m
    )


@pytest.fixture()
def three_paths() -> "list[PropagationPath]":
    """Three well-separated paths: one direct + two reflections."""
    return [
        PropagationPath(aoa_deg=20.0, tof_s=30e-9, gain=1.0 + 0j, kind="direct"),
        PropagationPath(
            aoa_deg=-40.0, tof_s=80e-9, gain=0.6 * np.exp(1.1j), kind="reflection"
        ),
        PropagationPath(
            aoa_deg=55.0, tof_s=140e-9, gain=0.4 * np.exp(-0.4j), kind="reflection"
        ),
    ]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def clean_impairments() -> ImpairmentModel:
    return ideal_impairments()


@pytest.fixture(scope="session")
def office_bursts():
    """Seeded office CSI: 3-packet bursts of 2 targets at 3 office APs.

    A list of ``(array, trace)`` pairs; used by the tests that pin
    estimator outputs bit for bit against their reference copies.
    """
    testbed = office_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(7)
    return [
        (ap, sim.generate_trace(target.position, ap, 3, rng=rng))
        for target in office_locations(testbed)[:2]
        for ap in testbed.office_aps()[:3]
    ]
