"""Tests for multipath profile extraction."""

import math

import numpy as np
import pytest
from reference import reference_incidence_cos, reference_trace

from repro.channel.multipath import (
    MultipathProfile,
    _effective_ula_aoa_deg,
    extract_profile,
)
from repro.channel.paths import PropagationPath
from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError
from repro.geom.floorplan import empty_room
from repro.geom.rays import RayTracer
from repro.geom.segments import Segment
from repro.testbed.layout import office_testbed
from repro.wifi.arrays import UniformLinearArray

WAVELENGTH = SPEED_OF_LIGHT / 5.19e9


@pytest.fixture()
def room():
    return empty_room(10.0, 6.0)


@pytest.fixture()
def array():
    return UniformLinearArray(3, position=(0.5, 3.0), normal_deg=0.0)


class TestEffectiveAoa:
    def test_front_half_plane_identity(self):
        for b in (-89.0, -30.0, 0.0, 45.0, 89.0):
            assert _effective_ula_aoa_deg(b) == pytest.approx(b)

    def test_back_half_plane_aliases(self):
        assert _effective_ula_aoa_deg(120.0) == pytest.approx(60.0)
        assert _effective_ula_aoa_deg(-150.0) == pytest.approx(-30.0)

    def test_straight_behind_aliases_to_zero(self):
        assert _effective_ula_aoa_deg(180.0) == pytest.approx(0.0, abs=1e-9)


class TestExtractProfile:
    def test_direct_path_aoa_and_tof(self, room, array):
        target = (6.5, 3.0)  # straight ahead of the array
        profile = extract_profile(room, target, array, WAVELENGTH)
        direct = profile.direct_path()
        assert direct is not None
        assert direct.aoa_deg == pytest.approx(0.0, abs=1e-9)
        assert direct.tof_s == pytest.approx(6.0 / SPEED_OF_LIGHT)

    def test_direct_path_is_strongest_in_los(self, room, array):
        profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH)
        assert profile.direct_is_strongest()
        assert profile.has_strong_direct()

    def test_paths_sorted_by_tof(self, room, array):
        profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH)
        tofs = [p.tof_s for p in profile]
        assert tofs == sorted(tofs)

    def test_max_paths_respected(self, room, array):
        profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH, max_paths=3)
        assert profile.num_paths <= 3

    def test_friis_amplitude_of_direct(self, room, array):
        profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH)
        direct = profile.direct_path()
        expected = WAVELENGTH / (4 * math.pi * 6.0)
        assert abs(direct.gain) == pytest.approx(expected)

    def test_blocked_direct_attenuated(self, array):
        room = empty_room(10.0, 6.0)
        open_profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH)
        room.add_wall((3.0, 0.0), (3.0, 6.0), material="concrete")
        blocked_profile = extract_profile(room, (6.5, 3.0), array, WAVELENGTH)
        assert abs(blocked_profile.direct_path().gain) < abs(
            open_profile.direct_path().gain
        )

    def test_scatterer_adds_path(self, room, array):
        before = extract_profile(room, (6.5, 3.0), array, WAVELENGTH).num_paths
        room.add_scatterer((4.0, 5.0), 0.5)
        after = extract_profile(room, (6.5, 3.0), array, WAVELENGTH).num_paths
        assert after >= before


class TestReferenceTracer:
    def test_office_profile_matches_reference_tracer(self, monkeypatch):
        """The array tracer changes no weighted path of a real link.

        An obstructed office link with reflections, penetrations and
        scatterers: the same profile, float for float, as the scalar
        reference tracer fed through the same weighting.
        """
        testbed = office_testbed()
        ap = testbed.aps[1]
        target = testbed.targets[0].position
        assert not testbed.floorplan.has_los(target, ap.position)
        actual = extract_profile(testbed.floorplan, target, ap, WAVELENGTH)
        monkeypatch.setattr(RayTracer, "trace", reference_trace)
        expected = extract_profile(testbed.floorplan, target, ap, WAVELENGTH)
        assert actual.num_paths == 8

        def fields(profile):
            return [(p.aoa_deg, p.tof_s, p.gain, p.kind, p.length_m) for p in profile.paths]

        assert fields(actual) == fields(expected)

    def test_office_gains_match_reference_incidence(self, monkeypatch):
        """Plain-float incidence angles change no path gain on any office link."""
        testbed = office_testbed()
        links = [(t.position, ap) for t in testbed.targets for ap in testbed.aps]
        actual = [extract_profile(testbed.floorplan, t, ap, WAVELENGTH) for t, ap in links]
        monkeypatch.setattr(Segment, "incidence_cos", reference_incidence_cos)
        expected = [extract_profile(testbed.floorplan, t, ap, WAVELENGTH) for t, ap in links]
        assert sum(len(p.paths) for p in actual) > 2000
        assert [p.paths for p in actual] == [p.paths for p in expected]


class TestProfileContainer:
    def test_rssi_of_unit_path(self):
        profile = MultipathProfile(paths=[PropagationPath(0, 0, 1.0 + 0j)])
        assert profile.rssi_dbm(tx_power_dbm=10.0) == pytest.approx(10.0)

    def test_total_power_sums(self):
        profile = MultipathProfile(
            paths=[PropagationPath(0, 0, 1.0), PropagationPath(10, 1e-9, 2.0)]
        )
        assert profile.total_power() == pytest.approx(5.0)

    def test_empty_profile(self):
        profile = MultipathProfile()
        assert profile.direct_path() is None
        assert profile.rssi_dbm() == float("-inf")
        with pytest.raises(ConfigurationError):
            profile.strongest_path()

    def test_has_strong_direct_margin(self):
        weak_direct = MultipathProfile(
            paths=[
                PropagationPath(0, 0, 0.01, kind="direct"),
                PropagationPath(30, 1e-9, 1.0, kind="reflection"),
            ]
        )
        assert not weak_direct.has_strong_direct(margin_db=6.0)
        assert weak_direct.has_strong_direct(margin_db=60.0)

    def test_truncated(self):
        profile = MultipathProfile(
            paths=[
                PropagationPath(0, 0, 1.0),
                PropagationPath(10, 1e-9, 0.5),
                PropagationPath(20, 2e-9, 0.1),
            ]
        )
        top2 = profile.truncated(2)
        assert top2.num_paths == 2
        assert all(abs(p.gain) >= 0.5 for p in top2)
        with pytest.raises(ConfigurationError):
            profile.truncated(0)
