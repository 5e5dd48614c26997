"""The per-AP packet-stack kernel against the per-packet reference.

``estimate_stack`` runs Alg. 2 lines 3-7 over all of an AP's packets at
once; every per-packet entry point is its K = 1 call.  Each packet's
estimates must equal those of the per-packet reference chain in
``tests/reference.py`` exactly, whatever else is in the stack.
"""

import numpy as np
import pytest

from reference import (
    reference_esprit_paths,
    reference_estimate_packet,
    reference_estimate_packets,
    reference_find_peaks_2d,
    reference_packet_spectrum,
    reference_sanitize_csi,
    reference_smooth_csi,
    reference_subspaces,
)
from repro.core.esprit import EspritEstimator
from repro.core.estimator import estimate_ap_packets
from repro.core.music import MusicConfig
from repro.core.peaks import find_peaks_2d, peak_candidates, select_peaks
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import EstimationError
from repro.obs import ObsConfig, Tracer, downsample_spectrum
from repro.runtime import SerialExecutor
from repro.testbed.layout import small_testbed
from repro.wifi.csi import CsiFrame, CsiTrace


def outcomes_as_values(outcomes):
    return [repr(o) if isinstance(o, EstimationError) else o for o in outcomes]


@pytest.fixture(scope="module")
def burst():
    """Ten packets of one small-testbed AP (3 x 30 CSI)."""
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(3)
    array = testbed.aps[1]
    trace = sim.generate_trace(testbed.targets[2].position, array, 10, rng=rng)
    return sim, array, [frame.csi for frame in trace]


def estimator_for(sim, array, **config):
    spotfi = SpotFi(sim.grid, bounds=(0, 0, 1, 1), config=SpotFiConfig(**config))
    return spotfi.estimator_for(array)


class TestMusicStack:
    def test_office_bursts_match_reference(self, office_bursts):
        sim = small_testbed().simulator()
        for array, trace in office_bursts:
            estimator = estimator_for(sim, array)
            csi = [frame.csi for frame in trace]
            assert outcomes_as_values(estimator.estimate_stack(csi)) == (
                reference_estimate_packets(estimator, csi)
            )

    def test_one_packet(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        expected = reference_estimate_packet(estimator, csi[4], 4)
        assert expected
        assert estimator.estimate_stack([csi[4]], first_index=4) == [expected]
        assert estimator.estimate_packet(csi[4], packet_index=4) == expected
        spectrum, aoa_grid, tof_grid = estimator.spectrum(csi[4])
        ref_spectrum, _, _ = reference_packet_spectrum(estimator, csi[4])
        assert np.array_equal(spectrum, ref_spectrum)
        assert estimator.stage_peaks(spectrum, aoa_grid, tof_grid, 4) == expected

    @pytest.mark.parametrize("estimation", ["music", "esprit"])
    def test_no_packets(self, burst, estimation):
        sim, array, _ = burst
        estimator = estimator_for(sim, array, estimation=estimation)
        assert estimator.estimate_stack([]) == []
        assert estimate_ap_packets((estimator, [])) == []
        tracer = Tracer()
        assert estimator.estimate_stack([], tracer=tracer) == []
        assert all(s.status == "ok" for s in tracer.finished_spans())

    def test_zero_csi_packet_fails_alone(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        csi = list(csi)
        csi[3] = np.zeros_like(csi[3])
        outcomes = estimator.estimate_stack(csi)
        assert isinstance(outcomes[3], EstimationError)
        assert "no positive eigenvalues" in str(outcomes[3])
        assert outcomes_as_values(outcomes) == reference_estimate_packets(estimator, csi)
        assert [o for i, o in enumerate(outcomes) if i != 3] == [
            reference_estimate_packet(estimator, c, i)
            for i, c in enumerate(csi)
            if i != 3
        ]

    def test_wrong_shape_packet_fails_alone(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        csi = list(csi)
        csi[5] = csi[5][:, :29]
        outcomes = estimator.estimate_stack(csi)
        assert "does not match the steering model" in str(outcomes[5])
        assert outcomes_as_values(outcomes) == reference_estimate_packets(estimator, csi)

    def test_without_sanitize(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array, sanitize=False)
        assert not estimator.sanitize
        assert outcomes_as_values(estimator.estimate_stack(csi)) == (
            reference_estimate_packets(estimator, csi)
        )

    def test_mdl_model_order(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array, music=MusicConfig(use_mdl=True))
        assert outcomes_as_values(estimator.estimate_stack(csi)) == (
            reference_estimate_packets(estimator, csi)
        )

    def test_burst_uses_stacked_front_end(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        trace = CsiTrace([CsiFrame(csi=c, rssi_dbm=-50.0) for c in csi])
        pooled = np.concatenate(
            [
                reference_smooth_csi(reference_sanitize_csi(c), estimator.smoothing)
                for c in csi
            ],
            axis=1,
        )
        expected = estimator.stage_peaks(*estimator.stage_music(pooled))
        assert expected
        assert estimator.estimate_burst(trace) == expected


class TestEspritStack:
    def test_stack_matches_one_packet_at_a_time(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array, estimation="esprit")
        assert isinstance(estimator, EspritEstimator)
        csi = list(csi)
        csi[6] = np.zeros_like(csi[6])
        outcomes = estimator.estimate_stack(csi)
        assert isinstance(outcomes[6], EstimationError)
        for i, c in enumerate(csi):
            if i == 6:
                continue
            assert outcomes[i] == estimator.estimate_packet(c, packet_index=i)

    def test_stack_matches_reference_front_end(self, office_bursts):
        sim = small_testbed().simulator()
        for array, trace in office_bursts:
            estimator = estimator_for(sim, array, estimation="esprit")
            csi = [frame.csi for frame in trace]
            expected = []
            for i, c in enumerate(csi):
                sanitized = reference_sanitize_csi(c)
                x = reference_smooth_csi(sanitized, estimator.smoothing)
                e_signal, _, _ = reference_subspaces(
                    x @ x.conj().T, estimator.music, num_snapshots=x.shape[1]
                )
                expected.append(reference_esprit_paths(estimator, sanitized, e_signal, i))
            assert estimator.estimate_stack(csi) == expected


class TestPeakStack:
    @staticmethod
    def ridge_spectrum(seed):
        """A spectrum whose strongest interior cell leans on the border.

        The top interior cell is not a peak, which forces the search to
        drop its threshold and rescan.
        """
        rng = np.random.default_rng(seed)
        spec = rng.random((20, 25)) ** 4
        spec[0, :] = 10.0
        spec[1, 7] = 5.0
        return spec

    def test_rescan_matches_reference(self):
        aoa, tof = np.arange(20.0), np.arange(25.0)
        for seed in range(5):
            spec = self.ridge_spectrum(seed)
            assert spec[1:-1, 1:-1].argmax() == 6  # the (1, 7) cell
            expected = reference_find_peaks_2d(spec, aoa, tof, max_peaks=5)
            assert expected and expected[0].power < 5.0
            assert find_peaks_2d(spec, aoa, tof, max_peaks=5) == expected

    def test_tied_top_cells(self):
        """Of two cells at the top value only the second is a peak."""
        aoa, tof = np.arange(12.0), np.arange(12.0)
        spec = np.full((12, 12), 0.5)
        spec[0, 4] = 6.0  # a border cell above the first top cell
        spec[1, 4] = spec[6, 6] = 4.5
        spec[6, 7] = 1.0
        spec[8, 8] = 3.0
        found = peak_candidates(spec, aoa, tof)
        assert found.index.tolist() == [6 * 12 + 6, 8 * 12 + 8]
        expected = reference_find_peaks_2d(spec, aoa, tof)
        assert [p.power for p in expected] == [4.5, 3.0]
        assert find_peaks_2d(spec, aoa, tof) == expected

    def test_stacked_select_equals_one_at_a_time(self):
        aoa, tof = np.arange(20.0), np.arange(25.0)
        rng = np.random.default_rng(9)
        spectra = [rng.random((20, 25)) ** 6 for _ in range(4)]
        spectra.insert(2, self.ridge_spectrum(1))
        spectra.append(np.ones((20, 25)))  # flat: no peaks at all
        candidates = [peak_candidates(s, aoa, tof, min_rel_height_db=10.0) for s in spectra]
        stacked = select_peaks(candidates, aoa, tof, max_peaks=3, min_rel_height_db=10.0)
        assert stacked[-1] == []
        assert stacked == [
            reference_find_peaks_2d(s, aoa, tof, max_peaks=3, min_rel_height_db=10.0)
            for s in spectra
        ]

    def test_empty_stack(self):
        assert select_peaks([], np.arange(3.0), np.arange(3.0)) == []


class TestTracedStack:
    def test_captured_pseudospectrum_is_the_packet_mean(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        tracer = Tracer(ObsConfig(capture_artifacts=True, artifact_max_bins=16))
        estimator.estimate_stack(csi, tracer=tracer)
        music = next(s for s in tracer.finished_spans() if s.name == "music")
        total = None
        for c in csi:
            spectrum, aoa_grid, tof_grid = reference_packet_spectrum(estimator, c)
            total = spectrum if total is None else total + spectrum
        assert music.attributes["pseudospectrum"] == downsample_spectrum(
            total / len(csi), aoa_grid, tof_grid, 16
        )
        assert music.attributes["packets"] == len(csi)

    def test_captured_pseudospectrum_keeps_every_cell(self, burst):
        # The peak search maps only the cells it gathers; the captured
        # mean still maps the whole grid, at full resolution here.
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        tracer = Tracer(ObsConfig(capture_artifacts=True, artifact_max_bins=256))
        estimator.estimate_stack(csi, tracer=tracer)
        music = next(s for s in tracer.finished_spans() if s.name == "music")
        spectra = [estimator.spectrum(c)[0] for c in csi]
        _, aoa_grid, tof_grid = estimator.spectrum(csi[0])
        assert music.attributes["pseudospectrum"] == downsample_spectrum(
            sum(spectra[1:], spectra[0]) / len(csi), aoa_grid, tof_grid, 256
        )
        assert len(music.attributes["pseudospectrum"]["power_db"]) == len(aoa_grid)

    def test_failed_stage_span_is_marked(self, burst):
        sim, array, csi = burst
        estimator = estimator_for(sim, array)
        csi = list(csi)
        csi[0] = np.zeros_like(csi[0])
        tracer = Tracer()
        estimator.estimate_stack(csi, tracer=tracer)
        status = {s.name: s.status for s in tracer.finished_spans()}
        assert status == {"sanitize": "ok", "smooth": "ok", "music": "error"}
        music = next(s for s in tracer.finished_spans() if s.name == "music")
        assert music.attributes["error"] == "EstimationError"


@pytest.mark.parametrize("estimation", ["music", "esprit"])
def test_failed_packets_counted_traced_and_untraced(estimation):
    """One zeroed packet: the same degraded AP, failure and error count."""
    testbed = small_testbed()
    sim = testbed.simulator()
    rng = np.random.default_rng(4)
    target = testbed.targets[0].position
    pairs = [(ap, sim.generate_trace(target, ap, 6, rng=rng)) for ap in testbed.aps]
    frames = list(pairs[0][1])
    frames[2] = CsiFrame(csi=np.zeros_like(frames[2].csi), rssi_dbm=frames[2].rssi_dbm)
    pairs[0] = (pairs[0][0], CsiTrace(frames))
    results = []
    for tracer in (None, Tracer(ObsConfig())):
        executor = SerialExecutor()
        fix = SpotFi(
            sim.grid,
            bounds=testbed.bounds,
            config=SpotFiConfig(packets_per_fix=6, estimation=estimation),
            rng=np.random.default_rng(0),
            executor=executor,
            tracer=tracer,
        ).locate(pairs)
        results.append(
            (
                fix.degraded_aps,
                [r.failure for r in fix.reports],
                executor.metrics.counter("estimate.errors"),
            )
        )
    untraced, traced = results
    assert untraced == traced
    assert untraced[0] == (0,)
    assert "no positive eigenvalues" in untraced[1][0]
    assert untraced[2] == 1
