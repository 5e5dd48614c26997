"""Tests for the multi-target track lifecycle manager."""

import numpy as np
import pytest

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import ConfigurationError, LocalizationError
from repro.mobility.tracks import (
    TRACK_CONFIRMED,
    TRACK_TENTATIVE,
    TrackManager,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.testbed.layout import small_testbed
from repro.tracking.kalman import KalmanTrack2D


def feed_line(manager, source, n, start=0.0, step=1.0, x0=0.0, dx=0.5):
    """Feed n accepted fixes walking along +x; returns the observations."""
    out = []
    for i in range(n):
        out.append(
            manager.observe(source, (x0 + dx * i, 2.0), start + step * i)
        )
    return out


class TestLifecycle:
    def test_birth_and_id_minting(self):
        manager = TrackManager(origin="shard-3")
        obs = manager.observe("phone", (1.0, 2.0), 0.0)
        assert obs.born
        assert obs.accepted
        assert obs.track_id == "phone@shard-3#1"
        assert obs.state == TRACK_TENTATIVE

    def test_m_of_n_confirmation(self):
        manager = TrackManager(confirm_hits=2, confirm_window=4)
        first = manager.observe("t", (0.0, 0.0), 0.0)
        assert first.state == TRACK_TENTATIVE
        second = manager.observe("t", (0.5, 0.0), 1.0)
        assert second.state == TRACK_CONFIRMED

    def test_miss_budget_closes_then_rebirths(self):
        metrics = RuntimeMetrics()
        manager = TrackManager(miss_budget=2, metrics=metrics)
        feed_line(manager, "t", 3)
        first_id = manager.track_for("t").track_id
        manager.observe("t", None, 3.0)
        closed = manager.observe("t", None, 4.0)
        assert closed.state == "closed"
        assert manager.track_for("t") is None
        # The next fix births a NEW track id, not a resurrected one.
        reborn = manager.observe("t", (5.0, 2.0), 5.0)
        assert reborn.born
        assert reborn.track_id != first_id
        assert reborn.track_id == "t@local#2"
        assert metrics.counter("track.closed") == 1
        assert metrics.counter("track.created") == 2

    def test_miss_for_unknown_source_is_noop(self):
        manager = TrackManager()
        obs = manager.observe("ghost", None, 0.0)
        assert obs.track_id == ""
        assert manager.active() == []

    def test_idle_eviction(self):
        metrics = RuntimeMetrics()
        manager = TrackManager(idle_timeout_s=5.0, metrics=metrics)
        feed_line(manager, "stale", 2, start=0.0)
        feed_line(manager, "fresh", 2, start=0.0)
        # An observation far in the future evicts the other, idle track.
        manager.observe("fresh", (3.0, 2.0), 20.0)
        assert manager.track_for("stale") is None
        assert manager.track_for("fresh") is not None
        assert metrics.counter("track.evicted") == 1

    def test_bounded_history(self):
        manager = TrackManager(history_limit=4)
        feed_line(manager, "t", 10)
        assert len(manager.history("t")) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrackManager(confirm_hits=3, confirm_window=2)
        with pytest.raises(ConfigurationError):
            TrackManager(miss_budget=0)
        with pytest.raises(ConfigurationError):
            TrackManager(idle_timeout_s=-1.0)


class TestCheckpointRestore:
    def test_roundtrip_preserves_id_and_state(self):
        src = TrackManager(origin="shard-0")
        feed_line(src, "phone", 4)
        ckpt = src.export_checkpoint("phone")
        assert ckpt is not None
        assert ckpt["track_id"] == "phone@shard-0#1"
        assert ckpt["state"] == TRACK_CONFIRMED

        dst = TrackManager(origin="shard-1")
        assert dst.restore({"phone": ckpt}) == 1
        track = dst.track_for("phone")
        # The resumed track keeps the ORIGINAL shard's id — the chaos
        # gate relies on this to tell a resume from a cold restart.
        assert track.track_id == "phone@shard-0#1"
        assert track.resumed
        # The filter state survived: the next fix continues the track.
        obs = dst.observe("phone", (2.0, 2.0), 4.0)
        assert obs.track_id == "phone@shard-0#1"
        assert not obs.born

    def test_restore_skips_live_tracks(self):
        src = TrackManager(origin="a")
        feed_line(src, "t", 3)
        ckpt = src.export_checkpoint("t")
        dst = TrackManager(origin="b")
        feed_line(dst, "t", 2)
        live_id = dst.track_for("t").track_id
        assert dst.restore({"t": ckpt}) == 0
        assert dst.track_for("t").track_id == live_id

    def test_restore_malformed_checkpoint_raises(self):
        dst = TrackManager()
        with pytest.raises(ConfigurationError):
            dst.restore({"t": {"track_id": "t@a#1"}})  # no filter state

    def test_export_checkpoints_only_initialized(self):
        manager = TrackManager()
        feed_line(manager, "ready", 2)
        assert set(manager.export_checkpoints()) == {"ready"}

    def test_restore_counts_metric(self):
        src = TrackManager()
        feed_line(src, "t", 3)
        metrics = RuntimeMetrics()
        dst = TrackManager(metrics=metrics)
        dst.restore(src.export_checkpoints())
        assert metrics.counter("track.resumed") == 1


@pytest.fixture(scope="module")
def scene():
    tb = small_testbed()
    sim = tb.simulator()
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=8),
        rng=np.random.default_rng(0),
    )
    return tb, sim, spotfi


def locate(scene, position, rng, aps=None):
    """One 8-packet burst at ``position``: its SpotFi fix, or None."""
    tb, sim, spotfi = scene
    burst = [
        (ap, sim.generate_trace(position, ap, 8, rng=rng))
        for ap in (tb.aps if aps is None else aps)
    ]
    try:
        return spotfi.locate(burst).position.as_tuple()
    except LocalizationError:
        return None


class TestSpotFiFed:
    """The manager fed end to end by per-burst SpotFi fixes."""

    def test_tracks_moving_target(self, scene):
        manager = TrackManager(measurement_std_m=0.8)
        rng = np.random.default_rng(21)
        waypoints = [(3.0 + 0.8 * t, 3.0 + 0.3 * t) for t in range(6)]
        errors = []
        for i, wp in enumerate(waypoints):
            obs = manager.observe("target", locate(scene, wp, rng), float(i))
            assert obs.filtered is not None
            errors.append(np.hypot(obs.filtered[0] - wp[0], obs.filtered[1] - wp[1]))
        assert np.median(errors) < 1.2
        assert len(manager.history("target")) == 6

    def test_velocity_estimate(self, scene):
        manager = TrackManager(measurement_std_m=0.5, process_accel_std=0.1)
        rng = np.random.default_rng(8)
        for i in range(6):
            position = locate(scene, (3.0 + 1.0 * i, 4.0), rng)
            manager.observe("target", position, float(i))
        vx, vy = manager.track_for("target").filter.velocity
        assert vx == pytest.approx(1.0, abs=0.5)
        assert abs(vy) < 0.5

    def test_single_ap_burst_is_a_miss(self, scene):
        tb = scene[0]
        manager = TrackManager()
        rng = np.random.default_rng(3)
        position = locate(scene, (4.0, 4.0), rng, aps=tb.aps[:1])
        assert position is None
        obs = manager.observe("target", position, 0.0)
        assert (obs.track_id, obs.filtered, obs.accepted) == ("", None, False)
        assert manager.active() == []

    def test_velocity_before_track_raises(self, scene):
        tb = scene[0]
        manager = TrackManager()
        rng = np.random.default_rng(3)
        manager.observe("target", locate(scene, (4.0, 4.0), rng, aps=tb.aps[:1]), 0.0)
        # The failed fix opened no track, so there is no velocity to read;
        # a filter that has seen no fix refuses to report one.
        assert manager.track_for("target") is None
        with pytest.raises(ConfigurationError):
            KalmanTrack2D().velocity

    def test_history_per_source(self, scene):
        manager = TrackManager()
        rng = np.random.default_rng(5)
        manager.observe("phone", locate(scene, (4.0, 4.0), rng), 0.0)
        manager.observe("phone", locate(scene, (4.2, 4.0), rng), 1.0)
        manager.observe("laptop", locate(scene, (9.0, 5.0), rng), 0.0)
        assert [t.source for t in manager.active()] == ["laptop", "phone"]
        assert len(manager.history("phone")) == 2
        assert len(manager.history("laptop")) == 1
        assert manager.history("unknown") == []
