"""Explicit multi-target track lifecycle management.

Targets appear, dwell and leave, so a serving plane cannot keep one
implicit, immortal track per source string.  :class:`TrackManager` makes
the lifecycle explicit:

* **birth**: the first fix for a source opens a *tentative* track; it is
  *confirmed* once ``confirm_hits`` of the last ``confirm_window``
  observations were accepted fixes (M-of-N confirmation, the classic
  radar-tracking rule that keeps one reflection ghost from spawning a
  long-lived track);
* **death**: ``miss_budget`` consecutive missed/rejected observations
  close the track — the next fix births a *new* track id instead of
  teleporting the old one;
* **idle eviction**: tracks with no observations for ``idle_timeout_s``
  (by the observation timestamp clock) are evicted, bounding memory;
* **bounded history**: per-track points are kept in a deque capped at
  ``history_limit``.

Track ids are minted as ``{source}@{origin}#{birth}`` where ``origin``
identifies the minting process (the shard id in :mod:`repro.dist`), so a
track resumed on a ring successor after failover keeps an id that proves
where it was born — a cold restart would mint a fresh id under the new
shard's origin, which is exactly what the ``moving-target`` chaos gate
asserts never happens.

Checkpoints (:meth:`TrackManager.export_checkpoint` /
:meth:`TrackManager.restore`) serialize the Kalman state via
:meth:`~repro.tracking.kalman.KalmanTrack2D.export_state` plus the
lifecycle fields into a compact JSON-safe dict that rides the v2 wire
protocol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runtime.metrics import RuntimeMetrics
from repro.tracking.kalman import KalmanTrack2D

#: Lifecycle states a live track can be in.
TRACK_TENTATIVE = "tentative"
TRACK_CONFIRMED = "confirmed"


@dataclass(frozen=True)
class TrackObservation:
    """Outcome of feeding one burst result into the manager.

    Attributes
    ----------
    track_id:
        Id of the track this observation landed on ("" when no track
        exists — a miss for an unknown source).
    state:
        Lifecycle state after the observation (:data:`TRACK_TENTATIVE`
        or :data:`TRACK_CONFIRMED`; "" when no track exists, "closed"
        when this miss exhausted the budget).
    filtered:
        Kalman-filtered position, when the track is initialized.
    accepted:
        Whether a raw fix passed the innovation gate.
    born:
        True when this observation created the track.
    """

    track_id: str
    state: str
    filtered: Optional[Tuple[float, float]] = None
    accepted: bool = False
    born: bool = False


@dataclass
class ManagedTrack:
    """One live track: filter + lifecycle counters + bounded history."""

    track_id: str
    source: str
    filter: KalmanTrack2D
    state: str = TRACK_TENTATIVE
    hits: int = 0
    misses: int = 0
    born_s: float = 0.0
    updated_s: float = 0.0
    resumed: bool = False
    recent: Deque[bool] = field(default_factory=deque, repr=False)
    history: Deque[Tuple[float, float, float]] = field(
        default_factory=deque, repr=False
    )

    def checkpoint(self) -> Optional[Dict[str, Any]]:
        """JSON-safe snapshot for failover (None before initialization)."""
        filter_state = self.filter.export_state()
        if filter_state is None:
            return None
        return {
            "track_id": self.track_id,
            "source": self.source,
            "state": self.state,
            "hits": int(self.hits),
            "misses": int(self.misses),
            "born_s": float(self.born_s),
            "updated_s": float(self.updated_s),
            "filter": filter_state,
        }


@dataclass
class TrackManager:
    """Multi-target track lifecycle manager (birth / death / eviction).

    Attributes
    ----------
    origin:
        Identifier of the minting process, embedded in every track id
        (the shard id in distributed deployments).
    confirm_hits, confirm_window:
        M-of-N confirmation: a tentative track is confirmed once
        ``confirm_hits`` of its last ``confirm_window`` observations
        were accepted fixes.
    miss_budget:
        Consecutive misses (failed or gate-rejected fixes) that close a
        track.
    idle_timeout_s:
        Evict tracks unobserved for this long (observation clock); 0
        disables.
    history_limit:
        Track points retained per track; 0 keeps history unbounded.
    process_accel_std, measurement_std_m, gate_sigmas:
        Kalman parameters for every minted track.
    metrics:
        Optional counter sink; emits ``track.created`` / ``.confirmed``
        / ``.closed`` / ``.evicted`` / ``.resumed`` / ``.gated``.
    """

    origin: str = "local"
    confirm_hits: int = 2
    confirm_window: int = 4
    miss_budget: int = 3
    idle_timeout_s: float = 0.0
    history_limit: int = 256
    process_accel_std: float = 0.8
    measurement_std_m: float = 0.7
    gate_sigmas: float = 4.0
    metrics: Optional[RuntimeMetrics] = None

    def __post_init__(self) -> None:
        if self.confirm_hits < 1 or self.confirm_window < self.confirm_hits:
            raise ConfigurationError(
                "need confirm_window >= confirm_hits >= 1 for M-of-N confirmation"
            )
        if self.miss_budget < 1:
            raise ConfigurationError("miss_budget must be >= 1")
        if self.idle_timeout_s < 0 or self.history_limit < 0:
            raise ConfigurationError(
                "idle_timeout_s and history_limit must be >= 0"
            )
        self._tracks: Dict[str, ManagedTrack] = {}
        self._births: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None and value:
            self.metrics.increment(name, value)

    def _new_track(self, source: str, timestamp_s: float) -> ManagedTrack:
        birth = self._births.get(source, 0) + 1
        self._births[source] = birth
        track = ManagedTrack(
            track_id=f"{source}@{self.origin}#{birth}",
            source=source,
            filter=KalmanTrack2D(
                process_accel_std=self.process_accel_std,
                measurement_std_m=self.measurement_std_m,
                gate_sigmas=self.gate_sigmas,
            ),
            born_s=timestamp_s,
            updated_s=timestamp_s,
            recent=deque(maxlen=self.confirm_window),
            history=deque(maxlen=self.history_limit if self.history_limit else None),
        )
        self._tracks[source] = track
        self._count("track.created")
        return track

    def _close(self, source: str, counter: str) -> None:
        self._tracks.pop(source, None)
        self._count(counter)

    def evict_idle(self, now_s: float, keep: str = "") -> int:
        """Evict tracks unobserved for longer than the idle timeout."""
        if self.idle_timeout_s <= 0:
            return 0
        idle = [
            source
            for source, track in self._tracks.items()
            if source != keep and now_s - track.updated_s > self.idle_timeout_s
        ]
        for source in idle:
            self._close(source, "track.evicted")
        return len(idle)

    # ------------------------------------------------------------------
    def observe(
        self,
        source: str,
        position: Optional[Tuple[float, float]],
        timestamp_s: float,
    ) -> TrackObservation:
        """Feed one burst outcome (a fix position, or None for a miss).

        Runs idle eviction, then advances (or births/closes) the
        source's track.  A miss for a source with no track is a no-op.
        """
        self.evict_idle(timestamp_s, keep=source)
        track = self._tracks.get(source)
        if position is None:
            if track is None:
                return TrackObservation(track_id="", state="")
            return self._observe_miss(track, timestamp_s, gated=False)
        born = track is None
        if track is None:
            track = self._new_track(source, timestamp_s)
        accepted = track.filter.update(position, timestamp_s)
        if not accepted:
            self._count("track.gated")
            return self._observe_miss(track, timestamp_s, gated=True)
        track.hits += 1
        track.misses = 0
        track.recent.append(True)
        track.updated_s = timestamp_s
        if (
            track.state == TRACK_TENTATIVE
            and sum(track.recent) >= self.confirm_hits
        ):
            track.state = TRACK_CONFIRMED
            self._count("track.confirmed")
        x, y = track.filter.position
        track.history.append((timestamp_s, x, y))
        return TrackObservation(
            track_id=track.track_id,
            state=track.state,
            filtered=(x, y),
            accepted=True,
            born=born,
        )

    def _observe_miss(
        self, track: ManagedTrack, timestamp_s: float, gated: bool
    ) -> TrackObservation:
        """A failed or gate-rejected fix: age the track, spend the budget."""
        if track.filter.initialized and not gated:
            # A gated update already ran predict(); a plain miss must
            # still advance the filter clock so the covariance ages.
            track.filter.predict(timestamp_s)
        track.misses += 1
        track.recent.append(False)
        track.updated_s = timestamp_s
        filtered = track.filter.position if track.filter.initialized else None
        if track.misses >= self.miss_budget:
            self._close(track.source, "track.closed")
            return TrackObservation(
                track_id=track.track_id, state="closed", filtered=filtered
            )
        return TrackObservation(
            track_id=track.track_id, state=track.state, filtered=filtered
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def track_for(self, source: str) -> Optional[ManagedTrack]:
        """The live track for a source, if any."""
        return self._tracks.get(source)

    def active(self) -> List[ManagedTrack]:
        """Every live track, sorted by track id."""
        return sorted(self._tracks.values(), key=lambda t: t.track_id)

    def history(self, source: str) -> List[Tuple[float, float, float]]:
        """(timestamp, x, y) points retained for a source's live track."""
        track = self._tracks.get(source)
        return list(track.history) if track is not None else []

    # ------------------------------------------------------------------
    # Checkpoint / restore (failover)
    # ------------------------------------------------------------------
    def export_checkpoint(self, source: str) -> Optional[Dict[str, Any]]:
        """Compact checkpoint for one source's track (None when absent)."""
        track = self._tracks.get(source)
        if track is None:
            return None
        return track.checkpoint()

    def export_checkpoints(self) -> Dict[str, Dict[str, Any]]:
        """Checkpoints for every initialized live track."""
        out: Dict[str, Dict[str, Any]] = {}
        for source, track in self._tracks.items():
            data = track.checkpoint()
            if data is not None:
                out[source] = data
        return out

    def restore(self, checkpoints: Mapping[str, Mapping[str, Any]]) -> int:
        """Adopt checkpoints for sources with no live track; returns count.

        A source that already has a live track here is skipped — the
        local state is newer than any checkpoint that crossed the wire
        (restores happen right after failover, before the replayed
        traffic arrives).  Malformed checkpoints raise
        :class:`~repro.errors.ConfigurationError`; partial restores
        keep whatever was adopted before the bad entry.
        """
        resumed = 0
        for source, data in checkpoints.items():
            if source in self._tracks:
                continue
            filter_state = data.get("filter")
            if not isinstance(filter_state, Mapping):
                raise ConfigurationError(
                    f"track checkpoint for {source!r} lacks filter state"
                )
            kalman = KalmanTrack2D(
                process_accel_std=self.process_accel_std,
                measurement_std_m=self.measurement_std_m,
                gate_sigmas=self.gate_sigmas,
            )
            kalman.restore_state(filter_state)
            track = ManagedTrack(
                track_id=str(data.get("track_id", f"{source}@{self.origin}#0")),
                source=source,
                filter=kalman,
                state=str(data.get("state", TRACK_TENTATIVE)),
                hits=int(data.get("hits", 0)),
                misses=int(data.get("misses", 0)),
                born_s=float(data.get("born_s", 0.0)),
                updated_s=float(data.get("updated_s", 0.0)),
                resumed=True,
                recent=deque(maxlen=self.confirm_window),
                history=deque(
                    maxlen=self.history_limit if self.history_limit else None
                ),
            )
            self._tracks[source] = track
            resumed += 1
        self._count("track.resumed", resumed)
        return resumed
