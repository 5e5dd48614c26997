"""The SpotFi central server (paper Fig. 1).

"A central server collects CSI measurements for each packet received at
the APs ... SpotFi only adds the software required to read the reported
CSI values, timestamps, and MAC addresses at the AP and ships it to the
central server."

:class:`SpotFiServer` is that server: APs stream per-packet
:class:`~repro.wifi.csi.CsiFrame` records tagged with their AP id; the
server buffers them per (source MAC, AP), and whenever a source has
accumulated a burst (``packets_per_fix`` packets at ``min_aps`` or more
APs) it runs Algorithm 2 and emits a :class:`FixEvent`.  Multiple targets
are handled concurrently (separate buffers per MAC), and an optional
Kalman tracker smooths each target's fix stream.

Ingest is engineered for sustained traffic (see :mod:`repro.runtime`):
buffers can be bounded with an explicit overflow policy so a burst flood
degrades by dropping packets instead of growing memory, abandoned
partial bursts are evicted after a configurable age, and a
:class:`~repro.runtime.metrics.RuntimeMetrics` instance counts
accepted/dropped/evicted packets and fix timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import time
from repro.core.pipeline import SpotFi, SpotFiFix
from repro.errors import ConfigurationError, LocalizationError
from repro.estimators.registry import resolve_name, tier_of
from repro.faults.breaker import BREAKER_STATES, CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.validator import FrameValidator
from repro.geom.points import Point
from repro.obs.http import TelemetryServer
from repro.obs.prometheus import render_prometheus
from repro.obs.slo import SloTracker
from repro.runtime.cache import default_steering_cache
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.queues import OVERFLOW_POLICIES, PacketBuffer
from repro.mobility.tracks import TrackManager
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.csi import CsiFrame, CsiTrace


@dataclass(frozen=True)
class FixEvent:
    """One localization outcome emitted by the server.

    Attributes
    ----------
    source:
        Target identifier (MAC address).
    timestamp_s:
        Timestamp of the newest packet that completed the burst.
    fix:
        Full pipeline output, or None when localization failed (too few
        usable APs) — failures are reported, not swallowed.
    filtered:
        Kalman-filtered position when tracking is enabled.
    track_id:
        Id of the track this fix landed on (see
        :class:`~repro.mobility.tracks.TrackManager`); empty when
        tracking is disabled or no track exists.
    num_aps:
        APs contributing to this burst.
    estimator:
        Registry name of the estimator that produced (or failed) this
        fix (the pipeline's own, ``music2d`` or ``esprit``, when the
        request named none).
    downgraded:
        True when the fix was served on the breaker downgrade tier
        instead of the requested estimator.
    """

    source: str
    timestamp_s: float
    fix: Optional[SpotFiFix]
    filtered: Optional[Point] = None
    track_id: str = ""
    num_aps: int = 0
    estimator: str = ""
    downgraded: bool = False

    @property
    def ok(self) -> bool:
        return self.fix is not None


@dataclass
class SpotFiServer:
    """Streaming multi-target localization server.

    Attributes
    ----------
    spotfi:
        Configured pipeline (owns grid/bounds/config and the runtime
        executor the per-AP estimation fans out on).
    aps:
        AP id -> array geometry for every AP that ships CSI.
    packets_per_fix:
        Burst size per AP before a fix is attempted (paper: 10 suffice).
    min_aps:
        Minimum APs with a complete burst before attempting a fix.
    track:
        Enable Kalman smoothing of each target's fixes.
    track_manager:
        Lifecycle manager for per-source tracks (birth confirmation,
        miss-budget death, idle eviction, failover checkpoints); built
        automatically when ``track`` is set and none is supplied.
    max_buffered_packets:
        Capacity of each (source, AP) ingest buffer; 0 keeps the
        historical unbounded behaviour.  A flood from one source then
        degrades by the ``overflow_policy`` instead of growing memory.
    overflow_policy:
        ``drop-oldest`` (default), ``drop-newest`` or ``reject`` — see
        :data:`repro.runtime.queues.OVERFLOW_POLICIES`.
    max_burst_age_s:
        Evict a (source, AP) buffer whose newest packet is older than
        this many seconds (by packet timestamp) when new traffic
        arrives; 0 disables eviction.  Bounds the memory abandoned
        partial bursts can pin.
    metrics:
        Runtime counters/timings; created automatically when omitted.
        Exposes ``ingest.accepted``, ``drop.overflow``, ``drop.stale``,
        ``fix.ok``/``fix.failed`` and the ``fix`` stage timing.
    validator:
        :class:`~repro.faults.validator.FrameValidator` screening every
        ingested frame; quarantined frames are dropped before buffering
        (counted under ``quarantine.*``) and never reach smoothing or
        MUSIC.  None disables validation (historical behaviour).
    fault_injector:
        Chaos layer: a :class:`~repro.faults.injector.FaultInjector`
        applied to every frame *before* validation, corrupting live
        traffic in-process.  None (the default) leaves traffic untouched;
        only chaos/soak runs should set this.
    breaker_threshold:
        Consecutive failed fixes from one AP that trip its circuit
        breaker (the AP is then excluded from fixes and its bursts shed
        until the recovery window passes).  0 disables breakers.
    breaker_recovery_s:
        Seconds (of packet-timestamp clock) an open breaker waits before
        admitting a half-open probe.
    estimator:
        Default estimator (registry name or QoS tier) for every fix;
        empty runs the pipeline's own kernel.  Per-request
        ``estimator=`` arguments to :meth:`ingest`/:meth:`flush`
        override it.
    downgrade_tier:
        When set (a QoS tier or estimator name) and breakers are
        enabled, a tripped AP no longer sheds its burst: the whole fix
        is served on this cheaper tier instead, keeping every vantage
        point.  A fix that fails with a localization error is also
        retried once on this tier.  Empty keeps the shedding behaviour.
    slo_tracker:
        Optional :class:`~repro.obs.slo.SloTracker`; when set, every
        :meth:`metrics_snapshot` carries an ``slo`` section with the
        objectives evaluated against the live counters/histograms,
        rendered as ``repro_slo_*`` gauges in the exposition.
    """

    spotfi: SpotFi
    aps: Mapping[str, UniformLinearArray]
    packets_per_fix: int = 10
    min_aps: int = 3
    track: bool = False
    track_manager: Optional[TrackManager] = None
    max_buffered_packets: int = 0
    overflow_policy: str = "drop-oldest"
    max_burst_age_s: float = 0.0
    metrics: Optional[RuntimeMetrics] = None
    validator: Optional[FrameValidator] = None
    fault_injector: Optional[FaultInjector] = None
    breaker_threshold: int = 0
    breaker_recovery_s: float = 10.0
    estimator: str = ""
    downgrade_tier: str = ""
    slo_tracker: Optional[SloTracker] = None

    def __post_init__(self) -> None:
        if not self.aps:
            raise ConfigurationError("server needs at least one registered AP")
        if self.packets_per_fix < 1:
            raise ConfigurationError("packets_per_fix must be >= 1")
        if self.max_buffered_packets < 0:
            raise ConfigurationError("max_buffered_packets must be >= 0")
        if 0 < self.max_buffered_packets < self.packets_per_fix:
            raise ConfigurationError(
                f"max_buffered_packets ({self.max_buffered_packets}) must be "
                f">= packets_per_fix ({self.packets_per_fix}) or a burst can "
                "never complete"
            )
        if self.overflow_policy not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {self.overflow_policy!r}; expected "
                f"one of {OVERFLOW_POLICIES}"
            )
        if self.max_burst_age_s < 0:
            raise ConfigurationError("max_burst_age_s must be >= 0")
        if self.breaker_threshold < 0:
            raise ConfigurationError("breaker_threshold must be >= 0")
        if self.breaker_recovery_s < 0:
            raise ConfigurationError("breaker_recovery_s must be >= 0")
        # Fail at construction on a typo'd name, not at the first fix.
        for name in filter(None, (self.estimator, self.downgrade_tier)):
            resolve_name(name)
        if self.metrics is None:
            self.metrics = RuntimeMetrics()
        # Fold the validator's and injector's counters into the server's
        # exposition unless they already have their own sink.
        if self.validator is not None and self.validator.metrics is None:
            self.validator.metrics = self.metrics
        if self.fault_injector is not None and self.fault_injector.metrics is None:
            self.fault_injector.metrics = self.metrics
        if self.track and self.track_manager is None:
            self.track_manager = TrackManager(metrics=self.metrics)
        elif self.track_manager is not None and self.track_manager.metrics is None:
            self.track_manager.metrics = self.metrics
        self._buffers: Dict[Tuple[str, str], PacketBuffer] = {}
        self._last_seen: Dict[Tuple[str, str], float] = {}
        self._events: Dict[str, List[FixEvent]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    def ingest(
        self, ap_id: str, frame: CsiFrame, estimator: Optional[str] = None
    ) -> Optional[FixEvent]:
        """Accept one packet's CSI from one AP.

        Returns a :class:`FixEvent` when this packet completed a burst,
        else None.  ``frame.source`` identifies the target.  When the
        (source, AP) buffer is full the ``overflow_policy`` applies — a
        drop returns None and counts ``drop.overflow``; ``reject`` raises
        :class:`~repro.errors.BackpressureError`.  ``estimator`` (a
        registry name or QoS tier) overrides the server default for the
        fix this packet may trigger.
        """
        if ap_id not in self.aps:
            raise ConfigurationError(
                f"unknown AP id {ap_id!r}; registered: {sorted(self.aps)}"
            )
        self._evict_stale(frame.timestamp_s)
        frames = [frame]
        if self.fault_injector is not None:
            # Chaos layer: the injector may corrupt, drop (-> []) or
            # duplicate (-> two entries) the frame before admission.
            frames = self.fault_injector.corrupt_frame(ap_id, frame)
        event: Optional[FixEvent] = None
        for candidate in frames:
            if self.validator is not None and not self.validator.admit(
                ap_id, candidate
            ):
                continue  # quarantined; counted under quarantine.*
            result = self._buffer_frame(ap_id, candidate, estimator)
            if result is not None:
                event = result
        return event

    def _buffer_frame(
        self, ap_id: str, frame: CsiFrame, estimator: Optional[str] = None
    ) -> Optional[FixEvent]:
        """Buffer one admitted frame and attempt a fix if a burst closed."""
        source = frame.source or "unknown"
        key = (source, ap_id)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = self._buffers[key] = PacketBuffer(
                max_packets=self.max_buffered_packets, policy=self.overflow_policy
            )
        dropped = buffer.push(frame)  # BackpressureError under "reject"
        self._last_seen[key] = frame.timestamp_s
        if dropped is not None:
            self.metrics.record_drop("overflow")
        if dropped is frame:
            return None
        self.metrics.increment("ingest.accepted")
        return self._maybe_fix(source, frame.timestamp_s, estimator=estimator)

    def _evict_stale(self, now_s: float) -> None:
        """Discard buffers whose newest packet is older than the age cap.

        Abandoned sources (a phone that left the building mid-burst)
        otherwise pin partial bursts forever.  The packet timestamp
        stream is the clock, so replayed traces behave like live traffic.
        """
        if not self.max_burst_age_s:
            return
        stale = [
            key
            for key, last in self._last_seen.items()
            if now_s - last > self.max_burst_age_s
        ]
        for key in stale:
            held = self._buffers.pop(key, None)
            self._last_seen.pop(key, None)
            if held:
                self.metrics.record_drop("stale", len(held))
                self.metrics.increment("buffers.evicted")

    def flush(
        self,
        source: str,
        timestamp_s: float,
        estimator: Optional[str] = None,
    ) -> Optional[FixEvent]:
        """Force a fix attempt from whatever bursts are complete.

        Use when a straggler AP will never complete (target moved out of
        its range mid-burst); still requires ``min_aps`` complete bursts.
        Stale-buffer eviction runs here too — a flush is often the last
        traffic a source ever generates, and without it abandoned bursts
        from *other* sources would outlive the age cap until the next
        ingest.  ``estimator`` overrides the server default for this
        fix only.
        """
        self._evict_stale(timestamp_s)
        return self._maybe_fix(
            source, timestamp_s, require_all=False, estimator=estimator
        )

    def _maybe_fix(
        self,
        source: str,
        timestamp_s: float,
        require_all: bool = True,
        estimator: Optional[str] = None,
    ) -> Optional[FixEvent]:
        mine = [
            (ap_id, buffer)
            for (src, ap_id), buffer in self._buffers.items()
            if src == source
        ]
        ready = [
            (ap_id, buffer)
            for ap_id, buffer in mine
            if len(buffer) >= self.packets_per_fix
        ]
        if len(ready) < self.min_aps:
            return None
        if require_all and len(ready) < len(mine):
            # Wait for every AP that heard this source to finish its
            # burst, so a fix uses all available vantage points; callers
            # handle stragglers with flush().
            return None
        requested = estimator if estimator is not None else (self.estimator or None)
        downgraded = False
        if self.breaker_threshold:
            if self.downgrade_tier:
                # Downgrade-not-shed: a tripped AP costs the fix its
                # precision, never its vantage points.
                if self._any_tripped(ready, timestamp_s):
                    requested = self.downgrade_tier
                    downgraded = True
                    self.metrics.increment("breaker.downgrades")
            else:
                ready = self._shed_tripped(source, ready, timestamp_s)
                if len(ready) < self.min_aps:
                    return None
        pairs = [
            (self.aps[ap_id], CsiTrace(buffer.peek(self.packets_per_fix)))
            for ap_id, buffer in ready
        ]
        fix: Optional[SpotFiFix]
        degraded: Tuple[Tuple[int, str], ...] = ()
        resolved = self.spotfi.estimator_named(requested).name
        start = time.perf_counter()
        with self.spotfi.tracer.span(
            "fix", source=source, num_aps=len(ready), estimator=resolved
        ) as span:
            try:
                fix = self.spotfi.locate(pairs, estimator=requested)
            except LocalizationError as exc:
                fix = None
                degraded = tuple(getattr(exc, "degraded_aps", ()))
            if fix is None and self.downgrade_tier and not downgraded:
                # Last resort before reporting a failed fix: retry once
                # on the cheap tier (e.g. RSSI ranging still works when
                # every AoA estimate degraded).
                downgraded = True
                resolved = self.spotfi.estimator_named(self.downgrade_tier).name
                self.metrics.increment("breaker.downgrades")
                span.set("retried", True)
                try:
                    fix = self.spotfi.locate(pairs, estimator=self.downgrade_tier)
                    degraded = ()
                except LocalizationError as exc:
                    degraded = tuple(getattr(exc, "degraded_aps", ()))
            span.set("ok", fix is not None)
            span.set("downgraded", downgraded)
            if self.validator is not None:
                span.set("quarantined", self.validator.total_quarantined)
            if self.breaker_threshold:
                span.set("breakers", self.breaker_states())
        self.metrics.record_complete("fix", time.perf_counter() - start)
        self.metrics.increment("fix.ok" if fix is not None else "fix.failed")
        # Rendered as ``repro_estimator_requests_total``.
        self.metrics.increment(f"estimator.requests.{resolved}.{tier_of(resolved)}")
        if downgraded:
            self.metrics.increment("fix.downgraded")
        if fix is not None and fix.degraded:
            self.metrics.increment("fix.degraded")
        if self.breaker_threshold:
            self._record_ap_outcomes(ready, fix, degraded, timestamp_s)
        filtered = None
        track_id = ""
        if self.track and self.track_manager is not None:
            # Misses feed the lifecycle too: a failed fix spends the
            # track's miss budget instead of freezing it in place.
            observed = self.track_manager.observe(
                source,
                None if fix is None else (fix.position.x, fix.position.y),
                timestamp_s,
            )
            track_id = observed.track_id
            if observed.filtered is not None:
                filtered = Point(*observed.filtered)
        event = FixEvent(
            source=source,
            timestamp_s=timestamp_s,
            fix=fix,
            filtered=filtered,
            track_id=track_id,
            num_aps=len(ready),
            estimator=resolved,
            downgraded=downgraded,
        )
        self._events.setdefault(source, []).append(event)
        # Consume the burst: drop the used packets from every buffer.
        for ap_id, buffer in ready:
            buffer.consume(self.packets_per_fix)
            if not buffer:
                key = (source, ap_id)
                del self._buffers[key]
                self._last_seen.pop(key, None)
        return event

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _breaker_for(self, ap_id: str) -> CircuitBreaker:
        breaker = self._breakers.get(ap_id)
        if breaker is None:
            breaker = self._breakers[ap_id] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                recovery_time_s=self.breaker_recovery_s,
                name=ap_id,
                on_transition=self._on_breaker_transition,
            )
        return breaker

    def _on_breaker_transition(
        self, name: str, old: str, new: str, now_s: float
    ) -> None:
        """Count and trace every breaker state change."""
        self.metrics.increment("breaker.transitions")
        if new == "open":
            self.metrics.increment("breaker.opened")
        elif new == "closed":
            self.metrics.increment("breaker.closed")
        with self.spotfi.tracer.span(
            "breaker.transition", ap=name, old=old, new=new, at_s=now_s
        ):
            pass

    def _any_tripped(
        self, ready: List[Tuple[str, PacketBuffer]], now_s: float
    ) -> bool:
        """True when any contributing AP's breaker refuses traffic.

        Used by the downgrade path: unlike :meth:`_shed_tripped` no
        burst is discarded — every AP still feeds the (cheaper) fix, so
        the breaker keeps observing the AP and can close on recovery.
        """
        tripped = False
        for ap_id, _buffer in ready:
            if not self._breaker_for(ap_id).allow(now_s):
                tripped = True
        return tripped

    def trip_breaker(self, ap_id: str, now_s: float) -> None:
        """Force an AP's breaker open (chaos/test hook)."""
        breaker = self._breaker_for(ap_id)
        while breaker.state != "open":
            breaker.record_failure(now_s)

    def _shed_tripped(
        self,
        source: str,
        ready: List[Tuple[str, PacketBuffer]],
        now_s: float,
    ) -> List[Tuple[str, PacketBuffer]]:
        """Drop APs whose breaker is shedding, consuming their bursts.

        A shed AP's buffered burst is discarded (counted as
        ``drop.breaker``) so the buffer cannot pin stale packets while
        the breaker is open; the remaining APs proceed to the fix.
        """
        admitted: List[Tuple[str, PacketBuffer]] = []
        for ap_id, buffer in ready:
            if self._breaker_for(ap_id).allow(now_s):
                admitted.append((ap_id, buffer))
                continue
            self.metrics.record_drop("breaker", self.packets_per_fix)
            buffer.consume(self.packets_per_fix)
            if not buffer:
                key = (source, ap_id)
                self._buffers.pop(key, None)
                self._last_seen.pop(key, None)
        return admitted

    def _record_ap_outcomes(
        self,
        ready: List[Tuple[str, PacketBuffer]],
        fix: Optional[SpotFiFix],
        degraded: Tuple[Tuple[int, str], ...],
        now_s: float,
    ) -> None:
        """Feed per-AP success/failure from one fix into the breakers.

        Report index ``i`` corresponds to ``ready[i]`` (the pipeline
        preserves AP order), so a degraded/unusable report marks that
        AP's breaker with a failure while the surviving APs record a
        success.
        """
        if fix is not None:
            failed = set(fix.degraded_aps)
        else:
            failed = {index for index, _reason in degraded}
        for index, (ap_id, _buffer) in enumerate(ready):
            breaker = self._breaker_for(ap_id)
            if index in failed:
                breaker.record_failure(now_s)
            else:
                breaker.record_success(now_s)

    def breaker_states(self) -> Dict[str, str]:
        """Current state of every instantiated per-AP breaker."""
        return {ap_id: b.state for ap_id, b in sorted(self._breakers.items())}

    # ------------------------------------------------------------------
    def events(self, source: str) -> List[FixEvent]:
        """All fix events emitted for a target so far."""
        return list(self._events.get(source, []))

    # ------------------------------------------------------------------
    # Track checkpoints (failover)
    # ------------------------------------------------------------------
    def export_track(self, source: str) -> Optional[Dict[str, Any]]:
        """Checkpoint for one source's live track (None when absent)."""
        if self.track_manager is None:
            return None
        return self.track_manager.export_checkpoint(source)

    def export_tracks(self) -> Dict[str, Dict[str, Any]]:
        """Checkpoints for every initialized live track."""
        if self.track_manager is None:
            return {}
        return self.track_manager.export_checkpoints()

    def restore_tracks(self, checkpoints: Mapping[str, Mapping[str, Any]]) -> int:
        """Adopt track checkpoints from a failed peer; returns count resumed.

        Sources that already have a live local track are skipped — the
        local state is newer than anything that crossed the wire — so a
        blanket restore after failover is always safe.  No-op when
        tracking is disabled.
        """
        if not self.track or self.track_manager is None:
            return 0
        with self.spotfi.tracer.span(
            "track.resume", sources=len(checkpoints)
        ) as span:
            resumed = self.track_manager.restore(checkpoints)
            span.set("resumed", resumed)
        return resumed

    def sources(self) -> List[str]:
        """Targets the server has seen packets from."""
        seen = {src for src, _ in self._buffers}
        seen.update(self._events)
        return sorted(seen)

    def pending_packets(self, source: str) -> Dict[str, int]:
        """Per-AP buffered packet counts for a target (diagnostics)."""
        return {
            ap_id: len(buffer)
            for (src, ap_id), buffer in sorted(self._buffers.items())
            if src == source
        }

    def metrics_snapshot(self) -> Dict[str, dict]:
        """Runtime counters, timings, and steering-cache stats.

        The ``counters``/``timings`` sections come from
        :meth:`RuntimeMetrics.snapshot` (histogram-backed, batch + item
        dimensions); ``cache`` adds the process-wide
        :class:`~repro.runtime.cache.SteeringCache` hit/miss/eviction
        counters and derived hit rate.  When the pipeline's executor
        keeps its own :class:`RuntimeMetrics`, its stages (e.g.
        ``estimate``) are folded in too.
        """
        snapshot = self.metrics.snapshot()
        executor_metrics = getattr(self.spotfi.executor, "metrics", None)
        if executor_metrics is not None and executor_metrics is not self.metrics:
            merged = RuntimeMetrics(bucket_bounds=self.metrics.bucket_bounds)
            merged.merge(self.metrics)
            merged.merge(executor_metrics)
            snapshot = merged.snapshot()
        snapshot["cache"] = default_steering_cache().stats()
        if self._breakers:
            snapshot["breakers"] = self.breaker_states()
        if self.slo_tracker is not None:
            snapshot["slo"] = self.slo_tracker.evaluate(snapshot)
        return snapshot

    def metrics_exposition(self) -> str:
        """Prometheus-style plain-text exposition of the full snapshot.

        This is the payload the ``/metrics`` endpoint serves (see
        :meth:`start_telemetry`); the ``repro serve`` CLI prints it on
        exit and :func:`repro.obs.render_prometheus` documents the
        format.
        """
        return render_prometheus(self.metrics_snapshot())

    def health_snapshot(self) -> Dict[str, object]:
        """Liveness/degradation view for the ``/healthz`` endpoint.

        ``ok`` reports liveness (a responding server is alive, even
        when degraded); the rest is the degradation detail chaos tests
        and operators key on: per-AP breaker states and how many are
        not closed, per-source buffered packet depths, and how many fix
        events have been emitted.
        """
        breakers = self.breaker_states()
        buffered: Dict[str, int] = {}
        for (source, _ap_id), buffer in list(self._buffers.items()):
            buffered[source] = buffered.get(source, 0) + len(buffer)
        return {
            "ok": True,
            "breakers": breakers,
            "breakers_open": sum(1 for state in breakers.values() if state != "closed"),
            "buffered_packets": buffered,
            "sources": self.sources(),
            "fix_events": sum(len(events) for events in self._events.values()),
            "tracks": (
                len(self.track_manager.active())
                if self.track_manager is not None
                else 0
            ),
        }

    def start_telemetry(self, port: int = 0, host: str = "127.0.0.1") -> TelemetryServer:
        """Attach a live HTTP telemetry endpoint to this server.

        Serves ``/metrics`` (the exposition), ``/healthz``
        (:meth:`health_snapshot`), and ``/traces`` (the tracer's
        finished-span ring) from a daemon thread; ``port=0`` binds an
        ephemeral port.  The caller owns the returned
        :class:`~repro.obs.http.TelemetryServer` and must ``stop()`` it.
        """

        def _traces() -> List[Dict[str, object]]:
            return [span.to_dict() for span in self.spotfi.tracer.finished_spans()]

        telemetry = TelemetryServer(
            metrics_fn=self.metrics_exposition,
            health_fn=self.health_snapshot,
            traces_fn=_traces,
            host=host,
            port=port,
        )
        return telemetry.start()
