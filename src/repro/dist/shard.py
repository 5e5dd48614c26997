"""Shard workers: one subprocess, one full :class:`~repro.server.SpotFiServer`.

A shard is the unit of horizontal scale in :mod:`repro.dist`.  Each one
hosts a complete streaming server — bounded ingest buffers,
:class:`~repro.faults.FrameValidator` admission control, and per-AP
circuit breakers all intact — behind a blocking socket loop speaking the
:mod:`repro.dist.protocol` message framing over TCP or a Unix domain
socket.  The :class:`~repro.dist.router.ShardRouter` consistent-hashes
``source`` keys across shards, so every packet burst for one target
lands on exactly one shard and burst assembly needs no cross-process
coordination.

Lifecycle: :class:`ShardProcess` forks a worker with a picklable
:class:`ShardConfig`; the worker builds its server, listens, and serves
until it receives a ``SHUTDOWN`` message or a SIGTERM/SIGINT, at which
point it *drains* — every source with buffered packets gets a final
``flush()`` so partial bursts become fix attempts instead of silently
dropped data — and replies ``BYE`` with the drained fixes.
"""

from __future__ import annotations

import os
import multiprocessing
import selectors
import signal
import socket
import time
from dataclasses import dataclass, field, replace
from types import FrameType
from typing import Dict, List, Optional, Set, Tuple, cast

import numpy as np

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.dist import protocol
from repro.dist.protocol import BindAddress, MessageType, WireFix, parse_bind
from repro.errors import ConfigurationError, ReproError, TraceFormatError
from repro.faults.network import NetworkFaultInjector, NetworkFaultSpec
from repro.mobility.tracks import TrackManager
from repro.obs.config import ObsConfig
from repro.obs.http import TelemetryServer
from repro.obs.trace import JsonlSpanExporter, TraceContext, Tracer
from repro.runtime import RuntimeMetrics, create_executor
from repro.server import FixEvent, SpotFiServer
from repro.wifi.csi import CsiFrame
from repro.testbed.layout import testbed_by_name
from repro.wifi.intel5300 import Intel5300


@dataclass(frozen=True)
class ShardConfig:
    """Picklable recipe for one shard's :class:`~repro.server.SpotFiServer`.

    Shipped to the worker process at fork time; everything needed to
    rebuild the server lives here as plain data (the testbed is named,
    not embedded, so the config stays picklable on every start method).

    Telemetry knobs: ``trace_dir`` switches the shard from the no-op
    tracer to a real one exporting finished spans to
    ``{trace_dir}/{shard_id}.jsonl`` (head-sampled at ``sample_rate``,
    span ids prefixed with the shard id for cluster-unique identity);
    ``http_port`` > 0 serves live ``/metrics``, ``/healthz`` and
    ``/traces`` on that port for the shard's lifetime.
    """

    shard_id: str
    testbed: str = "small"
    packets_per_fix: int = 8
    min_aps: int = 2
    max_buffered_packets: int = 0
    overflow_policy: str = "drop-oldest"
    max_burst_age_s: float = 0.0
    breaker_threshold: int = 0
    breaker_recovery_s: float = 10.0
    workers: int = 1
    seed: int = 0
    #: Enable per-source track lifecycle management
    #: (:class:`~repro.mobility.tracks.TrackManager`, origin = the shard
    #: id); fixes then carry track ids and failover checkpoints.
    track: bool = False
    estimator: str = ""
    downgrade_tier: str = ""
    trace_dir: str = ""
    sample_rate: float = 1.0
    http_port: int = 0
    http_host: str = "127.0.0.1"
    #: Transport fault specs applied to every accepted connection (the
    #: server half of network chaos; the router half is its
    #: ``socket_wrapper``).  Frozen specs keep the config picklable.
    network_faults: Tuple[NetworkFaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ConfigurationError(
                f"sample_rate must be within [0.0, 1.0], got {self.sample_rate}"
            )
        if not 0 <= self.http_port <= 65535:
            raise ConfigurationError(
                f"http_port must be in [0, 65535], got {self.http_port}"
            )


def build_server(config: ShardConfig) -> SpotFiServer:
    """Construct the shard's in-process server from its config.

    The full serving stack is assembled exactly as ``repro serve`` does:
    a shared :class:`~repro.runtime.RuntimeMetrics` instance threads
    through the executor and the server so one snapshot covers both.
    """
    testbed = testbed_by_name(config.testbed)
    metrics = RuntimeMetrics()
    executor = create_executor(config.workers, metrics=metrics)
    tracer: Optional[Tracer] = None
    if config.trace_dir:
        os.makedirs(config.trace_dir, exist_ok=True)
        tracer = Tracer(
            config=ObsConfig(sample_rate=config.sample_rate),
            exporters=[
                JsonlSpanExporter(
                    os.path.join(config.trace_dir, f"{config.shard_id}.jsonl")
                )
            ],
            service=config.shard_id,
        )
    spotfi = SpotFi(
        Intel5300().grid(),
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=config.packets_per_fix),
        rng=np.random.default_rng(config.seed),
        executor=executor,
        tracer=tracer,
    )
    return SpotFiServer(
        spotfi=spotfi,
        aps={f"ap{i}": ap for i, ap in enumerate(testbed.aps)},
        packets_per_fix=config.packets_per_fix,
        min_aps=config.min_aps,
        track=config.track,
        track_manager=(
            TrackManager(origin=config.shard_id, metrics=metrics)
            if config.track
            else None
        ),
        max_buffered_packets=config.max_buffered_packets,
        overflow_policy=config.overflow_policy,
        max_burst_age_s=config.max_burst_age_s,
        metrics=metrics,
        breaker_threshold=config.breaker_threshold,
        breaker_recovery_s=config.breaker_recovery_s,
        estimator=config.estimator,
        downgrade_tier=config.downgrade_tier,
    )


class SeqDeduper:
    """Sliding-window ``(source, seq)`` dedup for at-least-once ingest.

    The router journals sent-but-unacked batches and replays them to
    the new ring owner after a failover; frames the dead shard already
    processed (and whose fixes died with it) can thus arrive a second
    time at *this* shard.  Admission is keyed on the router-assigned
    per-source sequence number: a seq already seen, or at or below
    ``high_water - window``, is a duplicate.  ``seq <= 0`` marks
    unsequenced legacy traffic and is always admitted.
    """

    def __init__(self, window: int = 4096) -> None:
        self.window = max(1, int(window))
        self._seen: Dict[str, Set[int]] = {}
        self._high: Dict[str, int] = {}

    def admit(self, source: str, seq: int) -> bool:
        """True when ``(source, seq)`` is first seen (process the frame)."""
        if seq <= 0:
            return True
        high = self._high.get(source, 0)
        if seq <= high - self.window:
            return False
        seen = self._seen.setdefault(source, set())
        if seq in seen:
            return False
        seen.add(seq)
        if seq > high:
            self._high[source] = seq
        if len(seen) > 2 * self.window:
            floor = self._high[source] - self.window
            self._seen[source] = {s for s in seen if s > floor}
        return True


class ShardServer:
    """The socket loop wrapping one :class:`~repro.server.SpotFiServer`.

    Single-threaded and selector-driven: accepts connections, reads one
    framed request at a time, and answers each with exactly one reply
    message (``FIXES``, ``HEALTH_OK``, ``METRICS_REPLY``, ``BYE``, or
    ``ERROR``).  Library errors — malformed frames, validation
    rejections, backpressure — become ``ERROR`` replies carrying the
    exception class name, so the router can map them back onto the
    :class:`~repro.errors.ReproError` hierarchy; they never kill the
    shard.  A broken connection is dropped and the loop keeps serving.
    """

    def __init__(self, config: ShardConfig, bind: BindAddress) -> None:
        self.config = config
        self.bind = bind
        self.server = build_server(config)
        self.telemetry: Optional[TelemetryServer] = None
        self._stopping = False
        self._drained: List[WireFix] = []
        self._last_timestamp_s = 0.0
        self._deduper = SeqDeduper()
        self._fault_injector: Optional[NetworkFaultInjector] = None
        if config.network_faults:
            self._fault_injector = NetworkFaultInjector(
                config.network_faults,
                rng=np.random.default_rng(config.seed + 1),
                metrics=self.server.metrics,
            )

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _wire_fix(self, event: FixEvent) -> WireFix:
        return protocol.WireFix(
            source=event.source,
            timestamp_s=event.timestamp_s,
            ok=event.ok,
            x=event.fix.position.x if event.ok else float("nan"),
            y=event.fix.position.y if event.ok else float("nan"),
            num_aps=event.num_aps,
            shard=self.config.shard_id,
            estimator=event.estimator,
            downgraded=event.downgraded,
            track_id=event.track_id,
            # Piggyback the track checkpoint so the router always holds
            # a copy fresh as of this fix — failover needs no extra RTT.
            track=self.server.export_track(event.source),
        )

    def _handle_ingest(
        self, entries: List[Tuple[str, CsiFrame, int]]
    ) -> Tuple[MessageType, bytes]:
        fixes: List[WireFix] = []
        for ap_id, frame, seq in entries:
            if not self._deduper.admit(frame.source, seq):
                # Replayed after a failover but already processed here
                # before the ack was lost; dropping it keeps delivery
                # effectively-once and fix counts exact.
                self.server.metrics.increment("dist.dedup.duplicates")
                continue
            self._last_timestamp_s = max(self._last_timestamp_s, frame.timestamp_s)
            event = self.server.ingest(ap_id, frame)
            if event is not None:
                fixes.append(self._wire_fix(event))
        return MessageType.FIXES, protocol.encode_fixes(fixes)

    def _handle_traced_ingest(self, payload: bytes) -> Tuple[MessageType, bytes]:
        """INGEST with a router trace context: adopt it for this batch.

        The ``handle.batch`` root span joins the router's trace, so any
        ``fix > locate > ap[k]`` subtrees triggered by these frames nest
        under it and the collector can stitch the whole distributed
        trace back together by trace_id.
        """
        context, suffix = protocol.split_traced_ingest(payload)
        entries = protocol.decode_frames_seq(suffix)
        with self.server.spotfi.tracer.span(
            "handle.batch",
            trace_context=context,
            shard=self.config.shard_id,
            frames=len(entries),
        ):
            return self._handle_ingest(entries)

    def _handle_flush(self, payload: bytes) -> Tuple[MessageType, bytes]:
        request = protocol.decode_json(payload)
        if not isinstance(request, dict):
            raise TraceFormatError("FLUSH payload must be a JSON object")
        raw_context = request.get("trace")
        if isinstance(raw_context, dict):
            # Legacy-tolerant propagation: tracing-unaware shards ignore
            # the extra JSON key; tracing-aware ones adopt the context.
            context = TraceContext.from_dict(raw_context)
            with self.server.spotfi.tracer.span(
                "handle.flush", trace_context=context, shard=self.config.shard_id
            ):
                return self._flush_sources(request)
        return self._flush_sources(request)

    def _flush_sources(self, request: Dict[str, object]) -> Tuple[MessageType, bytes]:
        sources = request.get("sources")
        if sources is None:
            sources = self.server.sources()
        if not isinstance(sources, list):
            raise TraceFormatError("FLUSH 'sources' must be a JSON array")
        timestamp_s = float(request.get("timestamp_s", self._last_timestamp_s))  # type: ignore[arg-type]
        estimator = request.get("estimator") or None
        fixes: List[WireFix] = []
        for source in sources:
            event = self.server.flush(
                str(source), timestamp_s, estimator=estimator  # type: ignore[arg-type]
            )
            if event is not None:
                fixes.append(self._wire_fix(event))
        return MessageType.FIXES, protocol.encode_fixes(fixes)

    def _handle_metrics(self) -> Tuple[MessageType, bytes]:
        reply = {
            "shard_id": self.config.shard_id,
            "snapshot": self.server.metrics_snapshot(),
            "breakers": self.server.breaker_states(),
        }
        return MessageType.METRICS_REPLY, protocol.encode_json(reply)

    def _handle_request(
        self, msg_type: MessageType, payload: bytes
    ) -> Tuple[MessageType, bytes]:
        if msg_type == MessageType.INGEST:
            return self._handle_ingest(protocol.decode_frames_seq(payload))
        if msg_type == MessageType.INGEST_TRACED:
            return self._handle_traced_ingest(payload)
        if msg_type == MessageType.FLUSH:
            return self._handle_flush(payload)
        if msg_type == MessageType.HEALTH:
            return MessageType.HEALTH_OK, protocol.encode_json(
                {
                    "shard_id": self.config.shard_id,
                    "pid": os.getpid(),
                    "http_port": self.config.http_port,
                }
            )
        if msg_type == MessageType.METRICS:
            return self._handle_metrics()
        if msg_type == MessageType.RESUME:
            resumed = self.server.restore_tracks(protocol.decode_resume(payload))
            return MessageType.RESUME_OK, protocol.encode_json({"resumed": resumed})
        if msg_type == MessageType.SHUTDOWN:
            self._stopping = True
            return MessageType.BYE, protocol.encode_fixes(self.drain())
        raise TraceFormatError(f"unexpected request type {msg_type.name}")

    # ------------------------------------------------------------------
    # Drain / shutdown
    # ------------------------------------------------------------------
    def drain(self) -> List[WireFix]:
        """Flush every source with buffered packets; return the fixes.

        Called on ``SHUTDOWN`` and on SIGTERM/SIGINT so partial bursts
        become final fix attempts instead of dying with the process.
        Idempotent: sources drained once have empty buffers and produce
        nothing on a second pass.
        """
        fixes: List[WireFix] = []
        for source in self.server.sources():
            if not any(self.server.pending_packets(source).values()):
                continue
            event = self.server.flush(source, self._last_timestamp_s)
            if event is not None:
                fixes.append(self._wire_fix(event))
        self._drained.extend(fixes)
        return fixes

    def request_stop(self) -> None:
        """Ask the serve loop to exit after the current request."""
        self._stopping = True

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------
    def serve_forever(self, poll_interval_s: float = 0.2) -> None:
        """Accept and serve connections until stopped.

        One selector multiplexes the listening socket and every client
        connection; requests are handled to completion one at a time
        (the shard's parallelism lives in its executor, not its socket
        loop, which keeps `SpotFiServer`'s single-threaded invariants).
        """
        listener = self.bind.listen()
        listener.setblocking(False)
        selector = selectors.DefaultSelector()
        selector.register(listener, selectors.EVENT_READ, data=None)
        if self.config.http_port and self.telemetry is None:
            self.telemetry = TelemetryServer(
                metrics_fn=self.server.metrics_exposition,
                health_fn=self._health_payload,
                traces_fn=self._trace_payload,
                host=self.config.http_host,
                port=self.config.http_port,
            ).start()
        try:
            while not self._stopping:
                for key, _ in selector.select(timeout=poll_interval_s):
                    if key.data is None:
                        conn, _addr = listener.accept()
                        conn.setblocking(True)
                        if self._fault_injector is not None:
                            conn = cast(
                                socket.socket,
                                self._fault_injector.wrap(
                                    conn, peer=self.config.shard_id
                                ),
                            )
                        selector.register(conn, selectors.EVENT_READ, data="conn")
                    else:
                        self._serve_one(selector, key.fileobj)
                    if self._stopping:
                        break
        finally:
            for key in list(selector.get_map().values()):
                selector.unregister(key.fileobj)
                key.fileobj.close()
            selector.close()
            if self.bind.kind == "unix":
                try:
                    os.unlink(self.bind.path)
                except OSError:
                    pass
            if self._stopping:
                self.drain()
            if self.telemetry is not None:
                self.telemetry.stop()
                self.telemetry = None
            self.server.spotfi.executor.close()
            self.server.spotfi.tracer.close()

    def _health_payload(self) -> Dict[str, object]:
        """Shard-flavored ``/healthz`` body: server health plus identity."""
        payload = self.server.health_snapshot()
        payload["shard_id"] = self.config.shard_id
        payload["pid"] = os.getpid()
        payload["stopping"] = self._stopping
        return payload

    def _trace_payload(self) -> List[Dict[str, object]]:
        """Recent finished root spans from the shard's tracer ring."""
        return [span.to_dict() for span in self.server.spotfi.tracer.finished_spans()]

    def _serve_one(self, selector: selectors.BaseSelector, sock: socket.socket) -> None:
        try:
            message = protocol.recv_message(sock)
        except (TraceFormatError, OSError):
            selector.unregister(sock)
            sock.close()
            return
        if message is None:
            selector.unregister(sock)
            sock.close()
            return
        msg_type, payload = message
        try:
            reply_type, reply_payload = self._handle_request(msg_type, payload)
        except ReproError as exc:
            reply_type = MessageType.ERROR
            reply_payload = protocol.encode_json(
                {"kind": type(exc).__name__, "message": str(exc)}
            )
        try:
            protocol.send_message(sock, reply_type, reply_payload)
        except OSError:
            selector.unregister(sock)
            sock.close()


def run_shard(spec: str, config: ShardConfig) -> None:
    """Worker entry point: build a shard, serve until signalled.

    SIGTERM and SIGINT flip the stop flag so the loop exits at the next
    request boundary, drains buffered bursts through ``flush()``, and
    returns — the graceful half of failover (the router handles the
    ungraceful half, SIGKILL, by re-routing the dead shard's key range).
    """
    shard = ShardServer(config, parse_bind(spec))

    def _stop(_signum: int, _frame: Optional[FrameType]) -> None:
        shard.request_stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    shard.serve_forever()


class ShardProcess:
    """Handle on a shard subprocess: spawn, probe, terminate, kill.

    Thin supervisor used by the router-side helpers and the chaos
    harness.  ``kill()`` is deliberately SIGKILL — the point of the
    kill-one-shard scenario is an *ungraceful* death with no drain.
    """

    def __init__(self, spec: str, config: ShardConfig) -> None:
        self.spec = spec
        self.config = config
        self.process = multiprocessing.Process(
            target=run_shard, args=(spec, config), daemon=True
        )

    def start(self) -> None:
        """Fork the worker process (does not wait for readiness)."""
        self.process.start()

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        """Block until the shard answers a HEALTH probe.

        Polls with short connect attempts; raises
        :class:`~repro.errors.ReproError` when the deadline passes or
        the process dies first.
        """
        bind = parse_bind(self.spec)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if not self.process.is_alive():
                raise ReproError(
                    f"shard {self.config.shard_id!r} exited during startup "
                    f"(exitcode {self.process.exitcode})"
                )
            try:
                with bind.connect(timeout_s=1.0) as sock:
                    protocol.send_message(sock, MessageType.HEALTH)
                    reply = protocol.recv_message(sock)
                if reply is not None and reply[0] == MessageType.HEALTH_OK:
                    return
            except (OSError, TraceFormatError):
                pass
            time.sleep(0.05)
        raise ReproError(
            f"shard {self.config.shard_id!r} not ready after {timeout_s:.0f}s"
        )

    def terminate(self) -> None:
        """SIGTERM: graceful stop — the shard drains before exiting."""
        if self.process.is_alive():
            self.process.terminate()

    def kill(self) -> None:
        """SIGKILL: ungraceful death, no drain (chaos scenarios)."""
        if self.process.is_alive():
            self.process.kill()

    def join(self, timeout_s: float = 10.0) -> Optional[int]:
        """Wait for exit; returns the exit code (None if still alive)."""
        self.process.join(timeout_s)
        return self.process.exitcode


def start_shards(
    num_shards: int,
    config: ShardConfig,
    directory: str,
    base_port: int = 0,
    host: str = "127.0.0.1",
    http_base_port: int = 0,
    ready_timeout_s: float = 30.0,
) -> Dict[str, ShardProcess]:
    """Spawn ``num_shards`` workers and wait until all answer HEALTH.

    With ``base_port == 0`` (default) each shard listens on a Unix
    socket ``{directory}/shard{i}.sock`` — no port allocation races;
    otherwise shard ``i`` binds ``tcp:{host}:{base_port + i}``.  With
    ``http_base_port`` set, shard ``i`` additionally serves its HTTP
    telemetry endpoint on ``http_base_port + i`` (overriding any
    ``http_port`` in the template config).  ``ready_timeout_s`` bounds
    each shard's HEALTH wait.  Returns ``{shard_id: ShardProcess}``; on
    any startup failure the shards already running are killed before
    the error propagates.
    """
    shards: Dict[str, ShardProcess] = {}
    try:
        for i in range(num_shards):
            shard_id = f"shard{i}"
            if base_port:
                spec = f"tcp:{host}:{base_port + i}"
            else:
                spec = f"unix:{os.path.join(directory, shard_id + '.sock')}"
            shard_config = replace(
                config,
                shard_id=shard_id,
                http_port=http_base_port + i if http_base_port else config.http_port,
            )
            process = ShardProcess(spec, shard_config)
            process.start()
            shards[shard_id] = process
        for process in shards.values():
            process.wait_ready(timeout_s=ready_timeout_s)
    except BaseException:
        for process in shards.values():
            process.kill()
        raise
    return shards
