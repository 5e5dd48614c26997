"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — simulate a collection burst on a built-in testbed and
  save it as a portable ``.npz`` dataset.
* ``locate`` — localize a saved dataset with SpotFi (optionally also the
  ArrayTrack baseline) and print the fix.  ``--workers N`` fans the
  per-packet estimation across N processes (default 1 = serial).
* ``serve`` — replay a saved dataset through the streaming
  :class:`~repro.server.SpotFiServer`, with the runtime's worker,
  backpressure and eviction knobs, printing each fix event and, on
  exit, the full Prometheus-style metrics exposition (server + executor
  + steering cache).  ``--shards N`` switches to the distributed path:
  N shard subprocesses behind a consistent-hash
  :class:`~repro.dist.router.ShardRouter`.  ``--http-port`` serves live
  ``/metrics``, ``/healthz`` and ``/traces`` endpoints while replaying
  (cluster-wide rollup in sharded mode), ``--trace-dir`` exports spans
  as JSONL per process, ``--sample-rate`` head-samples the traces.
  SIGINT/SIGTERM drain buffered bursts through ``flush()`` before exit.
* ``shard`` — run one :mod:`repro.dist` shard worker in the foreground
  (the building block ``serve --shards`` spawns automatically).
* ``trace`` — localize a saved dataset with tracing enabled and print
  the hierarchical span tree (``locate > ap[k] > sanitize|smooth|music|
  cluster > solve``); ``--jsonl`` exports the spans, ``--artifacts``
  captures downsampled pseudospectra and cluster statistics, and
  ``--merge DIR`` instead stitches the per-process JSONL exports of a
  ``serve --trace-dir`` run into cross-process trace trees.
* ``metrics`` — localize a saved dataset and print the Prometheus-style
  exposition of the runtime metrics it produced; ``--from-shards``
  instead pulls and merges live shard metrics into one cluster-wide
  exposition.
* ``chaos`` — run one scenario of the :mod:`repro.dist.chaos` registry
  end to end (fault injection into the streaming server, or a
  distributed drill over real shard subprocesses) and report fix success
  rate, accuracy, quarantine and breaker activity; exits 1 when
  :func:`~repro.dist.chaos.gate` reports a failure (success rate below
  ``--min-success`` or a failed scenario verdict).
* ``inspect`` — summarize a saved dataset (APs, packets, RSSI, truth).
* ``floorplan`` — render a testbed's floorplan, APs and targets as ASCII.

Testbeds: ``office`` (the paper's Fig. 6 floor), ``home`` (a 4-room
apartment), ``small`` (a single room for quick tests).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from types import FrameType
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.dist.protocol import WireFix

import numpy as np

from repro.baselines.arraytrack import ArrayTrack
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.dist.chaos import SCENARIOS, format_report, gate, run_chaos
from repro.errors import ReproError
from repro.io.traces import LocationDataset, load_dataset, save_dataset
from repro.obs import (
    JsonlSpanExporter,
    ObsConfig,
    SloTracker,
    Tracer,
    collect_trace_dir,
    format_merged_traces,
    format_span_tree,
    render_prometheus,
)
from repro.runtime import (
    OVERFLOW_POLICIES,
    RuntimeMetrics,
    create_executor,
    default_steering_cache,
)
from repro.server import FixEvent, SpotFiServer
from repro.testbed.collection import as_ap_trace_pairs, collect_location
from repro.testbed.layout import TESTBEDS, Testbed, testbed_by_name
from repro.wifi.csi import CsiFrame
from repro.wifi.intel5300 import Intel5300


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate a collection burst and save it as .npz."""
    testbed = testbed_by_name(args.testbed)
    if args.target_label:
        matches = [t for t in testbed.targets if t.label == args.target_label]
        if not matches:
            raise ReproError(
                f"no target labeled {args.target_label!r}; try `floorplan`"
            )
        target = matches[0].position
    elif args.x is not None and args.y is not None:
        target = (args.x, args.y)
    else:
        target = testbed.targets[0].position
    sim = testbed.simulator()
    rng = np.random.default_rng(args.seed)
    recordings = collect_location(
        sim, target, testbed.aps, num_packets=args.packets, rng=rng
    )
    if not recordings:
        raise ReproError("no AP heard the target at that location")
    dataset = LocationDataset(
        ap_arrays=[r.array for r in recordings],
        traces=[r.trace for r in recordings],
        target=target,
        name=f"{args.testbed}-simulated",
    )
    path = save_dataset(dataset, args.output)
    print(
        f"simulated {len(recordings)} AP traces x {args.packets} packets "
        f"at ({target[0]:.2f}, {target[1]:.2f}) -> {path}"
    )
    return 0


# ----------------------------------------------------------------------
# locate
# ----------------------------------------------------------------------
def cmd_locate(args: argparse.Namespace) -> int:
    """Localize a saved dataset with SpotFi (optionally the baseline)."""
    dataset = load_dataset(args.dataset)
    testbed = testbed_by_name(args.testbed)
    grid = Intel5300().grid()
    config = SpotFiConfig(
        packets_per_fix=args.packets, estimation=args.estimation
    )
    with create_executor(args.workers) as executor:
        spotfi = SpotFi(
            grid,
            bounds=testbed.bounds,
            config=config,
            rng=np.random.default_rng(0),
            executor=executor,
        )
        fix = spotfi.locate(
            dataset.ap_trace_pairs(), estimator=args.estimator or None
        )
    print(f"estimator      : {fix.estimator}")
    print(f"SpotFi fix     : ({fix.position.x:.2f}, {fix.position.y:.2f}) m")
    if dataset.target is not None:
        print(f"ground truth   : ({dataset.target.x:.2f}, {dataset.target.y:.2f}) m")
        print(f"SpotFi error   : {fix.error_to(dataset.target):.2f} m")
    for r in fix.reports:
        if r.usable:
            print(
                f"  AP {tuple(r.array.position)}: AoA {r.direct.aoa_deg:+6.1f} deg, "
                f"likelihood {r.direct.likelihood:.2f}, RSSI {r.rssi_dbm:.0f} dBm"
            )
    if args.arraytrack:
        at = ArrayTrack(grid, bounds=testbed.bounds, packets_per_fix=args.packets)
        result = at.locate(dataset.ap_trace_pairs())
        print(f"ArrayTrack fix : ({result.position.x:.2f}, {result.position.y:.2f}) m")
        if dataset.target is not None:
            print(f"ArrayTrack err : {result.error_to(dataset.target):.2f} m")
    return 0


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class _GracefulStop:
    """SIGINT/SIGTERM -> a flag the replay loops poll.

    Registered around a serving loop so the first signal requests a
    *drain* (buffered bursts get a final ``flush()``) instead of killing
    the process mid-burst; original handlers are restored on exit.
    """

    def __init__(self) -> None:
        self.stopped = False
        self._previous: List[object] = []

    def _handle(self, _signum: int, _frame: Optional[FrameType]) -> None:
        self.stopped = True

    def __enter__(self) -> "_GracefulStop":
        for signum in (signal.SIGINT, signal.SIGTERM):
            self._previous.append(signal.getsignal(signum))
            signal.signal(signum, self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for signum, previous in zip(
            (signal.SIGINT, signal.SIGTERM), self._previous
        ):
            signal.signal(signum, previous)  # type: ignore[arg-type]
        self._previous = []


def _print_wire_fix(fix: "WireFix", index: int) -> None:
    """Render one router-delivered fix event line."""
    suffix = " (downgraded)" if fix.downgraded else ""
    if fix.ok:
        print(
            f"fix #{index} t={fix.timestamp_s:.2f}s source={fix.source!r}: "
            f"({fix.x:.2f}, {fix.y:.2f}) m "
            f"[{fix.num_aps} APs, {fix.shard}]{suffix}"
        )
    else:
        print(
            f"fix #{index} t={fix.timestamp_s:.2f}s source={fix.source!r}: "
            f"FAILED [{fix.num_aps} APs, {fix.shard}]{suffix}"
        )


def _serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: replay through a router over shard workers."""
    import tempfile

    from repro.dist.rollup import rollup_exposition, start_cluster_telemetry
    from repro.dist.router import ShardRouter
    from repro.dist.shard import ShardConfig, start_shards

    dataset = load_dataset(args.dataset)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    config = ShardConfig(
        shard_id="template",
        testbed=args.testbed,
        packets_per_fix=args.packets,
        min_aps=min(args.min_aps, dataset.num_aps),
        max_buffered_packets=args.max_buffer,
        overflow_policy=args.overflow_policy,
        max_burst_age_s=args.max_age,
        workers=args.workers,
        estimator=args.estimator,
        downgrade_tier=args.downgrade_tier,
        trace_dir=args.trace_dir,
        sample_rate=args.sample_rate,
    )
    base_port = 0
    host = "127.0.0.1"
    if args.bind:
        from repro.dist.protocol import parse_bind

        bind = parse_bind(args.bind)
        if bind.kind != "tcp":
            raise ReproError(
                "serve --bind takes the tcp:HOST:PORT base address "
                "(shard i listens on PORT + i); omit it for Unix sockets"
            )
        base_port, host = bind.port, bind.host
    sources = [f"target-{j:02d}" for j in range(max(1, args.sources))]
    num_fixes = 0
    router_tracer: Optional[Tracer] = None
    if args.trace_dir:
        router_tracer = Tracer(
            ObsConfig(sample_rate=args.sample_rate),
            exporters=[
                JsonlSpanExporter(os.path.join(args.trace_dir, "router.jsonl"))
            ],
            service="router",
        )
    telemetry = None
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        shards = start_shards(
            args.shards,
            config,
            tmp,
            base_port=base_port,
            host=host,
            http_base_port=args.http_port + 1 if args.http_port else 0,
            ready_timeout_s=args.ready_timeout,
        )
        router = ShardRouter(
            {shard_id: proc.spec for shard_id, proc in shards.items()},
            batch_max_frames=dataset.num_aps,
            connect_timeout_s=args.connect_timeout or None,
            tracer=router_tracer,
        )
        print(
            f"routing {len(sources)} source(s) over {args.shards} shard(s): "
            + ", ".join(f"{sid}={proc.spec}" for sid, proc in shards.items())
        )
        if args.http_port:
            telemetry = start_cluster_telemetry(
                {shard_id: proc.spec for shard_id, proc in shards.items()},
                router_metrics=router.metrics,
                trace_dir=args.trace_dir,
                port=args.http_port,
            )
            print(
                f"cluster telemetry on {telemetry.url} "
                f"(/metrics /healthz /traces); shard endpoints on ports "
                f"{args.http_port + 1}..{args.http_port + args.shards}"
            )
        try:
            with _GracefulStop() as stop:
                num_packets = min(len(t) for t in dataset.traces)
                for k in range(num_packets):
                    if stop.stopped:
                        print("signal received: draining buffered bursts")
                        break
                    for source in sources:
                        for i, trace in enumerate(dataset.traces):
                            frame = trace[k]
                            router.ingest(
                                f"ap{i}",
                                CsiFrame(
                                    csi=frame.csi,
                                    rssi_dbm=frame.rssi_dbm,
                                    timestamp_s=frame.timestamp_s,
                                    source=source,
                                ),
                            )
                    for fix in router.take_fixes():
                        num_fixes += 1
                        _print_wire_fix(fix, num_fixes)
            for fix in router.flush():
                num_fixes += 1
                _print_wire_fix(fix, num_fixes)
            replies = router.pull_metrics()
            stats = router.stats()
            for fix in router.shutdown():
                num_fixes += 1
                _print_wire_fix(fix, num_fixes)
            print(f"{num_fixes} fix events; router counters: {stats['counters']}")
            if stats["dead_shards"]:
                print(f"dead shards: {stats['dead_shards']}")
            print("\n--- cluster metrics exposition ---")
            print(rollup_exposition(replies, router.metrics), end="")
        finally:
            if telemetry is not None:
                telemetry.stop()
            router.close()
            if router_tracer is not None:
                router_tracer.close()
            for proc in shards.values():
                proc.terminate()
            for proc in shards.values():
                proc.join()
    if args.trace_dir:
        print(f"trace exports in {args.trace_dir} (merge with `trace --merge`)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay a dataset through the streaming server, packet by packet.

    One :class:`RuntimeMetrics` instance is shared by the executor and
    the server, so the exit dump covers estimation fan-out (``estimate``
    stage) alongside ingest/fix accounting instead of discarding the
    executor's share.

    ``--shards N`` (N > 1) switches to the distributed path: N shard
    subprocesses behind a :class:`~repro.dist.router.ShardRouter`, with
    ``--sources`` fanning the dataset out as that many synthetic
    targets.  Both paths handle SIGINT/SIGTERM gracefully: buffered
    bursts are drained through ``flush()`` before exit.
    """
    if args.shards > 1:
        return _serve_sharded(args)
    dataset = load_dataset(args.dataset)
    testbed = testbed_by_name(args.testbed)
    grid = Intel5300().grid()
    config = SpotFiConfig(packets_per_fix=args.packets)
    metrics = RuntimeMetrics()
    tracer: Optional[Tracer] = None
    if args.trace_dir or args.http_port:
        exporters = []
        if args.trace_dir:
            os.makedirs(args.trace_dir, exist_ok=True)
            exporters.append(
                JsonlSpanExporter(os.path.join(args.trace_dir, "server.jsonl"))
            )
        tracer = Tracer(
            ObsConfig(sample_rate=args.sample_rate),
            exporters=exporters,
            service="server",
        )
    with create_executor(args.workers, metrics=metrics) as executor:
        spotfi = SpotFi(
            grid,
            bounds=testbed.bounds,
            config=config,
            rng=np.random.default_rng(0),
            executor=executor,
            tracer=tracer,
        )
        server = SpotFiServer(
            spotfi=spotfi,
            aps={f"ap{i}": a for i, a in enumerate(dataset.ap_arrays)},
            packets_per_fix=args.packets,
            min_aps=min(args.min_aps, dataset.num_aps),
            track=args.track,
            max_buffered_packets=args.max_buffer,
            overflow_policy=args.overflow_policy,
            max_burst_age_s=args.max_age,
            metrics=metrics,
            estimator=args.estimator,
            downgrade_tier=args.downgrade_tier,
        )
        telemetry = None
        if args.http_port:
            server.slo_tracker = SloTracker.default_objectives()
            telemetry = server.start_telemetry(port=args.http_port)
            print(
                f"telemetry on {telemetry.url} (/metrics /healthz /traces)"
            )
        # Interleave packets across APs, as a live deployment would see
        # them arrive at the central server.
        num_packets = min(len(t) for t in dataset.traces)
        num_events = 0
        last_stamp = 0.0

        def _print_event(event: FixEvent) -> None:
            suffix = " (downgraded)" if event.downgraded else ""
            if event.ok:
                print(
                    f"fix #{num_events} t={event.timestamp_s:.2f}s "
                    f"source={event.source!r}: "
                    f"({event.fix.position.x:.2f}, {event.fix.position.y:.2f}) m "
                    f"[{event.num_aps} APs, {event.estimator}]{suffix}"
                )
                if dataset.target is not None:
                    print(
                        f"  error vs truth: "
                        f"{event.fix.error_to(dataset.target):.2f} m"
                    )
            else:
                print(
                    f"fix #{num_events} t={event.timestamp_s:.2f}s "
                    f"source={event.source!r}: FAILED [{event.num_aps} APs]"
                )

        with _GracefulStop() as stop:
            for k in range(num_packets):
                if stop.stopped:
                    break
                for i, trace in enumerate(dataset.traces):
                    frame = trace[k]
                    last_stamp = max(last_stamp, frame.timestamp_s)
                    event = server.ingest(f"ap{i}", frame)
                    if event is None:
                        continue
                    num_events += 1
                    _print_event(event)
        if stop.stopped:
            # Graceful drain: give every buffered burst a final flush so
            # in-flight fixes are emitted, not silently dropped.
            print("signal received: draining buffered bursts")
            for source in server.sources():
                if not any(server.pending_packets(source).values()):
                    continue
                event = server.flush(source, last_stamp)
                if event is not None:
                    num_events += 1
                    _print_event(event)
        snapshot = server.metrics_snapshot()
        print(f"{num_events} fix events from {num_packets} packets per AP")
        print(f"runtime counters: {snapshot['counters']}")
        fix_timing = snapshot["timings"].get("fix")
        if fix_timing:
            print(
                f"fix stage: {fix_timing['count']} runs, "
                f"mean {fix_timing['mean_s'] * 1e3:.0f} ms, "
                f"p99 {fix_timing['quantiles']['p99'] * 1e3:.0f} ms"
            )
        print("\n--- metrics exposition ---")
        print(server.metrics_exposition(), end="")
        if telemetry is not None:
            telemetry.stop()
    if tracer is not None:
        tracer.close()
        if args.trace_dir:
            print(f"trace exports in {args.trace_dir}")
    return 0


# ----------------------------------------------------------------------
# shard
# ----------------------------------------------------------------------
def cmd_shard(args: argparse.Namespace) -> int:
    """Run one shard worker in the foreground until signalled.

    The building block ``serve --shards N`` spawns automatically; run it
    directly to place shards by hand (one per host, say) and point a
    router at them.  SIGINT/SIGTERM drains buffered bursts through
    ``flush()`` before exit.
    """
    from repro.dist.shard import ShardConfig, run_shard

    config = ShardConfig(
        shard_id=args.id,
        testbed=args.testbed,
        packets_per_fix=args.packets,
        min_aps=args.min_aps,
        max_buffered_packets=args.max_buffer,
        overflow_policy=args.overflow_policy,
        max_burst_age_s=args.max_age,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery_s=args.breaker_recovery,
        workers=args.workers,
        estimator=args.estimator,
        downgrade_tier=args.downgrade_tier,
        trace_dir=args.trace_dir,
        sample_rate=args.sample_rate,
        http_port=args.http_port,
    )
    print(f"shard {args.id!r} serving testbed {args.testbed!r} on {args.bind}")
    if args.http_port:
        print(f"shard telemetry on http://127.0.0.1:{args.http_port}")
    run_shard(args.bind, config)
    print(f"shard {args.id!r} drained and stopped")
    return 0


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def cmd_trace(args: argparse.Namespace) -> int:
    """Localize a dataset with tracing enabled and print the span tree.

    ``--merge DIR`` skips the local run and instead merges the JSONL
    span exports under ``DIR`` (one file per process, as written by
    ``serve --trace-dir``) into cross-process trees: a shard's remote
    root is re-attached under the router span that carried its trace
    context over the wire, so one ``trace <id>`` block shows the
    router's ``flush``/``batch`` spans and the shard's ``locate``
    subtree together.
    """
    if args.merge:
        merged = collect_trace_dir(args.merge)
        if not merged:
            raise ReproError(f"no spans found under {args.merge!r}")
        print(format_merged_traces(merged))
        return 0
    if not args.dataset:
        raise ReproError("a dataset is required unless --merge is given")
    dataset = load_dataset(args.dataset)
    testbed = testbed_by_name(args.testbed)
    grid = Intel5300().grid()
    config = SpotFiConfig(
        packets_per_fix=args.packets, estimation=args.estimation
    )
    exporters = [JsonlSpanExporter(args.jsonl)] if args.jsonl else []
    tracer = Tracer(
        ObsConfig(capture_artifacts=args.artifacts), exporters=exporters
    )
    try:
        spotfi = SpotFi(
            grid,
            bounds=testbed.bounds,
            config=config,
            rng=np.random.default_rng(0),
            tracer=tracer,
        )
        fix = spotfi.locate(dataset.ap_trace_pairs())
    finally:
        tracer.close()
    for root in tracer.finished_spans():
        print(format_span_tree(root))
    print(f"\nfix: ({fix.position.x:.2f}, {fix.position.y:.2f}) m")
    if dataset.target is not None:
        print(f"error vs truth: {fix.error_to(dataset.target):.2f} m")
    if args.jsonl:
        print(f"spans exported to {args.jsonl}")
    return 0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def cmd_metrics(args: argparse.Namespace) -> int:
    """Localize a dataset and print the Prometheus-style exposition.

    ``--from-shards spec,spec,...`` skips the local run entirely and
    instead pulls every listed shard's metrics over the wire, merging
    them into one cluster-wide exposition
    (:func:`repro.dist.rollup.rollup_exposition`).
    """
    if args.from_shards:
        from repro.dist.rollup import pull_shard_metrics, rollup_exposition

        specs = [s for s in args.from_shards.split(",") if s]
        replies = pull_shard_metrics(
            {f"shard{i}": spec for i, spec in enumerate(specs)}
        )
        if not replies:
            raise ReproError(
                f"no shard out of {len(specs)} answered the metrics pull"
            )
        print(f"# merged from {len(replies)}/{len(specs)} shard(s)")
        print(rollup_exposition(replies), end="")
        return 0
    if not args.dataset:
        raise ReproError("a dataset is required unless --from-shards is given")
    dataset = load_dataset(args.dataset)
    testbed = testbed_by_name(args.testbed)
    grid = Intel5300().grid()
    config = SpotFiConfig(packets_per_fix=args.packets)
    metrics = RuntimeMetrics()
    with create_executor(args.workers, metrics=metrics) as executor:
        spotfi = SpotFi(
            grid,
            bounds=testbed.bounds,
            config=config,
            rng=np.random.default_rng(0),
            executor=executor,
        )
        for _ in range(args.repeats):
            spotfi.locate(dataset.ap_trace_pairs())
    snapshot = metrics.snapshot()
    snapshot["cache"] = default_steering_cache().stats()
    print(render_prometheus(snapshot), end="")
    return 0


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a chaos scenario and gate it on its registered verdicts."""
    report = run_chaos(
        scenario=args.scenario,
        testbed=args.testbed,
        seed=args.seed,
        packets_per_fix=args.packets,
        bursts=args.bursts,
        min_aps=args.min_aps,
    )
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_report(report))
    failures = gate(report, args.min_success)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# inspect
# ----------------------------------------------------------------------
def cmd_inspect(args: argparse.Namespace) -> int:
    """Print a saved dataset's APs, packet counts and ground truth."""
    dataset = load_dataset(args.dataset)
    print(f"dataset  : {dataset.name or '(unnamed)'}")
    print(f"APs      : {dataset.num_aps}")
    if dataset.target is not None:
        print(f"truth    : ({dataset.target.x:.2f}, {dataset.target.y:.2f}) m")
    for i, (array, trace) in enumerate(zip(dataset.ap_arrays, dataset.traces)):
        print(
            f"  AP {i}: {array.num_antennas} antennas at "
            f"({array.position[0]:.2f}, {array.position[1]:.2f}), normal "
            f"{array.normal_deg:+.0f} deg, {len(trace)} packets, "
            f"median RSSI {trace.median_rssi_dbm():.0f} dBm"
        )
    return 0


# ----------------------------------------------------------------------
# floorplan
# ----------------------------------------------------------------------
def render_floorplan(testbed: Testbed, cols: int = 90, rows: int = 26) -> str:
    """Rasterize walls, scatterers, APs and targets into ASCII art."""
    x0, y0, x1, y1 = testbed.bounds
    canvas = [[" "] * cols for _ in range(rows)]

    def put(x: float, y: float, ch: str) -> None:
        c = int((x - x0) / (x1 - x0) * (cols - 1))
        r = int((1.0 - (y - y0) / (y1 - y0)) * (rows - 1))
        canvas[max(0, min(rows - 1, r))][max(0, min(cols - 1, c))] = ch

    for wall in testbed.floorplan.walls:
        steps = max(2, int(wall.length * 4))
        for t in np.linspace(0.0, 1.0, steps):
            p = wall.point_at(float(t))
            put(p.x, p.y, "#")
    for scatterer in testbed.floorplan.scatterers:
        put(scatterer.position.x, scatterer.position.y, "*")
    for spot in testbed.targets:
        put(spot.position.x, spot.position.y, "o")
    for ap in testbed.aps:
        put(ap.position[0], ap.position[1], "A")
    lines = ["".join(row) for row in canvas]
    legend = "# wall   * scatterer   o target   A access point"
    return "\n".join(lines) + "\n" + legend


def cmd_floorplan(args: argparse.Namespace) -> int:
    """Render a testbed floorplan as ASCII art."""
    testbed = testbed_by_name(args.testbed)
    print(f"testbed '{testbed.name}': bounds {testbed.bounds}")
    print(render_floorplan(testbed, cols=args.width))
    print(f"{len(testbed.targets)} targets, {len(testbed.aps)} APs")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotFi reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a collection burst to .npz")
    p.add_argument("output", help="output .npz path")
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--target-label", default="", help="target label (see floorplan)")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--packets", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("locate", help="localize a saved dataset")
    p.add_argument("dataset", help=".npz dataset path")
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--packets", type=int, default=40)
    p.add_argument("--estimation", default="music", choices=("music", "esprit"))
    p.add_argument(
        "--estimator",
        default="",
        help="registry estimator or QoS tier (precise/balanced/coarse); "
        "empty runs the classic pipeline (see docs/ESTIMATORS.md)",
    )
    p.add_argument("--arraytrack", action="store_true", help="also run the baseline")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-packet estimation (1 = serial)",
    )
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("serve", help="replay a dataset through the server")
    p.add_argument("dataset", help=".npz dataset path")
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--packets", type=int, default=10, help="packets per fix burst")
    p.add_argument("--min-aps", type=int, default=2)
    p.add_argument("--track", action="store_true", help="Kalman-filter the fixes")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-packet estimation (1 = serial)",
    )
    p.add_argument(
        "--max-buffer",
        type=int,
        default=0,
        help="per-(source, AP) buffer capacity in packets (0 = unbounded)",
    )
    p.add_argument(
        "--overflow-policy", default="drop-oldest", choices=OVERFLOW_POLICIES
    )
    p.add_argument(
        "--max-age",
        type=float,
        default=0.0,
        help="evict partial bursts idle for this many seconds (0 = never)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard worker processes behind a consistent-hash router "
        "(1 = single in-process server)",
    )
    p.add_argument(
        "--bind",
        default="",
        help="tcp:HOST:PORT base address for shard workers (shard i "
        "listens on PORT + i); default: Unix sockets in a temp dir",
    )
    p.add_argument(
        "--sources",
        type=int,
        default=1,
        help="fan the dataset out as this many synthetic targets "
        "(sharded mode; exercises the hash ring)",
    )
    p.add_argument(
        "--estimator",
        default="",
        help="default estimator or QoS tier for every fix "
        "(empty = classic pipeline)",
    )
    p.add_argument(
        "--downgrade-tier",
        default="",
        help="serve fixes on this tier instead of shedding when a "
        "breaker trips (e.g. coarse); empty keeps shedding",
    )
    p.add_argument(
        "--http-port",
        type=int,
        default=0,
        help="serve /metrics, /healthz and /traces on this port while "
        "replaying (sharded mode: cluster rollup here, shard i on "
        "PORT+1+i); 0 = off",
    )
    p.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="head-sampling rate for traces in [0, 1]; applies to the "
        "server tracer (or router + shards with --shards)",
    )
    p.add_argument(
        "--trace-dir",
        default="",
        help="export spans as JSONL under this directory (one file per "
        "process); merge afterwards with `trace --merge DIR`",
    )
    p.add_argument(
        "--ready-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for each shard worker's ready handshake "
        "before failing startup (sharded mode)",
    )
    p.add_argument(
        "--connect-timeout",
        type=float,
        default=0.0,
        help="router connect timeout per shard in seconds; failures "
        "report 'connect timeout' instead of a generic send error "
        "(0 = use the I/O timeout; sharded mode)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "shard", help="run one dist shard worker in the foreground"
    )
    p.add_argument(
        "--bind", required=True, help="unix:/path/to.sock or tcp:HOST:PORT"
    )
    p.add_argument("--id", default="shard0", help="shard id for fixes/metrics")
    p.add_argument("--testbed", default="small", choices=sorted(TESTBEDS))
    p.add_argument("--packets", type=int, default=8, help="packets per fix burst")
    p.add_argument("--min-aps", type=int, default=2)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-packet estimation (1 = serial)",
    )
    p.add_argument(
        "--max-buffer",
        type=int,
        default=0,
        help="per-(source, AP) buffer capacity in packets (0 = unbounded)",
    )
    p.add_argument(
        "--overflow-policy", default="drop-oldest", choices=OVERFLOW_POLICIES
    )
    p.add_argument(
        "--max-age",
        type=float,
        default=0.0,
        help="evict partial bursts idle for this many seconds (0 = never)",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=0,
        help="consecutive AP failures that open its breaker (0 = off)",
    )
    p.add_argument(
        "--breaker-recovery",
        type=float,
        default=10.0,
        help="seconds an open breaker waits before half-opening",
    )
    p.add_argument(
        "--estimator",
        default="",
        help="default estimator or QoS tier for every fix "
        "(empty = classic pipeline)",
    )
    p.add_argument(
        "--downgrade-tier",
        default="",
        help="serve fixes on this tier instead of shedding when a "
        "breaker trips (e.g. coarse); empty keeps shedding",
    )
    p.add_argument(
        "--http-port",
        type=int,
        default=0,
        help="serve this shard's /metrics, /healthz and /traces on "
        "this port; 0 = off",
    )
    p.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="head-sampling rate for shard-local trace roots in [0, 1] "
        "(router-initiated traces carry their own verdict)",
    )
    p.add_argument(
        "--trace-dir",
        default="",
        help="export this shard's spans as JSONL under this directory",
    )
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("trace", help="localize with tracing, print the span tree")
    p.add_argument(
        "dataset",
        nargs="?",
        default="",
        help=".npz dataset path (not needed with --merge)",
    )
    p.add_argument(
        "--merge",
        default="",
        help="merge the JSONL span exports under this directory into "
        "cross-process trace trees instead of running a localization",
    )
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--packets", type=int, default=40)
    p.add_argument("--estimation", default="music", choices=("music", "esprit"))
    p.add_argument(
        "--artifacts",
        action="store_true",
        help="capture downsampled pseudospectra and cluster stats into spans",
    )
    p.add_argument(
        "--jsonl", default="", help="also export finished spans to this JSONL file"
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics", help="localize and print the Prometheus-style exposition"
    )
    p.add_argument(
        "dataset",
        nargs="?",
        default="",
        help=".npz dataset path (not needed with --from-shards)",
    )
    p.add_argument(
        "--from-shards",
        default="",
        help="comma-separated shard endpoints (unix:/... or tcp:...) to "
        "pull and merge metrics from instead of a local run",
    )
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--packets", type=int, default=40)
    p.add_argument(
        "--repeats", type=int, default=1, help="locate passes to accumulate"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for per-packet estimation (1 = serial)",
    )
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "chaos", help="run a seeded fault-injection scenario end to end"
    )
    p.add_argument("--scenario", default="mixed", choices=SCENARIOS)
    p.add_argument("--testbed", default="small", choices=sorted(TESTBEDS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--packets", type=int, default=8, help="packets per fix burst")
    p.add_argument("--bursts", type=int, default=4, help="bursts to stream")
    p.add_argument("--min-aps", type=int, default=2)
    p.add_argument(
        "--min-success",
        type=float,
        default=90.0,
        help="fail (exit 1) when fix success rate %% is below this",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("inspect", help="summarize a saved dataset")
    p.add_argument("dataset", help=".npz dataset path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("floorplan", help="render a testbed as ASCII")
    p.add_argument("--testbed", default="office", choices=sorted(TESTBEDS))
    p.add_argument("--width", type=int, default=90)
    p.set_defaults(func=cmd_floorplan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
