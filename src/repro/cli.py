"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — simulate a collection burst on a built-in testbed and
  save it as a portable ``.npz`` dataset.
* ``locate`` — localize a saved dataset with SpotFi (optionally also the
  ArrayTrack baseline) and print the fix.  ``--workers N`` fans the
  estimation (one task per AP) across N processes (default 1 = serial).
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
import json
import os
import signal
import sys
import tempfile
from types import FrameType
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.arraytrack import ArrayTrack
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.dist.chaos import SCENARIOS, format_report, gate, run_chaos
from repro.dist.protocol import WireFix, parse_bind
from repro.dist.rollup import (
    pull_shard_metrics,
    rollup_exposition,
    start_cluster_telemetry,
)
from repro.dist.router import ShardRouter
from repro.dist.shard import ShardConfig, run_shard, start_shards
from repro.errors import ConfigurationError, ReproError
from repro.io.traces import LocationDataset, load_dataset, save_dataset
from repro.obs.collector import collect_trace_dir, format_merged_traces
from repro.obs.config import ObsConfig
from repro.obs.prometheus import render_prometheus
from repro.obs.slo import SloTracker
from repro.obs.trace import JsonlSpanExporter, Tracer, format_span_tree
from repro.runtime import (
    OVERFLOW_POLICIES,
    RuntimeMetrics,
    create_executor,
    default_steering_cache,
)
from repro.server import FixEvent, SpotFiServer
from repro.testbed.collection import collect_location
from repro.testbed.layout import TESTBEDS, Testbed, testbed_by_name
from repro.wifi.csi import CsiFrame
from repro.wifi.intel5300 import Intel5300

#: A subcommand's handler: parsed arguments in, process exit code out.
Handler = Callable[[argparse.Namespace], int]


def _spotfi(args: argparse.Namespace, **kwargs: Any) -> SpotFi:
    """The pipeline every localizing command runs.

    Built from ``--testbed``, ``--packets`` and, where the command takes
    it, ``--estimation``; ``kwargs`` pass the executor or tracer through.
    """
    return SpotFi(
        Intel5300().grid(),
        bounds=testbed_by_name(args.testbed).bounds,
        config=SpotFiConfig(
            packets_per_fix=args.packets,
            estimation=getattr(args, "estimation", "music"),
        ),
        rng=np.random.default_rng(0),
        **kwargs,
    )


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
    elif (args.x is None) != (args.y is None):
        raise ReproError("--x and --y must be given together")
    elif args.x is not None:
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
    with create_executor(args.workers) as executor:
        spotfi = _spotfi(args, executor=executor)
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
        at = ArrayTrack(
            spotfi.grid, bounds=spotfi.bounds, packets_per_fix=args.packets
        )
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


def _shard_config(
    args: argparse.Namespace, shard_id: str, min_aps: int, **extra: Any
) -> ShardConfig:
    """The shard recipe ``serve --shards`` and ``shard`` build alike."""
    return ShardConfig(
        shard_id=shard_id,
        testbed=args.testbed,
        packets_per_fix=args.packets,
        min_aps=min_aps,
        max_buffered_packets=args.max_buffer,
        overflow_policy=args.overflow_policy,
        max_burst_age_s=args.max_age,
        workers=args.workers,
        estimator=args.estimator,
        downgrade_tier=args.downgrade_tier,
        trace_dir=args.trace_dir,
        sample_rate=args.sample_rate,
        **extra,
    )


def _serve_tracer(args: argparse.Namespace, service: str) -> Tracer:
    """A ``--sample-rate`` tracer exporting to ``--trace-dir`` when set."""
    exporters = []
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        exporters.append(
            JsonlSpanExporter(os.path.join(args.trace_dir, f"{service}.jsonl"))
        )
    return Tracer(
        ObsConfig(sample_rate=args.sample_rate),
        exporters=exporters,
        service=service,
    )


def _print_fix(
    index: int,
    timestamp_s: float,
    source: str,
    position: Optional[Tuple[float, float]],
    tag: str,
    downgraded: bool = False,
) -> None:
    """Print one fix event line; a ``None`` position is a failed fix."""
    where = "FAILED" if position is None else "({:.2f}, {:.2f}) m".format(*position)
    line = f"fix #{index} t={timestamp_s:.2f}s source={source!r}: {where} [{tag}]"
    print(line + (" (downgraded)" if downgraded else ""))


def _serve_sharded(args: argparse.Namespace) -> int:
    """``serve --shards N``: replay through a router over shard workers."""
    dataset = load_dataset(args.dataset)
    config = _shard_config(args, "template", min(args.min_aps, dataset.num_aps))
    base_port = 0
    host = "127.0.0.1"
    if args.bind:
        bind = parse_bind(args.bind)
        if bind.kind != "tcp":
            raise ReproError(
                "serve --bind takes the tcp:HOST:PORT base address "
                "(shard i listens on PORT + i); omit it for Unix sockets"
            )
        base_port, host = bind.port, bind.host
    sources = [f"target-{j:02d}" for j in range(max(1, args.sources))]
    num_fixes = 0

    def print_fixes(fixes: List[WireFix]) -> None:
        nonlocal num_fixes
        for fix in fixes:
            num_fixes += 1
            position = (fix.x, fix.y) if fix.ok else None
            tag = f"{fix.num_aps} APs, {fix.shard}"
            _print_fix(
                num_fixes, fix.timestamp_s, fix.source, position, tag, fix.downgraded
            )

    router_tracer = _serve_tracer(args, "router") if args.trace_dir else None
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
                    print_fixes(router.take_fixes())
            print_fixes(router.flush())
            replies = router.pull_metrics()
            stats = router.stats()
            print_fixes(router.shutdown())
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
    metrics = RuntimeMetrics()
    tracer: Optional[Tracer] = None
    if args.trace_dir or args.http_port:
        tracer = _serve_tracer(args, "server")
    with create_executor(args.workers, metrics=metrics) as executor:
        server = SpotFiServer(
            spotfi=_spotfi(args, executor=executor, tracer=tracer),
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
            if event.fix is None:
                tag = f"{event.num_aps} APs"
                _print_fix(num_events, event.timestamp_s, event.source, None, tag)
                return
            position = event.fix.position.as_tuple()
            tag = f"{event.num_aps} APs, {event.estimator}"
            _print_fix(num_events, event.timestamp_s, event.source, position, tag,
                       event.downgraded)
            if dataset.target is not None:
                print(f"  error vs truth: {event.fix.error_to(dataset.target):.2f} m")

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
    config = _shard_config(
        args,
        args.id,
        args.min_aps,
        breaker_threshold=args.breaker_threshold,
        breaker_recovery_s=args.breaker_recovery,
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
    exporters = [JsonlSpanExporter(args.jsonl)] if args.jsonl else []
    tracer = Tracer(
        ObsConfig(capture_artifacts=args.artifacts), exporters=exporters
    )
    try:
        fix = _spotfi(args, tracer=tracer).locate(dataset.ap_trace_pairs())
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
    metrics = RuntimeMetrics()
    with create_executor(args.workers, metrics=metrics) as executor:
        spotfi = _spotfi(args, executor=executor)
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
    if cols < 1 or rows < 1:
        raise ConfigurationError(
            f"a floorplan needs at least 1 column and 1 row, got {cols} x {rows}"
        )
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
    art = render_floorplan(testbed, cols=args.width)
    print(f"testbed '{testbed.name}': bounds {testbed.bounds}")
    print(art)
    print(f"{len(testbed.targets)} targets, {len(testbed.aps)} APs")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
#: Every argument the CLI takes, declared once: its flag (or positional
#: name) and its argparse keyword arguments.
_OPTIONS: Dict[str, Dict[str, Any]] = {
    "output": dict(help="output .npz path"),
    "dataset": dict(help=".npz dataset path"),
    "--testbed": dict(default="office", choices=sorted(TESTBEDS)),
    "--target-label": dict(default="", help="target label (see floorplan)"),
    "--x": dict(type=float, default=None),
    "--y": dict(type=float, default=None),
    "--packets": dict(type=int, default=40, help="packets per fix burst"),
    "--seed": dict(type=int, default=0),
    "--estimation": dict(default="music", choices=("music", "esprit")),
    "--estimator": dict(
        default="",
        help="registry estimator or QoS tier (precise/balanced/coarse) for "
        "every fix; empty runs the classic pipeline (see docs/ESTIMATORS.md)",
    ),
    "--arraytrack": dict(action="store_true", help="also run the baseline"),
    "--workers": dict(
        type=int,
        default=1,
        help="worker processes for estimation, one task per AP (1 = serial)",
    ),
    "--min-aps": dict(type=int, default=2),
    "--track": dict(action="store_true", help="Kalman-filter the fixes"),
    "--max-buffer": dict(
        type=int,
        default=0,
        help="per-(source, AP) buffer capacity in packets (0 = unbounded)",
    ),
    "--overflow-policy": dict(default="drop-oldest", choices=OVERFLOW_POLICIES),
    "--max-age": dict(
        type=float,
        default=0.0,
        help="evict partial bursts idle for this many seconds (0 = never)",
    ),
    "--shards": dict(
        type=int,
        default=1,
        help="shard worker processes behind a consistent-hash router "
        "(1 = single in-process server)",
    ),
    "--bind": dict(
        default="",
        help="shard address, unix:/path/to.sock or tcp:HOST:PORT; serve "
        "takes a tcp base address (shard i listens on PORT + i) and "
        "defaults to Unix sockets in a temp dir",
    ),
    "--sources": dict(
        type=int,
        default=1,
        help="fan the dataset out as this many synthetic targets "
        "(sharded mode; exercises the hash ring)",
    ),
    "--downgrade-tier": dict(
        default="",
        help="serve fixes on this tier instead of shedding when a "
        "breaker trips (e.g. coarse); empty keeps shedding",
    ),
    "--http-port": dict(
        type=int,
        default=0,
        help="serve /metrics, /healthz and /traces on this port; 0 = off "
        "(serve --shards: cluster rollup here, shard i on PORT+1+i)",
    ),
    "--sample-rate": dict(
        type=float,
        default=1.0,
        help="head-sampling rate for traces in [0, 1] (a shard's "
        "router-initiated traces carry their own verdict)",
    ),
    "--trace-dir": dict(
        default="",
        help="export spans as JSONL under this directory (one file per "
        "process); merge afterwards with `trace --merge DIR`",
    ),
    "--ready-timeout": dict(
        type=float,
        default=30.0,
        help="seconds to wait for each shard worker's ready handshake "
        "before failing startup (sharded mode)",
    ),
    "--connect-timeout": dict(
        type=float,
        default=0.0,
        help="router connect timeout per shard in seconds; failures "
        "report 'connect timeout' instead of a generic send error "
        "(0 = use the I/O timeout; sharded mode)",
    ),
    "--id": dict(default="shard0", help="shard id for fixes/metrics"),
    "--breaker-threshold": dict(
        type=int,
        default=0,
        help="consecutive AP failures that open its breaker (0 = off)",
    ),
    "--breaker-recovery": dict(
        type=float,
        default=10.0,
        help="seconds an open breaker waits before half-opening",
    ),
    "--merge": dict(
        default="",
        help="merge the JSONL span exports under this directory into "
        "cross-process trace trees instead of running a localization",
    ),
    "--artifacts": dict(
        action="store_true",
        help="capture downsampled pseudospectra and cluster stats into spans",
    ),
    "--jsonl": dict(default="", help="also export finished spans to this JSONL file"),
    "--from-shards": dict(
        default="",
        help="comma-separated shard endpoints (unix:/... or tcp:...) to "
        "pull and merge metrics from instead of a local run",
    ),
    "--repeats": dict(type=int, default=1, help="locate passes to accumulate"),
    "--scenario": dict(default="mixed", choices=SCENARIOS),
    "--bursts": dict(type=int, default=4, help="bursts to stream"),
    "--min-success": dict(
        type=float,
        default=90.0,
        help="fail (exit 1) when fix success rate %% is below this",
    ),
    "--json": dict(action="store_true", help="emit the report as JSON"),
    "--width": dict(type=int, default=90),
}

#: Each subcommand: name, handler, help, the options it takes (names in
#: :data:`_OPTIONS`), and its own defaults for them.
_COMMANDS: List[Tuple[str, Handler, str, str, Dict[str, Any]]] = [
    ("simulate", cmd_simulate, "simulate a collection burst to .npz",
     "output --testbed --target-label --x --y --packets --seed", {}),
    ("locate", cmd_locate, "localize a saved dataset",
     "dataset --testbed --packets --estimation --estimator --arraytrack --workers",
     {}),
    ("serve", cmd_serve, "replay a dataset through the server",
     "dataset --testbed --packets --min-aps --track --workers --max-buffer "
     "--overflow-policy --max-age --shards --bind --sources --estimator "
     "--downgrade-tier --http-port --sample-rate --trace-dir --ready-timeout "
     "--connect-timeout", {"packets": 10}),
    ("shard", cmd_shard, "run one dist shard worker in the foreground",
     "--bind --id --testbed --packets --min-aps --workers --max-buffer "
     "--overflow-policy --max-age --breaker-threshold --breaker-recovery "
     "--estimator --downgrade-tier --http-port --sample-rate --trace-dir",
     {"testbed": "small", "packets": 8}),
    ("trace", cmd_trace, "localize with tracing, print the span tree",
     "dataset --merge --testbed --packets --estimation --artifacts --jsonl", {}),
    ("metrics", cmd_metrics, "localize and print the Prometheus-style exposition",
     "dataset --from-shards --testbed --packets --repeats --workers", {}),
    ("chaos", cmd_chaos, "run a seeded fault-injection scenario end to end",
     "--scenario --testbed --seed --packets --bursts --min-aps --min-success --json",
     {"testbed": "small", "seed": 7, "packets": 8}),
    ("inspect", cmd_inspect, "summarize a saved dataset", "dataset", {}),
    ("floorplan", cmd_floorplan, "render a testbed as ASCII", "--testbed --width", {}),
]

#: Keyword arguments that differ from :data:`_OPTIONS` in one subcommand.
_OVERRIDES: Dict[Tuple[str, str], Dict[str, Any]] = {
    ("shard", "--bind"): dict(required=True),
    ("trace", "dataset"): dict(
        nargs="?", default="", help=".npz dataset path (not needed with --merge)"
    ),
    ("metrics", "dataset"): dict(
        nargs="?", default="", help=".npz dataset path (not needed with --from-shards)"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotFi reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            overrides = _OVERRIDES.get((name, option), {})
            p.add_argument(option, **{**_OPTIONS[option], **overrides})
        p.set_defaults(func=handler, **defaults)
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
