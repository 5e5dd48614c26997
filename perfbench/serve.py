"""serve-sharded: an open-loop frame stream through ``ShardRouter``.

One process sends CSI frames on a fixed schedule to 2 shard processes
over unix sockets (one connection each).  The small testbed (4 APs),
8 packets per fix, 8 static sources, and the ``coarse`` tier (``tof``)
keep estimation cheap, so router batching, wire encode/decode, sockets
and shard buffering dominate.

Sources take turns sending one packet each (one frame per AP), and each
source's bursts are offset from the previous source's by a fraction of
a burst, so completed bursts arrive evenly.  A burst completes with its
8th packet; its fix latency runs from that packet's due time to the fix
reaching ``take_fixes`` (or the final ``flush``).  Each source's first
burst is the accuracy pass, synthesized from
:data:`ledger.ACCURACY_SEED`; later bursts cycle over bursts drawn from
``--seed``, which also jitters the schedule.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ledger import ACCURACY_SEED, Ledger, Metrics, SpeedProbe, median, peak_rss_mb
from repro import Intel5300, SpotFi, SpotFiConfig
from repro.dist import ShardConfig, ShardRouter, merge_snapshots, start_shards
from repro.dist import protocol
from repro.dist.protocol import MessageType, WireFix
from repro.errors import LocalizationError
from repro.estimators import EstimatorContext, create
from repro.testbed.layout import Testbed, small_testbed
from repro.wifi import CsiTrace

SHARDS = 2
SOURCES = 8
SMOKE_SOURCES = 2
PACKETS_PER_FIX = 8
ESTIMATOR = "tof"
SETUP_REPEATS = 5

#: Bursts synthesized per source: round 0 (accuracy) plus seeded rounds
#: the stream cycles through.
POOL_ROUNDS = 4

#: Offered load, about two thirds of the 2-shard capacity measured with
#: this stream on a 2-core Xeon with BLAS pinned to one thread.
OFFERED_FIXES_PER_S = 40.0

#: A fix later than this counts as failed.
LATENCY_LIMIT_MS = 250.0

#: Stretches of the stream whose latency quantiles are reported by median.
LATENCY_SEGMENTS = 5

#: ToF-only fixes localize from RSSI alone; a few metres is their normal
#: accuracy in the 12 m x 8 m room, so the sanity ceiling sits above it.
ERROR_CEILING_M = 2.0

#: Positions of a served and an in-process fix must agree this closely (m).
REPLAY_TOLERANCE_M = 1e-9


@dataclass
class ServeSetup:
    testbed: Testbed
    names: List[str]
    truths: List[Tuple[float, float]]
    #: pool[source][round] -> per-AP traces.
    pool: List[List[List[CsiTrace]]]
    shards: Dict[str, object]
    router: ShardRouter
    sock_dir: Path
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    clock_s: float = 0.0  # next free frame timestamp

    def traces(self, source: int, round_index: int) -> List[CsiTrace]:
        if round_index == 0:
            return self.pool[source][0]
        return self.pool[source][1 + (round_index - 1) % (POOL_ROUNDS - 1)]


@dataclass
class Phase:
    """What one timed stretch of the stream sent and got back."""

    due: Dict[Tuple[str, float], Tuple[int, int]] = field(default_factory=dict)
    #: (fix, latency in s, perf_counter when it reached the caller)
    arrivals: List[Tuple[WireFix, float, float]] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    sent: List[Tuple[str, str, object]] = field(default_factory=list)
    rounds: int = 0
    wall_s: float = 0.0


def _shard_config() -> ShardConfig:
    return ShardConfig(
        shard_id="bench",
        testbed="small",
        packets_per_fix=PACKETS_PER_FIX,
        min_aps=2,
        estimator=ESTIMATOR,
        seed=0,
    )


def set_up(seed: int, smoke: bool, out_dir: Path) -> ServeSetup:
    """Testbed, trace synthesis, shard start-up and one fix per shard."""
    testbed = small_testbed()
    sim = testbed.simulator()
    aps = testbed.aps
    count = SMOKE_SOURCES if smoke else SOURCES
    spots = [testbed.targets[s % len(testbed.targets)] for s in range(count)]
    names = [f"src-{s:02d}" for s in range(count)]
    profiles = [[sim.profile(spot.position, ap) for ap in aps] for spot in spots]

    def synthesize(rng: np.random.Generator) -> List[List[CsiTrace]]:
        return [
            [
                sim.generate_trace(
                    spot.position, ap, PACKETS_PER_FIX, rng=rng, source=name, profile=p
                )
                for ap, p in zip(aps, row)
            ]
            for spot, name, row in zip(spots, names, profiles)
        ]

    rounds = [synthesize(np.random.default_rng(ACCURACY_SEED))]
    seeded = np.random.default_rng(seed)
    rounds += [synthesize(seeded) for _ in range(POOL_ROUNDS - 1)]
    pool = [[rounds[r][s] for r in range(POOL_ROUNDS)] for s in range(count)]

    sock_dir = out_dir / f"sock{os.getpid()}"
    sock_dir.mkdir(parents=True, exist_ok=True)
    shards = start_shards(SHARDS, _shard_config(), str(sock_dir))
    router = ShardRouter(
        {shard_id: proc.spec for shard_id, proc in shards.items()},
        batch_max_frames=len(aps),
    )
    setup = ServeSetup(
        testbed=testbed,
        names=names,
        truths=[(float(s.position.x), float(s.position.y)) for s in spots],
        pool=pool,
        shards=shards,
        router=router,
        sock_dir=sock_dir,
        rng=seeded,
    )
    try:
        _warm_up(setup)
    except BaseException:
        tear_down(setup)
        raise
    return setup


def _warm_up(setup: ServeSetup) -> None:
    """One fix on every shard, from sources the stream never uses."""
    owners: Dict[str, str] = {}
    index = 0
    while len(owners) < len(setup.shards):
        name = f"warmup-{index}"
        owners.setdefault(setup.router.owner_of(name), name)
        index += 1
    for name in owners.values():
        for k in range(PACKETS_PER_FIX):
            for ap, trace in enumerate(setup.traces(0, 0)):
                frame = replace(trace[k], timestamp_s=setup.clock_s, source=name)
                setup.router.ingest(f"ap{ap}", frame)
            setup.clock_s += 1e-3
    setup.router.flush()


def tear_down(setup: ServeSetup) -> None:
    """Stop every shard and wait for it to exit."""
    try:
        setup.router.shutdown()
    finally:
        setup.router.close()
        for proc in setup.shards.values():
            proc.terminate()
        for proc in setup.shards.values():
            if proc.join(10.0) is None:
                proc.kill()
                proc.join(10.0)
        shutil.rmtree(setup.sock_dir, ignore_errors=True)


def stream(
    setup: ServeSetup,
    seconds: float,
    ledger: Optional[Ledger],
    first_round: int,
    probe: SpeedProbe,
) -> Phase:
    """Send ``seconds`` worth of bursts on the fixed schedule.

    Event slots are evenly spaced and taken by the sources in turn; each
    source runs ``phase.rounds`` back-to-back bursts, started a fraction
    of a burst after the previous source so burst completions (and fix
    work) spread evenly instead of arriving together.  A probe sample
    follows each turn of the sources.  With a ``ledger``,
    every ``ShardRouter.ingest`` and the final ``flush`` get a span and
    the sent frames are kept for the wire measurements.
    """
    router = setup.router
    count = len(setup.names)
    event_rate = OFFERED_FIXES_PER_S * PACKETS_PER_FIX
    phase = Phase(rounds=max(1, math.ceil(seconds * OFFERED_FIXES_PER_S / count)))
    packets = phase.rounds * PACKETS_PER_FIX
    offsets = [s * PACKETS_PER_FIX // count for s in range(count)]
    base = setup.clock_s
    start = time.perf_counter()

    def collect(fixes: List[WireFix]) -> None:
        at = time.perf_counter()
        phase.arrivals.extend(
            (fix, at - start - (fix.timestamp_s - base), at) for fix in fixes
        )

    events = (packets + offsets[-1]) * count
    # Each event lands at a seeded random point of its slot, so the wait
    # for the router's next send to a shard (when replies are read) is
    # not phase-locked to the schedule.
    jitter = setup.rng.uniform(0.0, 1.0, events)
    for event in range(events):
        s = event % count
        j = event // count - offsets[s]  # this source's packet number
        if not 0 <= j < packets:
            continue
        r, k = first_round + j // PACKETS_PER_FIX, j % PACKETS_PER_FIX
        due = (event + jitter[event]) / event_rate
        wait = due - (time.perf_counter() - start)
        if wait > 0.0:
            time.sleep(wait)
        phase.lags_s.append(time.perf_counter() - start - due)
        name = setup.names[s]
        for ap, trace in enumerate(setup.traces(s, r)):
            frame = replace(trace[k], timestamp_s=base + due, source=name)
            ap_id = f"ap{ap}"
            if ledger is None:
                router.ingest(ap_id, frame)
            else:
                with ledger.span("ingest"):
                    router.ingest(ap_id, frame)
                phase.sent.append((router.owner_of(name), ap_id, frame))
        if k == PACKETS_PER_FIX - 1:
            phase.due[(name, base + due)] = (s, r)
        collect(router.take_fixes())
        if s == 0:
            probe.sample()
    if ledger is None:
        collect(router.flush())
    else:
        with ledger.span("flush"):
            collect(router.flush())
    phase.wall_s = time.perf_counter() - start
    setup.clock_s = base + events / event_rate + 1.0
    return phase


@dataclass
class Tally:
    #: Fix latencies in the order their bursts were due: at the reference
    #: host's speed, and as measured.
    latencies_ms: List[float]
    raw_ms: List[float]
    on_time: int
    scheduled: int
    problems: List[str]
    served: Dict[Tuple[int, int], WireFix]

    def latency_ms(self, q: float, raw: bool = False) -> float:
        """Median over equal stretches of the stream of each one's quantile.

        A neighbour's burst of CPU use on a shared machine slows one
        stretch; the median over stretches keeps it from moving the run's
        figure, while each stretch still holds over ten samples beyond p90.
        """
        values = self.raw_ms if raw else self.latencies_ms
        parts = np.array_split(np.asarray(values), LATENCY_SEGMENTS)
        return float(np.median([np.quantile(p, q) for p in parts if len(p)]))


def tally(phase: Phase, probe: SpeedProbe) -> Tally:
    """Match fixes to bursts: one per (source, burst), none late or failed."""
    problems: List[str] = []
    served: Dict[Tuple[int, int], WireFix] = {}
    timed: List[Tuple[float, float, float]] = []
    on_time = 0
    for fix, latency_s, at in phase.arrivals:
        burst = phase.due.get((fix.source, fix.timestamp_s))
        if burst is None:
            problems.append(f"unexpected fix for {fix.source} at {fix.timestamp_s}")
            continue
        if burst in served:
            problems.append(f"duplicate fix for source {burst[0]} round {burst[1]}")
            continue
        served[burst] = fix
        timed.append((fix.timestamp_s, 1e3 * latency_s * probe.scale(at), 1e3 * latency_s))
        if fix.ok and 1e3 * latency_s <= LATENCY_LIMIT_MS:
            on_time += 1
    missing = len(phase.due) - len(served)
    if missing:
        problems.append(f"{missing} bursts got no fix")
    timed.sort()
    return Tally(
        [scaled for _, scaled, _ in timed],
        [raw for _, _, raw in timed],
        on_time,
        len(phase.due),
        problems,
        served,
    )


def replay_accuracy_pass(
    setup: ServeSetup, served: Dict[Tuple[int, int], WireFix], ledger: Optional[Ledger]
) -> Tuple[List[float], List[str]]:
    """Re-run round 0 in process and compare with what the shards served.

    Untraced, each fix goes through ``SpotFi.locate(..., estimator="tof")``;
    traced, the benchmark calls the tof estimator's ``estimate_ap`` per AP
    and its ``fuse`` itself, under ``fix > ap[k] > tof`` and ``fix > solve``
    spans.  Returns the served fixes' errors and any mismatch.
    """
    grid = Intel5300().grid()
    config = SpotFiConfig(packets_per_fix=PACKETS_PER_FIX)
    spotfi = SpotFi(grid, bounds=setup.testbed.bounds, config=config)
    estimator = create(
        ESTIMATOR, EstimatorContext(grid=grid, bounds=setup.testbed.bounds, config=config)
    )
    errors: List[float] = []
    problems: List[str] = []
    for s, truth in enumerate(setup.truths):
        fix = served.get((s, 0))
        if fix is None or not fix.ok:
            problems.append(f"accuracy pass: source {s} has no fix")
            continue
        pairs = list(zip(setup.testbed.aps, setup.traces(s, 0)))
        if ledger is None:
            try:
                position = spotfi.locate(pairs, estimator=ESTIMATOR).position
                local = (float(position.x), float(position.y))
            except LocalizationError:
                local = None
        else:
            local = _traced_fix(estimator, pairs, ledger)
        if local is None:
            problems.append(f"accuracy pass: source {s} fails in process")
        elif max(abs(local[0] - fix.x), abs(local[1] - fix.y)) > REPLAY_TOLERANCE_M:
            problems.append(
                f"accuracy pass: source {s} served ({fix.x}, {fix.y}) but "
                f"in process {local}"
            )
        errors.append(float(np.hypot(fix.x - truth[0], fix.y - truth[1])))
    return errors, problems


def _traced_fix(estimator, pairs, ledger: Ledger) -> Optional[Tuple[float, float]]:
    with ledger.span("fix"):
        estimates = []
        for k, (array, trace) in enumerate(pairs):
            with ledger.span(f"ap[{k}]"):
                with ledger.span("tof"):
                    estimates.append(estimator.estimate_ap(array, trace))
        usable = [e for e in estimates if e.usable]
        if len(usable) < 2:
            return None
        with ledger.span("solve") as span:
            result = estimator.fuse(usable)
            span.attrs["iterations"] = int(result.iterations)
    return (float(result.position.x), float(result.position.y))


def wire_costs(phase: Phase, batch_frames: int, ledger: Ledger) -> Tuple[int, int]:
    """Encode and decode the phase's batches again, under wire spans.

    Rebuilds the batches the router shipped (per shard, in send order,
    ``batch_frames`` at a time) and returns (frames, bytes on the wire).
    """
    per_shard: Dict[str, List[Tuple[str, object, int]]] = {}
    seqs: Dict[str, int] = {}
    for shard_id, ap_id, frame in phase.sent:
        seq = seqs.get(frame.source, 0) + 1
        seqs[frame.source] = seq
        per_shard.setdefault(shard_id, []).append((ap_id, frame, seq))
    frames = wire_bytes = 0
    for entries in per_shard.values():
        for i in range(0, len(entries), batch_frames):
            batch = entries[i : i + batch_frames]
            with ledger.span("wire.encode", frames=len(batch)):
                payload = protocol.encode_frames(batch)
            with ledger.span("wire.decode", frames=len(batch)):
                protocol.decode_frames_seq(payload)
            frames += len(batch)
            wire_bytes += len(protocol.encode_message(MessageType.INGEST, payload))
    return frames, wire_bytes


def _cluster_view(router: ShardRouter) -> Tuple[dict, dict]:
    """(merged shard snapshot, router counters)."""
    snapshots = [
        reply["snapshot"]
        for reply in router.pull_metrics()
        if isinstance(reply.get("snapshot"), dict)
    ]
    return merge_snapshots(snapshots), router.stats()["counters"]


def _fault_problems(shard: dict, counters: dict) -> List[str]:
    found = {
        "dist.failover.shard_down": counters.get("dist.failover.shard_down", 0),
        "dist.failover.stranded": counters.get("dist.failover.stranded", 0),
        "dist.dedup.duplicates": shard["counters"].get("dist.dedup.duplicates", 0),
    }
    return [f"{name} = {value}, expected 0" for name, value in found.items() if value]


def run(seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    probe = SpeedProbe()
    setups: List[Tuple[float, float]] = []  # (as measured, reference speed)
    setup: Optional[ServeSetup] = None
    try:
        for _ in range(1 if smoke or trace else SETUP_REPEATS):
            if setup is not None:
                tear_down(setup)
                setup = None
            setup, took, scaled = probe.timed(lambda: set_up(seed, smoke, out_dir))
            setups.append((took, scaled))
        return _measure(setup, setups, seconds, trace, probe)
    finally:
        if setup is not None:
            tear_down(setup)


def _measure(
    setup: ServeSetup,
    setups: Sequence[Tuple[float, float]],
    seconds: float,
    trace: bool,
    probe: SpeedProbe,
) -> dict:
    metrics = Metrics()
    ledger = Ledger()
    if not trace:
        phase = stream(setup, seconds, None, 0, probe)
        result = tally(phase, probe)
        errors, problems = replay_accuracy_pass(setup, result.served, None)
        shard, counters = _cluster_view(setup.router)
        rss = peak_rss_mb(proc.process.pid for proc in setup.shards.values())
        problems = result.problems + problems + _fault_problems(shard, counters)
        if errors and median(errors) > ERROR_CEILING_M:
            problems.append(
                f"error_median_m {median(errors):.3f} above the "
                f"{ERROR_CEILING_M} m ceiling"
            )
        scheduled = result.scheduled
        metrics.put(
            "setup_s",
            median([s for _, s in setups]),
            "s",
            len(setups),
            raw=median([t for t, _ in setups]),
        )
        metrics.put("fixes_per_s", result.on_time / phase.wall_s, "1/s", scheduled)
        served = len(result.latencies_ms)
        for name, q in (("fix_latency_p50_ms", 0.5), ("fix_latency_p90_ms", 0.9)):
            metrics.put(
                name, result.latency_ms(q), "ms", served, raw=result.latency_ms(q, True)
            )
        metrics.put("fix_success_ratio", result.on_time / scheduled, "ratio", scheduled)
        metrics.put_quantile("error_median_m", errors, 0.5, "m")
        metrics.put_quantile("error_p90_m", errors, 0.9, "m")
        metrics.put("peak_rss_mb", rss, "MB", 1 + len(setup.shards))
        attempted, failed = scheduled, scheduled - result.on_time
    else:
        plain = stream(setup, seconds / 2, None, 0, probe)
        plain_tally = tally(plain, probe)
        traced = stream(setup, seconds / 2, ledger, plain.rounds, probe)
        result = tally(traced, probe)
        _, problems = replay_accuracy_pass(setup, plain_tally.served, ledger)
        frames, wire_bytes = wire_costs(traced, setup.router.batch_max_frames, ledger)
        shard, counters = _cluster_view(setup.router)
        problems = plain_tally.problems + result.problems + problems
        problems += _fault_problems(shard, counters)
        _shard_metrics(metrics, shard, counters)
        _router_metrics(metrics, ledger, traced, frames, wire_bytes)
        fix = shard["timings"].get("fix", {})
        mean_fix_ms = 1e3 * float(fix.get("mean_item_s", 0.0))
        served = len(result.latencies_ms)
        for name, q in (("dist.queue_wait.ms", 0.5), ("dist.queue_wait.p90_ms", 0.9)):
            metrics.put(name, result.latency_ms(q, raw=True) - mean_fix_ms, "ms", served)
        metrics.put(
            "host.probe.ms", 1e3 * median(probe.durations), "ms", len(probe.durations)
        )
        metrics.put_quantile("core.solve.ms", ledger.self_ms("solve"), 0.5, "ms")
        metrics.put_quantile(
            "core.solve.iterations",
            [float(s.attrs["iterations"]) for s in ledger.named("solve")],
            0.5,
            "count",
        )
        metrics.put(
            "obs.trace_overhead_ratio",
            (plain_tally.on_time / plain.wall_s) / (result.on_time / traced.wall_s)
            if result.on_time
            else 0.0,
            "ratio",
            result.scheduled,
        )
        attempted = plain_tally.scheduled + result.scheduled
        failed = attempted - plain_tally.on_time - result.on_time
    return {
        "metrics": metrics,
        "checks": problems,
        "attempted": attempted,
        "failed": failed,
        "ledger": ledger,
    }


def _shard_metrics(metrics: Metrics, shard: dict, counters: dict) -> None:
    """Shard-side layers, from the metrics the shards expose."""
    timings = shard["timings"]
    fix = timings.get("fix", {})
    fix_q = fix.get("quantiles", {})
    items = int(fix.get("items", 0))
    metrics.put("server.fix.ms", 1e3 * float(fix_q.get("p50", 0.0)), "ms", items)
    metrics.put("server.fix.p90_ms", 1e3 * float(fix_q.get("p90", 0.0)), "ms", items)
    tof = timings.get(f"estimate.{ESTIMATOR}", {})
    metrics.put(
        "estimators.tof.ms",
        1e3 * float(tof.get("quantiles", {}).get("p50", 0.0)),
        "ms",
        int(tof.get("items", 0)),
    )
    sent = counters.get("dist.frames.sent", 0)
    accepted = shard["counters"].get("ingest.accepted", 0)
    metrics.put("server.accept_ratio", accepted / sent if sent else 0.0, "ratio", sent)
    metrics.put(
        "dist.failover.count", counters.get("dist.failover.shard_down", 0), "count", 1
    )
    metrics.put(
        "dist.dedup.duplicates",
        shard["counters"].get("dist.dedup.duplicates", 0),
        "count",
        1,
    )


def _router_metrics(
    metrics: Metrics, ledger: Ledger, traced: Phase, frames: int, wire_bytes: int
) -> None:
    """Router, wire and load-generator layers, from the benchmark's spans."""
    ingest = ledger.self_ms("ingest")
    metrics.put_quantile("dist.router.ingest.ms", ingest, 0.5, "ms")
    metrics.put_quantile("dist.router.ingest.p99_ms", ingest, 0.99, "ms")
    metrics.put_quantile("dist.router.flush.ms", ledger.self_ms("flush"), 0.5, "ms")
    for name, stage in (
        ("dist.protocol.encode.us", "wire.encode"),
        ("dist.protocol.decode.us", "wire.decode"),
    ):
        busy_s = sum(s.self_s for s in ledger.named(stage))
        metrics.put(name, 1e6 * busy_s / max(frames, 1), "us", frames)
    bursts = len(traced.due)
    metrics.put("dist.protocol.bytes_per_fix", wire_bytes / max(bursts, 1), "B", bursts)
    lags = [1e3 * lag for lag in traced.lags_s]
    metrics.put_quantile("load.lag_p99_ms", lags, 0.99, "ms")
