"""Chaos scenarios: seeded end-to-end fault drills behind one registry.

A chaos run streams simulated bursts through the serving path with a
fault armed, then reports what survived: fix success rate, localization
error, what was injected or quarantined, and the final breaker states.
:data:`SCENARIOS` maps every scenario name to a :class:`Scenario` — its
runner, its fault mix and the :class:`Verdict` s its gate asserts — and
:func:`gate` turns a :class:`ChaosReport` into the failure messages that
``repro chaos --scenario <name>`` prints before exiting 1.

Single-server scenarios drive a fully armed
:class:`~repro.server.SpotFiServer`: a fault injector corrupting live
traffic, a frame validator quarantining the structural damage, per-AP
circuit breakers shedding flapping APs.

``clean``
    No faults — the control run (and the overhead baseline).
``nan``
    NaN subcarrier bursts plus occasional dead antennas: everything the
    validator must quarantine before MUSIC.
``truncate``
    Short CSI reports and lost packets: shape faults and burst gaps.
``blackout``
    One AP goes dark halfway through the run; fixes must degrade to the
    surviving quorum.  The matching ``clean`` run is replayed with the
    same seeds to report the accuracy cost.
``mixed``
    A moderate blend of all failure modes, including phase glitches that
    *pass* validation and must be absorbed by clustering + likelihood
    weighting.
``downgrade``
    An AP's circuit breaker is forced open mid-stream on a server
    configured with ``downgrade_tier="coarse"``.  Instead of shedding the
    AP, every later fix must keep serving on the coarse estimator tier
    (``downgraded_fixes``) — degradation in precision, not availability.

Distributed scenarios drive real shard subprocesses behind a
:class:`~repro.dist.router.ShardRouter` through one cluster-drill
harness.  Success is counted **per source**: a source succeeds when at
least one successful fix was delivered for it — what a user of the
cluster observes ("did target X get a position?").

``shard-kill``
    The first source's owner is SIGKILLed mid-stream; its key range
    re-hashes onto the survivors, its journaled in-flight frames are
    replayed to the new owner, and fixes must keep flowing.
``moving-target``
    Moving sources on tracking shards; the owner of the first source is
    SIGKILLed mid-track, and its tracks must *resume* on the ring
    successors (``resumed_tracks``) instead of restarting cold.
``corrupt-bytes`` / ``reset-storm`` / ``slow-link`` / ``crash-restart``
    The transport matrix (:data:`NETWORK_SCENARIOS`): seeded wire faults
    from :mod:`repro.faults.network` on the router↔shard sockets — or a
    SIGKILL for ``crash-restart`` — with a
    :class:`~repro.dist.supervisor.ShardSupervisor` restarting and
    re-admitting casualties.  At-least-once replay plus shard-side
    ``(source, seq)`` dedup must keep fix counts exact
    (``excess_fixes``) and every source routable (``unrouted_sources``).

Every run is seeded, but only the single-server scenarios (``clean``,
``nan``, ``truncate``, ``blackout``, ``mixed``, ``downgrade``) replay
the identical report for a given ``(scenario, seed)``.  The distributed
drills race real processes and sockets, so counts such as ``replayed``
and the median error vary with process scheduling (``crash-restart``
keeps its counts but not always its median error); their verdicts are
bounds that hold across runs.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.dist.protocol import WireFix
from repro.dist.rollup import start_cluster_telemetry
from repro.dist.router import ShardRouter
from repro.dist.shard import ShardConfig, ShardProcess, start_shards
from repro.dist.supervisor import ShardSupervisor
from repro.errors import ConfigurationError, ShardUnavailableError
from repro.faults.injector import FaultInjector
from repro.faults.network import (
    BlackHole,
    ConnectionReset,
    CorruptBytes,
    NetworkFaultInjector,
    NetworkFaultSpec,
    SlowLink,
)
from repro.faults.spec import (
    ApBlackout,
    DropAntenna,
    DropFrame,
    DuplicateFrame,
    FaultSpec,
    NanSubcarriers,
    PhaseGlitch,
    TruncatePacket,
)
from repro.faults.validator import FrameValidator, ValidationPolicy
from repro.mobility.evaluation import PACKET_INTERVAL_S, sample_speed_trajectory
from repro.mobility.handoff import HandoffPolicy
from repro.mobility.motion import motion_bursts
from repro.obs.http import fetch_json
from repro.runtime.metrics import RuntimeMetrics
from repro.server import SpotFiServer
from repro.testbed.layout import Testbed, testbed_by_name
from repro.wifi.csi import CsiFrame

#: Fraction of a distributed drill's stream after which the first
#: source's owner is SIGKILLed.
KILL_FRACTION = 0.4

#: Supervisor restarts allowed per shard in the transport matrix.
RESTART_BUDGET = 2

#: Concurrent moving targets in the ``moving-target`` drill.
NUM_SOURCES = 3

#: Speed profile of those targets (see
#: :data:`~repro.testbed.mobility.SPEED_PROFILES`).
SPEED = "pedestrian"

#: Callback handed the cluster or server ``/healthz`` payload mid-drill.
Probe = Callable[[Dict[str, Any]], None]

#: One step of distributed traffic: ``(ap_id, frame)`` in delivery order.
Step = List[Tuple[str, CsiFrame]]


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos run (plain data; see :meth:`to_dict`).

    Attributes
    ----------
    scenario, testbed, seed, bursts:
        The run's identity — enough to replay it exactly.
    fixes_attempted:
        Bursts streamed (each ends in a flush, so each is one fix
        opportunity); sources, for the distributed scenarios.
    fixes_ok:
        Bursts (sources) that produced a successful fix.
    degraded_fixes:
        Successful fixes that lost at least one AP to isolation.
    downgraded_fixes:
        Successful fixes served on the breaker downgrade tier instead
        of the requested estimator (``downgrade`` scenario).
    median_error_m:
        Median localization error over successful fixes (NaN if none).
    quarantined:
        Validator rejections per reason.
    injected:
        Faults actually injected per kind; the distributed scenarios
        carry their ``dist.failover.*`` counters and verdict counts here.
    breakers:
        Final per-AP breaker states (only APs whose breaker was
        instantiated appear; ``shard/ap`` for the distributed scenarios).
    clean_median_error_m:
        Median error of the matching ``clean`` control run, when one was
        performed (blackout scenario); NaN otherwise.
    """

    scenario: str
    testbed: str
    seed: int
    bursts: int
    fixes_attempted: int
    fixes_ok: int
    degraded_fixes: int
    median_error_m: float
    downgraded_fixes: int = 0
    quarantined: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    breakers: Dict[str, str] = field(default_factory=dict)
    clean_median_error_m: float = float("nan")

    @property
    def success_rate(self) -> float:
        """Fraction of attempted fixes that succeeded (0..1)."""
        if not self.fixes_attempted:
            return 0.0
        return self.fixes_ok / self.fixes_attempted

    @property
    def error_delta_m(self) -> float:
        """Accuracy cost vs the clean control run (NaN when no control)."""
        return self.median_error_m - self.clean_median_error_m

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable view of the report."""
        return {
            "scenario": self.scenario,
            "testbed": self.testbed,
            "seed": self.seed,
            "bursts": self.bursts,
            "fixes_attempted": self.fixes_attempted,
            "fixes_ok": self.fixes_ok,
            "success_rate": self.success_rate,
            "degraded_fixes": self.degraded_fixes,
            "downgraded_fixes": self.downgraded_fixes,
            "median_error_m": self.median_error_m,
            "clean_median_error_m": self.clean_median_error_m,
            "quarantined": dict(self.quarantined),
            "injected": dict(self.injected),
            "breakers": dict(self.breakers),
        }


@dataclass(frozen=True)
class Verdict:
    """One gate check beyond the success floor.

    ``key`` names a :class:`ChaosReport` field or else a key of its
    ``injected`` dict (absent keys read as 0).  The check passes when
    ``at_least <= value`` and, if ``at_most`` is set, ``value <=
    at_most``; otherwise ``message`` (with ``{value}`` filled in) is
    the failure.
    """

    key: str
    message: str
    at_least: int = 0
    at_most: Optional[int] = None

    def failure(self, report: ChaosReport) -> Optional[str]:
        """The failure message for ``report``, or None when it passes."""
        value = int(getattr(report, self.key, report.injected.get(self.key, 0)))
        if value >= self.at_least and (self.at_most is None or value <= self.at_most):
            return None
        return self.message.format(value=value)


@dataclass(frozen=True)
class _Run:
    """One validated chaos run request, as every runner receives it."""

    scenario: str
    testbed: str
    seed: int
    packets_per_fix: int
    bursts: int
    min_aps: int
    oversample: float
    probe: Optional[Probe]
    num_shards: int = 3

    def __post_init__(self) -> None:
        if self.bursts < 1:
            raise ConfigurationError(f"bursts must be >= 1, got {self.bursts}")
        if self.oversample < 1.0:
            raise ConfigurationError("oversample must be >= 1.0")

    def stream_packets(self, oversample_floor: float = 1.0) -> int:
        """Packets each sender transmits per burst.

        Lossy scenarios quarantine or drop part of the traffic, and the
        distributed drills lose a shard's partial bursts, so — as in a
        live deployment — senders keep transmitting past one burst.
        """
        oversample = max(self.oversample, oversample_floor)
        return max(self.packets_per_fix, int(round(self.packets_per_fix * oversample)))


def _counters(metrics: RuntimeMetrics, prefix: str, rename: str = "") -> Dict[str, int]:
    """Counters under ``prefix``, keyed ``rename`` + the rest of the name."""
    counters = metrics.snapshot()["counters"]
    return {
        rename + name[len(prefix) :]: int(value)
        for name, value in counters.items()
        if name.startswith(prefix)
    }


def _median(errors: Sequence[float]) -> float:
    return float(np.median(errors)) if errors else float("nan")


# ----------------------------------------------------------------------
# Single-server runner
# ----------------------------------------------------------------------
def _run_server(run: _Run) -> ChaosReport:
    """Stream ``bursts`` simulated bursts through an armed server.

    Each burst targets the next testbed location (cycling), with its own
    source id; packets interleave across APs exactly as a live central
    server would see them, and a flush closes every burst so stragglers
    (dropped frames, blacked-out APs) cannot stall a fix forever.  A
    probe scrapes the server's own ``/healthz`` after every burst.
    """
    tb = testbed_by_name(run.testbed)
    sim = tb.simulator()
    stream_packets = run.stream_packets()
    specs = scenario_specs(run.scenario, packets_per_fix=stream_packets, bursts=run.bursts)
    metrics = RuntimeMetrics()
    spotfi = SpotFi(
        sim.grid,
        bounds=tb.bounds,
        config=SpotFiConfig(packets_per_fix=run.packets_per_fix, min_aps=run.min_aps),
        rng=np.random.default_rng(run.seed),
    )
    injector = (
        FaultInjector(specs, rng=np.random.default_rng(run.seed), metrics=metrics)
        if specs
        else None
    )
    validator = FrameValidator(
        ValidationPolicy(
            expected_antennas=tb.aps[0].num_antennas,
            expected_subcarriers=sim.grid.num_subcarriers,
        ),
        metrics=metrics,
    )
    burst_span_s = stream_packets * PACKET_INTERVAL_S
    downgrading = run.scenario == "downgrade"
    server = SpotFiServer(
        spotfi=spotfi,
        aps={f"ap{i}": ap for i, ap in enumerate(tb.aps)},
        packets_per_fix=run.packets_per_fix,
        min_aps=run.min_aps,
        max_burst_age_s=2.0 * burst_span_s,
        metrics=metrics,
        validator=validator,
        fault_injector=injector,
        breaker_threshold=2,
        # The downgrade drill keeps the breaker open for the rest of the
        # run so every post-trip fix exercises the coarse tier.
        breaker_recovery_s=(run.bursts + 1) * burst_span_s
        if downgrading
        else burst_span_s,
        downgrade_tier="coarse" if downgrading else "",
    )
    # Real HTTP on an ephemeral port: the probe sees exactly what a load
    # balancer polling /healthz would see mid-scenario.
    telemetry = server.start_telemetry(port=0) if run.probe is not None else None
    data_rng = np.random.default_rng(run.seed + 1)
    errors: List[float] = []
    fixes_ok = 0
    degraded_fixes = 0
    downgraded_fixes = 0
    try:
        for burst in range(run.bursts):
            spot = tb.targets[burst % len(tb.targets)]
            source = f"chaos-{burst:02d}"
            t0 = burst * burst_span_s
            if downgrading and burst == run.bursts // 2:
                server.trip_breaker("ap1", t0)
            traces = [
                sim.generate_trace(
                    spot.position, ap, stream_packets, rng=data_rng, source=source
                )
                for ap in tb.aps
            ]
            events = []
            for k in range(stream_packets):
                stamp = t0 + k * PACKET_INTERVAL_S
                for i, trace in enumerate(traces):
                    event = server.ingest(f"ap{i}", replace(trace[k], timestamp_s=stamp))
                    if event is not None:
                        events.append(event)
            event = server.flush(source, t0 + burst_span_s)
            if event is not None:
                events.append(event)
            ok = [e for e in events if e.ok]
            if ok:
                fixes_ok += 1
                last = ok[-1]
                errors.append(last.fix.error_to(spot.position))
                if last.fix.degraded:
                    degraded_fixes += 1
                if last.downgraded:
                    downgraded_fixes += 1
            if telemetry is not None and run.probe is not None:
                run.probe(fetch_json(f"{telemetry.url}/healthz"))
    finally:
        if telemetry is not None:
            telemetry.stop()
    clean_median = float("nan")
    if run.scenario == "blackout":
        clean_median = _run_server(
            replace(run, scenario="clean", probe=None)
        ).median_error_m
    injected = _counters(metrics, "faults.injected.")
    injected.pop("total", None)
    return ChaosReport(
        scenario=run.scenario,
        testbed=run.testbed,
        seed=run.seed,
        bursts=run.bursts,
        fixes_attempted=run.bursts,
        fixes_ok=fixes_ok,
        degraded_fixes=degraded_fixes,
        downgraded_fixes=downgraded_fixes,
        median_error_m=_median(errors),
        quarantined=validator.counts(),
        injected=injected,
        breakers=server.breaker_states(),
        clean_median_error_m=clean_median,
    )


# ----------------------------------------------------------------------
# The cluster-drill harness shared by the distributed runners
# ----------------------------------------------------------------------
class _ClusterDrill:
    """Lifecycle of one distributed drill; the runner supplies the traffic.

    :meth:`play` spawns the shards behind a router (supervised and
    fault-wrapped for the transport matrix), delivers the traffic step
    by step, SIGKILLs the first source's owner at the kill step, drains
    and tears down.  Afterwards ``fixes``, ``owners_at_kill``,
    ``killed_shard``, ``unrouted`` and ``flush_rounds`` hold what the
    runner scores, and :meth:`report` assembles the :class:`ChaosReport`.

    ``probe`` fires with the cluster ``/healthz`` payload twice: once
    with every shard alive, and once right after the kill — or after the
    stream, when the drill kills nothing.
    """

    def __init__(
        self,
        run: _Run,
        tb: Testbed,
        sources: Sequence[str],
        max_burst_age_s: float,
        track: bool = False,
        supervised: bool = False,
        wire_faults: Tuple[NetworkFaultSpec, ...] = (),
    ) -> None:
        if run.num_shards < 2:
            raise ConfigurationError(f"{run.scenario} needs at least 2 shards")
        self.run = run
        self.tb = tb
        self.sources = list(sources)
        self.supervised = supervised
        self.metrics = RuntimeMetrics()
        self.config = ShardConfig(
            shard_id="template",
            testbed=run.testbed,
            packets_per_fix=run.packets_per_fix,
            min_aps=run.min_aps,
            max_burst_age_s=max_burst_age_s,
            seed=run.seed,
            track=track,
        )
        self.injector = (
            NetworkFaultInjector(
                list(wire_faults),
                rng=np.random.default_rng(run.seed + 2),
                metrics=self.metrics,
            )
            if wire_faults
            else None
        )
        self.fixes: Dict[str, List[WireFix]] = {source: [] for source in sources}
        self.breakers: Dict[str, str] = {}
        self.owners_at_kill: Dict[str, str] = {}
        self.killed_shard = ""
        self.kill_step = -1
        self.unrouted = 0
        self.flush_rounds = 1

    def play(self, traffic: Sequence[Step], kill: bool = True) -> None:
        """Run the whole drill over ``traffic``; see the class docstring."""
        self.kill_step = max(1, int(len(traffic) * KILL_FRACTION)) if kill else -1
        probe = self.run.probe
        with tempfile.TemporaryDirectory(prefix="repro-dist-") as tmp:
            shards = start_shards(self.run.num_shards, self.config, tmp)
            specs = {shard_id: proc.spec for shard_id, proc in shards.items()}
            # Supervised drills fail over fast on black-holed sockets.
            timeouts = (
                {"socket_timeout_s": 10.0, "connect_timeout_s": 2.0}
                if self.supervised
                else {}
            )
            router = ShardRouter(
                specs,
                batch_max_frames=len(self.tb.aps),
                metrics=self.metrics,
                socket_wrapper=self.injector.wrap if self.injector is not None else None,
                **timeouts,
            )
            supervisor = (
                ShardSupervisor(
                    shards,
                    router=router,
                    restart_budget=RESTART_BUDGET,
                    backoff_base_s=0.05,
                    backoff_max_s=0.5,
                    metrics=self.metrics,
                )
                if self.supervised
                else None
            )
            telemetry = None

            def scrape() -> None:
                if telemetry is not None and probe is not None:
                    probe(fetch_json(f"{telemetry.url}/healthz"))

            try:
                if probe is not None:
                    telemetry = start_cluster_telemetry(specs, router_metrics=self.metrics)
                scrape()
                for step, frames in enumerate(traffic):
                    if step == self.kill_step:
                        self._kill(router, shards)
                        scrape()
                    for ap_id, frame in frames:
                        _ingest(router, supervisor, ap_id, frame)
                    if supervisor is not None:
                        supervisor.poll()
                    self._collect(router.take_fixes())
                if not self.killed_shard:
                    scrape()
                self._drain(router, supervisor, shards)
            except ShardUnavailableError:
                # Every shard died (supervised: with its restart budget
                # spent) — the report shows zero successes; the router
                # contract, no crash, still held.
                self.unrouted = len(self.sources)
            finally:
                if telemetry is not None:
                    telemetry.stop()
                router.close()
                for proc in shards.values():
                    proc.kill()
                    proc.join(timeout_s=10.0)

    def _collect(self, fixes: List[WireFix]) -> None:
        for fix in fixes:
            self.fixes[fix.source].append(fix)

    def _kill(self, router: ShardRouter, shards: Dict[str, ShardProcess]) -> None:
        """SIGKILL the first source's owner — ungracefully, mid-stream."""
        self.owners_at_kill = {source: router.owner_of(source) for source in self.sources}
        self.killed_shard = self.owners_at_kill[self.sources[0]]
        shards[self.killed_shard].kill()
        shards[self.killed_shard].join()

    def _drain(
        self,
        router: ShardRouter,
        supervisor: Optional[ShardSupervisor],
        shards: Dict[str, ShardProcess],
    ) -> None:
        """Flush, read the breakers, count stranded sources, shut down.

        A fault striking *during* a supervised drill's final flush fails
        the shard mid-drain: its journaled frames are replayed (or
        stranded until a readmit) and sit buffered on their new owner.
        So a supervised drill settles before each flush and flushes
        again until a pass completes with the ring whole; each round may
        force one partial-burst fix per source (``flush_rounds``).
        """
        self.flush_rounds = 0
        for _ in range(5):
            if supervisor is not None:
                _settle(router, supervisor)
            self.flush_rounds += 1
            self._collect(router.flush())
            if supervisor is None or not router.dead_shards():
                break
        for reply in router.pull_metrics():
            shard_id = str(reply.get("shard_id", "?"))
            for ap_id, state in dict(reply.get("breakers", {})).items():
                self.breakers[f"{shard_id}/{ap_id}"] = str(state)
        for source in self.sources:
            proc = shards.get(router.owner_of(source))
            if proc is None or not proc.process.is_alive():
                self.unrouted += 1
        self._collect(router.shutdown())

    def report(
        self, bursts: int, errors: Sequence[float], verdicts: Dict[str, int]
    ) -> ChaosReport:
        """The drill's report: failover counters plus the runner's verdicts."""
        injected = _counters(self.metrics, "dist.failover.")
        injected["killed_shards"] = 1 if self.killed_shard else 0
        injected.update(verdicts)
        return ChaosReport(
            scenario=self.run.scenario,
            testbed=self.run.testbed,
            seed=self.run.seed,
            bursts=bursts,
            fixes_attempted=len(self.sources),
            fixes_ok=sum(1 for fixes in self.fixes.values() if any(f.ok for f in fixes)),
            degraded_fixes=0,
            median_error_m=_median(errors),
            injected=injected,
            breakers=self.breakers,
        )


def _settle(
    router: ShardRouter, supervisor: ShardSupervisor, timeout_s: float = 10.0
) -> None:
    """Poll the supervisor until no shard is dead (or the deadline hits)."""
    deadline = time.monotonic() + timeout_s
    while router.dead_shards() and time.monotonic() < deadline:
        supervisor.poll(force=True)
        if router.dead_shards():
            time.sleep(0.02)


def _ingest(
    router: ShardRouter,
    supervisor: Optional[ShardSupervisor],
    ap_id: str,
    frame: CsiFrame,
) -> None:
    """Ingest one frame; supervised drills ride out total-ring outages.

    A fault storm can briefly fail every shard between supervisor
    polls; a real client would back off and retry, so the harness does
    the same: force a recovery poll and retry until the supervisor
    itself gives up (budget exhaustion propagates).
    """
    if supervisor is not None:
        for _ in range(10):
            try:
                router.ingest(ap_id, frame)
                return
            except ShardUnavailableError:
                if not supervisor.poll(force=True):
                    time.sleep(0.05)
    router.ingest(ap_id, frame)


# ----------------------------------------------------------------------
# Distributed runners
# ----------------------------------------------------------------------
def _static_drill(
    run: _Run,
    oversample_floor: float,
    kill: bool,
    supervised: bool = False,
    wire_faults: Tuple[NetworkFaultSpec, ...] = (),
) -> Tuple[_ClusterDrill, List[float], int]:
    """Stream ``bursts`` static sources concurrently through a cluster.

    Packet ``k`` of every source goes out before packet ``k + 1`` of
    any, each source at the next testbed location.  The oversampling
    floor keeps senders transmitting long enough that post-failover
    traffic alone can complete a burst on the new owner.  Returns the
    played drill, the per-source error of each source's last good fix,
    and the fixes beyond what the delivered packets can explain.
    """
    tb = testbed_by_name(run.testbed)
    sim = tb.simulator()
    stream_packets = run.stream_packets(oversample_floor)
    sources = [f"chaos-{burst:02d}" for burst in range(run.bursts)]
    drill = _ClusterDrill(
        run,
        tb,
        sources,
        max_burst_age_s=4.0 * stream_packets * PACKET_INTERVAL_S,
        supervised=supervised,
        wire_faults=wire_faults,
    )
    targets = {
        source: tb.targets[burst % len(tb.targets)].position
        for burst, source in enumerate(sources)
    }
    data_rng = np.random.default_rng(run.seed + 1)
    traces = {
        source: [
            sim.generate_trace(
                targets[source], ap, stream_packets, rng=data_rng, source=source
            )
            for ap in tb.aps
        ]
        for source in sources
    }
    # The simulator stamps packet k of every trace at k * PACKET_INTERVAL_S,
    # so all sources share one timeline: stale-burst eviction is
    # age-based, and sources interleaved on one shard must not age each
    # other's partial bursts out.
    traffic = [
        [
            (f"ap{i}", trace[k])
            for source in sources
            for i, trace in enumerate(traces[source])
        ]
        for k in range(stream_packets)
    ]
    drill.play(traffic, kill=kill)
    # Every (source, ap) stream carries stream_packets unique seqs, so at
    # most stream_packets // packets_per_fix ingest-triggered fixes can
    # exist per source, plus one forced partial-burst fix per flush round
    # (a re-flush only sees frames replayed after the previous one, so
    # each unique frame still feeds at most one fix) and one for a second
    # shard holding frames at shutdown.
    fix_cap = stream_packets // run.packets_per_fix + drill.flush_rounds + 1
    errors: List[float] = []
    excess_fixes = 0
    for source in sources:
        ok = [fix for fix in drill.fixes[source] if fix.ok]
        excess_fixes += max(0, len(ok) - fix_cap)
        if ok:
            target = targets[source]
            errors.append(math.hypot(ok[-1].x - target.x, ok[-1].y - target.y))
    return drill, errors, excess_fixes


def _run_shard_kill(run: _Run) -> ChaosReport:
    drill, errors, _ = _static_drill(run, oversample_floor=2.5, kill=True)
    return drill.report(run.bursts, errors, {})


def run_shard_kill(
    testbed: str = "small",
    seed: int = 7,
    packets_per_fix: int = 6,
    bursts: int = 3,
    min_aps: int = 2,
    num_shards: int = 3,
    probe: Optional[Probe] = None,
) -> ChaosReport:
    """The ``shard-kill`` drill on a cluster of ``num_shards`` shards.

    ``bursts`` sources stream concurrently; after :data:`KILL_FRACTION`
    of the stream the shard owning the first source is killed —
    ungracefully, so its partial bursts and in-flight replies are lost.
    ``fixes_attempted`` is the source count, ``fixes_ok`` the sources
    that got at least one successful fix, ``injected`` the
    ``dist.failover.*`` counters, and ``breakers`` the surviving shards'
    breaker states namespaced ``shard/ap``.  ``probe`` sees the cluster
    ``/healthz`` before the kill and right after it.
    """
    return _run_shard_kill(
        _Run("shard-kill", testbed, seed, packets_per_fix, bursts, min_aps, 1.0, probe, num_shards)
    )


def _run_network(run: _Run) -> ChaosReport:
    """One transport-matrix scenario, with a supervisor on duty.

    The router's shard sockets are wrapped by a seeded
    :class:`~repro.faults.network.NetworkFaultInjector` carrying the
    scenario's wire faults (``crash-restart`` instead SIGKILLs the first
    source's owner), and a :class:`~repro.dist.supervisor.ShardSupervisor`
    polls every step, restarting crashed shards and re-admitting
    recovered ones.  The verdicts: ``replayed`` journaled frames (>= 1
    proves at-least-once delivery engaged), ``unrouted_sources`` whose
    ring owner is not a live process at the end, and ``excess_fixes``
    beyond the delivered packet budget (dedup must absorb redelivery).
    """
    drill, errors, excess_fixes = _static_drill(
        run,
        oversample_floor=4.0,
        kill=run.scenario == "crash-restart",
        supervised=True,
        wire_faults=network_scenario_specs(run.scenario),
    )
    verdicts = _counters(drill.metrics, "dist.supervisor.", "supervisor.")
    verdicts.update(_counters(drill.metrics, "faults.network.", "network."))
    verdicts["replayed"] = _counters(drill.metrics, "dist.failover.").get("replayed", 0)
    verdicts["unrouted_sources"] = drill.unrouted
    verdicts["excess_fixes"] = excess_fixes
    return drill.report(run.bursts, errors, verdicts)


def _run_moving_target(run: _Run) -> ChaosReport:
    """Kill a shard mid-track; its tracks must *resume*, not restart.

    :data:`NUM_SOURCES` targets walk the testbed route at :data:`SPEED`,
    their CSI re-raytraced per burst by
    :func:`repro.mobility.motion.motion_bursts` under a shared
    :class:`~repro.mobility.handoff.HandoffPolicy`, while tracking shards
    assemble fixes and keep per-source Kalman tracks.  The router hands
    the dead shard's cached track checkpoints to the ring successors
    (``RESUME``) before replaying journaled traffic.  The verdicts:

    * ``resumed_tracks`` — rerouted sources whose post-kill fixes kept
      the pre-kill track id (the id embeds the minting shard, so a
      resumed track is provably the dead shard's state, adopted);
    * ``cold_restarts`` — rerouted sources that instead minted a fresh
      track on the successor (must be 0);
    * ``duplicate_track_ids`` — sources whose fixes carry more than one
      track id (must be 0: one target, one track).
    """
    tb = testbed_by_name(run.testbed)
    sim = tb.simulator()
    bursts = max(run.bursts, 6)
    burst_period_s = run.packets_per_fix * PACKET_INTERVAL_S
    trajectory = sample_speed_trajectory(tb, SPEED, bursts, burst_period_s)
    sources = [f"chaos-{idx:02d}" for idx in range(NUM_SOURCES)]
    drill = _ClusterDrill(
        run, tb, sources, max_burst_age_s=4.0 * bursts * burst_period_s, track=True
    )
    # One shared roaming policy: every source hands off between APs as
    # it moves, and the handoff.* counters land in this run's report.
    # The cap keeps the serving set to the strongest three APs, so a
    # target crossing the floor actually changes cells mid-track.
    policy = HandoffPolicy(
        min_serving=run.min_aps, max_serving=max(run.min_aps, 3), metrics=drill.metrics
    )
    aps = {f"ap{i}": ap for i, ap in enumerate(tb.aps)}
    bursts_by_source = {
        source: motion_bursts(
            sim,
            aps,
            trajectory,
            run.packets_per_fix,
            rng=np.random.default_rng(run.seed + 1 + idx),
            source=source,
            packet_interval_s=PACKET_INTERVAL_S,
            policy=policy,
            metrics=drill.metrics,
        )
        for idx, source in enumerate(sources)
    }
    # Interleave packet-by-packet across sources (packet k of every
    # source before packet k + 1 of any), as a live collection plane
    # would deliver them; frames already carry the trajectory clock.
    traffic = [
        [
            (rec.ap_id, rec.trace[k])
            for k in range(run.packets_per_fix)
            for source in sources
            for rec in bursts_by_source[source][b].recordings
        ]
        for b in range(len(trajectory))
    ]
    drill.play(traffic)
    # Per-fix track error against the moving ground truth: the fix
    # timestamp is the newest packet of burst b, so it maps back to the
    # waypoint by integer division.
    errors: List[float] = []
    for source in sources:
        for fix in drill.fixes[source]:
            if fix.ok:
                b = min(int(fix.timestamp_s / burst_period_s), len(trajectory) - 1)
                truth = trajectory[b][1]
                errors.append(math.hypot(fix.x - truth.x, fix.y - truth.y))
    kill_stamp = trajectory[drill.kill_step][0]
    killed = drill.killed_shard
    rerouted = [s for s in sources if drill.owners_at_kill.get(s) == killed]
    resumed_tracks = 0
    cold_restarts = 0
    duplicate_track_ids = 0
    for source in sources:
        ids = {fix.track_id for fix in drill.fixes[source] if fix.track_id}
        duplicate_track_ids += max(0, len(ids) - 1)
    for source in rerouted:
        tracked = [fix for fix in drill.fixes[source] if fix.track_id]
        pre = {fix.track_id for fix in tracked if fix.timestamp_s < kill_stamp}
        post = {fix.track_id for fix in tracked if fix.timestamp_s >= kill_stamp}
        if pre and post <= pre and post:
            resumed_tracks += 1
        # A track id minted after the kill under any *other* origin
        # means the successor restarted the track cold.
        cold_restarts += sum(1 for tid in post - pre if f"@{killed}#" not in tid)
    counters = drill.metrics.snapshot()["counters"]
    return drill.report(
        len(trajectory),
        errors,
        {
            "tracks_handed_off": int(counters.get("dist.tracks.resumed", 0)),
            "tracks_restored": int(counters.get("dist.tracks.restored", 0)),
            "rerouted_sources": len(rerouted),
            "resumed_tracks": resumed_tracks,
            "cold_restarts": cold_restarts,
            "duplicate_track_ids": duplicate_track_ids,
            "handoff_events": int(counters.get("handoff.events", 0)),
        },
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
CsiFaults = Callable[[int, int], Tuple[FaultSpec, ...]]


def _csi_faults(*specs: FaultSpec) -> CsiFaults:
    """A CSI fault mix that does not depend on the run length."""
    return lambda packets_per_fix, bursts: specs


def _blackout(packets_per_fix: int, bursts: int) -> Tuple[FaultSpec, ...]:
    """``ap3`` goes dark at the run's midpoint."""
    midpoint = 0.5 * bursts * packets_per_fix * PACKET_INTERVAL_S
    return (ApBlackout(ap_id="ap3", start_s=midpoint),)


@dataclass(frozen=True)
class Scenario:
    """One registered chaos drill.

    Attributes
    ----------
    run:
        The runner, handed the validated request.
    verdicts:
        What :func:`gate` asserts beyond the success floor.
    csi_faults:
        The CSI corruption of single-server scenarios, from the streamed
        ``(packets_per_fix, bursts)``.
    wire_faults:
        Transport faults on the router's shard sockets.
    """

    run: Callable[[_Run], ChaosReport]
    verdicts: Tuple[Verdict, ...] = ()
    csi_faults: CsiFaults = _csi_faults()
    wire_faults: Tuple[NetworkFaultSpec, ...] = ()

    @property
    def distributed(self) -> bool:
        """True for drills that spawn shard subprocesses."""
        return self.run is not _run_server


_DELIVERY_VERDICTS = (
    Verdict(
        "replayed",
        "no journaled frames were replayed — the scenario never exercised "
        "at-least-once failover",
        at_least=1,
    ),
    Verdict(
        "unrouted_sources",
        "{value} source(s) ended the run routed to a dead shard",
        at_most=0,
    ),
    Verdict(
        "excess_fixes",
        "{value} fix(es) beyond the delivered packet budget — redelivered "
        "frames were double-counted instead of deduplicated",
        at_most=0,
    ),
)

_TRACK_VERDICTS = (
    Verdict(
        "resumed_tracks",
        "no track resumed across the shard kill — the failover never "
        "exercised checkpoint handoff",
        at_least=1,
    ),
    Verdict(
        "cold_restarts",
        "{value} track(s) restarted cold on the successor instead of "
        "resuming from the checkpoint",
        at_most=0,
    ),
    Verdict(
        "duplicate_track_ids",
        "{value} duplicate track id(s) — a source was tracked under more "
        "than one identity",
        at_most=0,
    ),
)

#: Every chaos scenario by name: the ``repro chaos --scenario`` choices.
SCENARIOS: Dict[str, Scenario] = {
    "blackout": Scenario(_run_server, csi_faults=_blackout),
    "clean": Scenario(_run_server),
    "downgrade": Scenario(
        _run_server,
        verdicts=(
            Verdict(
                "downgraded_fixes",
                "breaker trip produced no downgraded fixes — the downgrade "
                "path shed load instead of switching tiers",
                at_least=1,
            ),
        ),
    ),
    "mixed": Scenario(
        _run_server,
        csi_faults=_csi_faults(
            NanSubcarriers(probability=0.12, count=4),
            TruncatePacket(probability=0.08, keep_subcarriers=20),
            PhaseGlitch(probability=0.10),
            DuplicateFrame(probability=0.05),
            DropFrame(probability=0.05),
        ),
    ),
    "moving-target": Scenario(_run_moving_target, verdicts=_TRACK_VERDICTS),
    "nan": Scenario(
        _run_server,
        csi_faults=_csi_faults(
            NanSubcarriers(probability=0.3, count=4),
            DropAntenna(probability=0.1),
        ),
    ),
    "shard-kill": Scenario(_run_shard_kill),
    "truncate": Scenario(
        _run_server,
        csi_faults=_csi_faults(
            TruncatePacket(probability=0.3, keep_subcarriers=20),
            DropFrame(probability=0.1),
        ),
    ),
    "corrupt-bytes": Scenario(
        _run_network,
        _DELIVERY_VERDICTS,
        wire_faults=(CorruptBytes(probability=0.05, flips=4),),
    ),
    # The fault is the SIGKILL itself, with the supervisor responsible
    # for the comeback.
    "crash-restart": Scenario(_run_network, _DELIVERY_VERDICTS),
    "reset-storm": Scenario(
        _run_network,
        _DELIVERY_VERDICTS,
        wire_faults=(ConnectionReset(probability=0.02),),
    ),
    # Latency paired with a low-probability black hole, so the scenario
    # also exercises timeout-triggered failover + replay.
    "slow-link": Scenario(
        _run_network,
        _DELIVERY_VERDICTS,
        wire_faults=(
            SlowLink(probability=0.25, delay_s=0.01),
            BlackHole(probability=0.03),
        ),
    ),
}

#: The transport chaos matrix.
NETWORK_SCENARIOS = tuple(
    name for name, entry in SCENARIOS.items() if entry.run is _run_network
)


def _entry(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def scenario_specs(
    name: str, packets_per_fix: int = 8, bursts: int = 4
) -> Tuple[FaultSpec, ...]:
    """The CSI fault mix of a named scenario.

    Empty for drills whose fault is not CSI corruption.  ``blackout``
    computes its onset from the run length so the AP dies halfway.
    """
    return _entry(name).csi_faults(packets_per_fix, bursts)


def network_scenario_specs(scenario: str) -> Tuple[NetworkFaultSpec, ...]:
    """The wire fault mix of one transport-matrix scenario."""
    if scenario not in NETWORK_SCENARIOS:
        raise ConfigurationError(
            f"unknown network scenario {scenario!r}; "
            f"available: {sorted(NETWORK_SCENARIOS)}"
        )
    return SCENARIOS[scenario].wire_faults


def run_chaos(
    scenario: str = "mixed",
    testbed: str = "small",
    seed: int = 7,
    packets_per_fix: int = 8,
    bursts: int = 4,
    min_aps: int = 2,
    oversample: float = 1.75,
    probe: Optional[Probe] = None,
) -> ChaosReport:
    """Run one registered scenario end to end and report what survived.

    ``oversample`` streams ``packets_per_fix * oversample`` packets per
    burst (the distributed drills raise it to their own floor; the
    ``moving-target`` drill streams whole bursts and runs at least six).
    ``probe``, when given, turns the run into a live-telemetry drill: it
    is called with the ``/healthz`` payload scraped over real HTTP —
    after every burst from the server, or before and after the kill from
    the cluster endpoint.  Raises
    :class:`~repro.errors.ConfigurationError` for an unknown scenario or
    testbed, ``bursts < 1`` or ``oversample < 1`` before anything runs.
    """
    entry = _entry(scenario)
    return entry.run(
        _Run(scenario, testbed, seed, packets_per_fix, bursts, min_aps, oversample, probe)
    )


def gate(report: ChaosReport, min_success: float) -> List[str]:
    """Failure messages for ``report``; empty when the drill passed.

    ``min_success`` is the success-rate floor in percent; then every
    verdict registered for the report's scenario is checked.
    """
    failures = []
    rate = 100.0 * report.success_rate
    if rate < min_success:
        failures.append(
            f"fix success rate {rate:.0f}% below threshold {min_success:.0f}%"
        )
    for verdict in _entry(report.scenario).verdicts:
        failure = verdict.failure(report)
        if failure is not None:
            failures.append(failure)
    return failures


def format_report(report: ChaosReport) -> str:
    """Human-readable multi-line summary of a chaos run."""
    lines = [
        f"chaos scenario {report.scenario!r} on testbed {report.testbed!r} "
        f"(seed {report.seed})",
        f"  fixes: {report.fixes_ok}/{report.fixes_attempted} ok "
        f"({100.0 * report.success_rate:.0f}%), "
        f"{report.degraded_fixes} degraded",
    ]
    if report.downgraded_fixes:
        lines.append(
            f"  downgraded: {report.downgraded_fixes} fixes served on the "
            f"downgrade tier"
        )
    if not math.isnan(report.median_error_m):
        lines.append(f"  median error: {report.median_error_m:.3f} m")
    if not math.isnan(report.clean_median_error_m):
        lines.append(
            f"  clean baseline: {report.clean_median_error_m:.3f} m "
            f"(delta {report.error_delta_m:+.3f} m)"
        )
    if report.injected:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(report.injected.items()))
        lines.append(f"  injected: {mix}")
    if report.quarantined:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(report.quarantined.items()))
        lines.append(f"  quarantined: {mix}")
    if report.breakers:
        mix = ", ".join(f"{k}={v}" for k, v in sorted(report.breakers.items()))
        lines.append(f"  breakers: {mix}")
    return "\n".join(lines)
