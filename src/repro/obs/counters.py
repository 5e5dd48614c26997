"""Canonical metric counter names.

Counter names are cross-process identity: the Prometheus exposition,
the cluster rollup (:mod:`repro.dist.rollup`), the SLO tracker, and the
chaos gates all key on the literal strings handed to
:meth:`~repro.runtime.metrics.RuntimeMetrics.increment` and the
``record_*`` helpers.  A typo'd counter (``"dist.failover.reruted"``)
doesn't error — it silently splits the series and every dashboard,
alert, and gate built on the canonical name reads zero.

This module is the single source of truth for which counters exist,
mirroring :mod:`repro.obs.stages` for span names.  Flow lint rule
REP018 (:mod:`repro.analysis.flow`) flags any counter literal not
registered here.

Adding a counter is deliberate: put the name in
:data:`CANONICAL_COUNTERS` (or a regex in :data:`COUNTER_PATTERNS` for
keyed families like ``quarantine.<reason>``) in the same commit that
introduces the ``increment`` call.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Tuple

#: Exact counter names the runtime, server, faults, and dist layers emit
#: via :meth:`RuntimeMetrics.increment` (including the expanded forms of
#: ``record_drop`` — ``drop.<reason>`` — which are listed literally).
CANONICAL_COUNTERS: FrozenSet[str] = frozenset(
    {
        # server ingest / fix accounting (repro.server)
        "ingest.accepted",
        "buffers.evicted",
        "fix.ok",
        "fix.failed",
        "fix.degraded",
        "fix.downgraded",
        "drop.overflow",
        "drop.stale",
        "drop.breaker",
        # circuit breaker (repro.server / repro.faults.breaker)
        "breaker.opened",
        "breaker.closed",
        "breaker.transitions",
        "breaker.downgrades",
        # track lifecycle (repro.mobility.tracks)
        "track.created",
        "track.confirmed",
        "track.closed",
        "track.evicted",
        "track.resumed",
        "track.gated",
        # AP roaming (repro.mobility.handoff)
        "handoff.events",
        "handoff.ap_added",
        "handoff.ap_dropped",
        # motion synthesis (repro.mobility.motion)
        "mobility.bursts",
        # fault injection (repro.faults)
        "faults.injected.total",
        "faults.network.total",
        "quarantine.total",
        # dist router / failover (repro.dist.router)
        "dist.batches.sent",
        "dist.frames.sent",
        "dist.fixes.received",
        "dist.replies.stray",
        "dist.failover.shard_down",
        "dist.failover.rerouted",
        "dist.failover.replayed",
        "dist.failover.stranded",
        "dist.failover.readmitted",
        "dist.failover.inflight_lost",
        "dist.journal.overflow",
        "dist.dedup.duplicates",
        "dist.tracks.resumed",
        "dist.tracks.restored",
        "dist.health.ok",
        "dist.health.failed",
        # dist supervisor (repro.dist.supervisor)
        "dist.supervisor.down_detected",
        "dist.supervisor.restarts",
        "dist.supervisor.restart_failed",
        "dist.supervisor.readmitted",
        "dist.supervisor.budget_exhausted",
        "dist.supervisor.probe_ok",
        "dist.supervisor.probe_failed",
    }
)

#: Keyed counter families, matched as full-string regexes.  These cover
#: the dynamic (f-string) names whose *suffix* is data-derived: the
#: fault kind, the quarantine reason, the error class name.
COUNTER_PATTERNS: Tuple["re.Pattern[str]", ...] = (
    re.compile(r"faults\.injected\.[a-z0-9_]+"),
    re.compile(r"faults\.network\.[a-z0-9_]+"),
    re.compile(r"quarantine\.[a-z0-9_]+"),
    re.compile(r"drop\.[a-z0-9_]+"),
    # per-estimator request accounting: estimator.requests.<name>.<tier>
    re.compile(r"estimator\.requests\.[a-z0-9_]+\.[a-z0-9_]+"),
)

#: Stage names the ``record_submit/complete/error/retry/timeout``
#: helpers may be called with.  Each expands into ``<stage>.submitted``
#: / ``.completed`` / ``.errors[.<kind>]`` / ``.retries`` /
#: ``.timeouts`` counters, so the *stage* is the registered identity.
CANONICAL_STAGE_COUNTERS: FrozenSet[str] = frozenset(
    {
        "estimate",  # per-AP estimation fan-out, one task per AP (executors)
        "fix",  # one flush-triggered fix (repro.server)
        "map",  # Executor.map_ordered default stage
        "dist.request",  # one router->shard request (repro.dist.router)
    }
)

#: Stage families with a data-derived suffix (``estimate.<name>`` per
#: registered estimator).
STAGE_COUNTER_PATTERNS: Tuple["re.Pattern[str]", ...] = (
    re.compile(r"estimate\.[a-z0-9_]+"),
)


def is_canonical_counter(name: str) -> bool:
    """True when ``name`` is a registered counter or pattern match."""
    if name in CANONICAL_COUNTERS:
        return True
    return any(pattern.fullmatch(name) is not None for pattern in COUNTER_PATTERNS)


def is_canonical_counter_prefix(prefix: str) -> bool:
    """True when some registered counter or family starts with ``prefix``.

    Used for f-string counter names (``f"faults.injected.{kind}"``):
    only the literal prefix is statically known, so the check passes when
    any canonical name or pattern could complete it.
    """
    if any(name.startswith(prefix) for name in CANONICAL_COUNTERS):
        return True
    return any(
        pattern.pattern.startswith(re.escape(prefix))
        or re.match(pattern.pattern, prefix) is not None
        for pattern in COUNTER_PATTERNS
    )


def is_canonical_stage_counter(stage: str) -> bool:
    """True when ``stage`` is a registered ``record_*`` stage name."""
    if stage in CANONICAL_STAGE_COUNTERS:
        return True
    return any(
        pattern.fullmatch(stage) is not None for pattern in STAGE_COUNTER_PATTERNS
    )
