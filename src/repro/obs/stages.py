"""Canonical trace stage names.

Span names are metric identity: per-stage histograms, the Prometheus
``stage`` label, SLO objectives, and cross-run trace diffs all key on
the literal string passed to ``Tracer.span(...)``.  A typo'd name
(``"musik"``) doesn't error — it silently fragments the histograms and
drops the stage out of every dashboard.  This module is the single
source of truth for which names exist; lint rule REP010
(:mod:`repro.analysis.rules`) flags any ``tracer.span("...")`` literal
not registered here.

Adding a stage is deliberate: put the name in :data:`CANONICAL_STAGES`
(or a regex in :data:`STAGE_PATTERNS` for indexed families like
``ap[3]``) in the same commit that introduces the span call.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Tuple

#: Exact span names the pipeline, server, and dist layer may open.
CANONICAL_STAGES: FrozenSet[str] = frozenset(
    {
        # core pipeline (repro.core.pipeline)
        "locate",  # one fix attempt; root of the per-fix subtree
        "sanitize",  # Algorithm 1 CSI phase cleanup, per AP
        "smooth",  # smoothed CSI matrix construction, per AP
        "music",  # 2D MUSIC pseudospectrum + peak search, per AP
        "esprit",  # grid-free ESPRIT estimation of every packet, per AP
        "cluster",  # Eq. 8-9 path clustering / direct-path pick, per AP
        "solve",  # localization least-squares over AP reports
        # server (repro.server)
        "fix",  # one flush-triggered fix computation, incl. retries
        "breaker.transition",  # circuit breaker state change
        "track.resume",  # adoption of a failed peer's track checkpoints
        # mobility (repro.mobility.handoff)
        "handoff",  # one serving-set change under the roaming policy
        # dist router (repro.dist.router)
        "flush",  # router-side flush fan-out; root of a distributed trace
        "shard.flush",  # one shard's FLUSH request within a router flush
        "batch",  # one shipped ingest batch; root of a distributed trace
        # dist shard (repro.dist.shard)
        "handle.flush",  # shard-side FLUSH handling under a remote context
        "handle.batch",  # shard-side INGEST handling under a remote context
        # dist supervisor (repro.dist.supervisor)
        "supervisor.restart",  # relaunch of a dead shard process
        "supervisor.probe",  # half-open HEALTH probe before re-admission
    }
)

#: Indexed stage families, matched as full-string regexes.
STAGE_PATTERNS: Tuple["re.Pattern[str]", ...] = (
    re.compile(r"ap\[\d+\]"),  # per-AP subtree within locate
)


def is_canonical_stage(name: str) -> bool:
    """True when ``name`` is a registered span name or pattern match."""
    if name in CANONICAL_STAGES:
        return True
    return any(pattern.fullmatch(name) is not None for pattern in STAGE_PATTERNS)
