"""Pluggable estimator registry with QoS tiers (ROADMAP item 5).

One :class:`Estimator` protocol — CSI burst in, per-AP ``(AoA, ToF,
weight)`` paths plus a confidence out — behind a string-keyed registry
with entry-point-style plugin discovery.  Built-ins span the
accuracy/latency frontier:

========== ========== ==============================================
name       tier       algorithm
========== ========== ==============================================
music2d    precise    full SpotFi 2-D MUSIC (Alg. 2)
esprit     precise    2-D ESPRIT on the smoothed CSI
mdtrack    balanced   iterative path cancellation (mD-Track style)
music-aoa  balanced   antenna-only MUSIC, median AoA
arraytrack balanced   ArrayTrack/Phaser spectrum synthesis
tof        coarse     earliest-strong-peak delay + RSSI-only fusion
========== ========== ==============================================

Tier names (``precise``/``balanced``/``coarse``) resolve to a default
estimator, so serving-stack callers can request a service level; the
circuit-breaker downgrade path in :class:`~repro.server.SpotFiServer`
rides this to swap full MUSIC for the coarse tier instead of shedding
load.  See ``docs/ESTIMATORS.md``.
"""

from repro.estimators.base import (
    ApEstimate,
    EstimatedPath,
    Estimator,
    EstimatorContext,
    from_report,
    timed_estimate,
    to_report,
)
from repro.estimators.registry import (
    PLUGIN_ENV,
    PLUGIN_GROUP,
    TIER_DEFAULTS,
    TIERS,
    _load_builtins,
    _load_plugins,
    available,
    create,
    register,
    resolve_name,
    tier_of,
    unregister,
)

__all__ = [
    "ApEstimate",
    "EstimatedPath",
    "Estimator",
    "EstimatorContext",
    "PLUGIN_ENV",
    "PLUGIN_GROUP",
    "TIER_DEFAULTS",
    "TIERS",
    "available",
    "create",
    "from_report",
    "register",
    "resolve_name",
    "tier_of",
    "timed_estimate",
    "to_report",
    "unregister",
]

# Fill the registry once per process, after the names above are bound:
# plugins import ``register`` from this package.  Pool and shard workers
# then only ever read it.
_load_builtins()
_load_plugins()
