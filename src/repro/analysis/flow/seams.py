"""Seam manifest: the declared indirection points of the codebase.

A conservative AST call graph cannot see through runtime indirection —
process-pool fan-out (``executor.map_ordered(task_fn, items)``),
``multiprocessing.Process(target=...)``, the estimator registry, or the
shard message dispatch.  Rather than guessing, the flow engine reads a
small *seam manifest* that names those seams explicitly:

* **hot roots** — qualname patterns whose bodies (and everything they
  reach) run once per packet / per fix: the SpotFi hot path.
* **worker roots** — functions that execute inside pool worker
  processes (task functions are also discovered automatically at
  ``map_ordered``/``submit``/``Process(target=...)`` call sites).
* **dist roots** — functions reachable from router/shard code, where
  every blocking call needs a deadline (REP014).
* **cache boundaries** — functions whose *callees* are amortized behind
  a cache (``SteeringCache.grids_for``): hot taint stops there, so
  REP011 does not flag grid construction that happens once per config.
* **pickling seams** — the method names that ship arguments to another
  process by pickling (REP013), and the allowlisted raw-bytes encoders
  that are the approved way to move complex128 across a boundary.

The default manifest below describes *this* repository.  Tests build
custom manifests for synthetic fixture trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import FrozenSet, Iterable, Tuple


def _matches(qualname: str, patterns: Iterable[str]) -> bool:
    return any(fnmatchcase(qualname, pattern) for pattern in patterns)


@dataclass(frozen=True)
class SeamManifest:
    """Declared roots and indirection seams for the flow analysis."""

    #: Qualname patterns (fnmatch) seeding the hot-path taint.
    hot_roots: Tuple[str, ...] = ()
    #: Qualname patterns seeding the worker-context taint (functions that
    #: run inside pool worker processes).
    worker_roots: Tuple[str, ...] = ()
    #: Qualname patterns seeding the dist-reachable taint (router/shard
    #: code where blocking calls need deadlines).
    dist_roots: Tuple[str, ...] = ()
    #: Qualname patterns whose callees are cache-amortized: hot taint is
    #: not propagated through their outgoing edges.
    cache_boundaries: Tuple[str, ...] = ()
    #: Method names that pickle their non-callable arguments into
    #: another process (executor fan-out).
    task_methods: FrozenSet[str] = frozenset({"map_ordered", "submit", "apply_async"})
    #: Class names whose ``target=`` keyword is a worker entry point and
    #: whose instances need exception-path cleanup (REP015).
    process_classes: FrozenSet[str] = frozenset(
        {"Process", "Thread", "ShardProcess", "Popen"}
    )
    #: Attribute names whose values carry complex128 CSI arrays.
    complex_attrs: FrozenSet[str] = frozenset({"csi"})
    #: Qualname patterns allowed to move complex arrays across a
    #: pickling/wire boundary (the raw-bytes encoders).
    raw_bytes_ok: Tuple[str, ...] = ()
    #: Module suffix holding the wire protocol (REP017).
    protocol_module_suffix: str = ".protocol"
    #: Enum class naming the wire message types.
    message_enum: str = "MessageType"
    #: Optional module-level dict pairing request -> reply types.
    request_reply_name: str = "REQUEST_REPLY"
    #: Optional module-level set of deliberately unpaired types.
    unpaired_name: str = "UNPAIRED_MESSAGES"
    #: Extra fnmatch patterns for modules the PROTO rules scan; empty
    #: means "the protocol module's package".
    protocol_scope: Tuple[str, ...] = ()
    #: Cap on how many same-named methods an unqualified ``x.meth()``
    #: call may resolve to before the edge is considered too ambiguous.
    max_attr_candidates: int = 8

    def is_hot_root(self, qualname: str) -> bool:
        return _matches(qualname, self.hot_roots)

    def is_worker_root(self, qualname: str) -> bool:
        return _matches(qualname, self.worker_roots)

    def is_dist_root(self, qualname: str) -> bool:
        return _matches(qualname, self.dist_roots)

    def is_cache_boundary(self, qualname: str) -> bool:
        return _matches(qualname, self.cache_boundaries)

    def is_raw_bytes_ok(self, qualname: str) -> bool:
        return _matches(qualname, self.raw_bytes_ok)


#: The seam manifest for this repository.  Updated alongside any new
#: fan-out seam, estimator entry point, or shard handler family.
DEFAULT_MANIFEST = SeamManifest(
    hot_roots=(
        # one fix attempt: the per-packet/per-AP estimation pipeline
        "repro.core.pipeline.SpotFi.locate",
        "repro.core.pipeline.locate_from_reports",
        # per-AP pool task function (also found via the map_ordered seam)
        "repro.core.estimator.estimate_ap_packets",
        # every registered estimator's per-AP entry point (registry
        # indirection: resolved by name, not through the registry)
        "*.estimate_ap",
        # shard-side request handlers run once per wire message
        "repro.dist.shard.*._handle_*",
    ),
    worker_roots=(
        "repro.runtime.executor._ChunkRunner.__call__",
        "repro.core.estimator.estimate_ap_packets",
    ),
    dist_roots=(
        # the whole dist layer talks over sockets / child processes
        "repro.dist.*",
    ),
    cache_boundaries=(
        # steering/grid construction is amortized behind the process-
        # local SteeringCache; its callees do not run per packet
        "repro.runtime.cache.SteeringCache.grids_for",
        # lru_cached index/grid helpers allocate on miss only
        "repro.core.indexcache.*",
    ),
    raw_bytes_ok=(
        # encode_frames/decode_frames ship complex128 as raw bytes —
        # the approved wire path for CSI
        "repro.dist.protocol.*",
    ),
)
