"""Cluster-wide metrics rollup: many shard snapshots, one exposition.

Each shard keeps its own :class:`~repro.runtime.RuntimeMetrics` — the
same counters, stage timings and histograms a single-process deployment
would have.  The rollup path pulls every shard's plain-data snapshot
over the wire (``METRICS`` / ``METRICS_REPLY``), rehydrates each with
:meth:`~repro.runtime.metrics.RuntimeMetrics.from_snapshot`, folds them
together with :meth:`~repro.runtime.metrics.RuntimeMetrics.merge` —
histogram buckets add, so cluster-wide p50/p99 are computed over the
union of per-item samples, not averaged per shard — and renders one
Prometheus exposition.

Shard-scoped gauges keep their origin visible: breaker states are
namespaced ``{shard_id}/{ap_id}`` (one target AP can only trip on the
shard that serves it), and steering-cache stats are summed with the hit
rate recomputed from the summed hits/misses.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.dist import protocol
from repro.dist.protocol import MessageType, parse_bind
from repro.errors import TraceFormatError
from repro.obs.collector import collect_trace_dir
from repro.obs.http import TelemetryServer
from repro.obs.prometheus import render_prometheus
from repro.runtime import RuntimeMetrics

_CACHE_COUNTER_KEYS = ("hits", "misses", "evictions", "entries")


def merge_snapshots(snapshots: List[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard metrics snapshots into one cluster snapshot.

    Counters add; timings add with histograms merged bucket-wise (all
    shards share :data:`~repro.obs.histogram.DEFAULT_TIMING_BUCKETS`);
    ``cache`` sections are summed with ``hit_rate`` recomputed from the
    totals.  Returns the same plain-data shape a single server's
    :meth:`~repro.server.SpotFiServer.metrics_snapshot` produces.
    """
    merged = RuntimeMetrics()
    cache_totals: Dict[str, float] = {}
    saw_cache = False
    for snapshot in snapshots:
        merged.merge(RuntimeMetrics.from_snapshot(dict(snapshot)))
        cache = snapshot.get("cache")
        if isinstance(cache, Mapping):
            saw_cache = True
            for key in _CACHE_COUNTER_KEYS:
                cache_totals[key] = cache_totals.get(key, 0.0) + float(
                    cache.get(key, 0)
                )
    result: Dict[str, Any] = merged.snapshot()
    if saw_cache:
        attempts = cache_totals.get("hits", 0.0) + cache_totals.get("misses", 0.0)
        cache_totals["hit_rate"] = (
            cache_totals.get("hits", 0.0) / attempts if attempts else 0.0
        )
        result["cache"] = cache_totals
    return result


def rollup_exposition(
    shard_replies: List[Mapping[str, Any]],
    router_metrics: Optional[RuntimeMetrics] = None,
) -> str:
    """Render one Prometheus exposition for the whole cluster.

    ``shard_replies`` are ``METRICS_REPLY`` payloads (as returned by
    :meth:`~repro.dist.router.ShardRouter.pull_metrics`): each carries
    ``shard_id``, a metrics ``snapshot``, and per-AP ``breakers``.
    Breaker gauges are namespaced ``{shard_id}/{ap_id}`` so a tripped
    breaker is attributable to the shard that owns the target.  When
    ``router_metrics`` is given, the router's own ``dist.*`` counters
    (failover, batching, health) are folded into the same exposition.
    """
    snapshots: List[Mapping[str, Any]] = []
    breakers: Dict[str, str] = {}
    for reply in shard_replies:
        shard_id = str(reply.get("shard_id", "?"))
        snapshot = reply.get("snapshot")
        if isinstance(snapshot, Mapping):
            snapshots.append(snapshot)
        shard_breakers = reply.get("breakers")
        if isinstance(shard_breakers, Mapping):
            for ap_id, state in shard_breakers.items():
                breakers[f"{shard_id}/{ap_id}"] = str(state)
    merged = merge_snapshots(snapshots)
    if router_metrics is not None:
        router_side = RuntimeMetrics.from_snapshot(merged)
        router_side.merge(router_metrics)
        merged = dict(router_side.snapshot(), cache=merged.get("cache", {}))
        if not merged["cache"]:
            del merged["cache"]
    if breakers:
        merged["breakers"] = breakers
    return render_prometheus(merged)


def pull_shard_metrics(
    shards: Mapping[str, str], timeout_s: float = 10.0
) -> List[Dict[str, Any]]:
    """Pull metrics directly from shard endpoints (no router needed).

    One short-lived connection per shard: send ``METRICS``, read the
    reply, disconnect.  Shards that cannot be reached or answer with
    anything but a well-formed ``METRICS_REPLY`` are skipped — a metrics
    scrape must not fail because one shard is down.
    """
    replies: List[Dict[str, Any]] = []
    for _shard_id, spec in sorted(shards.items()):
        try:
            with parse_bind(spec).connect(timeout_s=timeout_s) as sock:
                protocol.send_message(sock, MessageType.METRICS)
                message = protocol.recv_message(sock)
        except (OSError, TraceFormatError):
            continue
        if message is None or message[0] != MessageType.METRICS_REPLY:
            continue
        try:
            reply = protocol.decode_json(message[1])
        except TraceFormatError:
            continue
        if isinstance(reply, dict):
            replies.append(reply)
    return replies


def cluster_health(
    shards: Mapping[str, str], timeout_s: float = 5.0
) -> Dict[str, Any]:
    """Probe every shard endpoint on a fresh connection.

    One short-lived ``HEALTH`` round trip per shard; a shard counts as
    alive only when it answers ``HEALTH_OK``.  The payload is shaped
    for ``/healthz``: ``ok`` is true while at least one shard answers
    (the router can still route), ``degraded`` flags any dead shard,
    and per-shard entries carry the ``http_port`` each worker reported
    so scrapers can discover shard-local telemetry endpoints.

    Independent of :class:`~repro.dist.router.ShardRouter` on purpose:
    the router is single-threaded, so an HTTP exporter thread must
    never reach into it — probing the bind specs directly gives the
    exporter its own view at the cost of one extra round trip.
    """
    entries: Dict[str, Any] = {}
    alive = 0
    for shard_id, spec in sorted(shards.items()):
        entry: Dict[str, Any] = {"alive": False, "spec": spec}
        try:
            with parse_bind(spec).connect(timeout_s=timeout_s) as sock:
                protocol.send_message(sock, MessageType.HEALTH)
                message = protocol.recv_message(sock)
        except (OSError, TraceFormatError):
            message = None
        if message is not None and message[0] == MessageType.HEALTH_OK:
            entry["alive"] = True
            alive += 1
            try:
                reply = protocol.decode_json(message[1])
            except TraceFormatError:
                reply = None
            if isinstance(reply, dict):
                entry["pid"] = reply.get("pid")
                entry["http_port"] = reply.get("http_port")
        entries[shard_id] = entry
    return {
        "ok": alive > 0,
        "degraded": alive < len(entries),
        "alive_shards": alive,
        "total_shards": len(entries),
        "shards": entries,
    }


def start_cluster_telemetry(
    shards: Mapping[str, str],
    router_metrics: Optional[RuntimeMetrics] = None,
    trace_dir: str = "",
    port: int = 0,
    host: str = "127.0.0.1",
    timeout_s: float = 5.0,
) -> TelemetryServer:
    """Serve cluster-wide ``/metrics`` + ``/healthz`` + ``/traces``.

    Returns a started :class:`~repro.obs.http.TelemetryServer` whose
    handlers pull fresh state per request: ``/metrics`` scrapes every
    shard over the wire (:func:`pull_shard_metrics`) and folds in the
    router's own counters via :func:`rollup_exposition`; ``/healthz``
    probes the same bind specs (:func:`cluster_health`); ``/traces``
    merges the JSONL span exports under ``trace_dir`` (empty list when
    no directory was configured).  Every handler uses its own sockets,
    so the exporter thread never touches the single-threaded router.
    The caller owns the server and must :meth:`~TelemetryServer.stop`
    it.  Reading ``router_metrics`` concurrently is safe — its counter
    store is lock-protected.
    """
    spec_map = dict(shards)

    def _metrics() -> str:
        replies = pull_shard_metrics(spec_map, timeout_s=timeout_s)
        return rollup_exposition(replies, router_metrics)

    def _health() -> Dict[str, Any]:
        return cluster_health(spec_map, timeout_s=timeout_s)

    def _traces() -> List[Dict[str, Any]]:
        if not trace_dir:
            return []
        return [span.to_dict() for span in collect_trace_dir(trace_dir)]

    server = TelemetryServer(
        metrics_fn=_metrics, health_fn=_health, traces_fn=_traces,
        port=port, host=host,
    )
    server.start()
    return server
