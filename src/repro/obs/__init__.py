"""Observability for the SpotFi pipeline: tracing, histograms, exposition.

SpotFi's accuracy hinges on a chain of stages — ToF sanitization
(Alg. 1), smoothed-CSI 2-D MUSIC (Sec. 3.1), likelihood clustering
(Eq. 8) and the localization solve (Eq. 9) — and a bad fix gives no
insight into *which* stage degraded it.  This package is the diagnostic
layer:

* :mod:`repro.obs.trace` — :class:`Tracer` producing hierarchical spans
  (``locate > ap[k] > sanitize|smooth|music|cluster > solve``) with
  wall-clock and stage attributes, a JSONL :class:`JsonlSpanExporter`,
  an in-memory ring buffer, deterministic head sampling
  (``ObsConfig(sample_rate=)``), and :class:`TraceContext` propagation
  across process boundaries.  The default :data:`NOOP_TRACER` is
  zero-cost, so instrumented code paths pay nothing until tracing is
  switched on.
* :mod:`repro.obs.stages` — the canonical span-name registry (lint
  rule REP010 flags ``tracer.span`` literals missing from it).
* :mod:`repro.obs.counters` — the canonical metric counter registry
  (flow rule REP018 flags ``metrics.increment``/``record_*`` literals
  missing from it).
* :mod:`repro.obs.collector` — merge per-process JSONL span exports
  into stitched cluster-wide trace trees.
* :mod:`repro.obs.histogram` — fixed log-scale bucket
  :class:`Histogram` with p50/p90/p99 quantile estimates and exact
  cross-process ``merge``, backing
  :class:`~repro.runtime.metrics.RuntimeMetrics`.
* :mod:`repro.obs.prometheus` — ``render_prometheus(snapshot)``
  plain-text exposition of a metrics snapshot.
* :mod:`repro.obs.http` — :class:`TelemetryServer`, a stdlib HTTP
  endpoint serving live ``/metrics``, ``/healthz``, and ``/traces``.
* :mod:`repro.obs.slo` — declarative service-level objectives with
  burn-rate / error-budget accounting over metrics snapshots.
* :mod:`repro.obs.benchdiff` — the ``spotfi-benchdiff`` regression
  gate diffing two committed BENCH_*.json files.
* :mod:`repro.obs.artifacts` — opt-in capture of downsampled MUSIC
  pseudospectra and per-cluster (AoA, ToF) statistics into the trace
  (``ObsConfig(capture_artifacts=True)``).
"""

from repro import _exports

__all__ = _exports.install(
    globals(),
    {
        "obs.artifacts": ("cluster_summary", "downsample_spectrum"),
        "obs.benchdiff": ("BenchDiff", "MetricDelta", "diff_benchmarks", "diff_files"),
        "obs.collector": (
            "collect_trace_dir",
            "format_merged_traces",
            "merge_spans",
            "merge_trace_files",
        ),
        "obs.config": ("ObsConfig",),
        "obs.counters": (
            "CANONICAL_COUNTERS",
            "CANONICAL_STAGE_COUNTERS",
            "COUNTER_PATTERNS",
            "is_canonical_counter",
            "is_canonical_stage_counter",
        ),
        "obs.histogram": ("DEFAULT_TIMING_BUCKETS", "Histogram", "log_buckets"),
        "obs.http": ("PROMETHEUS_CONTENT_TYPE", "TelemetryServer", "fetch_json"),
        "obs.prometheus": ("render_prometheus",),
        "obs.slo": (
            "SloObjective",
            "SloTracker",
            "latency_objective",
            "rate_objective",
            "success_rate_objective",
        ),
        "obs.stages": ("CANONICAL_STAGES", "STAGE_PATTERNS", "is_canonical_stage"),
        "obs.trace": (
            "NOOP_TRACER",
            "JsonlSpanExporter",
            "NoopTracer",
            "Span",
            "TraceContext",
            "Tracer",
            "clamp_span_tree",
            "format_span_tree",
            "load_spans",
        ),
    },
)
