"""Prometheus-style plain-text exposition of a metrics snapshot.

:func:`render_prometheus` turns the plain-data snapshot produced by
:meth:`repro.runtime.metrics.RuntimeMetrics.snapshot` (optionally
augmented with a ``cache`` section, as
:meth:`repro.server.SpotFiServer.metrics_snapshot` does) into the
text format scrapers expect:

* counters -> ``repro_<name>_total``
* stage timings -> one ``repro_stage_duration_seconds`` histogram per
  stage (cumulative ``le`` buckets, ``_sum``, ``_count``) plus
  ``repro_stage_duration_seconds{quantile=...}`` gauge estimates and
  batch/item gauges
* steering cache stats -> ``repro_steering_cache_*`` gauges including
  the derived hit rate
* circuit breaker states -> ``repro_circuit_breaker_state{ap="..."}``
  gauges encoding the state as its index in
  :data:`repro.faults.breaker.BREAKER_STATES` (0 closed, 1 open,
  2 half-open)
* SLO evaluations (an ``slo`` section, see :mod:`repro.obs.slo`) ->
  ``repro_slo_*{objective="..."}`` gauges: compliance bit, observed
  bad fraction, burn rate, and remaining error budget

Every family is preceded by ``# HELP`` and ``# TYPE`` lines, as the
exposition-format spec requires; ``tests/obs/test_prometheus.py``
parses the output back to hold that invariant.

No Prometheus client library involved — the format is a stable,
trivially rendered text protocol, and the container must not grow
dependencies.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional

from repro.faults.breaker import BREAKER_STATES

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str, prefix: str) -> str:
    """Sanitize a dotted counter name into a Prometheus metric name."""
    name = _NAME_RE.sub("_", raw.replace(".", "_"))
    if name and name[0].isdigit():
        name = "_" + name
    return f"{prefix}_{name}"


def _fmt(value: float) -> str:
    """Render a sample value; +Inf spelled the Prometheus way."""
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _family(lines: List[str], name: str, kind: str, help_text: str) -> None:
    """Open one metric family: the mandatory ``# HELP`` + ``# TYPE`` pair."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _render_histogram(
    lines: List[str], name: str, stage: str, hist: Mapping[str, object]
) -> None:
    """Append one labeled histogram series from its dict form."""
    bounds = list(hist.get("bounds", []))
    counts = list(hist.get("counts", []))
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += int(count)
        lines.append(
            f'{name}_bucket{{stage="{stage}",le="{_fmt(float(bound))}"}} {cumulative}'
        )
    total = cumulative + int(hist.get("overflow", 0))
    lines.append(f'{name}_bucket{{stage="{stage}",le="+Inf"}} {total}')
    lines.append(f'{name}_sum{{stage="{stage}"}} {_fmt(float(hist.get("sum", 0.0)))}')
    lines.append(f'{name}_count{{stage="{stage}"}} {total}')


def render_prometheus(
    snapshot: Mapping[str, object], prefix: str = "repro"
) -> str:
    """Render a metrics snapshot as Prometheus plain-text exposition.

    Parameters
    ----------
    snapshot:
        ``{"counters": {...}, "timings": {...}}`` from
        :meth:`~repro.runtime.metrics.RuntimeMetrics.snapshot`, plus
        optional ``cache`` (steering-cache stats), ``breakers``
        (per-AP breaker states), and ``slo`` (per-objective evaluation
        dicts from :meth:`repro.obs.slo.SloTracker.snapshot`) sections.
    prefix:
        Metric name prefix (default ``repro``).

    Returns the exposition text, newline-terminated.
    """
    lines: List[str] = []

    counters: Dict[str, int] = dict(snapshot.get("counters", {}))  # type: ignore[arg-type]
    estimator_prefix = "estimator.requests."
    estimator_requests = {
        raw: value
        for raw, value in counters.items()
        if raw.startswith(estimator_prefix)
    }
    for raw in sorted(counters):
        if raw in estimator_requests:
            continue  # rendered below with estimator/tier labels
        name = _metric_name(raw, prefix) + "_total"
        _family(lines, name, "counter", f"Monotonic count of `{raw}` events.")
        lines.append(f"{name} {int(counters[raw])}")

    if estimator_requests:
        # "estimator.requests.<name>.<tier>" counters become one
        # labelled family; estimator names may contain "-" but never
        # ".", so the last dot splits name from tier.
        family = f"{prefix}_estimator_requests_total"
        _family(
            lines,
            family,
            "counter",
            "Fix computations served, by estimator and QoS tier.",
        )
        for raw in sorted(estimator_requests):
            estimator, _, tier = raw[len(estimator_prefix) :].rpartition(".")
            lines.append(
                f'{family}{{estimator="{estimator}",tier="{tier}"}} '
                f"{int(estimator_requests[raw])}"
            )

    timings: Dict[str, Mapping[str, object]] = dict(snapshot.get("timings", {}))  # type: ignore[arg-type]
    if timings:
        hist_name = f"{prefix}_stage_duration_seconds"
        _family(
            lines,
            hist_name,
            "histogram",
            "Per-stage batch duration distribution in seconds.",
        )
        for stage in sorted(timings):
            hist: Optional[Mapping[str, object]] = timings[stage].get("histogram")  # type: ignore[assignment]
            if hist:
                _render_histogram(lines, hist_name, stage, hist)
        quant_name = f"{prefix}_stage_duration_seconds_quantile"
        _family(
            lines,
            quant_name,
            "gauge",
            "Estimated per-stage duration quantiles in seconds.",
        )
        for stage in sorted(timings):
            quantiles: Mapping[str, float] = timings[stage].get("quantiles", {})  # type: ignore[assignment]
            for label, value in quantiles.items():
                q = int(label.lstrip("p")) / 100.0
                lines.append(
                    f'{quant_name}{{stage="{stage}",quantile="{q}"}} {_fmt(value)}'
                )
        for gauge, key, help_text in (
            ("stage_batches", "batches", "Batches recorded per stage."),
            ("stage_items", "items", "Items processed per stage."),
            ("stage_max_seconds", "max_s", "Worst observed batch duration per stage in seconds."),
        ):
            name = f"{prefix}_{gauge}"
            _family(lines, name, "gauge", help_text)
            for stage in sorted(timings):
                value = timings[stage].get(key, 0)
                lines.append(f'{name}{{stage="{stage}"}} {_fmt(value)}')

    cache: Mapping[str, float] = snapshot.get("cache", {})  # type: ignore[assignment]
    if cache:
        cache_help = {
            "hits": "Steering-grid cache hits.",
            "misses": "Steering-grid cache misses.",
            "evictions": "Steering-grid cache evictions.",
            "size": "Entries currently in the steering-grid cache.",
            "max_size": "Steering-grid cache capacity.",
            "hit_rate": "Steering-grid cache hit rate (hits / lookups).",
        }
        for key in sorted(cache):
            suffix = "_total" if key in ("hits", "misses", "evictions") else ""
            name = f"{prefix}_steering_cache_{key}{suffix}"
            kind = "counter" if suffix else "gauge"
            _family(
                lines, name, kind, cache_help.get(key, f"Steering cache statistic `{key}`.")
            )
            lines.append(f"{name} {_fmt(cache[key])}")

    breakers: Mapping[str, str] = snapshot.get("breakers", {})  # type: ignore[assignment]
    if breakers:
        name = f"{prefix}_circuit_breaker_state"
        _family(
            lines,
            name,
            "gauge",
            "Per-AP circuit breaker state (0 closed, 1 open, 2 half-open).",
        )
        for ap in sorted(breakers):
            state = breakers[ap]
            value = BREAKER_STATES.index(state) if state in BREAKER_STATES else -1
            lines.append(f'{name}{{ap="{ap}"}} {value}')

    slo: Mapping[str, Mapping[str, object]] = snapshot.get("slo", {})  # type: ignore[assignment]
    if slo:
        for metric, key, help_text in (
            ("slo_ok", "ok", "Objective compliance: 1 when within target, else 0."),
            ("slo_bad_fraction", "bad_fraction", "Observed bad-event fraction per objective."),
            ("slo_allowed_fraction", "allowed_fraction", "Error budget: allowed bad-event fraction per objective."),
            ("slo_burn_rate", "burn_rate", "Error-budget burn rate (observed / allowed bad fraction)."),
            ("slo_error_budget_remaining", "budget_remaining", "Fraction of the error budget left (1 - burn rate, floored at 0)."),
        ):
            name = f"{prefix}_{metric}"
            _family(lines, name, "gauge", help_text)
            for objective in sorted(slo):
                value = slo[objective].get(key, 0)
                rendered = _fmt(float(value)) if not isinstance(value, bool) else str(int(value))
                lines.append(f'{name}{{objective="{objective}"}} {rendered}')

    return "\n".join(lines) + "\n"
