"""Runtime observability: counters and histogram-backed stage timings.

A :class:`RuntimeMetrics` instance is threaded through the executors and
the streaming server so deployments can answer "how many packets were
estimated / dropped / evicted, and where did the time go — including at
the tail" without attaching a profiler.

Timings track two dimensions per stage, because the executors record at
two granularities:

* **batches** — one ``record_complete`` call.  A
  :class:`~repro.runtime.executor.SerialExecutor` records one batch per
  item; a :class:`~repro.runtime.executor.ParallelExecutor` records one
  batch per ``map_ordered`` call covering ``n`` items.
* **items** — individual work units.  ``record_complete(..., n=...)``
  counts them, and per-item durations feed a log-bucket
  :class:`~repro.obs.histogram.Histogram` — directly when ``n == 1``,
  via :meth:`merge_item_histogram` when workers in other processes
  timed the items and shipped their histograms back.

``snapshot()`` reports both dimensions; the legacy ``count`` key equals
``batches`` (what the pre-histogram implementation counted), while
``mean_s`` remains per-batch.  Quantiles (p50/p90/p99) are per-item.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from repro.obs.histogram import DEFAULT_TIMING_BUCKETS, Histogram


class _StageTiming:
    """Mutable per-stage accumulator behind the metrics lock."""

    __slots__ = ("batches", "items", "total_s", "max_s", "item_hist")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.batches = 0
        self.items = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.item_hist = Histogram(bounds)


class RuntimeMetrics:
    """Thread-safe counters plus histogram-backed per-stage timings.

    Counters are free-form dotted names (``ingest.dropped``,
    ``estimate.completed``); timings accumulate batch count, item count,
    total/max seconds, and a per-item duration histogram per stage.  All
    methods are safe to call from multiple threads.  Worker *processes*
    time items locally and merge the resulting histograms back into the
    parent instance (see
    :meth:`~repro.runtime.executor.ParallelExecutor.map_ordered`), so a
    parallel snapshot carries true per-item tail latencies, not just the
    parent's batch wall-clock.

    Parameters
    ----------
    bucket_bounds:
        Histogram bucket upper bounds shared by every stage; defaults to
        :data:`~repro.obs.histogram.DEFAULT_TIMING_BUCKETS` (1 us .. ~67 s,
        log-scale).  Worker histograms must use the same bounds to merge.
    """

    def __init__(
        self, bucket_bounds: Sequence[float] = DEFAULT_TIMING_BUCKETS
    ) -> None:
        self._lock = threading.Lock()
        self._bounds = tuple(float(b) for b in bucket_bounds)
        self._counters: Dict[str, int] = {}
        self._timings: Dict[str, _StageTiming] = {}

    @property
    def bucket_bounds(self) -> Tuple[float, ...]:
        """Histogram bucket upper bounds every stage records into."""
        return self._bounds

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def increment(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def record_submit(self, stage: str, n: int = 1) -> None:
        """Count ``n`` work items handed to ``stage``."""
        self.increment(f"{stage}.submitted", n)

    def record_complete(self, stage: str, elapsed_s: float, n: int = 1) -> None:
        """Record one completed batch of ``n`` items taking ``elapsed_s``.

        Increments the ``<stage>.completed`` counter by ``n`` (items),
        the stage's batch count by 1, and — when the batch is a single
        item — observes ``elapsed_s`` into the per-item histogram.
        Multi-item batches leave the histogram to
        :meth:`merge_item_histogram`, which workers feed with their
        per-item timings.
        """
        elapsed_s = float(elapsed_s)
        self.increment(f"{stage}.completed", n)
        with self._lock:
            timing = self._timing(stage)
            timing.batches += 1
            timing.items += int(n)
            timing.total_s += elapsed_s
            timing.max_s = max(timing.max_s, elapsed_s)
            if n == 1:
                timing.item_hist.observe(elapsed_s)

    def merge_item_histogram(self, stage: str, hist: Histogram) -> None:
        """Merge a worker's per-item duration histogram into ``stage``.

        Cross-process aggregation path: workers observe each item into a
        process-local histogram, ship it back (plain data), and the
        parent folds it in here.  Bucket bounds must match this
        instance's.
        """
        with self._lock:
            self._timing(stage).item_hist.merge(hist)

    def record_error(
        self, stage: str, n: int = 1, kind: Optional[str] = None
    ) -> None:
        """Count ``n`` failed items in ``stage``.

        ``kind`` (typically the exception class name) additionally
        increments ``<stage>.errors.<kind>``, so the exposition reports
        *what* failed, not just how often — an
        :class:`~repro.errors.EstimationError` spike and a worker-pool
        ``BrokenProcessPool`` need different responses.
        """
        self.increment(f"{stage}.errors", n)
        if kind:
            self.increment(f"{stage}.errors.{kind}", n)

    def record_retry(self, stage: str, n: int = 1) -> None:
        """Count ``n`` retried work chunks in ``stage``."""
        self.increment(f"{stage}.retries", n)

    def record_timeout(self, stage: str, n: int = 1) -> None:
        """Count ``n`` chunks that missed their deadline in ``stage``."""
        self.increment(f"{stage}.timeouts", n)

    def record_drop(self, reason: str, n: int = 1) -> None:
        """Count ``n`` items dropped for ``reason`` (overflow, stale...)."""
        self.increment(f"drop.{reason}", n)

    def merge(self, other: "RuntimeMetrics") -> None:
        """Fold another instance's counters and timings into this one.

        Used to aggregate metrics kept by separate components (e.g. an
        executor's and a server's) into one exposition.  Histogram
        bucket bounds must match.
        """
        other_counters, other_timings = other._export_state()
        with self._lock:
            for name, value in other_counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for stage, (batches, items, total_s, max_s, hist) in other_timings.items():
                timing = self._timing(stage)
                timing.batches += batches
                timing.items += items
                timing.total_s += total_s
                timing.max_s = max(timing.max_s, max_s)
                timing.item_hist.merge(hist)

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, dict]) -> "RuntimeMetrics":
        """Rebuild an instance from a :meth:`snapshot` plain-data dict.

        The inverse (up to float rounding) of :meth:`snapshot`, used by
        :mod:`repro.dist.rollup` to merge per-shard snapshots shipped
        over the wire: each shard's snapshot is rehydrated here and then
        folded together with :meth:`merge`.  Bucket bounds are taken
        from the first timing's histogram (all stages share bounds), or
        :data:`~repro.obs.histogram.DEFAULT_TIMING_BUCKETS` when the
        snapshot has no timings.
        """
        timings = snapshot.get("timings", {})
        bounds: Sequence[float] = DEFAULT_TIMING_BUCKETS
        for entry in timings.values():
            hist_data = entry.get("histogram")
            if hist_data and hist_data.get("bounds"):
                bounds = tuple(float(b) for b in hist_data["bounds"])
                break
        metrics = cls(bucket_bounds=bounds)
        for name, value in snapshot.get("counters", {}).items():
            metrics._counters[str(name)] = int(value)
        for stage, entry in timings.items():
            timing = metrics._timing(str(stage))
            timing.batches = int(entry.get("batches", entry.get("count", 0)))
            timing.items = int(entry.get("items", timing.batches))
            timing.total_s = float(entry.get("total_s", 0.0))
            timing.max_s = float(entry.get("max_s", 0.0))
            hist_data = entry.get("histogram")
            if hist_data:
                timing.item_hist.merge(Histogram.from_dict(hist_data))
        return metrics

    def _export_state(
        self,
    ) -> Tuple[Dict[str, int], Dict[str, Tuple[int, int, float, float, Histogram]]]:
        """Deep-copied (counters, timings) for a lock-safe merge.

        Each timing is ``(batches, items, total_s, max_s, item_hist)``.
        """
        with self._lock:
            counters = dict(self._counters)
            timings = {
                stage: (t.batches, t.items, t.total_s, t.max_s, t.item_hist.copy())
                for stage, t in self._timings.items()
            }
        return counters, timings

    def _timing(self, stage: str) -> _StageTiming:
        timing = self._timings.get(stage)
        if timing is None:
            timing = self._timings[stage] = _StageTiming(self._bounds)
        return timing

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, dict]:
        """Plain-data view: ``{"counters": {...}, "timings": {...}}``.

        Per stage, timings report:

        * ``count`` — batches recorded (legacy key; equals ``batches``)
        * ``batches`` / ``items`` — both work dimensions explicitly
        * ``total_s`` / ``max_s`` — batch wall-clock accumulation
        * ``mean_s`` — mean *batch* duration (``total_s / batches``)
        * ``mean_item_s`` — ``total_s / items``; for a parallel batch
          this is wall-clock per item, i.e. throughput⁻¹, not latency
        * ``quantiles`` — p50/p90/p99 *per-item* duration estimates
        * ``histogram`` — the per-item histogram's plain-data form
          (see :meth:`~repro.obs.histogram.Histogram.to_dict`)
        """
        with self._lock:
            counters = dict(self._counters)
            timings = {}
            for stage, t in self._timings.items():
                timings[stage] = {
                    "count": t.batches,
                    "batches": t.batches,
                    "items": t.items,
                    "total_s": t.total_s,
                    "mean_s": t.total_s / t.batches if t.batches else 0.0,
                    "mean_item_s": t.total_s / t.items if t.items else 0.0,
                    "max_s": t.max_s,
                    "quantiles": t.item_hist.quantiles(),
                    "histogram": t.item_hist.to_dict(),
                }
        return {"counters": counters, "timings": timings}

    def reset(self) -> None:
        """Zero every counter and timing."""
        with self._lock:
            self._counters.clear()
            self._timings.clear()
