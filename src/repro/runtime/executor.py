"""Executors: deterministic fan-out of per-AP estimation.

The pipeline expresses its hot loop as ``executor.map_ordered(fn, items)``
and lets the executor decide *where* the work runs:

* :class:`SerialExecutor` runs items inline, in order — numerically
  byte-identical to the historical ``for`` loop, and the default
  everywhere so existing behaviour is unchanged.
* :class:`ParallelExecutor` fans items across a
  :class:`concurrent.futures.ProcessPoolExecutor`.  ``map`` preserves
  submission order, so results come back deterministically regardless of
  which worker finished first; estimation is pure (no RNG), so the
  values themselves match the serial path within floating-point identity.

Both record submit/complete/error events on a
:class:`~repro.runtime.metrics.RuntimeMetrics`.
"""

from __future__ import annotations

import os
import random
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, DeadlineExceededError, ReproError
from repro.faults.retry import NO_RETRY, RetryPolicy
from repro.obs.histogram import Histogram
from repro.runtime.metrics import RuntimeMetrics

#: Items ship to workers in chunks of roughly
#: ``len(items) / (workers * _CHUNK_FACTOR)`` to amortize pickling without
#: starving the pool of parallel slack.
_CHUNK_FACTOR = 4


class _ChunkRunner:
    """Picklable worker task: run a chunk, timing each item.

    Workers cannot write to the parent's :class:`RuntimeMetrics`, so each
    chunk call observes its items into a process-local
    :class:`~repro.obs.histogram.Histogram` and returns it (as plain
    data) alongside the results; the parent merges every chunk's
    histogram back into its own metrics.  Exceptions propagate with
    their original type, exactly like an unwrapped ``pool.map``.
    """

    __slots__ = ("fn", "bounds")

    def __init__(self, fn: Callable, bounds: Tuple[float, ...]) -> None:
        self.fn = fn
        self.bounds = bounds

    def __call__(self, chunk: Sequence) -> Tuple[List, dict]:
        hist = Histogram(self.bounds)
        results: List = []
        for item in chunk:
            start = time.perf_counter()
            results.append(self.fn(item))
            hist.observe(time.perf_counter() - start)
        return results, hist.to_dict()


class Executor:
    """Common interface: an ordered map over picklable task items.

    Subclasses implement :meth:`map_ordered`; everything else (metrics,
    context management) is shared.  Task functions must be module-level
    (picklable) when a parallel executor may run them.
    """

    def __init__(
        self,
        metrics: Optional[RuntimeMetrics] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.metrics = metrics or RuntimeMetrics()
        self.retry = retry or NO_RETRY
        self._backoff_rng = random.Random(0x5F0F1)

    @property
    def workers(self) -> int:
        """Worker processes this executor fans across (1 = inline)."""
        return 1

    def map_ordered(
        self, fn: Callable, items: Iterable, stage: str = "map"
    ) -> List:
        """Apply ``fn`` to every item, returning results in item order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources; the executor is reusable until then."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every item inline, exactly like the historical loop.

    A :class:`~repro.faults.retry.RetryPolicy` adds bounded retries with
    backoff for transient failures; the per-chunk deadline is parallel-
    only (a serial executor cannot interrupt its own thread).  Failures
    are recorded with their exception type — a
    :class:`~repro.errors.ReproError` subclass keeps its identity all the
    way to the caller and into the ``<stage>.errors.<kind>`` counter.
    """

    def map_ordered(
        self, fn: Callable, items: Iterable, stage: str = "map"
    ) -> List:
        items = list(items)
        self.metrics.record_submit(stage, len(items))
        results: List = []
        for item in items:
            start = time.perf_counter()
            attempt = 1
            while True:
                try:
                    results.append(fn(item))
                    break
                except ReproError as exc:
                    # Library errors are deterministic verdicts about the
                    # input (bad CSI shape, no spectrum peaks) — never
                    # transient, never worth a retry.
                    self.metrics.record_error(stage, kind=type(exc).__name__)
                    raise
                except Exception as exc:
                    if attempt < self.retry.max_attempts and self.retry.is_transient(
                        exc
                    ):
                        self.metrics.record_retry(stage)
                        time.sleep(self.retry.delay_for(attempt, self._backoff_rng))
                        attempt += 1
                        continue
                    self.metrics.record_error(stage, kind=type(exc).__name__)
                    raise
            self.metrics.record_complete(stage, time.perf_counter() - start)
        return results


class ParallelExecutor(Executor):
    """Fan items across a lazily created process pool.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the machine's CPU count.
    metrics:
        Shared metrics sink (a fresh one is created if omitted).
    retry:
        :class:`~repro.faults.retry.RetryPolicy` applied per chunk:
        transient worker failures are resubmitted with jittered
        exponential backoff, and ``timeout_s`` bounds how long each
        collected chunk may run before being abandoned and retried
        (exhaustion raises :class:`~repro.errors.DeadlineExceededError`).
        The default policy never retries and has no deadline.

    Notes
    -----
    The pool is created on first use and survives across calls, so
    repeated ``locate`` calls pay the worker start-up cost once.  Call
    :meth:`close` (or use the executor as a context manager) to reap the
    workers.  Exceptions raised by a task propagate to the caller with
    their original type, matching the serial path.

    Items ship to workers in explicit chunks wrapped by
    :class:`_ChunkRunner`, which times every item into a process-local
    histogram; the parent merges those histograms into its
    :class:`RuntimeMetrics`, so ``snapshot()`` reports true per-item
    latency quantiles even though the work ran in other processes.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        metrics: Optional[RuntimeMetrics] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(metrics, retry=retry)
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._pool = None

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> "ProcessPoolExecutor":
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def map_ordered(
        self, fn: Callable, items: Iterable, stage: str = "map"
    ) -> List:
        items = list(items)
        if not items:
            return []
        self.metrics.record_submit(stage, len(items))
        chunksize = max(1, len(items) // (self._workers * _CHUNK_FACTOR))
        chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
        runner = _ChunkRunner(fn, self.metrics.bucket_bounds)
        start = time.perf_counter()
        futures = [self._ensure_pool().submit(runner, chunk) for chunk in chunks]
        chunk_results = [
            self._collect_chunk(futures, index, runner, chunks[index], stage)
            for index in range(len(chunks))
        ]
        elapsed = time.perf_counter() - start
        results: List = []
        for chunk_items, hist_data in chunk_results:
            results.extend(chunk_items)
            self.metrics.merge_item_histogram(stage, Histogram.from_dict(hist_data))
        self.metrics.record_complete(stage, elapsed, n=len(items))
        return results

    def _collect_chunk(
        self,
        futures: List,
        index: int,
        runner: _ChunkRunner,
        chunk: Sequence,
        stage: str,
    ) -> Tuple[List, dict]:
        """One chunk's result, applying the retry/deadline policy.

        A transient failure (per ``retry.retry_on``) or a missed deadline
        resubmits the chunk — after a jittered exponential backoff — up
        to ``retry.max_attempts`` total tries.  Per-packet estimation is
        pure, so a duplicate execution caused by abandoning a hung
        attempt is harmless.  A broken pool is rebuilt before the
        resubmit.  Non-transient exceptions propagate with their original
        type, exactly like the serial path; deadline exhaustion raises
        :class:`~repro.errors.DeadlineExceededError`.
        """
        from concurrent.futures import TimeoutError as FuturesTimeout

        policy = self.retry
        timeout = policy.timeout_s or None
        attempt = 1
        while True:
            try:
                return futures[index].result(timeout=timeout)
            except ReproError as exc:
                self.metrics.record_error(stage, len(chunk), kind=type(exc).__name__)
                raise
            except FuturesTimeout:
                self.metrics.record_timeout(stage)
                if attempt >= policy.max_attempts:
                    self.metrics.record_error(
                        stage, len(chunk), kind="DeadlineExceededError"
                    )
                    raise DeadlineExceededError(
                        f"stage {stage!r}: chunk of {len(chunk)} items missed "
                        f"its {policy.timeout_s:.3g}s deadline "
                        f"{policy.max_attempts} time(s)"
                    ) from None
            except Exception as exc:
                if attempt >= policy.max_attempts or not policy.is_transient(exc):
                    self.metrics.record_error(
                        stage, len(chunk), kind=type(exc).__name__
                    )
                    raise
            self.metrics.record_retry(stage)
            time.sleep(policy.delay_for(attempt, self._backoff_rng))
            attempt += 1
            if self._pool is not None and getattr(self._pool, "_broken", False):
                self.close()
            futures[index] = self._ensure_pool().submit(runner, chunk)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def create_executor(
    workers: int = 1,
    metrics: Optional[RuntimeMetrics] = None,
    retry: Optional[RetryPolicy] = None,
) -> Executor:
    """The right executor for a ``--workers N`` knob.

    ``workers <= 1`` returns a :class:`SerialExecutor` (exact current
    behaviour, no subprocess machinery); anything larger returns a
    :class:`ParallelExecutor`.  ``retry`` threads a
    :class:`~repro.faults.retry.RetryPolicy` through either.
    """
    if workers <= 1:
        return SerialExecutor(metrics, retry=retry)
    return ParallelExecutor(workers=workers, metrics=metrics, retry=retry)
