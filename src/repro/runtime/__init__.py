"""Execution runtime for the SpotFi pipeline.

Per-packet smoothed-CSI MUSIC dominates SpotFi's cost (Alg. 2 lines 4-7);
this package supplies the engineering layer that makes it scale:

* :mod:`repro.runtime.executor` — :class:`Executor` implementations that
  fan estimation (one task per AP) across workers with deterministic ordering
  (``SerialExecutor`` reproduces the inline loop bit-for-bit,
  ``ParallelExecutor`` uses a process pool).
* :mod:`repro.runtime.cache` — :class:`SteeringCache`, process-local
  memoization of the (theta, tau) steering grids so workers stop
  rebuilding identical matrices for every packet.
* :mod:`repro.runtime.queues` — :class:`PacketBuffer`, the bounded
  ingest buffer with an explicit overflow policy that keeps
  :class:`~repro.server.SpotFiServer` memory-safe under burst floods.
* :mod:`repro.runtime.metrics` — :class:`RuntimeMetrics`, counters and
  histogram-backed stage timings (batch + item dimensions, p50/p90/p99
  tail estimates) threaded through submit/complete/drop events; worker
  processes merge their per-item histograms back into the parent.

The diagnostic layer on top — hierarchical tracing, Prometheus-style
exposition of a metrics snapshot, stage artifact capture — lives in
:mod:`repro.obs`.
"""

from repro.runtime.cache import SteeringCache, SteeringGrids, default_steering_cache
from repro.runtime.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    create_executor,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.queues import OVERFLOW_POLICIES, PacketBuffer

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "create_executor",
    "SteeringCache",
    "SteeringGrids",
    "default_steering_cache",
    "RuntimeMetrics",
    "PacketBuffer",
    "OVERFLOW_POLICIES",
]
