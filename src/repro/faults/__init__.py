"""Fault injection, validation, and graceful degradation (``repro.faults``).

The robustness layer around the SpotFi pipeline:

* :mod:`~repro.faults.spec` — the catalog of composable CSI corruptions
  (:class:`FaultSpec` and friends) plus :func:`raw_frame`/:func:`raw_trace`
  for building wire-like, unvalidated frames.
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, applying a fault
  mix to live frames (server chaos layer) or recorded traces (channel
  impairment wrapper).
* :mod:`~repro.faults.validator` — :class:`FrameValidator` +
  :class:`ValidationPolicy`, the admission screen that quarantines
  malformed CSI before it can reach smoothing or MUSIC.
* :mod:`~repro.faults.breaker` — :class:`CircuitBreaker`, the per-AP
  closed/open/half-open failure breaker the server uses to shed flapping
  APs.
* :mod:`~repro.faults.retry` — :class:`RetryPolicy`, bounded retries with
  jittered exponential backoff (used by the runtime executors).
* :mod:`~repro.faults.network` — transport fault specs
  (:class:`NetworkFaultSpec` and friends) and the :class:`FaultySocket`
  wrapper that applies them to live router/shard sockets.

The chaos symbols (:func:`run_chaos`, :class:`ChaosReport`,
:data:`SCENARIOS`, :func:`scenario_specs`, :func:`format_report`) are
re-exported lazily from :mod:`repro.dist.chaos`, which owns every chaos
scenario: it pulls in the whole server and dist stack, which itself
depends on this package's leaf modules, so an eager import here would be
circular.
"""

from repro.faults.breaker import BREAKER_STATES, CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.network import (
    BlackHole,
    ConnectionReset,
    CorruptBytes,
    FaultySocket,
    NetworkFaultInjector,
    NetworkFaultSpec,
    PartialWrite,
    ShortRead,
    SlowLink,
    WireEffect,
    flip_bytes,
)
from repro.faults.retry import NO_RETRY, RetryPolicy
from repro.faults.spec import (
    ApBlackout,
    DropAntenna,
    DropFrame,
    DuplicateFrame,
    FaultSpec,
    NanSubcarriers,
    PhaseGlitch,
    ReorderFrames,
    TruncatePacket,
    ZeroSubcarriers,
    raw_frame,
    raw_trace,
)
from repro.faults.validator import FrameValidator, ValidationPolicy

_CHAOS_EXPORTS = (
    "ChaosReport",
    "SCENARIOS",
    "format_report",
    "run_chaos",
    "scenario_specs",
)

__all__ = [
    "ApBlackout",
    "BREAKER_STATES",
    "BlackHole",
    "CircuitBreaker",
    "ConnectionReset",
    "CorruptBytes",
    "DropAntenna",
    "DropFrame",
    "DuplicateFrame",
    "FaultInjector",
    "FaultSpec",
    "FaultySocket",
    "FrameValidator",
    "NO_RETRY",
    "NanSubcarriers",
    "NetworkFaultInjector",
    "NetworkFaultSpec",
    "PartialWrite",
    "PhaseGlitch",
    "ReorderFrames",
    "RetryPolicy",
    "ShortRead",
    "SlowLink",
    "TruncatePacket",
    "ValidationPolicy",
    "WireEffect",
    "ZeroSubcarriers",
    "flip_bytes",
    "raw_frame",
    "raw_trace",
] + list(_CHAOS_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _CHAOS_EXPORTS:
        from repro.dist import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
