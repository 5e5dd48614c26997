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

The chaos scenarios that drive these faults end to end live in
:mod:`repro.dist.chaos`.
"""

from repro import _exports

__all__ = _exports.install(
    globals(),
    {
        "faults.breaker": ("BREAKER_STATES", "CircuitBreaker"),
        "faults.injector": ("FaultInjector",),
        "faults.network": (
            "BlackHole",
            "ConnectionReset",
            "CorruptBytes",
            "FaultySocket",
            "NetworkFaultInjector",
            "NetworkFaultSpec",
            "PartialWrite",
            "ShortRead",
            "SlowLink",
            "WireEffect",
            "flip_bytes",
        ),
        "faults.retry": ("NO_RETRY", "RetryPolicy"),
        "faults.spec": (
            "ApBlackout",
            "DropAntenna",
            "DropFrame",
            "DuplicateFrame",
            "FaultSpec",
            "NanSubcarriers",
            "PhaseGlitch",
            "ReorderFrames",
            "TruncatePacket",
            "ZeroSubcarriers",
            "raw_frame",
            "raw_trace",
        ),
        "faults.validator": ("FrameValidator", "ValidationPolicy"),
    },
)
