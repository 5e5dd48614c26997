"""Exception hierarchy for the SpotFi reproduction library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent or invalid parameters."""


class CsiShapeError(ReproError):
    """A CSI array does not have the (antennas, subcarriers) shape expected."""


class EstimationError(ReproError):
    """A parameter-estimation step failed (e.g. no spectrum peaks found)."""


class ClusteringError(ReproError):
    """The (AoA, ToF) clustering step could not produce valid clusters."""


class LocalizationError(ReproError):
    """The localization solver could not produce a position estimate."""


class GeometryError(ReproError):
    """A geometric construction is degenerate (zero-length wall, etc.)."""


class TraceFormatError(ReproError):
    """A CSI trace file is malformed or uses an unsupported version."""


class BackpressureError(ReproError):
    """A bounded ingest buffer is full and its policy is to reject."""


class ValidationError(ReproError):
    """An ingested CSI frame failed validation and was quarantined.

    Raised (or recorded, depending on the
    :class:`~repro.faults.FrameValidator` policy) when a frame is
    malformed: wrong shape, non-finite entries, power below the noise
    floor, or a timestamp that runs backwards.  The offending frame never
    reaches smoothing/MUSIC.
    """


class ContractError(ReproError, ValueError):
    """A runtime shape/dtype contract was violated.

    Also a :class:`ValueError`: callers that guard numeric APIs with
    ``except ValueError`` keep working when contracts are switched on.

    Raised by :func:`repro.analysis.contracts.contract`-wrapped
    functions (only when ``REPRO_CONTRACTS=1``) when an argument or
    return value does not match its declared ndarray shape/dtype spec.
    The message names the offending parameter and the expected vs.
    actual shape.
    """


class UnknownEstimatorError(ConfigurationError):
    """A requested estimator (or QoS tier) name is not registered.

    Raised by :func:`repro.estimators.resolve_name` when a ``locate``,
    server, shard, or CLI request names an estimator that neither the
    built-in registry nor any discovered plugin provides.  The message
    lists the names that *are* available.
    """


class CircuitOpenError(ReproError):
    """A per-AP circuit breaker is open and is shedding this call.

    The breaker opened after consecutive failures from the AP; callers
    should skip the AP (serve from the surviving quorum) and retry after
    the breaker's recovery window moves it to half-open.
    """


class ShardUnavailableError(ReproError):
    """No live shard remains to route a key to.

    Raised by :class:`~repro.dist.router.ShardRouter` when every shard in
    the ring has been marked dead (failed health checks or connection
    errors) and a packet or flush has nowhere to go.  Until then, shard
    death is absorbed by failover: the dead shard's key range is
    re-hashed onto the survivors and counted under ``dist.failover.*``.
    """


class DeadlineExceededError(ReproError):
    """A work item missed its deadline on the executor.

    Raised by :class:`~repro.runtime.executor.ParallelExecutor` when a
    chunk of estimation tasks (one per AP) does not complete within the
    :class:`~repro.faults.RetryPolicy` timeout after exhausting retries.
    """
