"""SpotFi reproduction: decimeter-level WiFi localization from CSI.

Reproduces Kotaru et al., "SpotFi: Decimeter Level Localization Using
WiFi" (SIGCOMM 2015): super-resolution joint AoA/ToF estimation from
commodity 3-antenna CSI, direct-path identification by clustering
likelihoods, and likelihood-weighted AoA+RSSI localization — plus the full
substrate (indoor RF channel simulator, Intel 5300 measurement model,
testbed layouts) needed to evaluate it end to end.

Quick start::

    from repro import Intel5300, SpotFi, office_testbed

    testbed = office_testbed()
    sim = testbed.simulator()
    target = (8.0, 5.0)
    traces = [(ap, sim.generate_trace(target, ap, 40)) for ap in testbed.aps]
    spotfi = SpotFi(Intel5300().grid(), bounds=testbed.bounds)
    fix = spotfi.locate(traces)
    print(fix.position, fix.error_to(target))
"""

from repro.channel import (
    ChannelSimulator,
    ImpairmentModel,
    LogDistancePathLoss,
    MultipathProfile,
    PropagationPath,
    synthesize_csi,
)
from repro.core import (
    ApObservation,
    DirectPathEstimate,
    JointEstimator,
    LocalizationResult,
    Localizer,
    MusicConfig,
    PathEstimate,
    SmoothingConfig,
    SpotFi,
    SpotFiConfig,
    SteeringModel,
    cluster_estimates,
    sanitize_csi,
    select_direct_path,
    smooth_csi,
)
from repro.core.esprit import EspritEstimator
from repro.dist import ShardConfig, ShardRouter
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ShardUnavailableError,
    ValidationError,
)
from repro.faults import (
    CircuitBreaker,
    FaultInjector,
    FaultSpec,
    FrameValidator,
    RetryPolicy,
    ValidationPolicy,
)
from repro.geom import Floorplan, Point, RayTracer, Segment
from repro.obs import (
    Histogram,
    JsonlSpanExporter,
    ObsConfig,
    Span,
    Tracer,
    render_prometheus,
)
from repro.runtime import (
    ParallelExecutor,
    RuntimeMetrics,
    SerialExecutor,
    SteeringCache,
    create_executor,
)
from repro.server import FixEvent, SpotFiServer
from repro.tracking import KalmanTrack2D
from repro.wifi import CsiFrame, CsiTrace, Intel5300, OfdmGrid, UniformLinearArray

__version__ = "1.0.0"

__all__ = [
    "ApObservation",
    "ChannelSimulator",
    "CircuitBreaker",
    "CircuitOpenError",
    "CsiFrame",
    "CsiTrace",
    "DeadlineExceededError",
    "DirectPathEstimate",
    "EspritEstimator",
    "FaultInjector",
    "FaultSpec",
    "FixEvent",
    "Floorplan",
    "FrameValidator",
    "Histogram",
    "KalmanTrack2D",
    "ImpairmentModel",
    "Intel5300",
    "JointEstimator",
    "JsonlSpanExporter",
    "LocalizationResult",
    "Localizer",
    "LogDistancePathLoss",
    "MultipathProfile",
    "MusicConfig",
    "ObsConfig",
    "OfdmGrid",
    "ParallelExecutor",
    "PathEstimate",
    "Point",
    "PropagationPath",
    "RayTracer",
    "ReproError",
    "RetryPolicy",
    "RuntimeMetrics",
    "Segment",
    "SerialExecutor",
    "ShardConfig",
    "ShardRouter",
    "ShardUnavailableError",
    "SmoothingConfig",
    "Span",
    "SpotFi",
    "SpotFiConfig",
    "SpotFiServer",
    "SteeringCache",
    "SteeringModel",
    "Tracer",
    "UniformLinearArray",
    "ValidationError",
    "ValidationPolicy",
    "cluster_estimates",
    "create_executor",
    "office_testbed",
    "render_prometheus",
    "sanitize_csi",
    "select_direct_path",
    "smooth_csi",
    "synthesize_csi",
    "__version__",
]


def office_testbed():
    """Convenience re-export of :func:`repro.testbed.layout.office_testbed`.

    Imported lazily so the core library stays importable while the testbed
    subpackage is optional for library-only users.
    """
    from repro.testbed.layout import office_testbed as _office_testbed

    return _office_testbed()
