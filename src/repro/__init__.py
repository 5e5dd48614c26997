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

from repro import _exports

__version__ = "1.0.0"

__all__ = _exports.install(
    globals(),
    {
        "channel": (
            "ChannelSimulator",
            "ImpairmentModel",
            "LogDistancePathLoss",
            "MultipathProfile",
            "PropagationPath",
            "synthesize_csi",
        ),
        "core": (
            "ApObservation",
            "DirectPathEstimate",
            "JointEstimator",
            "LocalizationResult",
            "Localizer",
            "MusicConfig",
            "PathEstimate",
            "SmoothingConfig",
            "SpotFi",
            "SpotFiConfig",
            "SteeringModel",
            "cluster_estimates",
            "sanitize_csi",
            "select_direct_path",
            "smooth_csi",
        ),
        "core.esprit": ("EspritEstimator",),
        "dist": ("ShardConfig", "ShardRouter"),
        "errors": (
            "CircuitOpenError",
            "DeadlineExceededError",
            "ReproError",
            "ShardUnavailableError",
            "ValidationError",
        ),
        "faults.breaker": ("CircuitBreaker",),
        "faults.injector": ("FaultInjector",),
        "faults.retry": ("RetryPolicy",),
        "faults.spec": ("FaultSpec",),
        "faults.validator": ("FrameValidator", "ValidationPolicy"),
        "geom": ("Floorplan", "Point", "RayTracer", "Segment"),
        "obs.config": ("ObsConfig",),
        "obs.histogram": ("Histogram",),
        "obs.prometheus": ("render_prometheus",),
        "obs.trace": ("JsonlSpanExporter", "Span", "Tracer"),
        "runtime": (
            "ParallelExecutor",
            "RuntimeMetrics",
            "SerialExecutor",
            "SteeringCache",
            "create_executor",
        ),
        "server": ("FixEvent", "SpotFiServer"),
        "testbed.layout": ("office_testbed",),
        "tracking": ("KalmanTrack2D",),
        "wifi": ("CsiFrame", "CsiTrace", "Intel5300", "OfdmGrid", "UniformLinearArray"),
    },
) + ["__version__"]
