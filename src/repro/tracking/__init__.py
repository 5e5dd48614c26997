"""Target tracking on top of SpotFi fixes.

The paper's conclusion names "motion tracing" as the natural extension of
SpotFi's techniques; this package provides its filter: a constant-velocity
Kalman filter over position fixes with innovation gating.  Per-source
track lifecycles live in :class:`repro.mobility.tracks.TrackManager`.
"""

from repro.tracking.kalman import KalmanTrack2D

__all__ = ["KalmanTrack2D"]
