"""SpotFi's core algorithms (the paper's contribution).

Sub-modules follow the paper's structure:

* :mod:`repro.core.steering` — Eq. 1/2/6/7 steering vectors.
* :mod:`repro.core.smoothing` — Fig. 4 smoothed CSI matrix.
* :mod:`repro.core.sanitize` — Algorithm 1 ToF sanitization.
* :mod:`repro.core.music` — MUSIC noise subspace and 2-D pseudospectrum.
* :mod:`repro.core.peaks` — spectrum peak extraction.
* :mod:`repro.core.estimator` — the per-packet CSI front end and joint
  (AoA, ToF) estimation.
* :mod:`repro.core.clustering` — GMM/k-means over multi-packet estimates.
* :mod:`repro.core.likelihood` — Eq. 8 direct-path likelihood.
* :mod:`repro.core.direct_path` — direct-path selection.
* :mod:`repro.core.localization` — Eq. 9 position solver.
* :mod:`repro.core.pipeline` — Algorithm 2 end to end.
"""

from repro.core.clustering import GaussianMixture, KMeans, PathCluster, cluster_estimates
from repro.core.direct_path import DirectPathEstimate, select_direct_path
from repro.core.estimator import JointEstimator, PathEstimate
from repro.core.likelihood import LikelihoodWeights, path_likelihoods
from repro.core.localization import ApObservation, LocalizationResult, Localizer
from repro.core.music import MusicConfig, music_spectrum, noise_subspace
from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.core.sanitize import sanitize_csi, sanitize_phase
from repro.core.smoothing import SmoothingConfig, smooth_csi
from repro.core.steering import SteeringModel

__all__ = [
    "ApObservation",
    "DirectPathEstimate",
    "GaussianMixture",
    "JointEstimator",
    "KMeans",
    "LikelihoodWeights",
    "LocalizationResult",
    "Localizer",
    "MusicConfig",
    "PathCluster",
    "PathEstimate",
    "SmoothingConfig",
    "SpotFi",
    "SpotFiConfig",
    "SteeringModel",
    "cluster_estimates",
    "music_spectrum",
    "noise_subspace",
    "path_likelihoods",
    "sanitize_csi",
    "sanitize_phase",
    "select_direct_path",
    "smooth_csi",
]
