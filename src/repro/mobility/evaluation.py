"""Track-error evaluation across speed profiles and estimator tiers.

Answers the serving-plane question the static evaluation cannot: *how
much accuracy does motion cost, per QoS tier?*  For each speed profile a
target traverses a planned route at a fixed fix cadence (faster targets
ping-pong the route so every speed yields the same number of bursts),
the localization pipeline produces per-burst fixes under each estimator
tier, and a :class:`~repro.mobility.tracks.TrackManager` filters them
into a track whose per-burst error against ground truth is reduced to
CDF quantiles.

The ``static`` row is the anchor: it reports *raw fix* error at a
stationary target — the number the per-location benchmarks already
measure — so "pedestrian track error within 1.5x of static fix error"
is a like-for-like regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import SpotFi, SpotFiConfig
from repro.errors import ConfigurationError, LocalizationError
from repro.eval.tracks import summarize_track
from repro.geom.points import Point
from repro.mobility.handoff import HandoffPolicy
from repro.mobility.motion import MotionBurst, motion_bursts
from repro.mobility.tracks import TrackManager
from repro.testbed.layout import Testbed, testbed_by_name
from repro.testbed.mobility import (
    OccupancyGrid,
    plan_route,
    resolve_speed,
    route_length,
    walk_route,
)
from repro.wifi.intel5300 import Intel5300

#: Collection cadence within a burst (the paper's 100 ms packet spacing).
PACKET_INTERVAL_S = 0.1

#: Label for the stationary anchor row.
STATIC = "static"


@dataclass(frozen=True)
class TrackEvalRow:
    """One (speed profile, estimator tier) cell of the evaluation grid.

    ``median_error_m``/``p90_error_m`` are track-error CDF quantiles for
    moving rows and raw fix-error quantiles for the ``static`` anchor.
    """

    name: str
    tier: str
    speed_mps: float
    samples: int
    fixes: int
    median_error_m: float
    p90_error_m: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tier": self.tier,
            "speed_mps": self.speed_mps,
            "samples": self.samples,
            "fixes": self.fixes,
            "median_error_m": self.median_error_m,
            "p90_error_m": self.p90_error_m,
        }


def _pingpong_route(route: List[Point], min_length_m: float) -> List[Point]:
    """Extend a route by walking it back and forth until it is long enough."""
    extended = list(route)
    leg = route
    while route_length(extended) < min_length_m:
        leg = list(reversed(leg))
        extended.extend(leg[1:])
    return extended


def sample_speed_trajectory(
    testbed: Testbed,
    speed: Union[str, float],
    bursts: int,
    burst_period_s: float,
    grid: Optional[OccupancyGrid] = None,
) -> List[Tuple[float, Point]]:
    """Timed waypoints for ``bursts`` fixes at one fix cadence.

    ``speed`` is :data:`STATIC` (hold the first target spot), a named
    profile, or a literal m/s value.  Moving targets traverse the route
    between the testbed's first and last target spots, ping-ponging it
    so every speed fills all ``bursts`` waypoints at the same cadence.
    """
    if bursts < 1 or burst_period_s <= 0:
        raise ConfigurationError(
            "need bursts >= 1 and a positive burst period"
        )
    anchor = testbed.targets[0].position
    if speed == STATIC:
        return [(i * burst_period_s, anchor) for i in range(bursts)]
    speed_mps = resolve_speed(speed)
    route = plan_route(
        testbed.floorplan, anchor, testbed.targets[-1].position, grid=grid
    )
    route = _pingpong_route(route, speed_mps * burst_period_s * bursts)
    samples = walk_route(route, speed_mps=speed_mps, interval_s=burst_period_s)
    return samples[:bursts]


def run_track_eval(
    testbed_name: str = "small",
    speeds: Sequence[Union[str, float]] = (STATIC, "pedestrian", "vehicular"),
    tiers: Sequence[str] = ("balanced", "coarse"),
    bursts: int = 12,
    packets_per_burst: int = 8,
    seed: int = 7,
    policy: Optional[HandoffPolicy] = None,
) -> List[TrackEvalRow]:
    """Evaluate track error over the (speed, tier) grid.

    Returns one row per cell, static rows first.  The same synthesized
    bursts feed every tier, so the tiers differ only in estimation.
    """
    testbed = testbed_by_name(testbed_name)
    simulator = testbed.simulator()
    grid = OccupancyGrid(testbed.floorplan)
    aps = {f"ap{i}": ap for i, ap in enumerate(testbed.aps)}
    spotfi = SpotFi(
        Intel5300().grid(),
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=packets_per_burst),
        rng=np.random.default_rng(seed),
    )
    burst_period_s = packets_per_burst * PACKET_INTERVAL_S
    rows: List[TrackEvalRow] = []
    for speed_index, speed in enumerate(speeds):
        samples = sample_speed_trajectory(
            testbed, speed, bursts, burst_period_s, grid=grid
        )
        track_bursts = motion_bursts(
            simulator,
            aps,
            samples,
            packets_per_burst,
            rng=np.random.default_rng(seed + speed_index),
            source=f"eval-{speed}",
            policy=policy,
        )
        speed_mps = 0.0 if speed == STATIC else resolve_speed(speed)
        for tier in tiers:
            rows.append(
                _evaluate_cell(spotfi, track_bursts, speed, speed_mps, tier)
            )
    return rows


def _evaluate_cell(
    spotfi: SpotFi,
    track_bursts: Sequence[MotionBurst],
    speed: Union[str, float],
    speed_mps: float,
    tier: str,
) -> TrackEvalRow:
    """Run one (speed, tier) cell over pre-synthesized bursts."""
    manager = TrackManager(origin="eval")
    source = f"eval-{speed}"
    truths: List[Tuple[float, float]] = []
    estimates: List[Optional[Tuple[float, float]]] = []
    fixes = 0
    for burst in track_bursts:
        truths.append((burst.position.x, burst.position.y))
        raw: Optional[Tuple[float, float]] = None
        try:
            fix = spotfi.locate(burst.pairs(), estimator=tier)
            raw = (fix.position.x, fix.position.y)
            fixes += 1
        except LocalizationError:
            pass
        if speed == STATIC:
            # Anchor row: raw fix error, like the per-location benchmarks.
            estimates.append(raw)
            continue
        observed = manager.observe(source, raw, burst.timestamp_s)
        estimates.append(observed.filtered)
    label = speed if isinstance(speed, str) else f"{speed:g}mps"
    summary = summarize_track(label, truths, estimates)
    return TrackEvalRow(
        name=label,
        tier=tier,
        speed_mps=speed_mps,
        samples=summary.samples,
        fixes=fixes,
        median_error_m=summary.median_error_m,
        p90_error_m=summary.p90_error_m,
    )
