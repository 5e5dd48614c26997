#!/usr/bin/env python3
"""Track a device walking through the building — the paper's motivating
indoor-navigation use case (and its "motion tracing" future work).

A target walks a corridor-to-office route through the Fig. 6 testbed; at
each waypoint it transmits a short packet burst (the paper shows 10
packets suffice, Fig. 9(b)).  Each burst's :meth:`repro.SpotFi.locate`
fix feeds a :class:`repro.mobility.tracks.TrackManager`, whose track runs
a constant-velocity Kalman filter with outlier gating, and the script
compares raw vs filtered trajectory error, plus a crude ASCII map.

Run:  python examples/device_tracking.py [--packets N]
"""

import argparse

import numpy as np

from repro import SpotFi, SpotFiConfig
from repro.errors import LocalizationError
from repro.mobility.tracks import TrackManager
from repro.testbed import collect_location, office_testbed, plan_route, walk_route
from repro.testbed.collection import as_ap_trace_pairs


def waypoints(testbed, speed_mps=1.2, interval_s=2.0):
    """A realistic walk: A*-planned from corridor A into the office region.

    The route threads the corridor door gaps (no chords through concrete);
    positions are sampled at walking speed every ``interval_s``.
    """
    route = plan_route(testbed.floorplan, (4.0, 13.0), (10.0, 6.0), cell_m=0.5)
    return [pos.as_tuple() for _, pos in walk_route(route, speed_mps, interval_s)]


def ascii_map(testbed, truth, estimates, cols=72, rows=18):
    x0, y0, x1, y1 = testbed.bounds
    canvas = [[" "] * cols for _ in range(rows)]

    def plot(p, ch):
        col = int((p[0] - x0) / (x1 - x0) * (cols - 1))
        row = int((1.0 - (p[1] - y0) / (y1 - y0)) * (rows - 1))
        canvas[max(0, min(rows - 1, row))][max(0, min(cols - 1, col))] = ch

    for ap in testbed.aps:
        plot(ap.position, "A")
    for p in truth:
        plot(p, "o")
    for p in estimates:
        plot(p, "x")
    border = "+" + "-" * cols + "+"
    body = "\n".join("|" + "".join(r) + "|" for r in canvas)
    return f"{border}\n{body}\n{border}\n  A = AP   o = true waypoint   x = SpotFi fix"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    testbed = office_testbed()
    sim = testbed.simulator()
    spotfi = SpotFi(
        sim.grid,
        bounds=testbed.bounds,
        config=SpotFiConfig(packets_per_fix=args.packets),
        rng=np.random.default_rng(0),
    )

    tracks = TrackManager(measurement_std_m=1.0, gate_sigmas=4.0)
    rng = np.random.default_rng(args.seed)
    route = waypoints(testbed)
    fixes, raw_errors, filtered_errors = [], [], []
    print(f"tracking a target over {len(route)} waypoints, {args.packets} packets each")
    for i, point in enumerate(route):
        recordings = collect_location(
            sim, point, testbed.aps, num_packets=args.packets, rng=rng
        )
        try:
            raw = spotfi.locate(as_ap_trace_pairs(recordings)).position.as_tuple()
        except LocalizationError:
            raw = None
        sample = tracks.observe("device", raw, float(i) * 2.0)
        raw_err = np.hypot(raw[0] - point[0], raw[1] - point[1]) if raw else np.nan
        filtered = sample.filtered
        filt_err = (
            np.hypot(filtered[0] - point[0], filtered[1] - point[1])
            if filtered
            else np.nan
        )
        if filtered:
            fixes.append(filtered)
        raw_errors.append(raw_err)
        filtered_errors.append(filt_err)
        gate = "" if sample.accepted else "  [gated out]"
        print(
            f"  waypoint {i:2d}: truth ({point[0]:5.1f},{point[1]:5.1f})  "
            f"raw err {raw_err:5.2f} m  filtered err {filt_err:5.2f} m"
            f"  ({len(recordings)} APs){gate}"
        )

    print()
    print(
        f"raw fixes      : median {np.nanmedian(raw_errors):.2f} m, "
        f"worst {np.nanmax(raw_errors):.2f} m"
    )
    print(
        f"Kalman filtered: median {np.nanmedian(filtered_errors):.2f} m, "
        f"worst {np.nanmax(filtered_errors):.2f} m"
    )
    track = tracks.track_for("device")
    if track is not None and track.filter.initialized:
        vx, vy = track.filter.velocity
        print(f"final velocity estimate: ({vx:+.2f}, {vy:+.2f}) m/s")
    else:
        print("final velocity estimate: none (the track closed)")
    print()
    print(ascii_map(testbed, route, fixes))


if __name__ == "__main__":
    main()
