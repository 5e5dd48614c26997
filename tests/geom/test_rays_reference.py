"""The array ray tracer against the scalar one it replaced, path for path.

``RayTracer.trace`` runs the image method as arrays over all walls and
must return exactly what ``reference_trace`` (one wall sequence, one
``Point`` at a time) returns: the same paths in the same order, every
vertex coordinate bit for bit, every wall and scatterer the same object.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import reference_trace, reference_walls_crossed

from repro.geom.floorplan import Floorplan
from repro.geom.points import Point
from repro.geom.rays import RayTracer, TracedPath
from repro.geom.segments import Segment
from repro.testbed.layout import office_testbed, small_testbed


def _coordinates(path: TracedPath):
    return [(type(v.x), float(v.x).hex(), type(v.y), float(v.y).hex()) for v in path.vertices]


def assert_same_paths(actual: List[TracedPath], expected: List[TracedPath]) -> None:
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.kind == want.kind
        assert _coordinates(got) == _coordinates(want)
        assert len(got.reflecting_walls) == len(want.reflecting_walls)
        assert all(a is b for a, b in zip(got.reflecting_walls, want.reflecting_walls))
        assert len(got.penetrated_walls) == len(want.penetrated_walls)
        assert all(a is b for a, b in zip(got.penetrated_walls, want.penetrated_walls))
        assert got.scatterer is want.scatterer
        assert float(got.diffraction_angle_rad).hex() == float(want.diffraction_angle_rad).hex()


@pytest.mark.parametrize("factory", [office_testbed, small_testbed], ids=["office", "small"])
def test_testbed_links_match_reference(factory):
    testbed = factory()
    tracer = RayTracer(testbed.floorplan)
    for target in testbed.targets:
        for ap in testbed.aps:
            expected = reference_trace(tracer, target.position, ap.position)
            assert_same_paths(tracer.trace(target.position, ap.position), expected)


def test_wallless_floorplan_matches_reference():
    plan = Floorplan()
    plan.add_scatterer((1.0, 1.0), 0.3)
    for order in range(3):
        tracer = RayTracer(plan, max_reflection_order=order, include_diffraction=True)
        assert_same_paths(tracer.trace((0, 0), (2, 3)), reference_trace(tracer, (0, 0), (2, 3)))


@pytest.mark.parametrize("gap", [0.0, 5e-7, 1e-6, 2e-6, 1e-4])
def test_junction_tolerance_matches_reference(gap):
    """A blocking wall's end ``gap`` below another wall: a junction up to 1 um."""
    plan = Floorplan()
    plan.add_wall((0.0, -1.0), (0.0, 1.0))
    plan.add_wall((-0.5, 1.0 + gap), (0.5, 1.0 + gap))
    tracer = RayTracer(plan, max_reflection_order=0, include_diffraction=True)
    paths = tracer.trace((-1.0, 0.2), (1.0, 0.2))
    assert_same_paths(paths, reference_trace(tracer, (-1.0, 0.2), (1.0, 0.2)))
    free = any(p.vertices[1] == Point(0.0, 1.0) for p in paths if p.kind == "diffraction")
    assert free == (gap > 1e-6)


# Coordinates on a half-metre lattice make collinear, touching and
# crossing walls common; decimetres are not exact binary fractions, so
# their hits land just off wall ends; free floats keep the general case.
_coord = st.one_of(
    st.integers(0, 16).map(lambda k: k / 2.0),
    st.integers(0, 80).map(lambda k: k / 10.0),
    st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
)
_point = st.tuples(_coord, _coord).map(lambda xy: Point(*xy))


@st.composite
def _segment(draw):
    a = draw(_point)
    b = draw(_point.filter(lambda p: p.distance_to(a) > 1e-3))
    return Segment(a, b, draw(st.sampled_from(["", "brick", "glass"])))


@st.composite
def _scene(draw):
    walls = draw(st.lists(_segment(), min_size=1, max_size=6))
    if draw(st.booleans()):
        # A wall on another's supporting line, touching or overlapping it.
        base = draw(st.sampled_from(walls))
        s0, s1 = draw(st.sampled_from([(1.0, 2.0), (0.5, 1.5), (-1.0, 0.0), (0.25, 0.75)]))
        walls.append(Segment(base.point_at(s0), base.point_at(s1)))
    if draw(st.booleans()):
        walls.append(walls[0])  # the same wall object listed twice
    plan = Floorplan(walls=walls, default_material="drywall")
    for position in draw(st.lists(_point, max_size=2)):
        plan.add_scatterer(position, 0.3)
    tx = draw(_point)
    if draw(st.booleans()):
        # The source on a wall's line: on it, at an end, or beyond it.
        wall = draw(st.sampled_from(walls))
        tx = wall.point_at(draw(st.sampled_from([-0.5, 0.0, 0.3, 0.5, 1.0, 1.5])))
    rx = draw(_point.filter(lambda p: p.distance_to(tx) >= 1e-6))
    if draw(st.booleans()):
        # A receiver whose first-order reflection meets a wall at its end,
        # where rounding puts the hit parameter just outside [0, 1].
        wall = draw(st.sampled_from(walls))
        end = wall.point_at(draw(st.sampled_from([0.0, 1.0])))
        ray = end - wall.mirror(tx)
        candidate = end + ray * draw(st.sampled_from([0.3, 0.7, 1.0, 2.1]))
        if candidate.distance_to(tx) >= 1e-6 and ray.norm() > 1e-6:
            rx = candidate
    tracer = RayTracer(
        plan,
        max_reflection_order=draw(st.integers(0, 3)),
        include_scatterers=draw(st.booleans()),
        include_diffraction=draw(st.booleans()),
        allow_through_wall=draw(st.booleans()),
    )
    return tracer, tx, rx


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scene())
def test_random_floorplans_match_reference(scene):
    tracer, tx, rx = scene
    assert_same_paths(tracer.trace(tx, rx), reference_trace(tracer, tx, rx))


@settings(max_examples=300, deadline=None)
@given(_scene(), _point)
def test_walls_crossed_matches_reference(scene, a):
    tracer, tx, _ = scene
    plan = tracer.floorplan
    for ignore in ((), plan.walls[:1]):
        actual = plan.walls_crossed(a, tx, ignore=ignore)
        expected = reference_walls_crossed(plan, a, tx, ignore=ignore)
        assert len(actual) == len(expected)
        assert all(x is y for x, y in zip(actual, expected))
