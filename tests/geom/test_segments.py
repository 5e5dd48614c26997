"""Tests for wall segments and intersection predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import reference_incidence_cos
from repro.errors import GeometryError
from repro.geom.points import Point
from repro.geom.segments import Segment, rectangle_walls


@pytest.fixture()
def horizontal():
    return Segment(Point(0, 0), Point(10, 0))


class TestConstruction:
    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Segment(Point(1, 1), Point(1, 1))

    def test_length_and_direction(self, horizontal):
        assert horizontal.length == 10.0
        assert horizontal.direction == Point(1, 0)
        assert horizontal.normal == Point(0, 1)

    def test_midpoint_and_point_at(self, horizontal):
        assert horizontal.midpoint() == Point(5, 0)
        assert horizontal.point_at(0.25) == Point(2.5, 0)


class TestMirror:
    def test_mirror_across_horizontal(self, horizontal):
        assert horizontal.mirror(Point(3, 4)) == Point(3, -4)

    def test_mirror_is_involution(self, horizontal):
        p = Point(2.3, 7.7)
        assert horizontal.mirror(horizontal.mirror(p)) == p

    def test_point_on_line_is_fixed(self, horizontal):
        m = horizontal.mirror(Point(4, 0))
        assert m.distance_to(Point(4, 0)) < 1e-12

    def test_mirror_diagonal(self):
        seg = Segment(Point(0, 0), Point(1, 1))
        m = seg.mirror(Point(1, 0))
        assert m.x == pytest.approx(0.0, abs=1e-12)
        assert m.y == pytest.approx(1.0)


class TestDistanceContains:
    def test_distance_to_interior_point(self, horizontal):
        assert horizontal.distance_to_point(Point(5, 3)) == pytest.approx(3.0)

    def test_distance_beyond_endpoint(self, horizontal):
        assert horizontal.distance_to_point(Point(13, 4)) == pytest.approx(5.0)

    def test_contains(self, horizontal):
        assert horizontal.contains_point(Point(5, 0))
        assert not horizontal.contains_point(Point(5, 0.1))


class TestIntersect:
    def test_proper_crossing(self, horizontal):
        hit = horizontal.intersect(Point(5, -1), Point(5, 1))
        assert hit is not None
        t, p = hit
        assert t == pytest.approx(0.5)
        assert p == Point(5, 0)

    def test_parallel_no_crossing(self, horizontal):
        assert horizontal.intersect(Point(0, 1), Point(10, 1)) is None

    def test_collinear_overlap_treated_as_no_crossing(self, horizontal):
        assert horizontal.intersect(Point(2, 0), Point(8, 0)) is None

    def test_miss_beyond_segment(self, horizontal):
        assert horizontal.intersect(Point(11, -1), Point(11, 1)) is None

    def test_crosses_excludes_endpoints(self, horizontal):
        # Path starting exactly on the wall is not "crossed" by it.
        assert not horizontal.crosses(Point(5, 0), Point(5, 5))
        assert horizontal.crosses(Point(5, -1), Point(5, 5))

    def test_crosses_with_endpoints_included(self, horizontal):
        assert horizontal.crosses(Point(5, 0), Point(5, 5), exclude_endpoints=False)


class TestIncidence:
    def test_normal_incidence(self, horizontal):
        assert horizontal.incidence_cos(Point(5, 5), Point(5, 0)) == pytest.approx(1.0)

    def test_grazing_incidence(self, horizontal):
        cos = horizontal.incidence_cos(Point(0, 0.001), Point(10, 0))
        assert cos < 0.01

    def test_zero_length_ray_rejected(self, horizontal):
        with pytest.raises(GeometryError):
            horizontal.incidence_cos(Point(5, 0), Point(5, 0))

    @given(st.lists(st.floats(-50.0, 50.0), min_size=8, max_size=8))
    def test_matches_point_arithmetic(self, coords):
        ax, ay, bx, by, sx, sy, hx, hy = coords
        try:
            wall = Segment(Point(ax, ay), Point(bx, by))
            want = reference_incidence_cos(wall, (sx, sy), Point(hx, hy))
        except GeometryError:
            return
        assert wall.incidence_cos((sx, sy), Point(hx, hy)).hex() == want.hex()


class TestRectangle:
    def test_four_walls(self):
        walls = rectangle_walls(0, 0, 4, 3, material="brick")
        assert len(walls) == 4
        assert sum(w.length for w in walls) == pytest.approx(14.0)
        assert all(w.material == "brick" for w in walls)

    def test_empty_rectangle_rejected(self):
        with pytest.raises(GeometryError):
            rectangle_walls(0, 0, 0, 3)
