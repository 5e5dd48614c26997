"""Line segments (walls) and the intersection predicates ray tracing needs.

:class:`Segment` states each predicate for one wall in scalar
arithmetic; :class:`WallArrays` evaluates the same arithmetic over many
walls and many query segments at once, which is how the floorplan's
occlusion queries and the ray tracer run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import GeometryError
from repro.geom.points import Point, PointLike, as_point

#: Tolerance (m) for "point lies on segment" style predicates.
EPS = 1e-9


@dataclass(frozen=True)
class Segment:
    """A 2-D line segment with an optional material name (for walls).

    Attributes
    ----------
    a, b:
        Endpoints.
    material:
        Name of the wall material, resolved against a
        :class:`~repro.channel.materials.MaterialLibrary` by the channel
        simulator.  Empty string means "use the floorplan default".
    """

    a: Point
    b: Point
    material: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_point(self.a))
        object.__setattr__(self, "b", as_point(self.b))
        if self.a.distance_to(self.b) < EPS:
            raise GeometryError(f"degenerate (zero-length) segment at {self.a}")

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    @property
    def direction(self) -> Point:
        return (self.b - self.a).normalized()

    @property
    def normal(self) -> Point:
        """Unit normal (direction rotated +90 degrees)."""
        d = self.direction
        return Point(-d.y, d.x)

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    def point_at(self, t: float) -> Point:
        """Point at parameter t in [0, 1] along the segment."""
        return Point(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        )

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def mirror(self, point: PointLike) -> Point:
        """Reflect ``point`` across this segment's supporting line.

        This is the "image" of the image method for specular reflections.
        """
        p = as_point(point)
        d = self.direction
        ap = p - self.a
        along = d * ap.dot(d)
        perp = ap - along
        return p - perp * 2.0

    def distance_to_point(self, point: PointLike) -> float:
        """Distance from ``point`` to the segment (not the infinite line)."""
        p = as_point(point)
        d = self.b - self.a
        t = (p - self.a).dot(d) / d.dot(d)
        t = max(0.0, min(1.0, t))
        return self.point_at(t).distance_to(p)

    def contains_point(self, point: PointLike, tol: float = 1e-6) -> bool:
        """True if ``point`` lies on the segment within ``tol`` meters."""
        return self.distance_to_point(point) <= tol

    def intersect(self, other_a: PointLike, other_b: PointLike) -> Optional[Tuple[float, Point]]:
        """Intersect this segment with the segment ``other_a -> other_b``.

        Returns ``(t, point)`` where ``t`` in [0, 1] is the parameter along
        *this* segment, or ``None`` if they do not properly intersect.
        Collinear overlap returns ``None`` (grazing along a wall is treated
        as no crossing — appropriate for occlusion tests on thin walls).
        """
        p = self.a
        r = self.b - self.a
        q = as_point(other_a)
        s = as_point(other_b) - q
        denom = r.cross(s)
        if abs(denom) < EPS:
            return None
        qp = q - p
        t = qp.cross(s) / denom
        u = qp.cross(r) / denom
        if -EPS <= t <= 1.0 + EPS and -EPS <= u <= 1.0 + EPS:
            t = max(0.0, min(1.0, t))
            return t, self.point_at(t)
        return None

    def crosses(
        self,
        path_a: PointLike,
        path_b: PointLike,
        exclude_endpoints: bool = True,
        endpoint_tol: float = 1e-6,
    ) -> bool:
        """True if the path ``path_a -> path_b`` crosses this wall.

        With ``exclude_endpoints`` (the default), crossings within
        ``endpoint_tol`` of either path endpoint are ignored — a reflection
        point *on* this wall should not count as the wall obstructing its
        own reflected ray.
        """
        pa, pb = as_point(path_a), as_point(path_b)
        tol = endpoint_tol if exclude_endpoints else -1.0
        crossed = WallArrays([self]).crossings([pa.x], [pa.y], [pb.x], [pb.y], endpoint_tol=tol)
        return bool(crossed[0, 0])

    def incidence_cos(self, incoming_from: PointLike, hit_point: PointLike) -> float:
        """|cos| of the incidence angle of a ray arriving at ``hit_point``.

        1.0 is normal incidence, 0.0 is grazing.  Used by the material
        model: reflection is strongest at grazing incidence.

        Plain-float arithmetic, operation for operation the ``Point`` form
        ``abs((v / |v|).dot(self.normal))``.
        """
        hit, start = as_point(hit_point), as_point(incoming_from)
        vx, vy = hit.x - start.x, hit.y - start.y
        n = math.hypot(vx, vy)
        if n < EPS:
            raise GeometryError("incidence ray has zero length")
        dx, dy = self.b.x - self.a.x, self.b.y - self.a.y
        length = math.hypot(dx, dy)
        return abs(vx / n * -(dy / length) + vy / n * (dx / length))


def rectangle_walls(
    x0: float, y0: float, x1: float, y1: float, material: str = ""
) -> "list[Segment]":
    """The four walls of an axis-aligned rectangle, counter-clockwise."""
    if x1 <= x0 or y1 <= y0:
        raise GeometryError(f"empty rectangle ({x0},{y0})-({x1},{y1})")
    c = [Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)]
    return [
        Segment(c[0], c[1], material),
        Segment(c[1], c[2], material),
        Segment(c[2], c[3], material),
        Segment(c[3], c[0], material),
    ]


#: A wall selector for :class:`WallArrays`: indices, or ``slice(None)``
#: for every wall along the last axis.
WallIndex = Union[np.ndarray, slice]


def _clamp_unit(t: np.ndarray) -> np.ndarray:
    """``max(0.0, min(1.0, t))`` elementwise, keeping its choice at ties and -0.0."""
    t = np.where(t < 1.0, t, 1.0)
    return np.where(t > 0.0, t, 0.0)


def distances_within(
    dx: np.ndarray, dy: np.ndarray, limit: float, candidates: np.ndarray
) -> np.ndarray:
    """``math.hypot(dx, dy)`` of the candidates that may lie within ``limit``.

    Every other entry is ``inf``.  ``np.hypot`` need not round like
    ``math.hypot``, so the few distances a threshold can decide are
    computed one by one in Python.  A rounded hypotenuse is never below
    its longer leg, so an entry with a leg longer than ``2 * limit`` is
    farther than ``limit`` and keeps ``inf``.
    """
    dx, dy, candidates = np.broadcast_arrays(dx, dy, candidates)
    near = candidates & (np.maximum(np.abs(dx), np.abs(dy)) <= 2.0 * limit)
    out = np.full(near.shape, np.inf)
    for i in np.flatnonzero(near).tolist():
        out.flat[i] = math.hypot(dx.flat[i], dy.flat[i])
    return out


class WallArrays:
    """A wall list as coordinate columns, for predicates over many walls.

    :meth:`mirror`, :meth:`intersect` and :meth:`offsets_from` repeat
    :meth:`Segment.mirror`, :meth:`Segment.intersect` and
    :meth:`Segment.distance_to_point` elementwise, operation for operation
    and in the same order, so every float they return equals the scalar
    result bit for bit: numpy applies the same IEEE-754 double operations
    and fuses none of them.  Wall directions come from
    :attr:`Segment.direction` itself.  The columns are a snapshot of
    ``walls``: build a new one after the wall list changes.
    """

    def __init__(self, walls: Sequence[Segment]) -> None:
        self.walls = list(walls)
        columns = np.array(
            [(w.a.x, w.a.y, w.b.x, w.b.y, *w.direction) for w in self.walls], dtype=float
        ).reshape(-1, 6)
        self.ax, self.ay, self.bx, self.by, self.dx, self.dy = columns.T
        self.rx = self.bx - self.ax
        self.ry = self.by - self.ay
        first: Dict[int, int] = {}
        #: Per wall, the index of the first entry holding the same object:
        #: ``walls[i] is walls[j]`` exactly when the identities are equal.
        self.identity = np.array(
            [first.setdefault(id(w), i) for i, w in enumerate(self.walls)], dtype=np.intp
        )

    def __len__(self) -> int:
        return len(self.walls)

    def mirror(
        self, wall: WallIndex, px: np.ndarray, py: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Points ``(px, py)`` reflected across the lines of walls ``wall``."""
        dx, dy = self.dx[wall], self.dy[wall]
        apx, apy = px - self.ax[wall], py - self.ay[wall]
        along = apx * dx + apy * dy
        perpx, perpy = apx - dx * along, apy - dy * along
        return px - perpx * 2.0, py - perpy * 2.0

    def intersect(
        self,
        wall: WallIndex,
        qx: np.ndarray,
        qy: np.ndarray,
        ex: np.ndarray,
        ey: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walls ``wall`` against the segments ``(qx, qy) -> (ex, ey)``.

        Returns ``(hit, x, y)``: where :meth:`Segment.intersect` would
        return ``(t, point)``, ``hit`` is True and ``(x, y)`` is that
        point; elsewhere ``x``/``y`` hold meaningless values.
        """
        ax, ay, rx, ry = self.ax[wall], self.ay[wall], self.rx[wall], self.ry[wall]
        sx, sy = ex - qx, ey - qy
        denom = rx * sy - ry * sx
        qpx, qpy = qx - ax, qy - ay
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (qpx * sy - qpy * sx) / denom
            u = (qpx * ry - qpy * rx) / denom
            hit = (
                ~(np.abs(denom) < EPS)
                & (-EPS <= t)
                & (t <= 1.0 + EPS)
                & (-EPS <= u)
                & (u <= 1.0 + EPS)
            )
            t = _clamp_unit(t)
            return hit, ax + t * rx, ay + t * ry

    def offsets_from(
        self, px: Sequence[float], py: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(points, walls)`` offsets from points ``(px, py)`` to each wall.

        The offset runs from the point to its closest point on the wall:
        :meth:`Segment.distance_to_point` is ``math.hypot`` of it, and
        this repeats that method's arithmetic op for op.
        """
        px, py = (np.asarray(v, dtype=float)[:, None] for v in (px, py))
        t = ((px - self.ax) * self.rx + (py - self.ay) * self.ry) / (
            self.rx * self.rx + self.ry * self.ry
        )
        t = _clamp_unit(t)
        return self.ax + t * self.rx - px, self.ay + t * self.ry - py

    def crossings(
        self,
        ax: Sequence[float],
        ay: Sequence[float],
        bx: Sequence[float],
        by: Sequence[float],
        skip: Optional[np.ndarray] = None,
        endpoint_tol: float = 1e-6,
    ) -> np.ndarray:
        """``(legs, walls)`` mask: which walls each leg ``a -> b`` crosses.

        A wall crosses a leg when they intersect farther than
        ``endpoint_tol`` from both leg endpoints (a negative tolerance
        keeps hits at the endpoints too) -- :meth:`Segment.crosses` for
        every pair.  Pairs set in the ``(legs, walls)`` mask ``skip``
        are not tested and read False.
        """
        pax, pay, pbx, pby = (np.asarray(v, dtype=float)[:, None] for v in (ax, ay, bx, by))
        hit, x, y = self.intersect(slice(None), pax, pay, pbx, pby)
        if skip is not None:
            hit &= ~skip
        for px, py in ((pax, pay), (pbx, pby)):
            hit &= ~(distances_within(x - px, y - py, endpoint_tol, hit) <= endpoint_tol)
        return hit
