"""Floorplans: named collections of wall segments plus scattering objects.

A floorplan is the static environment the channel simulator ray-traces:
walls produce specular reflections and through-wall attenuation; point
scatterers model furniture/metallic objects that produce extra multipath
without occluding (the paper's "multipath rich" environments have 6-8
significant reflectors, Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geom.points import Point, PointLike, as_point
from repro.geom.segments import Segment, WallArrays, rectangle_walls


@dataclass(frozen=True)
class Scatterer:
    """A point scatterer (furniture, metal cabinet, person...).

    Attributes
    ----------
    position:
        World (x, y).
    gain:
        Linear amplitude re-radiation efficiency in (0, 1]; multiplies the
        product of the two Friis legs (tx->scatterer, scatterer->rx).
    """

    position: Point
    gain: float = 0.3

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_point(self.position))
        if not 0.0 < self.gain <= 1.0:
            raise GeometryError(f"scatterer gain must be in (0, 1], got {self.gain}")


@dataclass
class Floorplan:
    """Walls + scatterers + a default wall material.

    Attributes
    ----------
    walls:
        Wall segments.  Order is irrelevant.
    scatterers:
        Point scatterers adding diffuse multipath.
    default_material:
        Material name used for walls whose ``material`` is empty.
    name:
        Human-readable label used in reports.
    """

    walls: List[Segment] = field(default_factory=list)
    scatterers: List[Scatterer] = field(default_factory=list)
    default_material: str = "drywall"
    name: str = "floorplan"

    def add_wall(self, a: PointLike, b: PointLike, material: str = "") -> Segment:
        wall = Segment(as_point(a), as_point(b), material)
        self.walls.append(wall)
        return wall

    def add_rectangle(
        self, x0: float, y0: float, x1: float, y1: float, material: str = ""
    ) -> List[Segment]:
        walls = rectangle_walls(x0, y0, x1, y1, material)
        self.walls.extend(walls)
        return walls

    def add_scatterer(self, position: PointLike, gain: float = 0.3) -> Scatterer:
        scatterer = Scatterer(as_point(position), gain)
        self.scatterers.append(scatterer)
        return scatterer

    def wall_material(self, wall: Segment) -> str:
        """Resolve a wall's material name through the floorplan default."""
        return wall.material or self.default_material

    # ------------------------------------------------------------------
    # Occlusion queries
    # ------------------------------------------------------------------
    def walls_crossed(
        self,
        a: PointLike,
        b: PointLike,
        ignore: Sequence[Segment] = (),
    ) -> List[Segment]:
        """Walls the open segment ``a -> b`` crosses, excluding ``ignore``.

        Crossings at the path endpoints are excluded (a ray leaving a
        reflection point on a wall is not blocked by that wall).
        """
        pa, pb = as_point(a), as_point(b)
        ignore_ids = {id(w) for w in ignore}
        skip = np.array([[id(w) in ignore_ids for w in self.walls]], dtype=bool)
        crossed = WallArrays(self.walls).crossings([pa.x], [pa.y], [pb.x], [pb.y], skip)[0]
        return [wall for wall, hit in zip(self.walls, crossed) if hit]

    def has_los(self, a: PointLike, b: PointLike) -> bool:
        """True if no wall obstructs the straight line between a and b."""
        return not self.walls_crossed(a, b)

    def bounds(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box (x0, y0, x1, y1) of all walls."""
        if not self.walls:
            raise GeometryError("floorplan has no walls")
        xs = [p.x for w in self.walls for p in (w.a, w.b)]
        ys = [p.y for w in self.walls for p in (w.a, w.b)]
        return min(xs), min(ys), max(xs), max(ys)

    def copy(self) -> "Floorplan":
        return Floorplan(
            walls=list(self.walls),
            scatterers=list(self.scatterers),
            default_material=self.default_material,
            name=self.name,
        )


def empty_room(
    width_m: float, height_m: float, material: str = "concrete", name: str = "room"
) -> Floorplan:
    """A rectangular room with four walls and nothing inside."""
    plan = Floorplan(name=name, default_material=material)
    plan.add_rectangle(0.0, 0.0, width_m, height_m, material)
    return plan
