"""Image-method ray tracing over a floorplan.

Produces the geometric multipath profile between a transmitter and a
receiver: the direct path, specular wall reflections up to a configurable
order, and scatterer bounces.  Each traced path records its polyline, the
walls it reflected off, and the walls it penetrated, from which the channel
model derives ToF, AoA, and complex gain.

The image method: to find the specular reflection off wall W from T to R,
mirror T across W's supporting line to get image T'; the straight segment
T'->R crosses W at the reflection point; the physical path is
T -> hit -> R with the same total length as |T'R|.  Second-order
reflections iterate the mirroring.

One :meth:`RayTracer.trace` runs as arrays over all walls
(:class:`~repro.geom.segments.WallArrays`): the images of every wall
sequence, the backward hit pass, the degenerate-leg check and one
``(legs x walls)`` crossing mask for every leg of the direct,
reflected and scattered paths.  The arrays repeat the scalar
``Segment`` arithmetic operation for operation, so the paths are those
of a one-wall-at-a-time trace, bit for bit and in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geom.floorplan import Floorplan, Scatterer
from repro.geom.points import Point, PointLike, as_point
from repro.geom.segments import Segment, WallArrays, distances_within

#: Path kinds, in the order the channel model distinguishes them.
KIND_DIRECT = "direct"
KIND_REFLECTION = "reflection"
KIND_SCATTER = "scatter"
KIND_DIFFRACTION = "diffraction"

#: One reflection order's specular paths: wall indices ``(n, k)`` and
#: vertex coordinates ``xs``, ``ys`` ``(n, k + 2)``, from tx to rx.
Chains = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TracedPath:
    """One geometric propagation path from transmitter to receiver.

    Attributes
    ----------
    vertices:
        Polyline from transmitter to receiver, including both endpoints.
    kind:
        One of ``direct``, ``reflection``, ``scatter``.
    reflecting_walls:
        Walls the path specularly reflected off, in order.
    penetrated_walls:
        Walls crossed (through-wall transmission), any order.
    scatterer:
        The scatterer bounced off, for ``scatter`` paths.
    diffraction_angle_rad:
        For ``diffraction`` paths: the bend angle at the edge (0 = the
        path barely grazes the edge, larger = deeper shadow).
    """

    vertices: Tuple[Point, ...]
    kind: str
    reflecting_walls: Tuple[Segment, ...] = ()
    penetrated_walls: Tuple[Segment, ...] = ()
    scatterer: Optional[Scatterer] = None
    diffraction_angle_rad: float = 0.0

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise GeometryError("a path needs at least 2 vertices")

    @property
    def length_m(self) -> float:
        """Total geometric path length (m)."""
        total = 0.0
        for a, b in zip(self.vertices, self.vertices[1:]):
            total += a.distance_to(b)
        return total

    @property
    def order(self) -> int:
        """Number of interactions (reflections/scatters) along the path."""
        if self.kind == KIND_SCATTER:
            return 1
        return len(self.reflecting_walls)

    def arrival_bearing_deg(self) -> float:
        """World bearing (deg) of the direction the signal *arrives from*.

        This is the bearing from the receiver back toward the last path
        vertex before it, which is what an antenna array at the receiver
        measures.
        """
        rx = self.vertices[-1]
        prev = self.vertices[-2]
        return rx.bearing_to_deg(prev)

    def departure_bearing_deg(self) -> float:
        """World bearing (deg) of the direction the signal departs toward."""
        tx = self.vertices[0]
        nxt = self.vertices[1]
        return tx.bearing_to_deg(nxt)


@dataclass
class RayTracer:
    """Enumerate propagation paths between points of a :class:`Floorplan`.

    Attributes
    ----------
    floorplan:
        The environment to trace.
    max_reflection_order:
        Highest specular reflection order to enumerate (2 covers the
        dominant indoor paths; 6-8 *significant* reflectors per the paper
        come from first/second order plus scatterers).
    include_scatterers:
        Whether to trace single-bounce scatterer paths.
    include_diffraction:
        Whether to trace knife-edge diffraction around wall endpoints
        when the direct line is obstructed.  Diffraction is what carries
        signal around door frames and corridor corners.
    allow_through_wall:
        If False, any path crossing a wall (other than at reflection
        points) is dropped instead of attenuated.
    """

    floorplan: Floorplan
    max_reflection_order: int = 2
    include_scatterers: bool = True
    include_diffraction: bool = False
    allow_through_wall: bool = True

    def trace(self, tx: PointLike, rx: PointLike) -> List[TracedPath]:
        """All propagation paths from ``tx`` to ``rx``, direct path first.

        Then the reflections, by order and, within one order, by wall
        sequence (each shorter sequence's extensions in wall order), then
        the scatterer paths and the diffraction paths.
        """
        tx_p, rx_p = as_point(tx), as_point(rx)
        if tx_p.distance_to(rx_p) < 1e-9:
            raise GeometryError("transmitter and receiver coincide")
        walls = WallArrays(self.floorplan.walls)
        chains = self._reflection_chains(walls, tx_p, rx_p)
        scatterers = self._visible_scatterers(tx_p, rx_p)
        per_leg = self._leg_crossings(walls, tx_p, rx_p, chains, scatterers)

        paths: List[TracedPath] = []
        if not per_leg[0] or self.allow_through_wall:
            paths.append(
                TracedPath(
                    vertices=(tx_p, rx_p),
                    kind=KIND_DIRECT,
                    penetrated_walls=tuple(per_leg[0]),
                )
            )
        leg = 1
        for sequences, xs, ys in chains:
            order = sequences.shape[1]
            for sequence, hit_x, hit_y in zip(
                sequences.tolist(), xs[:, 1:-1].tolist(), ys[:, 1:-1].tolist()
            ):
                penetrated = [w for walls_hit in per_leg[leg : leg + order + 1] for w in walls_hit]
                leg += order + 1
                if penetrated and not self.allow_through_wall:
                    continue
                paths.append(
                    TracedPath(
                        vertices=(tx_p, *map(Point, hit_x, hit_y), rx_p),
                        kind=KIND_REFLECTION,
                        reflecting_walls=tuple(walls.walls[i] for i in sequence),
                        penetrated_walls=tuple(penetrated),
                    )
                )
        for scatterer in scatterers:
            penetrated = per_leg[leg] + per_leg[leg + 1]
            leg += 2
            if penetrated and not self.allow_through_wall:
                continue
            paths.append(
                TracedPath(
                    vertices=(tx_p, scatterer.position, rx_p),
                    kind=KIND_SCATTER,
                    penetrated_walls=tuple(penetrated),
                    scatterer=scatterer,
                )
            )
        if self.include_diffraction and per_leg[0]:
            paths.extend(self._trace_diffraction(walls, tx_p, rx_p))
        return paths

    @staticmethod
    def _leg_crossings(
        walls: WallArrays,
        tx: Point,
        rx: Point,
        chains: List[Chains],
        scatterers: List[Scatterer],
    ) -> List[List[Segment]]:
        """Walls crossed by every leg, from one ``(legs x walls)`` mask.

        Legs in path order: the direct leg, each chain's legs from tx to
        rx, each scatterer's two legs.  A reflection leg ignores the
        walls it leaves from and arrives at (index -1: none).
        """
        legs = [(np.array([tx.x]), np.array([tx.y]), np.array([rx.x]), np.array([rx.y]))]
        ignored = [np.full((1, 2), -1)]
        for sequences, xs, ys in chains:
            legs.append((xs[:, :-1], ys[:, :-1], xs[:, 1:], ys[:, 1:]))
            none = np.full((len(sequences), 1), -1)
            before, after = np.hstack([none, sequences]), np.hstack([sequences, none])
            ignored.append(np.stack([before.ravel(), after.ravel()], axis=1))
        spots = [s.position for s in scatterers]
        legs.append(
            (
                np.array([(tx.x, s.x) for s in spots]),
                np.array([(tx.y, s.y) for s in spots]),
                np.array([(s.x, rx.x) for s in spots]),
                np.array([(s.y, rx.y) for s in spots]),
            )
        )
        ignored.append(np.full((2 * len(spots), 2), -1))
        ax, ay, bx, by = (np.concatenate([leg[i].ravel() for leg in legs]) for i in range(4))
        identity = np.append(walls.identity, -1)  # index -1 -> no wall
        skip = np.zeros((len(ax), len(walls)), dtype=bool)
        for column in np.concatenate(ignored).T:
            skip |= identity[:-1] == identity[column][:, None]
        per_leg: List[List[Segment]] = [[] for _ in range(len(ax))]
        crossed = walls.crossings(ax, ay, bx, by, skip)
        for leg, wall in zip(*(index.tolist() for index in np.nonzero(crossed))):
            per_leg[leg].append(walls.walls[wall])
        return per_leg

    # ------------------------------------------------------------------
    # Specular reflections (image method)
    # ------------------------------------------------------------------
    def _reflection_chains(
        self, walls: WallArrays, tx: Point, rx: Point
    ) -> List[Chains]:
        """Per reflection order, the wall sequences that reflect tx to rx.

        Returns one ``(sequences, xs, ys)`` per order k: the wall indices
        ``(n, k)`` of each sequence with a specular path, and that path's
        vertices ``(n, k + 2)`` from ``tx`` through its hits to ``rx``.
        A sequence never names the same wall twice in a row; order k's
        sequences are order k-1's, each extended by every wall in turn,
        and each image is its parent's image mirrored once more.
        """
        chains: List[Chains] = []
        count = len(walls)
        sequences = np.arange(count)[:, None]
        image_x, image_y = (v[:, None] for v in walls.mirror(sequences[:, 0], tx.x, tx.y))
        for order in range(1, self.max_reflection_order + 1):
            if order > 1:
                parent = np.repeat(np.arange(len(sequences)), count)
                wall = np.tile(np.arange(count), len(sequences))
                keep = walls.identity[wall] != walls.identity[sequences[parent, -1]]
                parent, wall = parent[keep], wall[keep]
                new_x, new_y = walls.mirror(wall, image_x[parent, -1], image_y[parent, -1])
                sequences = np.column_stack([sequences[parent], wall])
                image_x = np.column_stack([image_x[parent], new_x])
                image_y = np.column_stack([image_y[parent], new_y])
            chains.append(self._specular_paths(walls, sequences, image_x, image_y, tx, rx))
        return chains

    @staticmethod
    def _specular_paths(
        walls: WallArrays,
        sequences: np.ndarray,
        image_x: np.ndarray,
        image_y: np.ndarray,
        tx: Point,
        rx: Point,
    ) -> Chains:
        """The sequences whose backward pass hits every wall, and their vertices.

        Walking back from ``rx``, the segment from the image after wall
        j to the next vertex must cross wall j; the crossing is vertex
        j + 1.  Chains with a leg shorter than 1 um (a hit on an endpoint
        or on another hit, e.g. with the source on a wall's line) carry
        no usable geometry and are dropped.
        """
        n, order = sequences.shape
        xs = np.empty((n, order + 2))
        ys = np.empty((n, order + 2))
        xs[:, 0], ys[:, 0], xs[:, -1], ys[:, -1] = tx.x, tx.y, rx.x, rx.y
        found = np.ones(n, dtype=bool)
        for j in reversed(range(order)):
            hit, xs[:, j + 1], ys[:, j + 1] = walls.intersect(
                sequences[:, j], image_x[:, j], image_y[:, j], xs[:, j + 2], ys[:, j + 2]
            )
            found &= hit
        leg_x, leg_y = xs[:, :-1] - xs[:, 1:], ys[:, :-1] - ys[:, 1:]
        found &= ~(distances_within(leg_x, leg_y, 1e-6, found[:, None]) < 1e-6).any(axis=1)
        return sequences[found], xs[found], ys[found]

    # ------------------------------------------------------------------
    # Knife-edge diffraction
    # ------------------------------------------------------------------
    def _trace_diffraction(self, walls: WallArrays, tx: Point, rx: Point) -> List[TracedPath]:
        """Single-edge diffraction paths around wall endpoints.

        Only traced when the direct line is obstructed (diffraction is
        negligible next to a clear LoS path; the caller checks); each
        candidate edge must have unobstructed legs to both endpoints, and
        the path must actually *bend around* the blocking geometry (bend
        angle > 0).
        """
        edges: List[Point] = []
        seen: set = set()
        for wall in self.floorplan.walls:
            for edge in (wall.a, wall.b):
                key = (round(edge.x, 6), round(edge.y, 6))
                if key in seen:
                    continue
                seen.add(key)
                if edge.distance_to(tx) < 1e-6 or edge.distance_to(rx) < 1e-6:
                    continue
                # Only *free* edges diffract: an endpoint that touches
                # another wall is a junction/corner with no aperture.
                junction = any(
                    other is not wall and other.contains_point(edge)
                    for other in self.floorplan.walls
                )
                if not junction:
                    edges.append(edge)
        if not edges:
            return []
        ex, ey = [e.x for e in edges], [e.y for e in edges]
        n = len(edges)
        crossed = walls.crossings(
            [tx.x] * n + ex, [tx.y] * n + ey, ex + [rx.x] * n, ey + [rx.y] * n
        )
        visible = ~crossed.reshape(2, n, len(walls)).any(axis=(0, 2))
        paths: List[TracedPath] = []
        for edge in (e for e, seen_both in zip(edges, visible) if seen_both):
            # Bend angle: deviation from the straight tx->rx course.
            incoming = (edge - tx).normalized()
            outgoing = (rx - edge).normalized()
            cos_bend = max(-1.0, min(1.0, incoming.dot(outgoing)))
            bend = float(np.arccos(cos_bend)) if cos_bend < 1.0 else 0.0
            if bend < 1e-6:
                continue  # straight-through: not a real edge path
            paths.append(
                TracedPath(
                    vertices=(tx, edge, rx),
                    kind=KIND_DIFFRACTION,
                    diffraction_angle_rad=bend,
                )
            )
        # Keep the few shallowest bends: deep-shadow edges are negligible.
        paths.sort(key=lambda p: p.diffraction_angle_rad)
        return paths[:4]

    # ------------------------------------------------------------------
    # Scatterers
    # ------------------------------------------------------------------
    def _visible_scatterers(self, tx: Point, rx: Point) -> List[Scatterer]:
        """Scatterers to trace: all but those sitting on tx or rx."""
        if not self.include_scatterers:
            return []
        return [
            s
            for s in self.floorplan.scatterers
            if s.position.distance_to(tx) >= 1e-9 and s.position.distance_to(rx) >= 1e-9
        ]
