"""The simulated building floor of the evaluation (paper Fig. 6).

The layout replicates the paper's testbed topology: a 16 m x 10 m office
region ("typical indoor office environment", the dashed red box), two long
corridors, and a far wing of smaller offices where targets see at most a
couple of APs in LoS.  55 target locations span the floor; wall-mounted
3-antenna APs cover the office region and the corridors.

Geometry is parametric but fixed: coordinates are chosen once so every
benchmark sees the same building.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.channel.csi_model import ChannelSimulator
from repro.channel.impairments import ImpairmentModel
from repro.errors import ConfigurationError
from repro.geom.floorplan import Floorplan
from repro.geom.points import Point, as_point
from repro.wifi.arrays import UniformLinearArray
from repro.wifi.intel5300 import Intel5300

#: Zone labels for target locations.
ZONE_OFFICE = "office"
ZONE_CORRIDOR = "corridor"
ZONE_FAR_WING = "far_wing"


@dataclass(frozen=True)
class TargetSpot:
    """One evaluated target location."""

    position: Point
    zone: str
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_point(self.position))


@dataclass
class Testbed:
    """A floorplan + AP deployment + target locations.

    Attributes
    ----------
    floorplan:
        The building geometry.
    aps:
        All deployed APs (uniform linear arrays).
    ap_labels:
        Parallel labels ("office-1", "corridor-A", ...).
    targets:
        The evaluated target locations.
    bounds:
        Localization search rectangle (the building bounding box).
    name:
        Testbed identifier for reports.
    """

    floorplan: Floorplan
    aps: List[UniformLinearArray]
    ap_labels: List[str]
    targets: List[TargetSpot]
    bounds: Tuple[float, float, float, float]
    name: str = "testbed"

    def __post_init__(self) -> None:
        if len(self.aps) != len(self.ap_labels):
            raise ValueError("aps and ap_labels must be parallel lists")

    def simulator(
        self,
        impairments: Optional[ImpairmentModel] = None,
        card: Optional[Intel5300] = None,
        **kwargs,
    ) -> ChannelSimulator:
        """Channel simulator for this testbed's floorplan and card model."""
        card = card or Intel5300()
        return ChannelSimulator(
            floorplan=self.floorplan,
            grid=card.grid(),
            impairments=impairments or ImpairmentModel(),
            **kwargs,
        )

    def office_aps(self) -> List[UniformLinearArray]:
        """APs covering the office region (labels starting ``office``)."""
        return [ap for ap, lbl in zip(self.aps, self.ap_labels) if lbl.startswith("office")]

    def corridor_aps(self) -> List[UniformLinearArray]:
        """APs mounted along the corridors."""
        return [
            ap for ap, lbl in zip(self.aps, self.ap_labels) if lbl.startswith("corridor")
        ]

    def los_ap_count(self, target, aps: Optional[List[UniformLinearArray]] = None) -> int:
        """How many APs have an unobstructed line of sight to ``target``."""
        aps = self.aps if aps is None else aps
        point = as_point(target)
        return sum(
            1 for ap in aps if self.floorplan.has_los(point, as_point(ap.position))
        )

    def targets_in_zone(self, zone: str) -> List[TargetSpot]:
        return [t for t in self.targets if t.zone == zone]


# ----------------------------------------------------------------------
# The Fig. 6-like building
# ----------------------------------------------------------------------
def _build_floorplan() -> Floorplan:
    plan = Floorplan(name="fig6-floor", default_material="drywall")
    # Building envelope (36 m x 14 m), concrete.
    plan.add_rectangle(0.0, 0.0, 36.0, 14.0, material="concrete")

    # Corridor A (horizontal, y in [12, 14]) south wall, with door gaps.
    for x0, x1 in ((0.0, 8.0), (10.0, 17.0), (20.0, 28.0), (30.0, 36.0)):
        plan.add_wall((x0, 12.0), (x1, 12.0), material="drywall")

    # Corridor B (vertical, x in [18, 20], y in [0, 12]) side walls.
    for y0, y1 in ((0.0, 5.0), (6.5, 12.0)):
        plan.add_wall((18.0, y0), (18.0, y1), material="drywall")
        plan.add_wall((20.0, y0), (20.0, y1), material="drywall")

    # Office region partial partitions (glass lab dividers).
    plan.add_wall((9.0, 0.0), (9.0, 4.0), material="glass")
    plan.add_wall((9.0, 8.5), (9.0, 12.0), material="glass")

    # Elevator shaft (metal) at the office region's north-west.
    plan.add_wall((4.0, 10.5), (6.0, 10.5), material="elevator")
    plan.add_wall((4.0, 10.5), (4.0, 12.0), material="elevator")
    plan.add_wall((6.0, 10.5), (6.0, 12.0), material="elevator")

    # Far wing (x in [20, 36]) smaller offices: brick cross walls.
    plan.add_wall((20.0, 7.0), (23.0, 7.0), material="brick")
    plan.add_wall((24.5, 7.0), (31.0, 7.0), material="brick")
    plan.add_wall((32.5, 7.0), (36.0, 7.0), material="brick")
    plan.add_wall((28.0, 0.0), (28.0, 5.5), material="brick")
    plan.add_wall((28.0, 7.0), (28.0, 10.5), material="brick")

    # Furniture / metallic scatterers.
    for pos, gain in (
        ((4.0, 4.0), 0.45),
        ((7.0, 9.0), 0.35),
        ((12.5, 4.5), 0.45),
        ((15.0, 9.5), 0.35),
        ((10.5, 7.0), 0.30),
        ((5.5, 7.5), 0.30),
        ((16.5, 6.0), 0.35),
        ((19.0, 8.0), 0.25),
        ((24.0, 3.5), 0.40),
        ((33.0, 4.0), 0.35),
        ((25.5, 10.0), 0.35),
        ((14.0, 13.0), 0.25),
        ((27.0, 13.0), 0.25),
    ):
        plan.add_scatterer(pos, gain)
    return plan


def _office_targets() -> List[TargetSpot]:
    spots: List[TargetSpot] = []
    xs = [3.4, 6.7, 10.1, 13.3, 16.4]
    ys = [3.1, 5.2, 7.1, 9.2, 10.7]
    rng = np.random.default_rng(42)  # fixed jitter so geometry is generic
    idx = 1
    for y in ys:
        for x in xs:
            jx = float(rng.uniform(-0.15, 0.15))
            jy = float(rng.uniform(-0.15, 0.15))
            spots.append(
                TargetSpot(Point(x + jx, y + jy), ZONE_OFFICE, f"office-{idx:02d}")
            )
            idx += 1
    return spots


def _corridor_targets() -> List[TargetSpot]:
    spots: List[TargetSpot] = []
    for i, x in enumerate(np.linspace(1.5, 34.5, 14), start=1):
        spots.append(TargetSpot(Point(float(x), 13.0), ZONE_CORRIDOR, f"corrA-{i:02d}"))
    for i, y in enumerate([1.5, 3.5, 5.7, 7.6, 9.5, 11.2], start=1):
        spots.append(TargetSpot(Point(19.0, float(y)), ZONE_CORRIDOR, f"corrB-{i:02d}"))
    return spots


def _far_wing_targets() -> List[TargetSpot]:
    coords = [
        (22.0, 3.0),
        (25.0, 3.2),
        (30.5, 2.8),
        (34.0, 3.1),
        (22.3, 10.0),
        (25.2, 9.8),
        (30.6, 10.2),
        (34.1, 9.9),
        (26.0, 5.0),
        (32.0, 5.5),
    ]
    return [
        TargetSpot(Point(x, y), ZONE_FAR_WING, f"wing-{i:02d}")
        for i, (x, y) in enumerate(coords, start=1)
    ]


def office_testbed() -> Testbed:
    """The full Fig. 6-like testbed: 55 targets, 9 APs, 36 m x 14 m floor."""
    plan = _build_floorplan()
    aps = [
        UniformLinearArray(3, position=(2.6, 2.6), normal_deg=45.0),
        UniformLinearArray(3, position=(17.4, 2.6), normal_deg=135.0),
        UniformLinearArray(3, position=(2.6, 11.4), normal_deg=-45.0),
        UniformLinearArray(3, position=(16.8, 11.4), normal_deg=-135.0),
        UniformLinearArray(3, position=(9.6, 0.6), normal_deg=90.0),
        UniformLinearArray(3, position=(13.0, 11.4), normal_deg=-90.0),
        UniformLinearArray(3, position=(5.0, 13.7), normal_deg=-90.0),
        UniformLinearArray(3, position=(14.0, 13.7), normal_deg=-90.0),
        UniformLinearArray(3, position=(24.5, 13.7), normal_deg=-90.0),
        UniformLinearArray(3, position=(33.0, 13.7), normal_deg=-90.0),
        UniformLinearArray(3, position=(19.8, 3.0), normal_deg=180.0),
        UniformLinearArray(3, position=(19.8, 9.0), normal_deg=180.0),
    ]
    labels = [
        "office-1",
        "office-2",
        "office-3",
        "office-4",
        "office-5",
        "office-6",
        "corridor-A1",
        "corridor-A2",
        "corridor-A3",
        "corridor-A4",
        "corridor-B1",
        "corridor-B2",
    ]
    targets = _office_targets() + _corridor_targets() + _far_wing_targets()
    return Testbed(
        floorplan=plan,
        aps=aps,
        ap_labels=labels,
        targets=targets,
        bounds=(0.0, 0.0, 36.0, 14.0),
        name="fig6-floor",
    )


def home_testbed() -> Testbed:
    """An apartment floor — the paper's "phone lost somewhere in a home".

    10 m x 8 m, four rooms (living room, kitchen, two bedrooms) around a
    hallway, furniture scatterers, and three APs (a realistic home count:
    router + two mesh extenders).  Ten target spots cover every room.
    """
    plan = Floorplan(name="apartment", default_material="drywall")
    plan.add_rectangle(0.0, 0.0, 10.0, 8.0, material="brick")
    # Hallway spine: y in [3.4, 4.6].
    # Living room (left-bottom), kitchen (right-bottom), bedrooms on top.
    plan.add_wall((4.5, 0.0), (4.5, 2.2), material="drywall")  # living|kitchen
    plan.add_wall((4.5, 3.4), (10.0, 3.4), material="drywall")  # kitchen|hall
    plan.add_wall((0.0, 3.4), (3.3, 3.4), material="drywall")  # living|hall
    plan.add_wall((0.0, 4.6), (2.2, 4.6), material="drywall")  # hall|bed1
    plan.add_wall((3.4, 4.6), (6.8, 4.6), material="drywall")
    plan.add_wall((8.0, 4.6), (10.0, 4.6), material="drywall")  # hall|bed2
    plan.add_wall((5.4, 4.6), (5.4, 8.0), material="drywall")  # bed1|bed2
    # Bathroom block (tiled, modeled as concrete) in the kitchen corner.
    plan.add_wall((8.2, 0.0), (8.2, 2.0), material="concrete")
    plan.add_wall((8.2, 2.0), (10.0, 2.0), material="concrete")
    # Furniture.
    for pos, gain in (
        ((1.5, 1.5), 0.45),  # sofa
        ((3.0, 2.8), 0.30),  # tv cabinet
        ((6.5, 1.0), 0.50),  # fridge
        ((2.0, 6.5), 0.35),  # bed 1
        ((7.5, 6.8), 0.35),  # bed 2
        ((9.0, 5.5), 0.30),  # wardrobe
    ):
        plan.add_scatterer(pos, gain)

    aps = [
        UniformLinearArray(3, position=(0.4, 4.0), normal_deg=0.0),  # hall router
        UniformLinearArray(3, position=(9.6, 0.6), normal_deg=135.0),  # kitchen
        UniformLinearArray(3, position=(5.0, 7.6), normal_deg=-90.0),  # bedroom
    ]
    labels = ["office-router", "office-kitchen", "office-bedroom"]
    coords = [
        (2.0, 1.8, "living-1"),
        (3.8, 1.0, "living-2"),
        (6.0, 2.2, "kitchen-1"),
        (7.5, 2.8, "kitchen-2"),
        (5.0, 4.0, "hallway"),
        (1.5, 6.0, "bed1-1"),
        (3.8, 6.8, "bed1-2"),
        (6.5, 6.0, "bed2-1"),
        (8.8, 7.0, "bed2-2"),
        (9.2, 3.9, "hall-end"),
    ]
    targets = [TargetSpot(Point(x, y), ZONE_OFFICE, label) for x, y, label in coords]
    return Testbed(
        floorplan=plan,
        aps=aps,
        ap_labels=labels,
        targets=targets,
        bounds=(0.0, 0.0, 10.0, 8.0),
        name="apartment",
    )


def small_testbed() -> Testbed:
    """A small single-room testbed for fast unit/integration tests."""
    plan = Floorplan(name="small-room", default_material="concrete")
    plan.add_rectangle(0.0, 0.0, 12.0, 8.0, material="concrete")
    plan.add_scatterer((3.0, 6.0), 0.4)
    plan.add_scatterer((9.0, 2.5), 0.4)
    aps = [
        UniformLinearArray(3, position=(0.5, 4.0), normal_deg=0.0),
        UniformLinearArray(3, position=(11.5, 4.0), normal_deg=180.0),
        UniformLinearArray(3, position=(6.0, 0.5), normal_deg=90.0),
        UniformLinearArray(3, position=(6.0, 7.5), normal_deg=-90.0),
    ]
    labels = ["office-1", "office-2", "office-3", "office-4"]
    targets = [
        TargetSpot(Point(3.3, 2.7), ZONE_OFFICE, "t-01"),
        TargetSpot(Point(8.6, 5.4), ZONE_OFFICE, "t-02"),
        TargetSpot(Point(5.1, 6.1), ZONE_OFFICE, "t-03"),
        TargetSpot(Point(9.7, 2.2), ZONE_OFFICE, "t-04"),
    ]
    return Testbed(
        floorplan=plan,
        aps=aps,
        ap_labels=labels,
        targets=targets,
        bounds=(0.0, 0.0, 12.0, 8.0),
        name="small-room",
    )


#: The built-in testbeds by name (the CLI's ``--testbed`` choices).
TESTBEDS: Dict[str, Callable[[], Testbed]] = {
    "office": office_testbed,
    "small": small_testbed,
    "home": home_testbed,
}


def testbed_by_name(name: str) -> Testbed:
    """Build the built-in testbed called ``name``.

    Raises :class:`~repro.errors.ConfigurationError` naming the available
    testbeds when ``name`` is unknown.
    """
    try:
        factory = TESTBEDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown testbed {name!r}; available: {sorted(TESTBEDS)}"
        ) from None
    return factory()
