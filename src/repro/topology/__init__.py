"""Sensor-field topology: node placement and zones.

The paper's experiments use a sensor field of uniform node density — as the
number of nodes grows, the field area grows with it.  This package provides:

* :class:`~repro.topology.node.NodeInfo` — identity plus position.
* :class:`~repro.topology.field.SensorField` — a set of placed nodes with
  distance queries and neighbourhood look-ups; constructed by the placement
  helpers in :mod:`repro.topology.placement` (uniform grid, uniform random
  or explicit positions).
* :mod:`repro.topology.zone` — a node's *zone* is the set of nodes reachable
  at its maximum transmission power; zones drive both SPIN's neighbourhood and
  SPMS's routing scope.
"""

from repro.topology.field import SensorField
from repro.topology.node import NodeInfo, Position
from repro.topology.placement import grid_placement, random_placement
from repro.topology.zone import ZoneMap, compute_zones

__all__ = [
    "NodeInfo",
    "Position",
    "SensorField",
    "ZoneMap",
    "compute_zones",
    "grid_placement",
    "random_placement",
]
