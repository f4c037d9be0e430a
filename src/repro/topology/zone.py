"""Zone computation.

A node's **zone** is the set of nodes it can reach when transmitting at its
maximum power level (Section 3.2).  Those nodes are its *zone neighbours*:
SPIN advertises to them directly, and SPMS runs distributed Bellman-Ford among
them to find minimum-power multi-hop routes.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.radio.pathloss import neighbors_within_matrix
from repro.topology.field import SensorField


class ZoneMap:
    """Zone membership for every node at a fixed maximum transmission radius."""

    def __init__(self, field: SensorField, radius_m: float) -> None:
        if radius_m <= 0:
            raise ValueError(f"zone radius must be positive, got {radius_m}")
        self.radius_m = radius_m
        self._field = field
        self._zones: Dict[int, Set[int]] = {}
        self._built_for_version = -1
        self.refresh()

    def refresh(self) -> None:
        """Recompute every zone from current node positions.

        Uses the vectorised neighbour-range computation (one numpy adjacency
        for the whole field) instead of n per-node O(n) scans; the tolerance
        matches the scalar queries so membership is identical.  The adjacency
        itself is kept for matrix consumers (:attr:`adjacency`).
        """
        ids, positions = self._field.positions_array()
        adjacency = neighbors_within_matrix(positions, self.radius_m)
        self._adjacency = adjacency
        self._zones = {
            node_id: {ids[j] for j in adjacency[i].nonzero()[0]}
            for i, node_id in enumerate(ids)
        }
        self._built_for_version = self._field.topology_version

    @property
    def stale(self) -> bool:
        """Whether node positions changed since the last :meth:`refresh`."""
        return self._built_for_version != self._field.topology_version

    @property
    def adjacency(self) -> np.ndarray:
        """Boolean zone adjacency from the last :meth:`refresh`.

        Rows and columns follow :meth:`SensorField.positions_array` (sorted
        ids); ``[i, j]`` is true when node *j* is in node *i*'s zone.  Shared,
        not copied: callers must not write to it.
        """
        return self._adjacency

    def zone_neighbors(self, node_id: int) -> Set[int]:
        """Zone neighbours of *node_id* (excluding itself)."""
        return set(self._zones[node_id])

    def zone_size(self, node_id: int) -> int:
        """Number of zone neighbours of *node_id*."""
        return len(self._zones[node_id])

    def in_zone(self, node_id: int, other_id: int) -> bool:
        """Whether *other_id* is a zone neighbour of *node_id*."""
        return other_id in self._zones[node_id]

    def isolated_nodes(self) -> List[int]:
        """Nodes with no zone neighbours (cannot participate in dissemination)."""
        return sorted(node_id for node_id, zone in self._zones.items() if not zone)


def compute_zones(field: SensorField, radius_m: float) -> ZoneMap:
    """Convenience constructor for :class:`ZoneMap`."""
    return ZoneMap(field, radius_m)
