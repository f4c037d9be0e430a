"""The sensor field: placed nodes plus geometric queries.

:class:`SensorField` is the geometric substrate shared by the channel (who can
hear a transmission), zone computation, and mobility (which rewrites node
positions).  Queries are O(n) per call, which is fine for the paper's field
sizes (up to a few hundred nodes); results that protocols use repeatedly
(zones, routing tables) are cached at higher layers and refreshed
only when the topology actually changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.topology.node import NodeInfo, Position


class SensorField:
    """A collection of nodes in a 2-D field."""

    def __init__(self, nodes: Iterable[NodeInfo]) -> None:
        node_list = list(nodes)
        if not node_list:
            raise ValueError("a sensor field needs at least one node")
        ids = [n.node_id for n in node_list]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in sensor field")
        self._nodes: Dict[int, NodeInfo] = {n.node_id: n for n in node_list}
        self._topology_version = 0
        self._positions_cache: Optional[Tuple[int, List[int], np.ndarray]] = None

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __iter__(self):
        return iter(self._nodes.values())

    @property
    def node_ids(self) -> List[int]:
        """Sorted list of node ids."""
        return sorted(self._nodes)

    @property
    def topology_version(self) -> int:
        """Counter bumped every time a node moves; used to invalidate caches."""
        return self._topology_version

    def node(self, node_id: int) -> NodeInfo:
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None

    def position(self, node_id: int) -> Position:
        """Current position of *node_id*."""
        return self.node(node_id).position

    # ------------------------------------------------------------- geometry

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between nodes *a* and *b*."""
        return self.node(a).distance_to(self.node(b))

    def neighbors_within(self, node_id: int, radius_m: float) -> List[int]:
        """Ids of nodes (excluding *node_id*) within *radius_m* of *node_id*."""
        if radius_m < 0:
            raise ValueError(f"radius must be non-negative, got {radius_m}")
        center = self.node(node_id).position
        return [
            other.node_id
            for other in self._nodes.values()
            if other.node_id != node_id
            and center.distance_to(other.position) <= radius_m + 1e-9
        ]

    def positions_array(self) -> Tuple[List[int], np.ndarray]:
        """``(sorted_node_ids, (n, 2) position array)`` for vectorised geometry.

        Cached per :attr:`topology_version`, so repeated zone/routing rebuilds
        between mobility epochs reuse the same array.
        """
        cache = self._positions_cache
        if cache is not None and cache[0] == self._topology_version:
            return cache[1], cache[2]
        ids = self.node_ids
        array = np.array(
            [[self._nodes[i].position.x, self._nodes[i].position.y] for i in ids],
            dtype=float,
        ).reshape(len(ids), 2)
        self._positions_cache = (self._topology_version, ids, array)
        return ids, array

    def bounding_box(self) -> tuple:
        """``(min_x, min_y, max_x, max_y)`` of the field."""
        xs = [n.position.x for n in self._nodes.values()]
        ys = [n.position.y for n in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    # -------------------------------------------------------------- mutation

    def move_node(self, node_id: int, new_position: Position) -> None:
        """Relocate *node_id*; bumps :attr:`topology_version`."""
        node = self.node(node_id)
        node.position = new_position
        self._topology_version += 1
