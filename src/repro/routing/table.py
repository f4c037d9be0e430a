"""Per-node routing tables.

The paper keeps, for every destination in the zone, the cost of reaching it
through *each* direct neighbour; the best neighbour is the primary next hop
and the second best is the backup that tolerates one concurrent failure
(Section 3.2 and 5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set


@dataclass(frozen=True)
class RouteCandidate:
    """One way of reaching a destination.

    Attributes:
        next_hop: The direct neighbour the packet is handed to first.
        cost: Total path cost (sum of per-hop minimum transmit powers).
    """

    next_hop: int
    cost: float


class RoutingTable:
    """Routes from one node to every destination it maintains state for.

    Per destination it keeps parallel next-hop and cost lists, cheapest
    first (ties by next-hop id), plus the primary route as one
    :class:`RouteCandidate`; other candidates are materialised on demand.
    """

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._hops: Dict[int, List[int]] = {}
        self._costs: Dict[int, List[float]] = {}
        self._best: Dict[int, RouteCandidate] = {}

    # --------------------------------------------------------------- building

    def set_candidates(self, destination: int, candidates: Iterable[RouteCandidate]) -> None:
        """Replace the candidate list for *destination* (sorted by cost)."""
        ordered = sorted(candidates, key=lambda c: (c.cost, c.next_hop))
        self.set_sorted(
            destination, [c.next_hop for c in ordered], [c.cost for c in ordered]
        )

    def set_sorted(
        self, destination: int, next_hops: List[int], costs: List[float]
    ) -> None:
        """Replace *destination*'s routes with lists in ``(cost, next_hop)`` order.

        *next_hops* and *costs* are parallel and already sorted, so bulk
        builders skip per-candidate objects; the table keeps them, not copies.
        """
        if destination == self.owner:
            raise ValueError("a node does not keep a route to itself")
        if next_hops:
            self._hops[destination] = next_hops
            self._costs[destination] = costs
            self._best[destination] = RouteCandidate(next_hops[0], costs[0])
        else:
            self._hops.pop(destination, None)
            self._costs.pop(destination, None)
            self._best.pop(destination, None)

    def clear(self) -> None:
        """Drop every route (used when the topology changes)."""
        self._hops.clear()
        self._costs.clear()
        self._best.clear()

    # ---------------------------------------------------------------- queries

    @property
    def destinations(self) -> Set[int]:
        """Destinations this table has at least one route for."""
        return set(self._hops)

    def has_route(self, destination: int) -> bool:
        """Whether any route to *destination* is known."""
        return destination in self._hops

    def candidates(self, destination: int) -> List[RouteCandidate]:
        """All candidate routes to *destination*, cheapest first."""
        return [
            RouteCandidate(hop, cost)
            for hop, cost in zip(
                self._hops.get(destination, ()), self._costs.get(destination, ())
            )
        ]

    def best(self, destination: int) -> Optional[RouteCandidate]:
        """The cheapest route candidate to *destination*, if any.

        One dict lookup for the protocol hot path that needs both the next
        hop and the cost of the primary route (SPMS advertisement handling).
        """
        return self._best.get(destination)

    def next_hop(self, destination: int, exclude: Optional[Set[int]] = None) -> Optional[int]:
        """Best next hop towards *destination*, skipping nodes in *exclude*.

        Returns ``None`` if no (non-excluded) route exists.
        """
        hops = self._hops.get(destination)
        if hops is None:
            return None
        if not exclude:
            return hops[0]
        for hop in hops:
            if hop not in exclude:
                return hop
        return None

    def cost(self, destination: int, exclude: Optional[Set[int]] = None) -> Optional[float]:
        """Cost of the best (non-excluded) route to *destination*."""
        costs = self._costs.get(destination)
        if costs is None:
            return None
        if not exclude:
            return costs[0]
        for hop, cost in zip(self._hops[destination], costs):
            if hop not in exclude:
                return cost
        return None

    def backup_next_hop(self, destination: int) -> Optional[int]:
        """The second-best next hop (distinct from the primary), if any."""
        hops = self._hops.get(destination, ())
        if len(hops) < 2:
            return None
        for hop in hops[1:]:
            if hop != hops[0]:
                return hop
        return None

    def entry_count(self) -> int:
        """Total number of stored candidates (used for state-size metrics)."""
        return sum(len(hops) for hops in self._hops.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(owner={self.owner}, destinations={sorted(self._hops)})"
