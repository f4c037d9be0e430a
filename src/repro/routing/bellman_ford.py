"""Synchronous distributed Bellman-Ford (distance vector) over zones.

Every node maintains a distance vector towards the destinations in its own
zone.  In each round a node broadcasts its vector to its zone neighbours; a
receiving node updates, for every destination it cares about, the cost of
going through the sending neighbour (link cost plus the neighbour's advertised
cost).  The computation converges when no vector changes during a round.

:class:`DistributedBellmanFord` runs the exchange in matrix form: link costs
``L`` and last-advertised vectors ``A`` are n×n numpy arrays, and a round is
one min-plus relaxation ``min(L[i, d], min_s L[i, s] + A[s, d])`` per
receiving node.  :class:`NaiveDistributedBellmanFord` is the dict-of-dicts
message simulation it replaced, kept as the naive twin the differential tests
compare against: both produce float-identical tables and identical stats.

Convergence rounds, messages and bytes are counted so the energy cost of route
formation and maintenance can be charged to SPMS — this is the cost the
mobility experiments (Figure 12) account for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.radio.pathloss import pairwise_distances
from repro.radio.power import PowerTable
from repro.routing.table import RouteCandidate, RoutingTable
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap

#: Bytes added to every distance-vector broadcast (addressing + sequencing).
VECTOR_HEADER_BYTES = 2
#: Bytes per (destination, cost) entry in a distance-vector broadcast.
VECTOR_ENTRY_BYTES = 3


@dataclass
class ConvergenceStats:
    """Cost accounting for one DBF execution.

    Attributes:
        rounds: Synchronous rounds until no vector changed.
        messages: Number of distance-vector broadcasts sent.
        bytes_sent: Total payload bytes of those broadcasts.
        receptions: Number of (broadcast, receiver) deliveries.
        bytes_received: Total payload bytes received across all nodes.
    """

    rounds: int = 0
    messages: int = 0
    bytes_sent: int = 0
    receptions: int = 0
    bytes_received: int = 0

    def merge(self, other: "ConvergenceStats") -> None:
        """Accumulate another execution's counters into this one."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.receptions += other.receptions
        self.bytes_received += other.bytes_received


class DistributedBellmanFord:
    """Round-based distance-vector route computation.

    Args:
        field: Node positions.
        power_table: Discrete power levels; the maximum level's range defines
            zone membership and per-hop link costs are the minimum power that
            covers the hop distance.
        zone_map: Pre-computed zones (must match ``power_table.max_range_m``).
        max_rounds: Safety bound; defaults to the node count, which is an
            upper bound on the convergence time of synchronous Bellman-Ford.
        exclude_nodes: Nodes currently failed; they neither send nor relay.
    """

    def __init__(
        self,
        field: SensorField,
        power_table: PowerTable,
        zone_map: ZoneMap,
        max_rounds: Optional[int] = None,
        exclude_nodes: Optional[Set[int]] = None,
    ) -> None:
        self.field = field
        self.power_table = power_table
        self.zone_map = zone_map
        self.max_rounds = max_rounds if max_rounds is not None else max(len(field), 2)
        self.exclude_nodes = set(exclude_nodes or ())

    def compute(self) -> tuple:
        """Run the distance-vector exchange to convergence.

        Rows and columns follow :meth:`SensorField.positions_array` (sorted
        ids), the order :attr:`ZoneMap.adjacency` is kept in.  Every cost is
        the same single float add as a per-message simulation, and ``min`` is
        exact, so the tables match :class:`NaiveDistributedBellmanFord`'s.

        Returns:
            ``(tables, stats)`` where *tables* maps node id to its
            :class:`RoutingTable` and *stats* is a :class:`ConvergenceStats`.
        """
        ids, positions = self.field.positions_array()
        active = np.array([node not in self.exclude_nodes for node in ids], dtype=bool)
        # wanted[i, d]: i keeps a route entry for d (in its zone, both alive);
        # link[i, s]: one-hop cost i -> s, inf where s is not a usable link.
        wanted = self.zone_map.adjacency & active[:, None] & active[None, :]
        costs = self.power_table.power_for_distances(pairwise_distances(positions))
        linked = wanted & ~np.isnan(costs)
        link = np.where(linked, costs, np.inf)
        neighbours = [np.flatnonzero(row) for row in linked]
        degree = linked.sum(axis=1)

        alive = np.flatnonzero(active)
        dist = np.full(link.shape, np.inf)
        dist[alive, alive] = 0.0
        # advertised[s]: the vector s broadcast last (inf until it first does).
        advertised = np.full(link.shape, np.inf)

        stats = ConvergenceStats()
        senders = active
        for _ in range(self.max_rounds):
            if not senders.any():
                break
            stats.rounds += 1
            vectors = dist[senders]
            advertised[senders] = vectors
            sizes = VECTOR_HEADER_BYTES + VECTOR_ENTRY_BYTES * np.isfinite(vectors).sum(axis=1)
            receivers = degree[senders]
            stats.messages += int(senders.sum())
            stats.bytes_sent += int(sizes.sum())
            stats.receptions += int(receivers.sum())
            stats.bytes_received += int((sizes * receivers).sum())
            # Only a node that heard a broadcast can change its vector.
            relaxed = dist.copy()
            for i in np.flatnonzero(linked[:, senders].any(axis=1)):
                nb = neighbours[i]
                through = (link[i, nb, None] + advertised[nb]).min(axis=0)
                relaxed[i] = np.where(wanted[i], np.minimum(link[i], through), np.inf)
                relaxed[i, i] = 0.0
            senders = (relaxed != dist).any(axis=1)
            dist = relaxed

        ids_array = np.array(ids)
        tables: Dict[int, RoutingTable] = {}
        for i in alive:
            table = RoutingTable(ids[i])
            tables[ids[i]] = table
            nb = neighbours[i]
            dests = np.flatnonzero(wanted[i])
            # via[k, d]: cost to d through neighbour nb[k] as last advertised;
            # the direct link is that neighbour's candidate for itself.
            via = link[i, nb, None] + advertised[nb]
            hop = np.arange(len(nb))
            via[hop, nb] = np.minimum(via[hop, nb], link[i, nb])
            candidates = via[:, dests].T
            # Neighbours are in ascending id order, so a stable sort by cost
            # leaves equal-cost candidates ordered by next-hop id.
            order = np.argsort(candidates, axis=1, kind="stable")
            sorted_costs = np.take_along_axis(candidates, order, axis=1)
            counts = np.isfinite(sorted_costs).sum(axis=1).tolist()
            hop_rows = ids_array[nb][order].tolist()
            cost_rows = sorted_costs.tolist()
            for dest, hops, row, count in zip(
                ids_array[dests].tolist(), hop_rows, cost_rows, counts
            ):
                if count:
                    table.set_sorted(dest, hops[:count], row[:count])
        return tables, stats


class NaiveDistributedBellmanFord(DistributedBellmanFord):
    """Per-message dict-of-dicts DBF: the naive twin of the matrix form.

    Simulates every broadcast and reception explicitly.  The differential
    tests and ``oracle_mode()`` run it in place of
    :class:`DistributedBellmanFord` and require identical tables and stats.
    """

    def _link_cost_matrix(self) -> tuple:
        """``(index_of_id, cost_matrix)`` for every node pair, vectorised.

        One pairwise-distance computation plus one vectorised power-level
        lookup gives every link cost; out-of-range pairs hold ``nan``.
        """
        ids, positions = self.field.positions_array()
        distances = pairwise_distances(positions)
        costs = self.power_table.power_for_distances(distances)
        return {node_id: i for i, node_id in enumerate(ids)}, costs

    def compute(self) -> tuple:
        """Run the distance-vector exchange to convergence.

        Returns:
            ``(tables, stats)`` where *tables* maps node id to its
            :class:`RoutingTable` and *stats* is a :class:`ConvergenceStats`.
        """
        active = [n for n in self.field.node_ids if n not in self.exclude_nodes]
        index_of, cost_matrix = self._link_cost_matrix()
        neighbors: Dict[int, Dict[int, float]] = {}
        wanted: Dict[int, Set[int]] = {}
        for node in active:
            links = {}
            row = cost_matrix[index_of[node]]
            for other in self.zone_map.zone_neighbors(node):
                if other in self.exclude_nodes:
                    continue
                cost = row[index_of[other]]
                if not math.isnan(cost):
                    links[other] = float(cost)
            neighbors[node] = links
            wanted[node] = set(links) | {
                z for z in self.zone_map.zone_neighbors(node) if z not in self.exclude_nodes
            }

        # dist[node][dest] — best known cost from node to dest.
        dist: Dict[int, Dict[int, float]] = {
            node: {node: 0.0, **{d: math.inf for d in wanted[node]}} for node in active
        }
        # via[node][dest][neighbour] — cost via that neighbour as last advertised.
        via: Dict[int, Dict[int, Dict[int, float]]] = {
            node: {dest: {} for dest in wanted[node]} for node in active
        }

        stats = ConvergenceStats()
        changed = set(active)
        for _ in range(self.max_rounds):
            if not changed:
                break
            stats.rounds += 1
            # Snapshot the vectors broadcast this round.
            broadcasts = {node: dict(dist[node]) for node in active if node in changed}
            for node, vector in broadcasts.items():
                entries = sum(1 for cost in vector.values() if cost < math.inf)
                size = VECTOR_HEADER_BYTES + VECTOR_ENTRY_BYTES * entries
                stats.messages += 1
                stats.bytes_sent += size
                receivers = [r for r in neighbors[node] if r in neighbors]
                stats.receptions += len(receivers)
                stats.bytes_received += size * len(receivers)
            next_changed: Set[int] = set()
            for node in active:
                updated = False
                for sender, vector in broadcasts.items():
                    if sender == node or sender not in neighbors[node]:
                        continue
                    link = neighbors[node][sender]
                    for dest in wanted[node]:
                        advertised = vector.get(dest, math.inf)
                        candidate = link + advertised if advertised < math.inf else math.inf
                        previous = via[node][dest].get(sender, math.inf)
                        if candidate != previous:
                            if candidate < math.inf:
                                via[node][dest][sender] = candidate
                            else:
                                via[node][dest].pop(sender, None)
                            updated = True
                if updated:
                    for dest in wanted[node]:
                        best = min(via[node][dest].values(), default=math.inf)
                        if dest in neighbors[node]:
                            best = min(best, neighbors[node][dest])
                        if best != dist[node][dest]:
                            dist[node][dest] = best
                            next_changed.add(node)
            # A node whose direct links alone define routes still needs to
            # broadcast once so neighbours learn of it; ensure the first round
            # always happens for everyone (handled by seeding changed=active).
            changed = next_changed

        tables = self._build_tables(active, neighbors, via, dist)
        return tables, stats

    def _build_tables(
        self,
        active,
        neighbors: Dict[int, Dict[int, float]],
        via: Dict[int, Dict[int, Dict[int, float]]],
        dist: Dict[int, Dict[int, float]],
    ) -> Dict[int, RoutingTable]:
        tables: Dict[int, RoutingTable] = {}
        for node in active:
            table = RoutingTable(node)
            for dest in via[node]:
                if dest == node:
                    continue
                candidates = {}
                for neighbor, cost in via[node][dest].items():
                    candidates[neighbor] = min(candidates.get(neighbor, math.inf), cost)
                if dest in neighbors[node]:
                    direct = neighbors[node][dest]
                    candidates[dest] = min(candidates.get(dest, math.inf), direct)
                table.set_candidates(
                    dest,
                    [
                        RouteCandidate(next_hop=nh, cost=cost)
                        for nh, cost in candidates.items()
                        if cost < math.inf
                    ],
                )
            tables[node] = table
        return tables
