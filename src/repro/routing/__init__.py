"""Zone routing: distributed Bellman-Ford, routing tables, re-convergence.

SPMS forwards REQ and DATA packets hop by hop along minimum-transmit-power
paths inside a zone.  Routes come from a Distributed Bellman-Ford (DBF) run
among the zone members (Section 3.2).  The package provides:

* :class:`~repro.routing.table.RoutingTable` — per-destination costs via every
  direct neighbour, with primary and backup next hops (the backup supports the
  single-failure tolerance the paper's implementation keeps).
* :class:`~repro.routing.bellman_ford.DistributedBellmanFord` — a synchronous
  round-based distance-vector computation, run as a min-plus relaxation over
  numpy link-cost and advertised-vector matrices, with message and
  convergence-round accounting so the energy of route formation can be
  charged to SPMS in the mobility experiments.  Its naive twin
  :class:`~repro.routing.bellman_ford.NaiveDistributedBellmanFord` simulates
  every broadcast with dicts; the differential tests require identical
  tables and stats from both.
* :class:`~repro.routing.manager.RoutingManager` — owns the tables, refreshes
  them when topology changes, and charges routing energy to the ledger.
* :mod:`repro.routing.oracle` — a centralized shortest-path oracle used by the
  test-suite to validate the distributed computation.
"""

from repro.routing.bellman_ford import ConvergenceStats, DistributedBellmanFord
from repro.routing.manager import RoutingManager
from repro.routing.oracle import centralized_routes
from repro.routing.table import RouteCandidate, RoutingTable

__all__ = [
    "ConvergenceStats",
    "DistributedBellmanFord",
    "RouteCandidate",
    "RoutingManager",
    "RoutingTable",
    "centralized_routes",
]
