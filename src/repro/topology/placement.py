"""Node placement strategies.

The paper keeps the node density uniform: more nodes means a bigger field.
``grid_placement`` reproduces that with a square grid of fixed spacing (the
experiments use 169 = 13 x 13 nodes at the default radius of 20 m).
``random_placement`` keeps the same average density but scatters the nodes
uniformly at random, which the tests use to check the protocols do not depend
on grid regularity.  ``explicit_placement`` puts each node where the caller
says: the hand-placed walk-through topologies of Sections 3.3 and 3.5.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams
from repro.topology.node import NodeInfo, Position

if TYPE_CHECKING:
    # Annotation-only: the runtime entropy source is always handed in by the
    # builder (or derived below via RandomStreams), never stdlib random.
    import random

#: Default grid spacing in metres.  With the default 20 m transmission radius
#: this gives each interior node a zone of roughly a dozen neighbours,
#: matching the 5-50 node zone sizes the paper calls typical.
DEFAULT_GRID_SPACING_M = 10.0

#: Stream name stochastic placements draw from; the builder passes
#: ``sim.rng.stream(PLACEMENT_STREAM)`` so placement draws never perturb the
#: workload/failure/mobility streams.
PLACEMENT_STREAM = "topology.placement"


def grid_placement(
    num_nodes: int,
    spacing_m: float = DEFAULT_GRID_SPACING_M,
) -> List[NodeInfo]:
    """Place *num_nodes* on a square grid of *spacing_m* metres.

    If ``num_nodes`` is not a perfect square the grid is the smallest square
    that fits, filled row by row, so density stays uniform.

    Args:
        num_nodes: Number of nodes to place.
        spacing_m: Distance between adjacent grid points.

    Returns:
        A list of :class:`NodeInfo` with ids ``0 .. num_nodes - 1``.
    """
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if spacing_m <= 0:
        raise ValueError(f"spacing must be positive, got {spacing_m}")
    side = math.ceil(math.sqrt(num_nodes))
    nodes = []
    for node_id in range(num_nodes):
        row, col = divmod(node_id, side)
        nodes.append(
            NodeInfo(node_id=node_id, position=Position(col * spacing_m, row * spacing_m))
        )
    return nodes


def random_placement(
    num_nodes: int,
    density_per_m2: Optional[float] = None,
    rng: Optional[random.Random] = None,
    spacing_m: float = DEFAULT_GRID_SPACING_M,
) -> List[NodeInfo]:
    """Scatter *num_nodes* uniformly at random with the same average density
    as :func:`grid_placement`.

    Args:
        num_nodes: Number of nodes to place.
        density_per_m2: Target density; defaults to one node per
            ``spacing_m ** 2`` square metres.
        rng: Source of randomness — normally the simulator's dedicated
            placement stream.  Defaults to the ``PLACEMENT_STREAM`` of a
            seed-0 :class:`~repro.sim.rng.RandomStreams`, so direct calls
            stay reproducible and draw through the same machinery as the
            builder.
        spacing_m: Used only to derive the default density.

    Returns:
        A list of :class:`NodeInfo` with ids ``0 .. num_nodes - 1``.
    """
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if density_per_m2 is None:
        density_per_m2 = 1.0 / (spacing_m * spacing_m)
    if density_per_m2 <= 0:
        raise ValueError(f"density must be positive, got {density_per_m2}")
    if rng is None:
        rng = RandomStreams(0).stream(PLACEMENT_STREAM)
    area = num_nodes / density_per_m2
    side = math.sqrt(area)
    return [
        NodeInfo(node_id=i, position=Position(rng.uniform(0, side), rng.uniform(0, side)))
        for i in range(num_nodes)
    ]


def explicit_placement(num_nodes: int, positions: Sequence[Tuple[float, float]]) -> List[NodeInfo]:
    """Place node ``i`` at ``positions[i]``, an ``(x, y)`` pair in metres.

    Raises:
        ValueError: Unless *positions* holds exactly *num_nodes* pairs.
    """
    if len(positions) != num_nodes:
        raise ValueError(f"need {num_nodes} positions, one per node, got {len(positions)}")
    return [NodeInfo(node_id=i, position=Position(*entry)) for i, entry in enumerate(positions)]
