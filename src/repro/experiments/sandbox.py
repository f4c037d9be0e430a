"""Hand-built micro-scenarios ("sandboxes").

The experiment runner builds grids and bulk workloads; the sandbox builds a
small network from *explicit* node positions so that protocol behaviour can be
examined packet by packet — the paper's walk-through topologies (Sections 3.3
and 3.5), unit tests, and the fault-tolerance example all use it.  A sandbox
is a scenario spec with the ``explicit`` placement and workload, built by
:class:`~repro.build.builder.SimulationBuilder` like every other run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.build.builder import SimulationBuilder
from repro.core.metadata import DataDescriptor, DataItem
from repro.experiments.config import SimulationConfig
from repro.experiments.scenarios import ScenarioSpec


class Sandbox(SimulationBuilder):
    """A built micro-network whose traffic the caller originates by hand."""

    def item(self, name: str, source: int, size_bytes: int = 40) -> DataItem:
        """Create a data item produced by *source*."""
        return DataItem(
            descriptor=DataDescriptor(name=name),
            source=source,
            size_bytes=size_bytes,
            created_at_ms=self.sim.now,
        )

    def set_interest(self, name: str, destinations: Sequence[int]) -> None:
        """Declare which nodes want the item called *name*."""
        self.workload.interest_model().set_interest(name, destinations)

    def originate(self, name: str, source: int, destinations: Sequence[int]) -> DataItem:
        """Register interest and metrics bookkeeping, then originate the item."""
        self.set_interest(name, destinations)
        item = self.item(name, source)
        self.metrics.record_item_generated(name, self.sim.now, list(destinations))
        self.nodes[source].originate(item)
        return item

    def run(self, until: float = 10_000.0) -> float:
        """Run until the event calendar drains (or *until* is reached)."""
        return self.sim.run(until=until)

    def delivered(self, name: str, destination: int) -> bool:
        """Whether *destination* holds the item called *name*."""
        return self.nodes[destination].cache.has(DataDescriptor(name=name))


def build_sandbox(
    positions: Sequence[Tuple[float, float]],
    protocol: str = "spms",
    radius_m: float = 20.0,
    seed: int = 3,
    random_backoff: bool = False,
    trace: bool = False,
    protocol_options: Optional[dict] = None,
) -> Sandbox:
    """Build the full stack around explicit node positions.

    Args:
        positions: ``(x, y)`` coordinates in metres; node ids follow list order.
        protocol: Protocol to instantiate on every node.
        radius_m: Maximum transmission radius (zone radius).
        seed: Simulator seed.
        random_backoff: Enable the random slotted backoff (off by default so
            micro-scenarios are deterministic).
        trace: Record a packet-level trace in ``sandbox.sim.trace_log``.
        protocol_options: Extra keyword arguments for the node constructor;
            they override the ``SimulationConfig`` values the protocol
            forwards (packet sizes, timeouts).

    Routing is built only for protocols registered with ``needs_routing``,
    as for every other spec.
    """
    config = SimulationConfig(
        num_nodes=len(positions),
        transmission_radius_m=radius_m,
        # The explicit placement never reads the spacing; the config only
        # requires it not to exceed the radius.
        grid_spacing_m=radius_m,
        seed=seed,
        random_backoff=random_backoff,
    )
    spec = ScenarioSpec(
        name="sandbox",
        protocol=protocol,
        config=config,
        workload="explicit",
        protocol_options=dict(protocol_options or {}),
        placement="explicit",
        placement_options={"positions": list(positions)},
        trace=trace,
    )
    return Sandbox(spec).build()


def line_positions(count: int, spacing_m: float = 5.0) -> List[Tuple[float, float]]:
    """Positions of *count* nodes on a straight line, *spacing_m* apart."""
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    if spacing_m <= 0:
        raise ValueError(f"spacing must be positive, got {spacing_m}")
    return [(i * spacing_m, 0.0) for i in range(count)]
