"""Utilities for building small hand-crafted protocol scenarios in tests.

``build_network`` is :func:`repro.experiments.sandbox.build_sandbox` for the
SPMS and SPIN behaviour tests, which reproduce the paper's walk-through
topologies (Sections 3.3 and 3.5).  A timeout a test leaves unset comes from
``SimulationConfig``, as in every built scenario.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.build import BUILTIN_KINDS, ComponentRegistry, default_registry
from repro.experiments.sandbox import Sandbox, build_sandbox, line_positions
from repro.mac.channel import ChannelReservation


def build_network(
    positions: Sequence[Tuple[float, float]],
    protocol: str = "spms",
    radius_m: float = 20.0,
    seed: int = 3,
    random_backoff: bool = False,
    tout_adv_ms: Optional[float] = None,
    tout_dat_ms: Optional[float] = None,
    spms_options: Optional[dict] = None,
    spin_options: Optional[dict] = None,
) -> Sandbox:
    """Build a small network with explicit node positions.

    Args:
        positions: ``(x, y)`` coordinates; node ids follow list order.
        protocol: "spms" or "spin" — which node type to instantiate.
        radius_m: Maximum transmission radius (zone radius).
        seed: Simulator seed.
        random_backoff: Keep False for deterministic timing in tests.
        tout_adv_ms / tout_dat_ms: Protocol timeouts overriding the config's
            (SPIN takes only ``tout_dat_ms``).
        spms_options / spin_options: Extra node-constructor options.
    """
    if protocol == "spms":
        timeouts = {"tout_adv_ms": tout_adv_ms, "tout_dat_ms": tout_dat_ms}
        extra = spms_options
    elif protocol == "spin":
        timeouts = {"tout_dat_ms": tout_dat_ms}
        extra = spin_options
    else:
        raise ValueError(f"unsupported protocol {protocol!r} in test harness")
    options = {key: value for key, value in timeouts.items() if value is not None}
    options.update(extra or {})
    return build_sandbox(
        positions,
        protocol=protocol,
        radius_m=radius_m,
        seed=seed,
        random_backoff=random_backoff,
        protocol_options=options,
    )


def chain_positions(count: int, spacing: float = 5.0) -> List[Tuple[float, float]]:
    """Positions of *count* nodes in a straight line, *spacing* metres apart."""
    return line_positions(count, spacing_m=spacing)


class RecordingChannel(ChannelReservation):
    """A channel that records each transmission's ready time and reserved nodes."""

    def __init__(self) -> None:
        super().__init__()
        self.ready_times: List[float] = []
        self.reserved: List[Tuple[int, ...]] = []

    def earliest_start(self, sender: int, ready_at_ms: float) -> float:
        self.ready_times.append(ready_at_ms)
        return super().earliest_start(sender, ready_at_ms)

    def reserve(self, affected_nodes, start_ms: float, airtime_ms: float) -> float:
        self.reserved.append(tuple(affected_nodes))
        return super().reserve(affected_nodes, start_ms, airtime_ms)


def clone_default_registry() -> ComponentRegistry:
    """A private registry pre-loaded with the built-in components."""
    clone = ComponentRegistry()
    source = default_registry()
    for kind in BUILTIN_KINDS:
        for name in source.available(kind):
            registration = source.lookup(kind, name)
            clone.add(
                kind,
                name,
                registration.factory,
                aliases=registration.aliases,
                metadata=registration.metadata,
            )
    return clone
