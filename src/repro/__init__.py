"""repro — reproduction of "Fault Tolerant Energy Aware Data Dissemination
Protocol in Sensor Networks" (Khanna, Bagchi, Wu — DSN 2004).

The package implements SPMS (Shortest Path Minded SPIN), the SPIN baseline,
and every substrate the paper's evaluation needs: a discrete-event simulation
kernel, the MICA2 radio/energy model, a CSMA contention + channel-reservation
MAC model, sensor-field topology with zones, distributed Bellman-Ford zone
routing, transient-failure injection, step mobility, the all-to-all and
cluster workloads, and the Section-4 analytical models.

Quickstart::

    from repro import SimulationConfig, all_to_all_scenario, run_scenario

    config = SimulationConfig(num_nodes=49, packets_per_node=1)
    spms = run_scenario(all_to_all_scenario("spms", config))
    spin = run_scenario(all_to_all_scenario("spin", config))
    print(spms.energy_per_item_uj, spin.energy_per_item_uj)
    print(spms.average_delay_ms, spin.average_delay_ms)

See ``examples/`` for richer scenarios and ``benchmarks/`` for the scripts
that regenerate every figure of the paper.
"""

from repro.build import (
    ComponentRegistry,
    SimulationBuilder,
    default_registry,
    register,
)
from repro.core import (
    DataCache,
    DataDescriptor,
    DataItem,
    FloodingNode,
    GossipNode,
    Network,
    Packet,
    PacketType,
    ProtocolNode,
    SpinNode,
    SpmsNode,
)
from repro.experiments import (
    ExperimentRunner,
    FailureConfig,
    MobilityConfig,
    Sandbox,
    ScenarioSpec,
    SimulationConfig,
    all_to_all_scenario,
    build_sandbox,
    cluster_scenario,
    line_positions,
    run_scenario,
    single_pair_scenario,
)
from repro.results import (
    MetricsSummary,
    RunRecord,
    RunStore,
    SweepResult,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "ComponentRegistry",
    "DataCache",
    "SimulationBuilder",
    "default_registry",
    "register",
    "DataDescriptor",
    "DataItem",
    "ExperimentRunner",
    "FailureConfig",
    "FloodingNode",
    "GossipNode",
    "MetricsSummary",
    "MobilityConfig",
    "Network",
    "Packet",
    "PacketType",
    "ProtocolNode",
    "RunRecord",
    "RunStore",
    "Sandbox",
    "ScenarioSpec",
    "SimulationConfig",
    "Simulator",
    "SpinNode",
    "SpmsNode",
    "SweepResult",
    "all_to_all_scenario",
    "build_sandbox",
    "cluster_scenario",
    "line_positions",
    "run_scenario",
    "single_pair_scenario",
    "__version__",
]
