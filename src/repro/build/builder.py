"""Phase-decomposed simulation construction.

:class:`SimulationBuilder` assembles the full simulation stack for one
scenario spec through named, individually overridable phases::

    field -> radio -> mac -> network -> routing -> workload -> nodes -> faults

(The workload phase precedes the nodes phase because protocol nodes take the
workload's interest model at construction time.)  Every phase resolves its
components — placement, contention model, workload, protocol, failure and
mobility models — through a :class:`~repro.build.registry.ComponentRegistry`,
so a scenario can use any registered plugin without the builder changing.

The builder is the only code that wires a simulation:
:class:`~repro.experiments.runner.ExperimentRunner` and
:class:`~repro.experiments.sandbox.Sandbox` subclass it and add only how the
built simulation runs.  Subclasses may also override individual
``build_<phase>`` methods to swap one layer while inheriting the rest; the
phase list itself is the class attribute :attr:`SimulationBuilder.PHASES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.build.components import normalize_protocol_name
from repro.build.registry import (
    CONTENTION,
    FAILURE,
    MOBILITY,
    PLACEMENT,
    PROTOCOL,
    WORKLOAD,
    ComponentRegistry,
    default_registry,
)
from repro.codec import check_options
from repro.core.network import Network
from repro.core.node_base import ProtocolNode
from repro.mac.channel import ChannelReservation
from repro.mac.delay import MacDelayModel
from repro.metrics.collector import MetricsCollector
from repro.radio.energy import EnergyModel
from repro.routing.manager import RoutingManager
from repro.sim.engine import Simulator
from repro.topology.field import SensorField
from repro.topology.placement import PLACEMENT_STREAM
from repro.topology.zone import ZoneMap
from repro.workload.base import ScheduledItem, Workload


class SimulationBuilder:
    """Builds every object of one scenario run from a declarative spec.

    Args:
        spec: A :class:`~repro.experiments.scenarios.ScenarioSpec`.
        registry: Component registry to resolve plugins from; defaults to the
            process-wide registry with the built-ins loaded.
    """

    PHASES = (
        "field",
        "radio",
        "mac",
        "network",
        "routing",
        "workload",
        "nodes",
        "faults",
    )

    def __init__(self, spec, registry: Optional[ComponentRegistry] = None) -> None:
        self.spec = spec
        self.config = spec.config
        self.registry = registry if registry is not None else default_registry()
        self.protocol = normalize_protocol_name(spec.protocol, registry=self.registry)
        self.sim: Optional[Simulator] = None
        self.metrics: Optional[MetricsCollector] = None
        self.field: Optional[SensorField] = None
        self.zone_map: Optional[ZoneMap] = None
        self.power_table = None
        self.energy_model: Optional[EnergyModel] = None
        self.mac_delay: Optional[MacDelayModel] = None
        self.channel: Optional[ChannelReservation] = None
        self.network: Optional[Network] = None
        self.routing: Optional[RoutingManager] = None
        self.workload: Optional[Workload] = None
        self.schedule: List[ScheduledItem] = []
        self.nodes: Dict[int, ProtocolNode] = {}
        self.failure_model = None
        self.mobility_model = None
        self._built = False

    # -------------------------------------------------------------- lifecycle

    def build(self) -> "SimulationBuilder":
        """Check the options, then run every phase once (idempotent); returns the builder."""
        if self._built:
            return self
        self._check_options()
        self.sim = Simulator(seed=self.config.seed, trace=self.spec.trace)
        self.metrics = MetricsCollector()
        for phase in self.PHASES:
            getattr(self, f"build_{phase}")()
        self._built = True
        return self

    def _check_options(self) -> None:
        """Check each component's options (protocol ones with the forwarded
        config values) against the ``constructor`` its registration names."""
        for kind, name, options in (
            (PLACEMENT, self.spec.placement, self.spec.placement_options),
            (WORKLOAD, self.spec.workload, self.spec.workload_options),
            (PROTOCOL, self.protocol, self.protocol_kwargs()),
        ):
            registration = self.registry.lookup(kind, name)
            metadata = registration.metadata
            constructor = metadata.get("constructor")
            if constructor is not None:
                what = f"{registration.name} {kind}"
                check_options(constructor, options, what, metadata.get("supplied", ()))

    # ----------------------------------------------------------------- phases

    def build_field(self) -> None:
        """Place the nodes (via the placement registry) and derive the zones."""
        stream = self.sim.rng.stream(PLACEMENT_STREAM)
        nodes = self.registry.create(
            PLACEMENT, self.spec.placement, self.config, stream, **self.spec.placement_options
        )
        self.field = SensorField(nodes)
        self.zone_map = ZoneMap(self.field, self.config.transmission_radius_m)

    def build_radio(self) -> None:
        """Power table and the energy model derived from it."""
        self.power_table = self.config.power_table()
        self.energy_model = EnergyModel(
            self.power_table,
            t_tx_per_byte_ms=self.config.t_tx_per_byte_ms,
            rx_power_mw=self.config.rx_power_mw,
        )

    def build_mac(self) -> None:
        """Contention/backoff delay model and the optional shared channel."""
        config = self.config
        contention = self.registry.create(CONTENTION, config.contention, config)
        self.mac_delay = MacDelayModel(
            contention=contention,
            slot_time_ms=config.slot_time_ms,
            num_slots=config.num_slots,
            t_tx_per_byte_ms=config.t_tx_per_byte_ms,
            t_proc_ms=config.t_proc_ms,
            rng=self.sim.rng if config.random_backoff else None,
        )
        self.channel = ChannelReservation() if config.channel_reservation else None

    def build_network(self) -> None:
        """The shared network gluing radio, MAC, failures and nodes together."""
        self.network = Network(
            sim=self.sim,
            field=self.field,
            power_table=self.power_table,
            zone_map=self.zone_map,
            energy_model=self.energy_model,
            mac_delay=self.mac_delay,
            metrics=self.metrics,
            channel=self.channel,
            trace=self.spec.trace,
        )

    def build_routing(self) -> None:
        """Routing tables, only for protocols registered with ``needs_routing``."""
        if not self.registry.metadata(PROTOCOL, self.protocol).get("needs_routing"):
            return
        self.routing = RoutingManager(
            field=self.field,
            power_table=self.power_table,
            zone_map=self.zone_map,
            energy_model=self.energy_model,
            energy_ledger=self.metrics.energy,
            charge_energy=self.spec.charge_initial_routing,
        )
        self.routing.build()
        # Re-executions caused by mobility are always charged.
        self.routing.charge_energy = True

    def build_workload(self) -> None:
        """The traffic pattern and its full origination schedule."""
        self.workload = self.registry.create(
            WORKLOAD, self.spec.workload, self, **self.spec.workload_options
        )
        self.schedule = self.workload.generate(self.sim.rng)

    def build_nodes(self) -> None:
        """One protocol node per field position, registered with the network."""
        interest_model = self.workload.interest_model()
        factory = self.registry.get(PROTOCOL, self.protocol)
        kwargs = self.protocol_kwargs()
        for node_id in self.field.node_ids:
            node = factory(
                node_id,
                self.network,
                interest_model,
                routing=self.routing,
                **kwargs,
            )
            self.network.register_node(node)
            self.nodes[node_id] = node

    def build_faults(self) -> None:
        """Failure and mobility models (the injector itself is run-time state)."""
        if self.spec.failures is not None:
            self.failure_model = self.registry.create(
                FAILURE, self.spec.failures.model, self.spec.failures
            )
        if self.spec.mobility is not None:
            self.mobility_model = self.registry.create(
                MOBILITY, self.spec.mobility.model, self, self.spec.mobility
            )

    # ------------------------------------------------------------- protocol kwargs

    def protocol_kwargs(self) -> Dict[str, object]:
        """Constructor options for the protocol nodes: the config fields its
        registration's ``config_options`` forwards (no protocol is special
        cased; plugins opt in the same way), then the spec's ``protocol_options``."""
        metadata = self.registry.metadata(PROTOCOL, self.protocol)
        kwargs: Dict[str, object] = {
            field: getattr(self.config, field)
            for field in metadata.get("config_options", ())
        }
        kwargs.update(self.spec.protocol_options)
        return kwargs
