"""Built-in components and their registry calling conventions.

Importing this module populates the default :class:`ComponentRegistry` with
the paper's protocols, workloads, placements, mobility/failure models and MAC
contention models.  Third-party plugins follow the same conventions:

====================  =====================================================
kind                  factory signature
====================  =====================================================
``protocol``          ``(node_id, network, interest_model, routing=None,
                      **options) -> ProtocolNode``.  Register with metadata
                      ``{"needs_routing": True}`` when the protocol requires
                      a :class:`~repro.routing.manager.RoutingManager`; the
                      builder then constructs (and pays for) one.  Metadata
                      ``{"config_options": ("adv_size_bytes", ...)}`` names
                      ``SimulationConfig`` fields the builder forwards to the
                      factory as keyword defaults (spec ``protocol_options``
                      still override them).
``workload``          ``(builder, **options) -> Workload``.  The builder
                      exposes ``config``, ``field``, ``zone_map`` and
                      ``sim``; options come from the spec's
                      ``workload_options``.  ``explicit`` schedules nothing:
                      the caller fills its ``ExplicitInterest`` and
                      originates items by hand (see ``Sandbox``).
``placement``         ``(config, rng, **options) -> List[NodeInfo]`` where
                      *rng* is a :class:`random.Random` dedicated to
                      placement (only drawn from by stochastic placements,
                      so deterministic layouts stay byte-identical).
                      ``explicit`` takes option ``positions``: one
                      ``(x, y)`` pair per node, node ids in list order.
``mobility``          ``(builder, mobility_config) -> model`` exposing
                      ``apply_epoch(rng)`` (see ``StepMobilityModel``).
``failure``           ``(failure_config) -> model`` consumed by
                      :class:`~repro.faults.injector.FailureInjector`.
``contention``        ``(config) -> ContentionModel``.
====================  =====================================================

A protocol, workload or placement names in metadata ``constructor`` the
callable its factory passes ``**options`` to, and in metadata ``supplied``
the parameters of that callable the factory fills itself (``node_id``,
``num_nodes``, ...).  Before anything is built, the spec's options are
checked against its annotations by the decoder's rules
(:func:`repro.codec.check_options`), and a supplied parameter cannot be set
from a spec; the constructor checks only ranges.

Protocol names additionally understand the paper's ``f-`` prefix (F-SPMS,
F-SPIN, ...): :func:`normalize_protocol_name` strips it for *any* registered
protocol or alias, so a third-party ``@register("protocol", "epidemic")``
gets ``f-epidemic`` failure-variant naming for free.
"""

from __future__ import annotations

from typing import List, Optional

from repro.build.registry import (
    CONTENTION,
    FAILURE,
    MOBILITY,
    PLACEMENT,
    PROTOCOL,
    WORKLOAD,
    ComponentRegistry,
    UnknownComponentError,
    default_registry,
    register,
)
from repro.core.flooding import FloodingNode
from repro.core.gossip import GossipNode
from repro.core.interests import ExplicitInterest
from repro.core.spin import SpinNode
from repro.core.spms import SpmsNode
from repro.faults.models import TransientFailureModel
from repro.mac.contention import (
    ExponentialContention,
    PolynomialContention,
    QuadraticContention,
)
from repro.mobility.step import StepMobilityModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.topology.placement import explicit_placement, grid_placement, random_placement
from repro.workload.all_to_all import AllToAllWorkload
from repro.workload.base import Workload
from repro.workload.cluster import ClusterWorkload
from repro.workload.poisson import PoissonArrivals
from repro.workload.single_pair import SinglePairWorkload

# ------------------------------------------------------------------ protocols

#: What every protocol factory passes its node constructor itself.
_NODE_ARGUMENTS = ("node_id", "network", "interest_model")


@register(
    PROTOCOL,
    "spms",
    metadata={
        "constructor": SpmsNode,
        "supplied": (*_NODE_ARGUMENTS, "routing"),
        "needs_routing": True,
        "config_options": (
            "adv_size_bytes",
            "req_size_bytes",
            "tout_adv_ms",
            "tout_dat_ms",
        ),
    },
)
def _make_spms(node_id, network, interest_model, routing=None, **options):
    if routing is None:
        raise ValueError("SPMS requires a routing manager")
    return SpmsNode(node_id, network, interest_model, routing, **options)


@register(
    PROTOCOL,
    "spin",
    metadata={
        "constructor": SpinNode,
        "supplied": _NODE_ARGUMENTS,
        "config_options": ("adv_size_bytes", "req_size_bytes", "tout_dat_ms"),
    },
)
def _make_spin(node_id, network, interest_model, routing=None, **options):
    return SpinNode(node_id, network, interest_model, **options)


@register(
    PROTOCOL,
    "flooding",
    aliases=("flood",),
    metadata={"constructor": FloodingNode, "supplied": _NODE_ARGUMENTS},
)
def _make_flooding(node_id, network, interest_model, routing=None, **options):
    return FloodingNode(node_id, network, interest_model, **options)


@register(PROTOCOL, "gossip", metadata={"constructor": GossipNode, "supplied": _NODE_ARGUMENTS})
def _make_gossip(node_id, network, interest_model, routing=None, **options):
    return GossipNode(node_id, network, interest_model, **options)


def normalize_protocol_name(
    name: str, registry: Optional[ComponentRegistry] = None
) -> str:
    """Map a user-facing protocol name to its canonical registered name.

    Accepts any registered protocol name or alias, case-insensitively, and
    the generic ``f-`` failure-variant prefix (``f-spms`` -> ``spms``,
    ``f-<plugin>`` -> ``<plugin>``).  The prefix only strips when the bare
    name is not itself registered, so a protocol literally named ``f-x``
    would still resolve to itself.
    """
    registry = registry if registry is not None else default_registry()
    candidate = name.strip().lower()
    try:
        return registry.normalize(PROTOCOL, candidate)
    except UnknownComponentError:
        if candidate.startswith("f-"):
            try:
                return registry.normalize(PROTOCOL, candidate[2:])
            except UnknownComponentError:
                pass
        raise UnknownComponentError(
            f"unknown protocol {name!r}; expected one of "
            f"{registry.available(PROTOCOL)} (optionally prefixed with 'f-')"
        ) from None


# ------------------------------------------------------------------ workloads


@register(
    WORKLOAD,
    "all_to_all",
    aliases=("all-to-all",),
    metadata={"constructor": AllToAllWorkload, "supplied": ("node_ids",)},
)
def _make_all_to_all(builder, **options) -> AllToAllWorkload:
    config = builder.config
    options.setdefault("packets_per_node", config.packets_per_node)
    options.setdefault("data_size_bytes", config.data_size_bytes)
    options.setdefault(
        "arrivals",
        PoissonArrivals(mean_interarrival_ms=config.arrival_mean_interarrival_ms),
    )
    return AllToAllWorkload(builder.field.node_ids, **options)


@register(
    WORKLOAD,
    "cluster",
    metadata={"constructor": ClusterWorkload, "supplied": ("field", "zone_map")},
)
def _make_cluster(builder, **options) -> ClusterWorkload:
    config = builder.config
    options.setdefault("data_size_bytes", config.data_size_bytes)
    options.setdefault(
        "arrivals",
        PoissonArrivals(mean_interarrival_ms=config.arrival_mean_interarrival_ms),
    )
    return ClusterWorkload(builder.field, builder.zone_map, **options)


@register(
    WORKLOAD, "single_pair", aliases=("single-pair",), metadata={"constructor": SinglePairWorkload}
)
def _make_single_pair(builder, **options) -> SinglePairWorkload:
    options.setdefault("data_size_bytes", builder.config.data_size_bytes)
    workload = SinglePairWorkload(**options)
    for node in (workload.source, *workload.destinations):
        if node not in builder.field:
            raise ValueError(
                f"single_pair node {node!r} is not a node of the "
                f"{len(builder.field)}-node field"
            )
    return workload


class _ExplicitWorkload(Workload):
    """No scheduled traffic: the caller sets interest and originates items."""

    def __init__(self) -> None:
        self._interest = ExplicitInterest({})

    def generate(self, rng) -> List:
        return []

    def interest_model(self) -> ExplicitInterest:
        return self._interest


@register(WORKLOAD, "explicit", metadata={"constructor": _ExplicitWorkload})
def _make_explicit_workload(builder) -> _ExplicitWorkload:
    return _ExplicitWorkload()


# ----------------------------------------------------------------- placements


@register(PLACEMENT, "grid", metadata={"constructor": grid_placement, "supplied": ("num_nodes",)})
def _make_grid(config, rng, **options) -> List:
    options.setdefault("spacing_m", config.grid_spacing_m)
    return grid_placement(config.num_nodes, **options)


@register(
    PLACEMENT,
    "random",
    aliases=("uniform",),
    metadata={"constructor": random_placement, "supplied": ("num_nodes", "rng")},
)
def _make_random(config, rng, **options) -> List:
    options.setdefault("spacing_m", config.grid_spacing_m)
    return random_placement(config.num_nodes, rng=rng, **options)


@register(
    PLACEMENT, "explicit", metadata={"constructor": explicit_placement, "supplied": ("num_nodes",)}
)
def _make_explicit(config, rng, positions) -> List:
    return explicit_placement(config.num_nodes, positions)


# ------------------------------------------------------- mobility and failures


@register(MOBILITY, "step")
def _make_step_mobility(builder, mobility) -> StepMobilityModel:
    return StepMobilityModel(
        builder.field,
        move_fraction=mobility.move_fraction,
        max_displacement_m=mobility.max_displacement_m,
    )


class _EpochWaypointAdapter:
    """Drives :class:`RandomWaypointModel` through the runner's epoch hook."""

    def __init__(self, builder) -> None:
        self._builder = builder
        self._model = RandomWaypointModel(builder.field)

    def apply_epoch(self, rng) -> int:
        """Advance continuous motion up to the simulator's current time."""
        return self._model.advance_to(self._builder.sim.now, rng)


@register(MOBILITY, "waypoint", aliases=("random_waypoint",))
def _make_waypoint_mobility(builder, mobility) -> _EpochWaypointAdapter:
    return _EpochWaypointAdapter(builder)


@register(FAILURE, "transient")
def _make_transient_failures(failures) -> TransientFailureModel:
    return TransientFailureModel(
        mean_interarrival_ms=failures.mean_interarrival_ms,
        repair_min_ms=failures.repair_min_ms,
        repair_max_ms=failures.repair_max_ms,
    )


# ----------------------------------------------------------------- contention


@register(CONTENTION, "quadratic")
def _make_quadratic_contention(config) -> QuadraticContention:
    return QuadraticContention(g=config.csma_g)


@register(CONTENTION, "polynomial")
def _make_polynomial_contention(config) -> PolynomialContention:
    return PolynomialContention(g=config.csma_g)


@register(CONTENTION, "exponential")
def _make_exponential_contention(config) -> ExponentialContention:
    return ExponentialContention(g=config.csma_g)
