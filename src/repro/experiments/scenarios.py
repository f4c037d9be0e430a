"""Declarative scenario specifications.

A :class:`ScenarioSpec` fully describes one run: which protocol, which
workload and scale, how nodes are placed, whether failures are injected and
whether nodes move.  The builders below make single specs; scenario-matrix
job expansion (:mod:`repro.experiments.matrix`) makes one spec per grid
point of a figure's sweep.

Specs round-trip losslessly through plain dictionaries and JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`), with a
schema version and unknown-key rejection.  That canonical serialization is
the single configuration format shared by the CLI (``repro run --spec``),
the spec fingerprints run records carry and the scenario-matrix job
expansion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.codec import decode, loads
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    SpecValidationError,
)

#: Version of the serialized spec schema.  Bumped whenever the dictionary
#: layout changes incompatibly; :meth:`ScenarioSpec.from_dict` rejects specs
#: written under a different version.  Version history:
#:
#: * 1 — first canonical layout (PR 2).
#: * 2 — the spec gained free-form ``labels`` (fleet/report provenance);
#:   bumped together with ``CACHE_SCHEMA_VERSION`` 2→3 per the ROADMAP's
#:   serialized-layout policy.  v1 spec files need ``"schema_version": 2``
#:   and (optionally) a ``"labels": {}`` entry.
SPEC_SCHEMA_VERSION = 2

#: Key carrying the schema version in serialized specs.
SCHEMA_KEY = "schema_version"


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment to run.

    Attributes:
        name: Human-readable scenario name (appears in results).
        protocol: Protocol to run ("spms", "spin", "flooding", "gossip").
        config: Simulation configuration.
        workload: Name of a registered workload ("all_to_all", "cluster",
            "single_pair", or any plugin).
        workload_options: Extra keyword arguments for the workload constructor
            (e.g. ``source``/``destinations`` for "single_pair",
            ``packets_per_member`` for "cluster").
        protocol_options: Extra keyword arguments for the protocol node
            constructor (e.g. ``tout_dat_ms=6.0``).
        placement: Name of a registered placement ("grid", "random", or any
            plugin) controlling where the nodes sit.
        placement_options: Extra keyword arguments for the placement factory.
        failures: Transient-failure injection parameters, or ``None``.
        mobility: Step-mobility parameters, or ``None``.
        labels: Free-form, JSON-native provenance metadata (e.g. a fleet
            name, a ticket id, experiment tags).  Labels do not influence the
            simulation, but they are part of the canonical serialization and
            therefore enter the spec fingerprint: ``--resume`` treats a
            relabelled spec as a new run.
        charge_initial_routing: Charge the energy of the very first routing
            table construction to SPMS (the paper only charges re-executions
            caused by mobility, so the default is False).
        settle_margin_ms: Extra simulated time allowed after the last
            origination before failure injection stops.
        trace: Record a packet-level trace (slow; for debugging/examples).
    """

    name: str
    protocol: str
    config: SimulationConfig
    workload: str = "all_to_all"
    workload_options: Dict[str, object] = field(default_factory=dict)
    protocol_options: Dict[str, object] = field(default_factory=dict)
    placement: str = "grid"
    placement_options: Dict[str, object] = field(default_factory=dict)
    failures: Optional[FailureConfig] = None
    mobility: Optional[MobilityConfig] = None
    labels: Dict[str, object] = field(default_factory=dict)
    charge_initial_routing: bool = False
    settle_margin_ms: float = 50.0
    trace: bool = False

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Canonical, JSON-safe dictionary representation.

        The layout is versioned (:data:`SPEC_SCHEMA_VERSION`) and is the
        single source for CLI spec files, spec fingerprints and matrix job
        payloads.
        """
        return {
            SCHEMA_KEY: SPEC_SCHEMA_VERSION,
            "name": self.name,
            "protocol": self.protocol,
            "config": self.config.to_dict(),
            "workload": self.workload,
            "workload_options": dict(self.workload_options),
            "protocol_options": dict(self.protocol_options),
            "placement": self.placement,
            "placement_options": dict(self.placement_options),
            "failures": self.failures.to_dict() if self.failures is not None else None,
            "mobility": self.mobility.to_dict() if self.mobility is not None else None,
            "labels": dict(self.labels),
            "charge_initial_routing": self.charge_initial_routing,
            "settle_margin_ms": self.settle_margin_ms,
            "trace": self.trace,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`).

        Raises:
            SpecValidationError: On a wrong/absent schema version, unknown
                keys at any level, missing required fields, a value of the
                wrong type, or values the config validators reject.
        """
        schema = (SCHEMA_KEY, SPEC_SCHEMA_VERSION)
        return decode(cls, data, SpecValidationError, "scenario spec", schema)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON rendering (stable key order)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(loads(text, SpecValidationError, "scenario spec"))


def all_to_all_scenario(
    protocol: str,
    config: Optional[SimulationConfig] = None,
    failures: Optional[FailureConfig] = None,
    mobility: Optional[MobilityConfig] = None,
    name: Optional[str] = None,
    placement: str = "grid",
    **workload_options,
) -> ScenarioSpec:
    """All-to-all communication (Section 5.1)."""
    config = config if config is not None else SimulationConfig()
    return ScenarioSpec(
        name=name or f"all-to-all/{protocol}",
        protocol=protocol,
        config=config,
        workload="all_to_all",
        workload_options=dict(workload_options),
        placement=placement,
        failures=failures,
        mobility=mobility,
    )


def cluster_scenario(
    protocol: str,
    config: Optional[SimulationConfig] = None,
    failures: Optional[FailureConfig] = None,
    packets_per_member: int = 2,
    member_interest_probability: float = 0.05,
    name: Optional[str] = None,
    placement: str = "grid",
    **workload_options,
) -> ScenarioSpec:
    """Cluster-based hierarchical communication (Section 5.2)."""
    config = config if config is not None else SimulationConfig()
    options: Dict[str, object] = {
        "packets_per_member": packets_per_member,
        "member_interest_probability": member_interest_probability,
    }
    options.update(workload_options)
    return ScenarioSpec(
        name=name or f"cluster/{protocol}",
        protocol=protocol,
        config=config,
        workload="cluster",
        workload_options=options,
        placement=placement,
        failures=failures,
    )


def single_pair_scenario(
    protocol: str,
    source: int,
    destinations: Sequence[int],
    config: Optional[SimulationConfig] = None,
    num_items: int = 1,
    failures: Optional[FailureConfig] = None,
    name: Optional[str] = None,
    **workload_options,
) -> ScenarioSpec:
    """One source disseminating to an explicit destination set (Section 3.3/3.5)."""
    config = config if config is not None else SimulationConfig()
    options: Dict[str, object] = {
        "source": source,
        "destinations": list(destinations),
        "num_items": num_items,
    }
    options.update(workload_options)
    return ScenarioSpec(
        name=name or f"single-pair/{protocol}",
        protocol=protocol,
        config=config,
        workload="single_pair",
        workload_options=options,
        failures=failures,
    )
