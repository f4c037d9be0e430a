"""Pluggable scenario construction (`repro.build`).

The package has three pieces:

* :mod:`repro.build.registry` — a generic :class:`ComponentRegistry` mapping
  ``(kind, name)`` pairs (kind = protocol, workload, placement, mobility,
  failure, contention) to factories, with decorator registration and aliases.
* :mod:`repro.build.components` — the built-in components of the paper,
  registered into the default registry, plus the factory calling conventions
  third-party plugins follow.
* :mod:`repro.build.builder` — :class:`SimulationBuilder`, which turns a
  declarative scenario spec into a running simulation through named,
  overridable phases.

Registering a new component makes it reachable from a plain JSON scenario
spec (``repro run --spec``), from ``repro list``, and from every scenario
matrix — no harness changes required.
"""

from repro.build.builder import SimulationBuilder
from repro.build.components import normalize_protocol_name
from repro.build.registry import (
    BUILTIN_KINDS,
    CONTENTION,
    FAILURE,
    MOBILITY,
    PLACEMENT,
    PROTOCOL,
    WORKLOAD,
    ComponentRegistry,
    Registration,
    UnknownComponentError,
    available,
    default_registry,
    register,
)

__all__ = [
    "BUILTIN_KINDS",
    "CONTENTION",
    "FAILURE",
    "MOBILITY",
    "PLACEMENT",
    "PROTOCOL",
    "WORKLOAD",
    "ComponentRegistry",
    "Registration",
    "SimulationBuilder",
    "UnknownComponentError",
    "available",
    "default_registry",
    "normalize_protocol_name",
    "register",
]
