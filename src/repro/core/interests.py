"""Interest models: which nodes want which data.

The dissemination protocols only move data towards *interested* nodes.  The
paper's two communication patterns correspond to two interest models:

* all-to-all — every node wants every item it did not itself produce
  (:class:`AllInterested`);
* cluster-based hierarchical — the cluster head of the producing node always
  wants the data, other nodes in the source's zone want it with 5 %
  probability (:class:`ExplicitInterest` built by the cluster workload, with
  :class:`ProbabilisticInterest` as the generic building block).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Set

from repro.core.metadata import DataDescriptor


class InterestModel(ABC):
    """Decides whether a node wants a piece of data."""

    @abstractmethod
    def is_interested(self, node_id: int, descriptor: DataDescriptor, source: int) -> bool:
        """Whether *node_id* wants data *descriptor* produced by *source*."""


class AllInterested(InterestModel):
    """Every node wants every item produced by somebody else."""

    def is_interested(self, node_id: int, descriptor: DataDescriptor, source: int) -> bool:
        return node_id != source


class ProbabilisticInterest(InterestModel):
    """A node wants an item with fixed probability, decided deterministically.

    The decision hashes ``(node, descriptor)`` so that repeated queries agree
    and runs are reproducible without threading an RNG through the protocol.

    Args:
        probability: Interest probability in ``[0, 1]``.
        always_interested: Node ids that want everything regardless (e.g.
            cluster heads, sink nodes).
    """

    def __init__(self, probability: float, always_interested: Iterable[int] = ()) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability
        self.always_interested: Set[int] = set(always_interested)

    def is_interested(self, node_id: int, descriptor: DataDescriptor, source: int) -> bool:
        if node_id == source:
            return False
        if node_id in self.always_interested:
            return True
        digest = hashlib.sha256(f"{node_id}:{descriptor.name}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return draw < self.probability


class ExplicitInterest(InterestModel):
    """Interest given explicitly per data item (used by the cluster workload).

    Args:
        interests: Mapping from descriptor name to the set of interested nodes.
    """

    def __init__(self, interests: Dict[str, Set[int]]) -> None:
        self._interests = {name: set(nodes) for name, nodes in interests.items()}

    def set_interest(self, descriptor_name: str, nodes: Iterable[int]) -> None:
        """Register (or replace) the interested set for one item."""
        self._interests[descriptor_name] = set(nodes)

    def is_interested(self, node_id: int, descriptor: DataDescriptor, source: int) -> bool:
        if node_id == source:
            return False
        return node_id in self._interests.get(descriptor.name, set())
