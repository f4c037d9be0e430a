"""Interest models: which nodes want which data.

The dissemination protocols only move data towards *interested* nodes.  The
paper's two communication patterns correspond to two interest models:

* all-to-all — every node wants every item it did not itself produce
  (:class:`AllInterested`);
* cluster-based hierarchical — the cluster head of the producing node always
  wants the data, other nodes in the source's zone want it with 5 %
  probability (:class:`ExplicitInterest`, built by the cluster workload).
"""

from __future__ import annotations

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
