"""Single source-destination workload.

The paper's theoretical analysis (Section 4) and the protocol walk-throughs
(Sections 3.3 and 3.5) reason about one source disseminating to one or a few
destinations through a chain of relays.  This workload reproduces that
scenario and is what the unit/behaviour tests and the quickstart example use.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.interests import ExplicitInterest, InterestModel
from repro.core.metadata import DataItem, intern_descriptor
from repro.sim.rng import RandomStreams
from repro.workload.base import ScheduledItem, Workload


class SinglePairWorkload(Workload):
    """One source sends ``num_items`` items to an explicit destination set.

    Args:
        source: Producing node.
        destinations: Nodes interested in every item.
        num_items: How many items the source produces.
        interval_ms: Fixed gap between consecutive originations.
        data_size_bytes: DATA payload size.
        start_ms: Time of the first origination.
    """

    def __init__(
        self,
        source: int,
        destinations: Sequence[int],
        num_items: int = 1,
        interval_ms: float = 10.0,
        data_size_bytes: int = 40,
        start_ms: float = 0.0,
    ) -> None:
        destinations = list(destinations)
        if not destinations:
            raise ValueError("single_pair needs at least one destination")
        if len(set(destinations)) != len(destinations):
            # Each copy would count as one more expected delivery.
            raise ValueError(f"single_pair destinations repeat a node: {destinations}")
        if num_items < 1:
            raise ValueError(f"num_items must be positive, got {num_items}")
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        if source in destinations:
            raise ValueError("the source cannot be one of the destinations")
        self.source = source
        self.destinations = destinations
        self.num_items = num_items
        self.interval_ms = interval_ms
        self.data_size_bytes = data_size_bytes
        self.start_ms = start_ms
        self._interest = ExplicitInterest({})

    @property
    def expected_items(self) -> int:
        """Number of items the source will produce."""
        return self.num_items

    def interest_model(self) -> InterestModel:
        """Explicit interest for the configured destinations."""
        return self._interest

    def generate(self, rng: RandomStreams) -> List[ScheduledItem]:
        """Build the origination schedule (deterministic)."""
        schedule = []
        for sequence in range(self.num_items):
            time_ms = self.start_ms + sequence * self.interval_ms
            descriptor = intern_descriptor(f"pair/src{self.source}/seq{sequence}")
            self._interest.set_interest(descriptor.name, self.destinations)
            item = DataItem(
                descriptor=descriptor,
                source=self.source,
                size_bytes=self.data_size_bytes,
                created_at_ms=time_ms,
            )
            schedule.append(
                ScheduledItem(
                    time_ms=time_ms,
                    source=self.source,
                    item=item,
                    interested=list(self.destinations),
                )
            )
        return schedule
