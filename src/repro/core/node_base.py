"""Common protocol-node machinery shared by SPIN, SPMS and the baselines."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.codec import spell
from repro.core.cache import DataCache
from repro.core.interests import InterestModel
from repro.core.metadata import DataDescriptor, DataItem
from repro.core.network import Network
from repro.core.packets import BROADCAST, Packet, PacketType

#: Table 1 packet sizes.
DEFAULT_ADV_SIZE_BYTES = 2
DEFAULT_REQ_SIZE_BYTES = 2
DEFAULT_DATA_SIZE_BYTES = 40


class ProtocolNode(ABC):
    """Base class for dissemination protocol state machines.

    A protocol node never talks to the simulator or radio directly; it only
    calls :meth:`Network.broadcast` / :meth:`Network.unicast` and receives
    :meth:`on_packet` callbacks.  That keeps every protocol measured through
    exactly the same energy and delay accounting.

    Args:
        node_id: This node's identifier in the sensor field.
        network: The shared network object.
        interest_model: Decides whether this node wants an advertised item.
        adv_size_bytes: ADV packet size, a positive integer.
        req_size_bytes: REQ packet size, a positive integer.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        interest_model: InterestModel,
        adv_size_bytes: int = DEFAULT_ADV_SIZE_BYTES,
        req_size_bytes: int = DEFAULT_REQ_SIZE_BYTES,
    ) -> None:
        for name, size in (("adv_size_bytes", adv_size_bytes), ("req_size_bytes", req_size_bytes)):
            if size <= 0:
                raise ValueError(
                    f"{type(self).__name__} {name} must be a positive integer, got {size}"
                )
        self.node_id = node_id
        self.network = network
        self.interest_model = interest_model
        self.adv_size_bytes = adv_size_bytes
        self.req_size_bytes = req_size_bytes
        self.cache = DataCache()
        self.items_originated = 0
        self.items_received = 0

    # ------------------------------------------------------------------ hooks

    @property
    def sim(self):
        """The simulator (convenience accessor)."""
        return self.network.sim

    @property
    def metrics(self):
        """The shared metrics collector (convenience accessor)."""
        return self.network.metrics

    @abstractmethod
    def originate(self, item: DataItem) -> None:
        """Called by the workload when this node produces a new data item."""

    @abstractmethod
    def on_packet(self, packet: Packet) -> None:
        """Called by the network when a packet is delivered to this node."""

    def on_adv(self, packet: Packet) -> None:
        """Called by the zone-batched ADV fan-out (``Network._deliver_adv_batch``).

        Every receiver of an ADV broadcast is handed the *same* packet
        instance — advertisement handlers must treat it as read-only.  The
        default clones and dispatches through :meth:`on_packet`, keeping
        protocols that do not override this hook exactly on the legacy
        per-receiver-copy path; SPIN/SPMS override it to skip the clone and
        the type dispatch on their hottest delivery path.

        The network does not call this hook on a receiver whose cache holds
        the advertised name (:meth:`DataCache.held_names`); the reception is
        still charged and counted.  A handler must therefore do nothing when
        ``self.cache`` already holds the item, as SPIN's and SPMS's return at
        their first check, ``cache.has``.
        """
        self.on_packet(packet.received_copy(self.node_id))

    def on_failed(self) -> None:
        """Hook invoked when the failure injector takes this node down."""

    def on_recovered(self) -> None:
        """Hook invoked when this node comes back up."""

    # --------------------------------------------------------------- helpers

    def checked_timeout(self, name: str, timeout_ms: float) -> float:
        """*timeout_ms* if it is a :class:`~repro.sim.timers.Timer` duration: finite, >= 0."""
        if not 0 <= timeout_ms < math.inf:
            raise ValueError(
                f"{type(self).__name__} {name} must be a finite number >= 0, "
                f"got {spell(timeout_ms)}"
            )
        return timeout_ms

    def wants(self, descriptor: DataDescriptor, source: int) -> bool:
        """Whether this node is interested in *descriptor* and lacks it."""
        if self.cache.has(descriptor):
            return False
        return self.interest_model.is_interested(self.node_id, descriptor, source)

    def store_item(self, item: DataItem) -> bool:
        """Add *item* to the cache; record delivery if this node wanted it.

        Returns True when this is the first time the node obtained the item.
        """
        if self.cache.has(item.descriptor):
            return False
        interested = self.interest_model.is_interested(
            self.node_id, item.descriptor, item.source
        )
        self.cache.add(item)
        self.items_received += 1
        if interested and item.source != self.node_id:
            self.metrics.record_delivery(item.item_id, self.node_id, self.sim.now)
        return True

    # ----------------------------------------------------------- packet build

    def make_adv(self, descriptor: DataDescriptor) -> Packet:
        """Build an ADV broadcast about *descriptor*."""
        return Packet(
            packet_type=PacketType.ADV,
            descriptor=descriptor,
            sender=self.node_id,
            receiver=BROADCAST,
            origin=self.node_id,
            final_target=BROADCAST,
            size_bytes=self.adv_size_bytes,
            created_at_ms=self.sim.now,
        )

    def make_req(self, descriptor: DataDescriptor, next_hop: int, final_target: int,
                 multi_hop: bool = False) -> Packet:
        """Build a REQ addressed to *next_hop*, ultimately for *final_target*."""
        return Packet(
            packet_type=PacketType.REQ,
            descriptor=descriptor,
            sender=self.node_id,
            receiver=next_hop,
            origin=self.node_id,
            final_target=final_target,
            size_bytes=self.req_size_bytes,
            multi_hop=multi_hop,
            created_at_ms=self.sim.now,
        )

    def make_data(self, item: DataItem, next_hop: int, final_target: int,
                  multi_hop: bool = False) -> Packet:
        """Build a DATA packet carrying *item* towards *final_target*."""
        return Packet(
            packet_type=PacketType.DATA,
            descriptor=item.descriptor,
            sender=self.node_id,
            receiver=next_hop,
            origin=self.node_id,
            final_target=final_target,
            size_bytes=item.size_bytes,
            item=item,
            multi_hop=multi_hop,
            created_at_ms=self.sim.now,
        )
