"""ADV / REQ / DATA packets.

Packet sizes follow Table 1: ADV and REQ are 2 bytes of meta-data, DATA is
20x the REQ size.  Sizes are carried explicitly on the packet because the MAC
and energy models need them and because the DATA size is configurable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.core.metadata import DataDescriptor, DataItem

#: Sentinel destination meaning "broadcast to every node in range".
BROADCAST = -1

_packet_counter = itertools.count()


class PacketType(Enum):
    """The three packet kinds used by SPIN and SPMS."""

    ADV = "ADV"
    REQ = "REQ"
    DATA = "DATA"

    def __init__(self, label: str) -> None:
        #: The value as a plain attribute, for the network's per-transmission
        #: counters: ``.value`` is a descriptor call, and keying a dict by
        #: the member runs the Python-level ``Enum.__hash__``.
        self.label = label


@dataclass(slots=True)
class Packet:
    """A packet in flight.

    Attributes:
        packet_type: ADV, REQ or DATA.
        descriptor: Meta-data this packet is about.
        sender: Node transmitting this hop.
        receiver: Node addressed by this hop (:data:`BROADCAST` for ADV).
        origin: Node that created the packet (e.g. the requesting destination
            for a REQ, the data holder for a DATA).
        final_target: Node the packet must ultimately reach; for multi-hop
            forwarding this differs from ``receiver``.
        size_bytes: Bytes on the wire for this packet.
        item: The data item carried (DATA packets only).
        hop_count: Number of hops traversed so far (the first transmission is
            hop 1 once it is delivered).
        multi_hop: Whether the packet has been routed through a relay; used by
            SPMS to answer along the same kind of path the request took.
        created_at_ms: Simulation time the packet was created.
        packet_id: Unique id for tracing.
    """

    packet_type: PacketType
    descriptor: DataDescriptor
    sender: int
    receiver: int
    origin: int
    final_target: int
    size_bytes: int
    item: Optional[DataItem] = None
    hop_count: int = 0
    multi_hop: bool = False
    created_at_ms: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_counter))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")
        if self.packet_type is PacketType.DATA and self.item is None:
            raise ValueError("DATA packets must carry a data item")

    @property
    def is_broadcast(self) -> bool:
        """Whether this hop is a broadcast."""
        return self.receiver == BROADCAST

    def next_hop_copy(self, sender: int, receiver: int, multi_hop: bool = True) -> "Packet":
        """A copy of this packet re-addressed for the next hop."""
        return self._copy(sender, receiver, self.hop_count, multi_hop)

    def received_copy(self, receiver: int) -> "Packet":
        """The per-receiver delivery clone (hot path).

        Every reception delivered through ``on_packet`` gets one clone, so
        this is the single most frequent allocation in a run.
        """
        return self._copy(self.sender, receiver, self.hop_count + 1, self.multi_hop)

    def _copy(self, sender: int, receiver: int, hop_count: int, multi_hop: bool) -> "Packet":
        """A copy with a new id and the given addressing fields.

        Bypasses dataclass construction (``__init__`` + ``__post_init__``
        validation) with direct slot assignment: this packet was validated
        when it was built, and a copy changes no validated field.  Draws the
        id from the same counter, once, as construction would.
        """
        clone = object.__new__(Packet)
        clone.packet_type = self.packet_type
        clone.descriptor = self.descriptor
        clone.sender = sender
        clone.receiver = receiver
        clone.origin = self.origin
        clone.final_target = self.final_target
        clone.size_bytes = self.size_bytes
        clone.item = self.item
        clone.hop_count = hop_count
        clone.multi_hop = multi_hop
        clone.created_at_ms = self.created_at_ms
        clone.packet_id = next(_packet_counter)
        return clone

    def label(self) -> str:
        """Short human-readable description for traces."""
        target = "broadcast" if self.is_broadcast else str(self.receiver)
        return (
            f"{self.packet_type.value} {self.sender}->{target} "
            f"({self.descriptor.name}, final={self.final_target})"
        )
