"""The SPIN baseline (Sensor Protocols for Information via Negotiation).

Three-way handshake per data item: the holder broadcasts an ADV with the
item's meta-data, interested neighbours that lack the data answer with a REQ,
and the holder sends the DATA.  Every node that obtains a new item
re-advertises it once, which is how data spreads beyond the original source's
neighbourhood.  All transmissions happen at the single maximum power level —
SPIN does not adapt transmit power to the neighbour distance, which is the
inefficiency SPMS attacks.

For the failure experiments (``F-SPIN``) the node keeps a request-retry timer:
if the data does not arrive within ``tout_dat_ms`` it re-requests from another
advertiser it has heard (or the same one if no alternative exists), up to
``max_retries`` attempts.  Without this SPIN would simply lose data whenever a
single advertiser fails, which would make the comparison meaningless.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interests import InterestModel
from repro.core.metadata import DataDescriptor, DataItem
from repro.core.network import Network
from repro.core.node_base import (
    DEFAULT_ADV_SIZE_BYTES,
    DEFAULT_REQ_SIZE_BYTES,
    ProtocolNode,
)
from repro.core.packets import Packet, PacketType
from repro.sim.timers import Timer


class _PendingRequest:
    """Book-keeping for one outstanding SPIN request."""

    __slots__ = ("descriptor", "advertisers", "asked", "timer", "attempts")

    def __init__(self, descriptor: DataDescriptor) -> None:
        self.descriptor = descriptor
        self.advertisers: List[int] = []
        self.asked: Optional[int] = None
        self.timer: Optional[Timer] = None
        self.attempts = 0


class SpinNode(ProtocolNode):
    """SPIN protocol state machine for one node.

    Args:
        node_id: This node's id.
        network: Shared network.
        interest_model: Which data this node wants.
        tout_dat_ms: Retry timeout after sending a REQ, a finite number
            >= 0.  It fires whenever the data takes longer than this to
            arrive, failures or not: a max-power REQ and its DATA can spend
            more than ``tout_dat_ms`` on channel access alone in a dense
            zone, so failure-free runs retry too (ROADMAP.md, direction 1).
        max_retries: How many times (>= 0) a REQ is retried before giving up
            until the next ADV is heard.

    Attributes:
        retries: REQs re-sent because the retry timer fired, like
            ``SpmsNode.escalations`` for SPMS.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        interest_model: InterestModel,
        adv_size_bytes: int = DEFAULT_ADV_SIZE_BYTES,
        req_size_bytes: int = DEFAULT_REQ_SIZE_BYTES,
        tout_dat_ms: float = 2.5,
        max_retries: int = 3,
    ) -> None:
        super().__init__(
            node_id,
            network,
            interest_model,
            adv_size_bytes=adv_size_bytes,
            req_size_bytes=req_size_bytes,
        )
        self.tout_dat_ms = self.checked_timeout("tout_dat_ms", tout_dat_ms)
        if max_retries < 0:
            raise ValueError(f"{type(self).__name__} max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.retries = 0
        self._pending: Dict[str, _PendingRequest] = {}
        self._advertised: set = set()

    # -------------------------------------------------------------- data path

    def originate(self, item: DataItem) -> None:
        """Produce a new item: cache it and advertise it to the zone."""
        self.items_originated += 1
        self.cache.add(item)
        self._advertise(item.descriptor)

    def _advertise(self, descriptor: DataDescriptor) -> None:
        if descriptor.name in self._advertised:
            return
        self._advertised.add(descriptor.name)
        self.network.broadcast(self.node_id, self.make_adv(descriptor))

    def on_packet(self, packet: Packet) -> None:
        """Dispatch an incoming ADV / REQ / DATA."""
        if packet.packet_type is PacketType.ADV:
            self._on_adv(packet)
        elif packet.packet_type is PacketType.REQ:
            self._on_req(packet)
        elif packet.packet_type is PacketType.DATA:
            self._on_data(packet)

    # --------------------------------------------------------------- handlers

    def _on_adv(self, packet: Packet) -> None:
        descriptor = packet.descriptor
        # self.wants(descriptor, packet.sender) inlined — this runs once per
        # ADV reception, the most frequent protocol action in a run.
        if self.cache.has(descriptor):
            return
        if not self.interest_model.is_interested(self.node_id, descriptor, packet.sender):
            return
        pending = self._pending.get(descriptor.name)
        if pending is None:
            pending = _PendingRequest(descriptor)
            self._pending[descriptor.name] = pending
        if packet.sender not in pending.advertisers:
            pending.advertisers.append(packet.sender)
        if pending.asked is None:
            self._send_request(descriptor, pending, packet.sender)

    #: Zone-batched ADV delivery (``Network._deliver_adv_batch``) jumps
    #: straight to the handler: it only reads the shared packet's descriptor
    #: and sender, so the per-receiver clone and type dispatch of the generic
    #: ``on_packet`` path are pure overhead here.
    on_adv = _on_adv

    def _send_request(
        self, descriptor: DataDescriptor, pending: _PendingRequest, target: int
    ) -> None:
        pending.asked = target
        pending.attempts += 1
        req = self.make_req(descriptor, next_hop=target, final_target=target)
        # SPIN has a single (maximum) power level for every transmission.
        self.network.unicast(self.node_id, target, req, force_max_power=True)
        if pending.timer is None:
            pending.timer = Timer(
                self.sim,
                self.tout_dat_ms,
                lambda name=descriptor.name: self._on_retry_timeout(name),
                name=f"spin.retry.{self.node_id}.{descriptor.name}",
            )
        pending.timer.restart()

    def _on_retry_timeout(self, descriptor_name: str) -> None:
        pending = self._pending.get(descriptor_name)
        if pending is None:
            return
        descriptor = pending.descriptor
        if self.cache.has(descriptor):
            self._clear_pending(descriptor_name)
            return
        if pending.attempts > self.max_retries:
            # Give up for now; a future ADV will re-open the request.
            self._clear_pending(descriptor_name)
            return
        target = self._pick_retry_target(pending)
        if target is None:
            self._clear_pending(descriptor_name)
            return
        self.retries += 1
        self._send_request(descriptor, pending, target)

    def _pick_retry_target(self, pending: _PendingRequest) -> Optional[int]:
        alternatives = [a for a in pending.advertisers if a != pending.asked]
        if alternatives:
            return alternatives[-1]
        if pending.advertisers:
            return pending.advertisers[-1]
        return None

    def _clear_pending(self, descriptor_name: str) -> None:
        pending = self._pending.pop(descriptor_name, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _on_req(self, packet: Packet) -> None:
        item = self.cache.get(packet.descriptor)
        if item is None:
            self.metrics.record_drop("spin_req_without_data")
            return
        data = self.make_data(item, next_hop=packet.origin, final_target=packet.origin)
        self.network.unicast(self.node_id, packet.origin, data, force_max_power=True)

    def _on_data(self, packet: Packet) -> None:
        assert packet.item is not None
        if not self.store_item(packet.item):
            return
        self._clear_pending(packet.descriptor.name)
        self._advertise(packet.descriptor)
