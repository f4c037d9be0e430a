"""SPMS — Shortest Path Minded SPIN (the paper's contribution).

SPMS keeps SPIN's meta-data negotiation but performs the request and the data
transfer over minimum-transmit-power multi-hop routes inside the zone:

* ADV packets are still broadcast at maximum power so every zone neighbour
  hears about new data.
* An interested destination whose shortest path to the advertiser is a direct
  link requests immediately; otherwise it waits ``tau_ADV`` expecting a relay
  on the shortest path to obtain and re-advertise the data first.
* Every node re-advertises every item it obtains exactly once.
* Fault tolerance comes from the Primary/Secondary Originator Nodes
  (PRONE / SCONE) and the ``tau_DAT`` timer: when a request goes unanswered
  the destination escalates — first re-requesting directly from the PRONE at
  a higher power level, then falling back to the SCONE (Section 3.4/3.5).

The implementation is an event-driven state machine per (node, data item),
held in :class:`_ItemState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.core.interests import InterestModel
from repro.core.metadata import DataDescriptor, DataItem
from repro.core.network import Network
from repro.core.node_base import (
    DEFAULT_ADV_SIZE_BYTES,
    DEFAULT_REQ_SIZE_BYTES,
    ProtocolNode,
)
from repro.core.packets import Packet, PacketType
from repro.routing.manager import RoutingManager
from repro.sim.timers import Timer

#: Table 1 protocol timeouts (milliseconds).
DEFAULT_TOUT_ADV_MS = 1.0
DEFAULT_TOUT_DAT_MS = 2.5

#: Relays drop packets that have travelled this many hops — zones are small
#: (5-50 nodes), so a legitimate intra-zone path never gets near this bound;
#: it only guards against forwarding loops while routes are stale.
MAX_FORWARD_HOPS = 32


class _Phase(Enum):
    """Life cycle of one data item at one destination."""

    IDLE = "idle"
    WAIT_ADV = "wait_adv"
    WAIT_DATA = "wait_data"
    DONE = "done"


@dataclass
class _ItemState:
    """Per-item negotiation state at a destination node."""

    descriptor: DataDescriptor
    phase: _Phase = _Phase.IDLE
    prone: Optional[int] = None
    scone: Optional[int] = None
    prone_cost: float = math.inf
    advertisers: Dict[int, float] = field(default_factory=dict)
    tau_adv: Optional[Timer] = None
    tau_dat: Optional[Timer] = None
    attempts: int = 0
    last_attempt: Optional[Tuple[str, int]] = None  # ("routed"|"direct", target)


class SpmsNode(ProtocolNode):
    """SPMS protocol state machine for one node.

    Args:
        node_id: This node's id.
        network: Shared network object.
        interest_model: Which data this node wants.
        routing: Zone routing manager (shared by all nodes).
        tout_adv_ms: ``tau_ADV`` timeout — how long to wait for a closer relay
            to advertise before requesting over the multi-hop route (a finite
            number >= 0).
        tout_dat_ms: ``tau_DAT`` timeout — how long to wait for requested data
            before escalating to the backup originator (a finite number >= 0).
        max_attempts: Upper bound (>= 1) on request attempts per item before
            the node goes back to IDLE (a later ADV restarts negotiation).
        readvertise_received: The protocol requires every node to advertise
            received data once in its zone (Section 3.2); disabling it is an
            ablation that shows how dissemination stalls beyond the source's
            zone without re-advertisement.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        interest_model: InterestModel,
        routing: RoutingManager,
        adv_size_bytes: int = DEFAULT_ADV_SIZE_BYTES,
        req_size_bytes: int = DEFAULT_REQ_SIZE_BYTES,
        tout_adv_ms: float = DEFAULT_TOUT_ADV_MS,
        tout_dat_ms: float = DEFAULT_TOUT_DAT_MS,
        max_attempts: int = 4,
        readvertise_received: bool = True,
    ) -> None:
        super().__init__(
            node_id,
            network,
            interest_model,
            adv_size_bytes=adv_size_bytes,
            req_size_bytes=req_size_bytes,
        )
        self.routing = routing
        self.tout_adv_ms = self.checked_timeout("tout_adv_ms", tout_adv_ms)
        self.tout_dat_ms = self.checked_timeout("tout_dat_ms", tout_dat_ms)
        if max_attempts < 1:
            raise ValueError(f"{type(self).__name__} max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self.readvertise_received = readvertise_received
        self._states: Dict[str, _ItemState] = {}
        self._advertised: set = set()
        self.requests_sent = 0
        self.escalations = 0
        self.relayed_packets = 0

    # ----------------------------------------------------------------- origin

    def originate(self, item: DataItem) -> None:
        """Produce a new item: cache it and advertise it in the zone."""
        self.items_originated += 1
        self.cache.add(item)
        self._advertise(item.descriptor)

    def _advertise(self, descriptor: DataDescriptor) -> None:
        if descriptor.name in self._advertised:
            return
        self._advertised.add(descriptor.name)
        self.network.broadcast(self.node_id, self.make_adv(descriptor))

    # -------------------------------------------------------------- dispatch

    def on_packet(self, packet: Packet) -> None:
        """Dispatch an incoming ADV / REQ / DATA."""
        if packet.packet_type is PacketType.ADV:
            self._on_adv(packet)
        elif packet.packet_type is PacketType.REQ:
            self._on_req(packet)
        elif packet.packet_type is PacketType.DATA:
            self._on_data(packet)

    # ------------------------------------------------------------------- ADV

    def _state_for(self, descriptor: DataDescriptor) -> _ItemState:
        state = self._states.get(descriptor.name)
        if state is None:
            state = _ItemState(descriptor=descriptor)
            self._states[descriptor.name] = state
        return state

    def _on_adv(self, packet: Packet) -> None:
        descriptor = packet.descriptor
        advertiser = packet.sender
        # self.wants(descriptor, advertiser) inlined — this runs once per
        # ADV reception, the most frequent protocol action in a run.
        if self.cache.has(descriptor):
            return
        if not self.interest_model.is_interested(self.node_id, descriptor, advertiser):
            return
        state = self._state_for(descriptor)
        if state.phase is _Phase.DONE:
            return
        # One table lookup serves both queries this handler needs: the cost
        # of the primary route (``route_cost``) and its next hop
        # (``next_hop`` with no exclusions).
        best = self.routing.table(self.node_id).best(advertiser)
        cost = math.inf if best is None else best.cost
        state.advertisers[advertiser] = cost
        self._update_originators(state, advertiser, cost)

        if state.phase is _Phase.WAIT_DATA:
            # Already requested from somebody; remember the advertiser (done
            # above) but do not restart negotiation.
            return

        next_hop = None if best is None else best.next_hop
        if next_hop == advertiser or next_hop is None:
            # The advertiser is a next-hop neighbour (or we have no routing
            # state for it): request directly at the lowest power level that
            # reaches it.
            self._cancel_tau_adv(state)
            self._send_request(state, target=advertiser, routed=False)
        else:
            # Reaching the advertiser needs relays; wait for a closer node to
            # obtain and advertise the data first.
            if state.phase is _Phase.IDLE:
                self._start_tau_adv(state)
            else:  # WAIT_ADV — a closer advertisement resets the timer.
                self._restart_tau_adv(state)

    #: Zone-batched ADV delivery (``Network._deliver_adv_batch``) jumps
    #: straight to the handler: it only reads the shared packet's descriptor
    #: and sender, so the per-receiver clone and type dispatch of the generic
    #: ``on_packet`` path are pure overhead here.
    on_adv = _on_adv

    def _update_originators(self, state: _ItemState, advertiser: int, cost: float) -> None:
        if state.prone is None:
            state.prone = advertiser
            state.scone = advertiser
            state.prone_cost = cost
            return
        if cost < state.prone_cost and advertiser != state.prone:
            state.scone = state.prone
            state.prone = advertiser
            state.prone_cost = cost

    # ----------------------------------------------------------------- timers

    def _start_tau_adv(self, state: _ItemState) -> None:
        state.phase = _Phase.WAIT_ADV
        if state.tau_adv is None:
            state.tau_adv = Timer(
                self.sim,
                self.tout_adv_ms,
                lambda name=state.descriptor.name: self._on_tau_adv_expired(name),
                name=f"spms.tau_adv.{self.node_id}.{state.descriptor.name}",
            )
        if not state.tau_adv.running:
            state.tau_adv.start()

    def _restart_tau_adv(self, state: _ItemState) -> None:
        state.phase = _Phase.WAIT_ADV
        if state.tau_adv is None:
            self._start_tau_adv(state)
        else:
            state.tau_adv.restart()

    def _cancel_tau_adv(self, state: _ItemState) -> None:
        if state.tau_adv is not None:
            state.tau_adv.cancel()

    def _start_tau_dat(self, state: _ItemState) -> None:
        state.phase = _Phase.WAIT_DATA
        if state.tau_dat is None:
            state.tau_dat = Timer(
                self.sim,
                self.tout_dat_ms,
                lambda name=state.descriptor.name: self._on_tau_dat_expired(name),
                name=f"spms.tau_dat.{self.node_id}.{state.descriptor.name}",
            )
        state.tau_dat.restart()

    def _cancel_timers(self, state: _ItemState) -> None:
        self._cancel_tau_adv(state)
        if state.tau_dat is not None:
            state.tau_dat.cancel()

    def _on_tau_adv_expired(self, descriptor_name: str) -> None:
        state = self._states.get(descriptor_name)
        if state is None or state.phase is not _Phase.WAIT_ADV:
            return
        if self.cache.has(state.descriptor):
            state.phase = _Phase.DONE
            return
        if state.prone is None:
            state.phase = _Phase.IDLE
            return
        # No relay advertised in time: request from the PRONE over the
        # shortest (multi-hop) route.
        self._send_request(state, target=state.prone, routed=True)

    def _on_tau_dat_expired(self, descriptor_name: str) -> None:
        state = self._states.get(descriptor_name)
        if state is None or state.phase is not _Phase.WAIT_DATA:
            return
        if self.cache.has(state.descriptor):
            state.phase = _Phase.DONE
            return
        if state.attempts >= self.max_attempts:
            # Give up for now; a future advertisement reopens negotiation.
            state.phase = _Phase.IDLE
            state.last_attempt = None
            return
        self.escalations += 1
        target, routed = self._next_escalation(state)
        if target is None:
            state.phase = _Phase.IDLE
            return
        self._send_request(state, target=target, routed=routed)

    def _next_escalation(self, state: _ItemState) -> Tuple[Optional[int], bool]:
        """Pick the next request target after a ``tau_DAT`` expiry.

        Mirrors Section 3.4/3.5:

        * a *routed* request that timed out is retried as a *direct* request
          to the same originator (higher transmission power, guaranteed to
          reach a live zone neighbour);
        * a *direct* request that timed out falls back to the SCONE (direct),
          and after that to any other advertiser we have heard from.
        """
        if state.last_attempt is None:
            return state.prone, False
        mode, target = state.last_attempt
        if mode == "routed":
            return target, False
        if state.scone is not None and state.scone != target:
            return state.scone, False
        for advertiser in sorted(state.advertisers, key=lambda a: state.advertisers[a]):
            if advertiser != target:
                return advertiser, False
        return state.prone, False

    # --------------------------------------------------------------- requests

    def _send_request(self, state: _ItemState, target: int, routed: bool) -> None:
        """Send a REQ towards *target*; routed requests go hop by hop."""
        state.attempts += 1
        self.requests_sent += 1
        if routed:
            next_hop = self.routing.next_hop(self.node_id, target)
            if next_hop is None:
                next_hop = target
            multi_hop = next_hop != target
            req = self.make_req(
                state.descriptor, next_hop=next_hop, final_target=target, multi_hop=multi_hop
            )
            sent = self.network.unicast(self.node_id, next_hop, req)
            state.last_attempt = ("routed" if multi_hop else "direct", target)
        else:
            req = self.make_req(
                state.descriptor, next_hop=target, final_target=target, multi_hop=False
            )
            sent = self.network.unicast(self.node_id, target, req)
            state.last_attempt = ("direct", target)
        if not sent:
            self.metrics.record_drop("spms_req_unsendable")
        self._cancel_tau_adv(state)
        self._start_tau_dat(state)

    # ------------------------------------------------------------------- REQ

    def _on_req(self, packet: Packet) -> None:
        if packet.final_target == self.node_id:
            cached = self.cache.get(packet.descriptor)
            if cached is None:
                # We were asked for data we do not hold (e.g. the requester
                # guessed wrong after failures); nothing useful to send.
                self.metrics.record_drop("spms_req_without_data")
                return
            self._send_data(cached, requester=packet.origin, multi_hop=packet.multi_hop,
                            previous_hop=packet.sender)
            return
        # Relay: forward the REQ along the shortest path to its final target.
        if packet.hop_count >= MAX_FORWARD_HOPS:
            self.metrics.record_drop("spms_req_ttl_exceeded")
            return
        next_hop = self.routing.next_hop(
            self.node_id, packet.final_target, exclude={packet.sender}
        )
        if next_hop is None:
            next_hop = self.routing.next_hop(self.node_id, packet.final_target)
        if next_hop is None:
            self.metrics.record_drop("spms_req_no_route")
            return
        self.relayed_packets += 1
        forward = packet.next_hop_copy(sender=self.node_id, receiver=next_hop)
        self.network.unicast(self.node_id, next_hop, forward)

    def _send_data(
        self, item: DataItem, requester: int, multi_hop: bool, previous_hop: int
    ) -> None:
        """Answer a REQ: the DATA travels the same way the REQ arrived."""
        if requester == self.node_id:
            return
        if multi_hop:
            next_hop = self.routing.next_hop(self.node_id, requester)
            if next_hop is None:
                next_hop = previous_hop if previous_hop != self.node_id else requester
            data = self.make_data(
                item, next_hop=next_hop, final_target=requester, multi_hop=True
            )
            self.network.unicast(self.node_id, next_hop, data)
        else:
            data = self.make_data(
                item, next_hop=requester, final_target=requester, multi_hop=False
            )
            self.network.unicast(self.node_id, requester, data)

    # ------------------------------------------------------------------ DATA

    def _on_data(self, packet: Packet) -> None:
        assert packet.item is not None
        if packet.final_target == self.node_id:
            state = self._state_for(packet.descriptor)
            self._cancel_timers(state)
            state.phase = _Phase.DONE
            if self.store_item(packet.item) and self.readvertise_received:
                self._advertise(packet.descriptor)
            return
        # Relay on the way to the real destination.
        if packet.hop_count >= MAX_FORWARD_HOPS:
            self.metrics.record_drop("spms_data_ttl_exceeded")
            return
        next_hop = self.routing.next_hop(
            self.node_id, packet.final_target, exclude={packet.sender}
        )
        if next_hop is None:
            next_hop = self.routing.next_hop(self.node_id, packet.final_target)
        if next_hop is None:
            self.metrics.record_drop("spms_data_no_route")
            return
        self.relayed_packets += 1
        forward = packet.next_hop_copy(sender=self.node_id, receiver=next_hop)
        self.network.unicast(self.node_id, next_hop, forward)

    # --------------------------------------------------------------- failures

    def on_recovered(self) -> None:
        """After a transient failure, stale WAIT states are re-opened so that
        later advertisements can restart negotiation."""
        for state in self._states.values():
            if state.phase in (_Phase.WAIT_ADV, _Phase.WAIT_DATA) and not (
                state.tau_adv is not None and state.tau_adv.running
                or state.tau_dat is not None and state.tau_dat.running
            ):
                state.phase = _Phase.IDLE

    # -------------------------------------------------------------- inspection

    def item_phase(self, descriptor: DataDescriptor) -> str:
        """Current negotiation phase for *descriptor* (for tests/debugging)."""
        state = self._states.get(descriptor.name)
        return state.phase.value if state is not None else _Phase.IDLE.value

    def originators(self, descriptor: DataDescriptor) -> Tuple[Optional[int], Optional[int]]:
        """Current (PRONE, SCONE) for *descriptor*."""
        state = self._states.get(descriptor.name)
        if state is None:
            return (None, None)
        return (state.prone, state.scone)
