"""The network: glue between simulator, field, radio, MAC, failures and nodes.

The :class:`Network` performs every transmission on behalf of the protocol
nodes.  It

* selects the transmission power level (lowest level reaching the receiver,
  or the maximum level when the protocol asks for it — SPIN always does),
* computes the per-hop latency with the MAC delay model (contention driven by
  the number of nodes inside the *used* transmission radius) and, when the
  channel-reservation model is enabled, defers the transmission until the
  sender's medium is free and blocks every node inside the used radius for
  the packet's airtime — this spatial-reuse asymmetry is the mechanism behind
  SPMS's delay advantage over SPIN,
* charges transmit energy to the sender and receive energy to each receiver,
* respects transient failures: failed nodes neither transmit nor receive,
* schedules the actual delivery (``ProtocolNode.on_packet``) on the simulator.

Everything a transmission needs except its backoff draw depends only on
``(sender, power level, packet size)`` and the node positions, so it comes
from one link-table lookup (:meth:`Network._link`); the table is cleared
whenever a node moves.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Callable, Collection, Dict, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.packets import BROADCAST, Packet, PacketType
from repro.mac.channel import ChannelReservation
from repro.mac.delay import MacDelayModel
from repro.metrics.collector import MetricsCollector
from repro.radio.energy import EnergyModel, checked_energy
from repro.radio.power import PowerLevel, PowerTable
from repro.sim.engine import Simulator
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap


class _Link(NamedTuple):
    """Everything one kind of transmission needs except its backoff draw.

    A link-table entry, per (sender, power level, packet size).
    ``reserved`` is the nodes inside the used radius, then the sender: they
    set the contention and, with a channel model, have their medium
    reserved for the airtime.  ``window`` is the MAC's backoff window and
    ``bits`` its bit length, 0 when the window draws nothing.
    ``energy_uj`` is the transmit energy, validated once, and ``tx_key``
    the sender's ``(node, "tx")`` ledger key.
    """

    reserved: Tuple[int, ...]
    contention_ms: float
    window: int
    bits: int
    slot_ms: float
    airtime_ms: float
    processing_ms: float
    energy_uj: float
    tx_key: Tuple[int, str]


class Network:
    """Delivers packets between protocol nodes over the simulated radio.

    Args:
        sim: The discrete-event simulator.
        field: Node positions.
        power_table: Discrete transmission power levels (its maximum range is
            the zone radius).
        zone_map: Zone membership used for broadcast delivery.
        energy_model: Converts transmissions into energy charges.
        mac_delay: Per-hop latency model.
        metrics: Shared metrics collector (energy ledger lives inside it).
        channel: Optional shared-medium reservation model; ``None`` disables
            transmission serialisation (useful for the analytical-style runs
            and for unit tests that want deterministic timing).
        trace: When true, every transmission is appended to ``sim.trace_log``.
    """

    #: Protocol-layer fast-path switches.  Class-level so the differential
    #: harness (tests/protocols) can flip them for a whole oracle run; both
    #: paths must produce byte-identical metrics and RNG stream positions.
    ADV_FAST_PATH = True
    LINK_TABLE = True

    #: Cache sentinel distinguishing "never computed" from "out of range".
    _LEVEL_MISSING = object()

    def __init__(
        self,
        sim: Simulator,
        field: SensorField,
        power_table: PowerTable,
        zone_map: ZoneMap,
        energy_model: EnergyModel,
        mac_delay: MacDelayModel,
        metrics: MetricsCollector,
        channel: Optional[ChannelReservation] = None,
        trace: bool = False,
    ) -> None:
        self.sim = sim
        self.field = field
        self.power_table = power_table
        self.zone_map = zone_map
        self.energy_model = energy_model
        self.mac_delay = mac_delay
        self.metrics = metrics
        self.channel = channel
        self.trace = trace
        self._nodes: Dict[int, "ProtocolNode"] = {}
        # Per node, the live names its cache holds; the ADV fan-out skips a
        # holder's handler.
        self._held_names: Dict[int, Collection[str]] = {}
        self._failed: Set[int] = set()
        # Caches derived from node positions, all cleared when the field's
        # topology version moves (_sync_topology): per broadcast sender its
        # registered zone neighbours (also cleared when registration
        # changes), per (sender, receiver) the unicast power level (``None``:
        # out of range), and per (sender, level index, packet size) the link
        # table's entry (_link).
        self._topology_version = -1
        self._receiver_cache: Dict[int, Tuple[int, ...]] = {}
        self._unicast_levels: Dict[Tuple[int, int], Optional[PowerLevel]] = {}
        self._links: Dict[Tuple[int, int, int], _Link] = {}
        # Receive energy per packet size (_rx_cost); the backoff stream's
        # getrandbits, resolved by the first link that draws (reset()
        # re-seeds the stream in place); the ledger's accumulators.
        self._rx_costs: Dict[int, float] = {}
        self._getrandbits: Optional[Callable[[int], int]] = None
        self._accounts = metrics.energy.hot_path_accounts()
        # The delivery event name is interned once per packet type instead
        # of rebuilt per transmission.
        self._deliver_names = {t.label: f"deliver.{t.label}" for t in PacketType}

    # ------------------------------------------------------------ registration

    def register_node(self, node: "ProtocolNode") -> None:
        """Attach a protocol node; its ``node_id`` must exist in the field."""
        if node.node_id not in self.field:
            raise KeyError(f"node {node.node_id} is not part of the sensor field")
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} registered twice")
        self._nodes[node.node_id] = node
        self._held_names[node.node_id] = node.cache.held_names()
        self._receiver_cache.clear()

    def node(self, node_id: int) -> "ProtocolNode":
        """The protocol node with the given id."""
        return self._nodes[node_id]

    # ---------------------------------------------------------------- failures

    def fail_node(self, node_id: int) -> None:
        """Mark a node as transiently failed."""
        if node_id in self._failed:
            return
        self._failed.add(node_id)
        node = self._nodes.get(node_id)
        if node is not None:
            node.on_failed()

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back up."""
        if node_id not in self._failed:
            return
        self._failed.discard(node_id)
        node = self._nodes.get(node_id)
        if node is not None:
            node.on_recovered()

    def is_failed(self, node_id: int) -> bool:
        """Whether *node_id* is currently down."""
        return node_id in self._failed

    @property
    def failed_nodes(self) -> Set[int]:
        """Snapshot of currently failed nodes."""
        return set(self._failed)

    # ---------------------------------------------------------- position caches

    def _sync_topology(self) -> None:
        """Clear every position-derived cache; a node has moved."""
        self._receiver_cache.clear()
        self._unicast_levels.clear()
        self._links.clear()
        self._topology_version = self.field.topology_version

    def _broadcast_receivers(self, sender: int) -> Tuple[int, ...]:
        """Registered zone neighbours of *sender*, cached per sender.

        The tuple preserves the zone map's iteration order, so cached and
        freshly-computed broadcasts deliver in the identical receiver
        sequence (metrics stay byte-identical).
        """
        receivers = self._receiver_cache.get(sender)
        if receivers is None:
            nodes = self._nodes
            receivers = tuple(
                other
                for other in self.zone_map.zone_neighbors(sender)
                if other in nodes
            )
            self._receiver_cache[sender] = receivers
        return receivers

    def _trace(self, label: str, detail=None) -> None:
        if self.trace:
            self.sim.trace_log.record(self.sim.now, "packet", label, detail)

    def _link(self, sender: int, level: PowerLevel, size_bytes: int) -> _Link:
        """Make and store the link-table entry of *sender* at *level* and *size_bytes*."""
        reserved = (*self.field.neighbors_within(sender, level.range_m), sender)
        mac = self.mac_delay
        contenders = len(reserved)
        contention_ms, airtime_ms, processing_ms = mac.delay_parts(size_bytes, contenders)
        window = mac.backoff_window(contenders)
        bits = window.bit_length() if window > 1 else 0
        if bits and self._getrandbits is None:
            self._getrandbits = mac.rng.stream(mac.BACKOFF_STREAM).getrandbits
        energy_uj = checked_energy(self.energy_model.tx_cost(size_bytes, level).energy_uj)
        link = _Link(
            reserved,
            contention_ms,
            window,
            bits,
            mac.slot_time_ms,
            airtime_ms,
            processing_ms,
            energy_uj,
            (sender, "tx"),
        )
        self._links[(sender, level.index, size_bytes)] = link
        return link

    def _rx_cost(self, size_bytes: int) -> float:
        """Receive energy of one *size_bytes* packet, validated and memoised."""
        cost = self._rx_costs.get(size_bytes)
        if cost is None:
            cost = checked_energy(self.energy_model.rx_cost(size_bytes))
            self._rx_costs[size_bytes] = cost
        return cost

    # ------------------------------------------------------------ transmission

    def _transmit(
        self,
        sender: int,
        packet: Packet,
        level: PowerLevel,
        deliver: Optional[Callable[[Any, Packet], None]],
        target: Any,
    ) -> None:
        """Common path for broadcast and unicast transmissions.

        Charges and counts the transmission, then posts
        ``deliver(target, packet)`` for its arrival; a *deliver* of ``None``
        transmits to no receiver.  The caller has synced the position caches.

        With :attr:`LINK_TABLE` a transmission is one link-table lookup plus
        its backoff draw.  Without it (the differential oracle) the same
        values are recomputed per packet through the neighbour scan,
        :meth:`MacDelayModel.timing`, :meth:`EnergyModel.tx_cost` and
        :meth:`EnergyLedger.charge`; both make the same RNG draws and the
        same float operations in the same order.
        """
        size_bytes = packet.size_bytes
        type_label = packet.packet_type.label
        now = self.sim.now
        if self.LINK_TABLE:
            link = self._links.get((sender, level.index, size_bytes))
            if link is None:
                link = self._link(sender, level, size_bytes)
            (
                reserved,
                contention_ms,
                window,
                bits,
                slot_ms,
                airtime_ms,
                processing_ms,
                energy_uj,
                tx_key,
            ) = link
            backoff_ms = 0.0
            if bits:
                # The draw Random.randrange(window) makes (CPython's
                # _randbelow_with_getrandbits): k-bit draws until one falls
                # below the window.  tests/mac/test_delay.py holds the two
                # equal, stream state included, for every window.
                getrandbits = self._getrandbits
                slot = getrandbits(bits)
                while slot >= window:
                    slot = getrandbits(bits)
                backoff_ms = slot * slot_ms
            per_node, per_category, per_node_category = self._accounts
            per_node[sender] += energy_uj
            per_category["tx"] += energy_uj
            per_node_category[tx_key] += energy_uj
            self.metrics.packets_sent[type_label] += 1
        else:
            reserved = self.field.neighbors_within(sender, level.range_m) + [sender]
            timing = self.mac_delay.timing(size_bytes, len(reserved))
            contention_ms, backoff_ms = timing.contention_ms, timing.backoff_ms
            airtime_ms, processing_ms = timing.airtime_ms, timing.processing_ms
            cost = self.energy_model.tx_cost(size_bytes, level)
            self.metrics.energy.charge(sender, cost.energy_uj, "tx")
            self.metrics.record_send(type_label)
        ready_at = now + contention_ms + backoff_ms
        channel = self.channel
        if channel is not None:
            start = channel.earliest_start(sender, ready_at)
            channel.record_wait(start - ready_at)
            end = channel.reserve(reserved, start, airtime_ms)
        else:
            end = ready_at + airtime_ms
        if deliver is None:
            return
        # One delivery per transmission (not one per receiver): every
        # receiver of a broadcast hears the packet at the same instant, so a
        # single delivery in receiver order reproduces the exact
        # per-receiver event sequence at a fraction of the calendar traffic.
        # A unicast hop's delivery goes straight to its one receiver.  Nothing
        # cancels a delivery, so it is a bare calendar entry, not an Event.
        self.sim.post(
            (end + processing_ms) - now, deliver, target, packet, self._deliver_names[type_label]
        )

    def broadcast(self, sender: int, packet: Packet) -> bool:
        """Broadcast *packet* at maximum power to the sender's zone.

        Returns False (and drops the packet) when the sender is down.
        """
        if sender in self._failed:
            self.metrics.record_drop("sender_failed")
            return False
        if self._topology_version != self.field.topology_version:
            self._sync_topology()
        receivers = self._broadcast_receivers(sender)
        if self.trace:
            self._trace(f"broadcast {packet.label()}")
        if not receivers:
            deliver = None
        elif (
            self.ADV_FAST_PATH
            and packet.packet_type is PacketType.ADV
            and packet.receiver == BROADCAST
        ):
            # Zone-batched ADV fan-out: advertisements are read-only,
            # single-hop notifications, so the whole zone shares one packet
            # instance through the lean on_adv hook (no per-receiver clone,
            # no type dispatch) — see _deliver_adv_batch.
            deliver = self._deliver_adv_batch
        else:
            deliver = self._deliver_batch
        self._transmit(sender, packet, self.power_table.max_level, deliver, receivers)
        return True

    def unicast(
        self,
        sender: int,
        receiver: int,
        packet: Packet,
        force_max_power: bool = False,
    ) -> bool:
        """Send *packet* from *sender* to *receiver* at the lowest power level
        that covers the distance (or at maximum power when forced).

        Returns False when the transmission cannot happen (sender down or
        receiver out of range); the receiver being down is only discovered at
        delivery time, exactly as for a real radio.
        """
        if sender in self._failed:
            self.metrics.record_drop("sender_failed")
            return False
        if self._topology_version != self.field.topology_version:
            self._sync_topology()
        if self.LINK_TABLE:
            key = (sender, receiver)
            level = self._unicast_levels.get(key, self._LEVEL_MISSING)
            if level is self._LEVEL_MISSING:
                level = self._unicast_levels[key] = self._unicast_level(sender, receiver)
        else:
            level = self._unicast_level(sender, receiver)
        if level is None:
            self.metrics.record_drop("out_of_range")
            return False
        if force_max_power:
            level = self.power_table.max_level
        if self.trace:
            self._trace(f"unicast {packet.label()} @level{level.index}")
        self._transmit(sender, packet, level, self._deliver_one, receiver)
        return True

    def _unicast_level(self, sender: int, receiver: int) -> Optional[PowerLevel]:
        """The lowest level reaching *receiver*, or ``None`` out of range."""
        distance = self.field.distance(sender, receiver)
        if distance > self.power_table.max_range_m + 1e-9:
            return None
        return self.power_table.level_for_distance(distance)

    # ------------------------------------------------------------------ deliver

    def _deliver_one(self, receiver: int, packet: Packet) -> None:
        """Deliver one transmission to one receiver.

        A unicast hop's whole delivery event, and each step of
        :meth:`_deliver_batch`.  A failed or unregistered receiver only
        counts a drop.  Otherwise the receiver pays the receive energy, the
        reception is counted, and its node handles a clone of the packet one
        hop further on.
        """
        metrics = self.metrics
        if receiver in self._failed:
            metrics.record_drop("receiver_failed")
            return
        node = self._nodes.get(receiver)
        if node is None:
            metrics.record_drop("unknown_receiver")
            return
        if self.LINK_TABLE:
            rx_cost = self._rx_cost(packet.size_bytes)
            per_node, per_category, per_node_category = self._accounts
            per_node[receiver] += rx_cost
            per_category["rx"] += rx_cost
            per_node_category[(receiver, "rx")] += rx_cost
        else:
            metrics.energy.charge(receiver, self.energy_model.rx_cost(packet.size_bytes), "rx")
        metrics.packets_received[packet.packet_type.label] += 1
        node.on_packet(packet.received_copy(receiver))

    def _deliver_batch(self, receivers: Sequence[int], packet: Packet) -> None:
        """Deliver one broadcast to every receiver, in receiver order."""
        deliver_one = self._deliver_one
        for receiver in receivers:
            deliver_one(receiver, packet)

    def _deliver_adv_batch(self, receivers: Sequence[int], packet: Packet) -> None:
        """Deliver one ADV broadcast to the whole zone, in two phases.

        Advertisement handling is the single hottest protocol path: every
        node hears every ADV of its zone, and most receivers already hold
        the item.  Phase 1 drops failed receivers and charges receive
        energy and reception counts for the whole batch at once.  Phase 2
        calls :meth:`ProtocolNode.on_adv`, in receiver order, only on
        receivers whose cache does not hold the advertised name; a holder's
        handler would return at ``cache.has`` without a side effect.  All
        receivers share one read-only packet instance (no per-receiver
        clone, no type dispatch).  Counters and ledger floats come out
        bit-identical to one :meth:`EnergyLedger.charge` per receiver, as
        :meth:`_deliver_batch` makes; the argument is on
        :meth:`EnergyLedger.hot_path_accounts`.
        """
        metrics = self.metrics
        failed = self._failed
        if failed:
            live = [receiver for receiver in receivers if receiver not in failed]
            dropped = len(receivers) - len(live)
            if dropped:
                metrics.packets_dropped["receiver_failed"] += dropped
            if not live:
                # Touching the accounts below would create zero entries that
                # reach the canonical record.
                return
            receivers = live
        per_node, per_category, per_node_category = self._accounts
        rx_cost = self._rx_cost(packet.size_bytes)
        for receiver in receivers:
            per_node[receiver] += rx_cost
            per_node_category[(receiver, "rx")] += rx_cost
        # A left fold: the same float additions, in the same order, as one
        # charge per receiver (sum, fsum and np.sum round differently).
        count = len(receivers)
        per_category["rx"] = functools.reduce(
            operator.add, itertools.repeat(rx_cost, count), per_category["rx"]
        )
        metrics.packets_received[packet.packet_type.label] += count
        name = packet.descriptor.name
        nodes = self._nodes
        held_names = self._held_names
        for receiver in receivers:
            if name not in held_names[receiver]:
                nodes[receiver].on_adv(packet)
