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
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.packets import BROADCAST, Packet, PacketType
from repro.mac.channel import ChannelReservation
from repro.mac.delay import MacDelayModel
from repro.metrics.collector import MetricsCollector
from repro.radio.energy import EnergyModel
from repro.radio.power import PowerLevel, PowerTable
from repro.sim.engine import Simulator
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap


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
    UNICAST_LEVEL_CACHE = True

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
        # Per node, the live names its cache holds (empty when the cache
        # cannot vouch for them); the ADV fan-out skips a holder's handler.
        self._held_names: Dict[int, Collection[str]] = {}
        self._failed: Set[int] = set()
        self._range_cache: Dict[Tuple[int, float], List[int]] = {}
        self._range_cache_version = -1
        # Registered receivers per broadcast sender; recomputing the zone
        # membership filter on every broadcast dominates `broadcast` once the
        # zones are big.  Invalidated when any node moves (topology version)
        # or when registration changes.
        self._receiver_cache: Dict[int, Tuple[int, ...]] = {}
        self._receiver_cache_version = -1
        # Unicast power-level choice per (sender, receiver): a pure function
        # of the two positions and the power table, recomputed per packet
        # before PR 5 (distance + level scan on every REQ/DATA hop).  ``None``
        # marks an out-of-range pair.  Invalidated when any node moves.
        self._unicast_levels: Dict[Tuple[int, int], Optional[PowerLevel]] = {}
        self._unicast_levels_version = -1
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
        held = node.cache.held_names()
        self._held_names[node.node_id] = () if held is None else held
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

    # ------------------------------------------------------------ geometry cache

    def _neighbors_within(self, sender: int, range_m: float) -> List[int]:
        """Cached neighbour lookup (invalidated when any node moves)."""
        if self._range_cache_version != self.field.topology_version:
            self._range_cache.clear()
            self._range_cache_version = self.field.topology_version
        key = (sender, range_m)
        neighbors = self._range_cache.get(key)
        if neighbors is None:
            neighbors = self.field.neighbors_within(sender, range_m)
            self._range_cache[key] = neighbors
        return neighbors

    def _broadcast_receivers(self, sender: int) -> Tuple[int, ...]:
        """Registered zone neighbours of *sender*, cached per sender.

        The tuple preserves the zone map's iteration order, so cached and
        freshly-computed broadcasts deliver in the identical receiver
        sequence (metrics stay byte-identical).
        """
        if self._receiver_cache_version != self.field.topology_version:
            self._receiver_cache.clear()
            self._receiver_cache_version = self.field.topology_version
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

        Charges and counts the transmission, then schedules
        ``deliver(target, packet)`` for its arrival; a *deliver* of ``None``
        transmits to no receiver.
        """
        size_bytes = packet.size_bytes
        mac = self.mac_delay
        # Nodes inside the used radius: they set the contention and, with a
        # channel model, have their medium reserved for the airtime.
        neighbors = self._neighbors_within(sender, level.range_m)
        contenders = len(neighbors) + 1
        # The memoised deterministic parts plus exactly one backoff draw —
        # the same RNG call sequence as MacDelayModel.timing, without
        # constructing a TransmissionTiming per transmission.
        contention_ms, airtime_ms, processing_ms = mac.delay_parts(size_bytes, contenders)
        now = self.sim.now
        ready_at = now + contention_ms + mac.backoff_ms(contenders)
        if self.channel is not None:
            start = self.channel.earliest_start(sender, ready_at)
            self.channel.record_wait(start - ready_at)
            end = self.channel.reserve(neighbors + [sender], start, airtime_ms)
        else:
            end = ready_at + airtime_ms
        cost = self.energy_model.tx_cost(size_bytes, level)
        self.metrics.energy.charge(sender, cost.energy_uj, "tx")
        type_label = packet.packet_type.label
        self.metrics.record_send(type_label)
        if deliver is None:
            return
        # One delivery event per transmission (not one per receiver): every
        # receiver of a broadcast hears the packet at the same instant, so a
        # single event delivering in receiver order reproduces the exact
        # per-receiver event sequence at a fraction of the calendar traffic.
        # A unicast hop's event delivers straight to its one receiver.
        self.sim.schedule(
            (end + processing_ms) - now,
            functools.partial(deliver, target, packet),
            name=self._deliver_names[type_label],
        )

    def broadcast(self, sender: int, packet: Packet) -> bool:
        """Broadcast *packet* at maximum power to the sender's zone.

        Returns False (and drops the packet) when the sender is down.
        """
        if self.is_failed(sender):
            self.metrics.record_drop("sender_failed")
            return False
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
        if self.is_failed(sender):
            self.metrics.record_drop("sender_failed")
            return False
        if self.UNICAST_LEVEL_CACHE:
            if self._unicast_levels_version != self.field.topology_version:
                self._unicast_levels.clear()
                self._unicast_levels_version = self.field.topology_version
            key = (sender, receiver)
            level = self._unicast_levels.get(key, self._LEVEL_MISSING)
            if level is self._LEVEL_MISSING:
                distance = self.field.distance(sender, receiver)
                if distance > self.power_table.max_range_m + 1e-9:
                    level = None
                else:
                    level = self.power_table.level_for_distance(distance)
                self._unicast_levels[key] = level
            if level is None:
                self.metrics.record_drop("out_of_range")
                return False
            if force_max_power:
                level = self.power_table.max_level
        else:
            distance = self.field.distance(sender, receiver)
            if distance > self.power_table.max_range_m + 1e-9:
                self.metrics.record_drop("out_of_range")
                return False
            if force_max_power:
                level = self.power_table.max_level
            else:
                level = self.power_table.level_for_distance(distance)
        if self.trace:
            self._trace(f"unicast {packet.label()} @level{level.index}")
        self._transmit(sender, packet, level, self._deliver_one, receiver)
        return True

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
        per_node, per_category, per_node_category = metrics.energy.hot_path_accounts()
        rx_cost = self.energy_model.rx_cost(packet.size_bytes)
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
