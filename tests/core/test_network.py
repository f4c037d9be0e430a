"""Tests for the network glue layer (delivery, energy charging, failures)."""

import dataclasses

import pytest

from repro.core.metadata import DataDescriptor, DataItem
from repro.core.interests import AllInterested
from repro.core.node_base import ProtocolNode
from repro.core.packets import BROADCAST, Packet, PacketType
from repro.topology.node import Position

from tests.helpers import RecordingChannel, build_network, chain_positions


class RecorderNode(ProtocolNode):
    """Protocol node that just records what it receives."""

    def __init__(self, node_id, network, interest_model):
        super().__init__(node_id, network, interest_model)
        self.received = []

    def originate(self, item):  # pragma: no cover - not used
        self.cache.add(item)

    def on_packet(self, packet):
        self.received.append(packet)


def build_recorder_harness(positions, radius=20.0):
    harness = build_network(positions, protocol="spms", radius_m=radius)
    # Replace the protocol nodes with passive recorders.
    harness.network._nodes.clear()
    nodes = {}
    for node_id in harness.field.node_ids:
        node = RecorderNode(node_id, harness.network, AllInterested())
        harness.network.register_node(node)
        nodes[node_id] = node
    harness.nodes = nodes
    return harness


def adv_packet(sender: int) -> Packet:
    return Packet(
        packet_type=PacketType.ADV,
        descriptor=DataDescriptor("x"),
        sender=sender,
        receiver=BROADCAST,
        origin=sender,
        final_target=BROADCAST,
        size_bytes=2,
    )


def data_packet(sender: int, receiver: int) -> Packet:
    item = DataItem(descriptor=DataDescriptor("x"), source=sender)
    return Packet(
        packet_type=PacketType.DATA,
        descriptor=item.descriptor,
        sender=sender,
        receiver=receiver,
        origin=sender,
        final_target=receiver,
        size_bytes=40,
        item=item,
    )


class TestBroadcast:
    def test_broadcast_reaches_every_zone_neighbor(self):
        harness = build_recorder_harness(chain_positions(4, spacing=5.0), radius=10.0)
        harness.network.broadcast(0, adv_packet(0))
        harness.run()
        # Nodes 1 (5 m) and 2 (10 m) are in node 0's zone; node 3 (15 m) is not.
        assert len(harness.nodes[1].received) == 1
        assert len(harness.nodes[2].received) == 1
        assert len(harness.nodes[3].received) == 0

    def test_broadcast_charges_tx_and_rx_energy(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0), radius=10.0)
        harness.network.broadcast(0, adv_packet(0))
        harness.run()
        ledger = harness.metrics.energy
        assert ledger.node_category_total(0, "tx") > 0.0
        assert ledger.node_category_total(1, "rx") > 0.0
        assert ledger.node_category_total(2, "rx") > 0.0

    def test_broadcast_from_failed_node_is_dropped(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0))
        harness.network.fail_node(0)
        assert harness.network.broadcast(0, adv_packet(0)) is False
        harness.run()
        assert harness.nodes[1].received == []
        assert harness.metrics.packets_dropped["sender_failed"] == 1

    def test_hop_count_incremented_on_delivery(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.broadcast(0, adv_packet(0))
        harness.run()
        assert harness.nodes[1].received[0].hop_count == 1


class TestAdvFanOut:
    """The ADV fan-out charges every live receiver and skips holders' handlers."""

    def test_holder_is_charged_and_counted_but_not_called(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0), radius=10.0)
        harness.nodes[1].cache.add(DataItem(descriptor=DataDescriptor("x"), source=0))
        harness.network.broadcast(0, adv_packet(0))
        harness.run()
        assert harness.nodes[1].received == []
        assert len(harness.nodes[2].received) == 1
        rx_cost = harness.network.energy_model.rx_cost(2)
        ledger = harness.metrics.energy
        assert ledger.node_category_total(1, "rx") == rx_cost > 0.0
        assert ledger.node_category_total(2, "rx") == rx_cost
        assert ledger.category_total("rx") == rx_cost + rx_cost
        assert harness.metrics.packets_received["ADV"] == 2

    def test_holder_of_another_name_is_still_called(self):
        # The skip is by exact name: holding "y" says nothing about "x".
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.nodes[1].cache.add(DataItem(descriptor=DataDescriptor("y"), source=0))
        harness.network.broadcast(0, adv_packet(0))
        harness.run()
        assert len(harness.nodes[1].received) == 1

    def test_batch_with_every_receiver_failed_touches_no_account(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0), radius=10.0)
        harness.network.broadcast(0, adv_packet(0))
        harness.network.fail_node(1)
        harness.network.fail_node(2)
        harness.run()
        assert harness.nodes[1].received == harness.nodes[2].received == []
        assert harness.metrics.packets_dropped["receiver_failed"] == 2
        assert "ADV" not in harness.metrics.packets_received
        assert "rx" not in harness.metrics.energy.per_category


class TestUnicast:
    def test_unicast_delivers_only_to_target(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0))
        harness.network.unicast(0, 1, data_packet(0, 1))
        harness.run()
        assert len(harness.nodes[1].received) == 1
        assert harness.nodes[2].received == []

    def test_unicast_uses_lowest_sufficient_power(self):
        harness = build_recorder_harness(chain_positions(3, spacing=5.0), radius=20.0)
        near = data_packet(0, 1)
        far = data_packet(0, 2)
        harness.network.unicast(0, 1, near)
        energy_after_near = harness.metrics.energy.node_category_total(0, "tx")
        harness.network.unicast(0, 2, far)
        energy_after_far = harness.metrics.energy.node_category_total(0, "tx")
        assert (energy_after_far - energy_after_near) > energy_after_near

    def test_force_max_power_costs_more(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0), radius=20.0)
        harness.network.unicast(0, 1, data_packet(0, 1))
        low = harness.metrics.energy.node_category_total(0, "tx")
        harness.network.unicast(0, 1, data_packet(0, 1), force_max_power=True)
        high = harness.metrics.energy.node_category_total(0, "tx") - low
        assert high > low

    def test_out_of_range_unicast_fails(self):
        harness = build_recorder_harness(chain_positions(3, spacing=15.0), radius=20.0)
        assert harness.network.unicast(0, 2, data_packet(0, 2)) is False
        assert harness.metrics.packets_dropped["out_of_range"] == 1

    def test_delivery_to_failed_receiver_dropped(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.unicast(0, 1, data_packet(0, 1))
        harness.network.fail_node(1)
        harness.run()
        assert harness.nodes[1].received == []
        assert harness.metrics.packets_dropped["receiver_failed"] == 1
        assert "DATA" not in harness.metrics.packets_received
        assert "rx" not in harness.metrics.energy.per_category

    def test_one_calendar_push_per_unicast_hop(self):
        # Counted on the calendar itself: a delivery is a bare heap entry
        # (Simulator.post), which EventQueue.push never sees.
        harness = build_recorder_harness(chain_positions(3, spacing=5.0))
        for receiver in (1, 2, 1):
            harness.network.unicast(0, receiver, data_packet(0, receiver))
        assert len(harness.sim._heap) == 3
        harness.run()
        assert harness.sim._heap == []
        assert harness.sim.events_processed == 3
        assert [len(harness.nodes[n].received) for n in (1, 2)] == [2, 1]

    def test_unregistered_receiver_counts_unknown_receiver(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.unicast(0, 1, data_packet(0, 1))
        del harness.network._nodes[1]
        harness.run()
        assert harness.nodes[1].received == []
        assert harness.metrics.packets_dropped["unknown_receiver"] == 1
        assert "rx" not in harness.metrics.energy.per_category

    def test_handler_gets_a_copy_one_hop_further(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        sent = data_packet(0, 1)
        before = dataclasses.astuple(sent)
        harness.network.unicast(0, 1, sent)
        harness.run()
        (received,) = harness.nodes[1].received
        assert received is not sent
        assert received.hop_count == sent.hop_count + 1
        assert (received.sender, received.receiver) == (0, 1)
        assert dataclasses.astuple(sent) == before

    def test_recovered_receiver_gets_later_packets(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.fail_node(1)
        harness.network.recover_node(1)
        harness.network.unicast(0, 1, data_packet(0, 1))
        harness.run()
        assert len(harness.nodes[1].received) == 1

    def test_packet_counters(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.unicast(0, 1, data_packet(0, 1))
        harness.run()
        assert harness.metrics.packets_sent["DATA"] == 1
        assert harness.metrics.packets_received["DATA"] == 1


class TestLinkTable:
    def test_a_moved_node_changes_the_next_transmission(self):
        # Levels of the 20 m table reach 20, 10, 5, 2.5 and 1.25 m.
        harness = build_recorder_harness(chain_positions(3, spacing=5.0), radius=20.0)
        network = harness.network
        network.channel = channel = RecordingChannel()
        ledger = harness.metrics.energy
        tx_uj = []

        def send():
            before = ledger.node_category_total(0, "tx")
            network.unicast(0, 1, data_packet(0, 1))
            tx_uj.append(ledger.node_category_total(0, "tx") - before)

        send()
        send()  # a link-table hit
        harness.field.move_node(2, Position(4.0, 0.0))
        send()  # the same link, now with node 2 inside the 5 m level
        harness.field.move_node(1, Position(15.0, 0.0))
        send()
        # Node 1, 5 m away, is reached by the 5 m level, which first reserves
        # only it and the sender, then node 2 too once node 2 is 4 m away;
        # 15 m away, node 1 takes the 20 m level.  Contention is
        # G * contenders**2 with no backoff, at time 0.
        assert channel.reserved == [(1, 0), (1, 0), (1, 2, 0), (1, 2, 0)]
        assert channel.ready_times == [0.01 * 2**2] * 2 + [0.01 * 3**2] * 2
        cost = {
            level.range_m: network.energy_model.tx_cost(40, level).energy_uj
            for level in network.power_table
        }
        assert tx_uj == pytest.approx([cost[5.0]] * 3 + [cost[20.0]], rel=1e-12)


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        with pytest.raises(ValueError):
            harness.network.register_node(RecorderNode(0, harness.network, AllInterested()))

    def test_unknown_node_id_rejected(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        with pytest.raises(KeyError):
            harness.network.register_node(RecorderNode(99, harness.network, AllInterested()))

    def test_failed_nodes_tracking(self):
        harness = build_recorder_harness(chain_positions(2, spacing=5.0))
        harness.network.fail_node(1)
        assert harness.network.is_failed(1)
        assert harness.network.failed_nodes == {1}
        harness.network.recover_node(1)
        assert not harness.network.is_failed(1)
