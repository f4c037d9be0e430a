"""Tests for packet construction."""

import dataclasses

import pytest

from repro.core.metadata import DataDescriptor, DataItem
from repro.core.packets import BROADCAST, Packet, PacketType


def make_packet(**overrides):
    defaults = dict(
        packet_type=PacketType.REQ,
        descriptor=DataDescriptor("x"),
        sender=1,
        receiver=2,
        origin=1,
        final_target=3,
        size_bytes=2,
    )
    defaults.update(overrides)
    return Packet(**defaults)


class TestPacket:
    def test_broadcast_detection(self):
        assert make_packet(receiver=BROADCAST).is_broadcast
        assert not make_packet(receiver=5).is_broadcast

    def test_data_packet_requires_item(self):
        with pytest.raises(ValueError):
            make_packet(packet_type=PacketType.DATA, size_bytes=40)

    def test_data_packet_with_item(self):
        item = DataItem(descriptor=DataDescriptor("x"), source=1)
        packet = make_packet(packet_type=PacketType.DATA, size_bytes=40, item=item)
        assert packet.item is item

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            make_packet(size_bytes=0)

    def test_packet_ids_are_unique(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_next_hop_copy_readdresses_only_the_hop(self):
        original = make_packet(hop_count=2, multi_hop=False)
        forwarded = original.next_hop_copy(sender=2, receiver=7)
        assert forwarded.sender == 2
        assert forwarded.receiver == 7
        assert forwarded.origin == original.origin
        assert forwarded.final_target == original.final_target
        assert forwarded.hop_count == original.hop_count
        assert forwarded.multi_hop is True
        assert forwarded.packet_id != original.packet_id

    @pytest.mark.parametrize(
        "make_copy, changes",
        [
            (lambda p: p.received_copy(9), dict(receiver=9, hop_count=3)),
            (
                lambda p: p.next_hop_copy(sender=2, receiver=7),
                dict(sender=2, receiver=7, multi_hop=True),
            ),
            (lambda p: p.next_hop_copy(2, 7, multi_hop=False), dict(sender=2, receiver=7)),
        ],
        ids=["received_copy", "next_hop_copy", "next_hop_copy-single-hop"],
    )
    def test_fast_copy_sets_every_field_as_construction_would(self, make_copy, changes):
        # The copies assign slots one by one instead of running __init__, so
        # a field they forget stays unset and getattr raises here.
        item = DataItem(descriptor=DataDescriptor("x"), source=1)
        original = make_packet(
            packet_type=PacketType.DATA, size_bytes=40, item=item,
            hop_count=2, multi_hop=False, created_at_ms=12.5,
        )
        copy = make_copy(original)
        built = dataclasses.replace(original, **changes)
        for field in dataclasses.fields(Packet):
            if field.name != "packet_id":
                assert getattr(copy, field.name) == getattr(built, field.name), field.name
        assert isinstance(copy.packet_id, int)
        assert copy.packet_id != original.packet_id
        assert copy == dataclasses.replace(built, packet_id=copy.packet_id)

    def test_label_mentions_type_and_endpoints(self):
        label = make_packet().label()
        assert "REQ" in label and "1->2" in label
        assert "broadcast" in make_packet(receiver=BROADCAST).label()
