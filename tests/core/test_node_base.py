"""Tests for the shared protocol-node machinery."""

import pytest

from repro.core.metadata import DataDescriptor, DataItem
from repro.core.packets import BROADCAST, PacketType

from tests.helpers import build_network, chain_positions


@pytest.fixture
def harness():
    return build_network(chain_positions(3, spacing=5.0), protocol="spms", radius_m=15.0)


class TestWantsAndStore:
    def test_wants_requires_interest_and_absence(self, harness):
        node = harness.nodes[1]
        descriptor = DataDescriptor("x")
        harness.set_interest("x", [1])
        assert node.wants(descriptor, source=0)
        node.cache.add(DataItem(descriptor=descriptor, source=0))
        assert not node.wants(descriptor, source=0)

    def test_wants_false_when_not_interested(self, harness):
        node = harness.nodes[1]
        harness.set_interest("x", [2])
        assert not node.wants(DataDescriptor("x"), source=0)

    def test_store_item_records_delivery_only_for_interested(self, harness):
        harness.set_interest("x", [1])
        harness.metrics.record_item_generated("x", 0.0, [1])
        item = DataItem(descriptor=DataDescriptor("x"), source=0)
        assert harness.nodes[1].store_item(item) is True
        assert harness.metrics.delay.deliveries_completed == 1
        # Node 2 is not interested: storing does not count as a delivery.
        assert harness.nodes[2].store_item(item) is True
        assert harness.metrics.delay.deliveries_completed == 1

    def test_store_item_is_idempotent(self, harness):
        harness.set_interest("x", [1])
        harness.metrics.record_item_generated("x", 0.0, [1])
        item = DataItem(descriptor=DataDescriptor("x"), source=0)
        assert harness.nodes[1].store_item(item) is True
        assert harness.nodes[1].store_item(item) is False
        assert harness.nodes[1].items_received == 1


class TestPacketBuilders:
    def test_make_adv_is_broadcast_with_table1_size(self, harness):
        adv = harness.nodes[0].make_adv(DataDescriptor("x"))
        assert adv.packet_type is PacketType.ADV
        assert adv.receiver == BROADCAST
        assert adv.size_bytes == 2
        assert adv.origin == 0

    def test_make_req_addresses_final_target(self, harness):
        req = harness.nodes[2].make_req(DataDescriptor("x"), next_hop=1, final_target=0,
                                        multi_hop=True)
        assert req.packet_type is PacketType.REQ
        assert req.receiver == 1
        assert req.final_target == 0
        assert req.multi_hop is True
        assert req.origin == 2

    def test_make_data_carries_item_and_size(self, harness):
        item = DataItem(descriptor=DataDescriptor("x"), source=0, size_bytes=40)
        data = harness.nodes[0].make_data(item, next_hop=1, final_target=2)
        assert data.packet_type is PacketType.DATA
        assert data.item is item
        assert data.size_bytes == 40
        assert data.final_target == 2


class TestConstructorChecks:
    """Timeouts, packet sizes and retry limits are range-checked when a node
    is built, so a bad protocol option fails the build instead of the run.
    A value of another type never reaches a node: the builder's option check
    refuses it (``tests/build/test_builder.py::TestOptionCheck``)."""

    @pytest.mark.parametrize("value", [0, -2], ids=["zero", "negative"])
    @pytest.mark.parametrize("option", ["adv_size_bytes", "req_size_bytes"])
    def test_a_packet_size_must_be_a_positive_integer(self, option, value):
        with pytest.raises(ValueError, match=f"SpmsNode {option} must be a positive integer"):
            build_network(chain_positions(2), protocol="spms", spms_options={option: value})

    def test_spin_checks_packet_sizes_too(self):
        with pytest.raises(ValueError, match="SpinNode req_size_bytes must be a positive"):
            build_network(chain_positions(2), protocol="spin", spin_options={"req_size_bytes": 0})

    @pytest.mark.parametrize("value", [-5, -0.5], ids=["negative-int", "negative-float"])
    @pytest.mark.parametrize(
        "protocol, option",
        [("spms", "tout_adv_ms"), ("spms", "tout_dat_ms"), ("spin", "tout_dat_ms")],
        ids=["spms-tau-adv", "spms-tau-dat", "spin-tau-dat"],
    )
    def test_a_timeout_must_be_a_finite_number_at_least_zero(self, protocol, option, value):
        node_type = "SpmsNode" if protocol == "spms" else "SpinNode"
        with pytest.raises(ValueError, match=f"{node_type} {option} must be a finite number >= 0"):
            build_network(
                chain_positions(2), protocol=protocol, **{f"{protocol}_options": {option: value}}
            )

    @pytest.mark.parametrize("value", [0, 0.0, 2.5], ids=["zero", "zero-float", "fraction"])
    @pytest.mark.parametrize(
        "protocol, option",
        [("spms", "tout_adv_ms"), ("spms", "tout_dat_ms"), ("spin", "tout_dat_ms")],
        ids=["spms-tau-adv", "spms-tau-dat", "spin-tau-dat"],
    )
    def test_any_timer_duration_is_accepted(self, protocol, option, value):
        # The rule is the Timer's own, so no timeout that ran before is refused.
        harness = build_network(
            chain_positions(2), protocol=protocol, **{f"{protocol}_options": {option: value}}
        )
        assert getattr(harness.nodes[1], option) == value

    @pytest.mark.parametrize(
        "protocol, option, value",
        [("spms", "max_attempts", 1), ("spin", "max_retries", 0)],
        ids=["spms", "spin"],
    )
    def test_a_retry_limit_at_its_floor_is_accepted(self, protocol, option, value):
        # Below it is refused (TestMalformedSpec in tests/experiments/test_cli.py).
        harness = build_network(
            chain_positions(2), protocol=protocol, **{f"{protocol}_options": {option: value}}
        )
        assert getattr(harness.nodes[1], option) == value
