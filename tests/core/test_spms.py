"""Behaviour tests for SPMS in failure-free operation.

The scenarios mirror Section 3.3 of the paper: a source A, an intermediate
node B and a farther node C, where the minimum-power route from A to C runs
through B.
"""

from tests.helpers import build_network, chain_positions


def abc_harness(**kwargs):
    """A (node 0) — B (node 1) — C (node 2) on a 5 m line, all in one zone."""
    return build_network(chain_positions(3, spacing=5.0), protocol="spms", radius_m=15.0, **kwargs)


class TestCaseIBothRequest:
    """Section 3.3 Case I: both B and C need the data."""

    def test_both_destinations_receive_data(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[1, 2])
        harness.run()
        assert harness.delivered("item", 1)
        assert harness.delivered("item", 2)

    def test_c_requests_from_relay_not_source(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[1, 2])
        harness.run()
        # C's PRONE must have become B (node 1) after B re-advertised.
        prone, scone = harness.nodes[2].originators(
            harness.nodes[2].cache.items()[0].descriptor
        )
        assert prone == 1
        assert scone == 0

    def test_relay_readvertises_received_data(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[1, 2])
        harness.run()
        # ADV from the source plus re-advertisements from B and C.
        assert harness.metrics.packets_sent["ADV"] == 3

    def test_data_travels_at_low_power(self):
        """The SPMS energy claim: the B->C transfer happens at the 5 m level,
        so total transmit energy is below SPIN's for the same scenario."""
        spms = abc_harness()
        spms.originate("item", source=0, destinations=[1, 2])
        spms.run()
        spin = build_network(chain_positions(3, spacing=5.0), protocol="spin", radius_m=15.0)
        spin.originate("item", source=0, destinations=[1, 2])
        spin.run()
        assert spms.metrics.energy.category_total("tx") < spin.metrics.energy.category_total("tx")


class TestCaseIIRelayNotInterested:
    """Section 3.3 Case II: B does not request, C pulls through B."""

    def test_c_gets_data_through_uninterested_relay(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[2])
        harness.run()
        assert harness.delivered("item", 2)
        assert not harness.delivered("item", 1)

    def test_relay_forwards_but_does_not_cache(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[2])
        harness.run()
        assert not harness.nodes[1].cache.has(
            harness.nodes[2].cache.items()[0].descriptor
        )
        assert harness.nodes[1].relayed_packets >= 2  # REQ and DATA

    def test_tau_adv_expires_before_routed_request(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[2])
        harness.run()
        tau_adv = harness.nodes[2]._states["item"].tau_adv
        assert tau_adv is not None and tau_adv.expirations == 1

    def test_relay_holding_a_copy_forwards_a_routed_request(self):
        # Only a REQ's final target answers it.  B holds the item without
        # having advertised it, so C's request goes on to the dead source
        # and C starves.
        harness = abc_harness()
        item = harness.item("item", source=0)
        harness.nodes[1].cache.add(item)
        harness.set_interest("item", [2])
        harness.metrics.record_item_generated("item", 0.0, [2])
        harness.nodes[0].originate(item)
        harness.sim.schedule(0.05, lambda: harness.network.fail_node(0))
        harness.run()
        assert not harness.delivered("item", 2)
        assert harness.nodes[1].relayed_packets >= 1
        assert harness.metrics.packets_sent["DATA"] == 0


class TestNegotiation:
    def test_node_with_cached_data_ignores_adv(self):
        harness = abc_harness()
        item = harness.item("item", source=0)
        harness.nodes[1].cache.add(item)
        harness.originate("item", source=0, destinations=[1])
        harness.run()
        assert harness.metrics.packets_sent.get("REQ", 0) == 0

    def test_uninterested_node_never_requests(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[])
        harness.run()
        assert harness.metrics.packets_sent.get("REQ", 0) == 0
        assert harness.metrics.packets_sent["ADV"] == 1

    def test_item_advertised_only_once_per_node(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[1, 2])
        harness.run()
        # Re-originating the same item must not re-advertise.
        harness.nodes[0].originate(harness.item("item", source=0))
        harness.run()
        assert harness.metrics.packets_sent["ADV"] == 3

    def test_direct_neighbor_requests_immediately(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[1])
        harness.run()
        state = harness.nodes[1]._states["item"]
        assert state.tau_adv is None or state.tau_adv.starts == 0
        assert harness.delivered("item", 1)

    def test_prone_initialised_to_first_advertiser(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[2])
        # Before anything is delivered there is no state yet; run a little.
        harness.sim.run(until=0.5)
        prone, scone = harness.nodes[2].originators(harness.item("item", 0).descriptor)
        assert prone == 0 and scone == 0

    def test_phase_reaches_done(self):
        harness = abc_harness()
        harness.originate("item", source=0, destinations=[2])
        harness.run()
        descriptor = harness.nodes[2].cache.items()[0].descriptor
        assert harness.nodes[2].item_phase(descriptor) == "done"


class TestMultiHopChain:
    def test_data_crosses_a_long_chain(self):
        harness = build_network(chain_positions(6, spacing=5.0), protocol="spms", radius_m=12.0)
        destinations = [1, 2, 3, 4, 5]
        harness.originate("item", source=0, destinations=destinations)
        harness.run()
        for destination in destinations:
            assert harness.delivered("item", destination), destination

    def test_far_zone_destination_uses_multi_hop(self):
        harness = build_network(chain_positions(5, spacing=5.0), protocol="spms", radius_m=20.0)
        harness.originate("item", source=0, destinations=[4])
        harness.run()
        assert harness.delivered("item", 4)
        # The 20 m transfer must have been relayed (REQ/DATA sent more than
        # once each even though there is a single destination).
        assert harness.metrics.packets_sent["DATA"] >= 2

    def test_delivery_ratio_and_delay_recorded(self):
        harness = build_network(chain_positions(5, spacing=5.0), protocol="spms", radius_m=20.0)
        harness.originate("item", source=0, destinations=[1, 2, 3, 4])
        harness.run()
        assert harness.metrics.delivery_ratio == 1.0
        assert harness.metrics.average_delay_ms > 0.0

    def test_no_readvertisement_flag_limits_dissemination(self):
        harness = build_network(
            chain_positions(4, spacing=5.0),
            protocol="spms",
            radius_m=10.0,
            spms_options={"readvertise_received": False},
        )
        harness.originate("item", source=0, destinations=[1, 2, 3])
        harness.run()
        # Node 3 (15 m away, outside the 10 m zone) never hears an ADV.
        assert harness.delivered("item", 1)
        assert harness.delivered("item", 2)
        assert not harness.delivered("item", 3)
