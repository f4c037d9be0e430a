"""Behaviour tests for the SPIN baseline."""

import pytest

from repro.experiments import figures
from repro.experiments.matrix import get_matrix
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import ScenarioSpec

from tests.helpers import build_network, chain_positions


class TestSpinBasicHandshake:
    def test_three_way_handshake_delivers_data(self):
        harness = build_network(chain_positions(2, spacing=5.0), protocol="spin")
        harness.originate("item", source=0, destinations=[1])
        harness.run()
        assert harness.delivered("item", 1)
        sent = harness.metrics.packets_sent
        assert sent["ADV"] >= 1 and sent["REQ"] == 1 and sent["DATA"] == 1

    def test_uninterested_node_does_not_request(self):
        harness = build_network(chain_positions(3, spacing=5.0), protocol="spin")
        harness.originate("item", source=0, destinations=[1])  # node 2 not interested
        harness.run()
        assert harness.delivered("item", 1)
        assert not harness.delivered("item", 2)
        assert harness.metrics.packets_sent["REQ"] == 1

    def test_node_with_data_does_not_request(self):
        harness = build_network(chain_positions(2, spacing=5.0), protocol="spin")
        # Pre-load the destination's cache with the same item.
        item = harness.item("item", source=0)
        harness.nodes[1].cache.add(item)
        harness.originate("item", source=0, destinations=[1])
        harness.run()
        assert harness.metrics.packets_sent.get("REQ", 0) == 0

    def test_receiver_readvertises_once(self):
        harness = build_network(chain_positions(3, spacing=5.0), radius_m=6.0, protocol="spin")
        # Node 2 is outside node 0's 6 m zone; it learns about the data from
        # node 1's re-advertisement.
        harness.originate("item", source=0, destinations=[1, 2])
        harness.run()
        assert harness.delivered("item", 1)
        assert harness.delivered("item", 2)
        # ADVs: one from the source, one re-advertisement from each receiver.
        assert harness.metrics.packets_sent["ADV"] == 3

    def test_all_transmissions_at_max_power(self):
        """SPIN's defining inefficiency: a 5 m REQ/DATA exchange costs the same
        transmit energy as a 20 m one because everything uses the max level."""
        near = build_network(chain_positions(2, spacing=5.0), protocol="spin", radius_m=20.0)
        near.originate("item", source=0, destinations=[1])
        near.run()
        far = build_network([(0.0, 0.0), (20.0, 0.0)], protocol="spin", radius_m=20.0)
        far.originate("item", source=0, destinations=[1])
        far.run()
        assert near.metrics.energy.category_total("tx") == pytest.approx(
            far.metrics.energy.category_total("tx")
        )

    def test_delay_recorded_for_delivery(self):
        harness = build_network(chain_positions(2, spacing=5.0), protocol="spin")
        harness.originate("item", source=0, destinations=[1])
        harness.run()
        assert harness.metrics.average_delay_ms > 0.0
        assert harness.metrics.delivery_ratio == 1.0


class TestSpinFailureRecovery:
    def test_transient_receiver_failure_recovers_via_readvertisement(self):
        harness = build_network(chain_positions(3, spacing=5.0), radius_m=10.0, protocol="spin",
                                tout_dat_ms=5.0)
        # Node 1 is down while the source advertises, so it misses the
        # original ADV.  Node 2 gets the data directly and re-advertises it;
        # node 1, having recovered by then, obtains the data from node 2.
        harness.network.fail_node(1)
        harness.originate("item", source=0, destinations=[1, 2])
        harness.sim.schedule(1.0, lambda: harness.network.recover_node(1))
        harness.run()
        assert harness.delivered("item", 2)
        assert harness.delivered("item", 1)

    def test_request_retried_when_data_never_arrives(self):
        harness = build_network(chain_positions(2, spacing=5.0), protocol="spin", tout_dat_ms=3.0)
        harness.originate("item", source=0, destinations=[1])
        # Fail the source before it can answer the REQ.
        harness.sim.schedule(0.05, lambda: harness.network.fail_node(0))
        harness.run()
        assert not harness.delivered("item", 1)
        # The destination retried up to its cap and gave up cleanly.
        assert harness.metrics.packets_sent["REQ"] >= 2
        assert harness.sim.pending_events == 0

    def test_retry_uses_alternative_advertiser(self):
        positions = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
        harness = build_network(positions, protocol="spin", radius_m=10.0, tout_dat_ms=3.0)
        # Both 0 and 1 hold the item; 3 wants it.  Whichever advertiser node 3
        # asks first is failed, so the retry must go to the other holder.
        item = harness.item("item", source=0)
        harness.nodes[1].cache.add(item)
        harness.set_interest("item", [3])
        harness.metrics.record_item_generated("item", 0.0, [3])
        harness.nodes[0].originate(item)
        harness.nodes[1]._advertise(item.descriptor)
        harness.sim.schedule(0.2, lambda: harness.network.fail_node(0))
        harness.run()
        assert harness.delivered("item", 3)


def _retries(runner):
    return sum(node.retries for node in runner.nodes.values())


class TestRetryCounter:
    """``SpinNode.retries`` counts the REQs its retry timer re-sends."""

    def test_each_resent_request_counts_once(self):
        harness = build_network(chain_positions(2, spacing=5.0), protocol="spin", tout_dat_ms=3.0)
        harness.originate("item", source=0, destinations=[1])
        harness.sim.schedule(0.05, lambda: harness.network.fail_node(0))
        harness.run()
        node = harness.nodes[1]
        assert node.retries == node.max_retries == 3
        assert harness.metrics.packets_sent["REQ"] == 1 + node.retries
        assert harness.nodes[0].retries == 0

    @pytest.mark.parametrize("num_nodes, retries", [(16, 0), (36, 52)])
    def test_failure_free_fig06_retries(self, num_nodes, retries):
        # ROADMAP direction 1: SPIN's 25 ms timeout fires without failures
        # once a max-power REQ and its DATA wait longer than that for the
        # channel, as they do from n = 36 on fig06's bench grid.
        (job,) = [
            job
            for job in get_matrix("fig06", scale=figures.bench_scale()).expand()
            if job.protocol == "spin" and job.value == num_nodes
        ]
        runner = ExperimentRunner(job.spec)
        runner.run_record(key=job.key, axes=job.axes)
        assert _retries(runner) == retries

    def test_the_chain_spec_never_retries(self):
        spec = ScenarioSpec.from_dict(
            {
                "schema_version": 2,
                "name": "chain/spin",
                "protocol": "spin",
                "workload": "single_pair",
                "workload_options": {"source": 0, "destinations": [3]},
                "placement": "explicit",
                "placement_options": {"positions": [[0, 0], [5, 0], [10, 0], [15, 0]]},
                "config": {"num_nodes": 4, "seed": 3},
            }
        )
        runner = ExperimentRunner(spec)
        assert runner.run_record().delivery_ratio == 1.0
        assert _retries(runner) == 0
