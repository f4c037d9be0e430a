"""Optimized-vs-oracle differential tests for every registered protocol.

Each test runs one small end-to-end scenario twice — on the protocol-layer
fast path and in :func:`~tests.protocols.harness.oracle_mode` — and asserts
the two runs are observationally identical: every metric counter, every
energy account, every delivery timestamp, every RNG stream position and the
byte-exact ``canonical_json()``.

This suite is the contract that lets protocol files change at all under the
PR-4 digest pins (see README "Performance"): a protocol-layer optimisation
may only land together with an oracle that proves it changed *nothing* but
speed.
"""

import dataclasses

import pytest

from repro.build import PROTOCOL, available
from repro.core.metadata import DataDescriptor
from repro.core.network import Network
from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.scenarios import (
    all_to_all_scenario,
    cluster_scenario,
    single_pair_scenario,
)
from repro.mac.delay import MacDelayModel
from repro.routing import manager as routing_manager_module
from repro.routing.bellman_ford import (
    DistributedBellmanFord,
    NaiveDistributedBellmanFord,
)

from tests.protocols.harness import assert_identical, oracle_mode, run_differential

#: Every protocol the component registry knows about.  Dynamic on purpose:
#: a protocol plugin added later is differentially tested without touching
#: this file.
PROTOCOLS = sorted(available(PROTOCOL))


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=11,
    )


class TestOracleModeActuallyDisables:
    """Guard the harness itself: a silently no-op oracle proves nothing."""

    def test_network_fast_paths_flipped_and_restored(self):
        assert Network.ADV_FAST_PATH and Network.LINK_TABLE
        with oracle_mode():
            assert not Network.ADV_FAST_PATH
            assert not Network.LINK_TABLE
        assert Network.ADV_FAST_PATH and Network.LINK_TABLE

    def test_interning_disabled_value_semantics_kept(self):
        interned = DataDescriptor.intern("item/x")
        assert DataDescriptor.intern("item/x") is interned
        with oracle_mode():
            first = DataDescriptor.intern("item/x")
            second = DataDescriptor.intern("item/x")
            assert first is not second
            assert first == second == interned
        assert DataDescriptor.intern("item/x") is interned

    def test_routing_built_by_naive_dbf(self):
        assert routing_manager_module.DistributedBellmanFord is DistributedBellmanFord
        with oracle_mode():
            assert (
                routing_manager_module.DistributedBellmanFord
                is NaiveDistributedBellmanFord
            )
        assert routing_manager_module.DistributedBellmanFord is DistributedBellmanFord

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with oracle_mode():
                raise RuntimeError("boom")
        assert Network.ADV_FAST_PATH and Network.LINK_TABLE
        assert DataDescriptor.intern("item/y") is DataDescriptor.intern("item/y")
        assert routing_manager_module.DistributedBellmanFord is DistributedBellmanFord


class TestAllToAllDifferential:
    """The paper's Section 5.1 workload, all four protocols."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_matches_oracle(self, protocol, config):
        spec = all_to_all_scenario(protocol, config)
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)

    @pytest.mark.parametrize("protocol", ["spms", "spin"])
    def test_random_placement_matches_oracle(self, protocol, config):
        spec = all_to_all_scenario(protocol, config, placement="random")
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)


class TestFaultAndMobilityDifferential:
    """Failures exercise the failed-receiver branch of the batched fan-out;
    mobility exercises receiver-cache and link-table invalidation."""

    def test_spms_with_failures_matches_oracle(self, config):
        spec = all_to_all_scenario("spms", config, failures=FailureConfig())
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)

    def test_spms_with_mobility_matches_oracle(self, config):
        spec = all_to_all_scenario("spms", config, mobility=MobilityConfig())
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)

    def test_spin_with_failures_matches_oracle(self, config):
        spec = all_to_all_scenario("spin", config, failures=FailureConfig())
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)

    @pytest.mark.parametrize("protocol", ["spms", "spin"])
    def test_25_node_zones_with_failures_and_mobility_match_oracle(self, protocol, config):
        # The 9-node fixture's zones hold at most 8 receivers; here a zone
        # holds up to 24, most of which already hold each advertised item.
        # 20 ms between items keeps failures landing while ADVs are in flight.
        spec = all_to_all_scenario(
            protocol,
            dataclasses.replace(config, num_nodes=25, arrival_mean_interarrival_ms=20.0),
            failures=FailureConfig(),
            mobility=MobilityConfig(num_epochs=2),
        )
        optimized, oracle = run_differential(spec)
        assert optimized.packets_dropped["receiver_failed"] > 0
        assert_identical(optimized, oracle)


class TestOtherWorkloadsDifferential:
    """Cluster and single-pair traffic shapes (different interest models,
    different descriptor name streams)."""

    @pytest.mark.parametrize("protocol", ["spms", "spin"])
    def test_cluster_matches_oracle(self, protocol, config):
        spec = cluster_scenario(protocol, config, packets_per_member=1)
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)

    def test_single_pair_matches_oracle(self, config):
        spec = single_pair_scenario("spms", source=0, destinations=[8], config=config)
        optimized, oracle = run_differential(spec)
        assert_identical(optimized, oracle)


class TestMacVariantsDifferential:
    """Branches fig06 never takes: the channel model reserves each link's
    precomputed node list, and without random backoff nothing is drawn."""

    @pytest.mark.parametrize("protocol", ["spms", "spin"])
    def test_channel_reservation_matches_oracle(self, protocol, config):
        spec = all_to_all_scenario(
            protocol, dataclasses.replace(config, channel_reservation=True)
        )
        optimized, oracle = run_differential(spec)
        assert optimized.channel_waits[1] > 0  # some transmissions waited
        assert_identical(optimized, oracle)

    def test_channel_reservation_with_mobility_matches_oracle(self, config):
        # Every epoch moves nodes, so the link table is rebuilt per epoch.
        spec = all_to_all_scenario(
            "spms",
            dataclasses.replace(config, channel_reservation=True),
            mobility=MobilityConfig(num_epochs=2),
        )
        optimized, oracle = run_differential(spec)
        assert optimized.channel_waits[1] > 0
        assert_identical(optimized, oracle)

    @pytest.mark.parametrize("protocol", ["spms", "spin"])
    def test_no_random_backoff_matches_oracle(self, protocol, config):
        spec = all_to_all_scenario(protocol, dataclasses.replace(config, random_backoff=False))
        optimized, oracle = run_differential(spec)
        assert MacDelayModel.BACKOFF_STREAM not in optimized.rng_states
        assert_identical(optimized, oracle)


class TestDifferentialIsDeterministic:
    """The harness compares like with like: two optimized runs of the same
    spec are identical, so any optimized-vs-oracle mismatch is attributable
    to the fast paths and not to run-to-run noise."""

    def test_repeat_optimized_runs_identical(self, config):
        from tests.protocols.harness import observe

        spec = all_to_all_scenario("spms", config)
        assert_identical(observe(spec), observe(spec))
