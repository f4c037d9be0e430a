"""Tests for the hand-built micro-scenario sandbox (public API)."""

import math

import pytest

from repro import build_sandbox, line_positions
from repro.build import PROTOCOL, SimulationBuilder
from repro.core.spms import SpmsNode
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sandbox import Sandbox
from repro.experiments.scenarios import ScenarioSpec

from tests.helpers import clone_default_registry


class TestLinePositions:
    def test_positions_spacing(self):
        assert line_positions(3, spacing_m=4.0) == [(0.0, 0.0), (4.0, 0.0), (8.0, 0.0)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            line_positions(0)
        with pytest.raises(ValueError):
            line_positions(3, spacing_m=0.0)


class TestBuildSandbox:
    def test_spms_sandbox_end_to_end(self):
        sandbox = build_sandbox(line_positions(3), protocol="spms", radius_m=15.0)
        assert isinstance(sandbox, Sandbox)
        sandbox.originate("x", source=0, destinations=[1, 2])
        sandbox.run()
        assert sandbox.delivered("x", 1)
        assert sandbox.delivered("x", 2)
        assert sandbox.metrics.delivery_ratio == 1.0

    def test_spin_sandbox(self):
        sandbox = build_sandbox(line_positions(2), protocol="spin", radius_m=10.0)
        sandbox.originate("x", source=0, destinations=[1])
        sandbox.run()
        assert sandbox.delivered("x", 1)

    def test_failure_prefix_protocol_name_accepted(self):
        sandbox = build_sandbox(line_positions(2), protocol="f-spms", radius_m=10.0)
        assert 0 in sandbox.nodes

    def test_protocol_options_forwarded(self):
        sandbox = build_sandbox(
            line_positions(2),
            protocol="spms",
            radius_m=10.0,
            protocol_options={"tout_adv_ms": 7.5},
        )
        assert sandbox.nodes[0].tout_adv_ms == 7.5

    def test_trace_enabled_records_packets(self):
        sandbox = build_sandbox(line_positions(2), protocol="spms", radius_m=10.0, trace=True)
        sandbox.originate("x", source=0, destinations=[1])
        sandbox.run()
        assert len(sandbox.sim.trace_log.filter(category="packet")) >= 3  # ADV, REQ, DATA

    def test_readvertisement_ablation_flag(self):
        # Without re-advertisement, a destination outside the source's zone
        # never learns about the data.
        positions = line_positions(4, spacing_m=5.0)
        sandbox = build_sandbox(
            positions,
            protocol="spms",
            radius_m=10.0,
            protocol_options={"readvertise_received": False},
        )
        sandbox.originate("x", source=0, destinations=[1, 2, 3])
        sandbox.run()
        assert sandbox.delivered("x", 1)
        assert sandbox.delivered("x", 2)
        assert not sandbox.delivered("x", 3)

    def test_gossip_sandbox_runs(self):
        sandbox = build_sandbox(line_positions(3), protocol="gossip", radius_m=10.0)
        sandbox.originate("x", source=0, destinations=[1, 2])
        sandbox.run()
        assert sandbox.delivered("x", 1)

    def test_routing_reaches_a_plugin_that_needs_it(self, monkeypatch):
        # The README's plugin convention: a protocol registered with
        # needs_routing gets the routing manager, whatever its name.
        registry = clone_default_registry()
        registry.add(
            PROTOCOL,
            "spms-plugin",
            lambda node_id, network, interest, routing=None, **options: SpmsNode(
                node_id, network, interest, routing, **options
            ),
            metadata={"needs_routing": True},
        )
        monkeypatch.setattr("repro.build.builder.default_registry", lambda: registry)
        sandbox = build_sandbox(line_positions(3), protocol="spms-plugin", radius_m=15.0)
        assert all(node.routing is sandbox.routing for node in sandbox.nodes.values())
        sandbox.originate("x", source=0, destinations=[1, 2])
        sandbox.run()
        assert sandbox.delivered("x", 1)
        assert sandbox.delivered("x", 2)


class TestOneBuildPath:
    def test_build_sandbox_runs_the_builder_phases(self, monkeypatch):
        built = []
        build_field = SimulationBuilder.build_field

        def spy(builder):
            built.append(builder.spec.placement)
            build_field(builder)

        monkeypatch.setattr(SimulationBuilder, "build_field", spy)
        sandbox = build_sandbox(line_positions(3), radius_m=15.0)
        assert built == ["explicit"]
        assert sandbox.spec.workload == "explicit"

    def test_spin_sandbox_builds_no_routing(self):
        sandbox = build_sandbox(line_positions(2), protocol="spin", radius_m=10.0)
        assert sandbox.routing is None

    def test_nodes_take_config_timeouts_unless_options_set_them(self):
        config = SimulationConfig()
        spms = build_sandbox(line_positions(2), protocol="spms", radius_m=10.0)
        assert spms.nodes[0].tout_adv_ms == config.tout_adv_ms
        assert spms.nodes[0].tout_dat_ms == config.tout_dat_ms
        spin = build_sandbox(line_positions(2), protocol="spin", radius_m=10.0)
        assert spin.nodes[0].tout_dat_ms == config.tout_dat_ms
        custom = build_sandbox(
            line_positions(2), radius_m=10.0, protocol_options={"tout_dat_ms": 6.0}
        )
        assert custom.nodes[0].tout_dat_ms == 6.0
        assert custom.nodes[0].tout_adv_ms == config.tout_adv_ms

    def test_radius_below_the_default_grid_spacing_builds(self):
        sandbox = build_sandbox([(0.0, 0.0), (2.0, 0.0)], radius_m=3.0)
        assert sandbox.zone_map.in_zone(0, 1)

    def test_one_node_sandbox_is_refused(self):
        with pytest.raises(ValueError, match="two nodes"):
            build_sandbox(line_positions(1))


class TestExplicitSpec:
    # Figure 2's A - r1 - r2 - C: C is in A's 20 m zone, reached over r1, r2.
    POSITIONS = [[0.0, 0.0], [5.0, 0.0], [10.0, 0.0], [15.0, 0.0]]

    def spec(self, positions=POSITIONS):
        return ScenarioSpec(
            name="chain/spms",
            protocol="spms",
            config=SimulationConfig(num_nodes=4, transmission_radius_m=20.0, seed=3),
            workload="single_pair",
            workload_options={"source": 0, "destinations": [3]},
            placement="explicit",
            placement_options={"positions": positions},
        )

    def test_round_trips_and_delivers(self):
        spec = ScenarioSpec.from_json(self.spec().to_json())
        assert spec == self.spec()
        runner = ExperimentRunner(spec)
        assert runner.run_record().delivery_ratio == 1.0
        sandbox = build_sandbox(self.POSITIONS, radius_m=20.0)
        for node_id in sandbox.field.node_ids:
            assert runner.field.position(node_id) == sandbox.field.position(node_id)
        assert runner.field.node_ids == sandbox.field.node_ids

    @pytest.mark.parametrize(
        "positions",
        [
            POSITIONS[:3],
            POSITIONS + [[20.0, 0.0]],
            {"0": [0.0, 0.0]},
            [[0.0, 0.0], [5.0], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], [5.0, 0.0, 1.0], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], "ab", [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], ["5", 0.0], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], [True, 0.0], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], [math.nan, 0.0], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], [5.0, math.inf], [10.0, 0.0], [15.0, 0.0]],
            [[0.0, 0.0], [-math.inf, 0.0], [10.0, 0.0], [15.0, 0.0]],
        ],
        ids=[
            "too-few", "too-many", "not-a-list", "short-entry", "long-entry",
            "string-entry", "string-coordinate", "bool-coordinate", "nan", "inf",
            "minus-inf",
        ],
    )
    def test_bad_positions_raise_value_error(self, positions):
        with pytest.raises(ValueError, match="position"):
            SimulationBuilder(self.spec(positions)).build()
