"""Tests for the phase-decomposed simulation builder."""

import math
import re

import pytest

from repro.build import PLACEMENT, PROTOCOL, SimulationBuilder, UnknownComponentError
from repro.core.spin import SpinNode
from repro.experiments.config import FailureConfig, MobilityConfig, SimulationConfig
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.experiments.scenarios import ScenarioSpec, all_to_all_scenario

from tests.helpers import clone_default_registry


@pytest.fixture
def config():
    return SimulationConfig(
        num_nodes=9,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=11,
    )


class TestPhases:
    def test_build_runs_every_phase(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spms", config))
        builder.build()
        assert builder.sim is not None
        assert builder.field is not None and len(builder.field) == config.num_nodes
        assert builder.zone_map is not None
        assert builder.network is not None
        assert builder.routing is not None  # spms needs routing
        assert builder.workload is not None and builder.schedule
        assert len(builder.nodes) == config.num_nodes

    def test_build_is_idempotent(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spin", config))
        builder.build()
        nodes = dict(builder.nodes)
        builder.build()
        assert builder.nodes == nodes

    def test_routing_only_built_when_protocol_needs_it(self, config):
        builder = SimulationBuilder(all_to_all_scenario("spin", config))
        builder.build()
        assert builder.routing is None

    def test_fault_phase_creates_models(self, config):
        spec = all_to_all_scenario(
            "spms", config, failures=FailureConfig(), mobility=MobilityConfig()
        )
        builder = SimulationBuilder(spec)
        builder.build()
        assert builder.failure_model is not None
        assert builder.mobility_model is not None

    def test_phase_override_via_subclass(self, config):
        calls = []

        class Spy(SimulationBuilder):
            def build_radio(self):
                calls.append("radio")
                super().build_radio()

        Spy(all_to_all_scenario("spin", config)).build()
        assert calls == ["radio"]


class TestSinglePairNodes:
    @pytest.mark.parametrize(
        "options",
        [{"source": 99, "destinations": [3]}, {"source": 0, "destinations": [3, 99]}],
        ids=["source", "destination"],
    )
    def test_node_ids_outside_the_field_are_rejected(self, config, options):
        spec = ScenarioSpec(
            name="pair", protocol="spin", config=config, workload="single_pair",
            workload_options=options,
        )
        message = "^single_pair node 99 is not a node of the 9-node field$"
        with pytest.raises(ValueError, match=message):
            SimulationBuilder(spec).build()


class TestOptionCheck:
    """Options are checked against their constructor's annotations before
    anything is built; the constructors check only ranges."""

    @staticmethod
    def refused(message, protocol="spms", **fields):
        fields.setdefault("workload_options", {"source": 0, "destinations": [1]})
        config = SimulationConfig(num_nodes=4, transmission_radius_m=15.0, grid_spacing_m=5.0)
        spec = ScenarioSpec(
            name="check", protocol=protocol, config=config, workload="single_pair", **fields
        )
        builder = SimulationBuilder(spec)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builder.build()
        assert builder.sim is None  # nothing was built

    @pytest.mark.parametrize(
        "value, spelled",
        [(True, "true"), (1.5, "1.5"), ("48", '"48"'), (None, "null")],
        ids=["bool", "float", "string", "none"],
    )
    @pytest.mark.parametrize("option", ["adv_size_bytes", "req_size_bytes"])
    def test_a_packet_size_of_another_type_is_refused(self, option, value, spelled):
        message = f"spms protocol option {option!r} must be an integer, got {spelled}"
        self.refused(message, protocol_options={option: value})

    @pytest.mark.parametrize(
        "value, spelled",
        [(True, "true"), (math.nan, "NaN"), (math.inf, "Infinity"), ("5", '"5"'), (None, "null")],
        ids=["bool", "nan", "inf", "string", "none"],
    )
    @pytest.mark.parametrize(
        "protocol, option",
        [("spms", "tout_adv_ms"), ("spms", "tout_dat_ms"), ("spin", "tout_dat_ms")],
        ids=["spms-tau-adv", "spms-tau-dat", "spin-tau-dat"],
    )
    def test_a_timeout_of_another_type_is_refused(self, protocol, option, value, spelled):
        message = f"{protocol} protocol option {option!r} must be a finite number, got {spelled}"
        self.refused(message, protocol, protocol_options={option: value})

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"source": 0.0}, "'source' must be an integer, got 0.0"),
            ({"source": False}, "'source' must be an integer, got false"),
            ({"destinations": [1.0]}, "'destinations[0]' must be an integer, got 1.0"),
            ({"destinations": [True]}, "'destinations[0]' must be an integer, got true"),
            ({"destinations": "12"}, "'destinations' must be a list, got \"12\""),
            ({"destinations": 1}, "'destinations' must be a list, got 1"),
            ({"num_items": True}, "'num_items' must be an integer, got true"),
            ({"num_items": 2.0}, "'num_items' must be an integer, got 2.0"),
            ({"num_items": None}, "'num_items' must be an integer, got null"),
            ({"num_items": "2"}, "'num_items' must be an integer, got \"2\""),
            ({"data_size_bytes": True}, "'data_size_bytes' must be an integer, got true"),
            ({"data_size_bytes": 40.0}, "'data_size_bytes' must be an integer, got 40.0"),
            ({"interval_ms": True}, "'interval_ms' must be a finite number, got true"),
            ({"interval_ms": "5"}, "'interval_ms' must be a finite number, got \"5\""),
            ({"interval_ms": math.inf}, "'interval_ms' must be a finite number, got Infinity"),
            ({"start_ms": False}, "'start_ms' must be a finite number, got false"),
            ({"start_ms": math.nan}, "'start_ms' must be a finite number, got NaN"),
        ],
        ids=[
            "float-source", "bool-source", "float-destination", "bool-destination",
            "string-destinations", "int-destinations", "bool-item-count", "float-item-count",
            "null-item-count", "string-item-count", "bool-data-size", "float-data-size",
            "bool-interval", "string-interval", "infinite-interval", "bool-start", "nan-start",
        ],
    )
    def test_each_single_pair_option_has_its_own_type(self, options, message):
        # True == 1 and 0.0 == 0, so a bool or a float passes every range
        # check, and "12" would make the destinations ["1", "2"].
        self.refused(
            f"single_pair workload option {message}",
            workload_options={"source": 0, "destinations": [1], **options},
        )

    def test_forwarded_config_values_are_checked_with_the_options(self, config):
        registry = clone_default_registry()
        registry.add(
            PROTOCOL,
            "spin-plugin",
            registry.get(PROTOCOL, "spin"),
            metadata={"constructor": SpinNode, "config_options": ("tout_adv_ms",)},
        )
        spec = all_to_all_scenario("spin-plugin", config)
        message = "^spin-plugin protocol has unknown options: tout_adv_ms [(]known: "
        with pytest.raises(ValueError, match=message):
            SimulationBuilder(spec, registry=registry).build()


class TestPlacements:
    def test_random_placement_from_spec(self, config):
        spec = all_to_all_scenario("spin", config, placement="random")
        builder = SimulationBuilder(spec)
        builder.build()
        xs = {builder.field.position(n).x for n in builder.field.node_ids}
        # A 3x3 grid has exactly 3 distinct x coordinates; random has ~9.
        assert len(xs) > 3

    def test_random_placement_is_seed_deterministic(self, config):
        spec = all_to_all_scenario("spms", config, placement="random")
        assert run_scenario(spec).canonical_json() == run_scenario(spec).canonical_json()

    def test_placement_seed_changes_layout(self, config):
        first = SimulationBuilder(all_to_all_scenario("spin", config, placement="random"))
        first.build()
        reseeded = all_to_all_scenario(
            "spin", config.with_overrides(seed=config.seed + 1), placement="random"
        )
        second = SimulationBuilder(reseeded)
        second.build()
        positions = lambda b: [
            (b.field.position(n).x, b.field.position(n).y) for n in b.field.node_ids
        ]
        assert positions(first) != positions(second)

    def test_unknown_placement_rejected_with_known_names(self, config):
        spec = all_to_all_scenario("spin", config, placement="hexagonal")
        with pytest.raises(UnknownComponentError, match="grid"):
            SimulationBuilder(spec).build()


class TestPluginsEndToEnd:
    def test_custom_protocol_plugin_runs_through_runner(self, config):
        registry = clone_default_registry()

        class QuietSpin(SpinNode):
            pass

        registry.add(
            PROTOCOL,
            "quiet-spin",
            lambda node_id, network, interest, routing=None, **kw: QuietSpin(
                node_id, network, interest, **kw
            ),
        )
        spec = all_to_all_scenario("quiet-spin", config)
        runner = ExperimentRunner(spec, registry=registry)
        result = runner.run_record()
        assert result.protocol == "quiet-spin"
        assert all(isinstance(n, QuietSpin) for n in runner.nodes.values())
        # The f- failure-variant naming comes for free.
        assert (
            SimulationBuilder(
                all_to_all_scenario("f-quiet-spin", config), registry=registry
            ).protocol
            == "quiet-spin"
        )

    def test_custom_placement_plugin(self, config):
        from repro.topology.node import NodeInfo, Position

        registry = clone_default_registry()

        def line_placement(cfg, rng, **options):
            return [
                NodeInfo(node_id=i, position=Position(i * cfg.grid_spacing_m, 0.0))
                for i in range(cfg.num_nodes)
            ]

        registry.add(PLACEMENT, "line", line_placement)
        spec = all_to_all_scenario("spin", config, placement="line")
        builder = SimulationBuilder(spec, registry=registry)
        builder.build()
        assert all(builder.field.position(n).y == 0.0 for n in builder.field.node_ids)


class TestContentionSelection:
    def test_contention_resolved_from_config(self, config):
        from repro.mac.contention import ExponentialContention

        spec = all_to_all_scenario(
            "spin", config.with_overrides(contention="exponential")
        )
        builder = SimulationBuilder(spec)
        builder.build()
        assert isinstance(builder.mac_delay.contention, ExponentialContention)

    def test_unknown_contention_rejected(self, config):
        bad = config.with_overrides(contention="token-ring")
        with pytest.raises(UnknownComponentError):
            SimulationBuilder(all_to_all_scenario("spin", bad)).build()
