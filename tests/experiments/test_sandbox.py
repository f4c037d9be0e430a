"""Tests for the hand-built micro-scenario sandbox (public API)."""

import pytest

from repro import build_sandbox, line_positions
from repro.build import PROTOCOL
from repro.core.spms import SpmsNode
from repro.experiments.sandbox import Sandbox

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
        monkeypatch.setattr(
            "repro.experiments.sandbox.default_registry", lambda: registry
        )
        sandbox = build_sandbox(line_positions(3), protocol="spms-plugin", radius_m=15.0)
        assert all(node.routing is sandbox.routing for node in sandbox.nodes.values())
        sandbox.originate("x", source=0, destinations=[1, 2])
        sandbox.run()
        assert sandbox.delivered("x", 1)
        assert sandbox.delivered("x", 2)
