"""Tests for the generic component registry."""

import pytest

from repro.build import (
    PLACEMENT,
    PROTOCOL,
    WORKLOAD,
    ComponentRegistry,
    UnknownComponentError,
    available,
    default_registry,
    normalize_protocol_name,
)
from repro.core.flooding import FloodingNode
from repro.core.gossip import GossipNode
from repro.core.interests import AllInterested
from repro.core.spin import SpinNode
from repro.core.spms import SpmsNode

from tests.helpers import build_network, chain_positions


@pytest.fixture
def registry():
    return ComponentRegistry()


@pytest.fixture
def harness():
    return build_network(chain_positions(3, spacing=5.0))


class TestComponentRegistry:
    def test_register_and_create(self, registry):
        @registry.register("greeter", "upper")
        def make_upper(text):
            return text.upper()

        assert registry.create("greeter", "upper", "hi") == "HI"
        assert registry.available("greeter") == ["upper"]
        assert registry.kinds() == ["greeter"]

    def test_names_are_case_insensitive(self, registry):
        registry.add("kind", "Alpha", lambda: "a")
        assert registry.normalize("kind", "  ALPHA ") == "alpha"
        assert registry.available("kind") == ["alpha"]

    def test_aliases_resolve_to_canonical(self, registry):
        registry.add("kind", "alpha", lambda: "a", aliases=("first", "A1"))
        assert registry.normalize("kind", "first") == "alpha"
        assert registry.normalize("kind", "a1") == "alpha"
        # Aliases do not appear as canonical names.
        assert registry.available("kind") == ["alpha"]

    def test_duplicate_registration_rejected(self, registry):
        registry.add("kind", "alpha", lambda: "a")
        with pytest.raises(ValueError, match="already registered"):
            registry.add("kind", "alpha", lambda: "b")

    def test_alias_collision_rejected(self, registry):
        registry.add("kind", "alpha", lambda: "a")
        with pytest.raises(ValueError, match="collides"):
            registry.add("kind", "beta", lambda: "b", aliases=("alpha",))

    def test_replace_allows_override(self, registry):
        registry.add("kind", "alpha", lambda: "a")
        registry.add("kind", "alpha", lambda: "b", replace=True)
        assert registry.create("kind", "alpha") == "b"

    def test_replace_cannot_hijack_another_components_alias(self, registry):
        registry.add("kind", "alpha", lambda: "a", aliases=("short",))
        with pytest.raises(ValueError, match="collides"):
            registry.add("kind", "beta", lambda: "b", aliases=("short",), replace=True)
        # Registering *under* another component's alias is refused too.
        with pytest.raises(ValueError, match="alias of 'alpha'"):
            registry.add("kind", "short", lambda: "s", replace=True)
        assert registry.normalize("kind", "short") == "alpha"

    def test_replace_drops_stale_aliases_of_replaced_entry(self, registry):
        registry.add("kind", "alpha", lambda: "a", aliases=("old-name",))
        registry.add("kind", "alpha", lambda: "b", aliases=("new-name",), replace=True)
        assert registry.normalize("kind", "new-name") == "alpha"
        with pytest.raises(UnknownComponentError):
            registry.normalize("kind", "old-name")
        # The freed alias is reusable by a different component.
        registry.add("kind", "gamma", lambda: "g", aliases=("old-name",))
        assert registry.normalize("kind", "old-name") == "gamma"

    def test_replace_may_keep_its_own_aliases(self, registry):
        registry.add("kind", "alpha", lambda: "a", aliases=("short",))
        registry.add("kind", "alpha", lambda: "b", aliases=("short",), replace=True)
        assert registry.create("kind", "short") == "b"

    def test_unknown_component_lists_known_names(self, registry):
        registry.add("kind", "alpha", lambda: "a")
        with pytest.raises(UnknownComponentError, match=r"\['alpha'\]"):
            registry.normalize("kind", "missing")

    def test_unknown_kind_lists_known_kinds(self, registry):
        registry.add("kind", "alpha", lambda: "a")
        with pytest.raises(UnknownComponentError, match="registered kinds: kind"):
            registry.normalize("nope", "alpha")

    def test_unknown_component_error_is_a_value_error(self):
        # The CLI reports a ValueError from the build as a spec problem.
        assert issubclass(UnknownComponentError, ValueError)

    def test_metadata_round_trip(self, registry):
        registry.add("kind", "alpha", lambda: "a", metadata={"needs_routing": True})
        assert registry.metadata("kind", "alpha") == {"needs_routing": True}
        # A copy, not the live dict.
        registry.metadata("kind", "alpha")["needs_routing"] = False
        assert registry.metadata("kind", "alpha") == {"needs_routing": True}


class TestDefaultRegistry:
    def test_builtin_components_are_registered(self):
        assert available(PROTOCOL) == ["flooding", "gossip", "spin", "spms"]
        assert available(WORKLOAD) == ["all_to_all", "cluster", "explicit", "single_pair"]
        assert available(PLACEMENT) == ["explicit", "grid", "random"]
        assert "mobility" in default_registry().kinds()
        assert "failure" in default_registry().kinds()
        assert "contention" in default_registry().kinds()

    def test_spms_needs_routing_metadata(self):
        registry = default_registry()
        assert registry.metadata(PROTOCOL, "spms")["needs_routing"] is True
        assert not registry.metadata(PROTOCOL, "spin").get("needs_routing")

    def test_create_spms_requires_routing(self, harness):
        with pytest.raises(ValueError):
            default_registry().create(
                PROTOCOL, "spms", 0, harness.network, AllInterested(), routing=None
            )

    def test_create_each_protocol(self, harness):
        registry = default_registry()
        interest = AllInterested()
        # Fresh ids are unavailable (already registered) so we only construct,
        # not register — construction must not raise.
        spms = registry.create(
            PROTOCOL, "spms", 0, harness.network, interest, routing=harness.routing
        )
        spin = registry.create(PROTOCOL, "spin", 1, harness.network, interest)
        flood = registry.create(PROTOCOL, "flooding", 2, harness.network, interest)
        gossip = registry.create(PROTOCOL, "gossip", 0, harness.network, interest)
        assert isinstance(spms, SpmsNode)
        assert isinstance(spin, SpinNode)
        assert isinstance(flood, FloodingNode)
        assert isinstance(gossip, GossipNode)

    def test_protocol_options_forwarded(self, harness):
        node = default_registry().create(
            PROTOCOL,
            "spms",
            0,
            harness.network,
            AllInterested(),
            routing=harness.routing,
            tout_adv_ms=9.0,
            readvertise_received=False,
        )
        assert node.tout_adv_ms == 9.0
        assert node.readvertise_received is False


class TestProtocolNormalization:
    def test_f_prefix_works_for_any_registered_protocol(self):
        assert normalize_protocol_name("f-spms") == "spms"
        assert normalize_protocol_name("F-SPIN") == "spin"
        # Through an alias, too: the f- variant of "flood" (alias of flooding).
        assert normalize_protocol_name("f-flood") == "flooding"

    def test_surrounding_whitespace_is_ignored(self):
        assert normalize_protocol_name("  SPIN ") == "spin"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            normalize_protocol_name("aodv")

    def test_f_prefix_works_for_third_party_plugins(self):
        registry = ComponentRegistry()
        registry.add(PROTOCOL, "epidemic", lambda *a, **k: None, aliases=("epi",))
        assert normalize_protocol_name("f-epidemic", registry=registry) == "epidemic"
        assert normalize_protocol_name("f-epi", registry=registry) == "epidemic"

    def test_error_lists_registry_derived_names(self):
        registry = ComponentRegistry()
        registry.add(PROTOCOL, "epidemic", lambda *a, **k: None)
        with pytest.raises(UnknownComponentError, match=r"\['epidemic'\]"):
            normalize_protocol_name("aodv", registry=registry)

    def test_literal_f_name_wins_over_prefix_stripping(self):
        registry = ComponentRegistry()
        registry.add(PROTOCOL, "f-x", lambda *a, **k: None)
        registry.add(PROTOCOL, "x", lambda *a, **k: None)
        assert normalize_protocol_name("f-x", registry=registry) == "f-x"
