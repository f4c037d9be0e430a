"""The option contract: each built-in protocol, workload and placement names
the constructor its factory passes the spec's options to, and the parameters
of it that the factory fills itself; that constructor's signature types
every option the check lets through."""

import inspect
import typing

import pytest

from repro.build import PLACEMENT, PROTOCOL, WORKLOAD, default_registry
from repro.codec import check_options
from repro.topology.placement import explicit_placement, random_placement
from repro.workload.all_to_all import AllToAllWorkload
from repro.workload.single_pair import SinglePairWorkload

REGISTRY = default_registry()
REGISTRATIONS = [
    REGISTRY.lookup(kind, name)
    for kind in (PROTOCOL, WORKLOAD, PLACEMENT)
    for name in REGISTRY.available(kind)
]

#: The parameters no JSON value decodes into, per registration.
UNSETTABLE = {
    "protocol/flooding": {"network", "interest_model"},
    "protocol/gossip": {"network", "interest_model"},
    "protocol/spin": {"network", "interest_model"},
    "protocol/spms": {"network", "interest_model", "routing"},
    "workload/all_to_all": {"arrivals"},
    "workload/cluster": {"field", "zone_map", "arrivals"},
    "workload/explicit": set(),
    "workload/single_pair": set(),
    "placement/explicit": set(),
    "placement/grid": set(),
    "placement/random": {"rng"},
}


#: The parameters each registration's factory passes its constructor itself
#: (metadata ``supplied``); a spec that sets one would pass it twice.
SUPPLIED = {
    "protocol/flooding": {"node_id", "network", "interest_model"},
    "protocol/gossip": {"node_id", "network", "interest_model"},
    "protocol/spin": {"node_id", "network", "interest_model"},
    "protocol/spms": {"node_id", "network", "interest_model", "routing"},
    "workload/all_to_all": {"node_ids"},
    "workload/cluster": {"field", "zone_map"},
    "workload/explicit": set(),
    "workload/single_pair": set(),
    "placement/explicit": {"num_nodes"},
    "placement/grid": {"num_nodes"},
    "placement/random": {"num_nodes", "rng"},
}


def _key(registration):
    return f"{registration.kind}/{registration.name}"


def _refusal(constructor, name, value, supplied=()):
    """The check's message for option *name* set to *value*, or ``None``."""
    try:
        check_options(constructor, {name: value}, "x", supplied)
    except ValueError as exc:
        return str(exc)
    return None


def test_every_builtin_is_covered():
    assert sorted(map(_key, REGISTRATIONS)) == sorted(UNSETTABLE) == sorted(SUPPLIED)


@pytest.mark.parametrize("registration", REGISTRATIONS, ids=_key)
class TestEveryRegistration:
    def test_each_parameter_decodes_or_cannot_be_set(self, registration):
        constructor = registration.metadata["constructor"]
        unsettable = set()
        for name in inspect.signature(constructor).parameters:
            # No annotation takes a bare object(), so each one either names
            # the type it wants or says it cannot be set.
            message = _refusal(constructor, name, object())
            assert message is not None and message.startswith(f"x option {name!r} ")
            if "cannot be set from a spec" in message:
                unsettable.add(name)
            else:
                assert " must be " in message
        assert unsettable == UNSETTABLE[_key(registration)]

    def test_each_supplied_name_is_a_parameter_the_check_refuses(self, registration):
        constructor = registration.metadata["constructor"]
        supplied = registration.metadata.get("supplied", ())
        assert set(supplied) == SUPPLIED[_key(registration)]
        assert set(supplied) <= set(inspect.signature(constructor).parameters)
        for name in supplied:
            message = _refusal(constructor, name, 1, supplied)
            assert message == f"x option {name!r} cannot be set from a spec, got 1"

    def test_the_known_list_names_only_settable_options(self, registration):
        constructor = registration.metadata["constructor"]
        supplied = registration.metadata.get("supplied", ())
        settable = set(inspect.signature(constructor).parameters)
        settable -= UNSETTABLE[_key(registration)] | SUPPLIED[_key(registration)]
        message = _refusal(constructor, "bogus", 1, supplied)
        if settable:
            assert message == f"x has unknown options: bogus (known: {', '.join(sorted(settable))})"
        else:
            assert message == "x has unknown options: bogus (it takes no options)"

    def test_every_settable_default_passes(self, registration):
        constructor = registration.metadata["constructor"]
        for name, parameter in inspect.signature(constructor).parameters.items():
            if parameter.default is parameter.empty or name in UNSETTABLE[_key(registration)]:
                continue
            assert _refusal(constructor, name, parameter.default) is None, name


class TestTraps:
    def test_an_annotation_imported_only_for_type_checking_hides_no_other(self):
        # random_placement's `random` is imported under TYPE_CHECKING only.
        with pytest.raises(NameError):
            typing.get_type_hints(random_placement)
        assert "cannot be set from a spec" in _refusal(random_placement, "rng", None)
        message = _refusal(random_placement, "density_per_m2", "x")
        assert message == "x option 'density_per_m2' must be a finite number, got \"x\""
        assert _refusal(random_placement, "density_per_m2", None) is None

    @pytest.mark.parametrize("value", [None, 5, {"mean_interarrival_ms": 1.0}])
    def test_a_union_with_a_class_cannot_be_set(self, value):
        # `PoissonArrivals | None` is a types.UnionType, not typing.Optional.
        message = _refusal(AllToAllWorkload, "arrivals", value)
        assert "option 'arrivals' cannot be set from a spec" in message

    @pytest.mark.parametrize(
        "value, message",
        [
            ([1, 2], None),
            ((1, 2), None),
            ([1, True], "x option 'destinations[1]' must be an integer, got true"),
            ("12", "x option 'destinations' must be a list, got \"12\""),
        ],
        ids=["list", "tuple", "bool-entry", "string"],
    )
    def test_a_sequence_of_integers(self, value, message):
        assert _refusal(SinglePairWorkload, "destinations", value) == message

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[0, 0], (1.5, 2)], None),
            ([[0]], "x option 'positions[0]' must be a list of 2 values, got [0]"),
            ([[0, 1, 2]], "x option 'positions[0]' must be a list of 2 values, got [0, 1, 2]"),
            ([[0, "a"]], "x option 'positions[0][1]' must be a finite number, got \"a\""),
            ([["0", 0]], "x option 'positions[0][0]' must be a finite number, got \"0\""),
        ],
        ids=["pairs", "short", "long", "string-y", "string-x"],
    )
    def test_an_x_y_pair_per_position(self, value, message):
        assert _refusal(explicit_placement, "positions", value) == message
