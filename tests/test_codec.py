"""Tests for the strict dataclass decoder every serialized type goes through."""

import copy
import json
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import pytest

from repro import codec
from repro.codec import check_options, decode, loads


class Invalid(ValueError):
    pass


@dataclass(frozen=True)
class Inner:
    count: int
    ratio: float = 0.5


@dataclass(frozen=True)
class Outer:
    name: str
    flag: bool
    inner: Inner
    maybe: Optional[float] = None
    table: Dict[str, int] = field(default_factory=dict)
    items: Tuple[Inner, ...] = ()
    anything: object = None

    def __post_init__(self):
        if self.name == "bad":
            raise ValueError("name must not be 'bad'")


PAYLOAD = {
    "name": "x",
    "flag": True,
    "inner": {"count": 2, "ratio": 1},
    "maybe": 2.5,
    "table": {"a": 1},
    "items": [{"count": 3}],
    "anything": [1, "two", None],
}


def _decode(payload, schema=None):
    return decode(Outer, payload, Invalid, "thing", schema)


class TestDecode:
    def test_builds_nested_values(self):
        outer = _decode(PAYLOAD)
        assert outer == Outer(
            name="x",
            flag=True,
            inner=Inner(count=2, ratio=1),
            maybe=2.5,
            table={"a": 1},
            items=(Inner(count=3),),
            anything=[1, "two", None],
        )

    def test_float_keeps_an_int_an_int(self):
        # Re-encoding must give back the bytes a spec fingerprint hashed.
        ratio = _decode(PAYLOAD).inner.ratio
        assert ratio == 1 and type(ratio) is int

    def test_defaults_fill_omitted_keys(self):
        outer = _decode({"name": "x", "flag": False, "inner": {"count": 1}})
        assert outer.maybe is None and outer.items == () and outer.inner.ratio == 0.5

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("flag",), 1, "field 'flag' must be true or false, got 1"),
            (("name",), 5, "field 'name' must be a string, got 5"),
            (("inner", "count"), True, "field 'inner.count' must be an integer, got true"),
            (("inner", "count"), 2.0, "field 'inner.count' must be an integer, got 2.0"),
            (("inner", "ratio"), "1", "field 'inner.ratio' must be a finite number, got \"1\""),
            (("inner", "ratio"), False, "field 'inner.ratio' must be a finite number, got false"),
            (("inner", "ratio"), 10**400, "field 'inner.ratio' must be a finite number, got 1000"),
            (("maybe",), "x", "field 'maybe' must be a finite number, got \"x\""),
            (("maybe",), float("nan"), "field 'maybe' must be a finite number, got NaN"),
            (("maybe",), float("-inf"), "field 'maybe' must be a finite number, got -Infinity"),
            (("table", "a"), 1.5, "field 'table.a' must be an integer, got 1.5"),
            (("table",), [1], "field 'table' must be a mapping (JSON object), got [1]"),
            (("items",), {"count": 1}, "field 'items' must be a list"),
            (("items", 0, "count"), None, "field 'items[0].count' must be an integer"),
            (("inner",), None, "field 'inner' must be a mapping (JSON object), got null"),
        ],
    )
    def test_wrong_types_name_the_field(self, path, value, message):
        payload = copy.deepcopy(PAYLOAD)
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(Invalid) as raised:
            _decode(payload)
        assert str(raised.value).startswith(f"thing {message}")

    def test_unknown_keys_list_the_known_ones(self):
        with pytest.raises(Invalid, match=r"^thing field 'inner' has unknown keys: cnt "):
            _decode({**PAYLOAD, "inner": {"count": 1, "cnt": 1}})

    def test_missing_required_keys(self):
        with pytest.raises(Invalid, match="^thing is missing required keys: flag, inner$"):
            _decode({"name": "x"})

    def test_non_mapping_root(self):
        with pytest.raises(Invalid, match=r"^thing must be a mapping \(JSON object\), got \[\]$"):
            _decode([])

    def test_range_checks_keep_their_message(self):
        with pytest.raises(Invalid, match="^thing is invalid: name must not be 'bad'$"):
            _decode({**PAYLOAD, "name": "bad"})

    def test_schema_key_is_checked_and_dropped(self):
        assert _decode({**PAYLOAD, "v": 1}, ("v", 1)) == _decode(PAYLOAD)

    @pytest.mark.parametrize("version", [2, "1", True, 1.0, None])
    def test_schema_version_is_exact(self, version):
        spelled = re.escape(json.dumps(version))
        with pytest.raises(Invalid, match=f"^unsupported thing schema version {spelled};"):
            _decode({**PAYLOAD, "v": version}, ("v", 1))


class TestLoads:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_standard_constants(self, constant):
        with pytest.raises(Invalid, match=f"^thing is not valid JSON: {constant} is not"):
            loads('{"x": [1, %s]}' % constant, Invalid, "thing")

    @pytest.mark.parametrize("literal", ["1e400", "-1e400"])
    def test_rejects_numbers_beyond_a_float(self, literal):
        with pytest.raises(Invalid, match=f"^thing is not valid JSON: {literal} is beyond"):
            loads('{"x": %s}' % literal, Invalid, "thing")

    def test_rejects_integers_past_the_digit_limit(self):
        # json parses integers with int(), which raises a bare ValueError.
        with pytest.raises(Invalid, match="^thing is not valid JSON: an integer has more"):
            loads('{"x": %s}' % ("7" * 5000), Invalid, "thing")

    def test_wraps_parse_errors(self):
        with pytest.raises(Invalid, match="^thing is not valid JSON: Expecting"):
            loads("{nope", Invalid, "thing")

    def test_parses_standard_json(self):
        assert loads('{"x": [1, 2.5, null]}', Invalid, "thing") == {"x": [1, 2.5, None]}


class Component:
    def __init__(
        self,
        count: int,
        ratio: float = 0.5,
        flag: bool = False,
        nodes: Sequence[int] = (),
        pair: Optional[Tuple[float, float]] = None,
        inner: Optional[Inner] = None,
        **rest,
    ) -> None:
        self.count = count


class TestCheckOptions:
    def test_accepts_values_of_each_annotated_type(self):
        options = {"count": 2, "ratio": 1, "flag": True, "nodes": [1, 2], "pair": [0, 2.5]}
        check_options(Component, options, "c")
        # Nothing is converted: the constructor gets the spec's values.
        assert options["ratio"] == 1 and type(options["ratio"]) is int
        assert options["pair"] == [0, 2.5]

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"count": True}, "c option 'count' must be an integer, got true"),
            ({"ratio": float("nan")}, "c option 'ratio' must be a finite number, got NaN"),
            ({"flag": "no"}, "c option 'flag' must be true or false, got \"no\""),
            ({"inner": {}}, "c option 'inner' cannot be set from a spec, got {}"),
            ({"rest": 1, "cnt": 1}, "c has unknown options: cnt, rest (known: count, flag, "
             "nodes, pair, ratio)"),
        ],
        ids=["bool-int", "nan", "string-bool", "dataclass", "unknown"],
    )
    def test_refusals_name_the_option_and_value(self, options, message):
        with pytest.raises(ValueError) as raised:
            check_options(Component, options, "c")
        assert str(raised.value) == message

    def test_a_constructor_is_resolved_once(self):
        codec._parameters.cache_clear()
        for _ in range(3):
            check_options(Component, {"count": 1}, "c")
        assert codec._parameters.cache_info().misses == 1
