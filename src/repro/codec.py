"""Strict decoding of serialized payloads into frozen dataclasses.

Scenario specs and their configs, run records and their metrics summaries,
and job failures all decode through :func:`decode`.  It builds a dataclass
from a mapping by the dataclass's field annotations, rejects unknown keys
and missing required ones, and checks every value's type without coercing
it: ``bool`` takes only ``True``/``False`` and ``int`` any int but a bool;
``float`` takes a finite float, or an int in a float's range and keeps it
an int, so a decoded payload re-encodes to the bytes it was read from (spec
fingerprints hash them).  ``Optional[T]``, ``Dict[str, T]``,
``Tuple[T, ...]`` (from a list) and nested dataclasses decode recursively;
``object`` takes any value.  Range checks stay in each dataclass's
``__post_init__``.

Every failure raises the caller's error class with one line that names the
field and spells the bad value as JSON (``null``, ``true``, ``"4"``) with
:func:`spell`, which component constructors use for their messages too.
:func:`loads` reads JSON text with the same errors; it rejects the
non-standard ``NaN``/``Infinity`` constants, which no format here writes,
numbers beyond a float's range and integers longer than ``int()`` parses.
The module imports nothing from the package, so any module may use it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from collections.abc import Mapping
from typing import Any, Dict, Optional, Tuple, Type, Union
from typing import get_args, get_origin, get_type_hints

#: Scalar annotation -> (the exact types it takes, what a message asks for).
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}
_MAX = sys.float_info.max


def spell(item: Any) -> str:
    """*item* as a payload spells it: JSON, or ``repr`` for a non-JSON value."""
    try:
        return json.dumps(item)
    except (TypeError, ValueError):
        return repr(item)


@functools.lru_cache(maxsize=None)  # one entry per decoded dataclass
def _layout(kind: type) -> Tuple[Dict[str, Any], Tuple[str, ...]]:
    """The resolved annotation of each field of *kind*, and its required fields."""
    fields = dataclasses.fields(kind)
    hints = get_type_hints(kind)
    missing = dataclasses.MISSING
    required = tuple(f.name for f in fields if f.default is f.default_factory is missing)
    return {f.name: hints[f.name] for f in fields}, required


def loads(text: str, error: Type[Exception], what: str) -> Any:
    """Parse JSON *text*, raising *error* unless it is standard JSON of finite numbers."""

    def reject(constant: str) -> None:
        raise error(f"{what} is not valid JSON: {constant} is not a JSON number")

    def number(literal: str) -> float:
        value = float(literal)
        if math.isinf(value):
            raise error(f"{what} is not valid JSON: {literal} is beyond a float's range")
        return value

    try:
        return json.loads(text, parse_constant=reject, parse_float=number)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except error:
        raise
    except ValueError as exc:  # int() refuses a literal past its digit limit
        raise error(
            f"{what} is not valid JSON: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


def decode(
    cls: type,
    data: Any,
    error: Type[Exception],
    what: str,
    schema: Optional[Tuple[str, int]] = None,
) -> Any:
    """Build dataclass *cls* from *data*; raise *error* about *what* on a mismatch.

    A versioned type passes *schema*, ``(key, version)``: *data* must carry
    exactly *version* under *key*, which is not a field.
    """

    def fail(path: str, problem: str) -> Exception:
        return error(f"{what} field {path!r} {problem}" if path else f"{what} {problem}")

    def mapping(item: Any, path: str) -> Mapping[str, Any]:
        if not isinstance(item, Mapping):
            raise fail(path, f"must be a mapping (JSON object), got {spell(item)}")
        return item

    def value(hint: Any, item: Any, path: str) -> Any:
        if hint in _SCALARS:
            types, expected = _SCALARS[hint]
            if type(item) not in types or (hint is float and not -_MAX <= item <= _MAX):
                raise fail(path, f"must be {expected}, got {spell(item)}")
            return item
        if hint is object:
            return item
        if dataclasses.is_dataclass(hint):
            return instance(hint, item, path)
        origin, args = get_origin(hint), get_args(hint)
        if origin is Union:  # Optional[T]
            return None if item is None else value(args[0], item, path)
        if origin is dict:
            return {k: value(args[1], v, f"{path}.{k}") for k, v in mapping(item, path).items()}
        if origin is tuple:
            if not isinstance(item, (list, tuple)):
                raise fail(path, f"must be a list, got {spell(item)}")
            return tuple(value(args[0], v, f"{path}[{i}]") for i, v in enumerate(item))
        raise TypeError(f"cannot decode a field annotated {hint!r}")

    def instance(kind: type, item: Any, path: str) -> Any:
        hints, required = _layout(kind)
        unknown = sorted(set(mapping(item, path)) - set(hints))
        if unknown:
            known = ", ".join(sorted(hints))
            raise fail(path, f"has unknown keys: {', '.join(unknown)} (known: {known})")
        missing = [name for name in required if name not in item]
        if missing:
            raise fail(path, f"is missing required keys: {', '.join(missing)}")
        prefix = f"{path}." if path else ""
        kwargs = {name: value(hints[name], v, prefix + name) for name, v in item.items()}
        try:
            return kind(**kwargs)
        except ValueError as exc:  # the dataclass's own range checks
            raise fail(path, f"is invalid: {exc}") from exc

    if schema is not None:
        key, version = schema
        found = mapping(data, "").get(key)
        if type(found) is not type(version) or found != version:
            raise error(
                f"unsupported {what} schema version {spell(found)}; "
                f"this build reads version {version} (key {key!r})"
            )
        data = {k: v for k, v in data.items() if k != key}
    return instance(cls, data, "")
