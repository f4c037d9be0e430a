"""Strict decoding of serialized payloads into frozen dataclasses.

Scenario specs and their configs, run records and their metrics summaries,
and job failures all decode through :func:`decode`.  It builds a dataclass
from a mapping by the dataclass's field annotations, rejects unknown keys
and missing required ones, and checks every value's type without coercing
it: ``bool`` takes only ``True``/``False`` and ``int`` any int but a bool;
``float`` takes a finite float, or an int in a float's range and keeps it
an int, so a decoded payload re-encodes to the bytes it was read from (spec
fingerprints hash them).  ``Optional[T]`` (or ``T | None``),
``Dict[str, T]``, ``Tuple[T, ...]`` or ``Sequence[T]`` and a fixed
``Tuple[A, B]`` (each from a list) and nested dataclasses decode
recursively; ``object`` takes any value.  Range checks stay in each
dataclass's ``__post_init__``.  :func:`check_options` checks a component's
spec options by the same rules against its constructor's signature.

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
import inspect
import json
import math
import sys
import types
from collections.abc import Collection, Mapping, Sequence
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union
from typing import get_args, get_origin, get_type_hints

#: Scalar annotation -> (the exact types it takes, what a message asks for).
_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a finite number"),
    str: ((str,), "a string"),
}
_MAX = sys.float_info.max
#: Annotation origins whose arguments decode in turn.
_CONTAINERS = (Union, types.UnionType, dict, tuple, Sequence)
_Fail = Callable[[str, str], Exception]  # fail(path, problem) -> the error to raise


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


@functools.lru_cache(maxsize=None)  # one entry per checked constructor
def _parameters(target: Callable[..., Any]) -> Dict[str, Any]:
    """Each keyword parameter of *target*: its annotation, or ``None`` if it takes a class."""
    namespace = (target.__init__ if isinstance(target, type) else target).__globals__
    parameters = {}
    for name, parameter in inspect.signature(target).parameters.items():
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY):
            # One at a time: a name imported only for type checking (the
            # `random` of random_placement's rng) must not hide the rest.
            holder = types.SimpleNamespace(__annotations__={name: parameter.annotation})
            try:
                hint = get_type_hints(holder, namespace)[name]
            except NameError:
                hint = None
            parameters[name] = hint if _native(hint) else None
    return parameters


def _native(hint: Any) -> bool:
    return hint in _SCALARS or hint in (object, type(None)) or (
        get_origin(hint) in _CONTAINERS and all(a is ... or _native(a) for a in get_args(hint))
    )


def _mapping(item: Any, path: str, fail: _Fail) -> Mapping[str, Any]:
    if not isinstance(item, Mapping):
        raise fail(path, f"must be a mapping (JSON object), got {spell(item)}")
    return item


def _value(hint: Any, item: Any, path: str, fail: _Fail) -> Any:
    """*item* decoded by annotation *hint*."""
    if hint in _SCALARS:
        types_, expected = _SCALARS[hint]
        if type(item) not in types_ or (hint is float and not -_MAX <= item <= _MAX):
            raise fail(path, f"must be {expected}, got {spell(item)}")
        return item
    if hint is object:
        return item
    if dataclasses.is_dataclass(hint):
        return _instance(hint, item, path, fail)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):  # Optional[T]
        return None if item is None else _value(args[0], item, path, fail)
    if origin is dict:
        mapping = _mapping(item, path, fail)
        return {k: _value(args[1], v, f"{path}.{k}", fail) for k, v in mapping.items()}
    if origin in (tuple, Sequence):
        if not isinstance(item, (list, tuple)):
            raise fail(path, f"must be a list, got {spell(item)}")
        fixed = origin is tuple and args[-1] is not Ellipsis
        if fixed and len(item) != len(args):
            raise fail(path, f"must be a list of {len(args)} values, got {spell(item)}")
        hints = args if fixed else args[:1] * len(item)
        return tuple(
            _value(h, v, f"{path}[{i}]", fail) for i, (h, v) in enumerate(zip(hints, item))
        )
    raise TypeError(f"cannot decode a field annotated {hint!r}")


def _instance(kind: type, item: Any, path: str, fail: _Fail) -> Any:
    hints, required = _layout(kind)
    unknown = sorted(set(_mapping(item, path, fail)) - set(hints))
    if unknown:
        known = ", ".join(sorted(hints))
        raise fail(path, f"has unknown keys: {', '.join(unknown)} (known: {known})")
    missing = [name for name in required if name not in item]
    if missing:
        raise fail(path, f"is missing required keys: {', '.join(missing)}")
    prefix = f"{path}." if path else ""
    kwargs = {name: _value(hints[name], v, prefix + name, fail) for name, v in item.items()}
    try:
        return kind(**kwargs)
    except ValueError as exc:  # the dataclass's own range checks
        raise fail(path, f"is invalid: {exc}") from exc


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

    if schema is not None:
        key, version = schema
        found = _mapping(data, "", fail).get(key)
        if type(found) is not type(version) or found != version:
            raise error(
                f"unsupported {what} schema version {spell(found)}; "
                f"this build reads version {version} (key {key!r})"
            )
        data = {k: v for k, v in data.items() if k != key}
    return _instance(cls, data, "", fail)


def check_options(
    target: Callable[..., Any],
    options: Mapping[str, Any],
    what: str,
    supplied: Collection[str] = (),
) -> None:
    """Raise ``ValueError`` about component *what* unless each option names a
    parameter of *target* and decodes, unconverted, by its annotation.  A
    parameter that takes a class (a dataclass too), or that the component's
    factory passes itself (*supplied*), cannot be set from a spec."""
    parameters = _parameters(target)
    unknown = sorted(set(options) - set(parameters))
    if unknown:
        known = ", ".join(
            sorted(n for n, hint in parameters.items() if hint is not None and n not in supplied)
        )
        listed = f"known: {known}" if known else "it takes no options"
        raise ValueError(f"{what} has unknown options: {', '.join(unknown)} ({listed})")

    def fail(path: str, problem: str) -> Exception:
        return ValueError(f"{what} option {path!r} {problem}")

    for name, item in options.items():
        if parameters[name] is None or name in supplied:
            raise fail(name, f"cannot be set from a spec, got {spell(item)}")
        _value(parameters[name], item, name, fail)
