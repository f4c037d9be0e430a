"""Schema bumps travel together: every ``*_SCHEMA_VERSION`` is pinned.

Each serialized layout in ``repro`` carries a ``*_SCHEMA_VERSION``
constant, and some test outside this file must name it, so a layout change
cannot land without a pinned regression noticing.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path
from typing import Iterable, List, Set

import pytest

import repro

_SCHEMA_CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*_SCHEMA_VERSION$")

TESTS_ROOT = Path(__file__).resolve().parent


def schema_constants() -> Set[str]:
    """Every ``*_SCHEMA_VERSION`` name bound in any ``repro`` module."""
    names: Set[str] = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        names.update(name for name in vars(module) if _SCHEMA_CONSTANT.match(name))
    return names


def other_test_files() -> List[Path]:
    this_file = Path(__file__).resolve()
    return [path for path in sorted(TESTS_ROOT.rglob("*.py")) if path != this_file]


def unreferenced(names: Iterable[str], files: Iterable[Path]) -> List[str]:
    """The *names* that appear, as whole words, in none of *files*."""
    texts = [path.read_text(encoding="utf-8") for path in files]
    return sorted(
        name
        for name in names
        if not any(re.search(rf"\b{name}\b", text) for text in texts)
    )


SCHEMA_CONSTANTS = sorted(schema_constants())


def test_scan_finds_the_result_and_report_layouts():
    assert {"RESULTS_SCHEMA_VERSION", "LINT_REPORT_SCHEMA_VERSION"} <= set(SCHEMA_CONSTANTS)


@pytest.mark.parametrize("name", SCHEMA_CONSTANTS)
def test_schema_constant_is_referenced_by_a_test(name):
    assert unreferenced({name}, other_test_files()) == []


def test_unreferenced_constant_is_reported():
    assert unreferenced({"UNPINNED_SCHEMA_VERSION"}, other_test_files()) == [
        "UNPINNED_SCHEMA_VERSION"
    ]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("from repro.results.record import REPORT_SCHEMA_VERSION\n", []),
        ("assert record.REPORT_SCHEMA_VERSION == 2\n", []),
        ("assert LINT_REPORT_SCHEMA_VERSION == 2\n", ["REPORT_SCHEMA_VERSION"]),
        ("x = 1\n", ["REPORT_SCHEMA_VERSION"]),
    ],
    ids=["import", "attribute", "longer-name", "absent"],
)
def test_reference_is_a_whole_word(tmp_path, text, expected):
    test_file = tmp_path / "test_x.py"
    test_file.write_text(text)
    assert unreferenced({"REPORT_SCHEMA_VERSION"}, [test_file]) == expected


@pytest.mark.parametrize(
    "name, is_schema",
    [
        ("RESULTS_SCHEMA_VERSION", True),
        ("SOME_OTHER_CONSTANT", False),
        ("_PRIVATE_SCHEMA_VERSION", False),
        ("SCHEMA_VERSION_KEY", False),
    ],
)
def test_only_public_schema_version_names_count(name, is_schema):
    assert bool(_SCHEMA_CONSTANT.match(name)) is is_schema
