"""The README rule catalog must track the rule tuple, not drift from it."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import RULES

README = Path(__file__).resolve().parents[2] / "README.md"

_ROW = re.compile(
    r"^\|\s*`(?P<id>[A-Z]\d{3})`\s*\|\s*(?P<severity>error|warning)\s*\|"
    r"\s*(?P<scope>[^|]+?)\s*\|\s*(?P<rationale>[^|]+?)\s*\|\s*$"
)


@pytest.fixture(scope="module")
def catalog_rows():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        match = _ROW.match(line)
        if match:
            assert match.group("id") not in rows, f"duplicate row {match.group('id')}"
            rows[match.group("id")] = match.groupdict()
    assert rows, "README has no rule-catalog table"
    return rows


SEVERITIES = {rule_class.id: rule_class.severity.value for rule_class in RULES}


def test_catalog_ids_match_rules(catalog_rows):
    assert sorted(catalog_rows) == sorted(SEVERITIES)


def test_catalog_ids_match_list_rules_output(catalog_rows):
    lines = []
    assert main(["lint", "--list-rules"], out=lines.append) == 0
    listed = [line.split()[0] for line in lines if line.strip()]
    assert sorted(catalog_rows) == sorted(listed)


def test_catalog_severities_match_rules(catalog_rows):
    for rule_id, row in catalog_rows.items():
        assert row["severity"] == SEVERITIES[rule_id], rule_id


def test_catalog_rows_are_filled_in(catalog_rows):
    for rule_id, row in catalog_rows.items():
        assert row["scope"].strip(), f"{rule_id}: empty layer scope"
        assert len(row["rationale"].strip()) > 20, f"{rule_id}: thin rationale"
