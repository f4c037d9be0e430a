"""Rule catalog, prefix selection and finding semantics."""

from __future__ import annotations

import pytest

from repro.lint import RULES, FileRule, Finding, Severity, UnknownRuleError, select_rules


def _fake_rule(rule_id):
    return type(f"Rule{rule_id}", (FileRule,), {"id": rule_id})


FAKE_RULES = tuple(_fake_rule(rule_id) for rule_id in ("S201", "D102", "D101"))


def selected(select=(), ignore=()):
    return [rule_class.id for rule_class in select_rules(FAKE_RULES, select, ignore)]


class TestCatalog:
    def test_every_rule_declares_its_identity(self):
        ids = [rule_class.id for rule_class in RULES]
        assert len(ids) == len(set(ids)) == 9
        for rule_class in RULES:
            assert rule_class.name and rule_class.description, rule_class.id
            assert isinstance(rule_class.severity, Severity)


class TestSelection:
    def test_select_and_ignore_are_prefix_based(self):
        assert selected() == ["D101", "D102", "S201"]
        assert selected(select=["D"]) == ["D101", "D102"]
        assert selected(select=["d102", "S"]) == ["D102", "S201"]
        assert selected(ignore=["D10"]) == ["S201"]
        assert selected(select=["D"], ignore=["D102"]) == ["D101"]

    @pytest.mark.parametrize(
        "select, ignore", [(["Z9"], []), (["D", "C301"], []), ([], ["P6"])]
    )
    def test_prefix_matching_no_rule_is_an_error(self, select, ignore):
        with pytest.raises(UnknownRuleError) as excinfo:
            selected(select=select, ignore=ignore)
        assert "known: D101, D102, S201" in str(excinfo.value)


class TestFinding:
    def test_render_is_path_line_col_rule(self):
        finding = Finding(
            rule="D101",
            severity=Severity.ERROR,
            path="src/a.py",
            line=3,
            col=4,
            message="boom",
        )
        assert finding.render() == "src/a.py:3:5: D101 boom"
        assert finding.to_dict()["severity"] == "error"
