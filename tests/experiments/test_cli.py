"""Tests for the command-line interface."""

import copy
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cli import ANALYTICAL_FIGURES, build_parser, main
from repro.experiments import figures
from repro.experiments.config import MobilityConfig, SpecValidationError
from repro.experiments.figures import FIGURES, FigureScale
from repro.experiments.scenarios import ScenarioSpec
from repro.routing.manager import RoutingManager


@pytest.fixture
def capture():
    lines = []
    return lines, lines.append


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.nodes == 49
        assert args.workload == "all_to_all"
        assert args.failures is False

    def test_figure_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_table1(self, capture):
        lines, out = capture
        assert main(["table1"], out=out) == 0
        assert any("power_levels_mw" in line for line in lines)

    def test_list_figures(self, capture):
        lines, out = capture
        assert main(["list-figures"], out=out) == 0
        listed = "\n".join(lines)
        for name in list(ANALYTICAL_FIGURES) + list(FIGURES):
            assert name in listed

    def test_analytical_figure(self, capture):
        lines, out = capture
        assert main(["figure", "fig3"], out=out) == 0
        assert len(lines) > 5

    def test_compare_small_run(self, capture):
        lines, out = capture
        code = main(
            ["compare", "--nodes", "9", "--radius", "15", "--packets", "1", "--seed", "2"],
            out=out,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "spms" in text and "spin" in text
        assert "SPMS saves" in text

    def test_simulated_figure_with_monkeypatched_scale(self, capture, monkeypatch):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        assert main(["figure", "fig6"], out=out) == 0
        assert any("spms" in line for line in lines)

    def test_four_curve_figure_derives_the_failure_series(self, capture, monkeypatch):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            cluster_packets_per_member=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        assert main(["figure", "fig13"], out=out) == 0
        assert lines[0] == (
            "fig13: energy per item vs transmission radius (cluster traffic) "
            "[bench scale]"
        )
        assert lines[1].splitlines()[0].split() == [
            "transmission_radius_m", "f-spin", "f-spms", "spin", "spms",
        ]

    def test_compare_packets_reach_the_cluster_workload(self, capture):
        lines, out = capture
        argv = ["compare", "--nodes", "16", "--radius", "15", "--workload", "cluster"]
        assert main(argv + ["--packets", "1"], out=out) == 0
        one_per_member = list(lines)
        lines.clear()
        assert main(argv + ["--packets", "4"], out=out) == 0
        assert lines[1:] != one_per_member[1:]

    @pytest.mark.parametrize("workload, default", [("all_to_all", "1"), ("cluster", "2")])
    def test_compare_default_packets_per_workload(self, capture, workload, default):
        lines, out = capture
        argv = ["compare", "--nodes", "9", "--radius", "15", "--workload", workload]
        assert main(argv, out=out) == 0
        implicit = list(lines)
        lines.clear()
        assert main(argv + ["--packets", default], out=out) == 0
        assert lines == implicit

    @pytest.mark.parametrize("workload", ["all_to_all", "cluster"])
    def test_compare_mobility_reaches_every_workload(
        self, capture, monkeypatch, workload
    ):
        import repro.cli

        specs = []
        run = repro.cli.run_scenario

        def recording(spec):
            specs.append(spec)
            return run(spec)

        monkeypatch.setattr(repro.cli, "run_scenario", recording)
        _, out = capture
        argv = ["compare", "--nodes", "9", "--radius", "15", "--workload", workload]
        assert main(argv + ["--mobility"], out=out) == 0
        assert [(s.protocol, s.workload, s.mobility) for s in specs] == [
            ("spms", workload, MobilityConfig()),
            ("spin", workload, MobilityConfig()),
        ]


class TestSweepCommand:
    def test_sweep_list(self, capture):
        lines, out = capture
        assert main(["sweep", "--list"], out=out) == 0
        text = "\n".join(lines)
        assert "fig06" in text and "fig12-mobility" in text

    def test_sweep_without_matrix_lists_and_fails(self, capture):
        lines, out = capture
        assert main(["sweep"], out=out) == 2
        assert any("fig06" in line for line in lines)

    def test_sweep_unknown_matrix(self, capture):
        lines, out = capture
        assert main(["sweep", "not-a-grid"], out=out) == 2
        assert any("unknown scenario matrix" in line for line in lines)

    def test_sweep_runs_tiny_grid(self, capture, monkeypatch, tmp_path):
        from repro.results import RunStore

        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        code = main(
            ["sweep", "fig06", "--workers", "1", "--run-dir", str(run_dir)],
            out=out,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "sweep fig06: 2 jobs" in text
        assert "spms" in text and "spin" in text
        assert "2 simulated, 0 from cache" in text
        records = list(RunStore(run_dir).records())
        assert (
            f"aggregate: {sum(r.items_generated for r in records)} items, "
            f"{sum(r.deliveries_completed for r in records)} deliveries, "
            f"{sum(r.total_energy_uj for r in records):.1f} uJ total energy"
        ) in lines
        table = [row for row in text.splitlines() if row.strip().startswith("9 ")]
        assert len(table) == 1

        # Resuming from the run dir re-simulates nothing, appends nothing and
        # prints the same table.
        lines.clear()
        code = main(
            ["sweep", "fig06", "--run-dir", str(run_dir), "--resume"], out=out
        )
        assert code == 0
        text = "\n".join(lines)
        assert "0 simulated, 2 from cache" in text
        assert [row for row in text.splitlines() if row.strip().startswith("9 ")] == table
        assert len(RunStore(run_dir)) == 2

    def test_sweep_resume_requires_run_dir(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--resume"], out=out) == 2
        assert any("--run-dir" in line for line in lines)


class TestListCommand:
    def test_list_protocols(self, capture):
        lines, out = capture
        assert main(["list", "protocols"], out=out) == 0
        text = "\n".join(lines)
        for protocol in ("spms", "spin", "flooding", "gossip"):
            assert protocol in text
        assert "(aliases: flood)" in text  # alias display

    def test_list_workloads_and_placements(self, capture):
        lines, out = capture
        assert main(["list", "workloads"], out=out) == 0
        assert main(["list", "placements"], out=out) == 0
        text = "\n".join(lines)
        assert "all_to_all" in text and "cluster" in text and "single_pair" in text
        assert "grid" in text and "random" in text

    def test_list_matrices(self, capture):
        lines, out = capture
        assert main(["list", "matrices"], out=out) == 0
        text = "\n".join(lines)
        assert "fig06" in text and "fig06-random" in text

    def test_list_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "gadgets"])


class TestRunCommand:
    SPEC = {
        "schema_version": 2,
        "name": "cli-test/spin",
        "protocol": "spin",
        "workload": "all_to_all",
        "placement": "random",
        "config": {
            "num_nodes": 9,
            "packets_per_node": 1,
            "transmission_radius_m": 20.0,
            "grid_spacing_m": 5.0,
            "seed": 3,
        },
    }

    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_spec_file(self, capture, tmp_path):
        lines, out = capture
        assert main(["run", "--spec", self._write_spec(tmp_path, self.SPEC)], out=out) == 0
        text = "\n".join(lines)
        assert "cli-test/spin" in text
        assert "energy_per_item_uj" in text

    def test_run_spec_json_output_is_machine_readable(self, capture, tmp_path):
        lines, out = capture
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines))
        assert payload["protocol"] == "spin"
        assert payload["items_generated"] == 9

    def test_run_spec_json_is_the_flat_record_view(self, capture, tmp_path):
        from repro.results import HEADLINE_METRICS

        lines, out = capture
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines))
        assert set(payload) == {
            "protocol", "scenario", *HEADLINE_METRICS,
            "energy_breakdown_uj", "packets_sent", "packets_dropped",
        }
        assert "wall_time_s" not in payload  # volatile: would break determinism
        assert payload["packets_sent"]["ADV"] > 0

    def test_run_is_deterministic_across_invocations(self, capture, tmp_path):
        lines, out = capture
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        first = "\n".join(lines)
        lines.clear()
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        assert "\n".join(lines) == first

    def test_run_missing_file(self, capture):
        lines, out = capture
        assert main(["run", "--spec", "/no/such/spec.json"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_run_invalid_spec_reports_validation_error(self, capture, tmp_path):
        lines, out = capture
        bad = dict(self.SPEC)
        bad["not_a_key"] = True
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert any("invalid spec" in line for line in lines)

    def test_run_unknown_component_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        bad = dict(self.SPEC)
        bad["placement"] = "hexagonal"
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert any("scenario failed to build" in line for line in lines)

    @pytest.mark.parametrize(
        "options", ["workload_options", "placement_options", "protocol_options"]
    )
    def test_run_unknown_option_key_fails_cleanly(self, capture, tmp_path, options):
        lines, out = capture
        bad = {**self.SPEC, options: {"bogus": 1}}
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert len(lines) == 1
        assert lines[0].startswith("scenario failed to build: ")
        assert "bogus" in lines[0]

    CHAIN = {
        "schema_version": 2,
        "name": "cli-test/chain",
        "protocol": "spms",
        "workload": "single_pair",
        "workload_options": {"source": 0, "destinations": [3]},
        "placement": "explicit",
        "placement_options": {"positions": [[0, 0], [5, 0], [10, 0], [15, 0]]},
        "config": {"num_nodes": 4, "seed": 3},
    }

    def test_run_hand_placed_spec(self, capture, tmp_path):
        lines, out = capture
        path = self._write_spec(tmp_path, self.CHAIN)
        assert main(["run", "--spec", path, "--json"], out=out) == 0
        assert json.loads("\n".join(lines))["delivery_ratio"] == 1.0

    @pytest.mark.parametrize(
        "positions, prefix, needle",
        [
            ([[0, 0], [5, 0], [10, 0]], "scenario failed to build: ", "position"),
            ([[0, 0], [5, 0], [10], [15, 0]], "scenario failed to build: ", "position"),
            # json.dumps writes these as the non-standard NaN and Infinity,
            # which the spec reader rejects before anything is built.
            (
                [[0, 0], [5, 0], [float("nan"), 0], [15, 0]],
                "invalid spec: ",
                "NaN is not a JSON number",
            ),
            (
                [[0, 0], [5, 0], [10, float("inf")], [15, 0]],
                "invalid spec: ",
                "Infinity is not a JSON number",
            ),
        ],
        ids=["wrong-count", "malformed-entry", "nan", "inf"],
    )
    def test_run_bad_positions_fail_cleanly(self, capture, tmp_path, positions, prefix, needle):
        lines, out = capture
        bad = {**self.CHAIN, "placement_options": {"positions": positions}}
        assert main(["run", "--spec", self._write_spec(tmp_path, bad)], out=out) == 2
        assert len(lines) == 1
        assert lines[0].startswith(prefix)
        assert needle in lines[0]

    def test_run_reads_stdin(self, capture, monkeypatch):
        import io

        lines, out = capture
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(self.SPEC)))
        assert main(["run", "--spec", "-"], out=out) == 0
        assert any("cli-test/spin" in line for line in lines)

    def test_checked_in_smoke_spec_runs(self, capture):
        lines, out = capture
        spec_path = Path(__file__).resolve().parents[2] / "examples" / "spec_smoke.json"
        assert main(["run", "--spec", str(spec_path)], out=out) == 0
        assert any("smoke/spms-random-placement" in line for line in lines)

    def test_single_spec_run_dir_persists_a_record(self, capture, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        path = self._write_spec(tmp_path, self.SPEC)
        assert main(["run", "--spec", path, "--run-dir", str(run_dir)], out=out) == 0
        assert any("record appended" in line for line in lines)

        from repro.results import RunStore

        (record,) = list(RunStore(run_dir).records())
        assert record.protocol == "spin"
        assert record.key == "cli-test/spin"


#: The 4-node chain spec of CI's hand-placed step, with a schedule of two
#: items, as the base of the malformed-spec tests.
CHAIN_SPEC = {
    **TestRunCommand.CHAIN,
    "workload_options": {"source": 0, "destinations": [3], "num_items": 2, "interval_ms": 5.0},
}


def _replaced(spec, path, value):
    """A copy of *spec* with the value at *path* (keys and list indices) replaced."""
    spec = copy.deepcopy(spec)
    *parents, last = path
    target = spec
    for step in parents:
        target = target[step]
    target[last] = value
    return spec


def _value_paths(value, prefix=()):
    """The path of every value nested in *value*, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield prefix + (key,)
        if isinstance(item, (dict, list)):
            yield from _value_paths(item, prefix + (key,))


class TestMalformedSpec:
    """A malformed spec exits 2 with one line naming the field or value."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("protocol",), 5, "invalid spec: scenario spec field 'protocol' must be a string"),
            (
                ("workload",),
                None,
                "invalid spec: scenario spec field 'workload' must be a string, got null",
            ),
            (("config", "contention"), 3, "field 'config.contention' must be a string, got 3"),
            (("settle_margin_ms",), "x", "field 'settle_margin_ms' must be a finite number"),
            (("mobility",), {"num_epochs": "two"}, "'mobility.num_epochs' must be an integer"),
            (("config", "random_backoff"), 0, "'config.random_backoff' must be true or false"),
            (("config", "num_nodes"), "4", "'config.num_nodes' must be an integer, got \"4\""),
            # json.dumps writes the non-standard NaN, which no spec may hold.
            (("config", "transmission_radius_m"), math.nan, "NaN is not a JSON number"),
            (("workload_options", "interval_ms"), math.nan, "NaN is not a JSON number"),
            (("config", "max_sim_time_ms"), -5, "max_sim_time_ms must be positive, got -5"),
            (("workload_options", "source"), 99, "failed to build: single_pair node 99 is not"),
            (("workload_options", "destinations"), [99], "single_pair node 99 is not a node"),
            # Each of these used to exit 0, with delivery_ratio 1.0000 (or
            # 0.5000 for the repeated destination).
            (("workload_options", "destinations"), [], "build: single_pair needs at least one"),
            (("workload_options", "num_items"), True, "single_pair workload option 'num_items'"),
            (("workload_options", "source"), 0.0, "option 'source' must be an integer, got 0.0"),
            (("workload_options", "destinations"), [3, 3], "build: single_pair destinations repeat"),
            (("workload_options", "data_size_bytes"), True, "'data_size_bytes' must be an"),
            (("workload_options", "interval_ms"), True, "'interval_ms' must be a finite number"),
            (("workload_options", "destinations"), "3", "'destinations' must be a list, got"),
            (("workload_options", "num_items"), None, "'num_items' must be an integer, got null"),
        ],
        ids=[
            "protocol-int", "workload-null", "contention-int", "settle-margin-str",
            "epochs-str", "bool-as-int", "int-as-str", "nan-radius", "nan-interval",
            "negative-max-sim-time", "source-outside-field", "destination-outside-field",
            "no-destination", "bool-item-count", "float-source", "repeated-destination",
            "bool-data-size", "bool-interval", "string-destinations", "null-item-count",
        ],
    )
    def test_exits_2_naming_the_value(self, capture, tmp_path, path, value, message):
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_replaced(CHAIN_SPEC, path, value)))
        assert main(["run", "--spec", str(spec_path)], out=out) == 2
        assert len(lines) == 1
        assert message in lines[0]

    @pytest.mark.parametrize(
        "protocol, key, value, message",
        [
            # Each of these used to fail mid-run with a traceback (exit 1).
            ("spms", "protocol_options", {"tout_dat_ms": -5}, "SpmsNode tout_dat_ms must be a"),
            ("spms", "protocol_options", {"tout_adv_ms": -5}, "SpmsNode tout_adv_ms must be a"),
            ("spms", "protocol_options", {"adv_size_bytes": 0}, "adv_size_bytes must be a"),
            ("spms", "protocol_options", {"req_size_bytes": -2}, "req_size_bytes must be a"),
            ("spin", "protocol_options", {"tout_dat_ms": -1}, "SpinNode tout_dat_ms must be a"),
            # Forwarded to the node constructor from the config.
            ("spms", "config", {**CHAIN_SPEC["config"], "tout_dat_ms": -5}, "got -5"),
            # Each of these used to exit 0: a 1 ms tau_DAT, and two options
            # that no longer exist.
            ("spms", "protocol_options", {"tout_dat_ms": True}, "'tout_dat_ms' must be a finite"),
            ("spms", "protocol_options", {"serve_from_cache": True}, "options: serve_from_cache"),
            ("spms", "protocol_options", {"cache_relay_data": True}, "options: cache_relay_data"),
            # These two crashed once tau_DAT fired (exit 1, a TypeError
            # traceback); the next two ran as true and as 1.0.
            (
                "spms",
                "protocol_options",
                {"max_attempts": "x", "tout_dat_ms": 0},
                "spms protocol option 'max_attempts' must be an integer, got \"x\"",
            ),
            (
                "spin",
                "protocol_options",
                {"max_retries": "x", "tout_dat_ms": 0},
                "spin protocol option 'max_retries' must be an integer, got \"x\"",
            ),
            (
                "spms",
                "protocol_options",
                {"readvertise_received": "no"},
                "spms protocol option 'readvertise_received' must be true or false, got \"no\"",
            ),
            (
                "gossip",
                "protocol_options",
                {"forward_probability": True},
                "gossip protocol option 'forward_probability' must be a finite number, got true",
            ),
            # Each of these ran like the floor (1 attempt, 0 retries).
            ("spms", "protocol_options", {"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
            ("spms", "protocol_options", {"max_attempts": -5}, "max_attempts must be >= 1, got -5"),
            ("spin", "protocol_options", {"max_retries": -1}, "max_retries must be >= 0, got -1"),
            ("spin", "protocol_options", {"max_retries": -5}, "max_retries must be >= 0, got -5"),
            # The factory passes node_id itself: this read "_make_spms() got
            # multiple values for argument 'node_id'".
            (
                "spms",
                "protocol_options",
                {"node_id": 1},
                "spms protocol option 'node_id' cannot be set from a spec, got 1",
            ),
        ],
        ids=[
            "negative-tau-dat", "negative-tau-adv", "zero-adv-size", "negative-req-size",
            "negative-spin-timeout", "negative-config-tau-dat", "bool-tau-dat",
            "serve-from-cache", "cache-relay-data", "string-max-attempts",
            "string-max-retries", "string-readvertise", "bool-forward-probability",
            "zero-max-attempts", "negative-max-attempts", "minus-one-max-retries",
            "negative-max-retries", "supplied-node-id",
        ],
    )
    def test_a_bad_protocol_option_fails_the_build(
        self, capture, tmp_path, protocol, key, value, message
    ):
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**CHAIN_SPEC, "protocol": protocol, key: value}))
        run_dir = tmp_path / "run"
        assert main(["run", "--spec", str(spec_path), "--run-dir", str(run_dir)], out=out) == 2
        assert len(lines) == 1
        assert lines[0].startswith("scenario failed to build: ")
        assert message in lines[0]
        assert not (run_dir / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "changes, message",
        [
            # Ran one item per node; crashed with an AttributeError traceback
            # (exit 1); ran with a 1 m spacing.
            (
                {"workload": "all_to_all", "workload_options": {"packets_per_node": True}},
                "all_to_all workload option 'packets_per_node' must be an integer, got true",
            ),
            (
                {"workload": "all_to_all", "workload_options": {"arrivals": 5}},
                "all_to_all workload option 'arrivals' cannot be set from a spec, got 5",
            ),
            (
                {"placement": "grid", "placement_options": {"spacing_m": True}},
                "grid placement option 'spacing_m' must be a finite number, got true",
            ),
            # The factories pass these themselves: each read "… got multiple
            # values for argument …" in Python's words.
            (
                {"placement": "grid", "placement_options": {"num_nodes": 4}},
                "grid placement option 'num_nodes' cannot be set from a spec, got 4",
            ),
            (
                {"workload": "all_to_all", "workload_options": {"node_ids": [0, 1]}},
                "all_to_all workload option 'node_ids' cannot be set from a spec, got [0, 1]",
            ),
            # This read "(known: )".
            (
                {"workload": "explicit", "workload_options": {"bogus": 1}},
                "explicit workload has unknown options: bogus (it takes no options)",
            ),
        ],
        ids=[
            "bool-packets-per-node", "int-arrivals", "bool-grid-spacing",
            "supplied-num-nodes", "supplied-node-ids", "explicit-takes-none",
        ],
    )
    def test_a_bad_workload_or_placement_option_fails_the_build(
        self, capture, tmp_path, changes, message
    ):
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**CHAIN_SPEC, **changes}))
        run_dir = tmp_path / "run"
        assert main(["run", "--spec", str(spec_path), "--run-dir", str(run_dir)], out=out) == 2
        assert lines == [f"scenario failed to build: {message}"]
        assert not (run_dir / "records.jsonl").exists()

    def test_the_known_list_leaves_out_what_the_factory_supplies(self, capture, tmp_path):
        # It listed node_id, which the factory passes itself.
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**CHAIN_SPEC, "protocol_options": {"bogus": 1}}))
        assert main(["run", "--spec", str(spec_path)], out=out) == 2
        assert lines == [
            "scenario failed to build: spms protocol has unknown options: bogus (known: "
            "adv_size_bytes, max_attempts, readvertise_received, req_size_bytes, tout_adv_ms, "
            "tout_dat_ms)"
        ]

    def test_an_integer_too_long_to_parse_exits_2(self, capture, tmp_path):
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        # Written as text: json.dumps cannot print a 5,000-digit int either.
        text = json.dumps(CHAIN_SPEC).replace('"seed": 3', '"seed": ' + "7" * 5000)
        spec_path.write_text(text)
        assert main(["run", "--spec", str(spec_path)], out=out) == 2
        assert len(lines) == 1
        assert lines[0].startswith("invalid spec: scenario spec is not valid JSON: an integer")

    def test_the_base_spec_runs(self, capture, tmp_path):
        lines, out = capture
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(CHAIN_SPEC))
        assert main(["run", "--spec", str(spec_path), "--json"], out=out) == 0
        assert json.loads("\n".join(lines))["deliveries_completed"] == 2

    @given(
        path=st.sampled_from(list(_value_paths(CHAIN_SPEC))),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-3, 3),
            st.floats(-3, 3, allow_nan=False),
            st.text(max_size=3),
            st.lists(st.integers(0, 3), max_size=2),
            st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=1),
        ),
    )
    @example(path=("protocol",), value=5)
    @settings(max_examples=150, deadline=None)
    def test_a_value_of_another_type_is_rejected_or_runs(self, path, value):
        # Only types change, never magnitudes: no example builds a large network.
        target = CHAIN_SPEC
        for step in path:
            target = target[step]
        assume(type(value) is not type(target))
        spec = _replaced(CHAIN_SPEC, path, value)
        try:
            ScenarioSpec.from_dict(spec)
        except SpecValidationError:
            return
        # Under *_options only a number given for a float option may run:
        # interval_ms, or a coordinate (the one path four keys deep).
        float_option = path[-1] == "interval_ms" or len(path) == 4
        may_run = not path[0].endswith("_options") or (float_option and type(value) in (int, float))
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(json.dumps(spec))
            code = main(["run", "--spec", str(spec_path)], out=lambda line: None)
            assert code in ((0, 2) if may_run else (2,))


class TestBatchRunCommand:
    def _write_fleet(self, tmp_path):
        for name, protocol in (("a_spms", "spms"), ("b_spin", "spin")):
            payload = dict(TestRunCommand.SPEC)
            payload["name"] = f"fleet/{protocol}"
            payload["protocol"] = protocol
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        return tmp_path

    def test_spec_dir_runs_every_spec_and_writes_a_run_store(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        run_dir = tmp_path / "run"
        code = main(
            ["run", "--spec-dir", str(fleet_dir), "--run-dir", str(run_dir)], out=out
        )
        assert code == 0
        text = "\n".join(lines)
        assert "batch: 2 spec(s)" in text
        assert "a_spms" in text and "b_spin" in text
        assert "2 record(s) appended" in text

        from repro.results import RunStore

        records = list(RunStore(run_dir).records())
        assert sorted(r.key for r in records) == ["a_spms", "b_spin"]
        assert {r.protocol for r in records} == {"spms", "spin"}
        assert all(r.axes == {"spec": r.key} for r in records)

    def test_specs_list_and_json_output(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        paths = sorted(str(p) for p in fleet_dir.glob("*.json"))
        assert main(["run", "--specs", *paths, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines[1:]))  # after the "batch:" banner
        assert [r["key"] for r in payload] == ["a_spms", "b_spin"]
        assert all(r["summary"]["items_generated"] == 9 for r in payload)

    def test_duplicate_spec_stems_are_disambiguated(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        spec = str(fleet_dir / "a_spms.json")
        assert main(["run", "--specs", spec, spec, "--json"], out=out) == 0
        payload = json.loads("\n".join(lines[1:]))
        assert [r["key"] for r in payload] == ["a_spms", "a_spms#1"]

    def test_batch_workers_match_serial(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        self._write_fleet(fleet_dir)
        assert main(["run", "--spec-dir", str(fleet_dir), "--json"], out=out) == 0
        serial = json.loads("\n".join(lines[1:]))
        lines.clear()
        assert main(
            ["run", "--spec-dir", str(fleet_dir), "--workers", "2", "--json"], out=out
        ) == 0
        parallel = json.loads("\n".join(lines[1:]))
        for left, right in zip(serial, parallel):
            left.pop("wall_time_s"), right.pop("wall_time_s")
            assert left == right

    def test_missing_spec_dir_fails_cleanly(self, capture):
        lines, out = capture
        assert main(["run", "--spec-dir", "/no/such/dir"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_empty_spec_dir_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("no *.json specs" in line for line in lines)

    def test_invalid_fleet_spec_fails_before_running(self, capture, tmp_path):
        lines, out = capture
        (tmp_path / "bad.json").write_text(json.dumps({"schema_version": 2}))
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("invalid spec" in line for line in lines)

    def test_unbuildable_fleet_spec_fails_before_running(self, capture, tmp_path):
        lines, out = capture
        payload = dict(TestRunCommand.SPEC)
        payload["placement"] = "hexagonal"
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        assert main(["run", "--spec-dir", str(tmp_path)], out=out) == 2
        assert any("failed to build" in line for line in lines)

    def test_unknown_option_key_fails_the_fleet_before_any_worker(
        self, capture, tmp_path
    ):
        lines, out = capture
        good = tmp_path / "a.json"
        good.write_text(json.dumps(TestRunCommand.SPEC))
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({**TestRunCommand.SPEC, "workload_options": {"bogus": 1}}))
        run_dir = tmp_path / "run"
        argv = ["run", "--specs", str(good), str(bad), "--workers", "2",
                "--run-dir", str(run_dir)]
        assert main(argv, out=out) == 2
        assert len(lines) == 1  # no "batch:" banner: nothing was dispatched
        assert lines[0].startswith("scenario 'b' failed to build: ")
        assert "bogus" in lines[0]
        assert not (run_dir / "records.jsonl").exists()
        assert not (run_dir / "failures.jsonl").exists()

    def test_spec_and_spec_dir_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--spec", "a.json", "--spec-dir", "d"])

    def test_fleet_builds_each_routing_table_once(self, capture, tmp_path, monkeypatch):
        # The parent checks every spec without routing tables; only the run
        # computes them.
        builds = []
        real_build = RoutingManager.build

        def counting_build(self, *args, **kwargs):
            builds.append(self)
            return real_build(self, *args, **kwargs)

        monkeypatch.setattr(RoutingManager, "build", counting_build)
        paths = []
        for seed in (1, 2, 3):
            payload = {
                **TestRunCommand.SPEC,
                "protocol": "spms",
                "config": {**TestRunCommand.SPEC["config"], "seed": seed},
            }
            paths.append(tmp_path / f"spms_{seed}.json")
            paths[-1].write_text(json.dumps(payload))
        lines, out = capture
        assert main(["run", "--specs", *map(str, paths), "--workers", "1"], out=out) == 0
        assert len(builds) == 3


class TestFleetInterrupt:
    def _interrupt_fleet(self, tmp_path, interrupt) -> str:
        """Run a 2-worker fleet, *interrupt* it after its first completion,
        check the partial table and the exit code, and return stderr."""
        # One quick spec, then three that run for seconds: the interrupt
        # after the first completion lands while both workers are busy.
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        (fleet_dir / "a_quick.json").write_text(json.dumps(TestRunCommand.SPEC))
        slow = dict(TestRunCommand.SPEC)
        slow["config"] = {**slow["config"], "num_nodes": 100, "packets_per_node": 3}
        for name in ("b_slow", "c_slow", "d_slow"):
            (fleet_dir / f"{name}.json").write_text(json.dumps(slow))
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        fleet = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "--spec-dir", str(fleet_dir),
             "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        watchdog = threading.Timer(60.0, fleet.kill)
        watchdog.start()
        try:
            printed = []
            for line in fleet.stdout:
                printed.append(line)
                if "[done]" in line:
                    interrupt(fleet)
                    break
            rest, err = fleet.communicate(timeout=60.0)
        finally:
            watchdog.cancel()
        text = "".join(printed) + rest
        assert fleet.returncode == 3, err
        done = re.findall(r"\[done\] (\S+)", text)
        assert done and done[0] == "a_quick"
        header = next(line for line in text.splitlines() if line.startswith("run "))
        rows = text.split(header, 1)[1].splitlines()[2:2 + len(done)]
        assert sorted(row.split()[0] for row in rows) == sorted(done)
        assert f"interrupted: {len(done)}/4 job(s) completed before shutdown" in text
        with pytest.raises(ProcessLookupError):  # no worker outlived the fleet
            os.killpg(fleet.pid, 0)
        return err

    def test_sigint_prints_the_partial_table_and_exits_3(self, tmp_path):
        err = self._interrupt_fleet(tmp_path, lambda fleet: fleet.send_signal(signal.SIGINT))
        assert "Traceback" not in err

    def test_sigint_to_the_process_group_leaves_no_worker_traceback(self, tmp_path):
        # Ctrl-C in a terminal signals the whole foreground process group,
        # workers included; only the parent may react to it.
        err = self._interrupt_fleet(
            tmp_path, lambda fleet: os.killpg(fleet.pid, signal.SIGINT)
        )
        assert "Traceback" not in err
        assert "Process ForkProcess" not in err

    def test_sigterm_to_the_process_group_leaves_no_worker_traceback(self, tmp_path):
        # A service manager may SIGTERM the whole process group.  The parent
        # turns SIGTERM into the same shutdown as Ctrl-C; the workers, which
        # inherit that handler from the fork, must ignore the signal.
        err = self._interrupt_fleet(
            tmp_path, lambda fleet: os.killpg(fleet.pid, signal.SIGTERM)
        )
        assert "Traceback" not in err
        assert "Process ForkProcess" not in err


class TestReportCommand:
    def _populate(self, capture, tmp_path):
        lines, out = capture
        fleet_dir = tmp_path / "specs"
        fleet_dir.mkdir()
        TestBatchRunCommand()._write_fleet(fleet_dir)
        run_dir = tmp_path / "run"
        assert main(
            ["run", "--spec-dir", str(fleet_dir), "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        return run_dir

    def test_report_renders_a_metric_table(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--metric", "average_delay_ms"], out=out) == 0
        text = "\n".join(lines)
        assert "2 record(s)" in text
        assert "average_delay_ms" in text
        assert "a_spms" in text and "b_spin" in text

    def test_report_protocol_filter(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--protocol", "spin"], out=out) == 0
        text = "\n".join(lines)
        assert "b_spin" in text and "a_spms" not in text

    def test_report_json_round_trips_records(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        assert main(["report", str(run_dir), "--json"], out=out) == 0
        from repro.results import RunRecord

        payload = json.loads("\n".join(lines))
        records = [RunRecord.from_dict(r) for r in payload]
        assert sorted(r.key for r in records) == ["a_spms", "b_spin"]

    def test_report_from_sweep_run_dir(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        assert main(
            ["sweep", "fig06", "--quiet", "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "fig06/num_nodes=9/spms" in text
        assert "fig06/num_nodes=9/spin" in text

    def test_report_mentions_quarantined_partials(self, capture, tmp_path):
        lines, out = capture
        run_dir = self._populate(capture, tmp_path)
        from repro.results import RunStore

        store = RunStore(run_dir)
        with store.records_path.open("a") as handle:
            handle.write('{"torn')  # newline-less tail from a killed writer
        store.recover()
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "2 record(s)" in text
        assert "quarantined partial lines" in text
        assert "records.jsonl.partial" in text

    def test_missing_run_dir_fails_cleanly(self, capture):
        lines, out = capture
        assert main(["report", "/no/such/run"], out=out) == 2
        assert any("not found" in line for line in lines)

    def test_non_numeric_metrics_rejected_up_front(self):
        from repro.cli import METRIC_NAMES

        assert "packets_sent" not in METRIC_NAMES
        assert "protocol" not in METRIC_NAMES
        assert "energy_per_item_uj" in METRIC_NAMES
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "r", "--metric", "packets_sent"])

    def test_metric_choices_are_the_headline_metrics(self):
        from repro.cli import METRIC_NAMES

        assert METRIC_NAMES == (
            "average_delay_ms",
            "deliveries_completed",
            "delivery_ratio",
            "energy_per_item_uj",
            "expected_deliveries",
            "failures_injected",
            "items_generated",
            "num_nodes",
            "routing_energy_uj",
            "routing_rebuilds",
            "sim_time_ms",
            "total_energy_uj",
            "transmission_radius_m",
        )

    def test_empty_run_dir_fails_cleanly(self, capture, tmp_path):
        lines, out = capture
        assert main(["report", str(tmp_path)], out=out) == 2
        assert any("no records" in line for line in lines)


class TestUnreadableRunDir:
    """A run dir under another record schema is an input error (exit 2).

    ``sweep`` and ``run`` check it before simulating anything; ``report``
    names the schema instead of claiming the directory is empty.
    """

    @pytest.fixture(params=(1, 2, 99))
    def run_dir(self, request, tmp_path, monkeypatch):
        from repro.experiments.runner import ExperimentRunner

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated a job for an unreadable run dir")

        monkeypatch.setattr(ExperimentRunner, "run_record", no_simulation)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"schema_version": request.param})
        )
        return run_dir

    @staticmethod
    def _assert_rejected(lines, run_dir):
        version = json.loads((run_dir / "manifest.json").read_text())["schema_version"]
        (message,) = [line for line in lines if "unreadable run directory" in line]
        assert f"record schema {version};" in message
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]

    def test_sweep(self, capture, run_dir):
        lines, out = capture
        code = main(["sweep", "fig06", "--quiet", "--run-dir", str(run_dir)], out=out)
        assert code == 2
        self._assert_rejected(lines, run_dir)

    def test_run(self, capture, run_dir):
        lines, out = capture
        spec_path = Path(__file__).resolve().parents[2] / "examples" / "spec_smoke.json"
        code = main(["run", "--spec", str(spec_path), "--run-dir", str(run_dir)], out=out)
        assert code == 2
        self._assert_rejected(lines, run_dir)

    def test_report(self, capture, run_dir):
        lines, out = capture
        assert main(["report", str(run_dir)], out=out) == 2
        self._assert_rejected(lines, run_dir)


class TestSweepFaultFlags:
    @pytest.fixture
    def tiny_scale(self, monkeypatch):
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)

    def test_malformed_chaos_spec_is_a_usage_error(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--chaos", "0:explode"], out=out) == 2
        assert any("--chaos: unknown chaos mode" in line for line in lines)

    def test_pool_only_chaos_needs_workers(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--chaos", "0:kill"], out=out) == 2
        assert any("need --workers >= 2" in line for line in lines)

    def test_job_timeout_needs_workers(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--job-timeout", "5"], out=out) == 2
        assert any("--job-timeout needs --workers >= 2" in line for line in lines)

    def test_job_timeout_must_be_positive(self, capture):
        lines, out = capture
        code = main(
            ["sweep", "fig06", "--workers", "2", "--job-timeout", "0"], out=out
        )
        assert code == 2
        assert any("must be positive" in line for line in lines)

    def test_max_retries_must_be_nonnegative(self, capture):
        lines, out = capture
        assert main(["sweep", "fig06", "--max-retries", "-1"], out=out) == 2
        assert any("--max-retries must be >= 0" in line for line in lines)

    def test_quarantine_exits_partial_failure(self, capture, tiny_scale, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        code = main(
            [
                "sweep", "fig06", "--chaos", "0:raise", "--max-retries", "0",
                "--run-dir", str(run_dir),
            ],
            out=out,
        )
        from repro.cli import EXIT_PARTIAL_FAILURE

        assert code == EXIT_PARTIAL_FAILURE
        text = "\n".join(lines)
        assert "chaos: injecting 0:raise" in text
        assert "[ fail] fig06/num_nodes=9/spms: quarantined" in text
        assert "1 simulated, 0 from cache, 1 FAILED" in text
        assert "failed: fig06/num_nodes=9/spms after 1 attempt(s)" in text
        assert "ChaosError" in text
        assert f"failure records appended to {run_dir / 'failures.jsonl'}" in text

        from repro.results import RunStore

        store = RunStore(run_dir)
        failures = store.failures()
        assert [f.key for f in failures] == ["fig06/num_nodes=9/spms"]
        assert failures[0].last_outcome == "raised"
        # The surviving job's record still landed in the store proper.
        assert [r.key for r in store.records()] == ["fig06/num_nodes=9/spin"]

    def test_resume_reruns_only_the_quarantined_job(self, capture, tiny_scale, tmp_path):
        from repro.results import RunStore

        lines, out = capture
        run_dir = str(tmp_path / "run")
        chaos_run = [
            "sweep", "fig06", "--chaos", "0:raise", "--max-retries", "0",
            "--run-dir", run_dir,
        ]
        assert main(chaos_run, out=out) == 3
        lines.clear()
        assert main(["sweep", "fig06", "--run-dir", run_dir, "--resume"], out=out) == 0
        text = "\n".join(lines)
        assert "[  run] fig06/num_nodes=9/spms" in text
        assert "[cache] fig06/num_nodes=9/spin" in text
        assert "1 simulated, 1 from cache" in text
        assert sorted(r.key for r in RunStore(run_dir).records()) == [
            "fig06/num_nodes=9/spin", "fig06/num_nodes=9/spms",
        ]

    def test_transient_chaos_retries_and_exits_zero(self, capture, tiny_scale):
        lines, out = capture
        code = main(
            ["sweep", "fig06", "--chaos", "0:raise:1", "--max-retries", "1"],
            out=out,
        )
        assert code == 0
        assert any("2 simulated, 0 from cache, 1 retried" in line for line in lines)


class TestReportStrict:
    def _chaos_run(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        main(
            [
                "sweep", "fig06", "--quiet", "--chaos", "0:raise",
                "--max-retries", "0", "--run-dir", str(run_dir),
            ],
            out=out,
        )
        lines.clear()
        return run_dir

    def test_plain_report_notes_failures_but_exits_zero(
        self, capture, monkeypatch, tmp_path
    ):
        lines, out = capture
        run_dir = self._chaos_run(capture, monkeypatch, tmp_path)
        assert main(["report", str(run_dir)], out=out) == 0
        text = "\n".join(lines)
        assert "1 record(s)" in text  # the survivor still renders
        assert "1 job(s) FAILED in this run" in text
        assert "fig06/num_nodes=9/spms: raised after 1 attempt(s)" in text

    def test_strict_report_exits_partial_failure(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        run_dir = self._chaos_run(capture, monkeypatch, tmp_path)
        from repro.cli import EXIT_PARTIAL_FAILURE

        assert main(["report", str(run_dir), "--strict"], out=out) == EXIT_PARTIAL_FAILURE
        assert main(["report", str(run_dir), "--strict", "--json"], out=out) == (
            EXIT_PARTIAL_FAILURE
        )
        # Selecting only the survivor's protocol does not hide the open failure.
        assert main(["report", str(run_dir), "--strict", "--protocol", "spin"], out=out) == (
            EXIT_PARTIAL_FAILURE
        )

    def test_strict_passes_once_resume_records_every_failure(
        self, capture, monkeypatch, tmp_path
    ):
        lines, out = capture
        run_dir = self._chaos_run(capture, monkeypatch, tmp_path)
        assert main(["sweep", "fig06", "--quiet", "--run-dir", str(run_dir), "--resume"],
                    out=out) == 0
        lines.clear()
        assert main(["report", str(run_dir), "--strict"], out=out) == 0
        text = "\n".join(lines)
        assert "2 record(s)" in text
        assert "FAILED" not in text
        assert "1 quarantined job(s) completed by a later run:" in text
        assert "fig06/num_nodes=9/spms: raised after 1 attempt(s), since recorded" in text
        assert main(["report", str(run_dir), "--strict", "--json"], out=out) == 0
        # The resolving record counts even when --protocol filters it out.
        assert main(["report", str(run_dir), "--strict", "--protocol", "spin"], out=out) == 0

    def test_strict_without_failures_exits_zero(self, capture, monkeypatch, tmp_path):
        lines, out = capture
        tiny = FigureScale(
            node_counts=(9,),
            radii_m=(10.0,),
            fixed_num_nodes=9,
            packets_per_node=1,
            arrival_mean_interarrival_ms=5.0,
        )
        monkeypatch.setattr(figures, "bench_scale", lambda: tiny)
        run_dir = tmp_path / "run"
        assert main(
            ["sweep", "fig06", "--quiet", "--run-dir", str(run_dir)], out=out
        ) == 0
        lines.clear()
        assert main(["report", str(run_dir), "--strict"], out=out) == 0
        assert not any("FAILED" in line for line in lines)
