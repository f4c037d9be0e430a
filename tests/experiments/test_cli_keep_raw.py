"""CLI tests for `repro run --keep-raw`."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def capture():
    lines = []
    return lines, lines.append


SPEC = {
    "schema_version": 2,
    "name": "cli-keep-raw/spin",
    "protocol": "spin",
    "workload": "all_to_all",
    "placement": "grid",
    "config": {
        "num_nodes": 9,
        "packets_per_node": 1,
        "transmission_radius_m": 20.0,
        "grid_spacing_m": 5.0,
        "seed": 3,
    },
}


def write_spec(tmp_path, payload=SPEC, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestKeepRaw:
    def test_keep_raw_requires_run_dir(self, capture, tmp_path):
        lines, out = capture
        path = write_spec(tmp_path)
        assert main(["run", "--spec", path, "--keep-raw"], out=out) == 2
        assert any("--run-dir" in line for line in lines)

    def test_keep_raw_rejected_for_batch_runs(self, capture, tmp_path):
        lines, out = capture
        path = write_spec(tmp_path)
        code = main(
            ["run", "--specs", path, "--keep-raw", "--run-dir", str(tmp_path / "r")],
            out=out,
        )
        assert code == 2
        assert any("single --spec" in line for line in lines)

    def test_keep_raw_persists_the_raw_blob(self, capture, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        path = write_spec(tmp_path)
        code = main(
            ["run", "--spec", path, "--run-dir", str(run_dir), "--keep-raw"],
            out=out,
        )
        assert code == 0
        assert any("raw blob" in line for line in lines)

        from repro.results import RunStore

        store = RunStore(run_dir)
        (record,) = list(store.records())
        assert record.raw_ref is not None
        raw = store.load_raw(record)
        assert raw is not None
        assert raw["delays_ms"]  # per-delivery detail the record drops
        assert raw["energy_per_node_uj"]

    def test_without_keep_raw_no_blob_is_stored(self, capture, tmp_path):
        lines, out = capture
        run_dir = tmp_path / "run"
        path = write_spec(tmp_path)
        assert main(["run", "--spec", path, "--run-dir", str(run_dir)], out=out) == 0

        from repro.results import RunStore

        (record,) = list(RunStore(run_dir).records())
        assert record.raw_ref is None
