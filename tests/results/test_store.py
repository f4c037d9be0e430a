"""Tests for the run store's one-file record log."""

import json
import pathlib
import re

import pytest

from repro.results import RESULTS_SCHEMA_VERSION, RunStore, RunStoreError

from tests.results.test_record import make_record


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "run")


def fill(store, count, **overrides):
    records = []
    for index in range(count):
        records.append(
            store.append(
                make_record(
                    key=f"t/num_nodes={index}/spms",
                    axes={"num_nodes": index},
                    **overrides,
                )
            )
        )
    return records


class TestAppendAndRead:
    def test_records_come_back_in_append_order(self, store):
        written = fill(store, 5)
        read = list(store.records())
        assert [r.key for r in read] == [r.key for r in written]
        assert read[0].to_dict() == written[0].to_dict()
        assert len(store) == 5

    def test_reopening_continues_the_log(self, store):
        fill(store, 4)
        reopened = RunStore(store.root)
        reopened.append(make_record(key="later"))
        assert len(store.records_path.read_text().splitlines()) == 5
        assert [r.key for r in reopened.records()][-1] == "later"

    def test_manifest_written_once_and_validated(self, store):
        fill(store, 1)
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert manifest["schema_version"] == RESULTS_SCHEMA_VERSION
        (store.root / "manifest.json").write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(RunStoreError, match="schema"):
            RunStore(store.root).append(make_record())

    def test_corrupt_line_is_a_loud_error(self, store):
        fill(store, 1)
        path = store.records_path
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(RunStoreError, match="corrupt record"):
            list(store.records())

    def test_len_counts_lines_without_validating(self, store):
        # len() must not deserialize records: a corrupt (but
        # newline-terminated) line still counts instead of raising from a
        # mere count.
        fill(store, 2)
        path = store.records_path
        path.write_text(path.read_text() + "{not json\n")
        assert len(store) == 3
        with pytest.raises(RunStoreError):
            list(store.records())


class TestRawBlobs:
    def test_raw_blob_round_trips_lazily(self, store):
        raw = {"delays_ms": [1.0, 2.0, 3.0], "traffic": {"sent": {"ADV": 9}}}
        stored = store.append(make_record(), raw=raw)
        assert stored.raw_ref is not None
        # The record read back from disk still references the blob...
        (read,) = list(store.records())
        assert read.raw_ref == stored.raw_ref
        # ...and the blob loads on demand.
        assert store.load_raw(read) == raw

    def test_records_without_blob_load_none(self, store):
        fill(store, 1)
        (read,) = list(store.records())
        assert read.raw_ref is None
        assert store.load_raw(read) is None

    def test_shared_fingerprint_blobs_do_not_collide(self, store):
        # Regression: raw blobs used to be keyed by spec fingerprint alone,
        # so two records sharing a fingerprint (same spec, different job
        # identity — the cache re-stamping case) overwrote each other's raw
        # metrics.  Blobs are keyed by the full record key now.
        first = store.append(
            make_record(key="sweep-a/num_nodes=9/spms"), raw={"delays_ms": [1.0]}
        )
        second = store.append(
            make_record(key="sweep-b/num_nodes=9/spms"), raw={"delays_ms": [2.0]}
        )
        assert first.spec_fingerprint == second.spec_fingerprint
        assert first.raw_ref != second.raw_ref
        assert store.load_raw(first) == {"delays_ms": [1.0]}
        assert store.load_raw(second) == {"delays_ms": [2.0]}

    def test_missing_blob_is_an_error(self, store):
        # A record that names a blob must not read as one that kept none.
        stored = store.append(make_record(), raw={"delays_ms": [1.0]})
        blob = store.root / stored.raw_ref
        blob.unlink()
        with pytest.raises(RunStoreError, match=re.escape(str(blob))):
            store.load_raw(stored)

    def test_corrupt_blob_is_an_error(self, store):
        stored = store.append(make_record(), raw={"delays_ms": [1.0]})
        blob = store.root / stored.raw_ref
        blob.write_text('{"delays_ms": [1.')
        with pytest.raises(RunStoreError, match=re.escape(str(blob))):
            store.load_raw(stored)

    def test_torn_rewrite_keeps_the_stored_blob(self, store, monkeypatch):
        # A --keep-raw re-run of the same key rewrites its blob.  A writer
        # killed mid-rewrite must leave the blob the stored record already
        # references whole, not half of the new one.
        stored = store.append(make_record(), raw={"delays_ms": [1.0]})

        def killed_mid_write(path, text, *args, **kwargs):
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("writer killed mid-write")

        monkeypatch.setattr(pathlib.Path, "write_text", killed_mid_write)
        with pytest.raises(OSError, match="killed"):
            store.append(make_record(), raw={"delays_ms": [2.0, 3.0]})
        monkeypatch.undo()
        assert store.load_raw(stored) == {"delays_ms": [1.0]}
        assert [r.key for r in store.records()] == [stored.key]
