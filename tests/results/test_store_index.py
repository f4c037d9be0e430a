"""Tests for the RunStore fingerprint -> log-offset map behind ``--resume``."""

import json

import pytest

from repro.results import RESULTS_SCHEMA_VERSION, RunRecord, RunStore, RunStoreError
from repro.results.store import MANIFEST_NAME

from tests.results.test_record import make_record


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "run")


def fp(i: int) -> str:
    return f"{i:02d}" * 32


def fill(store, count):
    return [
        store.append(
            make_record(
                key=f"t/num_nodes={i}/spms",
                spec_fingerprint=fp(i),
                axes={"num_nodes": i},
            )
        )
        for i in range(count)
    ]


def log_lines(root):
    """Every line of the run directory's record log, newline included."""
    return (root / "records.jsonl").read_bytes().splitlines(keepends=True)


class TestIndexWrites:
    def test_run_dir_holds_one_log(self, store):
        written = fill(store, 5)
        assert sorted(p.name for p in store.root.iterdir()) == [
            ".lock", MANIFEST_NAME, "records.jsonl",
        ]
        # The log lines are the records' own serialization, byte for byte.
        assert log_lines(store.root) == [
            (record.to_json() + "\n").encode("utf-8") for record in written
        ]

    def test_manifest_holds_only_the_schema(self, store):
        fill(store, 3)
        manifest = json.loads((store.root / MANIFEST_NAME).read_text())
        assert manifest == {"schema_version": RESULTS_SCHEMA_VERSION}

    def test_appends_never_rewrite_the_manifest(self, store):
        fill(store, 1)
        manifest_path = store.root / MANIFEST_NAME
        before = manifest_path.stat().st_mtime_ns
        fill(store, 4)
        assert manifest_path.stat().st_mtime_ns == before

    def test_duplicate_fingerprints_accumulate_locations(self, store):
        store.append(make_record(key="first", spec_fingerprint=fp(1)))
        store.append(make_record(key="second", spec_fingerprint=fp(1)))
        got = store.records_by_fingerprint(fp(1))
        assert [r.key for r in got] == ["first", "second"]

    def test_reopened_store_keeps_indexing(self, store):
        fill(store, 3)
        reopened = RunStore(store.root)
        reopened.append(make_record(key="later", spec_fingerprint=fp(9)))
        for i in (0, 1, 2, 9):
            (got,) = reopened.records_by_fingerprint(fp(i))
            assert got.spec_fingerprint == fp(i)

    def test_manifestless_log_gets_a_manifest(self, tmp_path):
        root = tmp_path / "run"
        fill(RunStore(root), 3)
        (root / MANIFEST_NAME).unlink()
        reopened = RunStore(root)
        reopened.append(make_record(key="later", spec_fingerprint=fp(9)))
        assert len(list(reopened.records())) == 4
        assert json.loads((root / MANIFEST_NAME).read_text())[
            "schema_version"
        ] == RESULTS_SCHEMA_VERSION


class TestIndexedReads:
    def test_records_by_fingerprint_matches_scan(self, store):
        assert store.records_by_fingerprint(fp(0)) == []  # no log yet
        written = fill(store, 5)
        for i, record in enumerate(written):
            (got,) = store.records_by_fingerprint(fp(i))
            assert got.to_dict() == record.to_dict()
        assert store.records_by_fingerprint("no" * 32) == []

    def test_lookup_validates_only_matching_lines(self, store):
        fill(store, 3)
        # A line whose fingerprint reads fine but whose record does not
        # validate fails the lookups that return it, and no other.
        lines = log_lines(store.root)
        payload = json.loads(lines[0])
        payload["unknown_field"] = 1
        lines[0] = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        store.records_path.write_bytes(b"".join(lines))
        fresh = RunStore(store.root)
        (got,) = fresh.records_by_fingerprint(fp(2))
        assert got.axes == {"num_nodes": 2}
        with pytest.raises(RunStoreError, match="corrupt record .* offset 0:"):
            fresh.records_by_fingerprint(fp(0))
        with pytest.raises(RunStoreError, match="unknown_field"):
            list(fresh.records())

    def test_reader_sees_entries_appended_by_another_store_handle(self, store):
        fill(store, 2)
        reader = RunStore(store.root)
        (got,) = reader.records_by_fingerprint(fp(1))
        assert got.axes == {"num_nodes": 1}
        # A second writer handle appends; the same reader must see it.
        writer = RunStore(store.root)
        writer.append(make_record(key="later", spec_fingerprint=fp(7)))
        (late,) = reader.records_by_fingerprint(fp(7))
        assert late.key == "later"


class TestGuarantees:
    def test_fresh_handle_reads_each_fingerprint_once(self, store, monkeypatch):
        # Resume looks up every job of a sweep through one handle: the log
        # is read once from the handle's watermark, never once per lookup,
        # and a lookup parses only the lines it returns.
        written = fill(store, 6)
        store.append(make_record(key="again", spec_fingerprint=fp(3)))
        fingerprint_reads, record_parses = [], []
        line_fingerprint = RunStore._line_fingerprint
        from_json = RunRecord.from_json.__func__

        def counting_fingerprint(self, raw, offset):
            fingerprint_reads.append(offset)
            return line_fingerprint(self, raw, offset)

        def counting_from_json(cls, text):
            record_parses.append(text)
            return from_json(cls, text)

        monkeypatch.setattr(RunStore, "_line_fingerprint", counting_fingerprint)
        monkeypatch.setattr(RunRecord, "from_json", classmethod(counting_from_json))
        fresh = RunStore(store.root)
        served = 0
        for _ in range(2):
            for record in written:
                served += len(fresh.records_by_fingerprint(record.spec_fingerprint))
        assert sorted(fingerprint_reads) == sorted(set(fingerprint_reads))
        assert len(fingerprint_reads) == len(written) + 1
        assert len(record_parses) == served == 2 * (len(written) + 1)

    def test_append_reads_at_most_the_last_byte(self, store):
        fill(store, 2)
        lines = log_lines(store.root)
        lines[0] = b"{corrupt\n"
        store.records_path.write_bytes(b"".join(lines))
        # Appending neither parses nor scans what is already stored...
        RunStore(store.root).append(make_record(key="after", spec_fingerprint=fp(9)))
        assert len(store) == 3
        # ...so the corrupt first line is still there for reads to report.
        with pytest.raises(RunStoreError, match="corrupt record"):
            list(RunStore(store.root).records())

    def test_reader_never_serves_torn_bytes(self, store):
        fill(store, 2)
        reader = RunStore(store.root)
        assert len(reader.records_by_fingerprint(fp(1))) == 1  # log consumed
        torn = make_record(key="torn", spec_fingerprint=fp(8)).to_json()
        with store.records_path.open("a") as handle:
            handle.write(torn[: len(torn) // 2])  # a writer killed mid-write
        assert reader.records_by_fingerprint(fp(8)) == []
        # Another handle quarantines the torn tail and appends in its place.
        RunStore(store.root).append(make_record(key="after", spec_fingerprint=fp(9)))
        (after,) = reader.records_by_fingerprint(fp(9))
        assert after.key == "after"
        assert reader.records_by_fingerprint(fp(8)) == []
        assert [r.key for r in reader.records()] == [
            "t/num_nodes=0/spms", "t/num_nodes=1/spms", "after",
        ]


RETIRED_SCHEMAS = (pytest.param(1, id="v1"), pytest.param(2, id="v2"))


class TestRetiredSchema:
    """Run directories and record lines of older schemas are rejected."""

    @pytest.mark.parametrize("version", RETIRED_SCHEMAS)
    def test_retired_manifest_is_rejected_before_any_read_or_write(
        self, tmp_path, version
    ):
        root = tmp_path / "run"
        fill(RunStore(root), 2)
        (root / MANIFEST_NAME).write_text(json.dumps({"schema_version": version}))
        log = log_lines(root)
        operations = {
            "open": lambda store: store.open(),
            "records": lambda store: list(store.records()),
            "records_by_fingerprint": lambda store: store.records_by_fingerprint(fp(0)),
            "len": len,
            "failures": lambda store: store.failures(),
            "recover": lambda store: store.recover(),
            "append": lambda store: store.append(make_record(key="later")),
        }
        for operation in operations.values():
            with pytest.raises(RunStoreError, match=f"record schema {version};"):
                operation(RunStore(root))
        # Nothing was migrated or appended.
        assert json.loads((root / MANIFEST_NAME).read_text()) == {
            "schema_version": version
        }
        assert log_lines(root) == log

    @pytest.mark.parametrize("version", RETIRED_SCHEMAS)
    def test_retired_record_line_is_rejected(self, tmp_path, version):
        root = tmp_path / "run"
        store = RunStore(root)
        fill(store, 1)
        payload = json.loads(store.records_path.read_text())
        payload["schema_version"] = version
        store.records_path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        fresh = RunStore(root)
        with pytest.raises(RunStoreError, match=f"schema version {version};"):
            list(fresh.records())
        with pytest.raises(RunStoreError, match=f"schema version {version};"):
            fresh.records_by_fingerprint(fp(0))
