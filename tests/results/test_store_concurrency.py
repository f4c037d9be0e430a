"""Concurrent-writer stress: N processes append to one store at once.

Every append takes the store's advisory file lock, so simultaneous writers —
fleet CLI runs sharing a ``--run-dir``, executor parents — must never lose
records, interleave the bytes of two lines or leave a torn line behind.
"""

import multiprocessing

import pytest

from repro.results import RunRecord, RunStore

from tests.results.test_record import make_record
from tests.results.test_store_index import fp, log_lines

WRITERS = 4
APPENDS = 25


def _writer(root, writer_index, barrier):
    """One writer process: open the shared store and hammer appends."""
    store = RunStore(root)
    barrier.wait(timeout=60)
    for i in range(APPENDS):
        store.append(
            make_record(
                key=f"w{writer_index}/{i:04d}",
                spec_fingerprint=fp(writer_index),
                axes={"writer": writer_index, "i": i},
            )
        )


@pytest.fixture(scope="module")
def stressed_root(tmp_path_factory):
    """A store root that WRITERS processes have each appended APPENDS into."""
    root = tmp_path_factory.mktemp("concurrency") / "run"
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    processes = [
        context.Process(target=_writer, args=(root, w, barrier))
        for w in range(WRITERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes)
    return root


class TestConcurrentWriters:
    def test_no_record_is_lost(self, stressed_root):
        store = RunStore(stressed_root)
        records = list(store.records())
        assert len(records) == WRITERS * APPENDS
        assert len(store) == WRITERS * APPENDS
        keys = {record.key for record in records}
        assert keys == {
            f"w{w}/{i:04d}" for w in range(WRITERS) for i in range(APPENDS)
        }

    def test_every_line_is_one_whole_record(self, stressed_root):
        lines = log_lines(stressed_root)
        assert len(lines) == WRITERS * APPENDS
        for line in lines:
            assert RunRecord.from_json(line.decode("utf-8")).to_json() + "\n" == (
                line.decode("utf-8")
            )
        assert not RunStore(stressed_root).partial_path.exists()

    def test_records_by_fingerprint_is_complete(self, stressed_root):
        store = RunStore(stressed_root)
        for writer in range(WRITERS):
            matches = store.records_by_fingerprint(fp(writer))
            assert len(matches) == APPENDS
            assert {record.axes["i"] for record in matches} == set(range(APPENDS))
