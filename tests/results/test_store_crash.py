"""Crash-safety regressions: torn write tails.

A record is stored by one write, so a killed writer can leave one kind of
damage behind: a **torn tail** — the process died mid ``write``, leaving a
newline-less partial line at the end of ``records.jsonl``.

It is injected byte-for-byte here (deterministic pins), plus by real
``SIGKILL`` signals mid append loop as an invariant check.
"""

import os
import signal
import time

import multiprocessing

import pytest

from repro.results import RunRecord, RunStore

from tests.results.test_record import make_record
from tests.results.test_store_index import fill, fp, log_lines


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "run")


def inject_torn_tail(store, text="{\"schema_version\": 3, \"key\": \"torn"):
    """Append a newline-less partial line, as a kill mid-write would."""
    with store.records_path.open("a") as handle:
        handle.write(text)
    return text


class TestTornTail:
    def test_next_append_quarantines_the_partial_line(self, store):
        fill(store, 3)
        partial = inject_torn_tail(store)
        reopened = RunStore(store.root)
        reopened.append(make_record(key="after-crash", spec_fingerprint=fp(8)))
        # The torn bytes moved to the quarantine file -- the new record did
        # NOT get concatenated onto them (the historical corruption bug).
        assert reopened.partial_path.name == "records.jsonl.partial"
        assert reopened.partial_path.read_text() == partial + "\n"
        keys = [r.key for r in reopened.records()]
        assert keys == [*(f"t/num_nodes={i}/spms" for i in range(3)), "after-crash"]

    def test_reads_skip_an_unrecovered_torn_tail(self, store):
        fill(store, 2)
        inject_torn_tail(store)
        fresh = RunStore(store.root)
        assert [r.axes["num_nodes"] for r in fresh.records()] == [0, 1]

    def test_len_works_with_and_without_quarantine(self, store):
        fill(store, 3)
        inject_torn_tail(store)
        # Before recovery: the torn (newline-less) tail simply is not a line.
        assert len(store) == 3
        store.recover()
        assert store.partial_path.exists()
        assert len(store) == 3
        assert len(list(store.records())) == 3

    def test_repeated_crashes_accumulate_in_the_quarantine(self, store):
        fill(store, 1)
        inject_torn_tail(store, "first-partial")
        store.recover()
        inject_torn_tail(store, "second-partial")
        store.recover()
        assert store.partial_path.read_text() == "first-partial\nsecond-partial\n"
        assert len(list(store.records())) == 1

    def test_explicit_recover_repairs_without_appending(self, store):
        fill(store, 2)
        inject_torn_tail(store)
        recovered = RunStore(store.root)
        recovered.recover()
        assert recovered.partial_path.exists()
        assert recovered.records_path.read_bytes().endswith(b"\n")
        assert len(log_lines(store.root)) == 2


def _append_until_killed(root, ready):
    """Child: append records as fast as possible until SIGKILLed."""
    store = RunStore(root)
    index = 0
    ready.set()
    while True:
        store.append(
            make_record(key=f"victim/{index:05d}", spec_fingerprint=fp(index % 7))
        )
        index += 1


class TestKillInjection:
    KILLS = 3

    def test_sigkill_mid_append_leaves_a_recoverable_store(self, tmp_path):
        root = tmp_path / "run"
        context = multiprocessing.get_context("fork")
        survivor = RunStore(root)
        for kill in range(self.KILLS):
            ready = context.Event()
            victim = context.Process(target=_append_until_killed, args=(root, ready))
            victim.start()
            assert ready.wait(timeout=30)
            time.sleep(0.2)  # let an arbitrary number of appends land
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
            # Another handle appends straight after the kill, quarantining
            # whatever torn tail the victim left.
            survivor.append(make_record(key=f"after/{kill}", spec_fingerprint=fp(9)))
        # Every line of the log is one whole record, and the survivor's
        # appends all landed after their kill.
        lines = log_lines(root)
        records = [RunRecord.from_json(line.decode("utf-8")) for line in lines]
        assert len(records) == len(survivor) == len(list(survivor.records()))
        assert [r.key for r in records if r.key.startswith("after/")] == [
            f"after/{kill}" for kill in range(self.KILLS)
        ]
        assert len(survivor.records_by_fingerprint(fp(9))) == self.KILLS
