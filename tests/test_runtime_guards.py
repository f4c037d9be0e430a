"""The runtime guards of ``tests/runtime_guards.py`` catch what they replace.

Each test commits one violation on purpose and expects the guard's message,
or stays just inside a guard's scope and expects silence: the entropy
tripwire (formerly lint rule T401), the store-lock audit (L501) and the
child-process store-write audit (L502).  Simulation-layer callers are
stand-in modules named like ``repro.mac.*``, since the guards judge a frame
by its module name.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import textwrap
import types

import pytest

from repro.experiments import supervisor
from repro.experiments.config import SimulationConfig
from repro.experiments.matrix import matrix_from_axes
from repro.results import RunStore
from repro.results import store as store_module

from tests.results.test_record import make_record
from tests.results.test_store_crash import inject_torn_tail


def module(name: str, source: str) -> types.ModuleType:
    """A throwaway module called *name*, running *source*."""
    namespace = types.ModuleType(name)
    exec(textwrap.dedent(source), vars(namespace))
    return namespace


HELPERS = module(
    "repro.util.helpers",
    """
    import random
    import time

    def jitter():
        return random.random()

    def stamp():
        return time.perf_counter()
    """,
)

#: A sim-layer caller that reaches entropy only through the util helper.
BACKOFF = module(
    "repro.mac.backoff",
    """
    def backoff_ms(helpers):
        return 2.0 * helpers.jitter()
    """,
)


def _store_frame(self, write):
    return write()


#: Calls ``write()`` from a frame the audit hook takes for a method of
#: ``repro/results/store.py`` whose ``self`` is the given store.
in_store = types.FunctionType(_store_frame.__code__, vars(store_module))


def _report(conn, function, args) -> None:
    try:
        function(*args)
        conn.send(None)
    except AssertionError as exc:
        conn.send(str(exc))


def run_in_forked_child(function, *args):
    """Call *function* in a forked child: ``None``, or the guard's message."""
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    with parent_conn, child_conn:
        child = context.Process(target=_report, args=(child_conn, function, args))
        child.start()
        assert parent_conn.poll(60)
        message = parent_conn.recv()
        child.join(timeout=60)
    assert child.exitcode == 0
    return message


def guard_jobs():
    """Two small SPMS jobs for the supervised pool."""
    return matrix_from_axes(
        "guard",
        "num_nodes",
        (9, 16),
        protocols=("spms",),
        base_config=SimulationConfig(
            num_nodes=9, packets_per_node=1, transmission_radius_m=15.0,
            grid_spacing_m=5.0, seed=5,
        ),
    ).expand()


class TestEntropyTripwire:
    def test_helper_entropy_reached_from_a_sim_layer_trips(self):
        with pytest.raises(AssertionError) as excinfo:
            BACKOFF.backoff_ms(HELPERS)
        assert str(excinfo.value).startswith(
            "repro.mac.backoff reached random.random() "
            "(called from repro.util.helpers)"
        )

    def test_direct_entropy_in_a_sim_module_trips(self):
        # D101 reports this statically; the tripwire sees it run as well.
        sim = module(
            "repro.mac.slots",
            """
            import random

            def pick_slot():
                return random.randint(0, 7)
            """,
        )
        expected = (
            r"^repro\.mac\.slots reached random\.randint\(\) "
            r"\(called from repro\.mac\.slots\)"
        )
        with pytest.raises(AssertionError, match=expected):
            sim.pick_slot()

    def test_getattr_dispatched_clock_read_trips(self):
        # The static rule never followed an unresolved call like this one.
        sim = module(
            "repro.core.dispatch",
            """
            def deliver(node, hook):
                return getattr(node, hook)()
            """,
        )
        expected = r"repro\.core\.dispatch reached time\.perf_counter\(\)"
        with pytest.raises(AssertionError, match=expected):
            sim.deliver(HELPERS, "stamp")

    def test_silent_outside_sim_layers(self):
        # Orchestration code may time and shuffle as it likes.
        sweep = module(
            "repro.experiments.sweep",
            """
            def schedule(helpers):
                return helpers.jitter(), helpers.stamp()
            """,
        )
        jitter, stamp = sweep.schedule(HELPERS)
        assert 0.0 <= jitter < 1.0
        assert stamp > 0.0

    def test_draws_through_random_streams_pass(self):
        # random.Random stays unwrapped: seeded streams and isinstance
        # checks work in simulation code.
        sim = module(
            "repro.mac.seeded",
            """
            import random

            from repro.sim.rng import RandomStreams

            def backoff_ms(seed):
                stream = RandomStreams(seed).stream("mac")
                assert isinstance(stream, random.Random)
                return stream.random()
            """,
        )
        assert sim.backoff_ms(3) == sim.backoff_ms(3)

    def test_forked_pool_worker_inherits_the_tripwire(self, monkeypatch):
        attempt_job = supervisor._attempt_job

        def attempt_after_backoff(job, attempt, chaos):
            BACKOFF.backoff_ms(HELPERS)
            return attempt_job(job, attempt, chaos)

        monkeypatch.setattr(supervisor, "_attempt_job", attempt_after_backoff)
        jobs = guard_jobs()[:1]
        (outcome,) = supervisor.SupervisedPool(workers=1, max_attempts=1).run(jobs)
        assert not outcome.ok
        (attempt,) = outcome.failure.attempts
        assert attempt.outcome == "raised"
        assert "repro.mac.backoff reached random.random()" in attempt.detail


@pytest.fixture
def store(tmp_path):
    store = RunStore(tmp_path / "run")
    store.append(make_record(key="first"))
    return store


#: One write per audit event the hook judges, on a directory holding
#: ``file`` and ``dir``.
JUDGED_WRITES = {
    "open-mode": lambda base: open(base / "file", "w").close(),
    "open-flags": lambda base: os.close(os.open(base / "made", os.O_WRONLY | os.O_CREAT)),
    "rename": lambda base: os.rename(base / "file", base / "moved"),
    "replace": lambda base: os.replace(base / "file", base / "moved"),
    "truncate": lambda base: os.truncate(base / "file", 0),
    "remove": lambda base: os.remove(base / "file"),
    "mkdir": lambda base: os.mkdir(base / "made"),
    "rmdir": lambda base: os.rmdir(base / "dir"),
}


def tree(base):
    return sorted(
        (str(path.relative_to(base)), path.read_bytes() if path.is_file() else None)
        for path in base.rglob("*")
    )


class TestStoreLock:
    def test_store_write_without_the_lock_trips(self, store):
        inject_torn_tail(store)
        with store.records_path.open("r+b") as log:
            with pytest.raises(AssertionError, match="store write without the store lock"):
                store._quarantine_torn_tail(log)
        assert not store.partial_path.exists()

    @pytest.mark.parametrize("write", list(JUDGED_WRITES.values()), ids=list(JUDGED_WRITES))
    def test_each_judged_write_needs_the_lock(self, store, tmp_path, write):
        base = tmp_path / "judged"
        (base / "dir").mkdir(parents=True)
        (base / "file").write_bytes(b"kept")
        before = tree(base)
        with pytest.raises(AssertionError, match="store write without the store lock"):
            in_store(store, lambda: write(base))
        assert tree(base) == before  # the hook runs before the write
        with store._lock:
            in_store(store, lambda: write(base))
        assert tree(base) != before

    def test_taking_the_lock_needs_no_lock(self, tmp_path):
        # __enter__ creates the run directory and the lock file before the
        # lock is held; the audit exempts it.
        fresh = RunStore(tmp_path / "fresh")
        lock = in_store(fresh, fresh._lock.__enter__)
        try:
            assert lock._depth == 1
        finally:
            lock.__exit__(None, None, None)
        assert (fresh.root / store_module.LOCK_NAME).is_file()

    def test_writes_outside_the_store_module_are_not_judged(self, store, tmp_path):
        # A RunStore on the stack is not enough: only store-module frames
        # are judged, so callers write their own files without the lock.
        sweep = module(
            "repro.experiments.sweep",
            """
            def save_notes(self, path):
                with open(path, "w") as notes:
                    notes.write("kept")
            """,
        )
        sweep.save_notes(store, tmp_path / "notes.txt")
        assert (tmp_path / "notes.txt").read_text() == "kept"


class TestNoStoreHandleInAChild:
    def test_store_refuses_to_pickle(self, store):
        with pytest.raises(TypeError, match="re-open it with RunStore"):
            pickle.dumps(store)

    def test_inherited_handle_trips_in_a_forked_child(self, store):
        message = run_in_forked_child(store.append, make_record(key="from-child"))
        assert message.startswith("store write from a child process")
        assert f"opened in process {os.getpid()}" in message
        assert [record.key for record in store.records()] == ["first"]

    def test_child_opening_its_own_handle_may_write(self, store):
        # An ordinary concurrent writer: it holds the lock in its own process.
        message = run_in_forked_child(
            lambda: RunStore(store.root).append(make_record(key="from-child"))
        )
        assert message is None
        assert [record.key for record in store.records()] == ["first", "from-child"]

    def test_supervised_worker_store_write_is_quarantined(self, store, monkeypatch):
        # The worker opens its own handle, so only the worker-loop check
        # can see that the write happens in the wrong process.
        attempt_job = supervisor._attempt_job

        def attempt_and_append(job, attempt, chaos):
            record = attempt_job(job, attempt, chaos)
            RunStore(store.root).append(record)
            return record

        monkeypatch.setattr(supervisor, "_attempt_job", attempt_and_append)
        outcomes = list(supervisor.SupervisedPool(workers=2, max_attempts=1).run(guard_jobs()))
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert not outcome.ok
            (attempt,) = outcome.failure.attempts
            assert attempt.outcome == "raised"
            assert "store write from a child process" in attempt.detail
        assert [record.key for record in store.records()] == ["first"]
