"""Tests for the parallel job executor and run-directory resume."""

import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.executor as executor_module
from repro.experiments import supervisor
from repro.experiments.chaos import ChaosSpec
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    assemble_sweep,
    default_workers,
    execute_jobs,
    series_label,
)
from repro.experiments.matrix import matrix_from_axes
from repro.experiments.runner import ExperimentRunner
from repro.results import RunRecord, RunStore, spec_fingerprint


@pytest.fixture
def small_matrix():
    return matrix_from_axes(
        "exec-test",
        "num_nodes",
        (9, 16),
        protocols=("spms",),
        base_config=SimulationConfig(
            num_nodes=9,
            packets_per_node=1,
            transmission_radius_m=15.0,
            grid_spacing_m=5.0,
            seed=9,
        ),
    )


class TestSerialExecution:
    def test_results_keyed_by_job(self, small_matrix):
        jobs = small_matrix.expand()
        results, report = execute_jobs(jobs, workers=1)
        assert set(results) == {j.key for j in jobs}
        assert report.total_jobs == len(jobs)
        assert report.executed == len(jobs)
        assert report.cache_hits == 0
        assert report.elapsed_s > 0.0
        for job in jobs:
            assert results[job.key].num_nodes == job.spec.config.num_nodes

    def test_progress_callback_sees_every_job(self, small_matrix):
        seen = []
        jobs = small_matrix.expand()
        execute_jobs(jobs, progress=lambda c: seen.append((c.job.key, c.from_cache)))
        assert seen == [(j.key, False) for j in jobs]

    def test_assemble_preserves_expansion_order(self, small_matrix):
        jobs = small_matrix.expand()
        results, _ = execute_jobs(jobs)
        sweep = assemble_sweep(jobs, results)
        assert sweep.parameter == "num_nodes"
        assert sweep.values == [9, 16]
        assert [r.num_nodes for r in sweep.results["spms"]] == [9, 16]

    def test_records_carry_provenance(self, small_matrix):
        jobs = small_matrix.expand()
        results, _ = execute_jobs(jobs)
        for job in jobs:
            record = results[job.key]
            assert isinstance(record, RunRecord)
            assert record.key == job.key
            assert record.axes == dict(job.axes)
            assert record.spec_fingerprint == spec_fingerprint(job.spec)
            assert record.seed == job.spec.config.seed
            assert record.wall_time_s > 0.0


def completions_of(jobs, **kwargs):
    """Every completion ``execute_jobs`` reports, in the order it lands."""
    completions = []
    execute_jobs(jobs, progress=completions.append, **kwargs)
    return completions


class TestStreaming:
    def test_stream_yields_each_completion_once(self, small_matrix):
        jobs = small_matrix.expand()
        completions = completions_of(jobs)
        assert [c.job.key for c in completions] == [j.key for j in jobs]
        assert all(not c.from_cache for c in completions)
        assert all(isinstance(c.record, RunRecord) for c in completions)

    def test_stream_is_lazy(self, small_matrix, monkeypatch):
        # Progress sees each completion as it lands, before the next job runs.
        jobs = small_matrix.expand()
        attempted = []
        attempt_job = supervisor._attempt_job

        def counting(job, attempt, chaos):
            attempted.append(job.key)
            return attempt_job(job, attempt, chaos)

        monkeypatch.setattr(supervisor, "_attempt_job", counting)
        seen = []
        execute_jobs(jobs, progress=lambda c: seen.append(list(attempted)))
        assert seen == [[jobs[0].key], [jobs[0].key, jobs[1].key]]

    def test_stream_writes_through_to_store(self, small_matrix, tmp_path):
        jobs = small_matrix.expand()
        store = RunStore(tmp_path / "run")
        completions = completions_of(jobs, store=store)
        stored = list(store.records())
        assert [r.key for r in stored] == [c.job.key for c in completions]
        assert stored[0].to_dict() == completions[0].record.to_dict()

    def test_stream_without_resume_never_fingerprints(
        self, small_matrix, tmp_path, monkeypatch
    ):
        # The non-resume path (every sweep without --resume, and the fleet
        # runner) must not pay for fingerprinting specs or reading the index.
        def forbidden(*args, **kwargs):
            raise AssertionError("resume lookup on the non-resume path")

        monkeypatch.setattr(executor_module, "spec_fingerprint", forbidden)
        monkeypatch.setattr(RunStore, "records_by_fingerprint", forbidden)
        store = RunStore(tmp_path / "run")
        completions = completions_of(small_matrix.expand(), store=store)
        assert all(c.ok and not c.from_cache for c in completions)


class TestResume:
    def test_resume_serves_the_run_dir_without_appending(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        first, report1 = execute_jobs(jobs, store=store)
        assert report1.executed == len(jobs)

        for _ in range(2):  # resuming twice never duplicates records
            second, report2 = execute_jobs(jobs, store=store, resume=True)
            assert report2.executed == 0
            assert report2.cache_hits == len(jobs)
            assert len(store) == len(jobs)
            for key in first:
                assert first[key].canonical_json() == second[key].canonical_json()

    @pytest.fixture
    def killed_writer_store(self, small_matrix, tmp_path):
        """Two jobs stored whole, plus the third job's record line as bytes."""
        jobs = matrix_from_axes(
            "resume-killed",
            "num_nodes",
            (9, 16, 25),
            protocols=("spms",),
            base_config=small_matrix.base_config,
        ).expand()
        root = tmp_path / "run"
        execute_jobs(jobs[:2], store=RunStore(root))
        third, _ = execute_jobs(jobs[2:])
        line = third[jobs[2].key].to_json() + "\n"
        return jobs, root, line

    def test_resume_serves_a_record_whose_writer_was_killed(self, killed_writer_store):
        # A writer killed right after its write leaves the whole line and
        # nothing else: that record is stored, so resume serves it.
        jobs, root, line = killed_writer_store
        with (root / "records.jsonl").open("a") as handle:
            handle.write(line)
        _, report = execute_jobs(jobs, store=RunStore(root), resume=True)
        assert (report.executed, report.cache_hits) == (0, 3)
        assert len(RunStore(root)) == 3

    def test_resume_reruns_a_torn_record_once(self, killed_writer_store):
        jobs, root, line = killed_writer_store
        torn = line[: len(line) // 2]
        with (root / "records.jsonl").open("a") as handle:
            handle.write(torn)
        simulated = []

        def progress(completion):
            if not completion.from_cache:
                simulated.append(completion.job.key)

        _, report = execute_jobs(
            jobs, store=RunStore(root), resume=True, progress=progress
        )
        assert simulated == [jobs[2].key]
        assert (report.executed, report.cache_hits) == (1, 2)
        stored = RunStore(root)
        assert sorted(r.key for r in stored.records()) == sorted(j.key for j in jobs)
        assert stored.partial_path.read_text() == torn + "\n"

    def test_resume_needs_a_store(self, small_matrix):
        with pytest.raises(ValueError, match="resume needs a store"):
            execute_jobs(small_matrix.expand(), resume=True)

    def test_resume_reruns_changed_specs(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        execute_jobs(jobs, store=store)
        reseeded = matrix_from_axes(
            "exec-test",
            "num_nodes",
            (9, 16),
            protocols=("spms",),
            base_config=small_matrix.base_config.with_overrides(seed=10),
        ).expand()
        _, report = execute_jobs(reseeded, store=store, resume=True)
        assert report.cache_hits == 0
        assert report.executed == len(reseeded)
        assert len(store) == len(jobs) + len(reseeded)

    def test_resume_restamps_records_of_another_matrix(self, small_matrix, tmp_path):
        # Two matrices can share runs (the fingerprint hashes the spec, not
        # the job key — under "shared" seeding identical specs can come from
        # differently-named grids); a record served to a different sweep
        # must carry *that* sweep's key and axes, not the original runner's,
        # and is appended so the run directory describes both sweeps.
        def expand(name):
            return matrix_from_axes(
                name,
                "num_nodes",
                (9, 16),
                protocols=("spms",),
                base_config=small_matrix.base_config,
                seed_policy="shared",
            ).expand()

        store = RunStore(tmp_path / "run")
        jobs = expand("first-name")
        execute_jobs(jobs, store=store)
        renamed = expand("other-name")
        assert [spec_fingerprint(j.spec) for j in renamed] == [
            spec_fingerprint(j.spec) for j in jobs
        ]
        completions = completions_of(renamed, store=store, resume=True)
        assert all(c.from_cache for c in completions)
        for completion in completions:
            assert completion.record.key == completion.job.key
            assert completion.record.key.startswith("other-name/")
            assert completion.record.axes == dict(completion.job.axes)
        assert len(store) == 2 * len(jobs)
        assert {r.key for r in store.records()} == {
            j.key for j in jobs + renamed
        }
        # The re-stamped records now belong to the run dir: resuming the
        # renamed matrix again serves them as is.
        execute_jobs(renamed, store=store, resume=True)
        assert len(store) == 2 * len(jobs)

    def test_restamping_changes_provenance_only(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        job = small_matrix.expand()[0]
        original = store.append(
            ExperimentRunner(job.spec).run_record(key="elsewhere", axes={"spec": "x"})
        )
        (completion,) = completions_of([job], store=store, resume=True)
        served = completion.record.to_dict()
        assert (served.pop("key"), served.pop("axes")) == (job.key, dict(job.axes))
        expected = original.to_dict()
        del expected["key"], expected["axes"]
        assert served == expected

    def test_pooled_resume_runs_only_the_missing_jobs(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = matrix_from_axes(
            "pool-resume",
            "num_nodes",
            (9, 16, 25),
            protocols=("spms",),
            base_config=small_matrix.base_config,
        ).expand()
        clean, _ = execute_jobs(jobs)
        execute_jobs(jobs[:1], store=store)
        records, report = execute_jobs(jobs, workers=2, store=store, resume=True)
        assert (report.cache_hits, report.executed) == (1, len(jobs) - 1)
        assert len(store) == len(jobs)
        for job in jobs:
            assert records[job.key].canonical_json() == clean[job.key].canonical_json()

    def test_resume_reruns_only_quarantined_jobs(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        jobs = small_matrix.expand()
        _, report = execute_jobs(
            jobs, store=store, chaos=ChaosSpec.parse("0:raise"), max_attempts=1
        )
        assert report.quarantined == 1
        simulated = []

        def progress(completion):
            if not completion.from_cache:
                simulated.append(completion.job.key)

        records, resumed = execute_jobs(
            jobs, store=store, resume=True, progress=progress
        )
        assert simulated == [jobs[0].key]
        assert resumed.executed == 1
        assert resumed.cache_hits == len(jobs) - 1
        assert set(records) == {j.key for j in jobs}
        assert len(store) == len(jobs)

    def test_fingerprint_sensitive_to_every_knob(self, small_matrix):
        job = small_matrix.expand()[0]
        base = spec_fingerprint(job.spec)
        reseeded = small_matrix.base_config.with_overrides(seed=123)
        other = matrix_from_axes(
            "exec-test", "num_nodes", (9,), protocols=("spms",), base_config=reseeded
        ).expand()[0]
        assert spec_fingerprint(other.spec) != base
        assert spec_fingerprint(job.spec) == base  # stable


class TestSeriesLabels:
    def test_single_axis_jobs_keep_bare_protocol_labels(self, small_matrix):
        for job in small_matrix.expand():
            assert series_label(job) == job.protocol

    def test_secondary_axes_are_folded_into_the_label(self):
        from repro.experiments.matrix import ScenarioMatrix

        matrix = ScenarioMatrix(
            name="label-test",
            axes={"num_nodes": (9,), "placement": ("grid", "random")},
            protocols=("spms",),
            base_config=SimulationConfig(
                num_nodes=9, packets_per_node=1, transmission_radius_m=15.0,
                grid_spacing_m=5.0, seed=3,
            ),
        )
        labels = [series_label(job) for job in matrix.expand()]
        assert labels == ["spms[placement=grid]", "spms[placement=random]"]


class TestWorkerConfiguration:
    def test_default_workers_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert default_workers() == 4
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "garbage")
        assert default_workers() == 1

    def test_unparseable_workers_warns_once(self, monkeypatch, capsys):
        monkeypatch.setattr(executor_module, "_workers_warning_emitted", False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "four")
        assert default_workers() == 1
        err = capsys.readouterr().err
        assert "REPRO_SWEEP_WORKERS='four' is not an integer" in err
        assert "falling back to serial" in err
        # The warning fires once per process, not once per sweep call.
        assert default_workers() == 1
        assert capsys.readouterr().err == ""

    def test_parseable_workers_never_warn(self, monkeypatch, capsys):
        monkeypatch.setattr(executor_module, "_workers_warning_emitted", False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "2")
        assert default_workers() == 2
        assert capsys.readouterr().err == ""


class TestFaultTolerance:
    def test_serial_rejects_job_timeout(self, small_matrix):
        with pytest.raises(ValueError, match="job_timeout requires a worker pool"):
            execute_jobs(small_matrix.expand(), workers=1, job_timeout=5.0)

    def test_serial_rejects_pool_only_chaos(self, small_matrix):
        chaos = ChaosSpec.parse("0:hang")
        with pytest.raises(ValueError, match="hang/kill"):
            execute_jobs(small_matrix.expand(), workers=1, chaos=chaos)

    def test_serial_raise_chaos_is_fine(self, small_matrix):
        # raise faults are in-process; no pool needed.
        chaos = ChaosSpec.parse("0:raise:1")
        completions = completions_of(small_matrix.expand(), chaos=chaos)
        assert all(c.ok for c in completions)
        assert completions[0].attempts == 2

    def test_quarantined_jobs_surface_in_report_and_store(self, small_matrix, tmp_path):
        store = RunStore(tmp_path / "run")
        chaos = ChaosSpec.parse("0:raise")
        jobs = small_matrix.expand()
        records, report = execute_jobs(
            jobs, chaos=chaos, max_attempts=2, store=store
        )
        assert set(records) == {jobs[1].key}
        assert report.quarantined == 1
        assert report.executed == 1
        assert report.failed_attempts == 2
        assert len(report.failures) == 1
        assert report.failures[0].key == jobs[0].key
        # The failure landed in the sidecar; the record store holds only the
        # survivor.
        assert [f.key for f in store.failures()] == [jobs[0].key]
        assert [r.key for r in store.records()] == [jobs[1].key]

    def test_progress_sees_quarantined_jobs_with_none_record(self, small_matrix):
        seen = []
        chaos = ChaosSpec.parse("1:raise")
        execute_jobs(
            small_matrix.expand(),
            chaos=chaos,
            max_attempts=1,
            progress=lambda c: seen.append((c.job.index, c.record)),
        )
        assert [(index, record is None) for index, record in seen] == [
            (0, False), (1, True),
        ]

    def test_retried_success_counts_in_report(self, small_matrix):
        chaos = ChaosSpec.parse("1:raise:1")
        records, report = execute_jobs(small_matrix.expand(), chaos=chaos)
        assert len(records) == 2
        assert report.retried == 1
        assert report.failed_attempts == 1
        assert report.quarantined == 0

    def test_keyboard_interrupt_returns_partial_report(self, small_matrix):
        jobs = small_matrix.expand()
        calls = []

        def explode(completion):
            calls.append(completion.job.key)
            if len(calls) == 1:
                raise KeyboardInterrupt

        records, report = execute_jobs(jobs, progress=explode)
        assert report.interrupted
        assert len(records) == 1
        assert report.completed == 1

    def test_sigterm_interrupts_a_blocked_pool(self, small_matrix):
        # Both workers hang and no job timeout is set, so the supervisor
        # blocks on the worker pipes with no timeout at all.  SIGTERM must
        # still reach it, tear the pool down and return a partial report.
        timer = threading.Timer(1.0, os.kill, args=(os.getpid(), signal.SIGTERM))
        started = time.monotonic()
        timer.start()
        try:
            records, report = execute_jobs(
                small_matrix.expand(),
                workers=2,
                chaos=ChaosSpec.parse("0:hang,1:hang"),
            )
        finally:
            timer.cancel()
        assert report.interrupted
        assert report.completed == 0 and records == {}
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 10.0

    @settings(max_examples=8, deadline=None)
    @given(
        positions=st.sets(st.integers(min_value=0, max_value=3), max_size=3),
        parallel=st.booleans(),
    )
    def test_surviving_records_are_byte_identical(self, positions, parallel):
        # THE tentpole invariant as a property: inject persistent raise
        # faults at arbitrary grid positions, serial or parallel — every
        # surviving record must match the fault-free run byte for byte.
        jobs = matrix_from_axes(
            "prop-test",
            "num_nodes",
            (9, 16, 25, 36),
            protocols=("spms",),
            base_config=SimulationConfig(
                num_nodes=9,
                packets_per_node=1,
                transmission_radius_m=15.0,
                grid_spacing_m=5.0,
                seed=77,
            ),
        ).expand()
        if not hasattr(self, "_baseline"):
            clean, _ = execute_jobs(jobs)
            type(self)._baseline = {
                key: record.canonical_json() for key, record in clean.items()
            }
        chaos = (
            ChaosSpec.parse(",".join(f"{i}:raise" for i in sorted(positions)))
            if positions
            else None
        )
        records, report = execute_jobs(
            jobs,
            workers=2 if parallel else 1,
            chaos=chaos,
            max_attempts=1,
        )
        assert report.quarantined == len(positions)
        survivors = [job for job in jobs if job.index not in positions]
        assert set(records) == {job.key for job in survivors}
        for job in survivors:
            assert records[job.key].canonical_json() == self._baseline[job.key]
