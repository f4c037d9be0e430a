"""The one job runner: sweeps, spec fleets and figures all call :func:`execute_jobs`.

The executor takes a flat job list — the expansion of a
:class:`repro.experiments.matrix.ScenarioMatrix`, or one job per spec file
of a ``repro run --spec-dir`` fleet — and runs it either serially
(``workers <= 1``; zero multiprocessing overhead) or across a **supervised**
worker pool (:mod:`repro.experiments.supervisor`).  Because every job is
self-contained and carries its own derived seed, the two paths produce
**identical** results — the determinism regression tests assert byte-equality
of the canonical record renderings.

Job failure is an outcome, not an abort: a raising job is retried (bounded,
deterministic backoff) and quarantined into a structured
:class:`~repro.results.JobFailure` if it keeps failing; a hung job is killed
at ``job_timeout`` and its worker respawned; a worker that dies (SIGKILL,
segfault) is respawned with its in-flight job requeued.  Every job ends in
exactly one :class:`~repro.experiments.supervisor.JobCompletion`, which
*progress* sees as it lands.  Quarantined jobs surface in the
:class:`ExecutionReport` and in the run directory's ``failures.jsonl``
sidecar — the run always completes every job it can.  Surviving records are
byte-identical to a fault-free run no matter which other jobs failed (the
fault-injection tests pin this over canonical bytes).  ``KeyboardInterrupt``
and ``SIGTERM`` tear the pool down and return a partial report.

Workers reduce their :class:`~repro.metrics.collector.MetricsCollector` to a
compact :class:`~repro.metrics.summary.MetricsSummary` *in-process* and ship a
single :class:`~repro.results.RunRecord` back per job, so the IPC payload is
O(1) instead of O(deliveries) — ``benchmarks/test_ipc_payload.py`` pins the
reduction.

Results are keyed by the job's stable key (never by completion order).  An
optional :class:`~repro.results.RunStore` receives every completed record
append-only (the run directory ``repro run --spec-dir`` and ``repro report``
share), and ``resume=True`` serves the jobs whose spec fingerprint that run
directory already holds instead of simulating them again.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.experiments.chaos import ChaosSpec
from repro.experiments.matrix import SweepJob
from repro.experiments.supervisor import (
    DEFAULT_MAX_ATTEMPTS,
    JobCompletion,
    SupervisedPool,
    run_serial,
)
from repro.results import (
    JobFailure,
    RunRecord,
    RunStore,
    SweepResult,
    spec_fingerprint,
)

#: Environment variable consulted for the default worker count (read by
#: :func:`repro.experiments.figures.render`, so `REPRO_SWEEP_WORKERS=4 pytest
#: benchmarks` parallelises every figure without code changes).
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"

#: Called with each job's completion as it lands.
ProgressCallback = Callable[[JobCompletion], None]

_workers_warning_emitted = False


def default_workers() -> int:
    """Worker count from ``REPRO_SWEEP_WORKERS`` (defaults to serial).

    An unparseable value falls back to serial but **warns once** on stderr —
    a typo like ``REPRO_SWEEP_WORKERS=four`` silently serialising a long
    sweep is exactly the kind of quiet degradation this repo lints against.
    """
    global _workers_warning_emitted
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        if not _workers_warning_emitted:
            _workers_warning_emitted = True
            print(
                f"repro: warning: {WORKERS_ENV_VAR}={raw!r} is not an integer; "
                "falling back to serial execution",
                file=sys.stderr,
            )
        return 1


@dataclass
class ExecutionReport:
    """Bookkeeping of one :func:`execute_jobs` call.

    Attributes:
        total_jobs: Jobs requested.
        executed: Jobs actually simulated to a successful record.
        cache_hits: Jobs served from the run directory on resume.
        retried: Successful jobs that needed more than one attempt.
        quarantined: Jobs that exhausted every attempt (see *failures*).
        failed_attempts: Total failed attempts across the run (retries that
            eventually succeeded plus every attempt of quarantined jobs).
        workers: Worker processes used (1 = serial in-process).
        elapsed_s: Wall-clock duration of the whole execution.
        interrupted: Whether the run was cut short by SIGINT/SIGTERM; the
            report then covers only the jobs completed before shutdown.
        failures: The quarantined jobs' structured failure records.
    """

    total_jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    retried: int = 0
    quarantined: int = 0
    failed_attempts: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    interrupted: bool = False
    failures: List[JobFailure] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Jobs that produced a record (simulated or resumed)."""
        return self.executed + self.cache_hits

    def add(self, completion: JobCompletion) -> None:
        """Account for one job's outcome."""
        self.failed_attempts += len(completion.failed_attempts)
        if completion.failure is not None:
            self.quarantined += 1
            self.failures.append(completion.failure)
        elif completion.from_cache:
            self.cache_hits += 1
        else:
            self.executed += 1
            if completion.attempts > 1:
                self.retried += 1


def _resumed_record(store: RunStore, job: SweepJob) -> Optional[RunRecord]:
    """The stored record that serves *job* on resume, or ``None`` to run it.

    A stored record of the job itself (same spec fingerprint, key and axes)
    is served as is, so resuming twice appends nothing.  Otherwise the first
    stored record of the same spec is re-stamped with this job's key and
    axes and appended: the fingerprint identifies the *spec*, not the job,
    so two matrices can share a run (fig06 and fig06-placement's
    ``placement=grid`` points do), and the served record's provenance must
    describe this sweep, not the one that first ran it.
    """
    stored = store.records_by_fingerprint(spec_fingerprint(job.spec))
    if not stored:
        return None
    axes = dict(job.axes)
    for record in stored:
        if record.key == job.key and record.axes == axes:
            return record
    return store.append(dataclasses.replace(stored[0], key=job.key, axes=axes))


def execute_jobs(
    jobs: Sequence[SweepJob],
    workers: int = 1,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    store: Optional[RunStore] = None,
    job_timeout: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    chaos: Optional[ChaosSpec] = None,
) -> Tuple[Dict[str, RunRecord], ExecutionReport]:
    """Run every job and return ``(records_by_key, report)``.

    Resumed jobs complete first (an index lookup each); the remaining jobs
    then complete in expansion order when running serially, or in
    completion order from the supervised pool.  Every job completes exactly
    once, and *progress* is called with its :class:`JobCompletion` as it
    lands — a quarantined job's has ``record=None`` and a
    :class:`~repro.results.JobFailure` attached.

    Args:
        jobs: Expanded sweep jobs (any order; results are keyed, not ordered).
        workers: Worker processes; ``<= 1`` runs serially in-process.
        resume: Serve jobs whose spec fingerprint *store* already holds
            instead of simulating them (see :func:`_resumed_record`).
            Quarantined jobs have no record, so a resume re-runs them.
        progress: Called once per job with its completion.
        store: Optional run store; every completed record it does not
            already hold is appended, so the run directory describes the
            full requested set.  Appends happen in the parent under the
            store's advisory file lock, so several executors (or CLI runs)
            may share one ``--run-dir`` concurrently without losing
            records.  Quarantined jobs are appended to the store's
            ``failures.jsonl`` sidecar instead — canonical record bytes stay
            untouched.
        job_timeout: Per-attempt wall-clock budget in seconds.  Requires a
            worker pool (``workers >= 2``): a serial run has no supervisor
            to kill a hung attempt.
        max_attempts: Total tries per job before quarantine (>= 1).
        chaos: Optional deterministic fault-injection spec (tests and the
            ``--chaos`` dev flag).  ``hang``/``kill`` injections require a
            worker pool for the same reason *job_timeout* does.

    ``KeyboardInterrupt`` (and ``SIGTERM``, when running on the main thread)
    shuts down gracefully: the pool is torn down — supervised workers are
    daemonic and explicitly killed, so no children leak — records completed
    so far are already flushed to the store, and a *partial* report is
    returned with ``interrupted=True`` instead of dying mid-append.

    Raises:
        ValueError: When *resume* is requested without a *store*, or
            *job_timeout* or a pool-only chaos spec is combined with serial
            execution.
    """
    if resume and store is None:
        raise ValueError(
            "resume needs a store: it serves the records the run directory "
            "already holds"
        )
    workers = max(1, int(workers))
    if workers < 2:
        if job_timeout is not None:
            raise ValueError(
                "job_timeout requires a worker pool (workers >= 2); a serial "
                "run has no supervisor to kill a hung attempt"
            )
        if chaos is not None and chaos.needs_pool():
            raise ValueError(
                f"chaos spec {chaos.describe()!r} injects hang/kill faults, "
                "which act on worker processes; use workers >= 2"
            )
    started = time.perf_counter()
    report = ExecutionReport(total_jobs=len(jobs), workers=workers)
    records: Dict[str, RunRecord] = {}

    def complete(completion: JobCompletion) -> None:
        if store is not None and completion.failure is not None:
            store.append_failure(completion.failure)
        elif store is not None and not completion.from_cache:
            store.append(completion.record)
        if completion.record is not None:
            records[completion.job.key] = completion.record
        report.add(completion)
        if progress is not None:
            progress(completion)

    sigterm_installed = False
    previous_sigterm = None

    def _sigterm_to_interrupt(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        try:
            previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_to_interrupt)
            sigterm_installed = True
        except (ValueError, OSError):  # pragma: no cover - restricted envs
            sigterm_installed = False
    outcomes: Optional[Generator[JobCompletion, None, None]] = None
    try:
        pending: List[SweepJob] = []
        for job in jobs:
            hit = _resumed_record(store, job) if resume else None
            if hit is None:
                pending.append(job)
            else:
                complete(JobCompletion(job=job, record=hit, attempts=0, from_cache=True))
        # A pool is only worth its process overhead when there is real
        # parallelism to exploit — except that timeout enforcement and
        # hang/kill chaos *need* worker processes even for a single job.
        use_pool = workers >= 2 and bool(pending) and (
            len(pending) > 1
            or job_timeout is not None
            or (chaos is not None and chaos.needs_pool())
        )
        if use_pool:
            pool = SupervisedPool(
                workers=workers,
                job_timeout_s=job_timeout,
                max_attempts=max_attempts,
                chaos=chaos,
            )
            outcomes = pool.run(pending)
        else:
            outcomes = run_serial(pending, max_attempts=max_attempts, chaos=chaos)
        for outcome in outcomes:
            complete(outcome)
    except KeyboardInterrupt:
        # Graceful shutdown: completed records were flushed as they arrived,
        # so the partial report is durable.
        report.interrupted = True
    finally:
        # Closing the generator runs the supervisor's ``finally`` (kill +
        # join every worker), interrupted or not.
        if outcomes is not None:
            outcomes.close()
        if sigterm_installed:
            signal.signal(
                signal.SIGTERM,
                previous_sigterm if previous_sigterm is not None else signal.SIG_DFL,
            )
    report.elapsed_s = time.perf_counter() - started
    return records, report


def series_label(job: SweepJob) -> str:
    """The sweep-series name of a job: its protocol, plus secondary axes.

    Single-axis matrices keep the historical bare-protocol labels; a matrix
    with secondary axes (config or non-config) gets one series per
    (protocol, secondary coordinates) combination, e.g.
    ``"spms[placement=random]"``.
    """
    extras = {k: v for k, v in job.axes.items() if k != job.parameter}
    if not extras:
        return job.protocol
    coords = ",".join(f"{axis}={value}" for axis, value in sorted(extras.items()))
    return f"{job.protocol}[{coords}]"


def assemble_sweep(
    jobs: Sequence[SweepJob], records: Dict[str, RunRecord]
) -> SweepResult:
    """Fold keyed job records into a :class:`SweepResult`.

    Rows follow the expansion order of *jobs*, so serial and parallel
    executions (whose completion orders differ) assemble identical sweeps.
    Jobs missing from *records* (skipped, quarantined, failed upstream) are
    tolerated — their cells simply stay empty.
    """
    if not jobs:
        return SweepResult(parameter="value")
    sweep = SweepResult(parameter=jobs[0].parameter)
    for job in jobs:
        if job.key in records:
            sweep.add(series_label(job), job.value, records[job.key])
    return sweep
