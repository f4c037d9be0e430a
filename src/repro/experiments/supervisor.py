"""Supervised worker pool: timeouts, crash respawn, deterministic retries.

The plain ``multiprocessing.Pool`` the executor used through PR 8 had a
fault model of "abort everything": one raising job propagated out of
``imap_unordered`` and killed the sweep; a SIGKILLed worker deadlocked or
crashed the pool; a hung simulation hung the parent forever.  This module
replaces it with a small supervisor in which **job failure is a recorded
outcome, not a process-killing exception**:

* every job gets a wall-clock budget (``job_timeout_s``) — a hung attempt's
  worker is SIGKILLed and the job retried;
* a worker that dies under a job (killed, segfaulted, OOM) is detected via
  its pipe, respawned, and the in-flight job is requeued;
* retries are bounded (``max_attempts``) with **deterministic** capped
  exponential backoff — no jitter, no entropy, so a supervised run is as
  replayable as a serial one;
* a job that fails every attempt is *quarantined*: the sweep continues and
  the job becomes a structured :class:`~repro.results.failures.JobFailure`
  carrying its full attempt trail.

:class:`SupervisedPool` and its serial twin :func:`run_serial` both yield
one :class:`JobCompletion` per job and keep their attempt trails in the same
:class:`_AttemptLog`.  Neither is called directly outside this package's
executor: :func:`repro.experiments.executor.execute_jobs` is the one runner.

The key invariant, which the fault-injection tests state over canonical
record bytes: because jobs are independently spawn-seeded and self-contained,
**surviving records are byte-identical no matter which other jobs fail, time
out, retry, or run on a respawned worker** — serial or parallel, with or
without injected faults.

Supervision uses one duplex pipe per worker (no shared queue): a worker
SIGKILLed mid-``send`` can corrupt only its own pipe, which the supervisor
discards wholesale when it respawns the worker — a shared result queue would
be poisoned for everyone.  Workers are daemonic, so even a crashed parent
cannot leak simulation processes.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import signal
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.chaos import ChaosSpec
from repro.experiments.matrix import SweepJob
from repro.experiments.runner import ExperimentRunner
from repro.results import JobAttempt, JobFailure, RunRecord

#: Default attempt budget per job (1 first try + 2 retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Deterministic backoff: ``BASE * 2**(attempt - 2)`` seconds before retry
#: *attempt*, capped.  No jitter — grid jobs are seed-isolated, so there is
#: no thundering herd to stagger and determinism wins.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def retry_backoff_s(attempt: int) -> float:
    """Seconds to wait before starting *attempt* (1-based; attempt 1 is 0)."""
    if attempt <= 1:
        return 0.0
    return min(BACKOFF_BASE_S * (2.0 ** (attempt - 2)), BACKOFF_CAP_S)


@dataclass(frozen=True)
class JobCompletion:
    """The one outcome of one job: its record, or its quarantine.

    Exactly one of ``record`` and ``failure`` is set.

    Attributes:
        job: The job this outcome belongs to.
        record: Its canonical run record, or ``None`` if the job was
            quarantined (see *failure*).
        attempts: Attempts consumed (0 for a record served from the run
            directory, 1 for a clean first try, >1 when retries were needed).
        failed_attempts: The failed tries that preceded the outcome.
        failure: The structured quarantine record, when every attempt failed.
        from_cache: Whether the record was served from the run directory
            (``resume=True``) instead of simulated.
    """

    job: SweepJob
    record: Optional[RunRecord]
    attempts: int = 1
    failed_attempts: Tuple[JobAttempt, ...] = ()
    failure: Optional[JobFailure] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.record is not None


class _AttemptLog:
    """The failed-attempt trails of unfinished jobs, and each job's verdict.

    Serial and pooled runs share it, so both retry and quarantine the same
    way: a failed attempt is a retry until *max_attempts* is spent.
    """

    def __init__(self, max_attempts: int) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self._trails: Dict[int, List[JobAttempt]] = {}

    def succeeded(self, job: SweepJob, attempt: int, record: RunRecord) -> JobCompletion:
        trail = tuple(self._trails.pop(job.index, ()))
        return JobCompletion(job=job, record=record, attempts=attempt, failed_attempts=trail)

    def failed(
        self, job: SweepJob, attempt: int, outcome: str, detail: str, elapsed_s: float
    ) -> Optional[JobCompletion]:
        """Log a failed attempt: the quarantine once the budget is spent,
        ``None`` while the job has attempts left."""
        trail = self._trails.setdefault(job.index, [])
        trail.append(
            JobAttempt(attempt=attempt, outcome=outcome, detail=detail, elapsed_s=elapsed_s)
        )
        if attempt < self.max_attempts:
            return None
        attempts = tuple(self._trails.pop(job.index))
        failure = JobFailure(
            key=job.key,
            index=job.index,
            matrix=job.matrix,
            protocol=job.protocol,
            attempts=attempts,
        )
        return JobCompletion(
            job=job, record=None, attempts=attempt, failed_attempts=attempts, failure=failure
        )


def _attempt_job(job: SweepJob, attempt: int, chaos: Optional[ChaosSpec]) -> RunRecord:
    """Run one attempt of *job* (chaos fires first, so faults never touch
    another job's RNG streams)."""
    if chaos is not None:
        chaos.apply(job.index, attempt)
    runner = ExperimentRunner(job.spec)
    return runner.run_record(key=job.key, axes=job.axes)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _worker_main(conn, chaos: Optional[ChaosSpec]) -> None:
    """Worker loop: receive ``(job, attempt)``, send one result back.

    Module-level (fork/spawn-safe).  No store handle is reachable from here:
    :class:`~repro.results.RunStore` refuses to pickle, and the test suite's
    store-write guard fails any store write made under this loop.  The *only*
    payload shipped back per job is the compact run record or the exception
    text — the supervisor never unpickles collectors.

    A worker ignores SIGINT and SIGTERM: Ctrl-C (or a SIGTERM) can reach the
    whole process group, and the parent alone turns it into a graceful
    shutdown that SIGKILLs workers.  Each worker would otherwise inherit the
    parent's SIGTERM-to-``KeyboardInterrupt`` handler from the fork.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):  # parent went away; nothing to clean up
            return
        if task is None:
            return
        job, attempt = task
        started = time.perf_counter()
        try:
            record = _attempt_job(job, attempt, chaos)
        except Exception as exc:
            # Converted into a JobAttempt by the supervisor — failures are
            # data, not control flow (the R701 contract).
            message = ("error", job.index, attempt, _describe(exc), time.perf_counter() - started)
        else:
            message = ("ok", job.index, attempt, record, time.perf_counter() - started)
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):  # parent shut down mid-send
            return


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap on Linux), otherwise spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


@dataclass
class _Task:
    """One dispatched attempt: the job, which try this is, and its budget."""

    job: SweepJob
    attempt: int
    started: float
    deadline: Optional[float]


class _Worker:
    """One supervised worker process plus its private duplex pipe."""

    def __init__(
        self,
        context: multiprocessing.context.BaseContext,
        chaos: Optional[ChaosSpec],
    ) -> None:
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main, args=(child_conn, chaos), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[_Task] = None

    def dispatch(self, task: _Task) -> bool:
        """Send an attempt to the worker; false if the pipe is already dead."""
        try:
            self.conn.send((task.job, task.attempt))
        except (BrokenPipeError, OSError):
            return False
        self.task = task
        return True

    def retire(self, kill: bool = False) -> Optional[int]:
        """Shut the worker down (SIGKILL when *kill*); returns the exitcode."""
        if kill and self.process.is_alive():
            self.process.kill()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - kill is not ignorable
            self.process.kill()
            self.process.join(timeout=5.0)
        return self.process.exitcode


class SupervisedPool:
    """A worker pool whose jobs can fail, hang or die without aborting it.

    The pool's run state — its workers, the retry queue and the attempt
    trails — lives on the instance, so one instance runs one job list.

    Args:
        workers: Worker processes to keep alive (>= 1).
        job_timeout_s: Per-attempt wall-clock budget; ``None`` disables
            timeout supervision (a hung job then hangs its worker forever,
            exactly like the pre-supervisor executor).
        max_attempts: Total tries per job before quarantine (>= 1).
        chaos: Optional fault-injection spec, forwarded into every worker.
    """

    def __init__(
        self,
        workers: int,
        job_timeout_s: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"a supervised pool needs >= 1 worker, got {workers}")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be positive, got {job_timeout_s}")
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.chaos = chaos
        self._log = _AttemptLog(max_attempts)
        self._context = _pool_context()
        self._pool: List[_Worker] = []
        # Min-heap of (ready_at, enqueue order, attempt, job): backoff
        # scheduling with FIFO tie-breaks, so retry order is deterministic.
        self._waiting: List[Tuple[float, int, int, SweepJob]] = []
        self._order = itertools.count()

    def run(self, jobs: Sequence[SweepJob]) -> Iterator[JobCompletion]:
        """Run every job, yielding terminal outcomes in completion order.

        Every job yields exactly one :class:`JobCompletion` — succeeded or
        quarantined — so callers can stream completions without tracking the
        retry machinery.  Workers are always torn down on exit, normal or not
        (generator ``close()`` included), so an interrupted sweep leaks no
        children.
        """
        now = time.monotonic()
        for job in jobs:
            self._enqueue(now, 1, job)
        pool_size = min(self.workers, max(1, len(jobs)))
        self._pool = [_Worker(self._context, self.chaos) for _ in range(pool_size)]
        try:
            while self._waiting or any(worker.task is not None for worker in self._pool):
                now = time.monotonic()
                self._dispatch_ready(now)
                self._wait(now)
                for slot in range(len(self._pool)):
                    outcome = self._collect(slot)
                    if outcome is not None:
                        yield outcome
        finally:
            for worker in self._pool:
                worker.retire(kill=True)

    # ------------------------------------------------------- loop plumbing

    def _enqueue(self, ready_at: float, attempt: int, job: SweepJob) -> None:
        heapq.heappush(self._waiting, (ready_at, next(self._order), attempt, job))

    def _respawn(self, slot: int, kill: bool = False) -> Optional[int]:
        """Replace the worker in *slot* with a fresh one; the old exitcode.

        The one path by which a worker is lost: it died idle, its pipe broke
        under a send, it died under a job, or it overran the job timeout.
        """
        exitcode = self._pool[slot].retire(kill=kill)
        self._pool[slot] = _Worker(self._context, self.chaos)
        return exitcode

    def _dispatch_ready(self, now: float) -> None:
        for slot, worker in enumerate(self._pool):
            if not self._waiting or self._waiting[0][0] > now:
                break
            if worker.task is not None:
                continue
            if not worker.process.is_alive():
                # Died idle (between jobs): no attempt to charge, just respawn.
                self._respawn(slot)
                worker = self._pool[slot]
            ready_at, _, attempt, job = heapq.heappop(self._waiting)
            deadline = (
                now + self.job_timeout_s if self.job_timeout_s is not None else None
            )
            if not worker.dispatch(_Task(job=job, attempt=attempt, started=now, deadline=deadline)):
                # The pipe broke under the send: respawn and requeue without
                # burning an attempt — the job never started.
                self._respawn(slot)
                self._enqueue(ready_at, attempt, job)

    def _wait(self, now: float) -> None:
        """Block until the next real wake-up, without polling: a busy worker's
        pipe turning readable (a result, or EOF when it dies), the earliest
        attempt deadline, or the queue head's ready time — counted only while
        a worker is idle to take that job, since it cannot start before."""
        busy = [worker for worker in self._pool if worker.task is not None]
        wake_ups = [worker.task.deadline for worker in busy if worker.task.deadline is not None]
        if self._waiting and len(busy) < len(self._pool):
            wake_ups.append(self._waiting[0][0])
        timeout = max(0.0, min(wake_ups) - now) if wake_ups else None
        if busy:
            mp_connection.wait([worker.conn for worker in busy], timeout=timeout)
        elif timeout:
            time.sleep(timeout)

    def _collect(self, slot: int) -> Optional[JobCompletion]:
        """The outcome the worker in *slot* has for its attempt, if any yet:
        its result, its death, or its attempt's overrun deadline."""
        worker = self._pool[slot]
        task = worker.task
        if task is None:
            return None
        now = time.monotonic()
        if worker.conn.poll(0):
            try:
                message = worker.conn.recv()
            except Exception as exc:
                # EOF (worker died), or a pipe poisoned by a kill mid-send:
                # the pipe is discarded with the worker either way, and the
                # attempt is recorded as a worker crash — never dropped.
                exitcode = self._respawn(slot)
                detail = f"worker died under the job (exitcode {exitcode}, {type(exc).__name__})"
                return self._failure(task, "worker-crash", detail, now - task.started, now)
            status, job_index, attempt, payload, elapsed = message
            if job_index != task.job.index or attempt != task.attempt:
                # A message from a superseded attempt (cannot happen with
                # per-worker pipes, but a stale result must never complete a
                # requeued job twice).
                return None  # pragma: no cover - defensive
            worker.task = None
            if status == "ok":
                return self._log.succeeded(task.job, attempt, payload)
            return self._failure(task, "raised", str(payload), float(elapsed), now)
        if task.deadline is not None and now >= task.deadline:
            self._respawn(slot, kill=True)
            detail = (
                f"attempt exceeded the job timeout ({self.job_timeout_s:g} s); "
                "worker killed"
            )
            return self._failure(task, "timeout", detail, now - task.started, now)
        return None

    def _failure(
        self, task: _Task, outcome: str, detail: str, elapsed_s: float, now: float
    ) -> Optional[JobCompletion]:
        """Log a failed attempt; requeue the job behind its backoff, or
        return its quarantine."""
        quarantined = self._log.failed(task.job, task.attempt, outcome, detail, elapsed_s)
        if quarantined is None:
            next_attempt = task.attempt + 1
            self._enqueue(now + retry_backoff_s(next_attempt), next_attempt, task.job)
        return quarantined


def run_serial(
    jobs: Sequence[SweepJob],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    chaos: Optional[ChaosSpec] = None,
) -> Iterator[JobCompletion]:
    """Serial in-process twin of :meth:`SupervisedPool.run`.

    Same retry/quarantine semantics and the same outcome type, without any
    multiprocessing overhead.  Wall-clock timeouts are not enforced (there
    is no supervisor to kill the attempt), and chaos ``hang``/``kill``
    injections are rejected upstream for exactly that reason.
    """
    log = _AttemptLog(max_attempts)
    for job in jobs:
        outcome: Optional[JobCompletion] = None
        attempt = 0
        while outcome is None:
            attempt += 1
            backoff = retry_backoff_s(attempt)
            if backoff > 0:
                time.sleep(backoff)
            started = time.perf_counter()
            try:
                record = _attempt_job(job, attempt, chaos)
            except Exception as exc:
                outcome = log.failed(
                    job, attempt, "raised", _describe(exc), time.perf_counter() - started
                )
            else:
                outcome = log.succeeded(job, attempt, record)
        yield outcome
