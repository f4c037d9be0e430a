"""Supervised-pool overhead benchmark: supervision must cost <= 10%.

PR 9 replaced the executor's plain ``multiprocessing.Pool`` with the
supervised pool (:mod:`repro.experiments.supervisor`): per-worker pipes,
``connection.wait`` multiplexing, deadline tracking, retry bookkeeping.
That machinery runs in the parent while workers simulate, and the parent
sleeps until a result, a worker's death or a deadline wakes it, so on a
healthy (fault-free) grid it should cost next to nothing — the acceptance
bar is **supervised wall time <= 1.10x the plain pool**, plus a
byte-identity check: both executions must produce identical canonical
records.

Two job shapes are measured:

* the quick fig06 grid — a few jobs of a second or more each, where the
  pool's per-job costs hide behind the simulations;
* a fleet of tiny single-pair specs on 9/16-node grids (a few ms each), the
  shape of ``repro run --spec-dir`` over many small specs.  Here the
  parent's own loop is on the critical path of every job, so a supervisor
  that polls instead of blocking shows up as a multiple of the plain pool.

Both pools run the same jobs with 2 workers, timed back-to-back in one
benchmark so machine load skews both sides equally.  A small constant
epsilon keeps the ratio meaningful when the grid runs fast enough that
process-spawn jitter dominates the measurement.
"""

import multiprocessing
import time

from benchmarks.conftest import emit, run_once
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import execute_jobs
from repro.experiments.matrix import ScenarioMatrix, get_matrix
from repro.experiments.runner import ExperimentRunner

#: The tentpole's acceptance bar: supervision adds at most 10% wall time.
MAX_OVERHEAD_FACTOR = 1.10

#: Absolute slack (seconds) added to the bar: worker spawn/teardown is a
#: fixed cost, so on a sub-second grid it would dominate the ratio and the
#: test would measure process-start jitter instead of supervision overhead.
EPSILON_S = 0.25

#: Interleaved plain/supervised rounds of the tiny-jobs fleet.  Each side is
#: judged by its fastest round: a pass takes about a second, so one slow
#: phase of the host, or the first pool started in the process (slower on
#: either side), would otherwise decide the comparison on its own.
TINY_ROUNDS = 3


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def _run_job(job):
    """Run one job in-process, unsupervised (module-level, hence picklable):
    what one attempt inside the supervised pool executes."""
    return job.index, ExperimentRunner(job.spec).run_record(key=job.key, axes=job.axes)


def _run_plain_pool(jobs):
    """The pre-supervisor executor: a bare Pool.imap_unordered over the jobs."""
    records = {}
    started = time.perf_counter()
    by_index = {job.index: job for job in jobs}
    with _pool_context().Pool(processes=2) as pool:
        for index, record in pool.imap_unordered(_run_job, jobs, chunksize=1):
            records[by_index[index].key] = record
    return records, time.perf_counter() - started


def _run_supervised_pool(jobs):
    started = time.perf_counter()
    records, report = execute_jobs(jobs, workers=2)
    assert report.quarantined == 0 and not report.interrupted
    return records, time.perf_counter() - started


def _measure_overhead(jobs, rounds=1):
    """Both pools' records and their fastest wall time over *rounds*."""
    plain_times, supervised_times = [], []
    for _ in range(rounds):
        plain_records, plain_s = _run_plain_pool(jobs)
        supervised_records, supervised_s = _run_supervised_pool(jobs)
        plain_times.append(plain_s)
        supervised_times.append(supervised_s)
    return plain_records, min(plain_times), supervised_records, min(supervised_times)


def _tiny_jobs():
    """256 single-pair specs (4 of 9 or 16 grid nodes), each a few ms long."""
    return ScenarioMatrix(
        name="tiny",
        axes={"seed": tuple(range(64)), "num_nodes": (9, 16)},
        base_config=SimulationConfig(transmission_radius_m=15.0),
        workload="single_pair",
        workload_options={"source": 0, "destinations": [4, 5, 8], "num_items": 3},
    ).expand()


def _check_overhead(title, jobs, plain_records, plain_s, supervised_records, supervised_s):
    emit(f"\n=== Supervised pool overhead vs plain Pool ({title}) ===")
    emit(f"{'jobs':>6} {'plain (s)':>10} {'supervised (s)':>15} {'factor':>8}")
    factor = supervised_s / plain_s
    emit(f"{len(jobs):>6} {plain_s:>10.3f} {supervised_s:>15.3f} {factor:>7.2f}x")

    # Byte-identity first: supervision must not change a single record.
    assert set(supervised_records) == set(plain_records)
    for key, record in plain_records.items():
        assert supervised_records[key].canonical_json() == record.canonical_json(), key

    budget_s = plain_s * MAX_OVERHEAD_FACTOR + EPSILON_S
    assert supervised_s <= budget_s, (
        f"supervised pool cost {factor:.2f}x the plain pool "
        f"({plain_s:.3f} s -> {supervised_s:.3f} s); the acceptance bar "
        f"is <= {MAX_OVERHEAD_FACTOR}x + {EPSILON_S:g} s spawn allowance "
        f"({budget_s:.3f} s)"
    )


def test_supervised_pool_overhead(benchmark, figure_scale):
    jobs = get_matrix("fig06", scale=figure_scale).expand()[:4]
    measured = run_once(benchmark, _measure_overhead, jobs)
    _check_overhead("fig06 quick grid", jobs, *measured)


def test_supervised_pool_overhead_on_tiny_jobs(benchmark):
    jobs = _tiny_jobs()
    measured = run_once(benchmark, _measure_overhead, jobs, TINY_ROUNDS)
    _check_overhead("tiny single-pair specs", jobs, *measured)
