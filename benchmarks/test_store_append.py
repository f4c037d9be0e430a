"""Store-append benchmark: appends stay O(1) amortized as the log grows.

The pre-rework ``RunStore`` kept its fingerprint index inside
``manifest.json`` and rewrote the whole manifest on every append, so the
cost of append #N was O(N) and a long sweep's store spent its time
re-serializing an ever-growing index.  Today an append writes one line to
the run directory's one record log, ``records.jsonl``, and reads at most the
log's last byte (to spot a torn tail); there is no sidecar index.

This benchmark times one 10k-append store against ten fresh 1k-append
stores.  Under the old O(N) manifest rewrite the single big store was ~10x
slower per record than the ten small ones; with constant-cost appends the
two walls must agree within 2x (the acceptance bar for "O(1) amortized").
"""

import hashlib
import tempfile
from pathlib import Path
from time import perf_counter

from benchmarks.conftest import emit, run_once
from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.results import RunRecord, RunStore

#: Acceptance bar: 10k appends into one store vs 1k x 10 fresh stores.
MAX_AMORTIZED_RATIO = 2.0

BIG = 10_000
SMALL = 1_000


def store_append_record(index: int) -> RunRecord:
    """Deterministic synthetic record #*index*.

    Fingerprints repeat every 1024 appends so a fingerprint maps to several
    log lines the way a re-run sweep's store would.
    """
    fingerprint = hashlib.sha256(
        f"store-append/{index % 1024}".encode("utf-8")
    ).hexdigest()
    summary = MetricsSummary(
        items_generated=1,
        expected_deliveries=8,
        deliveries_completed=8,
        total_energy_uj=90.0,
        energy_breakdown_uj={"rx": 40.0, "tx": 50.0},
        packets_sent={"ADV": 9},
        delay=DistributionSummary(8, 5.0, 1.0, 9.0, 2.0, 5.0),
    )
    return RunRecord(
        key=f"store-append/{index:06d}",
        protocol="spms",
        scenario="store-append",
        spec_fingerprint=fingerprint,
        seed=index,
        num_nodes=9,
        transmission_radius_m=20.0,
        summary=summary,
        axes={"append_index": index},
    )


def _time_appends(root, records):
    store = RunStore(root)
    started = perf_counter()
    for record in records:
        store.append(record)
    return perf_counter() - started


def _measure_append_scaling():
    records = [store_append_record(i) for i in range(BIG)]
    with tempfile.TemporaryDirectory(prefix="repro-store-scaling-") as tmp:
        base = Path(tmp)
        big_wall = _time_appends(base / "big", records)
        small_wall = sum(
            _time_appends(base / f"small-{chunk}", records[:SMALL])
            for chunk in range(BIG // SMALL)
        )
    return big_wall, small_wall


def test_store_append_is_amortized_constant(benchmark):
    big_wall, small_wall = run_once(benchmark, _measure_append_scaling)

    ratio = big_wall / small_wall
    emit("\n=== RunStore append scaling: one 10k store vs ten fresh 1k stores ===")
    emit(f"{'workload':>24} {'records':>8} {'wall (s)':>9} {'rec/s':>8}")
    emit(f"{'one store x 10k':>24} {BIG:>8} {big_wall:>9.3f} {BIG / big_wall:>8.0f}")
    emit(f"{'ten stores x 1k':>24} {BIG:>8} {small_wall:>9.3f} {BIG / small_wall:>8.0f}")
    emit(f"{'ratio':>24} {ratio:>27.2f}x (bar: <= {MAX_AMORTIZED_RATIO}x)")

    assert ratio <= MAX_AMORTIZED_RATIO, (
        f"append cost grows with store size: 10k-append store took {ratio:.2f}x "
        f"the wall of ten 1k-append stores ({big_wall:.3f}s vs {small_wall:.3f}s); "
        "an append writes one line and reads one byte, so it should be O(1) amortized"
    )
