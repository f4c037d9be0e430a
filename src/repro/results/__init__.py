"""The unified results API.

Everything a run produces flows through one canonical, schema-versioned type:

* :class:`RunRecord` — one run's outcome: provenance (key, spec fingerprint,
  seed, grid axes), a compact :class:`MetricsSummary`, routing/fault
  bookkeeping and wall time.  JSON round-trip with strict validation.
* :class:`MetricsSummary` / :class:`DistributionSummary` — the compact
  metrics reduction workers compute in-process (defined in
  :mod:`repro.metrics.summary`, re-exported here).
* :class:`RunStore` — a run directory holding one append-only JSONL record
  log, read in append order or by :func:`spec_fingerprint` (what
  ``--resume`` reads), plus optional lazy raw-metrics blobs.
* :class:`SweepResult` — records pivoted by a swept parameter into series,
  for figure tables and the headline claims.
"""

from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.results.cache import CACHE_SCHEMA_VERSION, spec_fingerprint
from repro.results.failures import (
    ATTEMPT_OUTCOMES,
    FAILURE_SCHEMA_KEY,
    FAILURE_SCHEMA_VERSION,
    FailureValidationError,
    JobAttempt,
    JobFailure,
)
from repro.results.record import (
    CANONICAL_SCHEMA_VERSION,
    HEADLINE_METRICS,
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
)
from repro.results.store import RunStore, RunStoreError
from repro.results.sweep import SweepResult

__all__ = [
    "ATTEMPT_OUTCOMES",
    "CACHE_SCHEMA_VERSION",
    "CANONICAL_SCHEMA_VERSION",
    "DistributionSummary",
    "FAILURE_SCHEMA_KEY",
    "FAILURE_SCHEMA_VERSION",
    "FailureValidationError",
    "HEADLINE_METRICS",
    "JobAttempt",
    "JobFailure",
    "MetricsSummary",
    "RECORD_SCHEMA_KEY",
    "RESULTS_SCHEMA_VERSION",
    "RecordValidationError",
    "RunRecord",
    "RunStore",
    "RunStoreError",
    "SweepResult",
    "spec_fingerprint",
]
