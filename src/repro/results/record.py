"""The canonical run record.

A :class:`RunRecord` is the single, schema-versioned description of one
completed simulation run: provenance (job key, spec fingerprint, seed, grid
coordinates), a compact :class:`~repro.metrics.summary.MetricsSummary`, the
routing/fault bookkeeping and the measured wall time.  Every producer (the
runner, the executor workers) emits RunRecords and every consumer (sweeps,
stores, reports, figures, the headline claims) reads them.

Records round-trip losslessly through JSON (:meth:`RunRecord.to_dict` /
:meth:`RunRecord.from_dict`) with unknown-key and bad-version rejection.
:meth:`RunRecord.canonical_json` renders the *deterministic* portion of a
record — everything except the measured wall time and the raw-blob reference
— and is what byte-identity comparisons (parallel vs serial execution) use.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.codec import decode, loads
from repro.metrics.summary import MetricsSummary

#: Version of the serialized run-record / run-store schema.  Bumped whenever
#: the serialized layout changes; writes always emit this version.  History:
#:
#: * 1 — initial canonical record; stores kept the fingerprint index inside
#:   ``manifest.json`` and keyed raw blobs by spec fingerprint.
#: * 2 — store layout rework: append-only sidecar fingerprint index,
#:   advisory append locking, torn-tail quarantine, raw blobs keyed by the
#:   record key.  The record *field set* is unchanged.
#: * 3 — one append-only ``records.jsonl`` log per run directory: the record
#:   shards and the sidecar fingerprint index are gone, and the manifest holds
#:   the schema version alone.  The record *field set* is unchanged.
#:
#: Only this version is read back: a v1 or v2 record or run directory is
#: rejected with an error naming its version.
RESULTS_SCHEMA_VERSION = 3

#: Version stamped into :meth:`RunRecord.canonical_dict`.  The canonical
#: rendering is the byte-identity contract — the fixed-point digests in
#: ``tests/experiments/test_kernel_equivalence.py`` and the differential-test
#: pins are stated over it — so it only bumps when the *deterministic result
#: content* changes.  Neither serialization bump (v1 -> v2 -> v3) changed
#: any result content, so the canonical form (and every pinned digest)
#: stays at 1.
CANONICAL_SCHEMA_VERSION = 1

#: Key carrying the schema version in serialized records.
RECORD_SCHEMA_KEY = "schema_version"

#: Fields excluded from :meth:`RunRecord.canonical_dict`: they describe the
#: *execution* (how long it took, where the raw blob landed), not the result,
#: and legitimately differ between byte-identical runs.
VOLATILE_FIELDS = ("wall_time_s", "raw_ref")

#: The numeric scalar metrics of a record's flat view (:meth:`RunRecord.as_dict`),
#: in display order — also the metric names ``repro sweep``/``repro report``
#: can tabulate.
HEADLINE_METRICS = (
    "num_nodes",
    "transmission_radius_m",
    "items_generated",
    "expected_deliveries",
    "deliveries_completed",
    "total_energy_uj",
    "energy_per_item_uj",
    "average_delay_ms",
    "delivery_ratio",
    "routing_rebuilds",
    "routing_energy_uj",
    "sim_time_ms",
    "failures_injected",
)


class RecordValidationError(ValueError):
    """A serialized run record failed validation."""


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one simulation run — the one results type.

    Attributes:
        key: Stable run identity (the sweep job key, or a batch-run name).
        protocol: Protocol that ran ("spms", "spin", ...).
        scenario: Scenario name (provenance in reports).
        spec_fingerprint: Content hash of the run's full scenario spec
            (:func:`repro.results.cache.spec_fingerprint`).
        seed: The master seed the run used.
        num_nodes: Number of nodes simulated.
        transmission_radius_m: Maximum transmission radius used.
        summary: Compact metrics summary (counters, energy, delay, delivery).
        axes: Grid coordinates of the run when it came from a matrix —
            including non-config axes such as ``placement`` — or free-form
            provenance for batch runs.
        routing_rebuilds: How many times the routing tables were (re)built.
        routing_energy_uj: Energy charged to route formation/maintenance.
        sim_time_ms: Simulated time when the run finished.
        failures_injected: Number of transient failures injected.
        wall_time_s: Measured wall-clock duration of the run (volatile).
        raw_ref: Store-relative reference to the optional raw-metrics blob
            (volatile; see :meth:`repro.results.store.RunStore.load_raw`).
    """

    key: str
    protocol: str
    scenario: str
    spec_fingerprint: str
    seed: int
    num_nodes: int
    transmission_radius_m: float
    summary: MetricsSummary
    axes: Dict[str, object] = field(default_factory=dict)
    routing_rebuilds: int = 0
    routing_energy_uj: float = 0.0
    sim_time_ms: float = 0.0
    failures_injected: int = 0
    wall_time_s: float = 0.0
    raw_ref: Optional[str] = None

    # ------------------------------------------------------- metric delegation
    #
    # The headline metrics live on the summary; exposing them as properties
    # lets every metric-by-name consumer (``SweepResult.series``, the report
    # tables, the claims helpers) read them straight off the record.

    @property
    def items_generated(self) -> int:
        """Data items originated by the workload."""
        return self.summary.items_generated

    @property
    def expected_deliveries(self) -> int:
        """(item, destination) pairs the workload expected to complete."""
        return self.summary.expected_deliveries

    @property
    def deliveries_completed(self) -> int:
        """How many expected deliveries completed."""
        return self.summary.deliveries_completed

    @property
    def total_energy_uj(self) -> float:
        """Network-wide energy (microjoules)."""
        return self.summary.total_energy_uj

    @property
    def energy_per_item_uj(self) -> float:
        """Total energy / items generated — the paper's energy metric."""
        return self.summary.energy_per_item_uj

    @property
    def average_delay_ms(self) -> float:
        """Mean end-to-end delay over completed deliveries."""
        return self.summary.average_delay_ms

    @property
    def delivery_ratio(self) -> float:
        """Completed / expected deliveries."""
        return self.summary.delivery_ratio

    @property
    def energy_breakdown_uj(self) -> Dict[str, float]:
        """Energy per category (tx / rx / routing)."""
        return self.summary.energy_breakdown_uj

    @property
    def packets_sent(self) -> Dict[str, int]:
        """Transmissions per packet type."""
        return self.summary.packets_sent

    @property
    def packets_dropped(self) -> Dict[str, int]:
        """Drops per reason."""
        return self.summary.packets_dropped

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """Complete, loss-free, JSON-safe dictionary representation."""
        data: Dict[str, object] = {RECORD_SCHEMA_KEY: RESULTS_SCHEMA_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "summary":
                value = self.summary.to_dict()
            elif f.name == "axes":
                value = dict(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`).

        Raises:
            RecordValidationError: On a wrong/absent schema version, unknown
                keys at any level, missing required fields, or a value of the
                wrong type.
        """
        schema = (RECORD_SCHEMA_KEY, RESULTS_SCHEMA_VERSION)
        return decode(cls, data, RecordValidationError, "run record", schema)

    def to_json(self) -> str:
        """Canonical JSON rendering (stable key order, byte-reproducible)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(loads(text, RecordValidationError, "run record"))

    def canonical_dict(self) -> Dict[str, object]:
        """:meth:`to_dict` minus the volatile execution fields.

        Two runs of the same spec must produce byte-identical canonical
        renderings regardless of worker count or machine load; the
        determinism regressions compare exactly this.
        """
        data = self.to_dict()
        for volatile in VOLATILE_FIELDS:
            data.pop(volatile, None)
        # The canonical form is versioned by the deterministic-content
        # contract, not the storage layout — see CANONICAL_SCHEMA_VERSION.
        data[RECORD_SCHEMA_KEY] = CANONICAL_SCHEMA_VERSION
        return data

    def canonical_json(self) -> str:
        """Stable JSON rendering of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), sort_keys=True)

    # --------------------------------------------------------------- views

    def as_dict(self) -> Dict[str, object]:
        """Flat headline-metric view (used by reports and the CLI)."""
        flat: Dict[str, object] = {"protocol": self.protocol, "scenario": self.scenario}
        for name in HEADLINE_METRICS:
            flat[name] = getattr(self, name)
        return flat

    def with_execution(
        self, wall_time_s: Optional[float] = None, raw_ref: Optional[str] = None
    ) -> "RunRecord":
        """A copy with the volatile execution fields replaced."""
        changes: Dict[str, object] = {}
        if wall_time_s is not None:
            changes["wall_time_s"] = wall_time_s
        if raw_ref is not None:
            changes["raw_ref"] = raw_ref
        return dataclasses.replace(self, **changes) if changes else self
