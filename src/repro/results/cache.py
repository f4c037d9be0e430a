"""Content-addressed result cache, now storing canonical run records.

The cache key of a run is the SHA-256 of a canonical JSON rendering of its
full :class:`~repro.experiments.scenarios.ScenarioSpec` (protocol, workload,
every configuration field, failure/mobility parameters and the derived seed)
together with :data:`CACHE_SCHEMA_VERSION`.  Two jobs with identical specs
share a cache entry; any parameter change — including the seed — yields a
different key, so ``--resume`` can never serve stale results for a modified
grid.

Entries hold the full :class:`~repro.results.record.RunRecord` dictionary, so
a cache hit restores the record exactly as the original run produced it
(wall time included — the time the run *originally* took).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

from repro.results.record import RecordValidationError, RunRecord

#: Bumped whenever the simulation semantics, the serialized spec layout or
#: the stored payload change in a way that invalidates previously cached
#: results (part of every cache key).  Version history:
#:
#: * 1 — ``dataclasses.asdict`` rendering of the spec; ``ScenarioResult``
#:   payloads.
#: * 2 — canonical :meth:`ScenarioSpec.to_dict` rendering (the spec gained
#:   ``placement``/``placement_options``, the configs gained ``model``/
#:   ``contention`` component selectors); ``ScenarioResult`` payloads.
#: * 3 — spec schema v2 (the spec gained free-form ``labels``) and entries
#:   now store :class:`RunRecord` payloads under a ``"record"`` key instead
#:   of flat ``ScenarioResult`` dictionaries under ``"result"``.  This was a
#:   deliberate one-shot invalidation of every v2 cache entry: old entries
#:   are simply never matched again and can be deleted at leisure.
CACHE_SCHEMA_VERSION = 3


def spec_fingerprint(spec) -> str:
    """Content hash (hex SHA-256) identifying a scenario spec.

    The fingerprint is the canonical serialized form of the spec
    (:meth:`ScenarioSpec.to_dict` — protocol, workload/placement and their
    options, the full :class:`SimulationConfig` including the seed, and the
    failure/mobility parameters) rendered as canonical JSON — the same
    dictionary layout ``repro run --spec`` consumes.  A value that is not
    JSON-native raises :class:`ValueError`: its ``repr`` may carry a memory
    address, which would fingerprint the same spec differently in every
    process and make ``--resume`` miss silently.
    """
    payload = spec.to_dict() if hasattr(spec, "to_dict") else dataclasses.asdict(spec)
    description = {
        "schema": CACHE_SCHEMA_VERSION,
        "spec": payload,
    }
    text = json.dumps(description, sort_keys=True, default=_reject_non_json)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reject_non_json(value: object) -> None:
    raise ValueError(f"spec value {value!r} ({type(value).__name__}) is not JSON-native")


class ResultCache:
    """Content-addressed, on-disk store of :class:`RunRecord` objects.

    This is the random-access companion to the append-ordered
    :class:`~repro.results.store.RunStore`: same record format, addressed by
    spec fingerprint for O(1) resume lookups instead of by completion order.

    Layout: ``<root>/<key[:2]>/<key>.json`` where *key* is
    :func:`spec_fingerprint` of the run's spec.  Each file holds the record
    dictionary plus a human-readable copy of the spec for debuggability.
    Writes are atomic (temp file + rename) so a crashed or killed sweep never
    leaves a truncated entry behind — ``--resume`` can trust whatever it finds.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """Where the entry for *key* lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[RunRecord]:
        """The cached record for *key*, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            return RunRecord.from_dict(payload["record"])
        except (OSError, ValueError, KeyError, TypeError, RecordValidationError):
            return None

    def store(self, key: str, record: RunRecord, spec=None) -> Path:
        """Persist *record* under *key*; returns the entry path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload: Dict[str, object] = {"key": key, "record": record.to_dict()}
        if spec is not None:
            payload["spec"] = (
                spec.to_dict() if hasattr(spec, "to_dict") else dataclasses.asdict(spec)
            )
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, default=repr, indent=1))
        tmp.replace(path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
