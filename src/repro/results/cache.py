"""Spec fingerprints: the content address of a scenario spec.

The fingerprint of a run is the SHA-256 of a canonical JSON rendering of its
full :class:`~repro.experiments.scenarios.ScenarioSpec` (protocol, workload,
every configuration field, failure/mobility parameters and the derived seed)
together with :data:`CACHE_SCHEMA_VERSION`.  Two jobs with identical specs
share a fingerprint; any parameter change — including the seed — yields a
different one.  Every :class:`~repro.results.record.RunRecord` carries its
fingerprint, and a run directory indexes records by it, which is how
``repro sweep --run-dir D --resume`` finds the jobs ``D`` already holds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

#: Version of the fingerprint payload, hashed into every
#: :func:`spec_fingerprint` — and therefore into every record's
#: :meth:`~repro.results.record.RunRecord.canonical_json`.  The name survives
#: from the retired content-addressed result cache these fingerprints used to
#: key.  Bumping it moves every pinned digest, so it is a results-schema
#: event, not a cache flush.  Version history:
#:
#: * 1 — ``dataclasses.asdict`` rendering of the spec; flat result payloads.
#: * 2 — canonical :meth:`ScenarioSpec.to_dict` rendering (the spec gained
#:   ``placement``/``placement_options``, the configs gained ``model``/
#:   ``contention`` component selectors); flat result payloads.
#: * 3 — spec schema v2 (the spec gained free-form ``labels``) and cache
#:   entries stored :class:`~repro.results.record.RunRecord` payloads.  A
#:   deliberate one-shot invalidation of every v2 cache entry.
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
