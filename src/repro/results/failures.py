"""Structured job-failure records and their sidecar serialization.

When the supervised executor (:mod:`repro.experiments.supervisor`) gives up
on a job — every attempt raised, timed out, or took its worker down — the job
does not abort the sweep.  It becomes a :class:`JobFailure`: the job's
identity, plus one :class:`JobAttempt` per failed try (outcome, exception
text, elapsed wall time).  Failures are **not** run records: they are
persisted to a ``failures.jsonl`` sidecar in the run directory
(:meth:`repro.results.store.RunStore.append_failure`), so the canonical
:class:`~repro.results.record.RunRecord` bytes — and every digest pinned
over them — stay untouched by fault-tolerance bookkeeping.

Like records, failures are schema-versioned and round-trip strictly through
JSON: unknown keys and unsupported versions are rejected loudly, never
silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.codec import decode, loads

#: Version of the serialized job-failure layout (``failures.jsonl`` lines).
#: Bumped whenever the serialized shape changes; writes always emit this.
FAILURE_SCHEMA_VERSION = 1

#: Key carrying the schema version in serialized failures.
FAILURE_SCHEMA_KEY = "failure_schema_version"

#: Attempt outcomes the supervisor records.
ATTEMPT_OUTCOMES = ("raised", "timeout", "worker-crash")


class FailureValidationError(ValueError):
    """A serialized job failure failed validation."""


@dataclass(frozen=True)
class JobAttempt:
    """One failed try at a job.

    Attributes:
        attempt: 1-based attempt number.
        outcome: ``"raised"`` (the job raised in the worker), ``"timeout"``
            (the wall-clock budget elapsed and the worker was killed) or
            ``"worker-crash"`` (the worker process died under the job).
        detail: Human-readable specifics — the exception text, the timeout
            budget, or the worker's exit code.
        elapsed_s: Wall-clock seconds this attempt consumed.
    """

    attempt: int
    outcome: str
    detail: str
    elapsed_s: float

    def __post_init__(self) -> None:
        if self.outcome not in ATTEMPT_OUTCOMES:
            raise FailureValidationError(
                f"unknown attempt outcome {self.outcome!r}; "
                f"expected one of {ATTEMPT_OUTCOMES}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "detail": self.detail,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobAttempt":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, payload, FailureValidationError, "attempt")


@dataclass(frozen=True)
class JobFailure:
    """A job the supervisor quarantined after exhausting its attempts.

    Attributes:
        key: The job's stable sweep key (``"fig06/num_nodes=64/spin"``).
        index: The job's position in the matrix expansion order.
        matrix: Name of the matrix (or batch) the job came from.
        protocol: Protocol the job would have run.
        attempts: Every failed attempt, in order.
    """

    key: str
    index: int
    matrix: str
    protocol: str
    attempts: Tuple[JobAttempt, ...] = field(default_factory=tuple)

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def last_outcome(self) -> str:
        """Outcome of the final attempt (what ultimately gave up)."""
        return self.attempts[-1].outcome if self.attempts else "raised"

    @property
    def last_detail(self) -> str:
        return self.attempts[-1].detail if self.attempts else ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            FAILURE_SCHEMA_KEY: FAILURE_SCHEMA_VERSION,
            "key": self.key,
            "index": self.index,
            "matrix": self.matrix,
            "protocol": self.protocol,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobFailure":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        schema = (FAILURE_SCHEMA_KEY, FAILURE_SCHEMA_VERSION)
        return decode(cls, payload, FailureValidationError, "failure", schema)

    @classmethod
    def from_json(cls, text: str) -> "JobFailure":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(loads(text, FailureValidationError, "failure"))
