"""Tests for JobFailure records and the RunStore failures.jsonl sidecar."""

import json

import pytest

from repro.results import (
    ATTEMPT_OUTCOMES,
    FAILURE_SCHEMA_KEY,
    FAILURE_SCHEMA_VERSION,
    FailureValidationError,
    JobAttempt,
    JobFailure,
    RunStore,
    RunStoreError,
)


def _failure(key="fig06/num_nodes=16/spms", index=0, attempts=2):
    trail = tuple(
        JobAttempt(
            attempt=i + 1,
            outcome="raised",
            detail=f"ValueError: boom #{i + 1}",
            elapsed_s=0.5 * (i + 1),
        )
        for i in range(attempts)
    )
    return JobFailure(
        key=key, index=index, matrix="fig06", protocol="spms", attempts=trail
    )


class TestSchema:
    def test_schema_version_pin(self):
        # The serialized failure layout is pinned: bump FAILURE_SCHEMA_VERSION
        # (and this test) whenever the shape changes.
        assert FAILURE_SCHEMA_VERSION == 1
        assert FAILURE_SCHEMA_KEY == "failure_schema_version"
        payload = _failure().to_dict()
        assert payload[FAILURE_SCHEMA_KEY] == FAILURE_SCHEMA_VERSION
        assert set(payload) == {
            FAILURE_SCHEMA_KEY, "key", "index", "matrix", "protocol", "attempts",
        }
        assert set(payload["attempts"][0]) == {
            "attempt", "outcome", "detail", "elapsed_s",
        }

    def test_outcome_vocabulary(self):
        assert ATTEMPT_OUTCOMES == ("raised", "timeout", "worker-crash")
        for outcome in ATTEMPT_OUTCOMES:
            JobAttempt(attempt=1, outcome=outcome, detail="", elapsed_s=0.0)
        with pytest.raises(FailureValidationError, match="unknown attempt outcome"):
            JobAttempt(attempt=1, outcome="exploded", detail="", elapsed_s=0.0)


class TestRoundTrip:
    def test_json_round_trip(self):
        failure = _failure()
        assert JobFailure.from_json(failure.to_json()) == failure

    def test_accessors(self):
        failure = _failure(attempts=3)
        assert failure.attempt_count == 3
        assert failure.last_outcome == "raised"
        assert failure.last_detail == "ValueError: boom #3"

    def test_unknown_keys_rejected(self):
        payload = _failure().to_dict()
        payload["surprise"] = 1
        with pytest.raises(FailureValidationError, match="unknown keys: surprise"):
            JobFailure.from_dict(payload)

    def test_unknown_attempt_keys_rejected(self):
        payload = _failure().to_dict()
        payload["attempts"][0]["surprise"] = 1
        with pytest.raises(FailureValidationError, match="unknown keys"):
            JobFailure.from_dict(payload)

    def test_unsupported_version_rejected(self):
        payload = _failure().to_dict()
        payload[FAILURE_SCHEMA_KEY] = FAILURE_SCHEMA_VERSION + 1
        with pytest.raises(FailureValidationError, match="unsupported failure schema"):
            JobFailure.from_dict(payload)

    def test_missing_version_rejected(self):
        payload = _failure().to_dict()
        del payload[FAILURE_SCHEMA_KEY]
        with pytest.raises(FailureValidationError, match="unsupported failure schema"):
            JobFailure.from_dict(payload)

    def test_invalid_json_rejected(self):
        with pytest.raises(FailureValidationError, match="not valid JSON"):
            JobFailure.from_json("{nope")
        with pytest.raises(FailureValidationError, match="JSON object"):
            JobFailure.from_json("[1, 2]")


class TestStoreSidecar:
    def test_append_and_read_back(self, tmp_path):
        store = RunStore(tmp_path / "run")
        first = _failure(index=0)
        second = _failure(key="fig06/num_nodes=36/spms", index=2, attempts=1)
        store.append_failure(first)
        store.append_failure(second)
        assert store.failures() == [first, second]

    def test_no_sidecar_means_no_failures(self, tmp_path):
        store = RunStore(tmp_path / "run")
        assert store.failures() == []
        assert not store.failures_path.exists()

    def test_sidecar_does_not_touch_record_layout(self, tmp_path):
        # Failures are bookkeeping: no record log, no manifest.
        store = RunStore(tmp_path / "run")
        store.append_failure(_failure())
        assert sorted(p.name for p in store.root.iterdir()) == [".lock", "failures.jsonl"]
        assert len(store) == 0

    def test_torn_tail_skipped(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.append_failure(_failure())
        with store.failures_path.open("a") as handle:
            handle.write('{"failure_schema_version": 1, "key": "torn')
        assert len(store.failures()) == 1

    def test_corrupt_line_is_loud(self, tmp_path):
        store = RunStore(tmp_path / "run")
        store.failures_path.parent.mkdir(parents=True, exist_ok=True)
        store.failures_path.write_text('{"not": "a failure"}\n')
        with pytest.raises(RunStoreError, match="corrupt failure"):
            store.failures()

    def test_two_stores_interleave(self, tmp_path):
        # Two handles on one run dir: the advisory lock keeps lines whole.
        root = tmp_path / "run"
        a, b = RunStore(root), RunStore(root)
        a.append_failure(_failure(index=0))
        b.append_failure(_failure(key="other/job", index=1))
        assert len(a.failures()) == 2
        for line in root.joinpath("failures.jsonl").read_text().splitlines():
            json.loads(line)  # every line is complete JSON
