"""On-disk run store: one append-only JSONL record log plus optional raw blobs.

A :class:`RunStore` owns one *run directory*::

    <root>/
      manifest.json              # record schema version (written once)
      records.jsonl              # one RunRecord per line, appended in order
      records.jsonl.partial      # quarantined torn write tails
      raw/<key>-<keyhash>.json   # optional raw-metrics blobs, lazily loaded
      failures.jsonl             # one JobFailure per quarantined job (sidecar)
      .lock                      # advisory lock file serialising appends

**Failure sidecar.**  Jobs the supervised executor quarantines land in
``failures.jsonl`` — one schema-versioned :class:`~repro.results.JobFailure`
line each, appended under the same advisory lock as records.  Failures are
deliberately *not* records: the record log and every canonical record byte
stay untouched by fault bookkeeping, so pinned digests cannot move because a
sweep had casualties.  ``repro report`` reads the sidecar to render its
failure notice (and ``--strict`` exit).

Records are appended as they complete (the executor streams them in), so an
interrupted fleet leaves a readable prefix rather than nothing.  An append
writes one file, the record log, so a record is stored exactly when its line
is whole: there is no second write a kill could separate from it.

Raw metrics (per-delivery delays, per-node energy, full traffic counters) are
deliberately *not* part of a record: a producer may attach them as a blob,
which lands in ``raw/`` — keyed by the **record key** (not the spec
fingerprint, which several records may legitimately share) — and is
referenced by ``record.raw_ref``; :meth:`RunStore.load_raw` reads it back on
demand.

**Fingerprint lookups.**  :meth:`RunStore.records_by_fingerprint` (what
``--resume`` calls) serves from an in-memory map of spec fingerprint -> byte
offsets.  Each handle fills it by reading the log once, from a byte watermark
that only ever moves forward over whole lines; a lookup then reads just the
matching lines by offset.

**Concurrency.**  Appends take an exclusive advisory lock (``fcntl.flock`` on
``<root>/.lock``), so any number of processes — streaming-executor parents,
fleet CLI runs sharing a ``--run-dir`` — can append to one store without
interleaving lines.  Reads never take the lock: the log is append-only, and
the only bytes an append ever truncates (a torn tail) are bytes no read
consumes.  Each process opens its own handle: a :class:`RunStore` refuses
to pickle, so it cannot be shipped to a worker.

**Crash safety.**  Appends flush but do not fsync ("fsync-light"): a kill
can lose the OS-buffered tail but never corrupts what was already durable.
A kill *mid-write* leaves a newline-less partial line; the next locked append
(or an explicit :meth:`recover`) quarantines it to ``records.jsonl.partial``
and truncates the log back to whole lines.  Plain reads skip a torn final
line.

**Schema.**  ``manifest.json`` names the record schema the directory was
written under.  A store checks it once, before its first read or append, and
raises :class:`RunStoreError` naming the version unless it is
:data:`~repro.results.record.RESULTS_SCHEMA_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

try:  # pragma: no cover - fcntl is always present on the supported platforms
    import fcntl
except ImportError:  # pragma: no cover - Windows: appends fall back unlocked
    fcntl = None  # type: ignore[assignment]

from repro.results.failures import FailureValidationError, JobFailure
from repro.results.record import (
    RECORD_SCHEMA_KEY,
    RESULTS_SCHEMA_VERSION,
    RecordValidationError,
    RunRecord,
)

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
LOCK_NAME = ".lock"
RAW_DIR = "raw"
FAILURES_NAME = "failures.jsonl"

_RAW_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


class RunStoreError(ValueError):
    """A run directory is unreadable or was written by an incompatible build."""


class _StoreLock:
    """Re-entrant exclusive advisory lock on the store's ``.lock`` file.

    ``flock`` locks the open file description, so two :class:`RunStore`
    instances — in one process or many — serialise against each other; the
    re-entrancy counter only guards nested use within a single instance.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._fd: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "_StoreLock":
        if self._depth == 0 and fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(str(self.path), os.O_RDWR | os.O_CREAT, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


def _whole_lines(log: BinaryIO, offset: int) -> Iterator[Tuple[int, bytes]]:
    """``(offset, line)`` for each newline-terminated line from *offset* on.

    Stops at a newline-less final line: the torn tail of a killed writer,
    which the next locked append quarantines.
    """
    log.seek(offset)
    for raw in log:
        if not raw.endswith(b"\n"):
            return
        yield offset, raw
        offset += len(raw)


class RunStore:
    """Appendable store of :class:`RunRecord` objects in one record log.

    Args:
        root: The run directory (created lazily on first append).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._lock = _StoreLock(self.root / LOCK_NAME)
        # Fingerprint -> offsets of its record lines, covering the log's
        # first ``_indexed_bytes`` bytes (always whole lines).
        self._offsets: Dict[str, List[int]] = {}
        self._indexed_bytes = 0
        self._schema_checked = False

    def __reduce__(self) -> Tuple[object, ...]:
        # Appends happen in the process that opened the handle (a sweep's
        # parent); a handle shipped through a pipe or a spawn would let a
        # worker write the run directory behind the parent's back.
        raise TypeError(
            f"a RunStore handle ({self.root}) must not cross into another "
            "process; send the run directory instead and re-open it with "
            "RunStore(root) in the parent, which does every append"
        )

    # ------------------------------------------------------------- layout

    @property
    def records_path(self) -> Path:
        return self.root / RECORDS_NAME

    @property
    def partial_path(self) -> Path:
        """Quarantine file holding torn write tails recovered from the log."""
        return self.root / (RECORDS_NAME + ".partial")

    @property
    def raw_dir(self) -> Path:
        return self.root / RAW_DIR

    @property
    def failures_path(self) -> Path:
        return self.root / FAILURES_NAME

    # ----------------------------------------------------------- manifest

    def open(self) -> "RunStore":
        """Check the manifest's schema version (once per instance).

        Every read and append calls this first.  Callers about to do work
        worth keeping (a sweep that simulates before its first append) call
        it up front, so an unusable run directory fails before any of it.

        Returns:
            The store itself.

        Raises:
            RunStoreError: When the manifest is unparsable or names a record
                schema other than :data:`RESULTS_SCHEMA_VERSION`.
        """
        if self._schema_checked:
            return self
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.is_file():
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError as exc:
                raise RunStoreError(
                    f"unreadable manifest {manifest_path}: {exc}"
                ) from exc
            version = manifest.get(RECORD_SCHEMA_KEY)
            if version != RESULTS_SCHEMA_VERSION:
                raise RunStoreError(
                    f"run store {self.root} was written under record schema "
                    f"{version!r}; this build reads schema {RESULTS_SCHEMA_VERSION}"
                )
        self._schema_checked = True
        return self

    @staticmethod
    def _replace_file(path: Path, text: str) -> None:
        # Temp file + atomic rename: a kill mid-write never leaves a
        # truncated file under *path*.
        tmp_path = path.with_name(path.name + ".tmp")
        tmp_path.write_text(text)
        os.replace(tmp_path, path)

    # ---------------------------------------------------- crash recovery

    def _quarantine_torn_tail(self, log: BinaryIO) -> None:
        """Move a newline-less tail left by a killed writer aside.  Locked.

        Reads the log's last byte; only when that is not a newline does it
        read the log to find the last whole line, append the partial bytes
        to ``records.jsonl.partial`` and truncate the log back to whole
        lines — so the next append starts a fresh line instead of
        concatenating onto the torn one.
        """
        size = log.seek(0, os.SEEK_END)
        if size == 0:
            return
        log.seek(size - 1)
        if log.read(1) == b"\n":
            return
        log.seek(0)
        data = log.read()
        cut = data.rfind(b"\n") + 1
        with self.partial_path.open("ab") as quarantine:
            quarantine.write(data[cut:] + b"\n")
        log.truncate(cut)

    def recover(self) -> None:
        """Run crash recovery now, without appending anything.

        Takes the append lock and quarantines a torn log tail.  Appends do
        this implicitly; call this to repair a store that is only ever read.
        """
        with self._lock:
            self.open()
            if self.records_path.is_file():
                with self.records_path.open("r+b") as log:
                    self._quarantine_torn_tail(log)

    # -------------------------------------------------------------- writes

    @staticmethod
    def _raw_ref_for(key: str) -> str:
        """Store-relative raw-blob path for the record key *key*.

        Keyed by the full record key — not the spec fingerprint, which
        several records (same spec, different seed/axes re-stamping) may
        share — with a hash suffix so sanitising the key for the filesystem
        can never collide two distinct keys.
        """
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]
        safe = _RAW_UNSAFE.sub("-", key).strip("-")[:48] or "record"
        return f"{RAW_DIR}/{safe}-{digest}.json"

    def append(self, record: RunRecord, raw: Optional[Dict[str, object]] = None) -> RunRecord:
        """Append *record* (optionally with a raw-metrics blob); returns it.

        Serialised against every other writer by the store lock.  The log is
        opened once, in append mode; a torn tail is quarantined before the
        line is written and flushed.  When *raw* is given it is written to
        ``raw/`` keyed by the record key and the stored record's ``raw_ref``
        points at it.  The (possibly updated) record is returned so callers
        can keep the stored identity.
        """
        with self._lock:
            self.open()
            manifest_path = self.root / MANIFEST_NAME
            if not manifest_path.is_file():
                self.root.mkdir(parents=True, exist_ok=True)
                self._replace_file(
                    manifest_path,
                    json.dumps({RECORD_SCHEMA_KEY: RESULTS_SCHEMA_VERSION}, indent=1),
                )
            if raw is not None:
                ref = self._raw_ref_for(record.key)
                self.raw_dir.mkdir(parents=True, exist_ok=True)
                self._replace_file(self.root / ref, json.dumps(raw, sort_keys=True))
                record = record.with_execution(raw_ref=ref)
            with self.records_path.open("a+b") as log:
                self._quarantine_torn_tail(log)
                log.write(record.to_json().encode("utf-8") + b"\n")
                log.flush()
        return record

    def append_failure(self, failure: JobFailure) -> JobFailure:
        """Append a quarantined job's failure to the ``failures.jsonl`` sidecar.

        Takes the same advisory lock as record appends (so fleet runs sharing
        one ``--run-dir`` interleave whole lines), but leaves the record log
        alone — failures are bookkeeping, not results, and canonical record
        bytes must not move because of them.  Flush-but-no-fsync, like
        record appends: a kill mid-write leaves at worst a torn final line,
        which reads skip.
        """
        with self._lock:
            self.root.mkdir(parents=True, exist_ok=True)
            with self.failures_path.open("a", encoding="utf-8") as handle:
                handle.write(failure.to_json() + "\n")
                handle.flush()
        return failure

    def failures(self) -> List[JobFailure]:
        """Every quarantined-job failure recorded in this run directory.

        Lock-free like every other read.  A newline-less final line (a writer
        killed mid-append) is skipped; any other unparsable line is a loud
        :class:`RunStoreError`.
        """
        self.open()
        path = self.failures_path
        if not path.is_file():
            return []
        selected: List[JobFailure] = []
        with path.open(encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                if not raw.endswith("\n"):
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    selected.append(JobFailure.from_json(line))
                except FailureValidationError as exc:
                    raise RunStoreError(
                        f"corrupt failure at {path}:{line_number}: {exc}"
                    ) from exc
        return selected

    # --------------------------------------------------------------- reads

    def _corrupt(self, offset: int, exc: Exception) -> RunStoreError:
        return RunStoreError(
            f"corrupt record at {self.records_path} offset {offset}: {exc}"
        )

    def _parse(self, raw: bytes, offset: int) -> RunRecord:
        """The record on the log line *raw*, which starts at *offset*."""
        try:
            return RunRecord.from_json(raw.decode("utf-8"))
        except (RecordValidationError, UnicodeDecodeError) as exc:
            raise self._corrupt(offset, exc) from exc

    def _line_fingerprint(self, raw: bytes, offset: int) -> str:
        """The ``spec_fingerprint`` of the log line *raw*."""
        try:
            fingerprint = json.loads(raw)["spec_fingerprint"]
        except (ValueError, KeyError, TypeError) as exc:
            raise self._corrupt(offset, exc) from exc
        if not isinstance(fingerprint, str):
            raise self._corrupt(
                offset, TypeError(f"non-string spec_fingerprint {fingerprint!r}")
            )
        return fingerprint

    def _open_log(self) -> Optional[BinaryIO]:
        try:
            return self.records_path.open("rb")
        except FileNotFoundError:
            return None

    def records(self) -> Iterator[RunRecord]:
        """Every stored record, in append order (streamed from the log).

        A newline-less final line — the torn tail of a killed writer,
        quarantined by the next locked append — is skipped; any other
        unparsable line is a loud :class:`RunStoreError`.
        """
        self.open()
        log = self._open_log()
        if log is None:
            return
        with log:
            for offset, raw in _whole_lines(log, 0):
                yield self._parse(raw, offset)

    def __len__(self) -> int:
        """Stored record count, from the log's newline count alone.

        Counts newline-terminated lines without parsing or validating them,
        so ``len()`` is cheap and still works on a store whose torn tail was
        (or has yet to be) quarantined.
        """
        self.open()
        log = self._open_log()
        if log is None:
            return 0
        total = 0
        with log:
            while True:
                chunk = log.read(1 << 20)
                if not chunk:
                    return total
                total += chunk.count(b"\n")

    def records_by_fingerprint(self, fingerprint: str) -> List[RunRecord]:
        """Every record whose spec fingerprint is *fingerprint*.

        Lock-free.  First folds the whole lines appended since this handle's
        last look into its fingerprint -> offsets map (so each line's
        fingerprint is read once per handle), then parses only the matching
        lines, read by offset.
        """
        self.open()
        log = self._open_log()
        if log is None:
            return []
        with log:
            for offset, raw in _whole_lines(log, self._indexed_bytes):
                self._offsets.setdefault(
                    self._line_fingerprint(raw, offset), []
                ).append(offset)
                self._indexed_bytes = offset + len(raw)
            selected: List[RunRecord] = []
            for offset in self._offsets.get(fingerprint, ()):
                log.seek(offset)
                selected.append(self._parse(log.readline(), offset))
        return selected

    def load_raw(self, record: RunRecord) -> Optional[Dict[str, object]]:
        """The raw-metrics blob referenced by *record*, or ``None`` without one.

        Blobs are lazily loaded — nothing is read until a consumer asks.

        Raises:
            RunStoreError: When ``record.raw_ref`` names a blob that is
                missing or is not JSON.
        """
        if record.raw_ref is None:
            return None
        path = self.root / record.raw_ref
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise RunStoreError(f"unreadable raw blob {path}: {exc}") from exc
