"""JSONL checkpoint journal: resume an interrupted sweep.

One JSON record per completed job, appended (single ``write`` + flush +
fsync, so a crash mid-sweep loses at most the in-flight line) to
``.repro-checkpoints/<sweep>.jsonl``.  Records are keyed by the job's
content hash, so resuming recognises completed work even across process
restarts and reordered job lists.

Integrity framing (v2): each line is ``{"crc": "<crc32 hex>", "data":
{...record...}}`` with the checksum taken over the canonical encoding of
``data``.  Loading salvages everything the damage spared: a torn or
bit-flipped line *anywhere* in the file — not just the trailing line a
mid-write kill produces — is skipped, counted, and reported in a
:class:`JournalSalvage`, never allowed to poison the resume.  Unframed
v1 lines (pre-CRC journals) still load, flagged as legacy.

``verify`` re-checks every line without touching the file; ``compact``
atomically rewrites the journal to one checksummed record per key (last
outcome wins), dropping damage and superseded retries.  Both are exposed
as ``repro journal`` subcommands.

This module owns the settled-job record: :func:`journal_record` writes
it, :func:`result_from_record` reads it back into a :class:`JobResult`,
and :func:`serves` decides whether it stands for its job or the job runs
again.  Resume, the job service, ``repro sweep --server`` and the export
all go through these three.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import CheckpointError
from repro.experiments.engine.job import (
    Job,
    JobFailure,
    JobResult,
    ResultSnapshot,
    snapshot_metrics,
)

try:  # POSIX advisory locks for concurrent journal writers
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

PathLike = Union[str, Path]

#: default directory for sweep journals, relative to the working directory
DEFAULT_CHECKPOINT_DIR = ".repro-checkpoints"

#: record fields that legitimately differ between two runs of the same
#: job (wall-clock, retry history, which backend/host happened to run
#: it); everything else is *content* — the chaos convergence property
#: compares records with these removed, and it is exactly why the same
#: matrix run on different executor backends hashes identical
VOLATILE_FIELDS = (
    "duration",
    "attempts",
    "backoff_seconds",
    "crashes",
    "executor",
    "host",
    "queue_seconds",
)

#: cap on per-line diagnostics retained by a salvage report
_MAX_BAD_LINES = 32


def journal_record(outcome: JobResult) -> dict:
    """The JSON-safe journal record for one terminal job outcome.

    This is the one shape a settled job takes at rest: the journal
    appends it, resume replays it, the service's result store serves it
    and the export maps it onto its columns — so building it lives in
    exactly one place.
    """
    job = outcome.job
    record = {
        "key": job.key(),
        "benchmark": job.benchmark,
        "mechanism": job.mechanism,
        "input_set": job.input_set,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "duration": round(outcome.duration, 6),
    }
    # throttling-policy provenance (identity-bearing: the config feeds
    # the job key wholesale).  Dict-shaped configs (older tests) and
    # pre-policy journals simply carry no policy columns -> exported
    # null, mirroring the executor/host provenance pattern.
    policy = getattr(job.config, "throttle_policy", None)
    if policy is not None:
        record["policy"] = policy
        record["policy_params"] = getattr(job.config, "policy_params", "")
    if outcome.backoff_total:
        record["backoff_seconds"] = round(outcome.backoff_total, 6)
    if outcome.crashes:
        record["crashes"] = outcome.crashes
    if outcome.ok:
        # execution provenance (volatile: never part of the content
        # hash) — recorded for successful runs only, so FAILED rows keep
        # nulls all the way to the export
        if outcome.executor is not None:
            record["executor"] = outcome.executor
        if outcome.host is not None:
            record["host"] = outcome.host
        if outcome.queue_seconds is not None:
            record["queue_seconds"] = round(outcome.queue_seconds, 6)
        record["metrics"] = snapshot_metrics(outcome.result)
    elif outcome.failure is not None:
        record["error"] = {
            "type": outcome.failure.error_type,
            "message": outcome.failure.message,
            "transient": outcome.failure.transient,
        }
        if outcome.failure.poison:
            record["error"]["poison"] = True
    return record


def failure_from_record(record: dict) -> Optional[JobFailure]:
    """The failure a settled record carries; None for a success."""
    if record.get("status") == "ok":
        return None
    error = record.get("error") or {}
    return JobFailure(
        error_type=str(error.get("type", "JobError")),
        message=str(error.get("message", "")),
        transient=bool(error.get("transient", False)),
        poison=bool(error.get("poison", False)),
    )


def result_from_record(
    job: Job, record: dict, resumed: bool = True
) -> JobResult:
    """The outcome a settled record describes: :func:`journal_record`'s
    inverse, so ``journal_record`` of the result gives the record back.

    Resume replays journal records through it, and ``repro sweep
    --server`` the records the service answers with, so a cell reads the
    same whichever route settled it.  *resumed* marks an outcome that
    was not executed this time.
    """
    failure = failure_from_record(record)
    return JobResult(
        job,
        "ok" if failure is None else "failed",
        result=(
            ResultSnapshot(record.get("metrics") or {})
            if failure is None
            else None
        ),
        failure=failure,
        attempts=int(record.get("attempts", 1)),
        duration=float(record.get("duration", 0.0)),
        backoff_total=float(record.get("backoff_seconds", 0.0)),
        crashes=int(record.get("crashes", 0) or 0),
        resumed=resumed,
        executor=record.get("executor"),
        host=record.get("host"),
        queue_seconds=record.get("queue_seconds"),
    )


def serves(record: Optional[dict], retry_poisoned: bool = False) -> bool:
    """Whether a settled record stands for its job instead of a re-run.

    A success always does.  A quarantined (poisoned) failure does unless
    *retry_poisoned* re-admits the job, so a known worker-killer burns
    no further worker.  Any other failure never does: the job runs
    again.  Resume and the job service both decide by this rule.
    """
    if not record:
        return False
    failure = failure_from_record(record)
    return failure is None or (failure.poison and not retry_poisoned)


def _canonical(data: dict) -> bytes:
    """The byte string the CRC is computed over (stable across loads)."""
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=repr
    ).encode("utf-8")


def frame_record(data: dict) -> str:
    """Encode one journal line: CRC32-framed canonical JSON."""
    payload = _canonical(data)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return '{"crc":"%08x","data":%s}\n' % (crc, payload.decode("utf-8"))


def record_content_hash(record: dict) -> str:
    """Content hash of a journal record, ignoring volatile fields.

    Two runs that produced the same outcome for the same job — whatever
    faults, retries, or resumes happened along the way — hash equal.
    This is the equality the chaos differential suite asserts.
    """
    content = {
        key: value
        for key, value in record.items()
        if key not in VOLATILE_FIELDS
    }
    return hashlib.sha256(_canonical(content)).hexdigest()[:16]


@dataclass
class JournalSalvage:
    """What a journal load found, kept, and had to skip."""

    lines: int = 0  #: non-blank lines examined
    records: int = 0  #: records accepted (framed + legacy)
    legacy: int = 0  #: accepted v1 lines with no checksum to verify
    corrupt: int = 0  #: undecodable lines skipped (torn writes, garbage)
    crc_mismatch: int = 0  #: framed lines whose checksum failed
    duplicates: int = 0  #: accepted records superseded by a later line
    #: line numbers of skipped lines (first _MAX_BAD_LINES)
    bad_lines: List[int] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return self.corrupt + self.crc_mismatch

    @property
    def clean(self) -> bool:
        return self.skipped == 0

    def note_bad(self, line_number: int) -> None:
        if len(self.bad_lines) < _MAX_BAD_LINES:
            self.bad_lines.append(line_number)

    def summary(self) -> str:
        parts = [f"{self.records} record(s)"]
        if self.legacy:
            parts.append(f"{self.legacy} legacy (unchecksummed)")
        if self.duplicates:
            parts.append(f"{self.duplicates} superseded")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt skipped")
        if self.crc_mismatch:
            parts.append(f"{self.crc_mismatch} checksum-mismatch skipped")
        return ", ".join(parts)


class CheckpointJournal:
    """Append-only journal of job outcomes for one sweep."""

    def __init__(self, path: PathLike):
        self.path = Path(path)

    @classmethod
    def for_sweep(
        cls, name: str, directory: PathLike = DEFAULT_CHECKPOINT_DIR
    ) -> "CheckpointJournal":
        """Journal at ``<directory>/<sanitized name>.jsonl``."""
        slug = re.sub(r"[^A-Za-z0-9._+-]+", "_", name).strip("_") or "sweep"
        return cls(Path(directory) / f"{slug}.jsonl")

    @property
    def artifact_dir(self) -> Path:
        """The sweep's trace and profile store: ``<stem>-artifacts/`` beside it."""
        return self.path.with_name(f"{self.path.stem}-artifacts")

    def exists(self) -> bool:
        return self.path.exists()

    def clear(self) -> None:
        """Delete the journal (start the sweep from scratch)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as error:
            raise CheckpointError(
                f"cannot clear checkpoint {self.path}: {error}"
            ) from error

    # -- reading -----------------------------------------------------------

    def _parse_line(
        self, line: str, line_number: int, salvage: JournalSalvage
    ) -> Optional[dict]:
        """One accepted record, or None (damage already counted)."""
        try:
            parsed = json.loads(line)
        except ValueError:
            salvage.corrupt += 1
            salvage.note_bad(line_number)
            return None
        if not isinstance(parsed, dict):
            salvage.corrupt += 1
            salvage.note_bad(line_number)
            return None
        if set(parsed) == {"crc", "data"}:  # v2 framed line
            data = self._verify_framed(parsed)
            if data is None:
                salvage.crc_mismatch += 1
                salvage.note_bad(line_number)
            return data
        if "key" in parsed:  # v1 legacy line: accepted, unverifiable
            salvage.legacy += 1
            return parsed
        salvage.corrupt += 1
        salvage.note_bad(line_number)
        return None

    @staticmethod
    def _salvage_tail(line: str) -> Optional[dict]:
        """Recover a framed record embedded after damage on one line.

        A torn write loses its newline too, so the *next* record — a
        perfectly good one — lands on the same physical line as the torn
        prefix.  Scan for a framed-record start past position 0 and
        verify it; the CRC makes a false positive vanishingly unlikely.
        """
        start = 0
        while True:
            start = line.find('{"crc":"', start + 1)
            if start < 0:
                return None
            candidate = line[start:]
            try:
                parsed = json.loads(candidate)
            except ValueError:
                continue
            if not isinstance(parsed, dict):
                continue
            data = CheckpointJournal._verify_framed(parsed)
            if data is not None:
                return data

    @staticmethod
    def _verify_framed(parsed: dict) -> Optional[dict]:
        """The verified ``data`` of a v2 framed object, else None."""
        if set(parsed) != {"crc", "data"}:
            return None
        data = parsed["data"]
        try:
            stated = int(str(parsed["crc"]), 16)
        except ValueError:
            return None
        if (
            isinstance(data, dict)
            and "key" in data
            and zlib.crc32(_canonical(data)) & 0xFFFFFFFF == stated
        ):
            return data
        return None

    def load_with_stats(self) -> Tuple[Dict[str, dict], JournalSalvage]:
        """(key -> last recorded outcome, salvage report).

        Never raises for damage *inside* the file: corrupt interior
        lines — not just the trailing torn write — are skipped, counted
        in the salvage report, and summarized in one warning.
        """
        salvage = JournalSalvage()
        if not self.path.exists():
            return {}, salvage
        try:
            raw = self.path.read_text(errors="replace")
        except OSError as error:
            raise CheckpointError(
                f"cannot read checkpoint {self.path}: {error}"
            ) from error
        records: Dict[str, dict] = {}
        for line_number, line in enumerate(raw.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            salvage.lines += 1
            data = self._parse_line(line, line_number, salvage)
            if data is None:
                # a torn write eats its newline, merging the *next*
                # (intact) record onto this damaged line — dig it out
                data = self._salvage_tail(line)
                if data is None:
                    continue
            if data["key"] in records:
                salvage.duplicates += 1
            records[data["key"]] = data
            salvage.records += 1
        if not salvage.clean:
            where = ",".join(str(n) for n in salvage.bad_lines)
            warnings.warn(
                f"{self.path}: salvaged corrupt checkpoint journal "
                f"({salvage.summary()}; bad line(s) {where}) — skipped "
                "records will re-run on resume"
            )
        return records, salvage

    def load(self) -> Dict[str, dict]:
        """Map job key -> last recorded outcome; {} if no journal yet."""
        records, _ = self.load_with_stats()
        return records

    def verify(self) -> JournalSalvage:
        """Integrity-check every line without modifying anything."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, salvage = self.load_with_stats()
        return salvage

    # -- writing -----------------------------------------------------------

    def record(
        self,
        outcome: JobResult,
        mutate: Optional[Callable[[str], str]] = None,
    ) -> None:
        """Append one job outcome; atomic at line granularity.

        *mutate*, when given, is applied to the encoded line just before
        the write — the fault-injection hook (torn/corrupted/failing
        writes) that the chaos suite uses to attack this very format.

        Concurrent writers are safe: every record takes an exclusive
        ``flock`` on the journal for the single ``write`` + flush +
        fsync, so two engines (any backend mix) appending to one shared
        journal can interleave *records* but never tear them.  Each call
        opens a fresh descriptor, so the per-fd lock serializes threads
        and processes alike.
        """
        line = frame_record(journal_record(outcome))
        try:
            if mutate is not None:
                line = mutate(line)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as stream:
                if fcntl is not None:
                    fcntl.flock(stream.fileno(), fcntl.LOCK_EX)
                try:
                    stream.write(line)
                    stream.flush()
                    os.fsync(stream.fileno())
                finally:
                    if fcntl is not None:
                        fcntl.flock(stream.fileno(), fcntl.LOCK_UN)
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint {self.path}: {error}"
            ) from error

    def compact(self) -> Tuple[int, int, JournalSalvage]:
        """Atomically rewrite to one checksummed record per key.

        Returns ``(kept, dropped, salvage)`` where *dropped* counts the
        lines that did not survive — damage, superseded retries — and
        every surviving record is re-framed with a CRC (upgrading legacy
        v1 journals in place).  The rewrite goes through a temp file +
        ``os.replace``, so a crash mid-compaction leaves the original.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records, salvage = self.load_with_stats()
        if not self.path.exists():
            return 0, 0, salvage
        try:
            handle, temp_name = tempfile.mkstemp(
                dir=str(self.path.parent), suffix=".compact"
            )
            with os.fdopen(handle, "w") as stream:
                for data in records.values():
                    stream.write(frame_record(data))
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temp_name, self.path)
        except OSError as error:
            raise CheckpointError(
                f"cannot compact checkpoint {self.path}: {error}"
            ) from error
        # damaged frames + superseded retries are what the rewrite sheds;
        # physical line count undercounts when a torn line also yielded a
        # tail-salvaged record
        dropped = salvage.skipped + salvage.duplicates
        return len(records), dropped, salvage

    def content_hashes(self) -> Dict[str, str]:
        """key -> content hash of its surviving record (chaos equality)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records, _ = self.load_with_stats()
        return {
            key: record_content_hash(record)
            for key, record in records.items()
        }
