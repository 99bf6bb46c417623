"""Content-addressed result store backed by the v2 checkpoint journal.

The store is the service's cache layer: an in-memory map of job key →
journal-shaped record, loaded from (and persisted through) the same
CRC-framed JSONL journal the sweep engine checkpoints into.  The engine
remains the single writer — every terminal outcome it journals is
absorbed here as the engine reports it — so the durable file and the
served cache cannot disagree about what a record *says*, only about
whether a torn write made it durable (in which case the resume path
re-runs that one cell, exactly as a direct-engine chaos run would).

Whether a stored record is served or its job re-runs is the engine's
resume rule, :func:`~repro.experiments.engine.checkpoint.serves`: ``ok``
records and quarantined (poisoned) failures are served, and any other
failure re-executes on resubmission, the way ``--resume`` retries it.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, Optional

from repro.experiments.engine.checkpoint import (
    CheckpointJournal,
    JournalSalvage,
    journal_record,
    record_content_hash,
)
from repro.experiments.engine.job import JobResult


class ResultStore:
    """Shared content-addressed cache of settled job records."""

    def __init__(self, journal: CheckpointJournal):
        self.journal = journal
        self._records: Dict[str, dict] = {}
        self._lock = threading.Lock()
        #: what the last journal load salvaged (None before first load)
        self.salvage: Optional[JournalSalvage] = None
        self.load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def load(self) -> JournalSalvage:
        """(Re)load the journal into memory, salvaging any damage."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records, salvage = self.journal.load_with_stats()
        with self._lock:
            self._records = records
            self.salvage = salvage
        return salvage

    def get(self, key: str) -> Optional[dict]:
        """The settled record for *key*, or None."""
        with self._lock:
            return self._records.get(key)

    def absorb(self, outcome: JobResult) -> dict:
        """Fold one settled outcome into the cache; returns its record.

        The engine already journaled the outcome (modulo injected or
        real write faults); absorbing it from the engine's progress
        callback keeps the served cache authoritative even when a
        journal write was lost — the loss surfaces only on restart, as a
        re-execution.
        """
        record = journal_record(outcome)
        with self._lock:
            self._records[outcome.job.key()] = record
        return record

    def content_hashes(self) -> Dict[str, str]:
        """key → content hash of its record (the chaos-equality surface)."""
        with self._lock:
            return {
                key: record_content_hash(record)
                for key, record in self._records.items()
            }

    def policy_counts(self) -> Dict[str, int]:
        """Throttling policy → number of stored records it governed.

        Records from journals written before the policy subsystem carry
        no ``policy`` field and count under ``"null"`` — the same
        pre-feature-is-explicit convention the export columns use.
        """
        counts: Dict[str, int] = {}
        with self._lock:
            for record in self._records.values():
                policy = record.get("policy") or "null"
                counts[policy] = counts.get(policy, 0) + 1
        return counts
