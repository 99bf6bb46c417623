"""Deterministic fault injection for the execution engine.

A :class:`FaultPlan` is a list of :class:`FaultSpec` coordinates — *which
fault* fires at *which (job, attempt)* — plus the plumbing to deliver
them at the two places a sweep can break:

* **worker faults** (``crash``, ``hang``, ``slow-start``,
  ``unpicklable``) are resolved by the executor at launch time and
  shipped to :func:`~repro.experiments.engine.worker.worker_shim`, which
  applies them inside the child process — a crash really is
  ``os._exit``, a hang really stops heartbeating;
* **journal faults** (``torn-write``, ``corrupt-write``, ``enospc``) are
  applied by the checkpoint journal's write hook — the record line is
  truncated mid-byte, bit-flipped, or the write raises ``ENOSPC``;
* **``abort``** stops the scheduler loop right after the matching job is
  journaled, simulating ``kill -9`` at a deterministic point;
* **backend faults** (``connect-fail``, ``host-loss``,
  ``partitioned-ack``) are applied by the executor around the
  :class:`~repro.experiments.engine.backends.ExecutorBackend` protocol —
  a dispatch that never reaches a worker, a host killed mid-flight, a
  result whose acknowledgement the partition ate.  They attack the
  *transport*, so the same plan exercises the fork pool and the
  subprocess pool identically.

Every fault fires at most once per (fault, job, attempt) coordinate, so
a plan is idempotent within a run; plans serialize to JSON
(``sweep --inject-faults PLAN.json``) so any chaos failure reproduces
from one file.  :meth:`FaultPlan.generate` derives a plan from a seed
and a job list — same seed, same jobs, same faults, always.

The headline property this subsystem exists to enforce (see
``tests/test_chaos.py``): for every fault kind in :data:`FAULT_KINDS`, a
sweep broken by the fault and re-run with ``--resume`` converges to a
result set content-identical to an uninterrupted run.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import FaultPlanError

PathLike = Union[str, Path]

#: faults applied inside the worker process
WORKER_FAULTS = ("crash", "hang", "slow-start", "unpicklable")
#: faults applied to the checkpoint journal write of the job's record
JOURNAL_FAULTS = ("torn-write", "corrupt-write", "enospc")
#: faults applied to the scheduler itself
ENGINE_FAULTS = ("abort",)
#: faults applied to the executor backend carrying the job: the dispatch
#: fails to reach a worker (``connect-fail``), the host dies mid-flight
#: (``host-loss``), or the result acknowledgement is lost to a partition
#: (``partitioned-ack``).  Delivered by the executor around the backend
#: protocol, so every backend — local pool included — is attackable.
BACKEND_FAULTS = ("connect-fail", "host-loss", "partitioned-ack")

#: the full catalog, in documentation order
FAULT_KINDS = WORKER_FAULTS + JOURNAL_FAULTS + ENGINE_FAULTS + BACKEND_FAULTS

#: exit code of an injected worker crash (distinctive in crash reports)
CRASH_EXIT_CODE = 70

#: how long an injected hang blocks (the watchdog/timeout must kill it
#: long before this; it only bounds a chaos test that misconfigures both)
_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class FaultSpec:
    """One fault at one (job, attempt) coordinate.

    ``job`` selects targets: a job key, or an ``fnmatch`` pattern tested
    against the job's ``benchmark/mechanism`` label and its benchmark
    name (``"*"`` matches every job).  ``attempt`` is 1-based; ``0``
    matches every attempt — the way to make a job crash *reproducibly*
    and exercise poison quarantine.  ``arg`` is the kind-specific knob:
    seconds for ``slow-start``/``hang``, a byte offset for ``torn-write``
    and ``corrupt-write``, the exit code for ``crash``.
    """

    kind: str
    job: str = "*"
    attempt: int = 1
    arg: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; "
                f"catalog: {', '.join(FAULT_KINDS)}"
            )
        if self.attempt < 0:
            raise FaultPlanError(
                f"fault attempt must be >= 0, got {self.attempt}"
            )

    def matches(self, job, attempt: int) -> bool:
        if self.attempt not in (0, attempt):
            return False
        return (
            self.job == job.key()
            or fnmatch(job.label, self.job)
            or fnmatch(job.benchmark, self.job)
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": self.kind, "job": self.job}
        if self.attempt != 1:
            payload["attempt"] = self.attempt
        if self.arg is not None:
            payload["arg"] = self.arg
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"fault entry must be an object, got {payload!r}"
            )
        unknown = set(payload) - {"kind", "job", "attempt", "arg"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault fields: {', '.join(sorted(unknown))}"
            )
        try:
            return cls(
                kind=str(payload["kind"]),
                job=str(payload.get("job", "*")),
                attempt=int(payload.get("attempt", 1)),
                arg=(
                    None
                    if payload.get("arg") is None
                    else float(payload["arg"])
                ),
            )
        except KeyError as error:
            raise FaultPlanError(
                f"fault entry missing required field: {error}"
            ) from error
        except (TypeError, ValueError) as error:
            raise FaultPlanError(f"malformed fault entry: {error}") from error


class FaultPlan:
    """A deterministic schedule of faults for one sweep."""

    def __init__(self, faults: Iterable[FaultSpec] = ()):
        self.faults: List[FaultSpec] = list(faults)
        #: (fault index, job key, attempt) coordinates already fired
        self._fired: Set[Tuple[int, str, int]] = set()

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict) or "faults" not in payload:
            raise FaultPlanError(
                'fault plan must be {"faults": [...]} '
                f"(got {type(payload).__name__})"
            )
        faults = payload["faults"]
        if not isinstance(faults, list):
            raise FaultPlanError('"faults" must be a list')
        return cls(FaultSpec.from_dict(entry) for entry in faults)

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as error:
            raise FaultPlanError(
                f"cannot read fault plan {path}: {error}"
            ) from error
        except ValueError as error:
            raise FaultPlanError(
                f"{path}: fault plan is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    def to_dict(self) -> Dict[str, object]:
        return {"faults": [fault.to_dict() for fault in self.faults]}

    def save(self, path: PathLike) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def generate(
        cls,
        jobs: Iterable,
        seed: int = 0,
        kinds: Iterable[str] = FAULT_KINDS,
        rate: float = 0.5,
    ) -> "FaultPlan":
        """A seed-deterministic plan over *jobs*.

        Each job independently draws whether it gets a fault
        (probability *rate*) and which kind, from ``random.Random(seed)``
        — the same seed and job list always produce the same plan, which
        is what makes a chaos-suite failure reproducible from its seed.
        Faults are pinned to job keys (not patterns), so the plan is
        stable under job-list reordering too.
        """
        kinds = list(kinds)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise FaultPlanError(f"unknown fault kind {kind!r}")
        rng = random.Random(seed)
        faults = []
        for job in jobs:
            if rng.random() >= rate:
                continue
            faults.append(FaultSpec(kind=rng.choice(kinds), job=job.key()))
        return cls(faults)

    # -- resolution (executor side) ----------------------------------------

    def _take(self, job, attempt: int, kinds) -> Optional[FaultSpec]:
        for index, fault in enumerate(self.faults):
            if fault.kind not in kinds:
                continue
            coordinate = (index, job.key(), attempt)
            if coordinate in self._fired:
                continue
            if fault.matches(job, attempt):
                self._fired.add(coordinate)
                return fault
        return None

    def worker_fault(self, job, attempt: int) -> Optional[FaultSpec]:
        """The worker-side fault to ship with this launch, if any."""
        return self._take(job, attempt, WORKER_FAULTS)

    def journal_fault(self, job, attempt: int) -> Optional[FaultSpec]:
        """The journal-write fault for this job's record, if any."""
        return self._take(job, attempt, JOURNAL_FAULTS)

    def abort_after(self, job, attempt: int) -> bool:
        """Abort the sweep right after this job settles?"""
        return self._take(job, attempt, ENGINE_FAULTS) is not None

    def backend_fault(self, job, attempt: int) -> Optional[FaultSpec]:
        """The backend/transport fault for this launch, if any."""
        return self._take(job, attempt, BACKEND_FAULTS)


# -- delivery ---------------------------------------------------------------


def journal_mutator(spec: FaultSpec) -> Callable[[str], str]:
    """The checkpoint write hook implementing a journal fault.

    Returns a callable applied to the encoded record line just before it
    hits the file: ``torn-write`` truncates at a byte offset (default:
    mid-line, the classic power-loss shape), ``corrupt-write`` flips one
    byte in place (bit rot / concurrent-writer damage — the line *parses*
    as the wrong record unless checksummed, which is exactly what the
    CRC framing exists to catch), and ``enospc`` raises ``OSError`` as a
    full disk would.
    """
    if spec.kind == "torn-write":

        def torn(line: str) -> str:
            cut = int(spec.arg) if spec.arg is not None else len(line) // 2
            return line[: max(0, cut)]

        return torn
    if spec.kind == "corrupt-write":

        def corrupt(line: str) -> str:
            body = line.rstrip("\n")
            if not body:
                return line
            at = (
                int(spec.arg)
                if spec.arg is not None
                else len(body) // 2
            )
            at = min(max(0, at), len(body) - 1)
            flipped = chr((ord(body[at]) ^ 0x20) or 0x21)
            return body[:at] + flipped + body[at + 1:] + "\n"

        return corrupt
    if spec.kind == "enospc":

        def enospc(line: str) -> str:
            raise OSError(errno.ENOSPC, "injected: no space left on device")

        return enospc
    raise FaultPlanError(f"{spec.kind!r} is not a journal fault")


def apply_worker_fault(spec: FaultSpec, stop_heartbeat) -> None:
    """Apply a worker-side fault inside the child process (pre-worker).

    ``unpicklable`` is not handled here — it corrupts the *result*, so
    the shim applies it after the worker returns.
    """
    if spec.kind == "crash":
        os._exit(int(spec.arg) if spec.arg is not None else CRASH_EXIT_CODE)
    elif spec.kind == "hang":
        # a real wedge: the heartbeat thread stops too, so the watchdog
        # (not just the wall-clock timeout) can tell this from slowness
        stop_heartbeat.set()
        time.sleep(spec.arg if spec.arg is not None else _HANG_SECONDS)
    elif spec.kind == "slow-start":
        # slow but alive: heartbeats keep flowing while we sleep
        time.sleep(spec.arg if spec.arg is not None else 0.5)


class Unpicklable:
    """A result poison-pill: survives construction, fails pickling."""

    def __reduce__(self):
        raise TypeError("injected: result not picklable")
