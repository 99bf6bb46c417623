"""Trace representation: the memory operations a workload's execution emits.

Workloads in this reproduction are programs that execute against the
simulated memory (building and traversing real linked data structures) and
emit a stream of :class:`MemOp` records.  Each record carries the static
program counter of the instruction, the effective address, and the amount of
non-memory work (in retired instructions) since the previous memory op —
enough for the cycle-approximate core model and for every mechanism in the
paper (PGs key on static loads; BPKI normalizes by retired instructions).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple


class MemOp(NamedTuple):
    """One dynamic memory operation in a workload trace.

    A named tuple rather than a frozen dataclass: workloads emit one per
    traced access, and tuple construction costs about a third as much.
    Fields are still read-only and no attribute can be added.

    Attributes:
        pc: Static instruction identifier of the load/store.  Pointer
            groups PG(L, X) are keyed on this (paper Section 3).
        addr: Effective virtual byte address accessed.
        is_load: True for loads; stores are modelled write-allocate and
            never block retirement.
        work: Number of non-memory instructions retired since the previous
            memory operation (drives IPC and BPKI denominators).
        dep: Load sequence number of the earlier load that produced this
            op's address (-1 = address-independent).  Pointer chasing is
            *serial*: a dependent load cannot issue before its producer
            completes — the property that makes LDS misses expensive and
            LDS prefetching valuable in the first place.
    """

    pc: int
    addr: int
    is_load: bool
    work: int
    dep: int


class PcAllocator:
    """Hands out unique static PCs, one per named load/store site.

    A workload asks for a PC per syntactic access site so that re-running
    the generator (profiling run vs. measured run) yields identical PCs —
    a requirement for the compiler's hint table to transfer between runs.
    """

    def __init__(self, base: int = 0x400000, stride: int = 4) -> None:
        self._base = base
        self._stride = stride
        self._by_name: dict = {}
        self._count = 0

    def pc(self, site_name: str) -> int:
        """Return the stable PC for access site *site_name*."""
        existing = self._by_name.get(site_name)
        if existing is not None:
            return existing
        pc = self._base + self._count * self._stride
        self._by_name[site_name] = pc
        self._count += 1
        return pc

    def name_of(self, pc: int) -> str:
        """Reverse lookup, for diagnostics."""
        for name, assigned in self._by_name.items():
            if assigned == pc:
                return name
        raise KeyError(f"unknown pc {pc:#x}")

    def __len__(self) -> int:
        return self._count


def count_instructions(trace: Iterable[MemOp]) -> int:
    """Total retired instructions a trace represents (memory ops + work)."""
    total = 0
    for op in trace:
        total += 1 + op.work
    return total


def materialize(trace: Iterator[MemOp]) -> List[MemOp]:
    """Force a trace generator into a list (used by tests and profiling)."""
    return list(trace)
