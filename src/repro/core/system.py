"""Multi-core system: private caches per core, one shared DRAM controller.

Cores interleave in global-cycle order (the core with the smallest local
clock, the lowest index on a tie, runs next), so requests reach the
shared banks, bus and request buffer in approximately true time order
and inter-core contention emerges from the same structures single-core
contention does (paper Section 6.6).  The earliest core runs a slice of
ops through its resumable loop (:meth:`~repro.core.cpu.Core.run_until`)
until its clock passes the next-earliest core's, so scheduling happens
once per switch, not once per op.

Each benchmark in a multiprogrammed workload runs its own trace to
completion; per-benchmark IPC is taken at its own finish, the standard
methodology behind weighted speedup [Snavely & Tullsen].
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.core.cpu import Core
from repro.core.instruction import MemOp
from repro.core.stats import CoreResult


class MultiCoreSystem:
    """Interleaves several cores against one shared memory system."""

    def __init__(self, cores: Sequence[Core]) -> None:
        if not cores:
            raise ValueError("need at least one core")
        self.cores = list(cores)

    def run(self, traces: Sequence[Iterable[MemOp]]) -> List[CoreResult]:
        """Run each core's trace; returns per-core results in core order.

        A core runs its next op only while it is the earliest by
        ``(cycle, index)``, and a core whose trace has ended finishes
        only when it is next the earliest (its tail telemetry sample
        reads the shared DRAM).
        """
        if len(traces) != len(self.cores):
            raise ValueError("one trace per core required")
        cores = self.cores
        # each loop starts suspended before its first op
        loops = [
            core.run_until(trace, -math.inf)
            for core, trace in zip(cores, traces)
        ]
        for loop in loops:
            next(loop)
        results: Dict[int, CoreResult] = {}
        active = list(range(len(cores)))
        while active:
            # stable sort of ascending indices: ties go to the lower index
            order = sorted(active, key=lambda i: cores[i].cycle)
            index = order[0]
            if len(order) == 1:
                until = math.inf
            else:
                rival = order[1]
                until = cores[rival].cycle
                if rival < index:
                    # the rival wins a tie, so stop strictly before it
                    until = math.nextafter(until, -math.inf)
            try:
                loops[index].send(until)
            except StopIteration:
                results[index] = cores[index].finish()
                active.remove(index)
        return [results[index] for index in range(len(cores))]
