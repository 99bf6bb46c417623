"""Cycle-approximate out-of-order core with a full memory hierarchy.

The model follows the standard MLP-interval approximation of an OoO
processor: dispatch advances at ``issue_width`` instructions per cycle;
demand-load misses overlap up to the L2 MSHR count within a ROB-sized
instruction window; when the window saturates, dispatch stalls until the
oldest miss completes (in-order retirement).  All prefetch traffic flows
through the same prefetch queue, DRAM banks and bus as demand traffic, so
inter-prefetcher interference — the paper's subject — is structural, not
scripted.

Event ordering per memory op:

1. fire any deferred CDP block scans whose fills have arrived,
2. advance dispatch by the op's work,
3. demand access walks L1 -> L2 -> DRAM (demands first on the bus),
4. prefetchers observe the access and their requests issue afterwards.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Deque, Dict, Generator, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.cache.set_assoc import SetAssociativeCache
from repro.core.config import SystemConfig
from repro.core.instruction import MemOp
from repro.core.stats import CoreResult, PrefetcherResult
from repro.dram.controller import DramController
from repro.memory.address import block_address, block_offset
from repro.memory.backing import SimulatedMemory
from repro.prefetch.base import Prefetcher, PrefetchQueue, PrefetchRequest
from repro.prefetch.cdp import CDP_LEVELS, ContentDirectedPrefetcher
from repro.prefetch.dbp import DependenceBasedPrefetcher
from repro.prefetch.filter_hw import HardwarePrefetchFilter
from repro.throttle.feedback import FeedbackCollector
from repro.throttle.gendler import GendlerSelector


class Core:
    """One core: private L1/L2, its prefetchers, and a share of the DRAM."""

    def __init__(
        self,
        config: SystemConfig,
        memory: SimulatedMemory,
        dram: DramController,
        name: str = "core0",
        stream: Optional[Prefetcher] = None,
        cdp: Optional[ContentDirectedPrefetcher] = None,
        correlation_prefetchers: Sequence[Prefetcher] = (),
        dbp: Optional[DependenceBasedPrefetcher] = None,
        hw_filter: Optional[HardwarePrefetchFilter] = None,
        gendler: Optional[GendlerSelector] = None,
        oracle_pcs: Optional[Set[int]] = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.dram = dram
        self.name = name
        self.stream = stream
        self.cdp = cdp
        self.correlation = list(correlation_prefetchers)
        self.dbp = dbp
        self.hw_filter = hw_filter
        self.gendler = gendler
        self.oracle_pcs = oracle_pcs or set()
        #: optional informing-load profiling hook (compiler.informing)
        self.pg_observer = None

        self.l1 = self._make_cache(config.l1_size, config.l1_ways, f"{name}-l1")
        self.l2 = self._make_cache(config.l2_size, config.l2_ways, f"{name}-l2")
        self.pf_queue = PrefetchQueue(config.prefetch_queue_size)

        trained: List[Prefetcher] = []
        if stream is not None:
            trained.append(stream)
        trained.extend(self.correlation)
        if dbp is not None:
            trained.append(dbp)
        self._trained_prefetchers = trained
        names = [p.name for p in trained]
        if cdp is not None:
            names.append(cdp.name)
        #: optional telemetry stream (repro.telemetry.CoreTelemetry).
        #: None (the default) keeps every hot path exactly as before:
        #: the plain collector below and a no-op tracer guard on the
        #: prefetch-issue cold path are the entire disabled footprint.
        self.telemetry = telemetry
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is None:
            self.feedback = FeedbackCollector(names, config.interval_evictions)
        else:
            self.feedback = telemetry.make_collector(
                names, config.interval_evictions, clock=self
            )

        self.cycle = 0.0
        self.retired = 0
        self.bus_transfers = 0
        self._dispatch_cost = 1.0 / config.issue_width
        self._outstanding: Deque[Tuple[float, int]] = deque()
        self._deferred: List[Tuple[float, int, int, int]] = []  # CDP scans
        self._seq = 0
        self._finished = False
        # Load-load dependence tracking: completion time per load sequence
        # number, so a pointer-chasing load issues only after its producer.
        self._load_seq = 0
        self._completions: Dict[int, float] = {}
        self._completion_prune_at = 8192

    def _make_cache(self, size_bytes: int, ways: int, name: str):
        """Cache factory hook; the fast engine substitutes its flat cache."""
        return SetAssociativeCache(
            size_bytes, ways, self.config.block_size, name
        )

    # -- public driving interface ---------------------------------------------

    def run(self, trace: Iterable[MemOp]) -> CoreResult:
        """Run a whole trace to completion and return the results."""
        for op in trace:
            self.step(op)
        return self.finish()

    def run_until(
        self, trace: Iterable[MemOp], until: float
    ) -> Generator[None, float, None]:
        """``run`` in resumable slices, for interleaving cores in time.

        Executes ops while this core's clock is at most ``until`` and
        yields before the first op that would start later; ``send``
        resumes it with a new bound.  It returns once the trace is
        exhausted with the clock within the bound; the caller then
        calls :meth:`finish`.
        """
        for op in trace:
            if self.cycle > until:
                until = yield
            self.step(op)
        if self.cycle > until:
            yield

    def step(self, op: MemOp) -> None:
        """Execute one memory operation (plus its preceding work)."""
        if self._deferred and self._deferred[0][0] <= self.cycle:
            self._drain_deferred()
        work = op.work + 1
        self.cycle += work * self._dispatch_cost
        self.retired += work
        self._enforce_rob_span()
        if op.is_load:
            self._load(op)
        else:
            self._store(op)

    def finish(self) -> CoreResult:
        """Retire all outstanding work and assemble the results."""
        if not self._finished:
            for completion, __ in self._outstanding:
                if completion > self.cycle:
                    self.cycle = completion
            self._outstanding.clear()
            self._finished = True
            # Fold the trailing partial interval into the smoothed
            # counters (and the recorded series, when telemetry is on).
            # The throttling controller is deliberately not invoked.
            self.feedback.flush_partial_interval()
        return self.result()

    def result(self) -> CoreResult:
        prefetchers: Dict[str, PrefetcherResult] = {}
        for owner, counters in self.feedback.counters.items():
            prefetchers[owner] = PrefetcherResult(
                issued=counters.lifetime_prefetched,
                used=counters.lifetime_used,
                late=counters.lifetime_late,
            )
        return CoreResult(
            name=self.name,
            retired_instructions=self.retired,
            cycles=self.cycle,
            l1_hits=self.l1.stats.hits,
            l1_misses=self.l1.stats.misses,
            l2_hits=self.l2.stats.hits,
            l2_demand_misses=self.feedback.lifetime_misses,
            bus_transfers=self.bus_transfers,
            prefetchers=prefetchers,
            intervals_completed=self.feedback.intervals_completed,
        )

    # -- dispatch window -------------------------------------------------------

    def _enforce_rob_span(self) -> None:
        """Stall dispatch on misses older than one ROB of instructions."""
        outstanding = self._outstanding
        horizon = self.retired - self.config.rob_size
        while outstanding and outstanding[0][1] <= horizon:
            completion, __ = outstanding.popleft()
            if completion > self.cycle:
                self.cycle = completion

    def _push_outstanding(self, completion: float) -> None:
        outstanding = self._outstanding
        cycle = self.cycle
        while outstanding and outstanding[0][0] <= cycle:
            outstanding.popleft()
        outstanding.append((completion, self.retired))
        while len(outstanding) > self.config.l2_mshrs:
            head_completion, __ = outstanding.popleft()
            if head_completion > self.cycle:
                self.cycle = head_completion
                cycle = head_completion
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()

    # -- demand path -------------------------------------------------------------

    def _ready_time(self, op: MemOp) -> float:
        """Earliest cycle this load's address is available.

        A dependent load (pointer chase) waits for its producer load to
        complete; an independent load issues at the dispatch frontier.
        """
        if op.dep < 0:
            return self.cycle
        return max(self.cycle, self._completions.get(op.dep, 0.0))

    def _record_completion(self, seq: int, completion: float) -> None:
        self._completions[seq] = completion
        if len(self._completions) >= self._completion_prune_at:
            # Dependences are short-range; drop the older half.
            horizon = seq - self._completion_prune_at // 2
            self._completions = {
                s: c for s, c in self._completions.items() if s > horizon
            }

    def _load(self, op: MemOp) -> None:
        cfg = self.config
        seq = self._load_seq
        self._load_seq = seq + 1
        ready = self._ready_time(op)
        if self.l1.lookup(op.addr) is not None:
            completion = ready + cfg.l1_latency
            self._record_completion(seq, completion)
            if completion > self.cycle:
                self._push_outstanding(completion)
            self._value_hooks(op, completion)
            return
        block = self.l2.lookup(op.addr)
        if block is not None:
            completion = self._l2_hit_load(op, block, ready)
        else:
            completion = self._l2_miss_load(op, ready)
        self._record_completion(seq, completion)
        self._value_hooks(op, completion)

    def _l2_hit_load(self, op: MemOp, block, ready: float) -> float:
        cfg = self.config
        late = block.fill_time > ready
        if late:
            # Demand merge with an in-flight (usually prefetch) fill.  A
            # real controller promotes the merged request to demand
            # priority, so the wait is bounded by what a fresh demand
            # fetch would have cost.
            data_ready = min(block.fill_time, ready + self.dram.unloaded_latency())
            block.fill_time = data_ready
        else:
            data_ready = ready
        completion = data_ready + cfg.l2_latency
        owner = block.mark_used()
        if owner is not None:
            self.feedback.record_use(owner, late=late)
            if self.gendler is not None:
                self.gendler.record_use(owner)
            if self.cdp is not None and owner == self.cdp.name:
                if self.hw_filter is not None:
                    self.hw_filter.on_prefetch_used(block.addr)
                if self.pg_observer is not None:
                    self.pg_observer.on_use(block.addr)
        self._fill_l1(op.addr)
        self._push_outstanding(completion)
        self._train_prefetchers(op, l2_hit=True)
        return completion

    def _l2_miss_load(self, op: MemOp, ready: float) -> float:
        cfg = self.config
        block_addr = block_address(op.addr, cfg.block_size)
        self.feedback.record_demand_miss(block_addr)
        if op.pc in self.oracle_pcs:
            # Ideal-LDS oracle (paper Figure 1 bottom): the miss becomes a
            # hit — no DRAM access, no bus transfer.
            completion = ready + cfg.l2_latency
            self._fill_l2(block_addr, fill_time=ready, demand_pc=op.pc)
        else:
            arrival = self.dram.access(ready, block_addr, is_demand=True)
            self.bus_transfers += 1
            completion = arrival + cfg.l2_latency
            self._fill_l2(block_addr, fill_time=arrival, demand_pc=op.pc)
            if self.cdp is not None and self._prefetcher_enabled(self.cdp.name):
                # The scan conceptually happens when the fill arrives; the
                # resulting prefetches are issued then.  Issuing at the
                # miss's ready time keeps arrival order consistent with
                # the dependent demand stream (see DESIGN.md Section 5).
                words = self.memory.read_block_words(block_addr, cfg.block_size)
                requests = self.cdp.scan_fill(
                    block_addr,
                    words,
                    depth=1,
                    demand_pc=op.pc,
                    accessed_offset=block_offset(op.addr, cfg.block_size),
                )
                for request in requests:
                    self._issue_prefetch(request, ready)
        self._fill_l1(op.addr)
        self._push_outstanding(completion)
        self._train_prefetchers(op, l2_hit=False)
        return completion

    def _store(self, op: MemOp) -> None:
        cfg = self.config
        l1_block = self.l1.lookup(op.addr)
        if l1_block is not None:
            l1_block.dirty = True
            return
        block = self.l2.lookup(op.addr)
        if block is not None:
            owner = block.mark_used()
            if owner is not None:
                self.feedback.record_use(owner, late=block.fill_time > self.cycle)
                if self.gendler is not None:
                    self.gendler.record_use(owner)
                if (
                    self.cdp is not None
                    and owner == self.cdp.name
                    and self.pg_observer is not None
                ):
                    self.pg_observer.on_use(block.addr)
            self._fill_l1(op.addr, dirty=True)
            if cfg.train_on_stores:
                self._train_prefetchers(op, l2_hit=True)
            return
        block_addr = block_address(op.addr, cfg.block_size)
        self.feedback.record_demand_miss(block_addr)
        self.dram.access(self.cycle, block_addr, is_demand=True)
        self.bus_transfers += 1
        self._fill_l2(block_addr, fill_time=self.cycle, demand_pc=op.pc)
        self._fill_l1(op.addr, dirty=True)
        if cfg.train_on_stores:
            self._train_prefetchers(op, l2_hit=False)

    # -- fills and evictions -------------------------------------------------------

    def _fill_l1(self, addr: int, dirty: bool = False) -> None:
        victim = self.l1.insert(addr, fill_time=self.cycle, dirty=dirty)
        if victim is not None and victim.dirty:
            # Write-back to L2: update the L2 copy if still resident;
            # otherwise the dirty data must go all the way to memory.
            l2_block = self.l2.peek(victim.addr)
            if l2_block is not None:
                l2_block.dirty = True
            else:
                self.dram.writeback(self.cycle, victim.addr)
                self.bus_transfers += 1

    def _fill_l2(
        self,
        block_addr: int,
        fill_time: float,
        prefetch_owner: Optional[str] = None,
        demand_pc: int = 0,
    ) -> None:
        victim = self.l2.insert(
            block_addr,
            fill_time=fill_time,
            prefetch_owner=prefetch_owner,
            demand_pc=demand_pc,
        )
        if victim is None:
            return
        self.feedback.record_eviction(
            victim.addr,
            by_prefetch=prefetch_owner is not None,
            victim_was_demand=victim.prefetch_owner is None,
        )
        if victim.prefetch_owner is not None:
            if self.cdp is not None and victim.prefetch_owner == self.cdp.name:
                if self.hw_filter is not None:
                    self.hw_filter.on_prefetch_evicted_unused(victim.addr)
                if self.pg_observer is not None:
                    self.pg_observer.on_evict(victim.addr)
        if victim.dirty:
            self.dram.writeback(self.cycle, victim.addr)
            self.bus_transfers += 1

    # -- prefetch path ------------------------------------------------------------

    def _prefetcher_enabled(self, owner: str) -> bool:
        if self.gendler is None:
            return True
        return self.gendler.is_enabled(owner)

    def _train_prefetchers(self, op: MemOp, l2_hit: bool) -> None:
        for prefetcher in self._trained_prefetchers:
            requests = prefetcher.on_demand_access(
                self.cycle, op.addr, op.pc, l2_hit
            )
            if requests and self._prefetcher_enabled(prefetcher.name):
                for request in requests:
                    self._issue_prefetch(request, self.cycle)

    def _value_hooks(self, op: MemOp, completion: float) -> None:
        """Value hook: every retiring load exposes its loaded value to
        DBP, which trains its producer table on it.

        The value is only available when the load *completes*, so
        producer-triggered prefetches are issued at the completion
        time — this is precisely why DBP "cannot prefetch far ahead
        enough to cover modern memory latencies" (paper Section 6.3):
        its one-hop lookahead starts a full miss latency late."""
        if self.dbp is None:
            return
        value = self.memory.read_word(op.addr)
        requests = self.dbp.on_load_value(completion, op.pc, value)
        if requests and self._prefetcher_enabled(self.dbp.name):
            for request in requests:
                self._issue_prefetch(request, completion)

    def _issue_prefetch(
        self,
        request: PrefetchRequest,
        now: float,
        parent_addr: Optional[int] = None,
    ) -> None:
        block_addr = request.block_addr
        is_cdp = self.cdp is not None and request.owner == self.cdp.name
        if (
            is_cdp
            and self.hw_filter is not None
            and not self.hw_filter.allows(block_addr)
        ):
            return
        # "This prefetch request first accesses the last-level cache; if it
        # misses, a memory request is issued" (paper Section 2.2).
        if self.l2.contains(block_addr):
            return
        if not self.pf_queue.try_admit(now):
            return
        completion = self.dram.access(now, block_addr, is_demand=False)
        if completion is None:
            return  # dropped: memory request buffer full
        self.pf_queue.commit(completion)
        self.bus_transfers += 1
        self.feedback.record_issue(request.owner)
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(now, "prefetch", request.owner, block_addr,
                        completion - now)
        if self.gendler is not None:
            self.gendler.record_issue(request.owner)
        if is_cdp and self.pg_observer is not None:
            self.pg_observer.on_issue(block_addr, request.root, parent_addr)
        self._fill_l2(block_addr, fill_time=completion, prefetch_owner=request.owner)
        if is_cdp and request.depth < CDP_LEVELS[-1]:
            self._seq += 1
            heapq.heappush(
                self._deferred, (completion, self._seq, block_addr, request.depth)
            )

    def _drain_deferred(self) -> None:
        """Scan CDP-prefetched blocks whose fills have now arrived."""
        cfg = self.config
        deferred = self._deferred
        while deferred and deferred[0][0] <= self.cycle:
            when, __, block_addr, depth = heapq.heappop(deferred)
            if self.cdp is None or not self._prefetcher_enabled(self.cdp.name):
                continue
            words = self.memory.read_block_words(block_addr, cfg.block_size)
            requests = self.cdp.scan_fill(
                block_addr, words, depth=depth + 1, demand_pc=None
            )
            for request in requests:
                self._issue_prefetch(request, when, parent_addr=block_addr)
