"""Fast-path simulation kernel: the ``engine="fast"`` core model, the
default; :class:`~repro.core.cpu.Core` stays as its oracle.

:class:`FastCore` executes exactly the algorithm of
:class:`~repro.core.cpu.Core` — same event ordering, same arithmetic,
same feedback/throttling hooks — but restructured for speed:

* caches are :class:`~repro.cache.set_assoc.FlatSetAssociativeCache`
  instances (tag->slot dicts plus flat metadata arrays) instead of
  per-block :class:`~repro.cache.block.CacheBlock` objects;
* the per-op hot path is one inlined loop (``run_until``): no
  ``lookup``/``insert``/``_l2_hit_load`` call chain, no dataclass
  construction, no repeated ``block_address`` calls.  Single-core
  ``run`` drives it over the whole trace; ``MultiCoreSystem`` resumes
  it one slice at a time, so both paths share this one copy of the
  L1 -> L2 -> DRAM walk.  Loads and stores take one L1-miss path with
  one inlined L1 fill, testing ``is_load`` only where ``Core``'s load
  and store paths differ;
* per-op prefetcher observation dispatch is precomputed once
  (``_train_dispatch``) instead of re-resolving attribute chains per
  access;
* demand misses use :meth:`DramController.demand_access_fast`, the
  flattened form of the controller/bank/bus composition.

The two engines must stay *bit-identical* on every CoreResult /
PrefetcherResult statistic, throttle trajectory, and cache/DRAM counter;
``tests/differential/`` enforces this over a (workload x mechanism x
throttling) matrix.  Any optimization that changes a number is a bug
here, never a tolerable drift.  Cold paths (deferred CDP scans, prefetch
issue, the DBP value hook, result assembly) are inherited from ``Core``
unchanged.

Telemetry contract: the loop binds ``feedback.record_use`` /
``record_demand_miss`` / ``record_eviction`` as locals once at entry, so
a :class:`~repro.telemetry.tracer.TracingFeedbackCollector` (chosen at
construction time when event tracing is on) binds transparently — and
``self.cycle`` / ``self.retired`` are flushed from the loop-local copies
before every ``record_*`` call site, so event timestamps are
bit-identical to the reference engine.  With telemetry disabled this hot
loop is byte-for-byte the pre-telemetry path.
"""

from __future__ import annotations

import math
from typing import Generator, Iterable

from repro.cache.set_assoc import FlatSetAssociativeCache
from repro.core.cpu import Core
from repro.core.instruction import MemOp
from repro.core.stats import CoreResult


class FastCore(Core):
    """Behavior-identical, flat-state reimplementation of ``Core``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.config
        # hot-loop constants, hoisted out of the per-op path
        self._blk = cfg.block_size
        self._tag_mask = ~(cfg.block_size - 1)
        self._offset_mask = cfg.block_size - 1
        self._block_shift = cfg.block_size.bit_length() - 1
        self._l1_set_mask = self.l1.n_sets - 1
        self._l2_set_mask = self.l2.n_sets - 1
        self._l1_ways = cfg.l1_ways
        self._l2_ways = cfg.l2_ways
        self._l1_latency = cfg.l1_latency
        self._l2_latency = cfg.l2_latency
        self._l2_mshrs = cfg.l2_mshrs
        self._rob_size = cfg.rob_size
        self._train_on_stores = cfg.train_on_stores
        #: constant: the reference path recomputes this per late merge
        self._unloaded_latency = self.dram.unloaded_latency()
        #: precomputed per-op observation dispatch (paper's trained set)
        self._train_dispatch = tuple(
            (p.name, p.on_demand_access) for p in self._trained_prefetchers
        )
        #: skip the training call entirely when nothing is trained
        self._has_train = bool(self._train_dispatch)
        self._has_value_hooks = self.dbp is not None
        self._cdp_name = self.cdp.name if self.cdp is not None else None

    def _make_cache(self, size_bytes: int, ways: int, name: str):
        return FlatSetAssociativeCache(
            size_bytes, ways, self.config.block_size, name
        )

    # -- public driving interface -------------------------------------------

    def run(self, trace: Iterable[MemOp]) -> CoreResult:
        """Drive the whole trace through the op loop in one slice."""
        next(self.run_until(trace, math.inf), None)
        return self.finish()

    def step(self, op: MemOp) -> None:
        """One memory op, fed through the same loop as ``run``."""
        next(self.run_until((op,), math.inf), None)

    def run_until(  # noqa: C901 - deliberately inlined
        self, trace: Iterable[MemOp], until: float
    ) -> Generator[None, float, None]:
        """The op loop, resumable as :meth:`Core.run_until` specifies.

        Per-op algorithm identical to ``Core.step``, but hot mutable
        state (cycle, retired instructions, load sequence, the
        completion map, cache hit/miss counters) lives in locals across
        ops and is flushed to ``self`` around every cold-path call and
        whenever the loop suspends, so the common case runs with no
        attribute traffic.
        """
        # loop-invariant bindings
        l1 = self.l1
        l2 = self.l2
        l1_sets = l1._sets
        l2_sets = l2._sets
        l1_free = l1._free
        l1_dirty = l1.dirty
        l1_fill = l1.fill_time
        l1_owner = l1.owner
        l1_demand_pc = l1.demand_pc
        l1_ways = self._l1_ways
        l2_dirty = l2.dirty
        l2_owner = l2.owner
        l2_fill = l2.fill_time
        dram_writeback = self.dram.writeback
        dispatch_cost = self._dispatch_cost
        rob_size = self._rob_size
        tag_mask = self._tag_mask
        offset_mask = self._offset_mask
        shift = self._block_shift
        l1_set_mask = self._l1_set_mask
        l2_set_mask = self._l2_set_mask
        l1_latency = self._l1_latency
        l2_latency = self._l2_latency
        unloaded = self._unloaded_latency
        mshrs = self._l2_mshrs
        prune_at = self._completion_prune_at
        prune_keep = prune_at // 2
        train_on_stores = self._train_on_stores
        has_train = self._has_train
        has_value_hooks = self._has_value_hooks
        blk = self._blk
        cdp = self.cdp
        cdp_name = self._cdp_name
        gendler = self.gendler
        pg_observer = self.pg_observer
        hw_filter = self.hw_filter
        oracle_pcs = self.oracle_pcs
        memory = self.memory
        deferred = self._deferred
        outstanding = self._outstanding
        feedback = self.feedback
        record_use = feedback.record_use
        record_demand_miss = feedback.record_demand_miss
        demand_access = self.dram.demand_access_fast
        drain_deferred = self._drain_deferred
        fill_l2 = self._fill_l2
        fast_train = self._fast_train
        mshr_bound = self._mshr_bound
        issue_prefetch = self._issue_prefetch
        value_hooks = self._value_hooks

        # hot mutable state, flushed around cold calls, at every
        # suspension and at the end
        cycle = self.cycle
        retired = self.retired
        seq = self._load_seq
        completions = self._completions
        l1_hits = l1.hits
        l1_misses = l1.misses
        l1_evictions = l1.evictions
        l2_hits = l2.hits
        l2_misses = l2.misses

        for op in trace:
            if cycle > until:
                self.cycle = cycle
                self.retired = retired
                self._load_seq = seq
                self._completions = completions
                l1.hits = l1_hits
                l1.misses = l1_misses
                l1.evictions = l1_evictions
                l2.hits = l2_hits
                l2.misses = l2_misses
                until = yield
            if deferred and deferred[0][0] <= cycle:
                self.cycle = cycle
                self.retired = retired
                drain_deferred()
            work = op.work + 1
            cycle += work * dispatch_cost
            retired += work
            if outstanding:
                # == Core._enforce_rob_span
                horizon = retired - rob_size
                while outstanding and outstanding[0][1] <= horizon:
                    completion = outstanding.popleft()[0]
                    if completion > cycle:
                        cycle = completion

            addr = op.addr
            tag = addr & tag_mask
            l1_set_index = (tag >> shift) & l1_set_mask
            l1_set = l1_sets[l1_set_index]
            is_load = op.is_load
            if is_load:
                load_seq = seq
                seq += 1
                dep = op.dep
                if dep < 0:
                    ready = cycle
                else:  # == Core._ready_time
                    ready = completions.get(dep, 0.0)
                    if ready < cycle:
                        ready = cycle
            else:
                ready = cycle

            slot = l1_set.get(tag)
            if slot is not None:
                l1_hits += 1
                l1_set[tag] = l1_set.pop(tag)  # LRU touch
                if not is_load:
                    l1_dirty[slot] = 1
                    continue
                completion = ready + l1_latency
                completions[load_seq] = completion
                if len(completions) >= prune_at:
                    horizon = load_seq - prune_keep
                    completions = {
                        s: c for s, c in completions.items() if s > horizon
                    }
                    self._completions = completions
                if completion > cycle:
                    # == Core._push_outstanding
                    while outstanding and outstanding[0][0] <= cycle:
                        outstanding.popleft()
                    outstanding.append((completion, retired))
                    if len(outstanding) > mshrs:
                        self.cycle = cycle
                        mshr_bound()
                        cycle = self.cycle
                if has_value_hooks:
                    self.cycle = cycle
                    self.retired = retired
                    value_hooks(op, completion)
                continue

            # ---- L1 miss (== Core._l2_hit_load / _l2_miss_load /
            # _store): stores differ only where tested on is_load
            l1_misses += 1
            l2_set = l2_sets[(tag >> shift) & l2_set_mask]
            slot = l2_set.get(tag)
            self.cycle = cycle
            self.retired = retired
            l2_hit = slot is not None
            if l2_hit:
                l2_hits += 1
                l2_set[tag] = l2_set.pop(tag)
                fill_time = l2_fill[slot]
                late = fill_time > ready
                if late and is_load:
                    data_ready = ready + unloaded
                    if fill_time < data_ready:
                        data_ready = fill_time
                    l2_fill[slot] = data_ready
                else:
                    data_ready = ready
                completion = data_ready + l2_latency
                owner = l2_owner[slot]
                if owner is not None:  # == CacheBlock.mark_used
                    l2_owner[slot] = None
                    record_use(owner, late=late)
                    if gendler is not None:
                        gendler.record_use(owner)
                    if owner == cdp_name:
                        if is_load and hw_filter is not None:
                            hw_filter.on_prefetch_used(tag)
                        if pg_observer is not None:
                            pg_observer.on_use(tag)
            else:
                l2_misses += 1
                record_demand_miss(tag)
                if is_load and op.pc in oracle_pcs:
                    completion = ready + l2_latency
                    fill_l2(tag, fill_time=ready, demand_pc=op.pc)
                else:
                    arrival = demand_access(ready, tag)
                    self.bus_transfers += 1
                    completion = arrival + l2_latency
                    fill_l2(
                        tag,
                        fill_time=arrival if is_load else cycle,
                        demand_pc=op.pc,
                    )
                    if (
                        is_load
                        and cdp is not None
                        and self._prefetcher_enabled(cdp_name)
                    ):
                        words = memory.read_block_words(tag, blk)
                        requests = cdp.scan_fill(
                            tag,
                            words,
                            depth=1,
                            demand_pc=op.pc,
                            accessed_offset=addr & offset_mask,
                        )
                        for request in requests:
                            issue_prefetch(request, ready)
            # == Core._fill_l1
            if len(l1_set) >= l1_ways:
                victim_tag = next(iter(l1_set))  # LRU victim
                slot = l1_set.pop(victim_tag)
                l1_evictions += 1
                if l1_dirty[slot]:
                    victim_slot = l2_sets[
                        (victim_tag >> shift) & l2_set_mask
                    ].get(victim_tag)
                    if victim_slot is not None:
                        l2_dirty[victim_slot] = 1
                    else:
                        dram_writeback(cycle, victim_tag)
                        self.bus_transfers += 1
            else:
                slot = l1_free[l1_set_index].pop()
            l1_fill[slot] = cycle
            l1_owner[slot] = None
            l1_dirty[slot] = not is_load
            l1_demand_pc[slot] = 0
            l1_set[tag] = slot
            if not is_load:
                if train_on_stores and has_train:
                    fast_train(addr, op.pc, l2_hit)
                continue

            while outstanding and outstanding[0][0] <= cycle:
                outstanding.popleft()
            outstanding.append((completion, retired))
            if len(outstanding) > mshrs:
                mshr_bound()
                cycle = self.cycle
            if has_train:
                fast_train(addr, op.pc, l2_hit)
            completions[load_seq] = completion
            if len(completions) >= prune_at:
                horizon = load_seq - prune_keep
                completions = {
                    s: c for s, c in completions.items() if s > horizon
                }
                self._completions = completions
            if has_value_hooks:
                value_hooks(op, completion)

        self.cycle = cycle
        self.retired = retired
        self._load_seq = seq
        self._completions = completions
        l1.hits = l1_hits
        l1.misses = l1_misses
        l1.evictions = l1_evictions
        l2.hits = l2_hits
        l2.misses = l2_misses
        if cycle > until:
            yield

    # -- fills (flat-state form of Core._fill_l2) ---------------------------

    def _fill_l2(
        self,
        block_addr: int,
        fill_time: float,
        prefetch_owner=None,
        demand_pc: int = 0,
    ) -> None:
        l2 = self.l2
        set_index = (block_addr >> self._block_shift) & self._l2_set_mask
        cache_set = l2._sets[set_index]
        slot = cache_set.get(block_addr)
        if slot is not None:
            # a fill racing a fill refreshes in place, evicts nothing
            cache_set[block_addr] = cache_set.pop(block_addr)
            return
        if len(cache_set) >= self._l2_ways:
            victim_tag = next(iter(cache_set))  # LRU victim
            slot = cache_set.pop(victim_tag)
            l2.evictions += 1
            victim_owner = l2.owner[slot]
            victim_dirty = l2.dirty[slot]
            self.feedback.record_eviction(
                victim_tag,
                by_prefetch=prefetch_owner is not None,
                victim_was_demand=victim_owner is None,
            )
            if victim_owner is not None and victim_owner == self._cdp_name:
                if self.hw_filter is not None:
                    self.hw_filter.on_prefetch_evicted_unused(victim_tag)
                if self.pg_observer is not None:
                    self.pg_observer.on_evict(victim_tag)
            if victim_dirty:
                self.dram.writeback(self.cycle, victim_tag)
                self.bus_transfers += 1
        else:
            slot = l2._free[set_index].pop()
        l2.fill_time[slot] = fill_time
        l2.owner[slot] = prefetch_owner
        l2.dirty[slot] = 0
        l2.demand_pc[slot] = demand_pc
        if prefetch_owner is not None:
            l2.prefetch_fills += 1
        cache_set[block_addr] = slot

    # -- prefetcher training (== Core._train_prefetchers) -------------------

    def _fast_train(self, addr: int, pc: int, l2_hit: bool) -> None:
        cycle = self.cycle
        gendler = self.gendler
        issue = self._issue_prefetch
        for name, observe in self._train_dispatch:
            requests = observe(cycle, addr, pc, l2_hit)
            if requests and (gendler is None or gendler.is_enabled(name)):
                for request in requests:
                    issue(request, cycle)

    def _mshr_bound(self) -> None:
        # rare: enforce the L2 MSHR cap (tail of Core._push_outstanding)
        outstanding = self._outstanding
        cycle = self.cycle
        mshrs = self._l2_mshrs
        while len(outstanding) > mshrs:
            head_completion = outstanding.popleft()[0]
            if head_completion > cycle:
                cycle = head_completion
                while outstanding and outstanding[0][0] <= cycle:
                    outstanding.popleft()
        self.cycle = cycle
