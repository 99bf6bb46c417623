"""Set-associative cache with true LRU replacement.

Pollution from useless prefetches — the paper's central antagonist — is not
scripted anywhere: it emerges because prefetch fills insert real blocks into
these sets and evict LRU-resident demand data.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cache.block import CacheBlock
from repro.memory.address import block_address


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _cache_geometry(size_bytes: int, ways: int, block_size: int) -> int:
    """Validate a cache shape; return the number of sets."""
    if not _is_power_of_two(block_size):
        raise ValueError("block size must be a power of two")
    n_blocks = size_bytes // block_size
    if n_blocks == 0 or n_blocks % ways != 0:
        raise ValueError(
            f"{size_bytes} B / {ways}-way / {block_size} B-blocks "
            "does not divide into whole sets"
        )
    n_sets = n_blocks // ways
    if not _is_power_of_two(n_sets):
        raise ValueError("number of sets must be a power of two")
    return n_sets


@dataclass
class CacheStats:
    """Per-cache access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0  # demand hits on prefetched blocks


class SetAssociativeCache:
    """An LRU set-associative cache storing :class:`CacheBlock` entries.

    ``on_eviction`` (if set) is called with each victim block; the
    throttling layer uses it both to count interval boundaries (an interval
    ends after N L2 evictions, paper Section 4.1) and to feed FDP's
    pollution filter.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        block_size: int,
        name: str = "cache",
    ) -> None:
        self.n_sets = _cache_geometry(size_bytes, ways, block_size)
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_size = block_size
        self._set_mask = self.n_sets - 1
        self._block_shift = block_size.bit_length() - 1
        # Each set is an OrderedDict: iteration order == LRU order
        # (least recent first; move_to_end on touch).
        self._sets: List["OrderedDict[int, CacheBlock]"] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.stats = CacheStats()
        self.on_eviction: Optional[Callable[[CacheBlock], None]] = None

    @property
    def n_blocks(self) -> int:
        return self.n_sets * self.ways

    def _set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Probe for *addr*; update LRU and hit/miss stats.

        Returns the resident block (possibly still in flight — check
        ``fill_time``) or None on a miss.
        """
        block_addr = block_address(addr, self.block_size)
        cache_set = self._sets[self._set_index(block_addr)]
        block = cache_set.get(block_addr)
        if block is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if touch:
            cache_set.move_to_end(block_addr)
        return block

    def contains(self, addr: int) -> bool:
        """Presence check with no LRU or stats side effects."""
        block_addr = block_address(addr, self.block_size)
        return block_addr in self._sets[self._set_index(block_addr)]

    def peek(self, addr: int) -> Optional[CacheBlock]:
        """Read the tag entry without LRU or stats side effects."""
        block_addr = block_address(addr, self.block_size)
        return self._sets[self._set_index(block_addr)].get(block_addr)

    def insert(
        self,
        addr: int,
        fill_time: float = 0.0,
        prefetch_owner: Optional[str] = None,
        demand_pc: int = 0,
        dirty: bool = False,
    ) -> Optional[CacheBlock]:
        """Fill the block containing *addr*; return the victim, if any.

        Inserting an already-resident block refreshes its metadata in
        place (e.g. a demand fill racing a prefetch fill) and evicts
        nothing.
        """
        block_addr = block_address(addr, self.block_size)
        cache_set = self._sets[self._set_index(block_addr)]
        existing = cache_set.get(block_addr)
        if existing is not None:
            cache_set.move_to_end(block_addr)
            existing.dirty = existing.dirty or dirty
            return None
        victim = None
        if len(cache_set) >= self.ways:
            __, victim = cache_set.popitem(last=False)  # LRU victim
            self.stats.evictions += 1
            if self.on_eviction is not None:
                self.on_eviction(victim)
        block = CacheBlock(
            addr=block_addr,
            fill_time=fill_time,
            dirty=dirty,
            prefetch_owner=prefetch_owner,
            demand_pc=demand_pc,
        )
        if prefetch_owner is not None:
            self.stats.prefetch_fills += 1
        cache_set[block_addr] = block
        return victim

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        """Remove and return the block containing *addr*, if resident."""
        block_addr = block_address(addr, self.block_size)
        return self._sets[self._set_index(block_addr)].pop(block_addr, None)

    def resident_blocks(self) -> Dict[int, CacheBlock]:
        """Snapshot of all resident blocks (testing/diagnostics)."""
        out: Dict[int, CacheBlock] = {}
        for cache_set in self._sets:
            out.update(cache_set)
        return out

    def lru_order(self, set_index: int) -> List[int]:
        """Block addresses of one set, least-recently-used first."""
        return list(self._sets[set_index])

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)


class FlatSetAssociativeCache:
    """Array-backed tag/LRU/metadata state: the fast engine's cache.

    Same replacement policy and statistics as :class:`SetAssociativeCache`
    but with no per-block objects: each resident block is a (tag -> slot)
    entry in a per-set dict whose insertion order *is* the LRU order
    (least recent first; a touch re-inserts at the end), and all metadata
    lives in flat parallel arrays indexed by slot.  The fast core
    (``repro.core.fastcpu``) manipulates ``_sets`` and the metadata arrays
    directly in its inlined hot loop; the methods below expose the same
    observable surface for tests and diagnostics.

    Behavior equivalence with the reference cache is enforced by
    ``tests/differential/`` and the LRU-neutrality audit in
    ``tests/test_cache_set_assoc.py``.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        block_size: int,
        name: str = "cache",
    ) -> None:
        self.n_sets = _cache_geometry(size_bytes, ways, block_size)
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_size = block_size
        self._set_mask = self.n_sets - 1
        self._block_shift = block_size.bit_length() - 1
        self._tag_mask = ~(block_size - 1)
        #: per-set {block_addr: slot}; dict order == LRU order (LRU first)
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.n_sets)]
        n_slots = self.n_sets * ways
        #: parallel metadata arrays, indexed by slot
        self.fill_time: List[float] = [0.0] * n_slots
        self.owner: List[Optional[str]] = [None] * n_slots
        self.dirty = bytearray(n_slots)
        self.demand_pc: List[int] = [0] * n_slots
        #: per-set stacks of unoccupied slots
        self._free: List[List[int]] = [
            list(range(index * ways, (index + 1) * ways))
            for index in range(self.n_sets)
        ]
        # plain-int counters (the hot loop increments these directly)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0

    @property
    def n_blocks(self) -> int:
        return self.n_sets * self.ways

    @property
    def stats(self) -> CacheStats:
        """The counters in the reference cache's CacheStats shape."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            prefetch_fills=self.prefetch_fills,
            prefetch_hits=self.prefetch_hits,
        )

    def _set_index(self, block_addr: int) -> int:
        return (block_addr >> self._block_shift) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[int]:
        """Probe for *addr*; update LRU and hit/miss stats.

        Returns the metadata slot of the resident block, or None.
        """
        block_addr = addr & self._tag_mask
        cache_set = self._sets[self._set_index(block_addr)]
        slot = cache_set.get(block_addr)
        if slot is None:
            self.misses += 1
            return None
        self.hits += 1
        if touch:
            cache_set[block_addr] = cache_set.pop(block_addr)
        return slot

    def contains(self, addr: int) -> bool:
        """Presence check with no LRU or stats side effects."""
        block_addr = addr & self._tag_mask
        return block_addr in self._sets[self._set_index(block_addr)]

    def peek(self, addr: int) -> Optional[int]:
        """The block's slot, with no LRU or stats side effects."""
        block_addr = addr & self._tag_mask
        return self._sets[self._set_index(block_addr)].get(block_addr)

    def insert(
        self,
        addr: int,
        fill_time: float = 0.0,
        prefetch_owner: Optional[str] = None,
        demand_pc: int = 0,
        dirty: bool = False,
    ) -> Optional[CacheBlock]:
        """Fill the block containing *addr*; return the victim, if any.

        The victim is materialized as a :class:`CacheBlock` snapshot so
        callers (and tests) see the reference cache's interface; inside
        the fast core this path is inlined without the materialization.
        """
        block_addr = addr & self._tag_mask
        set_index = self._set_index(block_addr)
        cache_set = self._sets[set_index]
        slot = cache_set.get(block_addr)
        if slot is not None:
            cache_set[block_addr] = cache_set.pop(block_addr)
            if dirty:
                self.dirty[slot] = 1
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim_addr = next(iter(cache_set))
            victim_slot = cache_set.pop(victim_addr)
            self.evictions += 1
            victim = CacheBlock(
                addr=victim_addr,
                fill_time=self.fill_time[victim_slot],
                dirty=bool(self.dirty[victim_slot]),
                prefetch_owner=self.owner[victim_slot],
                demand_pc=self.demand_pc[victim_slot],
            )
            slot = victim_slot
        else:
            slot = self._free[set_index].pop()
        self.fill_time[slot] = fill_time
        self.owner[slot] = prefetch_owner
        self.dirty[slot] = 1 if dirty else 0
        self.demand_pc[slot] = demand_pc
        if prefetch_owner is not None:
            self.prefetch_fills += 1
        cache_set[block_addr] = slot
        return victim

    def invalidate(self, addr: int) -> Optional[int]:
        """Remove the block containing *addr*; return its old slot."""
        block_addr = addr & self._tag_mask
        set_index = self._set_index(block_addr)
        slot = self._sets[set_index].pop(block_addr, None)
        if slot is not None:
            self._free[set_index].append(slot)
        return slot

    def lru_order(self, set_index: int) -> List[int]:
        """Block addresses of one set, least-recently-used first."""
        return list(self._sets[set_index])

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
