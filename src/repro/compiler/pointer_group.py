"""Pointer groups — the unit of ECDP's compiler analysis (paper Section 3).

PG(L, X) is the set of pointers found in cache blocks fetched by static load
L at constant byte offset X from the address L accessed.  Because structure
fields sit at fixed offsets and nodes are allocated consecutively, each PG
corresponds to one pointer field in the source (e.g. ``node->left``).

A PG's *prefetches* are all CDP prefetches issued to fetch any pointer of
that PG **including recursive prefetches** spawned from blocks those
prefetches brought in.  Usefulness = fraction of a PG's prefetches that were
demanded before eviction; a PG is *beneficial* when usefulness exceeds 0.5
(paper footnote 4) and *harmful* otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

#: A pointer group key: (static load PC, byte offset from accessed address).
PGKey = Tuple[int, int]

#: Usefulness threshold above which a PG is beneficial (paper Section 3).
BENEFICIAL_THRESHOLD = 0.5


@dataclass
class PointerGroupStats:
    """Prefetch outcome counters for one pointer group."""

    issued: int = 0
    useful: int = 0

    @property
    def usefulness(self) -> float:
        """Fraction of this PG's prefetches that were used (0 if none)."""
        return self.useful / self.issued if self.issued else 0.0

    @property
    def is_beneficial(self) -> bool:
        return self.usefulness > BENEFICIAL_THRESHOLD


class PointerGroupProfile:
    """Accumulates per-PG prefetch outcomes across a profiling run."""

    def __init__(self) -> None:
        self._stats: Dict[PGKey, PointerGroupStats] = {}

    def record_issue(self, key: PGKey, count: int = 1) -> None:
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = PointerGroupStats()
        stats.issued += count

    def record_use(self, key: PGKey) -> None:
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = PointerGroupStats()
        stats.useful += 1

    def get(self, key: PGKey) -> PointerGroupStats:
        return self._stats.get(key, PointerGroupStats())

    def items(self) -> Iterable[Tuple[PGKey, PointerGroupStats]]:
        return self._stats.items()

    def __len__(self) -> int:
        return len(self._stats)

    def to_rows(self) -> List[List[int]]:
        """``[pc, offset, issued, useful]`` per PG, in first-seen order."""
        return [
            [pc, offset, stats.issued, stats.useful]
            for (pc, offset), stats in self._stats.items()
        ]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "PointerGroupProfile":
        """The profile :meth:`to_rows` described."""
        profile = cls()
        for pc, offset, issued, useful in rows:
            profile._stats[(pc, offset)] = PointerGroupStats(issued, useful)
        return profile

    def beneficial_keys(self) -> List[PGKey]:
        """PGs whose majority of prefetches were useful."""
        return [key for key, stats in self._stats.items() if stats.is_beneficial]

    def harmful_keys(self) -> List[PGKey]:
        return [
            key for key, stats in self._stats.items() if not stats.is_beneficial
        ]

    def usefulness_histogram(self, bins: int = 4) -> List[int]:
        """Count PGs per usefulness quartile (paper Figure 10's bins).

        With the default 4 bins: [0-25 %), [25-50 %), [50-75 %), [75-100 %].
        """
        counts = [0] * bins
        for stats in self._stats.values():
            index = min(int(stats.usefulness * bins), bins - 1)
            counts[index] += 1
        return counts

    def beneficial_fraction(self) -> float:
        """Fraction of all PGs that are beneficial (paper Figure 4)."""
        if not self._stats:
            return 0.0
        return len(self.beneficial_keys()) / len(self._stats)
