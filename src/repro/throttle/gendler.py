"""Gendler et al.'s PAB-based multi-prefetcher mechanism (paper Section 7.4).

The scheme keeps a Prefetch Accuracy Buffer: the outcome of the last N
prefetched addresses per prefetcher.  Periodically it turns *off* all
prefetchers except the single most accurate one — on/off selection, not
graded throttling, and driven by accuracy alone (no coverage term).

The paper reports this loses 11 % average performance on their benchmarks
precisely because a low-coverage-but-accurate prefetcher can win the
selection while the prefetcher actually covering misses is disabled.  Our
implementation keeps the on/off flags in :attr:`GendlerSelector.enabled`;
both engines ask :meth:`GendlerSelector.is_enabled` before issuing a
prefetcher's requests (and before CDP scans a fill).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence

from repro.prefetch.base import Prefetcher
from repro.throttle.feedback import FeedbackCollector


class PrefetchAccuracyBuffer:
    """Sliding-window accuracy over the last *window* prefetch outcomes."""

    def __init__(self, window: int = 256) -> None:
        self.window = window
        self._outcomes: Deque[bool] = deque(maxlen=window)

    def record(self, used: bool) -> None:
        self._outcomes.append(used)

    @property
    def accuracy(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def __len__(self) -> int:
        return len(self._outcomes)


class GendlerSelector:
    """Enable only the most PAB-accurate prefetcher each interval."""

    def __init__(self, prefetchers: Sequence[Prefetcher], window: int = 256):
        self.prefetchers = list(prefetchers)
        self.pabs: Dict[str, PrefetchAccuracyBuffer] = {
            p.name: PrefetchAccuracyBuffer(window) for p in self.prefetchers
        }
        self.enabled: Dict[str, bool] = {p.name: True for p in self.prefetchers}
        self.selections: List[str] = []

    def attach(self, collector: FeedbackCollector) -> None:
        collector.on_interval = self.on_interval

    # The core model calls these as prefetch outcomes resolve.
    def record_issue(self, owner: str) -> None:
        # An issue is pessimistically recorded unused; a use flips one
        # False to True (cheap approximation of per-address tracking).
        self.pabs[owner].record(False)

    def record_use(self, owner: str) -> None:
        outcomes = self.pabs[owner]._outcomes
        for index in range(len(outcomes) - 1, -1, -1):
            if not outcomes[index]:
                outcomes[index] = True
                break

    def is_enabled(self, owner: str) -> bool:
        return self.enabled.get(owner, True)

    def on_interval(self, collector: FeedbackCollector) -> None:
        if not self.prefetchers:
            return
        best = max(self.prefetchers, key=lambda p: self.pabs[p.name].accuracy)
        for prefetcher in self.prefetchers:
            self.enabled[prefetcher.name] = prefetcher.name == best.name
        self.selections.append(best.name)
