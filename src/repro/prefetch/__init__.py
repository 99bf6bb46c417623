"""Prefetchers: the baseline stream prefetcher, CDP/ECDP, the
LDS/correlation baselines the paper compares against, and per-PC stride
and next-line prefetchers."""

from repro.prefetch.base import Prefetcher, PrefetchQueue, PrefetchRequest
from repro.prefetch.cdp import CDP_LEVELS, ContentDirectedPrefetcher
from repro.prefetch.dbp import DependenceBasedPrefetcher
from repro.prefetch.filter_hw import HardwarePrefetchFilter
from repro.prefetch.ghb import GHB_DEGREE_LEVELS, GhbPrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.stream import STREAM_LEVELS, StreamPrefetcher
from repro.prefetch.stride import (
    NextLinePrefetcher,
    STRIDE_DEGREE_LEVELS,
    StridePrefetcher,
)

__all__ = [
    "CDP_LEVELS",
    "ContentDirectedPrefetcher",
    "DependenceBasedPrefetcher",
    "GHB_DEGREE_LEVELS",
    "GhbPrefetcher",
    "HardwarePrefetchFilter",
    "MarkovPrefetcher",
    "NextLinePrefetcher",
    "Prefetcher",
    "PrefetchQueue",
    "PrefetchRequest",
    "STREAM_LEVELS",
    "STRIDE_DEGREE_LEVELS",
    "StridePrefetcher",
]
