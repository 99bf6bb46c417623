"""Cache hierarchy: blocks and set-associative arrays."""

from repro.cache.block import CacheBlock
from repro.cache.set_assoc import (
    CacheStats,
    FlatSetAssociativeCache,
    SetAssociativeCache,
)

__all__ = [
    "CacheBlock",
    "CacheStats",
    "FlatSetAssociativeCache",
    "SetAssociativeCache",
]
