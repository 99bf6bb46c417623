"""Word-granular backing store for the simulated address space.

The content-directed prefetcher discovers candidate prefetch addresses by
scanning the *contents* of fetched cache blocks (paper Section 2.2), so the
substrate must hold real values — in particular real pointer values written
by the workload's data-structure code.  We store memory as a dict from
word-aligned address to 32-bit value; untouched words read as zero, which the
compare-bits predictor never mistakes for a pointer (zero shares no
high-order bits with any heap block address).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.memory.address import ADDRESS_MASK, WORD_SIZE, validate_address


class SimulatedMemory:
    """Sparse word-addressed memory holding 32-bit values.

    All accesses are word (4-byte) granular, matching the pointer size the
    paper's CDP scans for.  Sub-word layout is irrelevant to every mechanism
    under study, so we do not model it.
    """

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    # read_word/write_word run once per traced access, so both align
    # inline (addr & ~3) and call validate_address only to raise

    def read_word(self, addr: int) -> int:
        """Read the 32-bit value at word-aligned *addr* (0 if never written)."""
        if not 0 <= addr <= ADDRESS_MASK:
            validate_address(addr)
        return self._words.get(addr & ~3, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Write 32-bit *value* at word-aligned *addr*."""
        if not 0 <= addr <= ADDRESS_MASK:
            validate_address(addr)
        self._words[addr & ~3] = value & ADDRESS_MASK

    def read_block_words(self, block_addr: int, block_size: int) -> List[int]:
        """All word values in the cache block at *block_addr*, in order.

        This is what the CDP scanner sees when a block is fetched: one
        4-byte candidate value per word slot (``block_size // 4`` of them).
        """
        words = self._words
        return [
            words.get(addr, 0)
            for addr in range(block_addr, block_addr + block_size, WORD_SIZE)
        ]

    def update_words(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Write many (word address, value) pairs, in order.

        The pairs must already be aligned and masked, as :meth:`iter_words`
        yields them; this is how a recorded trace restores an image and
        replays its writes.
        """
        self._words.update(pairs)

    def iter_words(self) -> Iterator[Tuple[int, int]]:
        """Iterate (word_address, value) pairs for all written words."""
        return iter(self._words.items())

    def __len__(self) -> int:
        return len(self._words)

    def clear(self) -> None:
        """Drop all contents (used between profiling and measured runs)."""
        self._words.clear()
