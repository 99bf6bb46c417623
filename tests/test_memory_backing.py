"""Unit tests for the word-granular backing store."""

import pytest

from repro.memory.backing import SimulatedMemory


class TestReadWrite:
    def test_unwritten_reads_zero(self, memory):
        assert memory.read_word(0x1000) == 0

    def test_round_trip(self, memory):
        memory.write_word(0x1000, 0xDEADBEEF)
        assert memory.read_word(0x1000) == 0xDEADBEEF

    def test_unaligned_access_maps_to_word(self, memory):
        memory.write_word(0x1000, 7)
        assert memory.read_word(0x1002) == 7  # same word

    def test_value_masked_to_32_bits(self, memory):
        memory.write_word(0x1000, (1 << 40) | 5)
        assert memory.read_word(0x1000) == 5

    def test_out_of_range_address_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.read_word(1 << 33)
        with pytest.raises(ValueError):
            memory.write_word(1 << 33, 0)
        with pytest.raises(ValueError):
            memory.read_word(-4)


class TestBlockRead:
    def test_block_words_order_and_size(self, memory):
        base = 0x2000
        for i in range(16):
            memory.write_word(base + 4 * i, i + 1)
        words = memory.read_block_words(base, 64)
        assert words == list(range(1, 17))

    def test_block_words_unwritten_are_zero(self, memory):
        words = memory.read_block_words(0x4000, 64)
        assert words == [0] * 16

    def test_block_words_respect_block_size(self, memory):
        assert len(memory.read_block_words(0, 128)) == 32


class TestBookkeeping:
    def test_len_counts_written_words(self, memory):
        memory.write_word(0x1000, 1)
        memory.write_word(0x1004, 2)
        memory.write_word(0x1000, 3)  # overwrite, not a new word
        assert len(memory) == 2

    def test_clear(self, memory):
        memory.write_word(0x1000, 1)
        memory.clear()
        assert len(memory) == 0
        assert memory.read_word(0x1000) == 0

    def test_iter_words(self, memory):
        memory.write_word(0x1000, 9)
        assert dict(memory.iter_words()) == {0x1000: 9}
