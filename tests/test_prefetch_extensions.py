"""Unit tests for the extension prefetchers: per-PC stride, next-line."""

import pytest

from repro.prefetch.stride import NextLinePrefetcher, StridePrefetcher

BLOCK = 64


class TestStride:
    def test_constant_stride_detected(self):
        stride = StridePrefetcher(BLOCK)
        requests = []
        for i in range(5):
            requests = stride.on_demand_access(0.0, 0x1000_0000 + i * 256, 7, False)
        targets = [r.block_addr for r in requests]
        assert targets and all(t > 0x1000_0000 + 4 * 256 for t in targets)

    def test_stride_is_per_pc(self):
        stride = StridePrefetcher(BLOCK)
        for i in range(5):
            stride.on_demand_access(0.0, 0x1000_0000 + i * 256, 7, False)
        assert stride.on_demand_access(0.0, 0x2000_0000, 9, False) == []

    def test_irregular_addresses_quiet(self):
        stride = StridePrefetcher(BLOCK)
        requests = []
        for addr in (0x1000_0000, 0x1000_5000, 0x1000_0300, 0x1000_9000):
            requests = stride.on_demand_access(0.0, addr, 7, False)
        assert requests == []

    def test_degree_follows_level(self):
        stride = StridePrefetcher(BLOCK)
        stride.set_level(3)
        requests = []
        for i in range(6):
            requests = stride.on_demand_access(0.0, 0x1000_0000 + i * 256, 7, False)
        assert len(requests) == 4

    def test_table_capacity_bounded(self):
        stride = StridePrefetcher(BLOCK, n_entries=4)
        for pc in range(10):
            stride.on_demand_access(0.0, 0x1000_0000, pc, False)
        assert len(stride._table) <= 4


class TestNextLine:
    def test_prefetches_following_blocks(self):
        nextline = NextLinePrefetcher(BLOCK)
        nextline.set_level(2)  # degree 2
        requests = nextline.on_demand_access(0.0, 0x1000_0008, 1, l2_hit=False)
        assert [r.block_addr for r in requests] == [0x1000_0040, 0x1000_0080]

    def test_quiet_on_hits(self):
        nextline = NextLinePrefetcher(BLOCK)
        assert nextline.on_demand_access(0.0, 0x1000_0000, 1, l2_hit=True) == []


class TestMechanismIntegration:
    @pytest.mark.parametrize("mechanism", ["stride", "nextline"])
    def test_runs_end_to_end(self, mechanism):
        from repro.experiments.runner import run_benchmark

        result = run_benchmark("health", mechanism, input_set="test")
        assert result.ipc > 0
