"""Unit tests for multi-core composition and shared-DRAM contention."""

import pytest

from repro.core.config import SystemConfig
from repro.core.cpu import Core
from repro.core.instruction import MemOp
from repro.core.system import MultiCoreSystem
from repro.dram.bus import MemoryBus
from repro.dram.controller import DramController
from repro.memory.backing import SimulatedMemory

CFG = SystemConfig.scaled().with_overrides(
    l1_size=1024, l1_ways=2, l2_size=4096, l2_ways=4
)


def make_dram(n_cores):
    bus = MemoryBus(CFG.bus_bytes_per_cycle, CFG.bus_frequency_ratio)
    return DramController(
        CFG.dram_banks,
        CFG.dram_bank_occupancy,
        CFG.dram_controller_overhead,
        bus,
        CFG.block_size,
        CFG.request_buffer_per_core * n_cores,
    )


def load(pc, addr, work=0):
    return MemOp(pc, addr, True, work, -1)


def streaming_trace(base, n=60, work=4):
    return [load(1, base + i * CFG.block_size, work) for i in range(n)]


class TestMultiCore:
    def test_per_core_results_in_order(self):
        dram = make_dram(2)
        cores = [
            Core(CFG, SimulatedMemory(), dram, name=f"core{i}")
            for i in range(2)
        ]
        system = MultiCoreSystem(cores)
        results = system.run([streaming_trace(0x1000_0000),
                              streaming_trace(0x2000_0000)])
        assert [r.name for r in results] == ["core0", "core1"]
        assert all(r.retired_instructions > 0 for r in results)

    def test_sharing_dram_slows_both_cores(self):
        def run(n_cores):
            dram = make_dram(n_cores)
            cores = [
                Core(CFG, SimulatedMemory(), dram, name=f"core{i}")
                for i in range(n_cores)
            ]
            traces = [
                streaming_trace(0x1000_0000 + i * 0x100_0000)
                for i in range(n_cores)
            ]
            return MultiCoreSystem(cores).run(traces)

        alone = run(1)[0]
        shared = run(2)[0]
        assert shared.cycles > alone.cycles  # bus/bank contention

    def test_trace_core_count_mismatch_rejected(self):
        dram = make_dram(1)
        core = Core(CFG, SimulatedMemory(), dram)
        with pytest.raises(ValueError):
            MultiCoreSystem([core]).run([[], []])

    def test_empty_core_list_rejected(self):
        with pytest.raises(ValueError):
            MultiCoreSystem([])

    def test_uneven_trace_lengths(self):
        dram = make_dram(2)
        cores = [
            Core(CFG, SimulatedMemory(), dram, name=f"core{i}")
            for i in range(2)
        ]
        results = MultiCoreSystem(cores).run(
            [streaming_trace(0x1000_0000, n=5), streaming_trace(0x2000_0000, n=80)]
        )
        assert results[0].retired_instructions < results[1].retired_instructions

    def test_cores_sharing_a_name_keep_their_own_results(self):
        # both cores keep the default name "core0"
        dram = make_dram(2)
        cores = [Core(CFG, SimulatedMemory(), dram) for _ in range(2)]
        results = MultiCoreSystem(cores).run(
            [streaming_trace(0x1000_0000, n=5), streaming_trace(0x2000_0000, n=80)]
        )
        assert [r.retired_instructions for r in results] == [5 * 5, 80 * 5]
