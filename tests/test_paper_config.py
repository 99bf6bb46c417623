"""Paper-scale (Table 5) configuration validation.

The scaled preset carries the evaluation; these tests confirm the
paper-exact configuration is not just decorative — the machine composes
to Table 5's numbers and the mechanisms behave the same way on it when
given proportionally larger ("large" input set) workloads.
"""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.runner import run_benchmark


class TestPaperPreset:
    def test_composes_to_table5(self):
        paper = SystemConfig.paper()
        assert paper.min_memory_latency == 450
        assert paper.l2_size // paper.block_size == 8192  # blocks
        assert paper.t_coverage == 0.2 and paper.a_low == 0.4

    def test_scaled_preset_composition(self):
        """The scaled numbers DESIGN.md §11 quotes."""
        scaled = SystemConfig.scaled()
        assert scaled.min_memory_latency == 10 + 120 + 8 * 5 == 170
        assert scaled.block_size == 64
        assert scaled.l2_size // scaled.block_size == 1024  # blocks
        assert scaled.interval_evictions == 256
        assert scaled.t_coverage == 0.35 and scaled.a_low == 0.45
        assert scaled.a_high == SystemConfig.paper().a_high == 0.7

    def test_paper_config_runs_small_input(self):
        """Mechanically sound at paper scale even on tiny inputs."""
        result = run_benchmark(
            "mst", "ecdp+throttle", SystemConfig.paper(), input_set="test"
        )
        assert result.ipc > 0


@pytest.mark.slow
class TestPaperScaleBehaviour:
    def test_health_large_input_paper_machine(self):
        """On the Table 5 machine with a cache-proportional input, the
        proposal must beat the stream baseline and stay below the oracle
        — the same ordering the scaled preset shows."""
        config = SystemConfig.paper()
        base = run_benchmark("health", "baseline", config, input_set="large")
        ours = run_benchmark(
            "health", "cdp+throttle", config, input_set="large"
        )
        oracle = run_benchmark(
            "health", "oracle-lds", config, input_set="large"
        )
        assert base.l2_demand_misses > 1000  # genuinely cache-pressured
        assert ours.ipc > base.ipc
        assert oracle.ipc > ours.ipc
