"""Metamorphic relations that follow from the paper's definitions.

The engine differential compares two engines that share the
prefetchers, the hint filter, the throttle controllers, the DRAM
controller and the multicore interleaver, so a bug in any of those shows
up in both and the differential stays green.  A relation between two
*different* runs of the same engine can still catch it.

* **A one-core mix is a single-core run.**  ``run_multicore`` over one
  benchmark drives the :class:`~repro.core.system.MultiCoreSystem`
  interleaver and its shared DRAM with a single core; nothing is shared,
  so it must return exactly the :class:`~repro.core.stats.CoreResult`
  of ``run_benchmark`` (the Figs 14/15 path agrees with the Fig 7 one).
"""

import pytest

from repro.core.config import ENGINES
from repro.experiments.runner import run_benchmark, run_multicore
from tests.differential.harness import INTERVAL_HEAVY

WORKLOADS = ["mst", "health", "libquantum"]
MECHANISMS = ["baseline", "ecdp+throttle", "dbp"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_core_mix_is_a_single_core_run(workload, mechanism, engine):
    config = INTERVAL_HEAVY.with_overrides(engine=engine)
    [mixed] = run_multicore(
        [workload], mechanism, config,
        input_set="test", profile_input="test",
    )
    alone = run_benchmark(
        workload, mechanism, config,
        input_set="test", profile_input="test", use_cache=False,
    )
    # the interval-heavy machine makes every cell throttle-relevant
    assert alone.intervals_completed > 0
    assert mixed == alone
