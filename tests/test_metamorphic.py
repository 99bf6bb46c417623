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
* **ECDP that allows every pointer is CDP.**  The compiler's hints only
  filter which pointers a demand fill's scan prefetches (PAPER.md §1), so
  a hint table that allows every pointer leaves CDP as it is, throttled
  or not: the full differential snapshot is identical.
* **ECDP that allows no pointer is the stream baseline.**  With every
  pointer filtered, CDP issues nothing.  The run equals ``baseline``
  except that the attached CDP reports its all-zero counters, and the
  DRAM statistics are equal.
"""

import pytest

from repro.compiler.hints import HintTable
from repro.core.config import ENGINES
from repro.core.stats import PrefetcherResult
from repro.experiments.runner import run_benchmark, run_multicore
from tests.differential.harness import INTERVAL_HEAVY, capture

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


#: pointer-intensive workloads with and without hinted pointer groups,
#: plus a streaming one on which CDP finds no pointers
ECDP_WORKLOADS = ["mst", "health", "omnetpp", "voronoi", "mcf", "libquantum"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ECDP_WORKLOADS)
def test_ecdp_allowing_every_pointer_is_cdp(workload, engine):
    config = INTERVAL_HEAVY.with_overrides(engine=engine)
    allow_all = HintTable(default_allow=True)
    for hinted, greedy in (("ecdp", "cdp"), ("ecdp+throttle", "cdp+throttle")):
        expected = capture(workload, greedy, config)
        got = capture(workload, hinted, config, hints=allow_all)
        for key in expected:
            assert got[key] == expected[key], f"{hinted} vs {greedy}: {key}"
    assert expected["result"].intervals_completed > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ECDP_WORKLOADS)
def test_ecdp_allowing_no_pointer_is_the_stream_baseline(workload, engine):
    config = INTERVAL_HEAVY.with_overrides(engine=engine)
    expected = capture(workload, "baseline", config)
    got = capture(
        workload, "ecdp", config, hints=HintTable(default_allow=False)
    )
    assert got["result"].prefetchers.pop("cdp") == PrefetcherResult()
    assert got["dram"] == expected["dram"]
    for key in expected:
        assert got[key] == expected[key], key
