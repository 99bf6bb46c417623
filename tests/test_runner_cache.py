"""Bounded LRU memoization in the runner: limits, counters, wiring."""

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigError
from repro.experiments import runner
from repro.experiments.runner import (
    LruCache,
    cache_stats,
    clear_caches,
    profile_benchmark,
    run_benchmark,
    set_cache_capacity,
)

CFG = SystemConfig.scaled()


class TestLruCache:
    def test_eviction_at_capacity(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # "b" is now least-recent
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_hit_miss_counters(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.stats == {
            "size": 1, "capacity": 4, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_clear_resets_everything(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == 0

    def test_resize_shrinks_with_eviction(self):
        cache = LruCache(capacity=4)
        for index in range(4):
            cache.put(index, index)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.evictions == 2

    @pytest.mark.parametrize("capacity", [0, -1, "big"])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ConfigError):
            LruCache(capacity=capacity)


class TestRunnerWiring:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()
        set_cache_capacity(128)

    def test_caches_are_bounded_lrus(self):
        assert isinstance(runner._PROFILE_CACHE, LruCache)
        assert isinstance(runner._RESULT_CACHE, LruCache)
        assert runner._RESULT_CACHE.capacity >= 1

    def test_result_cache_hit_counted(self):
        first = run_benchmark("mst", "baseline", CFG, input_set="test")
        hits_before = runner._RESULT_CACHE.hits
        second = run_benchmark("mst", "baseline", CFG, input_set="test")
        assert second is first
        assert runner._RESULT_CACHE.hits == hits_before + 1

    def test_profiles_keyed_by_what_the_profiler_reads(self):
        """Engine, DRAM timing and throttling policy never reach the
        functional profiler, so configs that differ only there share one
        profile; a different L2 does not."""
        profiles = [
            profile_benchmark("mst", config, input_set="test")
            for config in (
                CFG.with_overrides(engine="reference"),
                CFG.with_overrides(engine="fast"),
                CFG.with_overrides(dram_bank_occupancy=250),
                CFG.with_overrides(
                    throttle_policy="static", policy_params="level=1"
                ),
            )
        ]
        assert cache_stats()["profiles"]["misses"] == 1
        assert all(profile is profiles[0] for profile in profiles)
        profile_benchmark(
            "mst", CFG.with_overrides(l2_size=32 * 1024), input_set="test"
        )
        assert cache_stats()["profiles"]["misses"] == 2

    def test_cache_stats_shape(self):
        stats = cache_stats()
        assert set(stats) == {"profiles", "results"}
        for counters in stats.values():
            assert {"size", "capacity", "hits", "misses", "evictions"} <= set(
                counters
            )

    def test_set_cache_capacity_applies_to_both(self):
        set_cache_capacity(3)
        assert runner._PROFILE_CACHE.capacity == 3
        assert runner._RESULT_CACHE.capacity == 3

    def test_capacity_one_keeps_only_latest(self):
        set_cache_capacity(1)
        first = run_benchmark("mst", "baseline", CFG, input_set="test")
        run_benchmark("health", "baseline", CFG, input_set="test")
        again = run_benchmark("mst", "baseline", CFG, input_set="test")
        assert again is not first  # evicted, recomputed
        assert runner._RESULT_CACHE.evictions >= 1
