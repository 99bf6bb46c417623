"""SystemConfig.validate(): field-level rejection of bad machine configs."""

import pytest

from repro.core.config import SystemConfig
from repro.errors import ConfigError, ReproError


def test_presets_are_valid_and_chainable():
    assert SystemConfig.paper().validate() is not None
    scaled = SystemConfig.scaled()
    assert scaled.validate() is scaled  # returns self for chaining


@pytest.mark.parametrize("field", ["l1_size", "l2_size", "block_size"])
@pytest.mark.parametrize("value", [0, -64])
def test_zero_and_negative_sizes_rejected(field, value):
    config = SystemConfig.scaled().with_overrides(**{field: value})
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert field in info.value.fields
    assert "positive" in info.value.fields[field]


@pytest.mark.parametrize("value", [96, 100, 65])
def test_non_power_of_two_block_size_rejected(value):
    config = SystemConfig.scaled().with_overrides(block_size=value)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "block_size" in info.value.fields


def test_l2_ways_bounded_by_block_count():
    scaled = SystemConfig.scaled()  # 64 KB / 64 B = 1024 blocks
    config = scaled.with_overrides(l2_ways=2048)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "l2_ways" in info.value.fields
    # the boundary itself (fully-associative) is legal
    scaled.with_overrides(l2_ways=1024).validate()


def test_l1_ways_bounded_by_block_count():
    config = SystemConfig.scaled().with_overrides(l1_ways=4096)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "l1_ways" in info.value.fields


def test_cache_size_must_be_block_multiple():
    config = SystemConfig.scaled().with_overrides(l2_size=64 * 1024 + 7)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "l2_size" in info.value.fields


@pytest.mark.parametrize("engine", ["warp", "batch"])
def test_unknown_engine_rejected(engine):
    config = SystemConfig.scaled().with_overrides(engine=engine)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "engine" in info.value.fields


def test_threshold_ordering_rejected():
    config = SystemConfig.scaled().with_overrides(a_low=0.9, a_high=0.7)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "a_low" in info.value.fields


def test_threshold_range_rejected():
    config = SystemConfig.scaled().with_overrides(t_coverage=1.5)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "t_coverage" in info.value.fields


def test_bus_width_must_divide_block():
    config = SystemConfig.scaled().with_overrides(bus_bytes_per_cycle=7)
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert "bus_bytes_per_cycle" in info.value.fields


def test_multiple_problems_reported_together():
    config = SystemConfig.scaled().with_overrides(
        l1_size=-1, stream_count=0, a_low=2.0
    )
    with pytest.raises(ConfigError) as info:
        config.validate()
    assert {"l1_size", "stream_count", "a_low"} <= set(info.value.fields)
    # the message names every field, so the one-line CLI error is actionable
    for name in ("l1_size", "stream_count", "a_low"):
        assert name in str(info.value)


def test_config_error_is_repro_error_with_usage_exit_code():
    with pytest.raises(ReproError) as info:
        SystemConfig.scaled().with_overrides(l2_size=0).validate()
    assert info.value.exit_code == 2
