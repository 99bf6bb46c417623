"""Experiment harness: mechanism presets, runners, metrics, reporting.

The export (:func:`export_row`, :func:`write_json`, :func:`write_csv`)
maps a settled job's journal record onto the :data:`FIELDS` columns.
"""

from repro.experiments.configs import MECHANISMS, Mechanism, get_mechanism
from repro.experiments.export import (
    FIELDS,
    export_row,
    write_csv,
    write_json,
)
from repro.experiments.metrics import (
    bpki_delta_percent,
    geomean,
    gmean_speedup,
    hmean_speedup,
    ipc_delta_percent,
    mean_bpki_delta,
    total_bus_traffic_per_ki,
    weighted_speedup,
)
from repro.experiments.reporting import format_bars, format_table, pct, side_by_side
from repro.experiments.runner import (
    build_core,
    clear_caches,
    hint_filter_for,
    make_dram,
    profile_benchmark,
    profiler_config,
    run_benchmark,
    run_multicore,
)
from repro.experiments.suites import (
    OUTLIER,
    accuracy_rows,
    coverage_rows,
    delta_rows,
    summary_line,
    sweep,
)

__all__ = [
    "FIELDS",
    "MECHANISMS",
    "Mechanism",
    "OUTLIER",
    "accuracy_rows",
    "bpki_delta_percent",
    "build_core",
    "clear_caches",
    "coverage_rows",
    "delta_rows",
    "export_row",
    "format_bars",
    "format_table",
    "geomean",
    "get_mechanism",
    "gmean_speedup",
    "hint_filter_for",
    "hmean_speedup",
    "ipc_delta_percent",
    "make_dram",
    "mean_bpki_delta",
    "pct",
    "profile_benchmark",
    "profiler_config",
    "run_benchmark",
    "run_multicore",
    "side_by_side",
    "summary_line",
    "sweep",
    "total_bus_traffic_per_ki",
    "weighted_speedup",
    "write_csv",
    "write_json",
]
