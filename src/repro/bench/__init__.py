"""Benchmark harness: experiment records, timing, reporting, and the
E1–E12 reproduction experiments (one per paper artifact)."""

from repro.bench.experiments import (
    all_experiments,
    e12_extensions,
    e1_fig1_example,
    e2_theorem1_reduction,
    e3_fig3_hypergraphs,
    e4_claim1_ratio,
    e5_theorem3_ratio,
    e6_theorem4_ratio,
    e7_alg4_exactness,
    e8_prop1_scaling,
    e9_lemma1_balanced,
    e10_complexity_tables,
    e11_applications,
)
from repro.bench.harness import (
    ExperimentResult,
    counter_rows,
    geometric_mean,
    load_bench_json,
    positive_int,
    timed,
    timed_best,
    write_bench_json,
)
from repro.bench.reporting import format_experiment, format_table

__all__ = [
    "ExperimentResult",
    "all_experiments",
    "counter_rows",
    "e10_complexity_tables",
    "e11_applications",
    "e12_extensions",
    "e1_fig1_example",
    "e2_theorem1_reduction",
    "e3_fig3_hypergraphs",
    "e4_claim1_ratio",
    "e5_theorem3_ratio",
    "e6_theorem4_ratio",
    "e7_alg4_exactness",
    "e8_prop1_scaling",
    "e9_lemma1_balanced",
    "format_experiment",
    "format_table",
    "geometric_mean",
    "load_bench_json",
    "positive_int",
    "timed",
    "timed_best",
    "write_bench_json",
]
