"""Experiment harness: result records, timing, and seeded trial runs.

The experiments in :mod:`repro.bench.experiments` all produce an
:class:`ExperimentResult` — a structured record with the paper claim,
the measured rows, and a pass/fail verdict — so benches and docs render
them uniformly.  :func:`counter_rows` turns the solvers' oracle
counters (:class:`repro.core.oracle.OracleCounters`) into the same row
shape, so perf accounting rides through the identical rendering path.

Perf artifacts are standardized as ``BENCH_<name>.json`` files
(:func:`write_bench_json` / :func:`load_bench_json`) with the schema::

    {
      "bench": "<bench name>",
      "workload": "<workload description>",
      "rows": [{...}, ...],
      "wall_seconds": <total wall-clock of the measured section>,
      "counters": {"oracle_hits": ..., ...}
    }

so the perf trajectory is machine-readable across PRs;
``benchmarks/run_all.py`` aggregates every artifact it finds.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "ExperimentResult",
    "timed",
    "timed_best",
    "geometric_mean",
    "counter_rows",
    "write_bench_json",
    "load_bench_json",
]

_BENCH_SCHEMA_KEYS = ("bench", "workload", "rows", "wall_seconds", "counters")


@dataclass
class ExperimentResult:
    """Outcome of one reproduction experiment (one paper artifact)."""

    experiment_id: str
    title: str
    paper_claim: str
    rows: list[dict] = field(default_factory=list)
    columns: Sequence[str] | None = None
    passed: bool = True
    conclusion: str = ""

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def finish(self, passed: bool, conclusion: str) -> "ExperimentResult":
        self.passed = passed
        self.conclusion = conclusion
        return self


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def timed_best(
    fn: Callable,
    *args,
    repeats: int = 5,
    mode: str = "seconds",
    requests: int | None = None,
    **kwargs,
) -> tuple[object, float]:
    """Run ``fn`` ``repeats`` times and return ``(result, measure)``
    under the steady-state estimator for the chosen ``mode``.

    ``mode="seconds"`` (default) returns the *minimum* single-run wall
    time: scheduler interference and cache-cold first calls only ever
    add time, so the fastest observed run is the one closest to the
    code's intrinsic cost.

    ``mode="requests_per_s"`` is the throughput twin for closed-loop
    benches: each call is one loop of ``requests`` requests (or, when
    ``requests`` is ``None``, ``fn`` returns the completed count
    itself), the per-run measure is requests divided by wall seconds,
    and the *maximum* observed rate is returned — interference only
    ever lowers throughput, so max mirrors min-time.  Both modes share
    the ``BENCH_<name>.json`` artifact schema; only the row key and
    the regression-gate direction differ.

    ``fn`` must be repeatable (deterministic, no cross-call state
    accumulation); the returned result is the first run's.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if mode not in ("seconds", "requests_per_s"):
        raise ValueError(
            f"unknown mode {mode!r}; use 'seconds' or 'requests_per_s'"
        )

    def measure(result: object, seconds: float) -> float:
        if mode == "seconds":
            return seconds
        count = requests if requests is not None else result
        if not isinstance(count, int) or count <= 0:
            raise ValueError(
                "requests_per_s mode needs requests= or an fn returning "
                f"a positive request count, got {count!r}"
            )
        return count / seconds if seconds > 0 else float("inf")

    better = min if mode == "seconds" else max
    result, seconds = timed(fn, *args, **kwargs)
    best = measure(result, seconds)
    for _ in range(repeats - 1):
        run_result, seconds = timed(fn, *args, **kwargs)
        best = better(best, measure(run_result, seconds))
    return result, best


def counter_rows(
    counters_by_label: Mapping[str, object],
) -> list[dict]:
    """Flatten a ``{label: OracleCounters}`` mapping into result rows.

    Accepts anything with an ``as_dict()`` method (or a plain mapping),
    so benches can record oracle accounting next to timings without
    importing the oracle module themselves.
    """
    rows: list[dict] = []
    for label, counters in counters_by_label.items():
        as_dict = getattr(counters, "as_dict", None)
        values = dict(as_dict()) if callable(as_dict) else dict(counters)
        rows.append({"label": label, **values})
    return rows


def positive_int(text: str) -> int:
    """``argparse`` type for a count argument: a degenerate value such
    as ``--facts-per-relation 0`` exits 2 with a one-line message
    instead of failing deep inside a workload generator."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def write_bench_json(
    bench: str,
    workload: str,
    rows: Iterable[Mapping],
    wall_seconds: float,
    counters: Mapping[str, int] | object | None = None,
    directory: str | Path = ".",
) -> Path:
    """Write one ``BENCH_<bench>.json`` perf artifact and return its path.

    ``counters`` accepts a mapping or anything with ``as_dict()`` (an
    :class:`~repro.core.oracle.OracleCounters`); ``None`` records ``{}``.
    ``directory`` is created when missing.
    """
    as_dict = getattr(counters, "as_dict", None)
    if callable(as_dict):
        counter_map = dict(as_dict())
    elif counters is None:
        counter_map = {}
    else:
        counter_map = dict(counters)
    document = {
        "bench": bench,
        "workload": workload,
        "rows": [dict(row) for row in rows],
        "wall_seconds": float(wall_seconds),
        "counters": counter_map,
    }
    path = Path(directory) / f"BENCH_{bench}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: str | Path) -> dict:
    """Load and validate one ``BENCH_*.json`` artifact."""
    document = json.loads(Path(path).read_text())
    missing = [key for key in _BENCH_SCHEMA_KEYS if key not in document]
    if missing:
        raise ValueError(
            f"{path}: not a bench artifact (missing keys {missing})"
        )
    return document


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (1.0 for an empty sequence)."""
    values = [v for v in values if v > 0]
    if not values:
        return 1.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
