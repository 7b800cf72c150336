"""CI smoke bench: compiled-arena differential check + perf artifact.

Runs the arena-backed oracle, greedy baselines, and local search
against their object-backed reference twins on a small scaling
workload and asserts **identical propagations and identical oracle
counters** — the same invariant the full differential suite
(``tests/core/test_arena.py``) proves across many seeds, checked here
once per CI run on every push.  Timings for both paths are recorded to
``BENCH_smoke_arena.json`` (schema: see
:func:`repro.bench.write_bench_json`).

Usage::

    PYTHONPATH=src python benchmarks/smoke_arena.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.bench import positive_int, write_bench_json
from repro.core import (
    OracleCounters,
    improve,
    solve_greedy_max_coverage,
    solve_greedy_min_damage,
)
from repro.core.arena import CompiledProblem
from repro.core.reference import (
    reference_greedy_max_coverage,
    reference_greedy_min_damage,
    reference_improve,
)
from repro.workloads import scaling_problem

_PAIRS = (
    ("greedy-min-damage", solve_greedy_min_damage, reference_greedy_min_damage),
    (
        "greedy-max-coverage",
        solve_greedy_max_coverage,
        reference_greedy_max_coverage,
    ),
)


def run(seed: int = 73, facts_per_relation: int = 200) -> tuple[list, float]:
    problem = scaling_problem(
        random.Random(seed), facts_per_relation=facts_per_relation
    )
    arena = CompiledProblem.of(problem)
    rows: list[dict] = []
    wall = 0.0

    for name, arena_solver, reference_solver in _PAIRS:
        arena_counters = OracleCounters()
        object_counters = OracleCounters()
        start = time.perf_counter()
        fast = arena_solver(problem, counters=arena_counters)
        fast_seconds = time.perf_counter() - start
        start = time.perf_counter()
        slow = reference_solver(problem, counters=object_counters)
        slow_seconds = time.perf_counter() - start

        assert fast.deleted_facts == slow.deleted_facts, name
        assert arena_counters.as_dict() == object_counters.as_dict(), name
        assert fast.is_feasible()
        assert fast.verify_by_reevaluation()

        arena_polish = OracleCounters()
        object_polish = OracleCounters()
        start = time.perf_counter()
        polished = improve(fast, counters=arena_polish)
        polish_seconds = time.perf_counter() - start
        reference_polished = reference_improve(slow, counters=object_polish)
        assert polished.deleted_facts == reference_polished.deleted_facts, name
        assert arena_polish.as_dict() == object_polish.as_dict(), name
        assert polished.objective() <= fast.objective() + 1e-9

        wall += fast_seconds + slow_seconds + polish_seconds
        rows.append(
            {
                "solver": name,
                "arena_s": round(fast_seconds, 5),
                "object_s": round(slow_seconds, 5),
                "polish_arena_s": round(polish_seconds, 5),
                "objective": polished.objective(),
                "deleted_facts": len(polished.deleted_facts),
                "identical": True,
                **arena_counters.as_dict(),
            }
        )

    rows.append(
        {
            "solver": "arena-shape",
            "num_facts": arena.num_facts,
            "num_view_tuples": arena.num_view_tuples,
            "num_delta": arena.num_delta,
            "nnz": len(arena.dep_indices),
            "identical": True,
        }
    )
    return rows, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=73)
    parser.add_argument("--facts-per-relation", type=positive_int, default=200)
    parser.add_argument(
        "--out", default=".", help="directory for BENCH_smoke_arena.json"
    )
    args = parser.parse_args(argv)

    rows, wall = run(
        seed=args.seed, facts_per_relation=args.facts_per_relation
    )
    totals = {"oracle_hits": 0, "delta_evaluations": 0, "full_reevaluations": 0}
    for row in rows:
        for key in totals:
            totals[key] += row.get(key, 0)
    path = write_bench_json(
        bench="smoke_arena",
        workload=(
            f"scaling_problem(seed={args.seed}, "
            f"facts_per_relation={args.facts_per_relation})"
        ),
        rows=rows,
        wall_seconds=wall,
        counters=totals,
        directory=args.out,
    )
    print(json.dumps(rows, indent=2, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
