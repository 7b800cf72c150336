"""CI smoke bench: run the oracle-backed solvers once on a small
scaling workload and dump the oracle counters as JSON.

Unlike the pytest benches this is a plain script (no wall-clock
assertions, safe on noisy shared runners); it checks correctness
invariants and records the accounting so regressions in the
incremental hot path show up as counter drift in the uploaded
artifact.

Besides the raw counter dump (``--out``) the run is recorded as a
standard ``BENCH_smoke_oracle.json`` perf artifact (schema: see
:func:`repro.bench.write_bench_json`) in ``--bench-dir``.

Usage::

    PYTHONPATH=src python benchmarks/smoke_oracle.py --out oracle-counters.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.bench import positive_int, write_bench_json
from repro.core import (
    BalancedDeletionPropagationProblem,
    OracleCounters,
    improve,
    solve_balanced,
    solve_greedy_max_coverage,
    solve_greedy_min_damage,
)
from repro.workloads import scaling_problem


def _deletions_by_view(problem) -> dict:
    out: dict = {}
    for vt in problem.deleted_view_tuples():
        out.setdefault(vt.view, []).append(vt)
    return out


def run(seed: int = 73, facts_per_relation: int = 200) -> dict:
    problem = scaling_problem(
        random.Random(seed), facts_per_relation=facts_per_relation
    )
    record: dict = {
        "seed": seed,
        "num_facts": len(list(problem.instance.facts())),
        "num_queries": len(problem.queries),
        "delta_size": len(problem.deleted_view_tuples()),
        "solvers": {},
    }

    for name, solver in (
        ("greedy-min-damage", solve_greedy_min_damage),
        ("greedy-max-coverage", solve_greedy_max_coverage),
    ):
        counters = OracleCounters()
        solution = solver(problem, counters=counters)
        polished = improve(solution, counters=counters)
        assert polished.is_feasible()
        assert polished.objective() <= solution.objective() + 1e-9
        assert polished.verify_by_reevaluation()
        record["solvers"][name] = {
            "objective": polished.objective(),
            "deleted_facts": len(polished.deleted_facts),
            **counters.as_dict(),
        }

    balanced_problem = BalancedDeletionPropagationProblem(
        problem.instance,
        problem.queries,
        {
            name: [vt.values for vt in vts]
            for name, vts in _deletions_by_view(problem).items()
        },
    )
    balanced = solve_balanced(balanced_problem)
    assert balanced.verify_by_reevaluation()
    record["solvers"]["lemma1-posneg"] = {
        "objective": balanced.objective(),
        "deleted_facts": len(balanced.deleted_facts),
        **(
            balanced.counters.as_dict()
            if isinstance(balanced.counters, OracleCounters)
            else OracleCounters().as_dict()
        ),
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=73)
    parser.add_argument("--facts-per-relation", type=positive_int, default=200)
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument(
        "--bench-dir",
        default=".",
        help="directory for the BENCH_smoke_oracle.json artifact",
    )
    args = parser.parse_args(argv)

    start = time.perf_counter()
    record = run(seed=args.seed, facts_per_relation=args.facts_per_relation)
    wall = time.perf_counter() - start
    payload = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    totals = {"oracle_hits": 0, "delta_evaluations": 0, "full_reevaluations": 0}
    rows = []
    for name, stats in record["solvers"].items():
        rows.append({"solver": name, **stats})
        for key in totals:
            totals[key] += stats.get(key, 0)
    write_bench_json(
        bench="smoke_oracle",
        workload=(
            f"scaling_problem(seed={record['seed']}, "
            f"facts={record['num_facts']}, "
            f"delta={record['delta_size']})"
        ),
        rows=rows,
        wall_seconds=wall,
        counters=totals,
        directory=args.bench_dir,
    )
    print(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
