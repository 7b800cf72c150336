"""Exact ILP route — cold compile vs warm start vs ΔV-sibling re-solve.

The acceptance bench for the arena-compiled ILP (:mod:`repro.lp.ilp`):
push a batch of ΔV requests against one triangle workload through
:func:`repro.lp.ilp.solve_ilp` three ways:

* **cold** — each request is a freshly constructed problem (views
  re-materialized, arena recompiled, incidence rebuilt) solved without
  a warm-start incumbent: the full compile+solve cost per request;
* **warm** — same fresh construction, but the greedy + local-search
  incumbent enters as an objective cutoff row;
* **sibling-resolve** — the shipped incremental path: one base problem
  is primed once, every request binds via ``with_deletions`` so the
  session artifacts and the zero-copy witness incidence matrix carry
  over and only the candidate slice / covering rows are rebuilt.

An **lp-rounding** row times :func:`repro.core.lp_rounding.solve_lp_rounding`
over the same sibling requests: the LP relaxation (1)–(5) is sliced
from the same incidence matrix and rounded at ``1/l``; each answer must
be feasible and within ``l²`` of the ILP optimum.

Asserted: (a) all three modes return lexicographically identical
answers request for request — same objective, same deletion count (the
warm cutoff row may steer HiGHS to a different but equally optimal fact
set); (b) every sibling re-slices the *same* incidence object
(matrix identity, not equality); (c) sibling re-solve is faster than
cold compile+solve.  Timings land in ``BENCH_ilp_exact.json`` (schema:
:func:`repro.bench.write_bench_json`).

Usage::

    PYTHONPATH=src python benchmarks/bench_ilp_exact.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.lp_rounding import lp_rounding_bound, solve_lp_rounding
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.lp.ilp import solve_ilp, witness_incidence
from repro.workloads import random_triangle_problem


def _requests(problem, rng: random.Random, count: int, size: int) -> list[dict]:
    """``count`` ΔV requests of ``size`` view tuples each."""
    pool = sorted(problem.all_view_tuples())
    requests = []
    for _ in range(count):
        picked = rng.sample(pool, min(size, len(pool)))
        request: dict[str, list] = {}
        for vt in picked:
            request.setdefault(vt.view, []).append(list(vt.values))
        requests.append(request)
    return requests


def _fresh(base, request) -> DeletionPropagationProblem:
    """A from-scratch problem for ``request`` — re-materializes the
    views and recompiles the arena, carrying nothing over."""
    return DeletionPropagationProblem(
        base.instance, list(base.queries), request
    )


def run(
    seed: int = 37,
    center_facts: int = 9,
    leaf_facts: int = 14,
    num_requests: int = 10,
    request_size: int = 4,
) -> tuple[list, float]:
    rng = random.Random(seed)
    base = random_triangle_problem(
        rng,
        center_facts=center_facts,
        leaf_facts=leaf_facts,
        delta_fraction=0.3,
    )
    requests = _requests(base, rng, num_requests, request_size)

    # Cold: fresh problem per request, no warm-start incumbent.
    start = time.perf_counter()
    cold = [
        solve_ilp(_fresh(base, request), warm_start=False)
        for request in requests
    ]
    cold_seconds = time.perf_counter() - start

    # Warm: fresh problem per request, incumbent cutoff enabled.
    start = time.perf_counter()
    warm = [solve_ilp(_fresh(base, request)) for request in requests]
    warm_seconds = time.perf_counter() - start

    # Sibling: prime the base once, then ΔV rebinds only.
    solve_ilp(base)  # primes the session, arena, and incidence matrix
    incidence = witness_incidence(SolveSession.of(base))
    start = time.perf_counter()
    sibling = [
        solve_ilp(base.with_deletions(request)) for request in requests
    ]
    sibling_seconds = time.perf_counter() - start

    # LP rounding over the same sibling requests.
    start = time.perf_counter()
    rounded = [
        solve_lp_rounding(base.with_deletions(request)) for request in requests
    ]
    rounding_seconds = time.perf_counter() - start
    for index, (prop, exact) in enumerate(zip(rounded, sibling)):
        bound = lp_rounding_bound(prop.problem) * exact.side_effect()
        assert prop.is_feasible() and prop.side_effect() <= bound + 1e-9, (
            f"request #{index}: LP rounding infeasible or beyond l² × OPT"
        )

    # (a) Lexicographically identical answers request for request: the
    # warm cutoff row may steer HiGHS to a *different* optimum, but the
    # (objective, deletion count) pair is pinned by the formulation.
    for index, (a, b, c) in enumerate(zip(cold, warm, sibling)):
        objectives = (a.objective(), b.objective(), c.objective())
        assert max(objectives) - min(objectives) < 1e-6, (
            f"request #{index}: cold/warm/sibling objectives disagree: "
            f"{objectives}"
        )
        counts = {len(p.deleted_facts) for p in (a, b, c)}
        assert len(counts) == 1, (
            f"request #{index}: deletion counts disagree: {counts}"
        )
    # (b) Every sibling re-sliced the same incidence matrix.
    for prop in sibling:
        session = SolveSession.of(prop.problem)
        assert witness_incidence(session) is incidence

    def row(path: str, seconds: float) -> dict:
        return {
            "path": path,
            "seconds": round(seconds, 5),
            "requests": len(requests),
            "per_request_ms": round(seconds / len(requests) * 1e3, 3),
        }

    speedup = (
        cold_seconds / sibling_seconds if sibling_seconds > 0 else float("inf")
    )
    rows = [
        row("cold", cold_seconds),
        row("warm", warm_seconds),
        row("sibling-resolve", sibling_seconds),
        row("lp-rounding", rounding_seconds),
        {
            "path": "speedup",
            "sibling_over_cold": round(speedup, 2),
            "lexicographically_identical": True,
        },
    ]
    # (c) The incremental path must beat the full compile+solve.
    assert sibling_seconds < cold_seconds, (
        f"sibling re-solve ({sibling_seconds:.4f}s) not faster than "
        f"cold compile+solve ({cold_seconds:.4f}s)"
    )
    return rows, cold_seconds + warm_seconds + sibling_seconds + rounding_seconds


def main(argv: list[str] | None = None) -> int:
    from repro.bench import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=37)
    parser.add_argument("--center-facts", type=int, default=9)
    parser.add_argument("--leaf-facts", type=int, default=14)
    parser.add_argument("--requests", type=int, default=10)
    parser.add_argument("--request-size", type=int, default=4)
    parser.add_argument(
        "--out", default=".", help="directory for BENCH_ilp_exact.json"
    )
    args = parser.parse_args(argv)

    rows, wall = run(
        seed=args.seed,
        center_facts=args.center_facts,
        leaf_facts=args.leaf_facts,
        num_requests=args.requests,
        request_size=args.request_size,
    )
    path = write_bench_json(
        bench="ilp_exact",
        workload=(
            f"random_triangle_problem(seed={args.seed}, "
            f"center_facts={args.center_facts}, "
            f"leaf_facts={args.leaf_facts}), "
            f"{args.requests} ΔV requests × {args.request_size} tuples"
        ),
        rows=rows,
        wall_seconds=wall,
        directory=args.out,
    )
    print(json.dumps(rows, indent=2, sort_keys=True))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
