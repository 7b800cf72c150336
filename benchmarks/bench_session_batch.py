"""ΔV batch throughput — session rebind vs per-request recompile.

The acceptance bench for the :class:`~repro.core.session.SolveSession`
refactor: push a batch of ΔV requests against one shared instance
through :func:`repro.core.run_delta_batch` twice on the same workload:

* **warm** — the shipped path: the base problem's session is primed
  once (profile + compiled witness arena) and every request re-binds
  only the ΔV slices (``CompiledProblem.rebound``, shared
  ``_InstanceArtifacts``) — no recompile, no structural re-scan;
* **cold** — the pre-session layout: each request's variant is
  stripped of every carried solve context, so the arena, the structure
  profile, the dp-tree applicability probe, and the fact → dependents
  index are recomputed per request (exactly what each batch task paid
  before the session existed).

Asserted: (a) both paths return identical propagations request for
request; (b) every warm variant re-binds the *same* arena storage as
the base (array identity, not equality); (c) warm is measurably faster
than cold (>= 1.3x; observed ~3-5x — the slack is for noisy CI boxes).
Timings are recorded to ``BENCH_session_batch.json`` (schema: see
:func:`repro.bench.write_bench_json`).

Usage::

    PYTHONPATH=src python benchmarks/bench_session_batch.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core import run_delta_batch
from repro.core.arena import CompiledProblem
from repro.core.registry import solve
from repro.core.session import SolveSession
from repro.workloads import scaling_problem

_MIN_SPEEDUP = 1.3
_CARRIED_CONTEXT = (
    "_arena_base",
    "_compiled_arena",
    "_dependents_base",
    "_session_base",
    "_solve_session",
)


def _requests(problem, rng: random.Random, count: int, size: int) -> list[dict]:
    """``count`` ΔV requests of ``size`` view tuples each, drawn from
    the base problem's views (disjoint from each other not required)."""
    pool = sorted(problem.all_view_tuples())
    requests = []
    for _ in range(count):
        picked = rng.sample(pool, min(size, len(pool)))
        request: dict[str, list] = {}
        for vt in picked:
            request.setdefault(vt.view, []).append(list(vt.values))
        requests.append(request)
    return requests


def _cold_batch(problem, requests, method: str):
    """The pre-session baseline: every variant recompiles from scratch."""
    outcomes = []
    for request in requests:
        variant = problem.with_deletions(request)
        for attr in _CARRIED_CONTEXT:
            if hasattr(variant, attr):
                delattr(variant, attr)
        outcomes.append(solve(variant, method=method))
    return outcomes


def run(
    seed: int = 91,
    facts_per_relation: int = 400,
    num_requests: int = 12,
    request_size: int = 3,
    method: str = "auto",
) -> tuple[list, float]:
    rng = random.Random(seed)
    problem = scaling_problem(rng, facts_per_relation=facts_per_relation)
    requests = _requests(problem, rng, num_requests, request_size)

    # Warm: one primed session, every request is a ΔV rebind.
    start = time.perf_counter()
    warm = run_delta_batch(problem, requests, method=method, max_workers=0)
    warm_seconds = time.perf_counter() - start
    assert all(outcome.ok for outcome in warm), [o.error for o in warm]

    # (b) Every rebound variant shares the base arena's storage.
    base_arena = CompiledProblem.of(problem)
    for outcome in warm:
        variant_arena = CompiledProblem.of(outcome.propagation.problem)
        assert variant_arena.facts is base_arena.facts
        assert variant_arena.dep_indices is base_arena.dep_indices
        assert (
            SolveSession.of(outcome.propagation.problem)._shared
            is SolveSession.of(problem)._shared
        )

    # Cold: per-request recompile (context stripped off each variant).
    start = time.perf_counter()
    cold = _cold_batch(problem, requests, method=method)
    cold_seconds = time.perf_counter() - start

    # (a) Identical answers request for request.
    for outcome, twin in zip(warm, cold):
        assert outcome.propagation.deleted_facts == twin.deleted_facts, (
            f"request #{outcome.index}: warm/cold disagree"
        )

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    rows = [
        {
            "path": "warm-rebind",
            "seconds": round(warm_seconds, 5),
            "requests": len(requests),
            "per_request_ms": round(warm_seconds / len(requests) * 1e3, 3),
        },
        {
            "path": "cold-recompile",
            "seconds": round(cold_seconds, 5),
            "requests": len(requests),
            "per_request_ms": round(cold_seconds / len(requests) * 1e3, 3),
        },
        {
            "path": "speedup",
            "rebind_speedup": round(speedup, 2),
            "identical": True,
        },
    ]
    assert speedup >= _MIN_SPEEDUP, (
        f"session rebind only {speedup:.2f}x over per-request recompile"
    )
    return rows, warm_seconds + cold_seconds


def main(argv: list[str] | None = None) -> int:
    from repro.bench import positive_int, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=91)
    parser.add_argument("--facts-per-relation", type=positive_int, default=400)
    parser.add_argument("--requests", type=positive_int, default=12)
    parser.add_argument("--request-size", type=positive_int, default=3)
    parser.add_argument("--method", default="auto")
    parser.add_argument(
        "--out", default=".", help="directory for BENCH_session_batch.json"
    )
    args = parser.parse_args(argv)

    rows, wall = run(
        seed=args.seed,
        facts_per_relation=args.facts_per_relation,
        num_requests=args.requests,
        request_size=args.request_size,
        method=args.method,
    )
    path = write_bench_json(
        bench="session_batch",
        workload=(
            f"scaling_problem(seed={args.seed}, "
            f"facts_per_relation={args.facts_per_relation}), "
            f"{args.requests} ΔV requests × {args.request_size} tuples, "
            f"method={args.method}"
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
