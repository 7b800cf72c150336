"""Solve-service throughput — shared-memory attach vs doc re-prime,
plus a closed-loop request benchmark against a live server.

The acceptance bench for the shared-memory arena (:mod:`repro.core.shm`)
and the solve service (:mod:`repro.serve`).  Two measured sections:

* **Worker init** — what a pool worker pays before its first solve on
  the 2k-fact scaling workload, both ways: ``attach-by-manifest``
  (:func:`repro.core.shm.attach_session` — map the exported segment,
  rebuild the object surface, no query evaluation, no pivot search)
  versus ``doc-reprime`` (the fallback: parse the JSON document,
  re-materialize views, recompile the arena, re-run the rooting
  search).  Asserted: attach beats re-prime by >= 5x, and the attached
  arena solves the same request to the same answer.
* **Closed loop** — a :class:`~repro.serve.server.SolveServer` on a
  unix socket, ``clients`` threads each driving its own connection as
  fast as the server answers, every request under a
  :class:`~repro.core.resilience.SolvePolicy` deadline.  Reported as
  ``requests_per_s`` via :func:`repro.bench.timed_best`'s throughput
  mode (max over repeats — the rate twin of min-time).

Timings land in ``BENCH_serve_throughput.json``; ``run_all.py
--validate`` gates ``requests_per_s`` as higher-is-better.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py [--out DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import tempfile
import threading
from pathlib import Path

from repro.core.portfolio import _prime_session
from repro.core.registry import solve
from repro.core.shm import attach_session
from repro.io.serialize import problem_from_dict
from repro.serve import ServeClient, SolveServer
from repro.workloads import scaling_problem

_MIN_ATTACH_SPEEDUP = 5.0


def _requests(problem, rng: random.Random, count: int, size: int) -> list[dict]:
    pool = sorted(problem.all_view_tuples())
    requests = []
    for _ in range(count):
        picked = rng.sample(pool, min(size, len(pool)))
        request: dict[str, list] = {}
        for vt in picked:
            request.setdefault(vt.view, []).append(list(vt.values))
        requests.append(request)
    return requests


def _bench_worker_init(problem, repeats: int) -> tuple[list[dict], float]:
    """Best-of-``repeats`` worker init cost, both channels."""
    from repro.bench import timed_best

    session = _prime_session(problem)
    doc = session.document
    manifest = session.export_shm()
    probe = _requests(problem, random.Random(17), 1, 3)[0]
    baseline = solve(
        problem.with_deletions(probe), method="auto"
    ).deleted_facts

    def attach_once():
        return attach_session(manifest)

    def prime_once():
        fresh = problem_from_dict(doc)
        _prime_session(fresh)
        return fresh

    attached, attach_seconds = timed_best(attach_once, repeats=repeats)
    primed, prime_seconds = timed_best(prime_once, repeats=repeats)

    # Same answer through both channels (arena bit-exactness is covered
    # exhaustively by tests/core/test_shm.py; this is the smoke twin).
    for candidate in (attached.problem, primed):
        got = solve(
            candidate.with_deletions(probe), method="auto"
        ).deleted_facts
        assert got == baseline, "attach/prime solve divergence"

    speedup = (
        prime_seconds / attach_seconds if attach_seconds > 0 else float("inf")
    )
    assert speedup >= _MIN_ATTACH_SPEEDUP, (
        f"attach-by-manifest only {speedup:.2f}x over doc re-prime "
        f"({attach_seconds * 1e3:.1f}ms vs {prime_seconds * 1e3:.1f}ms)"
    )
    return [
        {
            "path": "attach-by-manifest",
            "init_ms": round(attach_seconds * 1e3, 3),
        },
        {"path": "doc-reprime", "init_ms": round(prime_seconds * 1e3, 3)},
        {"path": "attach-speedup", "attach_speedup": round(speedup, 2)},
    ], attach_seconds + prime_seconds


def _bench_closed_loop(
    problem, clients: int, per_client: int, repeats: int
) -> tuple[list[dict], float]:
    """Requests/second against a live server on a unix socket."""
    from repro.bench import timed_best
    from repro.io.serialize import problem_to_dict

    doc = problem_to_dict(problem)
    rng = random.Random(29)
    plans = [
        _requests(problem, rng, per_client, 3) for _ in range(clients)
    ]
    policy = {"deadline_seconds": 30.0}

    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        socket_path = str(Path(tmp) / "bench.sock")
        ready = threading.Event()
        box: dict = {}

        def serve() -> None:
            async def main() -> None:
                server = SolveServer(unix_path=socket_path)
                await server.start()
                box["server"] = server
                ready.set()
                await server.serve_until_closed()

            asyncio.run(main())

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        assert ready.wait(30), "server did not come up"

        connections = [
            ServeClient.connect(f"unix:{socket_path}", timeout=60.0)
            for _ in range(clients)
        ]
        try:
            instance = connections[0].register(doc)

            def closed_loop() -> int:
                failures: list[str] = []

                def drive(client: ServeClient, requests: list[dict]) -> None:
                    for request in requests:
                        try:
                            client.solve(
                                instance, request, policy=policy
                            )
                        except Exception as exc:  # noqa: BLE001
                            failures.append(str(exc))

                threads = [
                    threading.Thread(target=drive, args=(client, plan))
                    for client, plan in zip(connections, plans)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not failures, failures[:3]
                return clients * per_client

            count, rate = timed_best(
                closed_loop, repeats=repeats, mode="requests_per_s"
            )
        finally:
            try:
                connections[0].shutdown()
            except Exception:  # noqa: BLE001 - already down
                pass
            for client in connections:
                client.close()
            server_thread.join(timeout=30)

    return [
        {
            "path": "closed-loop",
            "clients": clients,
            "requests": count,
            "requests_per_s": round(rate, 1),
        }
    ], count / rate if rate > 0 else 0.0


def run(
    seed: int = 0,
    facts_per_relation: int = 700,
    clients: int = 4,
    per_client: int = 20,
    repeats: int = 5,
) -> tuple[list[dict], float]:
    problem = scaling_problem(
        random.Random(seed), facts_per_relation=facts_per_relation
    )
    init_rows, init_wall = _bench_worker_init(problem, repeats=repeats)
    loop_rows, loop_wall = _bench_closed_loop(
        problem, clients=clients, per_client=per_client,
        repeats=min(3, repeats),
    )
    return init_rows + loop_rows, init_wall + loop_wall


def main(argv: list[str] | None = None) -> int:
    from repro.bench import positive_int, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--facts-per-relation", type=positive_int, default=700)
    parser.add_argument("--clients", type=positive_int, default=4)
    parser.add_argument("--per-client", type=positive_int, default=20)
    parser.add_argument("--repeats", type=positive_int, default=5)
    parser.add_argument(
        "--out", default=".", help="directory for BENCH_serve_throughput.json"
    )
    args = parser.parse_args(argv)

    rows, wall = run(
        seed=args.seed,
        facts_per_relation=args.facts_per_relation,
        clients=args.clients,
        per_client=args.per_client,
        repeats=args.repeats,
    )
    path = write_bench_json(
        bench="serve_throughput",
        workload=(
            f"scaling_problem(seed={args.seed}, "
            f"facts_per_relation={args.facts_per_relation}) "
            f"({3 * args.facts_per_relation} facts); worker init "
            f"best-of-{args.repeats}; closed loop {args.clients} clients "
            f"× {args.per_client} requests over a unix socket"
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
