"""Solve-service throughput under faults — the chaos tax, measured.

The robustness twin of ``bench_serve_throughput.py``: the same closed
loop (``clients`` threads, one connection each, driving a live
:class:`~repro.serve.server.SolveServer` on a unix socket), run twice:

* **fault-free** — the baseline request rate.
* **faulted-1pct** — ``drop@serve-write:solve`` armed for ~1% of the
  request volume (at least one per pass, marker-counted per repeat):
  the server severs the connection before a response byte leaves.
  The driver recovers the way a real client does — reconnect, retry
  the request — and the pass only counts when **every** request is
  eventually answered: an acknowledged-loss under faults is a bench
  failure, not a slow run.

Both sections report ``requests_per_s`` (max over repeats), so the
committed ``BENCH_serve_chaos.json`` pins the chaos tax and
``run_all.py --validate`` gates both rates as higher-is-better.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_chaos.py [--out DIR]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import tempfile
import threading
from pathlib import Path

from repro.core.faultinject import ENV_DIR, ENV_FAULTS
from repro.io.serialize import problem_to_dict
from repro.serve import ServeClient, SolveServer
from repro.workloads import scaling_problem

#: Retries per request before the driver declares an answer lost.
_MAX_ATTEMPTS = 5


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


class _Loop:
    """One closed-loop pass: every request driven to an answer,
    reconnecting through severed connections."""

    def __init__(self, address: str, instance: str, plans: list[list[dict]]):
        self.address = address
        self.instance = instance
        self.plans = plans
        self.policy = {"deadline_seconds": 30.0}

    def run(self) -> tuple[int, int]:
        """Returns ``(answered, recovered)``; raises when any request
        exhausts its attempts (an acknowledged loss)."""
        answered = [0] * len(self.plans)
        recovered = [0] * len(self.plans)
        failures: list[str] = []

        def drive(slot: int, plan: list[dict]) -> None:
            client = ServeClient.connect(self.address, timeout=60.0)
            try:
                for request in plan:
                    for attempt in range(_MAX_ATTEMPTS):
                        try:
                            client.solve(
                                self.instance, request, policy=self.policy
                            )
                            answered[slot] += 1
                            break
                        except Exception:  # noqa: BLE001 - severed/shed
                            try:
                                client.close()
                            except Exception:  # noqa: BLE001
                                pass
                            client = ServeClient.connect(
                                self.address, timeout=60.0, retries=3
                            )
                            recovered[slot] += 1
                    else:
                        failures.append(f"request lost after {_MAX_ATTEMPTS} "
                                        "attempts")
            finally:
                client.close()

        threads = [
            threading.Thread(target=drive, args=(slot, plan))
            for slot, plan in enumerate(self.plans)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[:3]
        total = sum(len(plan) for plan in self.plans)
        assert sum(answered) == total, (sum(answered), total)
        return total, sum(recovered)


def _closed_loop_rate(loop: _Loop, repeats: int, arm=None) -> tuple[dict, float]:
    """Best-of-``repeats`` request rate; ``arm`` (when given) re-arms
    the fault schedule before every repeat so each pass faults the
    same ~1% of its volume."""
    from repro.bench import timed_best

    recovered_per_pass: list[int] = []

    def one_pass() -> int:
        if arm is not None:
            arm()
        total, recovered = loop.run()
        recovered_per_pass.append(recovered)
        return total

    count, rate = timed_best(one_pass, repeats=repeats, mode="requests_per_s")
    return {
        "requests": count,
        "requests_per_s": round(rate, 1),
        "recovered": max(recovered_per_pass, default=0),
    }, count / rate if rate > 0 else 0.0


def run(
    seed: int = 0,
    facts_per_relation: int = 700,
    clients: int = 4,
    per_client: int = 25,
    repeats: int = 3,
) -> tuple[list[dict], float]:
    problem = scaling_problem(
        random.Random(seed), facts_per_relation=facts_per_relation
    )
    doc = problem_to_dict(problem)
    rng = random.Random(43)
    plans = [_requests(problem, rng, per_client, 3) for _ in range(clients)]
    total = clients * per_client
    fault_count = max(1, total // 100)  # the "~1%" schedule

    saved = {key: os.environ.get(key) for key in (ENV_FAULTS, ENV_DIR)}
    rows: list[dict] = []
    wall = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-bench-") as tmp:
        socket_path = str(Path(tmp) / "bench.sock")
        ready = threading.Event()

        def serve() -> None:
            async def main() -> None:
                server = SolveServer(unix_path=socket_path)
                await server.start()
                ready.set()
                await server.serve_until_closed()

            asyncio.run(main())

        server_thread = threading.Thread(target=serve, daemon=True)
        server_thread.start()
        assert ready.wait(30), "server did not come up"
        address = f"unix:{socket_path}"
        try:
            os.environ.pop(ENV_FAULTS, None)
            with ServeClient.connect(address) as client:
                instance = client.register(doc)
            loop = _Loop(address, instance, plans)

            # Section 1: the fault-free baseline.
            row, section_wall = _closed_loop_rate(loop, repeats)
            assert row["recovered"] == 0, "fault-free pass saw failures"
            rows.append({"path": "fault-free", "clients": clients, **row})
            wall += section_wall

            # Section 2: ~1% of responses dropped mid-write; fresh
            # markers per repeat keep the schedule per-pass.
            os.environ[ENV_FAULTS] = (
                f"drop@serve-write:solve:{fault_count}"
            )

            def arm() -> None:
                os.environ[ENV_DIR] = tempfile.mkdtemp(
                    prefix="markers-", dir=tmp
                )

            row, section_wall = _closed_loop_rate(loop, repeats, arm=arm)
            assert row["recovered"] >= fault_count, (
                "the armed faults never fired: "
                f"recovered={row['recovered']} < {fault_count}"
            )
            rows.append({
                "path": "faulted-1pct",
                "clients": clients,
                "faults_per_pass": fault_count,
                **row,
            })
            wall += section_wall

            baseline = rows[0]["requests_per_s"]
            degraded = rows[1]["requests_per_s"]
            rows.append({
                "path": "chaos-tax",
                "slowdown": round(
                    baseline / degraded if degraded else float("inf"), 3
                ),
            })
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            try:
                with ServeClient.connect(address, timeout=5.0) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - already down
                pass
            server_thread.join(timeout=30)
    return rows, wall


def main(argv: list[str] | None = None) -> int:
    from repro.bench import positive_int, write_bench_json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--facts-per-relation", type=positive_int, default=700)
    parser.add_argument("--clients", type=positive_int, default=4)
    parser.add_argument("--per-client", type=positive_int, default=25)
    parser.add_argument("--repeats", type=positive_int, default=3)
    parser.add_argument(
        "--out", default=".", help="directory for BENCH_serve_chaos.json"
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
        bench="serve_chaos",
        workload=(
            f"scaling_problem(seed={args.seed}, "
            f"facts_per_relation={args.facts_per_relation}); closed loop "
            f"{args.clients} clients × {args.per_client} requests, "
            "fault-free vs drop@serve-write on ~1% of the volume "
            "(every request recovered to an answer)"
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
