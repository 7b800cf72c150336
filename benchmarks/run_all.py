"""Bench sweep driver: run the smoke benches in parallel, aggregate
every ``BENCH_*.json`` artifact into one machine-readable index.

The smoke benches are independent scripts, so the sweep launches them
as concurrent subprocesses (``--jobs``, default one per bench capped at
the CPU count) and then collects every ``BENCH_*.json`` in the output
directory — including artifacts written by earlier runs, e.g. the
committed ``BENCH_oracle_local_search.json`` acceptance record — into
``BENCH_INDEX.json`` plus a human-readable table on stdout.

``--full`` additionally runs the pytest acceptance bench
(``bench_oracle_local_search.py``), which re-verifies the >=5x arena
speedup and refreshes its artifact, the session batch bench
(``bench_session_batch.py``), the serve throughput bench
(``bench_serve_throughput.py``), which re-verifies the >=5x
attach-by-manifest speedup and the closed-loop request rate, the serve
chaos bench (``bench_serve_chaos.py``), which pins the request rate
under a ~1% connection-drop fault schedule with every request recovered
to an answer, and the exact ILP bench.

``--validate`` turns the sweep into a gate: every ``BENCH_*.json`` in
the output directory must parse against the harness schema and carry at
least one row — checked once *before* the sweep (a pre-existing corrupt
artifact fails fast, before minutes of benching) and once after
aggregation.  It is also the perf-regression guard: the guarded row
keys of every artifact present before the sweep are snapshotted, and
any fresh value outside its 2x budget fails the gate — latency keys
(``arena_s``, ``per_request_ms``) must not grow past 2x, throughput
keys (``requests_per_s``) must not shrink below half.  Any violation
exits 2.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--jobs N] [--out DIR]
                                                [--full] [--validate]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent

_INDEX_NAME = "BENCH_INDEX.json"


def _bench_commands(out_dir: Path, full: bool) -> list[tuple[str, list[str]]]:
    commands = [
        (
            "smoke_oracle",
            [
                sys.executable,
                str(_HERE / "smoke_oracle.py"),
                "--bench-dir",
                str(out_dir),
            ],
        ),
        (
            "smoke_arena",
            [
                sys.executable,
                str(_HERE / "smoke_arena.py"),
                "--out",
                str(out_dir),
            ],
        ),
    ]
    if full:
        commands.append(
            (
                "oracle_local_search",
                [
                    sys.executable,
                    "-m",
                    "pytest",
                    str(_HERE / "bench_oracle_local_search.py"),
                    "-q",
                    "--no-header",
                ],
            )
        )
        commands.append(
            (
                "session_batch",
                [
                    sys.executable,
                    str(_HERE / "bench_session_batch.py"),
                    "--out",
                    str(out_dir),
                ],
            )
        )
        commands.append(
            (
                "serve_throughput",
                [
                    sys.executable,
                    str(_HERE / "bench_serve_throughput.py"),
                    "--out",
                    str(out_dir),
                ],
            )
        )
        commands.append(
            (
                "serve_chaos",
                [
                    sys.executable,
                    str(_HERE / "bench_serve_chaos.py"),
                    "--out",
                    str(out_dir),
                ],
            )
        )
        commands.append(
            (
                "ilp_exact",
                [
                    sys.executable,
                    str(_HERE / "bench_ilp_exact.py"),
                    "--out",
                    str(out_dir),
                ],
            )
        )
    return commands


def _run_one(name: str, command: list[str]) -> dict:
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    start = time.perf_counter()
    proc = subprocess.run(
        command,
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    return {
        "bench": name,
        "returncode": proc.returncode,
        "seconds": time.perf_counter() - start,
        "stderr_tail": proc.stderr.strip().splitlines()[-3:],
    }


def _aggregate(out_dir: Path) -> list[dict]:
    from repro.bench import load_bench_json

    rows: list[dict] = []
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if path.name == _INDEX_NAME:
            continue
        try:
            document = load_bench_json(path)
        except (ValueError, OSError) as exc:
            rows.append({"artifact": path.name, "error": str(exc)})
            continue
        counters = document["counters"]
        rows.append(
            {
                "artifact": path.name,
                "bench": document["bench"],
                "workload": document["workload"],
                "rows": len(document["rows"]),
                "wall_seconds": round(document["wall_seconds"], 4),
                "oracle_hits": counters.get("oracle_hits", 0),
            }
        )
    return rows


#: Guarded perf keys where *lower* is better (latency-style).
_GUARDED_KEYS = ("arena_s", "per_request_ms")
#: Guarded perf keys where *higher* is better (throughput-style).
_GUARDED_KEYS_HIGHER = ("requests_per_s",)
_MAX_REGRESSION = 2.0


def _perf_snapshot(out_dir: Path) -> dict[str, dict[str, float]]:
    """Guarded perf values of every parseable ``BENCH_*.json`` in
    ``out_dir``: artifact name → {row-label.key: value}.

    Must be taken *before* the sweep — the default output directory is
    the repo root, so the sweep overwrites the committed baseline
    artifacts in place.
    """
    from repro.bench import load_bench_json

    snapshot: dict[str, dict[str, float]] = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if path.name == _INDEX_NAME:
            continue
        try:
            document = load_bench_json(path)
        except (ValueError, OSError):
            continue  # schema problems are _validate's to report
        entries: dict[str, float] = {}
        for position, row in enumerate(document["rows"]):
            if not isinstance(row, dict):
                continue
            label = str(
                row.get("seed", row.get("path", row.get("label", position)))
            )
            for key in _GUARDED_KEYS + _GUARDED_KEYS_HIGHER:
                value = row.get(key)
                if isinstance(value, (int, float)) and value > 0:
                    entries[f"{label}.{key}"] = float(value)
        if entries:
            snapshot[path.name] = entries
    return snapshot


def _perf_regressions(
    out_dir: Path, baseline: dict[str, dict[str, float]]
) -> list[str]:
    """Compare the fresh artifacts against a pre-sweep snapshot; one
    message per guarded value that regressed beyond the 2x budget.
    Latency-style keys fail when they grow; throughput-style keys
    (``_GUARDED_KEYS_HIGHER``) fail when they shrink."""
    fresh = _perf_snapshot(out_dir)
    problems: list[str] = []
    for name, base_entries in baseline.items():
        fresh_entries = fresh.get(name, {})
        for entry, base_value in base_entries.items():
            new_value = fresh_entries.get(entry)
            if new_value is None:
                continue  # row/key gone; the schema gate covers emptiness
            higher_is_better = entry.endswith(_GUARDED_KEYS_HIGHER)
            if higher_is_better:
                regressed = new_value * _MAX_REGRESSION < base_value
                ratio = base_value / new_value if new_value else float("inf")
            else:
                regressed = new_value > _MAX_REGRESSION * base_value
                ratio = new_value / base_value if base_value else float("inf")
            if regressed:
                problems.append(
                    f"{name}: {entry} regressed {ratio:.1f}x "
                    f"({base_value:g} -> {new_value:g}, "
                    f"budget {_MAX_REGRESSION:g}x)"
                )
    return problems


def _validate(out_dir: Path) -> list[str]:
    """Schema-check every ``BENCH_*.json`` artifact; one message per
    violation (empty list = all valid)."""
    from repro.bench import load_bench_json

    problems: list[str] = []
    for path in sorted(out_dir.glob("BENCH_*.json")):
        if path.name == _INDEX_NAME:
            continue
        try:
            document = load_bench_json(path)
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        rows = document["rows"]
        if not isinstance(rows, list) or not rows:
            problems.append(f"{path.name}: schema-valid but has no rows")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="concurrent bench subprocesses (default: min(benches, CPUs))",
    )
    parser.add_argument(
        "--out", default=str(_ROOT), help="artifact directory (default: repo root)"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also run the pytest acceptance bench (slower)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help=(
            "fail (exit 2) unless every BENCH_*.json artifact parses "
            "against the harness schema and has rows — checked before "
            "the sweep (fail fast on stale corruption) and after it"
        ),
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    baseline: dict[str, dict[str, float]] = {}
    if args.validate:
        stale = _validate(out_dir)
        if stale:
            for problem in stale:
                print(f"[invalid artifact] {problem}")
            print("pre-existing artifacts failed validation; not sweeping")
            return 2
        baseline = _perf_snapshot(out_dir)

    commands = _bench_commands(out_dir, args.full)
    jobs = args.jobs
    if jobs is None:
        jobs = min(len(commands), os.cpu_count() or 1)
    jobs = max(1, jobs)

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        outcomes = list(
            pool.map(lambda pair: _run_one(*pair), commands)
        )
    wall = time.perf_counter() - start

    failed = [o for o in outcomes if o["returncode"] != 0]
    for outcome in outcomes:
        status = "ok" if outcome["returncode"] == 0 else "FAILED"
        print(
            f"[{status}] {outcome['bench']} "
            f"({outcome['seconds']:.1f}s)"
        )
        if outcome["returncode"] != 0:
            for line in outcome["stderr_tail"]:
                print(f"    {line}")

    from repro.bench import write_bench_json
    from repro.bench.reporting import format_table

    rows = _aggregate(out_dir)
    if rows:
        print()
        print(format_table(rows, title="BENCH_*.json artifacts"))
    index_path = write_bench_json(
        bench="INDEX",
        workload=f"aggregate of {len(rows)} artifacts",
        rows=rows,
        wall_seconds=wall,
        directory=out_dir,
    )
    print(f"\nwrote {index_path}")

    if args.validate:
        invalid = _validate(out_dir)
        for problem in invalid:
            print(f"[invalid artifact] {problem}")
        regressions = _perf_regressions(out_dir, baseline)
        for problem in regressions:
            print(f"[perf regression] {problem}")
        if invalid or regressions:
            return 2

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
