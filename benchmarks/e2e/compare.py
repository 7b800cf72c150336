"""Compare end-to-end results of a parent and a change commit.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...
    python3 benchmarks/e2e/compare.py --spread R1.json R2.json ... [--json]

Every file is a ``run.py --out`` result.  ``--parent`` and ``--change``
files pair up by position: run them alternately (parent first in odd
pairs, change first in even pairs) with identical settings, at least
ten pairs.  For each (workload, end-to-end metric) row the report gives
each side's median and quartiles, the change's win share over the pairs
(ties count for neither side) and a verdict:

``improved``
    at least ten pairs, the change wins at least 90% of them, and the
    medians differ by more than the parent's quartile spread;
``unresolved``
    the parent's own quartile spread, as a share of its median, is wider
    than the metric's bound, and not every change run beats every parent
    run;
``regressed``
    the change's median is worse than the parent's by more than the
    bound;
``unchanged``
    otherwise.

Bounds and directions come from ``BENCHMARK.json``.  The exit status is
1 when any row regressed.  ``--spread`` instead reports, for runs of one
commit, each row's median and quartile spread against its bound — the
calibration check that the bounds hold the benchmark's own noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """``metric → (better, bound)`` of the end-to-end metrics."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_runs(paths) -> list[dict]:
    return [json.loads(Path(path).read_text())["workloads"] for path in paths]


def rows(runs: list[dict], section: str = "metrics"):
    """``(workload, metric) → [value per run that has the row]``, in
    file order."""
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for workload, result in run.items():
            for metric, entry in result.get(section, {}).items():
                table.setdefault((workload, metric), []).append(entry["value"])
    return table


def paired(parent_runs, change_runs, section: str = "metrics"):
    """The rows both sides have with the same number of runs; the i-th
    parent run of a row pairs with its i-th change run."""
    parent, change = rows(parent_runs, section), rows(change_runs, section)
    return {
        key: (parent[key], change[key])
        for key in sorted(parent.keys() & change.keys())
        if len(parent[key]) == len(change[key])
    }


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent, change, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, win share)`` for one row; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    parent_q1, _, parent_q3 = quartiles(parent)
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if (len(parent) >= MIN_PAIRS and share >= WIN_SHARE
            and gain > parent_q3 - parent_q1):
        return "improved", share
    if spread(parent) > bound and not all_better:
        return "unresolved", share
    if -gain > bound * abs(base):
        return "regressed", share
    return "unchanged", share


def compare(parent_runs, change_runs, bounds) -> list[dict]:
    report = []
    for (workload, metric), (parent, change) in paired(
            parent_runs, change_runs).items():
        if metric not in bounds:
            continue
        better, bound = bounds[metric]
        outcome, share = verdict(parent, change, better, bound)
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        report.append({
            "workload": workload, "metric": metric, "better": better,
            "bound": bound, "pairs": len(parent),
            "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
            "delta": (c_med - p_med) / abs(p_med) if p_med else 0.0,
            "win_share": share, "verdict": outcome,
        })
    return report


def layer_deltas(parent_runs, change_runs) -> list[tuple]:
    """Per-layer medians of both sides (no bounds, no verdict): where a
    saving shows up."""
    return [
        (workload, metric, statistics.median(parent),
         statistics.median(change))
        for (workload, metric), (parent, change) in paired(
            parent_runs, change_runs, "layers").items()
    ]


def spread_report(runs, bounds) -> list[dict]:
    report = []
    for (workload, metric), values in sorted(rows(runs).items()):
        if metric not in bounds:
            continue
        report.append({
            "workload": workload, "metric": metric,
            "median": statistics.median(values),
            "spread": spread(values), "bound": bounds[metric][1],
            "runs": len(values),
        })
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--spread", nargs="+", default=[],
                        help="runs of one commit: report noise vs bounds")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    args = parser.parse_args(argv)
    bounds = load_bounds()

    if args.spread:
        report = spread_report(load_runs(args.spread), bounds)
        if args.json:
            print(json.dumps(report, indent=1))
            return 0
        for row in report:
            flag = "ok" if row["spread"] <= row["bound"] else "WIDER THAN BOUND"
            print(f"{row['workload']:<13} {row['metric']:<15} median "
                  f"{row['median']:12.4f}  spread {100 * row['spread']:6.2f}%"
                  f"  bound {100 * row['bound']:5.1f}%  {flag}")
        return 0

    if not args.parent or len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    report = compare(parent_runs, change_runs, bounds)
    fewest = min((row["pairs"] for row in report), default=0)
    if fewest < MIN_PAIRS:
        print(f"note: {fewest} pairs on some rows; a gain needs at least "
              f"{MIN_PAIRS}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(f"{'workload':<13} {'metric':<15} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'delta':>8} {'wins':>5}  verdict")
        for row in report:
            sides = [" / ".join(f"{v:.4g}" for v in row[side])
                     for side in ("parent", "change")]
            print(f"{row['workload']:<13} {row['metric']:<15} {sides[0]:>30} "
                  f"{sides[1]:>30} {100 * row['delta']:+7.2f}% "
                  f"{100 * row['win_share']:4.0f}%  {row['verdict']}")
        layers = layer_deltas(parent_runs, change_runs)
        if layers:
            print(f"\n{'workload':<13} {'per-layer metric':<34} "
                  f"{'parent':>12} {'change':>12}")
            for workload, metric, before, after in layers:
                print(f"{workload:<13} {metric:<34} {before:12.4f} "
                      f"{after:12.4f}")
    return 1 if any(row["verdict"] == "regressed" for row in report) else 0


if __name__ == "__main__":
    sys.exit(main())
