"""End-to-end serve benchmark: real ``repro serve`` processes, two
workloads, every metric printed by name and unit, answers checked.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --seed 0                  # all workloads
    python3 benchmarks/e2e/run.py --workload chain-serial --seed 3 \\
        --seconds 35 --trace 0 --out result.json
    python3 benchmarks/e2e/run.py --seed 0 --trace          # per-layer run
    python3 benchmarks/e2e/run.py --seed 0 --smoke          # self-test size

Each workload starts ``python -m repro.cli serve --unix <sock> --jobs 2``
as its own process in a fresh run directory under ``.e2e_runs/``, runs
one discarded warm-up pass and then one-second measured passes for
``--seconds`` over two closed-loop load connections.  Set-up (spawn to
listening plus registration) is timed on that server and on seven more,
started and stopped between the passes.  The time metrics come from the
slowest quarter of the passes and of the set-ups (see
:func:`kept_passes`).
A run fails if its server leaves anything new in ``/dev/shm``.  Every
tenth request's served ``deleted_facts`` must equal a local
``repro.core.registry.solve(problem.with_deletions(r))`` computed after
the timed window; a mismatch counts as a failed request.

``--trace`` runs an untraced and a traced server for half the time each
and reports the per-layer metrics instead (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every earlier
line is for people.  ``--out FILE`` also writes the full result
(sample counts, extra metrics, per-layer detail) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``name → (unit, better)`` of the end-to-end metrics of every workload.
END_TO_END: dict[str, tuple[str, str]] = {
    "req_per_s": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "rss_mb": ("MB", "lower"),
    "cpu_ms_per_req": ("ms", "lower"),
}

#: Length of one measured pass.  A shared 2-vCPU host switches between
#: a contended speed and one up to 1.8x faster every few seconds to a
#: minute; one-second passes resolve those episodes.
PASS_SECONDS = 1.0
#: Share of the passes, the slowest by answered requests per second,
#: that the time metrics come from.
KEPT_SHARE = 0.25
#: Set-ups timed per run: the measured server's, and the others spread
#: evenly over the measured passes, so that they sample the host's speed
#: across the whole run rather than its first seconds.
SETUPS = 8
WARMUP_SECONDS = 2.0
#: Measured seconds per workload when ``--seconds`` is not given; the
#: same as ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 35.0


@dataclass
class Pass:
    wall_s: float
    samples: list
    cpu_s: float  #: server plus reaped pool workers, during the pass


@dataclass
class Phase:
    """One server's measured run."""

    setup_s: list[float]
    passes: list[Pass]
    rss_mb: float
    stats: dict
    window: tuple[int, int]
    spans_dir: Path | None

    @property
    def samples(self) -> list:
        return [sample for p in self.passes for sample in p.samples]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (``q`` in 0..100)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def set_up(workdir, instances, spans_dir=None):
    """Start a server and register ``instances`` on it: ``(server,
    instance ids, seconds from spawn to the last registration answer)``."""
    from harness import BenchError, ServerProcess

    start = time.perf_counter()
    server = ServerProcess(workdir, spans_dir=spans_dir)
    try:
        server.wait_listening()
        instance_ids = []
        with server.connect() as conn:
            for inst in instances:
                response = conn.call({"op": "register", "problem": inst.doc})
                if not response.get("ok"):
                    raise BenchError(f"registration failed: {response}")
                instance_ids.append(response["instance"])
    except BaseException:
        server.stop(timeout=10.0)
        raise
    return server, instance_ids, time.perf_counter() - start


def timed_set_up(workdir, instances) -> float:
    """Seconds one set-up takes; the server is stopped again."""
    server, _, seconds = set_up(workdir, instances)
    server.stop()
    return seconds


def run_phase(workload, instances, seconds, setups, warmup, workdir,
              traced=False) -> Phase:
    from harness import BenchError, RequestIds, shm_entries

    before = shm_entries()
    spans_dir = workdir / "spans" if traced else None
    server, instance_ids, elapsed = set_up(workdir / "server", instances,
                                           spans_dir)
    setup_s = [elapsed]
    try:
        conns = [server.connect() for _ in range(2)]
        try:
            run_pass = workload.load(conns, instance_ids, instances,
                                     RequestIds())
            run_pass(warmup)
            passes = []
            count = max(1, round(seconds / PASS_SECONDS))
            # The other set-ups run between passes, while the load waits.
            setup_before = [round(k * count / setups)
                            for k in range(1, setups)]
            window_start = time.perf_counter_ns()
            for index in range(count):
                for _ in range(setup_before.count(index)):
                    setup_s.append(timed_set_up(
                        workdir / f"server-{len(setup_s)}", instances))
                cpu_start = server.cpu_seconds()
                wall, samples = run_pass(PASS_SECONDS)
                passes.append(
                    Pass(wall, samples, server.cpu_seconds() - cpu_start))
            window = (window_start, time.perf_counter_ns())
            stats = conns[0].call({"op": "stats"})["stats"]
            rss_mb = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
    finally:
        server.stop()
    leaked = shm_entries() - before
    if leaked:
        raise BenchError(f"shared-memory segments left behind: {leaked}")
    return Phase(setup_s, passes, rss_mb, stats, window, spans_dir)


def check_answers(instances, samples) -> tuple[int, int]:
    """Re-solve every sampled request locally; ``(checked, mismatched)``."""
    from repro.core.registry import solve

    instances = {inst.key: inst for inst in instances}
    expected: dict[tuple, str] = {}
    checked = mismatched = 0
    for sample in samples:
        if sample.check is None:
            continue
        key, request, served = sample.check
        cache_key = (key, json.dumps(request, sort_keys=True))
        if cache_key not in expected:
            local = solve(instances[key].problem.with_deletions(request))
            expected[cache_key] = json.dumps([
                [fact.relation, list(fact.values)]
                for fact in sorted(local.deleted_facts)
            ])
        checked += 1
        mismatched += json.dumps(served) != expected[cache_key]
    return checked, mismatched


def _completed(samples) -> int:
    return sum(not s.failed for s in samples)


def _latency_ms(samples) -> list[float]:
    """Latencies of the answered requests."""
    return [s.latency_ns / 1e6 for s in samples if not s.failed]


def _rate(p: Pass) -> float:
    return _completed(p.samples) / p.wall_s


def kept_passes(passes: list[Pass]) -> list[Pass]:
    """The slowest :data:`KEPT_SHARE` of ``passes`` by answered requests
    per second.

    A shared host runs a varying part of each run at a faster speed, so
    a mean or median over all passes moves with that part.  The
    contended speed is its floor and holds for at least a quarter of
    nearly every run, so the slowest quarter reads the program at that
    speed.  A change that makes every request slower slows these passes
    too, and one that stalls some passes lands in them.
    """
    ranked = sorted(passes, key=_rate)
    return ranked[:max(1, round(KEPT_SHARE * len(passes)))]


def kept_setups(setup_s: list[float]) -> list[float]:
    """The slowest :data:`KEPT_SHARE` of the set-up times, for the reason
    :func:`kept_passes` gives."""
    ranked = sorted(setup_s, reverse=True)
    return ranked[:max(1, round(KEPT_SHARE * len(setup_s)))]


def end_to_end(workload, phase: Phase) -> tuple[dict, dict]:
    """``(metrics, extras)``, each ``name → (value, unit, n)``.

    Throughput, latency percentiles and CPU per request pool the kept
    passes, and set-up time averages the kept set-ups; the error rate
    and the all-pass extras count every pass and set-up.
    """
    kept = kept_passes(phase.passes)
    samples = [sample for p in kept for sample in p.samples]
    latency = _latency_ms(samples)
    completed = _completed(samples)
    metrics = {
        "req_per_s": (completed / sum(p.wall_s for p in kept), completed),
        "p50_ms": (percentile(latency, 50), len(latency)),
        "tail_ms": (percentile(latency, workload.tail), len(latency)),
        "setup_s": (statistics.fmean(kept_setups(phase.setup_s)),
                    len(phase.setup_s)),
        "rss_mb": (phase.rss_mb, 1),
        "cpu_ms_per_req": (
            1e3 * sum(p.cpu_s for p in kept) / max(completed, 1), completed),
    }
    metrics = {name: (value, END_TO_END[name][0], n)
               for name, (value, n) in metrics.items()}
    extras = {
        f"p{q}_ms": (percentile(latency, q), "ms", len(latency))
        for q in (50, 90, 95, 99)
    }
    every = phase.samples
    answered = _completed(every)
    extras["req_per_s_all_passes"] = (
        answered / sum(p.wall_s for p in phase.passes), "1/s", answered)
    extras["setup_s_median"] = (
        statistics.median(phase.setup_s), "s", len(phase.setup_s))
    failed = len(every) - answered
    extras["error_rate"] = (failed / len(every), "ratio", len(every))
    return metrics, extras


def _entry(value, unit, n) -> dict:
    return {"value": value, "unit": unit, "n": n}


def run_workload(name, seed, seconds, trace, smoke, workdir) -> dict:
    from layers import analyze, load_spans
    from scenarios import WORKLOADS

    workload = WORKLOADS[name]
    instances = workload.inputs(seed)
    setups = 1 if smoke or trace else SETUPS
    warmup = min(WARMUP_SECONDS, seconds / 5)
    if not trace:
        phases = [run_phase(workload, instances, seconds, setups, warmup,
                            workdir / "plain")]
    else:
        phases = [
            run_phase(workload, instances, seconds / 2, setups, warmup,
                      workdir / "plain"),
            run_phase(workload, instances, seconds / 2, setups, warmup,
                      workdir / "traced", traced=True),
        ]
    samples = [s for phase in phases for s in phase.samples]
    checked, mismatched = check_answers(instances, samples)
    attempted = len(samples)
    failed = attempted - _completed(samples) + mismatched
    metrics, extras = end_to_end(workload, phases[-1])
    result = {
        "workload": name,
        "tail_percentile": workload.tail,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "mismatched": mismatched,
        "correct": mismatched == 0 and checked > 0,
        "metrics": {k: _entry(*v) for k, v in metrics.items()},
        "extras": {k: _entry(*v) for k, v in extras.items()},
    }
    if trace:
        untraced, _ = end_to_end(workload, phases[0])
        _, details = analyze(
            load_spans(phases[1].spans_dir), phases[1].samples,
            phases[1].window, phases[1].stats,
            traced_p50_ms=metrics["p50_ms"][0],
            untraced_p50_ms=untraced["p50_ms"][0],
        )
        result["layers"] = {k: _entry(*v) for k, v in details.items()}
        result["untraced"] = {k: _entry(*v) for k, v in untraced.items()}
    return result


def print_result(result: dict) -> None:
    from layers import layer_of

    name = result["workload"]
    print(f"== {name}: attempted {result['attempted']}, failed "
          f"{result['failed']}, answers checked {result['checked']} "
          f"(mismatched {result['mismatched']})")
    tail = f"p{result['tail_percentile']}"
    for group in ("metrics", "extras"):
        for metric, entry in result[group].items():
            note = f" ({tail})" if metric == "tail_ms" else ""
            print(f"  {metric:<24} {entry['value']:>12.4f} "
                  f"{entry['unit']:<6} n={entry['n']}{note}")
    if "layers" in result:
        print(f"  {'per-layer metric':<34} {'value':>12} unit   n     layer")
        for metric, entry in result["layers"].items():
            print(f"  {metric:<34} {entry['value']:>12.4f} "
                  f"{entry['unit']:<6} {entry['n']:<5} {layer_of(metric)}")


def final_line(results: list[dict], trace: bool) -> dict:
    """The machine-readable summary the last output line carries."""
    from layers import PER_LAYER

    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for result in results:
        source = result["layers"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}:"
        for metric in names:
            entry = source[metric]
            metrics[prefix + metric] = {"value": entry["value"],
                                        "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default "
                        f"{DEFAULT_SECONDS:g}; 2 with --smoke)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for the self-test")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result as JSON here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    out = args.out.resolve() if args.out else None
    # Terminate like an interrupt, so every started server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # The bench's own local solves must not record into a trace store
    # outside the checkout; servers get a per-run store instead.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TRACE"] = "off"

    from harness import RUNS_DIR, BenchError
    from scenarios import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds or (2.0 if args.smoke else DEFAULT_SECONDS)
    trace = args.trace == "1"
    run_dir = RUNS_DIR / f"{os.getpid()}"
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, trace,
                                  args.smoke, run_dir / name)
            print_result(result)
            sys.stdout.flush()
            results.append(result)
    except (BenchError, OSError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    if out is not None:
        out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "trace": trace,
             "smoke": args.smoke,
             "workloads": {r["workload"]: r for r in results}},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps(final_line(results, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
