"""Self-test of the end-to-end bench: ``PYTHONPATH=src pytest benchmarks/e2e``.

Runs every workload at smoke size, untraced and traced (about a minute
on a 2-core machine), and checks the output format: every metric named
with its unit, no errors, every sampled answer equal to its local
solve, every per-layer metric present, and BENCHMARK.json in step with
the code.  It also checks that one seed always gives the same inputs and
that another seed changes the data but not the query shape.  The verdict
logic of ``compare.py`` is checked on synthetic
runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from layers import PER_LAYER
from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["chain-serial", "forest-serial"]


def _run(tmp_path: Path, *extra: str) -> tuple[dict, dict]:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--smoke",
         "--out", str(out), *extra],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads(out.read_text()), last


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("smoke"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), "--trace")


def test_every_end_to_end_metric_has_its_unit(smoke):
    result, last = smoke
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for workload in WORKLOADS:
        metrics = result["workloads"][workload]["metrics"]
        assert set(metrics) == set(END_TO_END)
        for name, (unit, _) in END_TO_END.items():
            assert metrics[name]["unit"] == unit
            assert metrics[name]["value"] > 0, (workload, name)
            assert last["metrics"][f"{workload}:{name}"]["unit"] == unit


def test_no_errors_and_served_answers_match_local(smoke):
    result, last = smoke
    assert last["correct"] and last["failed"] == 0
    for workload in WORKLOADS:
        entry = result["workloads"][workload]
        assert entry["extras"]["error_rate"]["value"] == 0
        assert entry["checked"] > 0 and entry["mismatched"] == 0


def test_traced_run_reports_every_layer_metric(traced):
    result, last = traced
    assert last["correct"] and last["failed"] == 0
    for workload in WORKLOADS:
        layers = result["workloads"][workload]["layers"]
        for name, (unit, _) in PER_LAYER.items():
            assert layers[name]["unit"] == unit, (workload, name)
            assert f"{workload}:{name}" in last["metrics"]
        # Two clients never fill a batch up to the pool threshold.
        assert layers["portfolio.pool_starts_per_batch"]["value"] == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_seed_draws_the_data_but_not_the_query_shape():
    from scenarios import chain_instance, forest_instances

    first, again = forest_instances(1, 2), forest_instances(1, 2)
    assert [i.doc for i in first] == [i.doc for i in again]
    assert first[0].doc != first[1].doc
    other = forest_instances(2, 1)[0]
    assert other.doc != first[0].doc
    assert other.doc["queries"] == first[0].doc["queries"]
    chains = [chain_instance(seed, 50) for seed in (1, 2)]
    assert chains[0].doc != chains[1].doc
    assert chains[0].doc["queries"] == chains[1].doc["queries"]


def test_kept_passes_and_setups_are_the_slowest_quarter():
    from harness import Sample
    from run import Pass, kept_passes, kept_setups

    answered = [5, 9, 7, 3, 8, 6, 4, 2]
    passes = [Pass(1.0, [Sample(0, 1, 0, 0, False)] * n, 0.1)
              for n in answered]
    assert [len(p.samples) for p in kept_passes(passes)] == [2, 3]
    assert len(kept_passes(passes[:2])) == 1
    assert kept_setups([1.0, 1.3, 0.9, 1.2, 1.0, 1.1, 0.9, 1.0]) == [1.3, 1.2]
    assert kept_setups([1.0]) == [1.0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "chain-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _runs(values: list[float]) -> list[dict]:
    return [{"w": {"metrics": {"p50_ms": {"value": v}}}} for v in values]


@pytest.mark.parametrize("change, expected", [
    ([100.0, 101.0, 99.0, 100.5, 99.5] * 2, "unchanged"),
    ([120.0, 121.0, 119.0, 120.5, 119.5] * 2, "regressed"),
    ([80.0, 81.0, 79.0, 80.5, 79.5] * 2, "improved"),
])
def test_compare_verdicts(change, expected):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    bounds = {"p50_ms": ("lower", 0.1)}
    [row] = compare.compare(_runs(parent), _runs(change), bounds)
    assert row["verdict"] == expected


def test_compare_wide_parent_spread_is_unresolved():
    parent = [60.0, 140.0, 80.0, 120.0, 100.0] * 2
    change = [130.0, 70.0, 110.0, 90.0, 150.0] * 2
    [row] = compare.compare(_runs(parent), _runs(change),
                            {"p50_ms": ("lower", 0.1)})
    assert row["verdict"] == "unresolved"
