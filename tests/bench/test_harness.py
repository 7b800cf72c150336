"""Tests for the bench harness utilities and markdown rendering."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import (
    ExperimentResult,
    geometric_mean,
    load_bench_json,
    positive_int,
    timed,
    write_bench_json,
)
from repro.bench.markdown import render_markdown
from repro.core import OracleCounters


class TestHarness:
    def test_timed_returns_result_and_duration(self):
        result, seconds = timed(sum, [1, 2, 3])
        assert result == 6
        assert seconds >= 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 1.0
        assert geometric_mean([2.0, 0.0]) == pytest.approx(2.0)  # zeros skipped

    def test_experiment_result_rows_and_finish(self):
        result = ExperimentResult("EX", "title", "claim")
        result.add_row(a=1, b="x")
        finished = result.finish(True, "done")
        assert finished is result
        assert result.rows == [{"a": 1, "b": "x"}]
        assert result.passed and result.conclusion == "done"


class TestBenchJson:
    def test_round_trip(self, tmp_path):
        path = write_bench_json(
            bench="demo",
            workload="tiny workload",
            rows=[{"seed": 7, "speedup": 5.5}],
            wall_seconds=1.25,
            counters={"oracle_hits": 3},
            directory=tmp_path,
        )
        assert path == tmp_path / "BENCH_demo.json"
        document = load_bench_json(path)
        assert document == {
            "bench": "demo",
            "workload": "tiny workload",
            "rows": [{"seed": 7, "speedup": 5.5}],
            "wall_seconds": 1.25,
            "counters": {"oracle_hits": 3},
        }

    def test_counters_accepts_oracle_counters_and_none(self, tmp_path):
        counters = OracleCounters(oracle_hits=9, delta_evaluations=2)
        path = write_bench_json(
            bench="with_counters",
            workload="w",
            rows=[],
            wall_seconds=0.0,
            counters=counters,
            directory=tmp_path,
        )
        assert load_bench_json(path)["counters"] == counters.as_dict()
        bare = write_bench_json(
            bench="no_counters",
            workload="w",
            rows=[],
            wall_seconds=0.0,
            directory=tmp_path,
        )
        assert load_bench_json(bare)["counters"] == {}

    def test_creates_missing_directory(self, tmp_path):
        path = write_bench_json(
            bench="nested",
            workload="w",
            rows=[],
            wall_seconds=0.0,
            directory=tmp_path / "a" / "b",
        )
        assert load_bench_json(path)["bench"] == "nested"

    def test_positive_int(self):
        assert positive_int("3") == 3
        for text in ("0", "-2", "x", "1.5"):
            with pytest.raises(argparse.ArgumentTypeError):
                positive_int(text)

    @pytest.mark.parametrize(
        "script",
        [
            "bench_serve_throughput.py",
            "bench_session_batch.py",
            "smoke_oracle.py",
            "smoke_arena.py",
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bench_rejects_degenerate_size(self, script, value):
        root = Path(__file__).resolve().parents[2]
        done = subprocess.run(
            [
                sys.executable,
                str(root / "benchmarks" / script),
                "--facts-per-relation",
                value,
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            timeout=120,
        )
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "expected a positive integer" in done.stderr

    def test_chaos_bench_rejects_zero_facts_in_process(self, capsys):
        import importlib.util

        root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "bench_serve_chaos", root / "benchmarks" / "bench_serve_chaos.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for flag in ("--facts-per-relation", "--clients", "--per-client",
                     "--repeats"):
            with pytest.raises(SystemExit) as excinfo:
                module.main([flag, "0"])
            assert excinfo.value.code == 2, flag
            assert "expected a positive integer" in capsys.readouterr().err

    def test_load_rejects_non_artifact(self, tmp_path):
        path = tmp_path / "BENCH_bogus.json"
        path.write_text(json.dumps({"bench": "bogus", "rows": []}))
        with pytest.raises(ValueError, match="missing keys"):
            load_bench_json(path)


class TestMarkdown:
    def test_render_includes_summary_and_sections(self):
        results = [
            ExperimentResult("E1", "first", "claim one").finish(True, "ok"),
            ExperimentResult("E2", "second", "claim two").finish(False, "bad"),
        ]
        results[0].add_row(metric=1.5)
        text = render_markdown(results)
        assert "## Summary" in text
        assert "| E1 | first | PASS |" in text
        assert "| E2 | second | FAIL |" in text
        assert "## E1 — first" in text
        assert "**Verdict:** FAIL — bad" in text
        assert "| 1.5 |" in text

    def test_render_handles_empty_rows(self):
        results = [ExperimentResult("E0", "t", "c").finish(True, "ok")]
        assert "(no rows)" in render_markdown(results)


class TestE2ETraceHooks:
    def test_traced_server_install_finds_every_hook(self):
        # benchmarks/e2e/traced_server.py wraps program functions by
        # module attribute; a renamed or removed target must fail here,
        # not only in the minute-long e2e self-test.
        root = Path(__file__).resolve().parents[2]
        script = root / "benchmarks" / "e2e" / "traced_server.py"
        code = (
            "import importlib.util\n"
            "spec = importlib.util.spec_from_file_location("
            f"'traced_server', {str(script)!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "module.install()\n"
            "from repro.core import portfolio\n"
            "assert portfolio.ProcessPoolExecutor.__name__ == 'TracedPool'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
