"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import dump_problem
from repro.workloads import figure1_problem, figure1_problem_q4


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "fig1.json"
    dump_problem(figure1_problem(), str(path))
    return str(path)


@pytest.fixture
def forest_duel_file(tmp_path):
    """A star instance whose forest duel Algorithm 1's dual certifies."""
    import random

    from repro.workloads import random_star_problem

    path = tmp_path / "star.json"
    problem = random_star_problem(
        random.Random(107),
        num_queries=3,
        max_leaves_per_query=3,
        delta_fraction=0.4,
    )
    dump_problem(problem, str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self, problem_file):
        args = build_parser().parse_args(["solve", problem_file])
        assert args.method == "auto"
        assert args.json is False

    def test_unknown_method_rejected(self, problem_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", problem_file, "--method", "bogus"]
            )


    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-pending", "0"],
            ["--max-pending", "-1"],
            ["--jobs", "-1"],
            ["--jobs", "two"],
        ],
    )
    def test_serve_rejects_degenerate_counts(self, argv, capsys):
        # A server with no queue room rejects every solve as retryable
        # overload; it must not start at all.  (Parsing only: a parser
        # that let the value through would start a server that never
        # returns.)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "integer" in err and "Traceback" not in err

    def test_serve_accepts_boundary_counts(self):
        args = build_parser().parse_args(
            ["serve", "--max-pending", "1", "--jobs", "0"]
        )
        assert (args.max_pending, args.jobs) == (1, 0)


class TestSolveCommand:
    def test_solve_text_output(self, problem_file, capsys):
        code = main(["solve", problem_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "side-effect 1" in out
        assert "delete" in out

    def test_solve_json_output(self, problem_file, capsys):
        code = main(["solve", problem_file, "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["feasible"] is True
        assert document["side_effect"] == 1.0

    def test_solve_trace_says_why_the_duel_ran_one_candidate(
        self, forest_duel_file, capsys
    ):
        assert main(["solve", "--trace", forest_duel_file]) == 0
        out = capsys.readouterr().out
        assert "route forest-duel" in out
        assert "(certified: side effect 1 <= ceil(dual 0.5) = 1)" in out
        assert main(["solve", "--trace", "--json", forest_duel_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["trace"]) == 1
        assert "certified" not in json.dumps(doc)

    def test_solve_with_named_method(self, tmp_path, capsys):
        path = tmp_path / "q4.json"
        dump_problem(figure1_problem_q4(), str(path))
        code = main(["solve", str(path), "--method", "exact"])
        assert code == 0


class TestOtherCommands:
    def test_classify(self, problem_file, capsys):
        assert main(["classify", problem_file]) == 0
        out = capsys.readouterr().out
        assert "key_preserving: False" in out
        assert "NP-complete" in out

    def test_repairs(self, problem_file, capsys):
        assert main(["repairs", problem_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "#2" in out

    def test_render(self, problem_file, capsys):
        assert main(["render", problem_file]) == 0
        out = capsys.readouterr().out
        assert "T1(" in out and "ΔV" in out

    def test_stats(self, problem_file, capsys):
        assert main(["stats", problem_file]) == 0
        out = capsys.readouterr().out
        assert "‖V‖" in out and "view sizes" in out

    def test_sql_script_is_executable(self, problem_file, capsys):
        import sqlite3

        assert main(["sql", problem_file]) == 0
        script = capsys.readouterr().out
        connection = sqlite3.connect(":memory:")
        rows = []
        for statement in script.split(";\n"):
            statement = statement.strip()
            if not statement or statement.startswith("--"):
                # strip leading comments attached to SELECTs
                statement = "\n".join(
                    line
                    for line in statement.splitlines()
                    if not line.startswith("--")
                )
                if not statement.strip():
                    continue
            cursor = connection.execute(statement)
            if statement.lstrip().upper().startswith("SELECT"):
                rows = cursor.fetchall()
        assert ("John", "XML") in {tuple(r) for r in rows}

    def test_insert_feasible(self, tmp_path, capsys):
        path = tmp_path / "q4.json"
        dump_problem(figure1_problem_q4(), str(path))
        code = main(["insert", str(path), "Q4", "Ada", "TODS", "XML"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible" in out
        assert "+ T1('Ada', 'TODS')" in out

    def test_insert_into_non_key_preserving_view_fails(
        self, problem_file, capsys
    ):
        from repro.errors import ViewError
        import pytest as _pytest

        with _pytest.raises(ViewError):
            main(["insert", problem_file, "Q3", "Ada", "XML"])

    def test_example_to_stdout(self, capsys):
        assert main(["example", "fig1"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "T1" in document["schema"]

    def test_example_to_file_then_solve(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        assert main(["example", "chain", "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["solve", str(path)]) == 0


def _run_cli(*argv):
    """Run ``python -m repro.cli`` in a subprocess (the real entry point,
    where typed errors become one stderr line)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, REPRO_TRACE="off")
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--method", "lp-rounding"], "NotKeyPreservingError"),
            (["--method", "randomized-rounding"], "NotKeyPreservingError"),
            (["--method", "primal-dual"], "NotKeyPreservingError"),
            (["--method", "exact-ilp"], "SolverError"),
            (["--deadline", "0.000001"], "DeadlineExceededError"),
            (["--portfolio", "--methods", ",,"], "SolverError"),
        ],
    )
    def test_typed_error_is_one_stderr_line(self, problem_file, argv, error):
        result = _run_cli("solve", *argv, problem_file)
        assert result.returncode == 1
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith(f"error: {error}: ")

    def test_randomized_rounding_names_itself(self, problem_file):
        result = _run_cli("solve", "--method", "randomized-rounding", problem_file)
        assert "randomized rounding requires" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["--deadline", "0"],
            ["--deadline", "-1"],
            ["--deadline", "nan"],
            ["--retries", "-1"],
            ["--portfolio", "--jobs", "-3"],
        ],
    )
    def test_degenerate_solve_flags_are_usage_errors(self, problem_file, argv):
        result = _run_cli("solve", *argv, problem_file)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"argument {argv[-2]}" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["client", "ping", "--deadline", "0"],
            ["client", "ping", "--deadline", "nan"],
            ["client", "ping", "--deadline", "inf"],
            ["client", "ping", "--retries", "-1"],
            ["client", "ping", "--retry-overloaded", "-1"],
            ["client", "ping", "--backoff-seconds", "-0.5"],
            ["client", "ping", "--backoff-seconds", "nan"],
            ["serve", "--drain-seconds", "inf"],
            ["serve", "--jobs", "-1"],
        ],
    )
    def test_degenerate_client_and_serve_flags_are_usage_errors(self, argv):
        result = _run_cli(*argv)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"argument {argv[-2]}" in result.stderr

    def test_serve_pool_threshold_flag_is_gone(self):
        result = _run_cli("serve", "--pool-threshold", "4")
        assert result.returncode == 2
        assert "unrecognized arguments: --pool-threshold" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{problem}", "--router", "static"],
            ["route", "explain", "{problem}", "--router", "learned"],
            ["fuzz", "--iterations", "0", "--router", "static"],
        ],
    )
    def test_router_flag_is_gone(self, problem_file, argv):
        result = _run_cli(
            *(problem_file if arg == "{problem}" else arg for arg in argv)
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --router" in result.stderr

    def test_route_explain_names_the_route(self, forest_duel_file):
        result = _run_cli("route", "explain", forest_duel_file)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[0] == "route: forest-duel"
        assert any(line.startswith("exact-ilp gate: norm_v <= 64")
                   for line in lines)
        assert any("ceil(dual)" in line for line in lines)

    def test_boundary_client_and_serve_flags_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            ["client", "ping", "--deadline", "0.5", "--retries", "0",
             "--retry-overloaded", "0", "--backoff-seconds", "0"]
        )
        assert (args.deadline, args.retries, args.retry_overloaded,
                args.backoff_seconds) == (0.5, 0, 0, 0.0)
        args = parser.parse_args(["serve", "--drain-seconds", "0",
                                  "--jobs", "2"])
        assert (args.drain_seconds, args.jobs) == (0.0, 2)

    def test_boundary_solve_flags_accepted(self, problem_file):
        args = build_parser().parse_args(
            ["solve", problem_file, "--retries", "0", "--jobs", "0",
             "--deadline", "0.5"]
        )
        assert (args.retries, args.jobs, args.deadline) == (0, 0, 0.5)
