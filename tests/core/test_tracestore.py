"""Tests for the solve-trace store (repro.core.tracestore)."""

import json

import pytest

from repro.core.registry import solve_report
from repro.core.session import SolveSession
from repro.core.tracestore import (
    SCHEMA_VERSION,
    TRACE_DIR_ENV,
    TRACE_ENV,
    TraceStore,
    default_store,
    record_from_report,
    recording_enabled,
    reset_default_store,
    validate_record,
)
from repro.workloads import figure1_problem_q4, random_star_problem


@pytest.fixture(autouse=True)
def _isolated_default_store(monkeypatch, tmp_path):
    """Point the process-default store at a per-test directory so tests
    never read (or pollute) the developer's real trace files."""
    monkeypatch.delenv(TRACE_ENV, raising=False)
    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "default-traces"))
    reset_default_store()
    yield
    reset_default_store()


class TestTraceStore:
    def test_append_and_read_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path / "t")
        assert store.append({"v": SCHEMA_VERSION, "n": 1})
        assert store.append({"v": SCHEMA_VERSION, "n": 2})
        assert [r["n"] for r in store.records()] == [1, 2]
        store.close()

    def test_unserializable_record_is_refused_not_raised(self, tmp_path):
        store = TraceStore(tmp_path / "t")
        assert store.append({"bad": object()}) is False
        assert list(store.records()) == []

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = TraceStore(tmp_path / "t")
        store.append({"n": 1})
        store.close()
        with open(store.active_path, "a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
        store.append({"n": 2})
        assert [r["n"] for r in store.records()] == [1, 2]
        store.close()

    def test_rotation_bounds_the_footprint(self, tmp_path):
        store = TraceStore(tmp_path / "t", max_bytes=200, max_files=3)
        for n in range(200):
            store.append({"n": n, "pad": "x" * 40})
        paths = store.paths()
        assert len(paths) <= 3
        assert store.active_path in paths
        # Oldest-first read order: record numbers must be increasing.
        numbers = [r["n"] for r in store.records()]
        assert numbers == sorted(numbers)
        assert numbers[-1] == 199  # newest record survives rotation
        store.close()

    def test_clear_removes_every_file(self, tmp_path):
        store = TraceStore(tmp_path / "t", max_bytes=120, max_files=2)
        for n in range(50):
            store.append({"n": n})
        store.clear()
        assert store.paths() == []
        assert list(store.records()) == []


class TestDefaultStore:
    def test_opt_out_env_disables_recording(self, monkeypatch):
        for value in ("off", "0", "false", "no"):
            monkeypatch.setenv(TRACE_ENV, value)
            assert not recording_enabled()
            assert default_store() is None
        monkeypatch.setenv(TRACE_ENV, "on")
        assert recording_enabled()
        assert default_store() is not None

    def test_default_store_follows_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "a"))
        first = default_store()
        assert first is not None and first.directory == tmp_path / "a"
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "b"))
        second = default_store()
        assert second is not None and second.directory == tmp_path / "b"

    def test_solve_report_records_a_valid_trace(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "solve"))
        reset_default_store()
        report = solve_report(figure1_problem_q4())
        store = default_store()
        records = list(store.records())
        assert len(records) == 1
        (record,) = records
        assert validate_record(record) == []
        assert record["route"] == report.route
        assert record["method"] == report.propagation.method

    def test_opt_out_suppresses_solve_recording(self, monkeypatch, tmp_path):
        directory = tmp_path / "quiet"
        monkeypatch.setenv(TRACE_DIR_ENV, str(directory))
        monkeypatch.setenv(TRACE_ENV, "off")
        reset_default_store()
        solve_report(figure1_problem_q4())
        assert not directory.exists()


class TestRecordSchema:
    def _report(self):
        problem = figure1_problem_q4()
        session = SolveSession.of(problem)
        return session, solve_report(session)

    def test_record_from_report_is_schema_valid(self):
        session, report = self._report()
        record = record_from_report(session, report)
        assert validate_record(record) == []
        assert record["v"] == SCHEMA_VERSION
        assert record["instance"] == session.trace_key
        assert record["profile"]["norm_v"] == session.problem.norm_v
        assert record["stages"][0]["chosen"] is True
        # The record must be plain JSON (the store writes it verbatim).
        json.dumps(record)

    def test_forest_duel_record_keeps_both_stages(self):
        import random

        rng = random.Random(101)
        for _ in range(20):
            problem = random_star_problem(
                rng, num_queries=3, max_leaves_per_query=3, delta_fraction=0.4
            )
            session = SolveSession.of(problem)
            report = solve_report(session)
            if report.route != "forest-duel" or report.note is not None:
                continue  # a certified duel runs one candidate
            record = record_from_report(session, report)
            assert validate_record(record) == []
            assert len(record["stages"]) == 2
            assert [s["chosen"] for s in record["stages"]].count(True) == 1
            return
        pytest.skip("no uncertified forest duel in the sample")

    def test_validate_record_flags_problems(self):
        assert validate_record("not a dict") == ["record is not an object"]
        assert "missing key 'route'" in validate_record(
            {k: 0 for k in ("v", "ts", "instance", "profile", "method",
                            "seconds", "stages")}
        )
        session, report = self._report()
        record = record_from_report(session, report)
        record["v"] = 999
        record["stages"] = [{"route": "x"}]
        problems = validate_record(record)
        assert any("schema version" in p for p in problems)
        assert any("missing 'method'" in p for p in problems)
