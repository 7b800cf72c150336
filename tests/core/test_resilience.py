"""Tests for the resilient solve runtime: deadlines, retries, fallback
chains, and their integration with the solver hot loops.

Clock-dependent behavior is driven through an injectable fake clock so
every expiry is deterministic — no test here sleeps to trigger a
timeout.
"""

import random

import pytest

from repro.errors import (
    DeadlineExceededError,
    NotKeyPreservingError,
    SolverError,
)
from repro.core import local_search as local_search_mod
from repro.core.exact import solve_exact_bruteforce, solve_exact_ilp
from repro.core.local_search import improve
from repro.core.lowdeg_tree import solve_lowdeg_tree_sweep
from repro.core.registry import SOLVERS, solve, solve_report
from repro.core.resilience import (
    AttemptRecord,
    Deadline,
    SolvePolicy,
    active_deadline,
    deadline_scope,
    parse_fallback,
    solve_with_policy,
)
from repro.core.session import SolveSession
from repro.fuzz.generator import CASE_KINDS, generate_case
from repro.workloads import (
    random_chain_problem,
    random_problem,
    scaling_problem,
)


class FakeClock:
    """A monotonic clock advanced by ``step`` on every read."""

    def __init__(self, start: float = 0.0, step: float = 0.0):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def problem():
    return scaling_problem(random.Random(11), facts_per_relation=60)


def _expired(clock=None) -> Deadline:
    clock = clock or FakeClock()
    deadline = Deadline.after(1.0, clock=clock)
    clock.advance(2.0)
    return deadline


class TestDeadline:
    def test_remaining_and_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired
        clock.advance(5.0)
        assert deadline.expired
        assert deadline.remaining() <= 0.0

    def test_check_attaches_incumbent(self):
        deadline = _expired()
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check(incumbent="best-so-far", what="unit test")
        assert excinfo.value.incumbent == "best-so-far"
        assert "unit test" in str(excinfo.value)

    def test_check_is_noop_before_expiry(self):
        Deadline.after(60.0).check(incumbent=None)

    def test_deadline_error_is_a_solver_error(self):
        # The CLI and batch surfaces catch SolverError; deadline expiry
        # must flow through the same spine.
        assert issubclass(DeadlineExceededError, SolverError)


class TestDeadlineScope:
    def test_no_ambient_deadline_by_default(self):
        assert active_deadline() is None

    def test_scope_installs_and_restores(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline) as effective:
            assert effective is deadline
            assert active_deadline() is deadline
        assert active_deadline() is None

    def test_nested_scopes_keep_the_tightest(self):
        loose = Deadline.after(100.0)
        tight = Deadline.after(1.0)
        with deadline_scope(loose):
            with deadline_scope(tight) as effective:
                assert effective is tight
            # An inner *looser* deadline must not relax the outer one.
            with deadline_scope(Deadline.after(500.0)) as effective:
                assert effective is loose
        assert active_deadline() is None

    def test_none_scope_keeps_enclosing(self):
        outer = Deadline.after(60.0)
        with deadline_scope(outer):
            with deadline_scope(None) as effective:
                assert effective is outer

    def test_session_exposes_ambient_deadline(self, problem):
        session = SolveSession.of(problem)
        assert session.deadline is None
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            assert session.deadline is deadline
            session.checkpoint()  # ample: no raise
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError):
                session.checkpoint(incumbent=None)


class TestAttemptRecord:
    def test_dict_roundtrip(self):
        record = AttemptRecord(
            method="claim1",
            outcome="retry",
            seconds=0.25,
            attempt=1,
            cause="RuntimeError: boom",
        )
        assert AttemptRecord.from_dict(record.as_dict()) == record

    def test_summary_mentions_method_and_outcome(self):
        text = AttemptRecord(method="auto", outcome="ok").summary()
        assert "auto" in text and "ok" in text


class TestSolvePolicy:
    def test_chain_dedupes_and_keeps_order(self):
        policy = SolvePolicy(fallback=("claim1", "auto", "greedy-min-damage"))
        assert policy.chain("auto") == (
            "auto",
            "claim1",
            "greedy-min-damage",
        )

    def test_backoff_grows_exponentially(self):
        policy = SolvePolicy(
            backoff_seconds=0.1, backoff_factor=2.0, backoff_jitter=0.0
        )
        rng = random.Random(0)
        assert policy.backoff(0, rng) == pytest.approx(0.1)
        assert policy.backoff(2, rng) == pytest.approx(0.4)

    def test_no_deadline_configured(self):
        assert SolvePolicy().deadline() is None
        assert SolvePolicy(deadline_seconds=1.0).deadline() is not None

    def test_parse_fallback(self):
        assert parse_fallback(None) == ()
        assert parse_fallback("a, b ,,c") == ("a", "b", "c")
        assert parse_fallback(["x", "y"]) == ("x", "y")


# ----------------------------------------------------------------------
# Hot-loop deadline semantics, route by route
# ----------------------------------------------------------------------


class TestLocalSearchDeadline:
    def test_expired_before_first_move_degrades_to_start(self, problem):
        start = solve(problem, method="greedy-min-damage")
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError) as excinfo:
                improve(start)
        incumbent = excinfo.value.incumbent
        assert incumbent is not None
        assert incumbent.deleted_facts == start.deleted_facts

    def test_mid_loop_timeout_yields_feasible_incumbent(
        self, problem, monkeypatch
    ):
        # Stride 1 + a self-advancing clock: the deadline expires a few
        # trials into the move loop, at a move boundary.
        monkeypatch.setattr(local_search_mod, "_DEADLINE_STRIDE", 1)
        start = solve(problem, method="greedy-min-damage")
        clock = FakeClock(step=1.0)
        with deadline_scope(Deadline.after(3.0, clock=clock)):
            with pytest.raises(DeadlineExceededError) as excinfo:
                improve(start)
        incumbent = excinfo.value.incumbent
        assert incumbent is not None
        assert incumbent.is_feasible()
        assert incumbent.objective() <= start.objective()

    def test_ample_deadline_is_byte_identical(self, problem):
        start = solve(problem, method="greedy-min-damage")
        plain = improve(start)
        with deadline_scope(Deadline.after(3600.0)):
            timed = improve(start)
        assert timed.deleted_facts == plain.deleted_facts


class TestExactDeadline:
    def test_branch_and_bound_expired_at_entry(self, problem):
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError) as excinfo:
                solve_exact_bruteforce(problem)
        assert excinfo.value.incumbent is None

    def test_balanced_enumeration_degrades_to_best(self):
        balanced = random_problem(random.Random(5), balanced=True)
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError) as excinfo:
                solve_exact_bruteforce(balanced)
        incumbent = excinfo.value.incumbent
        # Balanced solutions are never infeasible, only more or less
        # costly: the running best (the empty deletion set at worst) is
        # always a usable answer.
        assert incumbent is not None
        assert incumbent.method == "exact-enum"
        assert incumbent.balanced_cost() < float("inf")

    def test_ilp_refuses_to_start_when_expired(self, problem):
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError):
                solve_exact_ilp(problem)

    def test_ample_deadline_is_byte_identical(self, problem):
        plain = solve_exact_bruteforce(problem)
        with deadline_scope(Deadline.after(3600.0)):
            timed = solve_exact_bruteforce(problem)
        assert timed.deleted_facts == plain.deleted_facts


class TestLowDegSweepDeadline:
    def test_expired_at_entry_has_no_incumbent(self):
        chain = random_chain_problem(random.Random(3))
        with deadline_scope(_expired()):
            with pytest.raises(DeadlineExceededError) as excinfo:
                solve_lowdeg_tree_sweep(chain)
        assert excinfo.value.incumbent is None

    def test_mid_sweep_timeout_keeps_completed_thresholds(
        self, monkeypatch
    ):
        chain = random_chain_problem(random.Random(3))
        reference = solve_lowdeg_tree_sweep(chain)
        clock = FakeClock()
        calls = []

        from repro.core import lowdeg_tree as mod

        real = mod.solve_lowdeg_tree

        def one_then_expire(problem, tau):
            calls.append(tau)
            candidate = real(problem, tau)
            clock.advance(10.0)  # the first threshold eats the budget
            return candidate

        monkeypatch.setattr(mod, "solve_lowdeg_tree", one_then_expire)
        with deadline_scope(Deadline.after(5.0, clock=clock)):
            with pytest.raises(DeadlineExceededError) as excinfo:
                solve_lowdeg_tree_sweep(chain)
        assert len(calls) == 1  # second τ never ran
        incumbent = excinfo.value.incumbent
        assert incumbent is not None
        assert incumbent.is_feasible()
        assert incumbent.method == reference.method == "lowdeg-tree-sweep"


class TestRegistryDeadline:
    def test_solve_accepts_deadline_parameter(self, problem):
        plain = solve(problem)
        timed = solve(problem, deadline=Deadline.after(3600.0))
        assert timed.deleted_facts == plain.deleted_facts

    def _forest_duel_problem(self):
        from repro.workloads import random_star_problem

        for seed in range(101, 140):
            problem = random_star_problem(
                random.Random(seed),
                num_queries=3,
                max_leaves_per_query=3,
                delta_fraction=0.4,
            )
            report = solve_report(problem)
            if report.route == "forest-duel" and report.note is None:
                return problem  # uncertified: both candidates run
        pytest.fail("no uncertified forest duel found in the seed range")

    def test_forest_duel_skips_second_solver_when_expired(self, monkeypatch):
        problem = self._forest_duel_problem()
        assert len(solve_report(problem).trace) == 2
        clock = FakeClock()
        deadline = Deadline.after(5.0, clock=clock)

        from repro.core import registry as mod

        real = mod.solve_primal_dual

        def slow_primal_dual(p, **kwargs):
            result = real(p, **kwargs)
            clock.advance(10.0)
            return result

        monkeypatch.setattr(mod, "solve_primal_dual", slow_primal_dual)
        with deadline_scope(deadline):
            report = solve_report(problem)
        # One candidate only: the duel degraded instead of raising.
        assert report.route == "forest-duel"
        assert len(report.trace) == 1
        assert report.note.startswith("deadline: ")
        assert report.propagation.is_feasible()

    def test_ample_deadline_byte_identical_across_fuzz_shapes(self):
        for seed in range(6):
            rng = random.Random(seed)
            case = generate_case(rng, CASE_KINDS)
            try:
                plain = solve(case.problem)
            except (SolverError, NotKeyPreservingError):
                continue
            timed = solve(case.problem, deadline=Deadline.after(3600.0))
            assert timed.deleted_facts == plain.deleted_facts, case.kind


# ----------------------------------------------------------------------
# Policy orchestration
# ----------------------------------------------------------------------


class TestSolveWithPolicy:
    def test_no_policy_attempts_are_empty(self, problem):
        report = solve_report(problem)
        assert report.attempts == []

    def test_ok_attempt_recorded(self, problem):
        report = solve_with_policy(problem, policy=SolvePolicy())
        assert [a.outcome for a in report.attempts] == ["ok"]
        assert report.propagation.deleted_facts == solve(problem).deleted_facts

    def test_inapplicable_method_falls_through_chain(self, problem):
        policy = SolvePolicy(fallback=("greedy-min-damage",))
        report = solve_with_policy(problem, method="single-deletion", policy=policy)
        outcomes = [a.outcome for a in report.attempts]
        assert outcomes == ["inapplicable", "ok"]
        assert report.attempts[1].method == "greedy-min-damage"

    def test_transient_failure_retries_then_succeeds(
        self, problem, monkeypatch
    ):
        failures = {"left": 1}

        def flaky(p):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient blip")
            return SOLVERS["greedy-min-damage"](p)

        monkeypatch.setitem(SOLVERS, "flaky", flaky)
        policy = SolvePolicy(retries=1, backoff_seconds=0.0)
        report = solve_with_policy(problem, method="flaky", policy=policy)
        assert [a.outcome for a in report.attempts] == ["retry", "ok"]
        assert report.attempts[0].cause == "RuntimeError: transient blip"

    def test_retry_budget_exhausted_moves_down_chain(
        self, problem, monkeypatch
    ):
        def always_failing(p):
            raise RuntimeError("hard down")

        monkeypatch.setitem(SOLVERS, "flaky", always_failing)
        policy = SolvePolicy(
            retries=1, backoff_seconds=0.0, fallback=("greedy-min-damage",)
        )
        report = solve_with_policy(problem, method="flaky", policy=policy)
        assert [a.outcome for a in report.attempts] == ["retry", "error", "ok"]

    def test_chain_exhausted_raises_with_attempt_trace(
        self, problem, monkeypatch
    ):
        def always_failing(p):
            raise RuntimeError("hard down")

        monkeypatch.setitem(SOLVERS, "flaky", always_failing)
        policy = SolvePolicy(backoff_seconds=0.0)
        with pytest.raises(SolverError, match="fallback chain") as excinfo:
            solve_with_policy(problem, method="flaky", policy=policy)
        assert [a.outcome for a in excinfo.value.attempts] == ["error"]

    def test_deadline_with_incumbent_degrades(self, problem, monkeypatch):
        best = solve(problem, method="greedy-min-damage")

        def timing_out(p):
            raise DeadlineExceededError("too slow", incumbent=best)

        monkeypatch.setitem(SOLVERS, "slow", timing_out)
        report = solve_with_policy(
            problem, method="slow", policy=SolvePolicy()
        )
        assert report.route == "degraded:slow"
        assert report.propagation is best
        assert [a.outcome for a in report.attempts] == ["degraded"]

    def test_deadline_without_incumbent_propagates(
        self, problem, monkeypatch
    ):
        def timing_out(p):
            raise DeadlineExceededError("too slow")

        monkeypatch.setitem(SOLVERS, "slow", timing_out)
        with pytest.raises(DeadlineExceededError) as excinfo:
            solve_with_policy(problem, method="slow", policy=SolvePolicy())
        assert [a.outcome for a in excinfo.value.attempts] == ["deadline"]

    def test_expired_request_deadline_never_attempts(self, problem):
        with pytest.raises(DeadlineExceededError) as excinfo:
            solve_with_policy(
                problem, policy=SolvePolicy(), deadline=_expired()
            )
        records = excinfo.value.attempts
        assert [a.outcome for a in records] == ["deadline"]

    def test_policy_through_registry_solve(self, problem):
        policy = SolvePolicy(fallback=("greedy-min-damage",))
        propagation = solve(problem, method="single-deletion", policy=policy)
        direct = solve(problem, method="greedy-min-damage")
        assert propagation.deleted_facts == direct.deleted_facts

    def test_report_summary_includes_attempts(self, problem):
        policy = SolvePolicy(fallback=("greedy-min-damage",))
        report = solve_report(problem, method="single-deletion", policy=policy)
        summary = report.summary()
        assert "inapplicable" in summary
        assert "greedy-min-damage" in summary


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------


class TestCliPolicyFlags:
    def _solve_args(self, *extra):
        from repro.cli import build_parser

        return build_parser().parse_args(["solve", "problem.json", *extra])

    def test_no_flags_builds_no_policy(self):
        from repro.cli import _build_policy

        assert _build_policy(self._solve_args()) is None

    def test_flags_build_policy(self):
        from repro.cli import _build_policy

        policy = _build_policy(
            self._solve_args(
                "--deadline",
                "0.5",
                "--retries",
                "2",
                "--fallback",
                "claim1,greedy-min-damage",
            )
        )
        assert policy == SolvePolicy(
            deadline_seconds=0.5,
            retries=2,
            fallback=("claim1", "greedy-min-damage"),
        )

    def test_end_to_end_solve_with_policy(self, tmp_path, capsys, problem):
        import json

        from repro.cli import main
        from repro.io.serialize import dump_problem

        path = tmp_path / "problem.json"
        dump_problem(problem, str(path))
        code = main(
            [
                "solve",
                str(path),
                "--method",
                "single-deletion",
                "--fallback",
                "greedy-min-damage",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        outcomes = [record["outcome"] for record in doc["attempts"]]
        assert outcomes == ["inapplicable", "ok"]


# ----------------------------------------------------------------------
# Fuzz harness budget
# ----------------------------------------------------------------------


class TestFuzzBudget:
    def test_zero_budget_runs_nothing(self):
        from repro.fuzz import run_fuzz

        stats = run_fuzz(
            seed=0, iterations=10, budget_seconds=0.0, corpus_dir=None
        )
        assert stats.iterations == 0

    def test_check_problem_honors_deadline(self, problem):
        from repro.fuzz.harness import check_problem

        with pytest.raises(DeadlineExceededError):
            check_problem(problem, deadline=_expired())

    def test_check_problem_ample_deadline_is_clean(self, problem):
        from repro.fuzz.harness import check_problem

        report = check_problem(
            problem, metamorphic=False, deadline=Deadline.after(3600.0)
        )
        assert report.ok, report.failures
