"""Tests for the parallel solver portfolio and ΔV batch runner.

The portfolio is a throughput knob, never a semantics knob: pool and
serial execution must return identical propagations, and the winner
selection must be deterministic regardless of scheduling order.
"""

import random

import pytest

from repro.errors import SolverError
from repro.core.portfolio import (
    DEFAULT_PORTFOLIO,
    DeltaOutcome,
    PortfolioResult,
    best_result,
    run_delta_batch,
    run_portfolio,
    solve_portfolio,
)
from repro.core.registry import solve
from repro.workloads import random_problem, scaling_problem


@pytest.fixture
def problem():
    return scaling_problem(random.Random(11), facts_per_relation=60)


def _by_method(results):
    return {r.method: r for r in results}


class TestRunPortfolio:
    def test_pool_matches_serial(self, problem):
        pooled = _by_method(run_portfolio(problem, max_workers=2))
        serial = _by_method(run_portfolio(problem, max_workers=0))
        assert set(pooled) == set(serial) == set(DEFAULT_PORTFOLIO)
        for method, result in pooled.items():
            assert result.ok, result.error
            assert (
                result.propagation.deleted_facts
                == serial[method].propagation.deleted_facts
            )
            assert result.propagation.objective() == pytest.approx(
                serial[method].propagation.objective()
            )

    def test_matches_direct_solver_calls(self, problem):
        for result in run_portfolio(problem, max_workers=0):
            direct = solve(problem, method=result.method)
            assert result.propagation.deleted_facts == direct.deleted_facts

    def test_single_method_runs_serially(self, problem):
        (result,) = run_portfolio(problem, methods=["greedy-min-damage"])
        assert result.ok
        assert result.method == "greedy-min-damage"

    def test_deduplicates_methods(self, problem):
        results = run_portfolio(
            problem,
            methods=["claim1", "claim1", "greedy-min-damage"],
            max_workers=0,
        )
        assert [r.method for r in results] == ["claim1", "greedy-min-damage"]

    def test_unknown_method_is_an_error_entry(self, problem):
        results = _by_method(
            run_portfolio(
                problem,
                methods=["claim1", "no-such-method"],
                max_workers=0,
            )
        )
        assert results["claim1"].ok
        assert not results["no-such-method"].ok
        assert "no-such-method" in results["no-such-method"].error

    def test_empty_portfolio_rejected(self, problem):
        with pytest.raises(SolverError):
            run_portfolio(problem, methods=[])


class TestBestResult:
    def _result(self, method, propagation):
        return PortfolioResult(method, propagation, 0.0)

    def test_prefers_lower_objective(self, problem):
        results = run_portfolio(problem, max_workers=0)
        winner = best_result(results)
        objectives = [
            r.propagation.objective() for r in results if r.ok
        ]
        assert winner.propagation.objective() == min(objectives)

    def test_ties_break_deterministically(self, problem):
        base = solve(problem, method="greedy-min-damage")
        a = self._result("zeta", base)
        b = self._result("alpha", base)
        # Identical propagations: the method name decides, regardless
        # of the order results arrived in.
        assert best_result([a, b]).method == "alpha"
        assert best_result([b, a]).method == "alpha"

    def test_all_failed_raises_with_causes(self):
        failed = [
            PortfolioResult("m1", None, 0.0, "ValueError: boom"),
            PortfolioResult("m2", None, 0.0, "SolverError: bust"),
        ]
        with pytest.raises(SolverError, match="boom"):
            best_result(failed)


class TestSolvePortfolio:
    def test_returns_best_feasible(self, problem):
        winner = solve_portfolio(problem, max_workers=2)
        assert winner.is_feasible()
        assert winner.verify_by_reevaluation()
        serial_objectives = [
            r.propagation.objective()
            for r in run_portfolio(problem, max_workers=0)
            if r.ok and r.propagation.is_feasible()
        ]
        assert winner.objective() == pytest.approx(min(serial_objectives))

    def test_balanced_problem_always_answers(self):
        balanced = random_problem(random.Random(5), balanced=True)
        winner = solve_portfolio(
            balanced,
            methods=["lemma1-posneg", "greedy-max-coverage"],
            max_workers=0,
        )
        assert winner.verify_by_reevaluation()

    def test_all_strategies_failing_raises(self, problem):
        with pytest.raises(SolverError):
            solve_portfolio(
                problem, methods=["no-such-method"], max_workers=0
            )


class TestRunDeltaBatch:
    def _requests(self, problem, count=3):
        rng = random.Random(99)
        pool = sorted(problem.deleted_view_tuples())
        requests = []
        for _ in range(count):
            picks = rng.sample(pool, k=min(4, len(pool)))
            req: dict = {}
            for vt in picks:
                req.setdefault(vt.view, []).append(list(vt.values))
            requests.append(req)
        return requests

    def test_batch_matches_individual_solves(self, problem):
        requests = self._requests(problem)
        batch = run_delta_batch(
            problem, requests, method="greedy-min-damage", max_workers=2
        )
        serial = run_delta_batch(
            problem, requests, method="greedy-min-damage", max_workers=0
        )
        assert len(batch) == len(requests)
        for pooled, inproc, request in zip(batch, serial, requests):
            assert isinstance(pooled, DeltaOutcome)
            assert pooled.ok and inproc.ok
            assert (
                pooled.propagation.deleted_facts
                == inproc.propagation.deleted_facts
            )
            assert pooled.propagation.is_feasible()
            # Each result is bound to a problem carrying its own ΔV.
            assert {
                vt.view
                for vt in pooled.propagation.problem.deleted_view_tuples()
            } == set(request)

    def test_failed_request_yields_error_outcome(self, problem):
        good = self._requests(problem, count=1)[0]
        outcomes = run_delta_batch(
            problem,
            [good, {"NoSuchView": [["x"]]}, good],
            method="greedy-min-damage",
            max_workers=0,
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        bad = outcomes[1]
        assert bad.propagation is None
        assert bad.error and "NoSuchView" in bad.error
        # The rest of the batch is unaffected by the failure.
        assert (
            outcomes[0].propagation.deleted_facts
            == outcomes[2].propagation.deleted_facts
        )

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_malformed_request_fails_only_itself(self, problem, max_workers):
        # A ΔV whose rows are not a list of tuples is this request's
        # error, not an exception out of the whole batch.
        good = self._requests(problem, count=1)[0]
        view = next(iter(good))
        outcomes = run_delta_batch(
            problem,
            [good, {view: 5}, good],
            method="greedy-min-damage",
            max_workers=max_workers,
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "TypeError" in outcomes[1].error

    def test_failed_request_preserves_order_in_pool(self, problem):
        good = self._requests(problem, count=1)[0]
        outcomes = run_delta_batch(
            problem,
            [{"NoSuchView": [["x"]]}, good],
            method="greedy-min-damage",
            max_workers=2,
        )
        assert [o.index for o in outcomes] == [0, 1]
        assert [o.ok for o in outcomes] == [False, True]

    def test_strict_mode_raises(self, problem):
        with pytest.raises(SolverError, match="request #0"):
            run_delta_batch(
                problem,
                [{"NoSuchView": [["x"]]}],
                method="greedy-min-damage",
                max_workers=0,
                strict=True,
            )

    def test_serial_fallback_leaves_worker_globals_alone(self, problem):
        from repro.core import portfolio as mod

        before = (mod._WORKER_DOC, mod._WORKER_PROBLEM)
        run_delta_batch(
            problem,
            self._requests(problem, count=2),
            method="greedy-min-damage",
            max_workers=0,
        )
        assert (mod._WORKER_DOC, mod._WORKER_PROBLEM) == before


class TestSerialCarry:
    """The in-process batch path rebinds each ΔV once and renders the
    solved propagation itself, with no payload round trip."""

    @pytest.mark.parametrize("method", ["auto", "greedy-min-damage"])
    def test_one_rebind_shared_index_same_render(
        self, problem, method, monkeypatch
    ):
        from repro.core import portfolio as mod
        from repro.core.problem import DeletionPropagationProblem
        from repro.io.serialize import solution_to_dict

        siblings = []
        rebuilds = []
        with_deletions = DeletionPropagationProblem.with_deletions
        rebuild = mod._rebuild

        def counting_with_deletions(self, deletions):
            clone = with_deletions(self, deletions)
            siblings.append(clone)
            return clone

        def counting_rebuild(*args):
            rebuilds.append(args)
            return rebuild(*args)

        monkeypatch.setattr(
            DeletionPropagationProblem,
            "with_deletions",
            counting_with_deletions,
        )
        monkeypatch.setattr(mod, "_rebuild", counting_rebuild)
        requests = TestRunDeltaBatch._requests(self, problem, count=4)
        outcomes = run_delta_batch(
            problem, requests, method=method, max_workers=0
        )
        monkeypatch.undo()

        assert len(siblings) == len(requests)
        assert rebuilds == []
        for sibling in siblings:
            assert sibling._dependents is problem._dependents
        for outcome, sibling, request in zip(outcomes, siblings, requests):
            assert outcome.ok, outcome.error
            assert outcome.propagation.problem is sibling
            rendered = solution_to_dict(outcome.propagation)
            local = solution_to_dict(
                solve(problem.with_deletions(request), method=method)
            )
            assert rendered["method"] == method
            assert {**rendered, "method": local["method"]} == local


class TestSupervisor:
    def _requests(self, problem, count):
        return TestRunDeltaBatch._requests(self, problem, count=count)

    def test_submit_failure_requeues_every_undispatched_task(self, problem):
        # A pool whose submit dies mid-dispatch must not drop the tasks
        # it never accepted: they carry over to the next pool and every
        # request still gets an outcome.
        from concurrent.futures import ProcessPoolExecutor

        real_submit = ProcessPoolExecutor.submit
        failures = {"left": 1}

        def flaky_submit(pool, fn, /, *args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("injected submit failure")
            return real_submit(pool, fn, *args, **kwargs)

        requests = self._requests(problem, count=4)
        baseline = run_delta_batch(
            problem, requests, method="greedy-min-damage", max_workers=0
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ProcessPoolExecutor, "submit", flaky_submit)
            outcomes = run_delta_batch(
                problem, requests, method="greedy-min-damage", max_workers=2
            )
        assert [o.ok for o in outcomes] == [True] * len(requests)
        for got, want in zip(outcomes, baseline):
            assert (
                got.propagation.deleted_facts
                == want.propagation.deleted_facts
            )

    def test_kill_pool_private_attribute_still_exists(self):
        # _kill_pool reaches into ProcessPoolExecutor._processes to
        # SIGKILL hung workers; the getattr fallback would silently
        # skip the kill if a CPython upgrade renamed it, so pin the
        # internal here.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=1)
        try:
            assert pool.submit(abs, -7).result() == 7
            processes = getattr(pool, "_processes", None)
            assert isinstance(processes, dict) and processes
        finally:
            pool.shutdown()
