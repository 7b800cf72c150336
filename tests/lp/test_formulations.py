"""Tests for the paper's primal/dual LP formulations."""

import random

import pytest

from repro.errors import NotKeyPreservingError
from repro.fuzz.generator import CASE_KINDS, make_case
from repro.lp import dual_vse_lp, lp_lower_bound, primal_vse_lp
from repro.core.exact import solve_exact
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)
from repro.core.session import SolveSession
from repro.workloads import (
    figure1_problem,
    figure1_problem_q4,
    random_chain_problem,
    random_star_problem,
)


def _key_preserving_cases(kind, count=4):
    """Key-preserving fuzz cases of one kind (every kind yields them)."""
    cases = [make_case(kind, random.Random(seed)).problem for seed in range(count)]
    cases = [p for p in cases if SolveSession.of(p).profile.key_preserving]
    assert cases, f"no key-preserving {kind} case"
    return cases


def _standard(problem):
    """The standard-objective twin of a balanced problem (same LP): the
    relaxation bounds the optimum that must hit all of ΔV."""
    if not isinstance(problem, BalancedDeletionPropagationProblem):
        return problem
    deletions = {
        name: sorted(problem.deletion.on(name)) for name in problem.views.names
    }
    return DeletionPropagationProblem(
        problem.instance,
        list(problem.queries),
        deletions,
        weights=dict(problem._weights),
    )


class TestPrimal:
    def test_requires_key_preserving(self):
        with pytest.raises(NotKeyPreservingError):
            primal_vse_lp(figure1_problem())

    def test_lower_bounds_integer_optimum(self):
        rng = random.Random(141)
        for _ in range(8):
            problem = (
                random_chain_problem(rng)
                if rng.random() < 0.5
                else random_star_problem(rng)
            )
            bound = lp_lower_bound(problem)
            optimum = solve_exact(problem).side_effect()
            assert bound <= optimum + 1e-6

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_lower_bounds_integer_optimum_per_kind(self, kind):
        for problem in _key_preserving_cases(kind):
            optimum = solve_exact(_standard(problem)).side_effect()
            assert lp_lower_bound(problem) <= optimum + 1e-6

    def test_empty_delta_lp_is_zero(self):
        # No ΔV: no y columns and no rows, only idle x columns.
        problem = _key_preserving_cases("empty-delta", count=1)[0]
        lp = primal_vse_lp(problem)
        assert lp.matrix.shape[0] == 0
        assert lp.solve().objective == 0.0
        assert dual_vse_lp(problem).solve(maximize=True).objective == 0.0

    def test_fig1_q4_relaxation_value(self):
        problem = figure1_problem_q4()
        bound = lp_lower_bound(problem)
        # OPT = 1; the relaxation can halve x via k_r = 2.
        assert 0.0 <= bound <= 1.0 + 1e-9

    def test_zero_when_free_deletion_exists(self, chain_instance, chain_queries):
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(
            chain_instance, chain_queries, {"QA": [("0:0", "1:0", "2:0")]}
        )
        # deleting R0(0:0,1:0) is collateral-free, so LP optimum is 0
        assert lp_lower_bound(problem) == pytest.approx(0.0, abs=1e-9)


class TestDual:
    def test_weak_duality(self):
        rng = random.Random(142)
        for _ in range(6):
            problem = random_chain_problem(rng)
            primal_value = primal_vse_lp(problem).solve().objective
            dual_value = dual_vse_lp(problem).solve(maximize=True).objective
            assert dual_value <= primal_value + 1e-6

    def test_strong_duality_on_lp(self):
        rng = random.Random(143)
        problem = random_chain_problem(rng)
        primal_value = primal_vse_lp(problem).solve().objective
        dual_value = dual_vse_lp(problem).solve(maximize=True).objective
        assert dual_value == pytest.approx(primal_value, abs=1e-6)

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_strong_duality_per_kind(self, kind):
        for problem in _key_preserving_cases(kind):
            primal_value = primal_vse_lp(problem).solve().objective
            dual_value = dual_vse_lp(problem).solve(maximize=True).objective
            assert dual_value == pytest.approx(primal_value, abs=1e-6)
