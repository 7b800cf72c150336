"""Tests for Algorithms 2 and 3 (LowDegTreeVSE / sweep)."""

import math
import random

import pytest

from repro.core.exact import solve_exact
from repro.core.lowdeg_tree import (
    preserved_degree,
    solve_lowdeg_tree,
    solve_lowdeg_tree_sweep,
    theorem4_bound,
)
from repro.core.primal_dual import solve_primal_dual
from repro.workloads import random_chain_problem, random_star_problem


class TestPreservedDegree:
    def test_counts_preserved_only(self, chain_instance, chain_queries):
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(
            chain_instance, chain_queries, {"QA": [("0:0", "1:0", "2:0")]}
        )
        degrees = preserved_degree(problem)
        delta_vt = problem.deleted_view_tuples()[0]
        # facts only in the deleted tuple's witness have degree < total
        for fact in problem.witness(delta_vt):
            assert degrees.get(fact, 0) == len(
                [
                    vt
                    for vt in problem.preserved_view_tuples()
                    if fact in problem.witness(vt)
                ]
            )


class TestAlgorithm2:
    def test_tiny_tau_falls_back_to_full_deletion(self):
        rng = random.Random(51)
        problem = random_star_problem(rng, center_facts=2, leaf_facts=6)
        degrees = preserved_degree(problem)
        min_needed = min(
            max(degrees.get(f, 0) for f in problem.witness(vt))
            for vt in problem.deleted_view_tuples()
        )
        if min_needed == 0:
            pytest.skip("instance has a free deletion")
        sol = solve_lowdeg_tree(problem, tau=-1)
        assert sol.method == "lowdeg-tree-fallback"
        assert sol.is_feasible()

    def test_large_tau_equals_primal_dual_allowed_everything(self):
        rng = random.Random(52)
        problem = random_chain_problem(rng)
        big_tau = problem.norm_v + 1
        sol = solve_lowdeg_tree(problem, tau=big_tau)
        assert sol.is_feasible()


class TestAlgorithm3:
    def test_sweep_feasible_and_within_bound(self):
        rng = random.Random(53)
        for _ in range(10):
            problem = (
                random_chain_problem(rng)
                if rng.random() < 0.5
                else random_star_problem(rng)
            )
            sweep = solve_lowdeg_tree_sweep(problem)
            optimum = solve_exact(problem)
            assert sweep.is_feasible()
            if optimum.side_effect() > 0:
                ratio = sweep.side_effect() / optimum.side_effect()
                assert ratio <= theorem4_bound(problem) + 1e-9
            else:
                assert sweep.side_effect() == 0.0

    def test_sweep_never_worse_than_single_tau(self):
        rng = random.Random(54)
        problem = random_star_problem(rng)
        sweep = solve_lowdeg_tree_sweep(problem)
        degrees = preserved_degree(problem)
        for tau in sorted({degrees.get(f, 0) for f in problem.candidate_facts()}):
            single = solve_lowdeg_tree(problem, tau)
            if single.is_feasible():
                assert sweep.side_effect() <= single.side_effect() + 1e-9

    def test_sweep_vs_primal_dual_sometimes_better(self):
        # The paper motivates Algorithm 3 as "sometimes better than
        # factor l"; at minimum it should never be dramatically worse
        # across a batch.
        rng = random.Random(55)
        wins = ties = losses = 0
        for _ in range(10):
            problem = random_star_problem(rng)
            sweep = solve_lowdeg_tree_sweep(problem)
            primal_dual = solve_primal_dual(problem)
            if sweep.side_effect() < primal_dual.side_effect():
                wins += 1
            elif sweep.side_effect() == primal_dual.side_effect():
                ties += 1
            else:
                losses += 1
        assert wins + ties >= losses


class TestBound:
    def test_theorem4_formula(self):
        rng = random.Random(56)
        problem = random_chain_problem(rng)
        assert theorem4_bound(problem) == pytest.approx(
            max(1.0, 2.0 * math.sqrt(problem.norm_v))
        )


# ----------------------------------------------------------------------
# ΔV-local restriction vs. the full scan
# ----------------------------------------------------------------------


def full_scan_degrees(problem):
    """Reference twin: preserved degree of every fact of every
    preserved witness."""
    degrees = {}
    for vt in problem.preserved_view_tuples():
        for fact in problem.witness(vt):
            degrees[fact] = degrees.get(fact, 0) + 1
    return degrees


def full_scan_lowdeg(problem, tau):
    """Reference twin of Algorithm 2: degrees and wide-tuple weights
    over all of R, Algorithm 1 by its full-scan twin.  Returns ΔD."""
    from test_primal_dual import full_scan_primal_dual

    degrees = full_scan_degrees(problem)
    allowed = frozenset(
        f for f in problem.candidate_facts() if degrees.get(f, 0) <= tau
    )
    if not all(
        problem.witness(vt) & allowed for vt in problem.deleted_view_tuples()
    ):
        return frozenset(problem.candidate_facts())
    pruned = {
        vt: 0.0
        for vt in problem.preserved_view_tuples()
        if len(problem.witness(vt)) > math.sqrt(problem.norm_v)
    }
    deleted, _, _ = full_scan_primal_dual(
        problem, allowed_facts=allowed, preserved_weights=pruned
    )
    return deleted


def full_scan_sweep(problem):
    """Reference twin of Algorithm 3 over :func:`full_scan_lowdeg`."""
    from repro.core.solution import Propagation

    degrees = full_scan_degrees(problem)
    best = None
    for tau in sorted({degrees.get(f, 0) for f in problem.candidate_facts()}):
        candidate = Propagation(problem, full_scan_lowdeg(problem, tau))
        if candidate.is_feasible() and (
            best is None or candidate.side_effect() < best.side_effect()
        ):
            best = candidate
    return best.deleted_facts


class TestDeltaLocal:
    """Algorithms 2 and 3 read only the ΔV candidates' dependents; every
    threshold's ΔD and the sweep's answer equal the full scan's."""

    def cases(self, seed):
        from test_primal_dual import forest_duel_cases, reweighted

        rng = random.Random(seed)
        for kind, problem in forest_duel_cases(seed=seed, per_kind=8):
            yield kind, problem
            weights = {
                vt: rng.choice((0.0, 0.25, 1 / 3, 1.0, 4.0))
                for vt in problem.preserved_view_tuples()
            }
            yield kind, reweighted(problem, weights)

    def test_degrees_cover_candidates(self):
        for _, problem in self.cases(81):
            degrees = preserved_degree(problem)
            full = full_scan_degrees(problem)
            assert set(degrees) == set(problem.candidate_facts())
            for fact, degree in degrees.items():
                assert degree == full.get(fact, 0)

    def test_every_threshold_and_sweep_match(self):
        kinds = set()
        for kind, problem in self.cases(82):
            kinds.add(kind)
            degrees = preserved_degree(problem)
            for tau in sorted(set(degrees.values()) | {-1}):
                single = solve_lowdeg_tree(problem, tau)
                assert single.deleted_facts == full_scan_lowdeg(problem, tau)
            sweep = solve_lowdeg_tree_sweep(problem)
            assert sweep.deleted_facts == full_scan_sweep(problem)
        assert {"chain", "star", "forest", "shared-facts"} <= kinds
