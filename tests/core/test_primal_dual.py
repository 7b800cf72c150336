"""Tests for Algorithm 1 (PrimeDualVSE)."""

import random

import pytest

from repro.errors import NotKeyPreservingError, StructureError
from repro.core.exact import solve_exact
from repro.core.primal_dual import PrimalDualTrace, solve_primal_dual
from repro.lp import dual_vse_lp, lp_lower_bound
from repro.workloads import (
    figure1_problem,
    random_chain_problem,
    random_star_problem,
    random_triangle_problem,
)


class TestPreconditions:
    def test_rejects_non_key_preserving(self):
        with pytest.raises(NotKeyPreservingError):
            solve_primal_dual(figure1_problem())

    def test_rejects_non_forest_case(self, rng):
        problem = random_triangle_problem(rng)
        with pytest.raises(StructureError):
            solve_primal_dual(problem)


class TestFeasibilityAndRatio:
    def test_always_feasible_on_chains(self):
        rng = random.Random(31)
        for _ in range(10):
            problem = random_chain_problem(rng)
            sol = solve_primal_dual(problem)
            assert sol.is_feasible()

    def test_l_ratio_on_forest_cases(self):
        rng = random.Random(32)
        for _ in range(10):
            problem = (
                random_chain_problem(rng)
                if rng.random() < 0.5
                else random_star_problem(rng)
            )
            sol = solve_primal_dual(problem)
            optimum = solve_exact(problem)
            assert sol.is_feasible()
            if optimum.side_effect() == 0:
                assert sol.side_effect() == 0.0
            else:
                ratio = sol.side_effect() / optimum.side_effect()
                assert ratio <= problem.max_arity + 1e-9

    def test_weighted_ratio(self):
        rng = random.Random(33)
        for _ in range(6):
            problem = random_chain_problem(rng, weighted=True)
            sol = solve_primal_dual(problem)
            optimum = solve_exact(problem)
            assert sol.is_feasible()
            if optimum.side_effect() > 0:
                assert (
                    sol.side_effect() / optimum.side_effect()
                    <= problem.max_arity + 1e-9
                )


class TestDualCertificate:
    def test_trace_dual_is_lp_feasible_and_bounds_optimum(self):
        rng = random.Random(34)
        for _ in range(5):
            problem = random_chain_problem(rng)
            trace = PrimalDualTrace()
            solve_primal_dual(problem, trace=trace)
            # The dual objective lower-bounds the LP (hence the ILP).
            lp_value = lp_lower_bound(problem)
            assert trace.dual_objective() <= lp_value + 1e-6
            optimum = solve_exact(problem)
            assert trace.dual_objective() <= optimum.side_effect() + 1e-6

    def test_trace_capacities_match_weights(self):
        rng = random.Random(35)
        problem = random_chain_problem(rng)
        trace = PrimalDualTrace()
        solve_primal_dual(problem, trace=trace)
        for fact, cap in trace.capacities.items():
            assert cap >= 0.0


class TestRestrictions:
    def test_allowed_facts_respected(self):
        rng = random.Random(36)
        problem = random_chain_problem(rng)
        allowed = frozenset(problem.candidate_facts())
        sol = solve_primal_dual(problem, allowed_facts=allowed)
        assert sol.deleted_facts <= allowed

    def test_empty_allowed_set_raises(self):
        rng = random.Random(37)
        problem = random_chain_problem(rng)
        with pytest.raises(StructureError):
            solve_primal_dual(problem, allowed_facts=frozenset())

    def test_weight_override_changes_choice(self):
        rng = random.Random(38)
        problem = random_chain_problem(rng)
        zeroed = {vt: 0.0 for vt in problem.preserved_view_tuples()}
        sol = solve_primal_dual(problem, preserved_weights=zeroed)
        # With all weights zero, every candidate fact is free: still
        # feasible, and the reported (true) side-effect may be positive,
        # but the run must not crash and must cut all of ΔV.
        assert sol.is_feasible()


class TestPruning:
    def test_no_redundant_deletions(self):
        rng = random.Random(39)
        for _ in range(8):
            problem = random_chain_problem(rng)
            sol = solve_primal_dual(problem)
            for fact in sol.deleted_facts:
                smaller = sol.deleted_facts - {fact}
                still_feasible = all(
                    problem.witness(vt) & smaller
                    for vt in problem.deleted_view_tuples()
                )
                assert not still_feasible, "reverse-delete left redundancy"


# ----------------------------------------------------------------------
# ΔV-local restriction vs. the full scan
# ----------------------------------------------------------------------


def full_scan_primal_dual(problem, allowed_facts=None, preserved_weights=None):
    """Reference twin: Algorithm 1 with capacities over every fact of
    every preserved witness and zero-capacity seeding over all of them.
    Returns ``(ΔD, dual values, capacities)``."""
    from repro.core.session import SolveSession

    session = SolveSession.of(problem)
    witnesses, depth = session.witness_map(), session.dual_depths()
    delta = problem.deleted_view_tuples()
    allowed = None if allowed_facts is None else frozenset(allowed_facts)

    def weight_of(vt):
        if preserved_weights is not None and vt in preserved_weights:
            return preserved_weights[vt]
        return problem.weight(vt)

    capacity = {}
    for vt in problem.preserved_view_tuples():
        witness = witnesses[vt]
        share = weight_of(vt) / len(witness)
        for fact in witness:
            capacity[fact] = capacity.get(fact, 0.0) + share
    for vt in delta:
        for fact in witnesses[vt]:
            capacity.setdefault(fact, 0.0)
    residual = {
        fact: cap if allowed is None or fact in allowed else float("inf")
        for fact, cap in capacity.items()
    }
    if allowed is not None:
        for vt in delta:
            if not witnesses[vt] & allowed:
                raise StructureError("restricted instance is infeasible")
    deleted = [fact for fact in sorted(residual) if residual[fact] <= 1e-12]
    deleted_set = set(deleted)
    ordered = sorted(
        delta, key=lambda vt: (min(depth[f] for f in witnesses[vt]), vt)
    )
    dual = {}
    for vt in ordered:
        witness = witnesses[vt]
        if witness & deleted_set:
            continue
        raisable = min(residual[f] for f in witness)
        if raisable == float("inf"):
            raise StructureError("cannot saturate under the restriction")
        dual[vt] = dual.get(vt, 0.0) + raisable
        for fact in sorted(witness):
            if residual[fact] != float("inf"):
                residual[fact] -= raisable
                if residual[fact] <= 1e-12 and fact not in deleted_set:
                    deleted.append(fact)
                    deleted_set.add(fact)
    needed = set(deleted_set)
    for fact in reversed(deleted):
        trial = needed - {fact}
        if all(witnesses[vt] & trial for vt in delta):
            needed = trial
    return frozenset(needed), dual, capacity


def forest_duel_cases(seed: int, per_kind: int):
    """``(kind, problem)`` for every fuzz kind whose cases Algorithms
    1 and 3 accept (key-preserving, sj-free forest case with ΔV)."""
    from repro.core.session import SolveSession
    from repro.fuzz.generator import CASE_KINDS, make_case

    rng = random.Random(seed)
    for kind in CASE_KINDS:
        kept = 0
        for _ in range(per_kind * 4):
            problem = make_case(kind, rng).problem
            profile = SolveSession.of(problem).profile
            if (
                profile.key_preserving
                and profile.forest_case
                and profile.self_join_free
                and not profile.empty_delta
            ):
                yield kind, problem
                kept += 1
                if kept == per_kind:
                    break


def reweighted(problem, weights):
    """``problem`` with the given preserved-tuple weights."""
    from repro.core.problem import DeletionPropagationProblem

    deletions = {}
    for vt in problem.deleted_view_tuples():
        deletions.setdefault(vt.view, []).append(vt.values)
    return DeletionPropagationProblem(
        problem.instance, problem.queries, deletions, weights=weights
    )


class TestDeltaLocal:
    """Algorithm 1 reads only the ΔV candidate facts' dependents; its
    ΔD, duals and candidate capacities equal the full scan's, bit for
    bit."""

    def assert_same(self, problem, **kwargs):
        trace = PrimalDualTrace()
        try:
            expected = full_scan_primal_dual(problem, **kwargs)
        except StructureError:
            with pytest.raises(StructureError):
                solve_primal_dual(problem, trace=trace, **kwargs)
            return
        sol = solve_primal_dual(problem, trace=trace, **kwargs)
        deleted, dual, capacity = expected
        assert sol.deleted_facts == deleted
        assert trace.dual_values == dual
        assert set(trace.capacities) == set(problem.candidate_facts())
        for fact, cap in trace.capacities.items():
            assert cap == capacity[fact]

    def test_every_forest_duel_fuzz_kind(self):
        kinds = set()
        for kind, problem in forest_duel_cases(seed=71, per_kind=12):
            kinds.add(kind)
            self.assert_same(problem)
        assert {"chain", "star", "forest", "shared-facts"} <= kinds
        assert {"weight-ties", "single-delta", "balanced"} <= kinds

    def test_fractional_and_zero_weights(self):
        rng = random.Random(72)
        for _, problem in forest_duel_cases(seed=73, per_kind=4):
            weights = {
                vt: rng.choice((0.0, 0.1, 1 / 3, 0.7, 2.5))
                for vt in problem.preserved_view_tuples()
            }
            self.assert_same(reweighted(problem, weights))

    def test_preserved_weight_overrides(self):
        rng = random.Random(74)
        for _, problem in forest_duel_cases(seed=75, per_kind=4):
            override = {
                vt: rng.choice((0.0, 0.3, 1.7))
                for vt in problem.preserved_view_tuples()
                if rng.random() < 0.5
            }
            self.assert_same(problem, preserved_weights=override)

    def test_allowed_fact_restrictions(self):
        rng = random.Random(76)
        for _, problem in forest_duel_cases(seed=77, per_kind=4):
            candidates = problem.candidate_facts()
            for share in (0.3, 0.7, 1.0):
                allowed = [f for f in candidates if rng.random() < share]
                # Facts outside every ΔV witness change nothing.
                allowed += list(problem.instance)[:3]
                self.assert_same(problem, allowed_facts=allowed)

    def test_zero_capacity_fact_outside_delta_witnesses(self):
        rng = random.Random(78)
        seen = 0
        for problem in (random_chain_problem(rng) for _ in range(10)):
            candidates = set(problem.candidate_facts())
            outside = {
                vt: 0.0
                for vt in problem.preserved_view_tuples()
                if not problem.witness(vt) & candidates
            }
            if not outside:
                continue
            _, _, capacity = full_scan_primal_dual(
                problem, preserved_weights=outside
            )
            zero_outside = [
                f
                for f, cap in capacity.items()
                if cap == 0.0 and f not in candidates
            ]
            seen += bool(zero_outside)
            self.assert_same(problem, preserved_weights=outside)
        assert seen
