"""Tests for the solver registry and auto dispatch."""

import random

import pytest

from repro.errors import SolverError
from repro.core.registry import (
    ILP_ROUTE_MAX_NORM_V,
    ROUTE_TABLE,
    _duel_certificate,
    available_solvers,
    route_plan,
    solve,
    solve_report,
)
from repro.workloads import (
    figure1_problem,
    figure1_problem_q4,
    random_chain_problem,
    random_star_problem,
    random_triangle_problem,
)


class TestRegistry:
    def test_available_solvers_sorted_and_nonempty(self):
        names = available_solvers()
        assert names == sorted(names)
        assert "exact" in names and "dp-tree" in names

    def test_unknown_method_raises(self):
        with pytest.raises(SolverError, match="unknown method"):
            solve(figure1_problem_q4(), method="nope")

    def test_named_method_dispatch(self):
        sol = solve(figure1_problem_q4(), method="exact")
        assert sol.is_feasible()


class TestAutoDispatch:
    def test_single_deletion_route(self):
        sol = solve(figure1_problem_q4())
        assert sol.method == "single-deletion"
        assert sol.is_feasible()

    def test_non_key_preserving_falls_back_to_exact(self):
        sol = solve(figure1_problem())
        assert sol.method.startswith("exact")
        assert sol.is_feasible()

    def test_pivot_class_routes_to_dp(self, rng):
        problem = random_chain_problem(rng, delta_fraction=0.5)
        if problem.norm_delta_v == 1:
            pytest.skip("single deletion routes elsewhere")
        sol = solve(problem)
        assert sol.method == "dp-tree"
        assert sol.is_feasible()

    def test_forest_routes_to_tree_algorithms(self):
        rng = random.Random(101)
        for _ in range(10):
            problem = random_star_problem(
                rng, num_queries=3, max_leaves_per_query=3, delta_fraction=0.4
            )
            if problem.norm_delta_v <= 1:
                continue
            sol = solve(problem)
            assert sol.is_feasible()
            if sol.method in ("auto:primal-dual", "auto:lowdeg-tree-sweep"):
                return
        pytest.skip("no non-pivot forest instance hit the tree route")

    def test_general_routes_to_claim1(self):
        # Large enough that norm_v exceeds the exact-ILP route threshold.
        rng = random.Random(102)
        for _ in range(10):
            problem = random_triangle_problem(
                rng, center_facts=12, leaf_facts=20, delta_fraction=0.4
            )
            if problem.norm_delta_v <= 1:
                continue
            from repro.core.dp_tree import applies_to

            if applies_to(problem):
                continue
            sol = solve(problem)
            assert sol.method == "claim1-lowdeg"
            assert sol.is_feasible()
            return
        pytest.skip("no suitable triangle instance generated")

    def test_small_nonforest_routes_to_exact_ilp(self):
        rng = random.Random(102)
        for _ in range(10):
            problem = random_triangle_problem(rng, delta_fraction=0.5)
            if problem.norm_delta_v <= 1:
                continue
            from repro.core.dp_tree import applies_to

            if applies_to(problem):
                continue
            sol = solve(problem)
            assert sol.method == "exact-ilp"
            assert sol.is_feasible()
            return
        pytest.skip("no suitable triangle instance generated")

    def test_balanced_dispatch(self):
        rng = random.Random(103)
        problem = random_chain_problem(rng, balanced=True)
        sol = solve(problem)
        assert sol.method in ("dp-tree", "lemma1-posneg")

    def test_empty_delta_trivial(self, fig1_instance, fig1_q4):
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(fig1_instance, [fig1_q4], {})
        sol = solve(problem)
        assert sol.deleted_facts == frozenset()


class TestQuickstart:
    def test_package_level_quickstart(self):
        import repro

        problem, sol = repro.quickstart_example()
        assert sol.is_feasible()
        assert sol.side_effect() == 1.0


class TestSelfJoinDispatch:
    """Fuzzer regression: the Theorem 1 shape is key-preserving but its
    queries self-join one shared relation, so the data dual graph (and
    with it Algorithms 1, 3, 4) is undefined.  Auto dispatch used to
    crash with QueryError instead of falling through to Claim 1."""

    def _problem(self, seed=3):
        from repro.workloads import random_general_problem

        return random_general_problem(
            random.Random(seed), num_reds=3, num_blues=2, num_sets=3
        )

    def test_dp_applies_answers_no_instead_of_raising(self):
        from repro.core.dp_tree import applies_to

        problem = self._problem()
        assert not problem.is_self_join_free()
        assert applies_to(problem) is False

    def test_auto_dispatch_skips_tree_algorithms(self):
        problem = self._problem()
        # Structurally a forest case (one relation), but not sj-free:
        # dispatch must fall through the tree routes without raising.
        # Small and key-preserving, so it lands on the exact-ILP route.
        assert problem.is_forest_case()
        sol = solve(problem, method="auto")
        assert sol.method == "exact-ilp"
        assert sol.is_feasible()
        # Claim 1 remains available (and sound) when forced by name.
        forced = solve(problem, method="claim1")
        assert forced.is_feasible()


def _star(seed):
    return random_star_problem(
        random.Random(seed),
        num_queries=3,
        max_leaves_per_query=3,
        delta_fraction=0.4,
    )


class TestRouteTable:
    def test_route_plan_is_the_dispatched_route(self):
        from repro.fuzz.generator import CASE_KINDS, make_case

        for kind in CASE_KINDS:
            problem = make_case(kind, random.Random(17)).problem
            assert route_plan(problem).name == solve_report(problem).route

    def test_ilp_gate_is_fixed(self, monkeypatch):
        from dataclasses import replace

        from repro.core.session import SolveSession

        # The old environment override no longer moves the gate.
        monkeypatch.setenv("REPRO_ILP_NORM_V", "3")
        (route,) = [r for r in ROUTE_TABLE if r.name == "exact-ilp"]
        profile = SolveSession.of(figure1_problem_q4()).profile
        assert ILP_ROUTE_MAX_NORM_V == 64
        assert route.applies(replace(profile, norm_v=64))
        assert not route.applies(replace(profile, norm_v=65))

    def test_classify_and_dispatch_share_one_structural_scan(
        self, monkeypatch
    ):
        import repro.relational.analysis as analysis

        calls = {"n": 0}
        real = analysis.query_set_flags

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "query_set_flags", counting)
        from repro.core.classify import classification_flags, verdict

        problem = figure1_problem_q4()
        solve_report(problem)  # dispatch scans once...
        classification_flags(problem)  # ...classification reuses it
        verdict(problem)
        solve_report(problem)
        assert calls["n"] == 1


class TestDuelCertificate:
    def test_integer_weights_certify_up_to_ceil_dual(self):
        from repro.core.session import SolveSession

        session = SolveSession.of(_star(107))
        assert session.integer_weights()
        assert _duel_certificate(session, 1.0, 0.5) is not None
        assert _duel_certificate(session, 2.0, 0.5) is None
        # Float overshoot of an integral dual does not round it up.
        assert _duel_certificate(session, 2.0, 1.0 + 1e-12) is None

    def test_other_weights_never_certify_a_float_tie(self):
        from repro.core.problem import DeletionPropagationProblem
        from repro.core.session import SolveSession

        base = _star(107)
        deletions = {
            name: sorted(base.deletion.on(name))
            for name in base.views.names
            if base.deletion.on(name)
        }
        vt = base.preserved_view_tuples()[0]
        problem = DeletionPropagationProblem(
            base.instance, base.queries, deletions, weights={vt: 0.5}
        )
        session = SolveSession.of(problem)
        assert not session.integer_weights()
        assert _duel_certificate(session, 1.5, 1.5) is None
        assert _duel_certificate(session, 0.0, 0.0) is not None

    def test_integrality_is_computed_once_per_instance(self, monkeypatch):
        from repro.core.problem import DeletionPropagationProblem

        base = _star(107)
        assert solve_report(base).route == "forest-duel"
        deletions: dict = {}
        for vt in base.deleted_view_tuples()[:3]:
            deletions.setdefault(vt.view, []).append(vt.values)
        sibling = base.with_deletions(deletions)

        def rescan(self):
            raise AssertionError("integrality re-scanned the view tuples")

        monkeypatch.setattr(
            DeletionPropagationProblem, "all_view_tuples", rescan
        )
        assert solve_report(sibling).route == "forest-duel"
