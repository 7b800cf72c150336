"""SolveSession, StructureProfile, and route-table dispatch tests.

Covers the compile-once session contract: one structure profile and one
witness arena per instance, ΔV rebinds that share the base's storage
instead of recompiling, the declarative route table reaching every
registered solver, and forced-vs-auto parity on one representative
problem per fuzz generator shape.
"""

import random

import pytest

from repro.core.arena import CompiledProblem
from repro.core.problem import DeletionPropagationProblem
from repro.core.registry import ROUTE_TABLE, SOLVERS, solve, solve_report
from repro.core.session import SolveSession
from repro.fuzz.generator import CASE_KINDS, make_case
from repro.workloads import (
    figure1_problem,
    figure1_problem_q4,
    random_chain_problem,
    random_problem,
    random_single_query_problem,
    random_star_problem,
    random_triangle_problem,
)


def _chain(seed, **kwargs):
    return random_chain_problem(random.Random(seed), **kwargs)


class TestSessionCaching:
    def test_of_returns_same_session(self):
        problem = figure1_problem_q4()
        assert SolveSession.of(problem) is SolveSession.of(problem)

    def test_profile_matches_problem_predicates(self):
        for problem in (
            figure1_problem(),
            figure1_problem_q4(),
            _chain(5, delta_fraction=0.5),
        ):
            profile = SolveSession.of(problem).profile
            assert profile.key_preserving == problem.is_key_preserving()
            assert profile.self_join_free == problem.is_self_join_free()
            assert profile.forest_case == problem.is_forest_case()
            assert profile.norm_v == problem.norm_v
            assert profile.norm_delta_v == problem.norm_delta_v
            assert profile.max_arity == problem.max_arity

    def test_profile_dp_tree_flag_matches_applies_to(self):
        from repro.core.dp_tree import applies_to

        for seed in range(6):
            problem = _chain(seed, delta_fraction=0.5)
            assert SolveSession.of(problem).profile.dp_tree_applies == (
                applies_to(problem)
            )

    def test_arena_is_sessions_arena(self):
        problem = _chain(7)
        session = SolveSession.of(problem)
        assert session.arena is CompiledProblem.of(problem)


class TestRebindSharing:
    """Satellite: ΔV rebinds must reuse the base's compiled arena."""

    def _base_and_clone(self, seed=11):
        problem = _chain(seed, delta_fraction=0.5)
        arena = CompiledProblem.of(problem)
        vts = sorted(problem.all_view_tuples())
        request = {vts[0].view: [list(vts[0].values)]}
        return problem, arena, problem.with_deletions(request)

    def test_rebind_shares_arena_storage_identity(self):
        problem, arena, clone = self._base_and_clone()
        rebound = CompiledProblem.of(clone)
        assert rebound is not arena
        # ΔV-independent storage is the *same object*, not a copy.
        assert rebound.facts is arena.facts
        assert rebound.fact_ids is arena.fact_ids
        assert rebound.view_tuples is arena.view_tuples
        assert rebound.vt_ids is arena.vt_ids
        assert rebound.dep_indices is arena.dep_indices
        assert rebound.dep_of is arena.dep_of
        assert rebound.dep_set_of is arena.dep_set_of
        assert rebound.wit_of is arena.wit_of
        assert rebound.weights is arena.weights
        # Only the ΔV binding differs.
        assert rebound.num_delta != arena.num_delta or (
            rebound.delta_ids == arena.delta_ids
        )

    def test_rebind_is_lazy_no_recompile(self, monkeypatch):
        problem, arena, clone = self._base_and_clone()
        # with_deletions defers the rebind to the first solver that asks,
        # and that solver gets a rebound arena, never a recompile.
        assert "_compiled_arena" not in clone.__dict__
        compiles = []
        init = CompiledProblem.__init__

        def counting_init(self, *args, **kwargs):
            compiles.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CompiledProblem, "__init__", counting_init)
        assert CompiledProblem.of(clone).facts is arena.facts
        grandchild = clone.with_deletions({})
        assert CompiledProblem.of(grandchild).facts is arena.facts
        assert compiles == []

    def test_rebound_delta_matches_request(self):
        problem, arena, clone = self._base_and_clone()
        rebound = CompiledProblem.of(clone)
        expected = {
            rebound.vt_ids[vt] for vt in clone.deleted_view_tuples()
        }
        assert set(rebound.delta_ids) == expected
        assert set(rebound.preserved_ids) == (
            set(range(rebound.num_view_tuples)) - expected
        )

    def test_rebind_shares_session_artifacts(self):
        problem, arena, clone = self._base_and_clone()
        base_session = SolveSession.of(problem)
        clone_session = SolveSession.of(clone)
        assert clone_session is not base_session
        assert clone_session._shared is base_session._shared
        base_profile = base_session.profile
        clone_profile = clone_session.profile
        assert clone_profile.norm_delta_v == clone.norm_delta_v
        assert clone_profile.key_preserving == base_profile.key_preserving
        assert clone_profile.forest_case == base_profile.forest_case

    def test_artifacts_built_on_variant_serve_the_base(self):
        problem, arena, clone = self._base_and_clone()
        if not SolveSession.of(problem).profile.dp_tree_applies:
            pytest.skip("workload shape changed; needs the forest case")
        clone_session = SolveSession.of(clone)
        graph = clone_session.data_dual()
        # Built via the variant, visible from the base: one build total.
        assert SolveSession.of(problem).data_dual() is graph

    def test_solutions_identical_with_and_without_shared_base(self):
        problem, arena, clone = self._base_and_clone()
        fresh = DeletionPropagationProblem(
            problem.instance,
            list(problem.queries),
            {
                name: [list(v) for v in sorted(clone.deletion.on(name))]
                for name in clone.views.names
                if clone.deletion.on(name)
            },
            weights=dict(problem._weights),
        )
        assert solve(clone).deleted_facts == solve(fresh).deleted_facts


class TestPerRequestWork:
    """Pins, as counts, what a served ΔV request does not redo: no arena
    rebind on the dp-tree route, one DP table per component per
    instance, one CRC trace fingerprint per instance."""

    def test_serial_delta_batch_reuses_instance_constants(
        self, monkeypatch, tmp_path
    ):
        from collections import Counter

        from repro.core import dp_tree, session as session_module
        from repro.core.portfolio import _prime_session, run_delta_batch
        from repro.core.tracestore import (
            TRACE_DIR_ENV,
            TRACE_ENV,
            reset_default_store,
        )
        from repro.workloads import scaling_problem

        monkeypatch.delenv(TRACE_ENV, raising=False)
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "traces"))
        reset_default_store()
        counts: Counter = Counter()
        compiled: Counter = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            CompiledProblem,
            "rebound",
            counting("rebound", CompiledProblem.rebound),
        )
        monkeypatch.setattr(
            session_module,
            "_crc_fingerprint",
            counting("crc", session_module._crc_fingerprint),
        )
        compile_component = dp_tree._compile_component

        def counting_compile(component):
            compiled[id(component)] += 1
            return compile_component(component)

        monkeypatch.setattr(dp_tree, "_compile_component", counting_compile)

        problem = scaling_problem(random.Random(8), facts_per_relation=40)
        base = _prime_session(problem)
        pool = problem.all_view_tuples()
        rng = random.Random(9)
        requests = []
        for _ in range(12):
            request: dict = {}
            for vt in rng.sample(pool, 3):
                request.setdefault(vt.view, []).append(list(vt.values))
            requests.append(request)
        try:
            outcomes = run_delta_batch(problem, requests, max_workers=0)
        finally:
            reset_default_store()

        assert all(outcome.ok for outcome in outcomes)
        assert {outcome.route for outcome in outcomes} == {"dp-tree"}
        components = base.rooted_components()
        index = base.component_index()
        touched = {
            id(components[index[vt]])
            for outcome in outcomes
            for vt in outcome.propagation.problem.deleted_view_tuples()
        }
        assert counts["rebound"] == 0
        assert set(compiled) == touched
        assert set(compiled.values()) == {1}
        assert counts["crc"] <= 1


class TestRouteTable:
    """Satellite: every route (and every registered solver) reachable."""

    def _route_battery(self):
        problems = [
            figure1_problem(),  # exact-fallback (not key-preserving)
            figure1_problem_q4(),  # single-deletion
            DeletionPropagationProblem(
                figure1_problem_q4().instance,
                list(figure1_problem_q4().queries),
                {},
            ),  # trivial
        ]
        for seed in range(12):
            problems.append(_chain(seed, delta_fraction=0.5))  # dp-tree
            problems.append(
                random_star_problem(
                    random.Random(100 + seed),
                    num_queries=3,
                    max_leaves_per_query=3,
                    delta_fraction=0.4,
                )
            )  # forest-duel on non-pivot shapes
            problems.append(
                random_triangle_problem(
                    random.Random(200 + seed), delta_fraction=0.5
                )
            )  # exact-ilp (small non-forest, key-preserving)
            problems.append(
                random_triangle_problem(
                    random.Random(500 + seed),
                    center_facts=12,
                    leaf_facts=20,
                    delta_fraction=0.4,
                )
            )  # general (norm_v above the ILP route threshold)
            problems.append(_chain(300 + seed, balanced=True))  # balanced-dp
            problems.append(
                random_problem(random.Random(400 + seed), balanced=True)
            )  # balanced (non-pivot shapes included in the mix)
        return problems

    def test_every_route_is_taken_by_some_problem(self):
        hit = set()
        for problem in self._route_battery():
            hit.add(solve_report(problem).route)
        assert hit == {route.name for route in ROUTE_TABLE}

    def test_catch_all_terminates_table(self):
        assert ROUTE_TABLE[-1].name == "general"
        # The last predicate accepts every profile (dispatch total).
        profile = SolveSession.of(figure1_problem_q4()).profile
        assert ROUTE_TABLE[-1].applies(profile)

    def test_every_registered_solver_is_reachable(self):
        battery = [
            figure1_problem(),
            figure1_problem_q4(),
            _chain(1, delta_fraction=0.5),
            _chain(2, balanced=True),
            random_star_problem(random.Random(3)),
            random_triangle_problem(random.Random(4)),
            random_single_query_problem(
                random.Random(5), num_atoms=2, delta_size=1
            ),
        ]
        unreached = []
        for name in SOLVERS:
            for problem in battery:
                try:
                    propagation = solve(problem, method=name)
                except Exception:
                    continue
                assert propagation.deleted_facts is not None
                break
            else:
                unreached.append(name)
        assert not unreached, f"no battery problem reaches {unreached}"


#: Route-table entry -> the registry name that forces the same solver.
_FORCED_OF_ROUTE = {
    "general": "claim1",
    "balanced": "balanced-lowdeg",
    "balanced-dp": "dp-tree",
    "dp-tree": "dp-tree",
    "single-deletion": "single-deletion",
    "exact-fallback": "exact",
    "exact-ilp": "exact-ilp",
}
_FORCED_OF_DUEL = {
    "auto:primal-dual": "primal-dual",
    "auto:lowdeg-tree-sweep": "lowdeg-tree",
}


class TestForcedVsAutoParity:
    """Satellite: on one representative per fuzz generator shape, the
    auto route and the same solver forced by name agree exactly."""

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_parity(self, kind):
        problem = make_case(kind, random.Random(17)).problem
        report = solve_report(problem)
        if report.route == "trivial":
            assert report.propagation.deleted_facts == frozenset()
            return
        if report.route == "forest-duel":
            forced_name = _FORCED_OF_DUEL[report.method]
        else:
            forced_name = _FORCED_OF_ROUTE[report.route]
        forced = solve(problem, method=forced_name)
        assert forced.deleted_facts == report.propagation.deleted_facts


def _forest_duels():
    """``(problem, report)`` for each star instance in a fixed seed
    range that auto dispatch sends to the forest duel."""
    for seed in range(101, 140):
        problem = random_star_problem(
            random.Random(seed),
            num_queries=3,
            max_leaves_per_query=3,
            delta_fraction=0.4,
        )
        report = solve_report(problem)
        if report.route == "forest-duel":
            yield problem, report


class TestSolveReport:
    def test_forced_report_has_single_stage_trace(self):
        report = solve_report(figure1_problem_q4(), method="exact")
        assert report.route == "forced:exact"
        assert len(report.trace) == 1
        assert report.trace[0].chosen
        assert report.total_seconds() >= 0.0
        assert "exact" in report.summary()

    def test_auto_report_carries_profile(self):
        report = solve_report(figure1_problem_q4())
        assert report.profile.key_preserving
        assert report.profile.norm_delta_v == 1
        assert report.method == report.propagation.method

    def test_forest_duel_trace_keeps_both_candidates(self):
        for _, report in _forest_duels():
            if report.note is not None:
                continue  # certified: Algorithm 3 never ran
            assert report.method.startswith("auto:")
            assert len(report.trace) == 2
            chosen = [stage for stage in report.trace if stage.chosen]
            losers = [stage for stage in report.trace if not stage.chosen]
            assert len(chosen) == 1 and len(losers) == 1
            # The losing candidate's cost is preserved, not discarded,
            # and the winner is no worse.
            assert chosen[0].objective <= losers[0].objective
            assert f"auto:{chosen[0].method}" == report.method
            return
        pytest.fail("no uncertified forest duel found in the seed range")

    def test_certified_duel_runs_one_stage_and_matches_the_full_duel(self):
        from repro.core.lowdeg_tree import solve_lowdeg_tree_sweep
        from repro.core.primal_dual import solve_primal_dual

        for problem, report in _forest_duels():
            if report.note is None:
                continue
            assert report.note.startswith("certified: ")
            assert len(report.trace) == 1 and report.trace[0].chosen
            assert report.note in report.summary()
            # The forced full duel: both candidates, first minimum kept.
            full = min(
                (solve_primal_dual(problem), solve_lowdeg_tree_sweep(problem)),
                key=lambda candidate: candidate.side_effect(),
            )
            assert report.propagation.deleted_facts == full.deleted_facts
            assert report.method == f"auto:{full.method}"
            return
        pytest.fail("no certified forest duel found in the seed range")

    def test_statistics_accepts_report(self):
        from repro.core.statistics import solver_statistics

        report = solve_report(figure1_problem_q4())
        stats = solver_statistics(report)
        assert stats.method == report.method
