"""Tests for Algorithm 4 (DPTreeVSE) — exactness on the pivot class."""

import random

import pytest

from repro.errors import NotKeyPreservingError, StructureError
from repro.core.dp_tree import applies_to, solve_dp_tree
from repro.core.exact import solve_exact, solve_exact_bruteforce
from repro.workloads import (
    figure1_problem,
    random_chain_problem,
    random_star_problem,
)


class TestPreconditions:
    def test_rejects_non_key_preserving(self):
        with pytest.raises(NotKeyPreservingError):
            solve_dp_tree(figure1_problem())

    def test_applies_to_is_nonraising(self):
        assert applies_to(figure1_problem()) is False

    def test_rejects_star_witnesses(self):
        rng = random.Random(41)
        for _ in range(20):
            problem = random_star_problem(
                rng, num_leaves=3, num_queries=2, max_leaves_per_query=3
            )
            wide_views = {
                q.name for q in problem.queries if len(q.body) >= 3
            }
            if wide_views and any(
                vt.view in wide_views for vt in problem.all_view_tuples()
            ):
                assert not applies_to(problem)
                with pytest.raises(StructureError):
                    solve_dp_tree(problem)
                return
        pytest.skip("no wide star instance generated")


class TestExactness:
    def test_matches_exact_on_chains(self):
        rng = random.Random(42)
        for _ in range(12):
            problem = random_chain_problem(rng)
            dp = solve_dp_tree(problem)
            optimum = solve_exact(problem)
            assert dp.is_feasible()
            assert dp.side_effect() == pytest.approx(optimum.side_effect())

    def test_matches_exact_weighted(self):
        rng = random.Random(43)
        for _ in range(8):
            problem = random_chain_problem(rng, weighted=True)
            dp = solve_dp_tree(problem)
            optimum = solve_exact(problem)
            assert dp.side_effect() == pytest.approx(optimum.side_effect())

    def test_matches_exact_balanced(self):
        rng = random.Random(44)
        for _ in range(8):
            problem = random_chain_problem(
                rng, num_relations=3, facts_per_relation=4, balanced=True
            )
            dp = solve_dp_tree(problem)
            optimum = solve_exact_bruteforce(problem)
            assert dp.balanced_cost() == pytest.approx(
                optimum.balanced_cost()
            )

    def test_balanced_weighted(self):
        rng = random.Random(45)
        for _ in range(5):
            problem = random_chain_problem(
                rng,
                num_relations=3,
                facts_per_relation=4,
                weighted=True,
                balanced=True,
            )
            dp = solve_dp_tree(problem)
            optimum = solve_exact_bruteforce(problem)
            assert dp.balanced_cost() == pytest.approx(
                optimum.balanced_cost()
            )


class TestDeterministicScenario:
    def test_shared_suffix_forces_tradeoff(
        self, chain_instance, chain_queries
    ):
        """Deleting R1(1:0, 2:0) kills the QA tuples of both 0:0 and
        0:1; deleting them individually is cheaper when only one is
        targeted."""
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(
            chain_instance,
            chain_queries,
            {"QA": [("0:0", "1:0", "2:0")]},
        )
        dp = solve_dp_tree(problem)
        assert dp.is_feasible()
        optimum = solve_exact(problem)
        assert dp.side_effect() == pytest.approx(optimum.side_effect())
        # best: delete R0(0:0, 1:0) — zero collateral
        assert dp.side_effect() == 0.0

    def test_multi_delta_on_shared_structure(
        self, chain_instance, chain_queries
    ):
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(
            chain_instance,
            chain_queries,
            {
                "QA": [
                    ("0:0", "1:0", "2:0"),
                    ("0:1", "1:0", "2:0"),
                ],
                "QB": [("1:1", "2:0", "pad0")],
            },
        )
        dp = solve_dp_tree(problem)
        optimum = solve_exact(problem)
        assert dp.is_feasible()
        assert dp.side_effect() == pytest.approx(optimum.side_effect())


# ----------------------------------------------------------------------
# ΔV-local restriction: only components holding a ΔV tuple are solved
# ----------------------------------------------------------------------


def _deletions(problem):
    out: dict = {}
    for vt in problem.deleted_view_tuples():
        out.setdefault(vt.view, []).append(vt.values)
    return out


def _variants(problem, rng):
    """The standard problem plus a weighted twin (zero weights on some
    preserved tuples) and a balanced twin over the same data."""
    from repro.core.problem import (
        BalancedDeletionPropagationProblem,
        DeletionPropagationProblem,
    )

    weights = {
        vt: rng.choice((0.0, 0.0, 0.5, 1.0, 3.0))
        for vt in problem.preserved_view_tuples()
    }
    # Weights whose sums round, so a changed addition order would show.
    fractional = {
        vt: rng.choice((0.1, 1 / 3, 0.7, 2.2, 0.0))
        for vt in problem.preserved_view_tuples()
    }
    deletions = _deletions(problem)
    return {
        "standard": problem,
        "weighted": DeletionPropagationProblem(
            problem.instance, problem.queries, deletions, weights
        ),
        "balanced": BalancedDeletionPropagationProblem(
            problem.instance,
            problem.queries,
            deletions,
            weights,
            delta_penalty=rng.choice((0.5, 1.0, 2.5)),
        ),
        "fractional": DeletionPropagationProblem(
            problem.instance, problem.queries, deletions, fractional
        ),
        "fractional-balanced": BalancedDeletionPropagationProblem(
            problem.instance,
            problem.queries,
            deletions,
            fractional,
            delta_penalty=rng.choice((0.3, 1 / 3, 1.1)),
        ),
    }


def _all_components(problem):
    """The pre-restriction DP: every component of the rooted layout."""
    from repro.core.dp_tree import _solve_component
    from repro.core.session import SolveSession

    session = SolveSession.of(problem)
    penalty = (
        problem.delta_penalty if session.profile.balanced else float("inf")
    )
    delta = frozenset(problem.deleted_view_tuples())
    deleted = set()
    for component in session.rooted_components():
        deleted |= _solve_component(problem, component, delta, penalty)
    return frozenset(deleted)


def _dp_tree_cases():
    from repro.fuzz.generator import CASE_KINDS, make_case

    cases = []
    for kind in CASE_KINDS:
        for seed in range(6):
            problem = make_case(kind, random.Random(seed)).problem
            if applies_to(problem):
                cases.append(pytest.param(problem, id=f"{kind}-{seed}"))
    return cases


class TestDeltaLocal:
    @pytest.mark.parametrize("problem", _dp_tree_cases())
    def test_matches_all_component_loop(self, problem):
        variants = _variants(problem, random.Random(7))
        for name, variant in variants.items():
            assert solve_dp_tree(variant).deleted_facts == _all_components(
                variant
            ), name

    def test_fuzz_shapes_are_covered(self):
        kinds = {case.id.rsplit("-", 1)[0] for case in _dp_tree_cases()}
        assert {
            "chain",
            "star",
            "forest",
            "weight-ties",
            "empty-delta",
            "single-delta",
            "balanced",
        } <= kinds

    def test_delta_free_component_deletes_nothing(self):
        from repro.core.dp_tree import _solve_component
        from repro.core.session import SolveSession
        from repro.workloads import scaling_problem

        problem = scaling_problem(random.Random(3), facts_per_relation=40)
        one = problem.deleted_view_tuples()[0]
        variant = problem.with_deletions({one.view: [one.values]})
        session = SolveSession.of(variant)
        components = session.rooted_components()
        touched = session.component_index()[one]
        free = [c for i, c in enumerate(components) if i != touched]
        assert free, "instance must have a ΔV-free component"
        delta = frozenset(variant.deleted_view_tuples())
        for component in free:
            assert _solve_component(
                variant, component, delta, float("inf")
            ) == set()
        assert solve_dp_tree(variant).deleted_facts == _all_components(
            variant
        )

    def test_component_index_shared_across_siblings(self):
        from repro.core.session import SolveSession
        from repro.workloads import scaling_problem

        problem = scaling_problem(random.Random(4), facts_per_relation=30)
        base = SolveSession.of(problem)
        one = problem.deleted_view_tuples()[0]
        sibling = SolveSession.of(
            problem.with_deletions({one.view: [one.values]})
        )
        assert sibling.component_index() is base.component_index()
        assert set(base.component_index()) == set(problem.all_view_tuples())

    def test_attached_session_matches_local(self):
        from repro.core.session import SolveSession
        from repro.core.shm import attach_session
        from repro.workloads import scaling_problem

        problem = scaling_problem(random.Random(5), facts_per_relation=40)
        session = SolveSession.of(problem)
        try:
            manifest = session.export_shm()
        except Exception as exc:  # no usable POSIX shared memory
            pytest.skip(f"shared memory unavailable: {exc}")
        attached = attach_session(manifest)
        try:
            rng = random.Random(6)
            pool = problem.deleted_view_tuples()
            for _ in range(5):
                request: dict = {}
                for vt in rng.sample(pool, k=min(3, len(pool))):
                    request.setdefault(vt.view, []).append(vt.values)
                remote = attached.problem.with_deletions(request)
                local = problem.with_deletions(request)
                assert solve_dp_tree(remote).deleted_facts == (
                    _all_components(local)
                )
            assert SolveSession.of(remote).component_index() is (
                attached.component_index()
            )
        finally:
            attached.close()
            session.close()


# ----------------------------------------------------------------------
# Table DP vs the object-graph DP it replaced
# ----------------------------------------------------------------------


def _reference_solve_component(problem, component, delta, penalty):
    """Algorithm 4's DP over one component as it ran before the index
    tables: dicts keyed by fact, the cut cost recomputed per state."""
    no_ancestor = -1
    depth = component.depth
    by_bottom = {}
    for segment in component.segments:
        by_bottom.setdefault(segment.bottom, []).append(segment)

    def local_cost(fact, nearest_deleted_depth):
        cost = 0.0
        for segment in by_bottom.get(fact, ()):
            killed = (
                nearest_deleted_depth != no_ancestor
                and nearest_deleted_depth >= depth[segment.top]
            )
            if segment.view_tuple in delta:
                if not killed:
                    cost += penalty
            elif killed:
                cost += problem.weight(segment.view_tuple)
        return cost

    f = {}
    choice = {}
    for fact in component.postorder():
        f[fact] = {}
        choice[fact] = {}
        for state in [no_ancestor] + list(range(depth[fact])):
            keep = local_cost(fact, state)
            for child in component.children.get(fact, ()):
                keep += f[child][state]
            cut = local_cost(fact, depth[fact])
            for child in component.children.get(fact, ()):
                cut += f[child][depth[fact]]
            if cut < keep:
                f[fact][state] = cut
                choice[fact][state] = True
            else:
                f[fact][state] = keep
                choice[fact][state] = False

    deleted = set()
    stack = [(component.pivot, no_ancestor)]
    while stack:
        fact, state = stack.pop()
        if choice[fact][state]:
            deleted.add(fact)
            child_state = depth[fact]
        else:
            child_state = state
        for child in component.children.get(fact, ()):
            stack.append((child, child_state))
    return deleted


class TestTableDP:
    @pytest.mark.parametrize("problem", _dp_tree_cases())
    def test_matches_object_graph_reference(self, problem):
        from repro.core.dp_tree import _solve_component
        from repro.core.session import SolveSession

        for name, variant in _variants(problem, random.Random(11)).items():
            session = SolveSession.of(variant)
            penalty = (
                variant.delta_penalty
                if session.profile.balanced
                else float("inf")
            )
            delta = frozenset(variant.deleted_view_tuples())
            expected = set()
            for component in session.rooted_components():
                reference = _reference_solve_component(
                    variant, component, delta, penalty
                )
                assert _solve_component(
                    variant, component, delta, penalty
                ) == reference, name
                expected |= reference
            assert solve_dp_tree(variant).deleted_facts == expected, name
