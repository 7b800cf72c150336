"""Tests for Propagation accounting (side-effect, balanced cost)."""

import pytest

from repro.errors import ProblemError
from repro.relational import Fact, ViewTuple
from repro.core.problem import BalancedDeletionPropagationProblem
from repro.core.solution import Propagation
from repro.workloads import (
    figure1_instance,
    figure1_problem,
    figure1_queries,
    figure1_schema,
)


@pytest.fixture
def problem():
    return figure1_problem()


class TestFeasibility:
    def test_empty_solution_infeasible_when_delta_nonempty(self, problem):
        sol = Propagation(problem, ())
        assert not sol.is_feasible()
        assert sol.objective() == float("inf")

    def test_paper_solution_feasible(self, problem):
        sol = Propagation(
            problem,
            [Fact("T1", ("John", "TKDE")), Fact("T1", ("John", "TODS"))],
        )
        assert sol.is_feasible()

    def test_partial_witness_hit_infeasible(self, problem):
        sol = Propagation(problem, [Fact("T1", ("John", "TKDE"))])
        assert not sol.is_feasible()
        assert ViewTuple("Q3", ("John", "XML")) in sol.surviving_delta

    def test_deleting_unknown_fact_rejected(self, problem):
        with pytest.raises(ProblemError):
            Propagation(problem, [Fact("T1", ("Martian", "Nowhere"))])


class TestSideEffect:
    def test_paper_solution_a_side_effect_one(self, problem):
        sol = Propagation(
            problem,
            [Fact("T1", ("John", "TKDE")), Fact("T1", ("John", "TODS"))],
        )
        assert sol.side_effect() == 1.0
        assert sol.collateral == {ViewTuple("Q3", ("John", "CUBE"))}

    def test_paper_solution_b_side_effect_one(self, problem):
        sol = Propagation(
            problem,
            [Fact("T1", ("John", "TKDE")), Fact("T2", ("TODS", "XML", 30))],
        )
        assert sol.side_effect() == 1.0

    def test_expensive_solution(self, problem):
        sol = Propagation(
            problem,
            [Fact("T2", ("TKDE", "XML", 30)), Fact("T2", ("TODS", "XML", 30))],
        )
        assert sol.is_feasible()
        # kills (Joe,XML), (Tom,XML) as collateral
        assert sol.side_effect() == 2.0

    def test_weighted_side_effect(self):
        schema = figure1_schema()
        q3, _ = figure1_queries(schema)
        from repro.core.problem import DeletionPropagationProblem

        problem = DeletionPropagationProblem(
            figure1_instance(schema),
            [q3],
            {"Q3": [("John", "XML")]},
            weights={("Q3", ("John", "CUBE")): 7.0},
        )
        sol = Propagation(
            problem,
            [Fact("T1", ("John", "TKDE")), Fact("T1", ("John", "TODS"))],
        )
        assert sol.side_effect() == 7.0


class TestBalancedCost:
    def test_balanced_counts_unremoved_delta(self):
        schema = figure1_schema()
        q3, _ = figure1_queries(schema)
        problem = BalancedDeletionPropagationProblem(
            figure1_instance(schema),
            [q3],
            {"Q3": [("John", "XML")]},
            delta_penalty=2.0,
        )
        empty = Propagation(problem, ())
        assert empty.balanced_cost() == 2.0
        assert empty.objective() == 2.0

    def test_balanced_counts_collateral(self):
        schema = figure1_schema()
        q3, _ = figure1_queries(schema)
        problem = BalancedDeletionPropagationProblem(
            figure1_instance(schema), [q3], {"Q3": [("John", "XML")]}
        )
        sol = Propagation(
            problem,
            [Fact("T1", ("John", "TKDE")), Fact("T1", ("John", "TODS"))],
        )
        assert sol.balanced_cost() == 1.0  # 0 surviving + 1 collateral


class TestCrossValidation:
    def test_witness_accounting_matches_reevaluation(self, problem):
        solutions = [
            (),
            [Fact("T1", ("John", "TKDE"))],
            [Fact("T1", ("John", "TKDE")), Fact("T1", ("John", "TODS"))],
            [Fact("T2", ("TKDE", "XML", 30))],
            [Fact("T2", ("TKDE", "XML", 30)), Fact("T2", ("TKDE", "CUBE", 30))],
        ]
        for facts in solutions:
            assert Propagation(problem, facts).verify_by_reevaluation()

    def test_equality_and_hash(self, problem):
        a = Propagation(problem, [Fact("T1", ("John", "TKDE"))])
        b = Propagation(problem, [Fact("T1", ("John", "TKDE"))])
        assert a == b and hash(a) == hash(b)

    def test_summary_mentions_feasibility(self, problem):
        sol = Propagation(problem, ())
        assert "INFEASIBLE" in sol.summary()


_RENDER_WEIGHTED = """
import json, random
from repro.core import solve
from repro.io.serialize import solution_to_dict
from repro.workloads import random_chain_problem
rng = random.Random(7)
docs = [
    solution_to_dict(solve(random_chain_problem(rng, weighted=True)))
    for _ in range(60)
]
print(json.dumps(docs, sort_keys=True))
"""


def test_weighted_documents_independent_of_hash_seed():
    """Float objectives fold over frozensets; the rendered solution
    must not depend on their iteration order, i.e. on the interpreter's
    hash seed (a served answer is compared byte for byte with a local
    one solved in another process)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _RENDER_WEIGHTED],
            capture_output=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
