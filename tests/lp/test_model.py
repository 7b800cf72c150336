"""Tests for the compiled LP type (``optimize cost·v s.t. matrix·v <=
bound, 0 <= v <= upper``) that backs the paper's primal and dual."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import SolverError
from repro.lp import CompiledLP


def _lp(cost, rows, bound, upper=None):
    matrix = np.array(rows, dtype=float).reshape(len(rows), len(cost))
    return CompiledLP(
        np.array(cost, dtype=float),
        sparse.csr_matrix(matrix),
        np.array(bound, dtype=float),
        upper,
    )


class TestModel:
    def test_simple_minimization(self):
        # min x + 2y  s.t.  x + y >= 4
        solution = _lp([1.0, 2.0], [[-1.0, -1.0]], [-4.0]).solve()
        assert solution.objective == pytest.approx(4.0)
        assert solution.values[0] == pytest.approx(4.0)

    def test_maximization(self):
        solution = _lp([1.0], [], [], upper=3.0).solve(maximize=True)
        assert solution.objective == pytest.approx(3.0)

    def test_leq_constraint(self):
        solution = _lp([-1.0], [[1.0]], [5.0]).solve()
        assert solution.values[0] == pytest.approx(5.0)

    def test_maximization_objective_sign(self):
        # The maximize path negates c for linprog and must negate the
        # reported objective back: a mixed-sign objective catches a
        # missing un-negation that a single positive variable would not.
        lp = _lp([2.0, -5.0], [[1.0, 0.0], [0.0, 1.0]], [3.0, 4.0])
        solution = lp.solve(maximize=True)
        assert solution.objective == pytest.approx(6.0)
        assert solution.values[0] == pytest.approx(3.0)
        assert solution.values[1] == pytest.approx(0.0)

    def test_infeasible_raises(self):
        with pytest.raises(SolverError):
            _lp([0.0], [[-1.0]], [-2.0], upper=1.0).solve()

    def test_unbounded_raises(self):
        with pytest.raises(SolverError):
            _lp([-1.0], [], []).solve()

    def test_empty_program(self):
        # Fast path: no variables means no linprog call at all.
        solution = _lp([], [], []).solve()
        assert solution.objective == 0.0
        assert solution.values.size == 0

    def test_dual_is_the_transpose(self):
        # min x + 2y s.t. x + y >= 4 has dual max 4u s.t. u <= 1, u <= 2.
        primal = _lp([1.0, 2.0], [[-1.0, -1.0]], [-4.0])
        dual = primal.dual()
        assert (dual.matrix.toarray() == [[1.0], [1.0]]).all()
        assert dual.solve(maximize=True).objective == pytest.approx(4.0)
