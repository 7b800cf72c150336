"""The paper's LP formulations (Section IV.C, formulas (1)–(10)),
compiled from the arena's witness incidence.

Primal (1)–(5), for key-preserving problems::

    minimize   Σ_{r ∈ R} w_r · x_r                                (1)
    s.t.       k_r · x_r − Σ_{t ∈ r} y_t  >=  0    ∀ r ∈ R        (2)
               Σ_{t ∈ r} y_t              >=  1    ∀ r ∈ ΔV       (3)
               y_t >= 0, x_r >= 0                                 (4)(5)

``x_r`` indicates accidental elimination of a preserved view tuple,
``y_t`` deletion of a source fact, ``k_r`` the witness size of ``r``.
(The paper's displayed (3) reads ``k_r·x_r − Σ y_t >= 1``; ΔV tuples
carry no ``x`` variable, so we implement the evident intent — each
deleted view tuple must lose at least one joined fact.)

Both blocks are slices of the one vt × fact incidence matrix the exact
ILP compiles from (:func:`repro.lp.ilp.candidate_incidence`): ``y``
columns are the candidate facts in ascending fact-ID order, ``x``
columns every preserved view tuple in ascending vt-ID order (which is
``preserved_view_tuples()`` order), rows (2) the preserved tuples with a
candidate fact in their witness, then rows (3).  The ``[0, 1]`` bounds
on the primal never bind at an optimum (a covering term is already
saturated at 1, and then ``x_r <= |wit(r) ∩ C| / k_r <= 1``).

The dual (6)–(10) is the transpose of the same blocks::

    maximize   Σ_{r ∈ ΔV} v_r
    s.t.       k_r · v_r <= w_r                    ∀ r ∈ R        (7)
               Σ_{ΔV ∋ t} v_r − Σ_{R ∋ t} v_s <= 0  ∀ t ∈ C        (8)

so primal and dual cannot drift apart.  The LP optimum lower-bounds the
integer optimum, so :func:`lp_lower_bound` serves as ground truth on
instances too large for the exact solvers; tests verify strong duality
and that the ``PrimeDualVSE`` trace is dual feasible.

Note that this is *not* ``compile_ilp`` with integrality dropped: the
ILP's per-(r, t) linking rows ``x_r − y_t >= 0`` give a tighter LP than
the aggregated row (2), and the rounding ratios are proven against (2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

# Imported eagerly on purpose: moving it changes what ``import repro``
# loads, which is the separate cold-start item in ROADMAP.md.
from scipy.optimize import linprog

from repro.errors import NotKeyPreservingError, SolverError
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.lp.ilp import candidate_incidence

__all__ = [
    "CompiledLP",
    "LPOptimum",
    "dual_vse_lp",
    "lp_lower_bound",
    "primal_vse_lp",
]


@dataclass(frozen=True)
class LPOptimum:
    """An optimal LP solution: objective value and variable values."""

    objective: float
    values: np.ndarray


@dataclass(frozen=True)
class CompiledLP:
    """``optimize cost·v  s.t.  matrix·v <= bound,  0 <= v <= upper``
    (``upper=None`` leaves ``v`` unbounded above)."""

    cost: np.ndarray
    matrix: "sparse.csr_matrix"
    bound: np.ndarray
    upper: float | None = None

    def solve(self, maximize: bool = False) -> LPOptimum:
        """Solve with HiGHS; raises :class:`SolverError` on infeasible or
        unbounded programs.  An LP without variables has optimum 0."""
        if self.cost.size == 0:
            return LPOptimum(0.0, self.cost)
        sign = -1.0 if maximize else 1.0
        result = linprog(
            sign * self.cost,
            A_ub=self.matrix,
            b_ub=self.bound,
            bounds=(0.0, self.upper),
            method="highs",
        )
        if not result.success:
            raise SolverError(f"LP solve failed: {result.message}")
        return LPOptimum(sign * float(result.fun), result.x)

    def dual(self) -> "CompiledLP":
        """The LP dual of ``min cost·v, matrix·v <= bound, v >= 0``
        (solve it with ``maximize=True``)."""
        return CompiledLP(-self.bound, -self.matrix.T.tocsr(), self.cost)


def primal_vse_lp(problem: DeletionPropagationProblem) -> CompiledLP:
    """The primal LP (1)–(5) in ``<=`` form over ``[y | x]`` (see the
    module docstring for the layout).  Facts outside the candidate set
    get no ``y`` column: deleting them is never useful and only loosens
    the relaxation."""
    session = SolveSession.of(problem)
    if not session.profile.key_preserving:
        raise NotKeyPreservingError(
            "the LP formulation requires key-preserving queries"
        )
    arena = session.arena
    witness = candidate_incidence(session)
    preserved = np.flatnonzero(~arena.delta_mask)
    at_risk = np.flatnonzero(np.diff(witness.indptr)[preserved])
    linked = preserved[at_risk]
    num_linked, num_y = int(at_risk.size), witness.shape[1]
    # One gather of the incidence rows, rows (2) then rows (3), in the
    # ``<=`` form: (2) is Σ y_t − k_r·x_r <= 0 and (3) is −Σ y_t <= −1.
    # The x entry trails its row's y entries, so the CSR stays sorted.
    block = witness[np.concatenate([linked, arena.delta_ids_np])].tocoo()
    size = np.diff(arena.wit_offsets)[linked].astype(np.float64)
    matrix = sparse.csr_matrix(
        (
            np.concatenate([np.where(block.row < num_linked, 1.0, -1.0), -size]),
            (
                np.concatenate([block.row, np.arange(num_linked)]),
                np.concatenate([block.col, num_y + at_risk]),
            ),
        ),
        shape=(num_linked + arena.num_delta, num_y + preserved.size),
    )
    return CompiledLP(
        cost=np.concatenate([np.zeros(num_y), arena.weights[preserved]]),
        matrix=matrix,
        bound=np.concatenate([np.zeros(num_linked), -np.ones(arena.num_delta)]),
        upper=1.0,
    )


def dual_vse_lp(problem: DeletionPropagationProblem) -> CompiledLP:
    """The dual LP (6)–(10): one variable per primal row, maximize
    ``Σ_{r ∈ ΔV} v_r`` — the transpose of :func:`primal_vse_lp`."""
    return primal_vse_lp(problem).dual()


def lp_lower_bound(problem: DeletionPropagationProblem) -> float:
    """Optimum of the primal relaxation — a lower bound on the minimum
    view side-effect, used by the larger ratio experiments."""
    return primal_vse_lp(problem).solve().objective
