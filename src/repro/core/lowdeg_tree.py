"""Algorithms 2 and 3 — ``LowDegTreeVSE`` / ``LowDegTreeVSETwo``:
``2·sqrt(‖V‖)``-approximation on forests (paper Section IV.D).

Algorithm 2, given a degree threshold ``τ``:

1. Exclude from the deletion candidates every fact joined in more than
   ``τ`` preserved view tuples (the analogue of LowDegTwo's discarding
   of sets with more than ``τ`` red elements — such facts are never
   *deleted*, mirroring Peleg's filter on the covering collection).
2. If the restricted instance is infeasible — some ΔV witness consists
   entirely of excluded facts — return ``D`` (the paper's line 4; here:
   delete every candidate fact, which certainly eliminates ΔV).
3. Prune *wide* preserved view tuples (witness size > ``sqrt(‖V‖)``)
   from the objective by zeroing their weight (set ``R'' = R' \\ R'_>``).
4. Run ``PrimeDualVSE`` on the restricted instance.

Algorithm 3 sweeps ``τ`` (the optimum's maximum preserved-degree ``τ̂``
is unknown) and keeps the solution with the least *true* weighted
side-effect.  Theorem 4: the result is a ``2·sqrt(‖V‖)``-approximation;
Claim 2 bounds the pruned wide tuples by ``sqrt(‖V‖)·τ``.  Experiment
E6 validates the ratio.
"""

from __future__ import annotations

import math

from repro.errors import DeadlineExceededError, StructureError
from repro.relational.tuples import Fact
from repro.core.primal_dual import solve_primal_dual
from repro.core.problem import DeletionPropagationProblem
from repro.core.resilience import active_deadline
from repro.core.session import SolveSession
from repro.core.solution import Propagation

__all__ = [
    "solve_lowdeg_tree",
    "solve_lowdeg_tree_sweep",
    "theorem4_bound",
    "preserved_degree",
]


def preserved_degree(problem: DeletionPropagationProblem) -> dict[Fact, int]:
    """For every ΔV candidate fact: the number of preserved view tuples
    whose witness contains it (the quantity thresholded by τ).  No other
    fact can be deleted, so none is listed.

    Read from the session's memoized candidate-dependents index, so the
    τ sweep below builds that index exactly once.
    """
    return SolveSession.of(problem).preserved_degree()


def solve_lowdeg_tree(
    problem: DeletionPropagationProblem, tau: int
) -> Propagation:
    """Algorithm 2 for one threshold ``τ``."""
    degrees = preserved_degree(problem)
    allowed = frozenset(
        fact
        for fact in problem.candidate_facts()
        if degrees.get(fact, 0) <= tau
    )
    delta = problem.deleted_view_tuples()
    feasible = all(problem.witness(vt) & allowed for vt in delta)
    if not feasible:
        # Paper line 4: "return D".  Deleting every candidate fact is the
        # bounded equivalent: it certainly eliminates all of ΔV.
        return Propagation(
            problem, problem.candidate_facts(), method="lowdeg-tree-fallback"
        )

    solution = solve_primal_dual(
        problem,
        allowed_facts=allowed,
        preserved_weights=SolveSession.of(problem).wide_tuple_weights,
    )
    return solution.relabeled(f"lowdeg-tree(tau={tau})")


def solve_lowdeg_tree_sweep(
    problem: DeletionPropagationProblem,
) -> Propagation:
    """Algorithm 3: sweep τ and return the best true-cost solution.

    Sweeping the *distinct* preserved degrees (plus 0) is equivalent to
    the paper's ``τ = 1..|R|`` loop: the restricted instance only
    changes at those values.
    """
    degrees = preserved_degree(problem)
    thresholds = sorted(
        {degrees.get(f, 0) for f in problem.candidate_facts()}
    )
    if not thresholds:
        return Propagation(problem, (), method="lowdeg-tree-sweep")
    best: Propagation | None = None
    deadline = active_deadline()

    def _sweep_timeout() -> DeadlineExceededError:
        # Any threshold's feasible solution is a valid (if weaker)
        # sweep answer, so degrade to the best one found so far.
        incumbent = (
            best.relabeled("lowdeg-tree-sweep") if best is not None else None
        )
        return DeadlineExceededError(
            "lowdeg τ sweep deadline exceeded", incumbent=incumbent
        )

    for tau in thresholds:
        if deadline is not None and deadline.expired:
            raise _sweep_timeout()
        try:
            candidate = solve_lowdeg_tree(problem, tau)
        except DeadlineExceededError:
            # A checkpoint fired inside this threshold's pipeline; the
            # partial threshold is discarded but earlier ones stand.
            raise _sweep_timeout() from None
        if not candidate.is_feasible():
            continue
        if best is None or candidate.side_effect() < best.side_effect():
            best = candidate
    if best is None:
        raise StructureError("no feasible solution across the τ sweep")
    return best.relabeled("lowdeg-tree-sweep")


def theorem4_bound(problem: DeletionPropagationProblem) -> float:
    """The Theorem 4 ratio ``2·sqrt(‖V‖)``."""
    return max(1.0, 2.0 * math.sqrt(problem.norm_v))
