"""Exact solvers — the ground truth for every approximation experiment.

Two backends:

* **branch & bound** (:func:`solve_exact_bruteforce`): branches over
  which fact to delete from each not-yet-hit witness of each ΔV tuple,
  pruning on the (monotone) partial side-effect.  Works for arbitrary
  CQs, including non-key-preserving ones with multiple witnesses (every
  witness of a ΔV tuple must be hit).
* **ILP** (:func:`solve_exact_ilp`): the arena-compiled 0/1 program of
  :mod:`repro.lp.ilp` for key-preserving problems (unique witnesses),
  standard and balanced — sparse constraint blocks over the CSR slabs,
  an exact lexicographic tie-break, warm starts, and deadline-respecting
  incumbent degradation.

:func:`solve_exact` picks automatically.  Branch & bound is exponential
in the worst case — exactly as Theorem 1 predicts — and is intended for
the small/medium instances of the test- and bench-suites; the ILP route
scales to everything HiGHS can chew.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.errors import DeadlineExceededError, SolverError
from repro.relational.tuples import Fact
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)
from repro.core.resilience import active_deadline
from repro.core.session import SolveSession
from repro.core.solution import Propagation

__all__ = ["solve_exact", "solve_exact_bruteforce", "solve_exact_ilp"]

_BALANCED_BRUTEFORCE_LIMIT = 22


def solve_exact(problem: DeletionPropagationProblem) -> Propagation:
    """Exact optimum, automatic backend selection: the ILP for
    key-preserving problems, else branch & bound."""
    if SolveSession.of(problem).profile.key_preserving:
        return solve_exact_ilp(problem)
    return solve_exact_bruteforce(problem)


# ----------------------------------------------------------------------
# Branch & bound
# ----------------------------------------------------------------------


def solve_exact_bruteforce(problem: DeletionPropagationProblem) -> Propagation:
    """Branch & bound over witness hitting choices.

    For the balanced problem the ΔV requirements are optional, so the
    search enumerates subsets of the candidate facts instead (bounded at
    ``2**22`` states; larger balanced instances need the ILP backend).
    """
    if isinstance(problem, BalancedDeletionPropagationProblem):
        return _balanced_bruteforce(problem)
    return _standard_branch_and_bound(problem)


def _standard_branch_and_bound(
    problem: DeletionPropagationProblem,
) -> Propagation:
    requirements: list[frozenset[Fact]] = []
    seen: set[frozenset[Fact]] = set()
    for vt in problem.deleted_view_tuples():
        for witness in problem.witnesses(vt):
            if witness not in seen:
                seen.add(witness)
                requirements.append(witness)
    requirements.sort(key=lambda w: (len(w), sorted(map(repr, w))))

    best_cost = float("inf")
    best_facts: frozenset[Fact] = frozenset()
    deleted: set[Fact] = set()
    delta = frozenset(problem.deleted_view_tuples())
    deadline = active_deadline()

    def partial_cost() -> float:
        eliminated = problem.eliminated_by(deleted)
        return math.fsum(
            problem.weight(vt) for vt in eliminated if vt not in delta
        )

    def recurse(index: int) -> None:
        nonlocal best_cost, best_facts
        if deadline is not None and deadline.expired:
            # Each search node already pays a full eliminated_by pass, so
            # a per-node clock read is noise; the incumbent (if any) is
            # feasible — it hit every requirement before being recorded.
            incumbent = (
                Propagation(problem, best_facts, method="exact-bnb")
                if best_cost < float("inf")
                else None
            )
            raise DeadlineExceededError(
                "exact branch & bound deadline exceeded",
                incumbent=incumbent,
            )
        while index < len(requirements) and requirements[index] & deleted:
            index += 1
        cost = partial_cost()
        if cost >= best_cost:
            return  # monotone lower bound: more deletions never cost less
        if index == len(requirements):
            best_cost = cost
            best_facts = frozenset(deleted)
            return
        for fact in sorted(requirements[index]):
            deleted.add(fact)
            recurse(index + 1)
            deleted.discard(fact)

    recurse(0)
    if best_cost == float("inf") and requirements:
        raise SolverError("branch & bound found no feasible solution")
    return Propagation(problem, best_facts, method="exact-bnb")


def _balanced_bruteforce(
    problem: BalancedDeletionPropagationProblem,
) -> Propagation:
    candidates = problem.candidate_facts()
    if len(candidates) > _BALANCED_BRUTEFORCE_LIMIT:
        raise SolverError(
            f"balanced brute force limited to {_BALANCED_BRUTEFORCE_LIMIT} "
            f"candidate facts, got {len(candidates)}; use solve_exact_ilp"
        )
    best = Propagation(problem, (), method="exact-enum")
    best_cost = best.balanced_cost()
    deadline = active_deadline()
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            # Balanced solutions are always feasible, so the running
            # best is a valid incumbent from the very first subset.
            if deadline is not None and deadline.expired:
                raise DeadlineExceededError(
                    "balanced exact enumeration deadline exceeded",
                    incumbent=best,
                )
            candidate = Propagation(problem, subset, method="exact-enum")
            cost = candidate.balanced_cost()
            if cost < best_cost:
                best, best_cost = candidate, cost
    return best


# ----------------------------------------------------------------------
# ILP backend
# ----------------------------------------------------------------------


def solve_exact_ilp(problem: DeletionPropagationProblem) -> Propagation:
    """Exact 0/1 ILP for key-preserving problems (standard and
    balanced), lexicographically optimal in (objective, deletions).

    Delegates to :func:`repro.lp.ilp.solve_ilp` — the arena-compiled
    route with sparse constraint blocks, the exact lexicographic
    tie-break, warm starts, and the deadline/incumbent contract (an
    expiring :class:`~repro.core.resilience.Deadline` raises
    :class:`~repro.errors.DeadlineExceededError` *carrying* the best
    feasible incumbent, so policy-governed solves degrade instead of
    failing).
    """
    from repro.lp.ilp import solve_ilp

    return solve_ilp(problem)
