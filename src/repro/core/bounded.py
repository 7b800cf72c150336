"""Bounded deletion propagation (Table V's NP(k) row, Miao et al. [36]).

The variant where the number of source deletions is bounded in advance:
find ``ΔD`` with ``|ΔD| <= k`` eliminating all of ΔV and minimizing the
view side-effect, or report that no such ``ΔD`` exists.  Miao et al.
show the decision problem is ``NP(k)``-complete on combined complexity;
accordingly the solver here is an exact bounded-depth branch & bound.

``minimum_deletion_size`` (the smallest feasible ``k``) doubles as the
source-side optimum and is used to report *why* an instance is
infeasible at a given bound.
"""

from __future__ import annotations

import math

from repro.errors import SolverError
from repro.relational.tuples import Fact
from repro.core.problem import DeletionPropagationProblem
from repro.core.solution import Propagation
from repro.core.source_side_effect import solve_source_exact

__all__ = ["solve_bounded_exact", "minimum_deletion_size"]


def minimum_deletion_size(problem: DeletionPropagationProblem) -> int:
    """The smallest number of deletions that can eliminate all of ΔV."""
    return len(solve_source_exact(problem).deleted_facts)


def solve_bounded_exact(
    problem: DeletionPropagationProblem, k: int
) -> Propagation:
    """Minimum view side-effect among solutions with at most ``k``
    deletions.  Raises :class:`SolverError` when no feasible solution
    fits the bound (the message reports the minimum feasible size)."""
    if k < 0:
        raise SolverError("deletion bound k must be non-negative")
    requirements: list[frozenset[Fact]] = []
    seen: set[frozenset[Fact]] = set()
    for vt in problem.deleted_view_tuples():
        for witness in problem.witnesses(vt):
            if witness not in seen:
                seen.add(witness)
                requirements.append(witness)
    requirements.sort(key=lambda w: (len(w), sorted(map(repr, w))))

    delta = frozenset(problem.deleted_view_tuples())
    best_cost = float("inf")
    best: frozenset[Fact] | None = None
    deleted: set[Fact] = set()

    def side_effect() -> float:
        eliminated = problem.eliminated_by(deleted)
        return math.fsum(
            problem.weight(vt) for vt in eliminated if vt not in delta
        )

    def recurse(index: int) -> None:
        nonlocal best_cost, best
        while index < len(requirements) and requirements[index] & deleted:
            index += 1
        cost = side_effect()
        if cost >= best_cost:
            return
        if index == len(requirements):
            best_cost = cost
            best = frozenset(deleted)
            return
        if len(deleted) >= k:
            return  # bound exhausted with requirements left
        for fact in sorted(requirements[index]):
            deleted.add(fact)
            recurse(index + 1)
            deleted.discard(fact)

    recurse(0)
    if best is None:
        if requirements:
            needed = minimum_deletion_size(problem)
            raise SolverError(
                f"no solution within k={k} deletions; the minimum "
                f"feasible size is {needed}"
            )
        best = frozenset()
    return Propagation(problem, best, method=f"bounded-exact(k={k})")
