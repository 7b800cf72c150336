"""Solutions (``ΔD``) and their accounting.

A :class:`Propagation` is a set of source facts to delete, bound to the
problem it solves.  It computes — by witness semantics, with an optional
re-evaluation cross-check — which view tuples it eliminates, whether it
is feasible (all of ΔV gone, condition (a) of Section II.C), and the
objective values:

* :meth:`Propagation.side_effect` — the paper's ``s_view``: total weight
  of preserved view tuples accidentally eliminated (condition (b)).
* :meth:`Propagation.balanced_cost` — the balanced objective:
  ``delta_penalty·|ΔV not eliminated| + w(preserved eliminated)``.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property
from typing import Iterable

from repro.errors import ProblemError
from repro.relational.evaluate import result_tuples
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)

__all__ = ["Propagation"]


class Propagation:
    """A candidate solution: the facts ``ΔD`` deleted from the source.

    Instances are immutable; all derived quantities are cached.
    """

    def __init__(
        self,
        problem: DeletionPropagationProblem,
        deleted_facts: Iterable[Fact],
        method: str = "unspecified",
        counters: object | None = None,
        validate: bool = True,
    ):
        self.problem = problem
        self.deleted_facts: frozenset[Fact] = frozenset(deleted_facts)
        self.method = method
        # Optional perf accounting (an OracleCounters when the producing
        # solver ran on the elimination oracle); never part of equality.
        self.counters = counters
        # ``validate=False`` skips the membership check for producers
        # whose facts are in the source by construction (the oracle
        # interns its fact table from the instance); external callers
        # should keep the default.
        if validate:
            for fact in self.deleted_facts:
                if fact not in problem.instance:
                    raise ProblemError(
                        f"solution deletes {fact!r} which is not in the "
                        "source"
                    )

    def relabeled(self, method: str) -> "Propagation":
        """The same ``ΔD`` on the same problem under another method
        label, sharing every derived quantity already computed here."""
        clone = copy.copy(self)
        clone.method = method
        return clone

    # ------------------------------------------------------------------
    # Derived view-level effect
    # ------------------------------------------------------------------

    @cached_property
    def eliminated_view_tuples(self) -> frozenset[ViewTuple]:
        """All view tuples that disappear from the views."""
        return frozenset(self.problem.eliminated_by(self.deleted_facts))

    @cached_property
    def eliminated_delta(self) -> frozenset[ViewTuple]:
        """ΔV tuples actually eliminated."""
        return frozenset(
            vt
            for vt in self.eliminated_view_tuples
            if vt in self.problem.deletion
        )

    @cached_property
    def collateral(self) -> frozenset[ViewTuple]:
        """Preserved view tuples eliminated by accident (the side-effect
        set)."""
        return frozenset(
            vt
            for vt in self.eliminated_view_tuples
            if vt not in self.problem.deletion
        )

    @cached_property
    def surviving_delta(self) -> frozenset[ViewTuple]:
        """ΔV tuples the solution fails to eliminate."""
        return (
            frozenset(self.problem.deleted_view_tuples()) - self.eliminated_delta
        )

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------

    def is_feasible(self) -> bool:
        """Condition (a): ``Qi(D \\ ΔD) ⊆ Vi \\ ΔVi`` for all i, i.e.
        every requested deletion is realized."""
        return not self.surviving_delta

    def side_effect(self) -> float:
        """The paper's ``s_view``: total weight of collateral damage."""
        return math.fsum(self.problem.weight(vt) for vt in self.collateral)

    def balanced_cost(self) -> float:
        """Balanced objective (PN-PSC semantics).  Uses the problem's
        ``delta_penalty`` when it is a balanced problem, else 1.0."""
        penalty = getattr(self.problem, "delta_penalty", 1.0)
        return penalty * len(self.surviving_delta) + self.side_effect()

    def objective(self) -> float:
        """The natural objective for the bound problem type: balanced
        cost for :class:`BalancedDeletionPropagationProblem`, otherwise
        side-effect (with infeasibility surfaced as ``inf``)."""
        if isinstance(self.problem, BalancedDeletionPropagationProblem):
            return self.balanced_cost()
        if not self.is_feasible():
            return float("inf")
        return self.side_effect()

    # ------------------------------------------------------------------
    # Ground-truth cross-check
    # ------------------------------------------------------------------

    def verify_by_reevaluation(self) -> bool:
        """Recompute the post-deletion views by evaluating every query on
        ``D \\ ΔD`` from scratch and compare with the witness-based
        accounting.  Returns True on agreement; used by the test suite to
        validate the witness semantics."""
        remaining = self.problem.instance.without(self.deleted_facts)
        for view in self.problem.views:
            after = result_tuples(view.query, remaining)
            expected = {
                values
                for values in view.tuples
                if ViewTuple(view.name, values) not in self.eliminated_view_tuples
            }
            if after != expected:
                return False
        return True

    # ------------------------------------------------------------------

    def summary(self) -> str:
        """One-line human-readable description."""
        status = "feasible" if self.is_feasible() else "INFEASIBLE"
        return (
            f"[{self.method}] delete {len(self.deleted_facts)} facts, "
            f"side-effect {self.side_effect():g}, "
            f"balanced {self.balanced_cost():g} ({status})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Propagation):
            return NotImplemented
        return (
            self.problem is other.problem
            and self.deleted_facts == other.deleted_facts
        )

    def __hash__(self) -> int:
        return hash(self.deleted_facts)

    def __repr__(self) -> str:
        facts = ", ".join(repr(f) for f in sorted(self.deleted_facts))
        return f"Propagation({{{facts}}}, method={self.method!r})"
