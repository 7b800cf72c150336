"""Algorithm 1 — ``PrimeDualVSE``: primal-dual l-approximation on forests.

Section IV.C of the paper formulates view side-effect on trees as the LP
(1)–(5) with dual (6)–(10) and sketches a primal-dual algorithm in the
style of Garg–Vazirani–Yannakakis multicut on trees.  Realization here
(documented as a substitution in DESIGN.md §4):

* The forest case guarantees every witness induces a connected subtree
  of the **data dual graph** (facts connected along the relation host
  forest).  Each component is rooted; the *depth of a view tuple* is the
  depth of the shallowest fact of its witness (its lca).
* Dual constraint (7) caps the dual of a preserved view tuple ``s`` at
  ``w_s / k_s`` (``k_s`` = witness size); constraint (8) says the ΔV
  duals routed through a fact cannot exceed the preserved duals through
  it.  Together a fact ``t`` has **capacity**
  ``cap(t) = Σ_{s ∈ R, t ∈ s} w_s / k_s``.
* Process ΔV view tuples in increasing lca depth.  For each one not yet
  cut, raise its dual ``v_r`` by the minimum residual capacity along its
  witness; facts whose residual reaches zero are *saturated* and
  deleted (``y_t = 1``).
* Reverse-delete pruning: drop deletions that are not needed for
  feasibility, in reverse order of saturation (Algorithm 1 lines 7–10).
* Only ΔV candidate facts get a capacity; docs/ALGORITHMS.md shows this
  is exact.  A call costs O(dependents of ΔV), not O(‖V‖ log ‖V‖).

Theorem 3 asserts the result is feasible and an ``l``-approximation
(``l`` = max query arity); experiment E5 validates the ratio against the
exact optimum.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import NotKeyPreservingError, StructureError
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.core.solution import Propagation

__all__ = ["solve_primal_dual", "PrimalDualTrace"]

_EPS = 1e-12


class PrimalDualTrace:
    """Execution trace: dual values, saturation order, pruning — used by
    tests to check dual feasibility and by the benches for reporting.
    Facts named here are ΔV candidate facts only."""

    def __init__(self) -> None:
        self.dual_values: dict[ViewTuple, float] = {}
        self.saturation_order: list[Fact] = []
        self.pruned: list[Fact] = []
        self.capacities: dict[Fact, float] = {}

    def dual_objective(self) -> float:
        """``Σ_{r ∈ ΔV} v_r`` — a lower bound on the LP optimum."""
        return sum(self.dual_values.values())


def _session_artifacts(
    session: SolveSession,
) -> tuple[Mapping[ViewTuple, frozenset[Fact]], dict[Fact, int]]:
    """The witness map and data dual depths, memoized on the session
    (the τ sweep of Algorithm 3 calls PrimeDualVSE many times on the
    same instance — the graph is built exactly once)."""
    profile = session.profile
    if not profile.key_preserving:
        raise NotKeyPreservingError(
            "PrimeDualVSE requires key-preserving queries"
        )
    if not profile.forest_case:
        raise StructureError(
            "PrimeDualVSE requires the forest case (dual hypergraph "
            "components must be hypertrees)"
        )
    return session.witness_map(), session.dual_depths()


def solve_primal_dual(
    problem: DeletionPropagationProblem,
    allowed_facts: Iterable[Fact] | None = None,
    preserved_weights: Mapping[ViewTuple, float] | None = None,
    trace: PrimalDualTrace | None = None,
) -> Propagation:
    """Run ``PrimeDualVSE``.

    Parameters
    ----------
    allowed_facts:
        Restrict deletions to these facts (used by Algorithm 2's degree
        filter).  Facts outside get infinite capacity and never
        saturate.  ``None`` allows every fact.
    preserved_weights:
        Override the weights of preserved view tuples (Algorithm 2's
        wide-view pruning passes weight 0 for pruned tuples).  Missing
        entries fall back to the problem's weights.
    trace:
        Optional :class:`PrimalDualTrace` filled during the run.

    Raises
    ------
    StructureError
        If the input is not a forest case, or the allowed facts cannot
        eliminate all of ΔV (Algorithm 2 treats that as "infeasible").
    """
    session = SolveSession.of(problem)
    witnesses, depth = _session_artifacts(session)
    delta = problem.deleted_view_tuples()
    allowed = None if allowed_facts is None else frozenset(allowed_facts)

    def weight_of(vt: ViewTuple) -> float:
        if preserved_weights is not None and vt in preserved_weights:
            return preserved_weights[vt]
        return problem.weight(vt)

    # Capacities from the dual LP, cap(t) = Σ_{s ∈ R, t ∈ wit(s)} w_s/k_s,
    # for the ΔV candidate facts only (no other fact enters a dual raise
    # or a feasibility test), each summed in ascending view-tuple order.
    capacity: dict[Fact, float] = {}
    for fact, dependents in session.preserved_dependents.items():
        cap = 0.0
        for vt in dependents:
            cap += weight_of(vt) / len(witnesses[vt])
        capacity[fact] = cap
    residual = {
        fact: cap if allowed is None or fact in allowed else float("inf")
        for fact, cap in capacity.items()
    }
    if trace is not None:
        trace.capacities = dict(capacity)

    # Infeasibility under the restriction: some ΔV witness entirely
    # disallowed.
    if allowed is not None:
        for vt in delta:
            if not witnesses[vt] & allowed:
                raise StructureError(
                    f"no allowed fact can eliminate {vt!r}; "
                    "restricted instance is infeasible"
                )

    # Zero-capacity facts saturate immediately (free deletions), in
    # ascending fact order (the candidates' order).
    deleted = [fact for fact, res in residual.items() if res <= _EPS]
    deleted_set = set(deleted)

    def lca_depth(vt: ViewTuple) -> int:
        return min(depth[f] for f in witnesses[vt])

    ordered_delta = sorted(delta, key=lambda vt: (lca_depth(vt), vt))
    dual: dict[ViewTuple, float] = {}
    for vt in ordered_delta:
        witness = witnesses[vt]
        if witness & deleted_set:
            continue  # already cut
        raisable = min(residual[f] for f in witness)
        if raisable == float("inf"):
            raise StructureError(
                f"cannot saturate any fact of {vt!r} under the "
                "deletion restriction"
            )
        dual[vt] = dual.get(vt, 0.0) + raisable
        for fact in sorted(witness):
            if residual[fact] != float("inf"):
                residual[fact] -= raisable
                if residual[fact] <= _EPS and fact not in deleted_set:
                    deleted.append(fact)
                    deleted_set.add(fact)
    if trace is not None:
        trace.dual_values = dual
        trace.saturation_order = list(deleted)

    # Reverse-delete pruning: drop deletions unnecessary for feasibility.
    needed = set(deleted_set)
    for fact in reversed(deleted):
        trial = needed - {fact}
        if all(witnesses[vt] & trial for vt in delta):
            needed = trial
            if trace is not None:
                trace.pruned.append(fact)

    return Propagation(problem, needed, method="primal-dual")
