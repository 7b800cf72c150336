"""Single-query baselines (the m = 1 case the paper builds on).

The paper recalls (Section III) that view side-effect for a *single*
key-preserving conjunctive query is polynomial (Cong, Fan, Geerts, Li,
Luo 2012).  This module implements the tractable single-query cases used
as baselines and inside the applications:

* :func:`solve_single_deletion` — ``|ΔV| = 1``: the optimum deletes
  exactly one witness fact (extra deletions only add damage), so the
  minimum-collateral fact is exact.  Works for any number of queries.
* :func:`solve_two_atom_mincut` — a single self-join-free two-atom
  key-preserving query, arbitrary ΔV, via minimum s-t cut.  Each view
  tuple's witness is a pair ``(fact of atom 1, fact of atom 2)``;
  choosing which facts to delete is a bipartite covering problem with
  shared costs.  The cut double-charges a preserved tuple only when a
  solution hits it from *both* sides, so the cut value is between the
  true cost and twice the true cost: the result is a polynomial
  **2-approximation**, and it is exact whenever no preserved witness
  straddles two ΔV pairs on opposite sides (checked by the E-suite
  against the exact solver).
* :func:`solve_single_query` — exact dispatch: single deletion →
  direct argmin, otherwise the exact solver (the general PTIME
  construction the paper cites from Cong et al. 2012 concerns the
  single-deletion/annotation setting; no published exact polynomial
  algorithm covers weighted multi-tuple ΔV, so exactness is preserved
  here at possibly exponential cost).
"""

from __future__ import annotations

import math

import networkx as nx

from repro.errors import NotKeyPreservingError, SolverError
from repro.relational.tuples import Fact
from repro.core.exact import solve_exact
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.core.solution import Propagation

__all__ = [
    "solve_single_deletion",
    "solve_two_atom_mincut",
    "solve_single_query",
]


def solve_single_deletion(problem: DeletionPropagationProblem) -> Propagation:
    """Exact optimum when ΔV is a single view tuple (key-preserving)."""
    delta = problem.deleted_view_tuples()
    if len(delta) != 1:
        raise SolverError(
            f"solve_single_deletion expects |ΔV| = 1, got {len(delta)}"
        )
    if not SolveSession.of(problem).profile.key_preserving:
        raise NotKeyPreservingError(
            "solve_single_deletion requires key-preserving queries"
        )
    vt = delta[0]
    best_fact: Fact | None = None
    best_damage = float("inf")
    for fact in sorted(problem.witness(vt)):
        damage = math.fsum(
            problem.weight(d)
            for d in problem.dependents(fact)
            if d != vt
        )
        if damage < best_damage:
            best_damage = damage
            best_fact = fact
    assert best_fact is not None
    return Propagation(problem, (best_fact,), method="single-deletion")


def solve_two_atom_mincut(problem: DeletionPropagationProblem) -> Propagation:
    """Min-cut 2-approximation for a single two-atom sj-free
    key-preserving query (exact when no preserved witness straddles two
    ΔV pairs on opposite sides — see the module docstring).

    Network: ``s → p`` (capacity ``w_p``) for every preserved tuple
    ``p``; ``p → a`` (∞) to the atom-1 fact of ``p``'s witness;
    ``a → b`` (∞) for every ΔV witness ``(a, b)``; ``b → p'`` (∞) for
    the atom-2 fact of each preserved ``p'``; ``p' → t`` (``w_p'``).
    A cut must, per ΔV pair ``(a, b)``, pay for all preserved tuples
    through ``a`` or all through ``b`` — exactly the choice of which
    fact to delete — and paying for a shared preserved tuple once
    covers all its occurrences.
    """
    session = SolveSession.of(problem)
    if not session.profile.single_query:
        raise SolverError("solve_two_atom_mincut expects a single query")
    query = problem.queries[0]
    if len(query.body) != 2 or not query.is_self_join_free():
        raise SolverError(
            "solve_two_atom_mincut expects a two-atom sj-free query"
        )
    if not session.profile.key_preserving:
        raise NotKeyPreservingError(
            "solve_two_atom_mincut requires a key-preserving query"
        )
    relation_a = query.body[0].relation
    delta = frozenset(problem.deleted_view_tuples())

    def split(witness: frozenset[Fact]) -> tuple[Fact, Fact]:
        fact_a = next(f for f in witness if f.relation == relation_a)
        fact_b = next(f for f in witness if f.relation != relation_a)
        return fact_a, fact_b

    graph = nx.DiGraph()
    source, sink = ("S",), ("T",)
    relevant_a: set[Fact] = set()
    relevant_b: set[Fact] = set()
    for vt in delta:
        fact_a, fact_b = split(problem.witness(vt))
        graph.add_edge(("a", fact_a), ("b", fact_b), capacity=float("inf"))
        relevant_a.add(fact_a)
        relevant_b.add(fact_b)
    for vt in problem.preserved_view_tuples():
        fact_a, fact_b = split(problem.witness(vt))
        weight = problem.weight(vt)
        if fact_a in relevant_a:
            graph.add_edge(source, ("pa", vt), capacity=weight)
            graph.add_edge(("pa", vt), ("a", fact_a), capacity=float("inf"))
        if fact_b in relevant_b:
            graph.add_edge(("b", fact_b), ("pb", vt), capacity=float("inf"))
            graph.add_edge(("pb", vt), sink, capacity=weight)
    if source not in graph or sink not in graph:
        # No preserved tuples at risk on one side: delete the free side.
        deleted = set()
        for vt in delta:
            fact_a, fact_b = split(problem.witness(vt))
            if source not in graph:
                deleted.add(fact_a)
            else:
                deleted.add(fact_b)
        return Propagation(problem, deleted, method="two-atom-mincut")

    _, (reachable, _) = nx.minimum_cut(graph, source, sink)
    deleted: set[Fact] = set()
    for vt in delta:
        fact_a, fact_b = split(problem.witness(vt))
        if ("a", fact_a) not in reachable:
            deleted.add(fact_a)
        else:
            deleted.add(fact_b)
    return Propagation(problem, deleted, method="two-atom-mincut")


def solve_single_query(problem: DeletionPropagationProblem) -> Propagation:
    """Dispatch for the single-query case; exact in all branches."""
    profile = SolveSession.of(problem).profile
    if not profile.single_query:
        raise SolverError("solve_single_query expects exactly one query")
    if profile.norm_delta_v == 1 and profile.key_preserving:
        return solve_single_deletion(problem)
    return solve_exact(problem)
