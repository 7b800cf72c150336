"""Algorithm 4 — ``DPTreeVSE``: exact dynamic programming for forest
cases with pivot tuples (paper Section IV.E).

Tractable class: every connected component of the data dual graph admits
a **pivot tuple** — a fact such that, rooting the component there, every
view tuple's witness is a *vertical segment*: a contiguous run of facts
along one root-to-leaf path (see
:class:`repro.hypergraph.datadual.DataDualGraph`).

Under that layout a deleted fact ``x`` eliminates exactly the segments
whose path contains ``x``, i.e. segments ``r`` with
``depth(top_r) <= depth(x)`` and ``x`` an ancestor-or-self of
``bottom_r``.  Attributing each segment to its *bottom* fact gives a
clean DP over the tree in post-order with one state: the depth of the
nearest deleted ancestor (the paper's ``T(t)`` table — "we do not
consider deleting a subset of tuples on the path, because it would be
equivalent to deleting the tuple of this subset closest to ``t``").

The same DP solves the **standard** problem (uneliminated ΔV = ∞), the
**weighted** problem, and the **balanced** problem (uneliminated ΔV =
``delta_penalty``), all exactly — experiment E7 checks optimality
against brute force.

Only components holding a ΔV tuple are solved.  In a ΔV-free component
every cost is a non-negative weight of a killed segment, so keeping
every fact costs 0 and the DP — which deletes only when that is
*strictly* cheaper — deletes nothing there.  Skipping such components
returns the same ``ΔD`` and makes a request cost O(‖ΔV‖ components)
instead of O(‖V‖).
"""

from __future__ import annotations

from repro.errors import NotKeyPreservingError, StructureError
from repro.hypergraph.datadual import RootedComponent
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.core.solution import Propagation

__all__ = ["solve_dp_tree", "applies_to"]

_NO_ANCESTOR = -1


def applies_to(problem: DeletionPropagationProblem) -> bool:
    """Does the instance fall into Algorithm 4's tractable class?

    Answered by the session's structure profile, so repeated probes (and
    the dispatch that follows) share one pivot search.
    """
    return SolveSession.of(problem).profile.dp_tree_applies


def _rooted_components(session: SolveSession) -> list[RootedComponent]:
    profile = session.profile
    if not profile.key_preserving:
        raise NotKeyPreservingError("DPTreeVSE requires key-preserving queries")
    if not profile.forest_case:
        raise StructureError("DPTreeVSE requires the forest case")
    return session.rooted_components()


def solve_dp_tree(problem: DeletionPropagationProblem) -> Propagation:
    """Exact optimum for pivot-forest instances (standard, weighted, or
    balanced).  Raises :class:`StructureError` outside the class."""
    session = SolveSession.of(problem)
    balanced = session.profile.balanced
    penalty = problem.delta_penalty if balanced else float("inf")
    delta = frozenset(problem.deleted_view_tuples())
    components = _rooted_components(session)
    index = session.component_index()

    deleted: set[Fact] = set()
    for cid in sorted({index[vt] for vt in delta}):
        deleted.update(
            _solve_component(problem, components[cid], delta, penalty)
        )
    return Propagation(problem, deleted, method="dp-tree")


def _solve_component(
    problem: DeletionPropagationProblem,
    component: RootedComponent,
    delta: frozenset[ViewTuple],
    penalty: float,
) -> set[Fact]:
    depth = component.depth
    # Segments indexed by their bottom fact.
    by_bottom: dict[Fact, list] = {}
    for segment in component.segments:
        by_bottom.setdefault(segment.bottom, []).append(segment)

    def local_cost(fact: Fact, nearest_deleted_depth: int) -> float:
        """Cost of the segments bottoming at ``fact`` given the nearest
        deleted ancestor-or-self depth (``_NO_ANCESTOR`` = none)."""
        cost = 0.0
        for segment in by_bottom.get(fact, ()):
            killed = (
                nearest_deleted_depth != _NO_ANCESTOR
                and nearest_deleted_depth >= depth[segment.top]
            )
            if segment.view_tuple in delta:
                if not killed:
                    cost += penalty
            elif killed:
                cost += problem.weight(segment.view_tuple)
        return cost

    # f[fact][d] = min cost of the subtree of `fact` when the nearest
    # deleted strict ancestor has depth d (d = _NO_ANCESTOR when none).
    # Only depths up to depth[fact]-1 (plus _NO_ANCESTOR) are reachable.
    f: dict[Fact, dict[int, float]] = {}
    choice: dict[Fact, dict[int, bool]] = {}  # True = delete fact

    for fact in component.postorder():
        f[fact] = {}
        choice[fact] = {}
        states = [_NO_ANCESTOR] + list(range(depth[fact]))
        for state in states:
            # Option A: keep the fact.
            keep = local_cost(fact, state)
            for child in component.children.get(fact, ()):
                keep += f[child][state]
            # Option B: delete the fact (nearest deleted becomes depth[fact]).
            cut = local_cost(fact, depth[fact])
            for child in component.children.get(fact, ()):
                cut += f[child][depth[fact]]
            if cut < keep:
                f[fact][state] = cut
                choice[fact][state] = True
            else:
                f[fact][state] = keep
                choice[fact][state] = False

    root = component.pivot
    if f[root][_NO_ANCESTOR] == float("inf"):
        raise StructureError("DP found no feasible labeling")  # unreachable

    # Reconstruct decisions top-down.
    deleted: set[Fact] = set()
    stack: list[tuple[Fact, int]] = [(root, _NO_ANCESTOR)]
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
