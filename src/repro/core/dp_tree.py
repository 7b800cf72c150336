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

The tree shape, the depths and the segments attributed to each bottom
fact do not depend on ΔV either: each rooted component is compiled once
per instance into index tables (:class:`_ComponentTable`, kept on the
session's shared holder), and a request only prices its segments and
runs the DP over list indices.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _ComponentTable(NamedTuple):
    """Algorithm 4's view of one rooted component as index tables.

    Node ``i`` is the ``i``-th fact in post-order, so every child comes
    before its parent and the root is the last node.  ``children[i]``
    keeps the component's child order (the DP's addition order) and
    ``segments[i]`` lists the ``(top depth, view tuple)`` of every
    segment bottoming at node ``i``, in ``component.segments`` order.
    None of it depends on ΔV, so it is compiled once per instance.
    """

    facts: tuple[Fact, ...]
    depth: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    segments: tuple[tuple[tuple[int, ViewTuple], ...], ...]


def _compile_component(component: RootedComponent) -> _ComponentTable:
    order = component.postorder()
    node = {fact: i for i, fact in enumerate(order)}
    depth = component.depth
    segments: list[list[tuple[int, ViewTuple]]] = [[] for _ in order]
    for segment in component.segments:
        segments[node[segment.bottom]].append(
            (depth[segment.top], segment.view_tuple)
        )
    return _ComponentTable(
        facts=tuple(order),
        depth=tuple(depth[fact] for fact in order),
        children=tuple(
            tuple(node[child] for child in component.children.get(fact, ()))
            for fact in order
        ),
        segments=tuple(map(tuple, segments)),
    )


def _component_table(
    problem: DeletionPropagationProblem, component: RootedComponent
) -> _ComponentTable:
    tables = SolveSession.of(problem).dp_tables()
    table = tables.get(component)
    if table is None:
        table = tables[component] = _compile_component(component)
    return table


def _segment_cost(
    priced: list[tuple[int, bool, float]], nearest: int, penalty: float
) -> float:
    """Cost of one node's segments given the depth of the nearest
    deleted ancestor-or-self (``_NO_ANCESTOR`` = none, which kills no
    segment: every top depth is >= 0)."""
    cost = 0.0
    for top, in_delta, weight in priced:
        killed = nearest >= top
        if in_delta:
            if not killed:
                cost += penalty
        elif killed:
            cost += weight
    return cost


def _solve_component(
    problem: DeletionPropagationProblem,
    component: RootedComponent,
    delta: frozenset[ViewTuple],
    penalty: float,
) -> set[Fact]:
    table = _component_table(problem, component)
    weight = problem.weight
    depth = table.depth
    children = table.children
    # f[i][s + 1] = min cost of node i's subtree when the nearest
    # deleted strict ancestor has depth s (s = _NO_ANCESTOR when none).
    # Only depths up to depth[i]-1 (plus _NO_ANCESTOR) are reachable.
    f: list[list[float]] = []
    cut_at: list[list[bool]] = []  # True = delete node i in that state
    for i, segments in enumerate(table.segments):
        d = depth[i]
        kids = children[i]
        priced = [(top, vt in delta, weight(vt)) for top, vt in segments]
        # Deleting node i makes it the nearest deleted depth for its
        # segments and children alike, whatever the state above it.
        cut = _segment_cost(priced, d, penalty)
        for child in kids:
            cut += f[child][d + 1]
        row: list[float] = []
        cuts: list[bool] = []
        for state in range(_NO_ANCESTOR, d):
            keep = _segment_cost(priced, state, penalty)
            for child in kids:
                keep += f[child][state + 1]
            if cut < keep:
                row.append(cut)
                cuts.append(True)
            else:
                row.append(keep)
                cuts.append(False)
        f.append(row)
        cut_at.append(cuts)

    root = len(f) - 1
    if f[root][_NO_ANCESTOR + 1] == float("inf"):
        raise StructureError("DP found no feasible labeling")  # unreachable

    # Reconstruct decisions top-down.
    facts = table.facts
    deleted: set[Fact] = set()
    stack: list[tuple[int, int]] = [(root, _NO_ANCESTOR)]
    while stack:
        i, state = stack.pop()
        if cut_at[i][state + 1]:
            deleted.add(facts[i])
            state = depth[i]
        for child in children[i]:
            stack.append((child, state))
    return deleted
