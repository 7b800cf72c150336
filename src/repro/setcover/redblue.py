"""The Red-Blue Set Cover problem (Carr, Doddi, Konjevod, Marathe 2002).

Paper Section II.D: given disjoint finite sets of red elements ``R`` and
blue elements ``B`` and a collection ``C`` of subsets of ``R ∪ B``, find
a subcollection covering every blue element while minimizing the (here:
weighted) number of red elements covered.

The paper reduces view side-effect *to* RBSC for its general-case upper
bound (Claim 1) and *from* RBSC for its inapproximability lower bound
(Theorem 1), so this module provides the instance representation, the
feasibility/cost accounting, and an exact branch-and-bound solver used
as ground truth.  The approximation lives in
:mod:`repro.setcover.lowdeg`.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.errors import ReductionError, SolverError

__all__ = ["RedBlueSetCover", "solve_rbsc_exact"]

Element = Hashable


class RedBlueSetCover:
    """An RBSC instance with optionally weighted red elements."""

    def __init__(
        self,
        reds: Iterable[Element],
        blues: Iterable[Element],
        sets: Mapping[str, Iterable[Element]],
        red_weights: Mapping[Element, float] | None = None,
    ):
        self.reds: frozenset[Element] = frozenset(reds)
        self.blues: frozenset[Element] = frozenset(blues)
        if self.reds & self.blues:
            raise ReductionError("red and blue element sets must be disjoint")
        self.sets: dict[str, frozenset[Element]] = {}
        # Red/blue slices of every set are computed once here; the
        # solver loops (greedy passes, LowDeg sweeps, per-selection
        # costing) poll them constantly and used to re-intersect the
        # full sets on every call.
        self._reds_of: dict[str, frozenset[Element]] = {}
        self._blues_of: dict[str, frozenset[Element]] = {}
        universe = self.reds | self.blues
        for name, members in sets.items():
            member_set = frozenset(members)
            stray = member_set - universe
            if stray:
                raise ReductionError(
                    f"set {name!r} contains unknown elements {sorted(map(repr, stray))[:3]}"
                )
            self.sets[name] = member_set
            self._reds_of[name] = member_set & self.reds
            self._blues_of[name] = member_set & self.blues
        self._red_weights = {
            element: float(weight)
            for element, weight in (red_weights or {}).items()
        }

    # ------------------------------------------------------------------

    def red_weight(self, element: Element) -> float:
        return self._red_weights.get(element, 1.0)

    def reds_of(self, name: str) -> frozenset[Element]:
        return self._reds_of[name]

    def blues_of(self, name: str) -> frozenset[Element]:
        return self._blues_of[name]

    def red_degree(self, name: str) -> int:
        """Number of red elements in one set (the LowDeg threshold
        quantity)."""
        return len(self._reds_of[name])

    def is_feasible(self, selection: Iterable[str]) -> bool:
        """Do the selected sets cover every blue element?"""
        blues_of = self._blues_of
        covered: set[Element] = set()
        for name in selection:
            covered.update(blues_of[name])
        return self.blues <= covered

    def covered_reds(self, selection: Iterable[str]) -> frozenset[Element]:
        reds_of = self._reds_of
        out: set[Element] = set()
        for name in selection:
            out.update(reds_of[name])
        return frozenset(out)

    def cost(self, selection: Iterable[str]) -> float:
        """Total weight of red elements covered by the selection."""
        return math.fsum(
            self.red_weight(r) for r in self.covered_reds(selection)
        )

    def feasibility_possible(self) -> bool:
        """Is any feasible selection possible at all?"""
        return self.is_feasible(self.sets)

    def min_feasible_tau(self) -> int | None:
        """Smallest red-degree threshold τ at which a LowDeg(τ) pass can
        possibly be feasible: the max over blue elements of the minimum
        red degree among sets containing that blue.  Any τ below this
        leaves some blue with no allowed set, so the τ-sweep in
        :func:`~repro.setcover.lowdeg.low_deg_two` skips those passes
        outright.  Returns ``None`` when some blue element is in no set
        at all (the instance is infeasible for every τ, including the
        unfiltered pass).  Computed once as a vectorized segment-min
        over the (set, blue) incidence pairs; cached.
        """
        cached = getattr(self, "_min_tau_cache", False)
        if cached is not False:
            return cached
        blue_index = {blue: i for i, blue in enumerate(self.blues)}
        num_blues = len(blue_index)
        sentinel = np.iinfo(np.int64).max
        min_deg = np.full(num_blues, sentinel, dtype=np.int64)
        names = list(self.sets)
        counts = [len(self._blues_of[name]) for name in names]
        degrees = np.repeat(
            np.fromiter(
                (len(self._reds_of[name]) for name in names),
                dtype=np.int64,
                count=len(names),
            ),
            counts,
        )
        pair_blues = np.fromiter(
            (
                blue_index[blue]
                for name in names
                for blue in self._blues_of[name]
            ),
            dtype=np.int64,
            count=int(degrees.size),
        )
        np.minimum.at(min_deg, pair_blues, degrees)
        if num_blues and int(min_deg.max()) == sentinel:
            result: int | None = None
        else:
            result = int(min_deg.max()) if num_blues else 0
        self._min_tau_cache = result
        return result

    def __repr__(self) -> str:
        return (
            f"RedBlueSetCover(|R|={len(self.reds)}, |B|={len(self.blues)}, "
            f"|C|={len(self.sets)})"
        )


def solve_rbsc_exact(instance: RedBlueSetCover) -> tuple[list[str], float]:
    """Exact optimum by branch & bound over uncovered blue elements.

    Returns ``(selection, cost)``.  Raises :class:`SolverError` when no
    feasible selection exists.
    """
    if not instance.feasibility_possible():
        raise SolverError("RBSC instance is infeasible (uncoverable blue)")
    blues = sorted(instance.blues, key=repr)
    sets_by_blue: dict[Element, list[str]] = {
        blue: sorted(
            (n for n, members in instance.sets.items() if blue in members),
        )
        for blue in blues
    }

    best_cost = float("inf")
    best_selection: list[str] = []
    selection: list[str] = []
    covered_blues: set[Element] = set()
    covered_reds: set[Element] = set()

    def current_cost() -> float:
        return math.fsum(instance.red_weight(r) for r in covered_reds)

    def recurse() -> None:
        nonlocal best_cost, best_selection
        cost = current_cost()
        if cost >= best_cost:
            return
        uncovered = [b for b in blues if b not in covered_blues]
        if not uncovered:
            best_cost = cost
            best_selection = list(selection)
            return
        # Branch on the blue with the fewest candidate sets.
        target = min(uncovered, key=lambda b: len(sets_by_blue[b]))
        for name in sets_by_blue[target]:
            new_blues = instance.blues_of(name) - covered_blues
            new_reds = instance.reds_of(name) - covered_reds
            selection.append(name)
            covered_blues.update(new_blues)
            covered_reds.update(new_reds)
            recurse()
            selection.pop()
            covered_blues.difference_update(new_blues)
            covered_reds.difference_update(new_reds)

    recurse()
    return best_selection, best_cost
