"""Greedy set-cover primitives.

Two flavours used by the RBSC approximation:

* :func:`greedy_weighted_cover` — the classical ln-n greedy for weighted
  set cover: repeatedly pick the set minimizing (weight of newly covered
  red elements) / (number of newly covered blue elements).
* :func:`greedy_rbsc` — direct red-cost greedy on an RBSC instance, a
  baseline in the benches.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.errors import SolverError
from repro.setcover.redblue import RedBlueSetCover

__all__ = ["greedy_weighted_cover", "greedy_rbsc"]

Element = Hashable


def greedy_weighted_cover(
    instance: RedBlueSetCover, allowed: list[str] | None = None
) -> list[str] | None:
    """Greedy cover of the blue elements using only ``allowed`` sets
    (default all).  The priority of a set is the weight of red elements
    it newly covers per blue element it newly covers.  Returns the
    selection, or ``None`` when the allowed sets cannot cover the blues.
    """
    names = list(instance.sets) if allowed is None else list(allowed)
    uncovered_blues = set(instance.blues)
    covered_reds: set[Element] = set()
    selection: list[str] = []
    while uncovered_blues:
        best_name = None
        best_priority = float("inf")
        for name in names:
            new_blues = instance.blues_of(name) & uncovered_blues
            if not new_blues:
                continue
            new_red_weight = math.fsum(
                instance.red_weight(r)
                for r in instance.reds_of(name) - covered_reds
            )
            priority = new_red_weight / len(new_blues)
            if priority < best_priority or (
                priority == best_priority
                and best_name is not None
                and name < best_name
            ):
                best_priority = priority
                best_name = name
        if best_name is None:
            return None
        selection.append(best_name)
        uncovered_blues -= instance.blues_of(best_name)
        covered_reds |= instance.reds_of(best_name)
    return selection


def greedy_rbsc(instance: RedBlueSetCover) -> tuple[list[str], float]:
    """Plain greedy baseline for RBSC over the full collection."""
    selection = greedy_weighted_cover(instance)
    if selection is None:
        raise SolverError("RBSC instance is infeasible (uncoverable blue)")
    return selection, instance.cost(selection)
