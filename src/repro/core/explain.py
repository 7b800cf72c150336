"""Human-readable explanations of deletion-propagation solutions.

A suggested ``ΔD`` is only actionable if the user can see *why* each
fact is on the list and *what it costs*.  :func:`explain_solution`
renders exactly that:

* per deleted fact: the ΔV tuples it helps eliminate (its coverage) and
  the preserved tuples it collaterally destroys;
* redundancy notes: facts whose coverage is already provided by the
  rest of the solution (none, after the solvers' reverse-delete passes);
* the bottom line: feasibility, side-effect, and — when the problem is
  small enough to solve exactly — the gap to the optimum.
"""

from __future__ import annotations

import math

from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.solution import Propagation

__all__ = ["explain_solution", "coverage_of"]


def coverage_of(
    solution: Propagation,
) -> dict[Fact, tuple[list[ViewTuple], list[ViewTuple]]]:
    """Per deleted fact: ``(delta_covered, collateral_caused)``.

    ``delta_covered`` lists the ΔV tuples with some witness through the
    fact; ``collateral_caused`` the preserved tuples it (alone or with
    the rest of the deletion) eliminates through their witnesses.
    """
    problem = solution.problem
    delta = frozenset(problem.deleted_view_tuples())
    out: dict[Fact, tuple[list[ViewTuple], list[ViewTuple]]] = {}
    for fact in sorted(solution.deleted_facts):
        covered = sorted(
            vt for vt in problem.dependents(fact) if vt in delta
        )
        collateral = sorted(
            vt
            for vt in problem.dependents(fact)
            if vt not in delta and vt in solution.collateral
        )
        out[fact] = (covered, collateral)
    return out


def explain_solution(
    solution: Propagation, include_optimum_gap: bool = False
) -> str:
    """Render the full explanation as text.

    ``include_optimum_gap`` additionally solves the instance exactly
    (exponential in the worst case) and reports the gap.
    """
    problem = solution.problem
    lines = [solution.summary()]
    coverage = coverage_of(solution)
    for fact, (covered, collateral) in coverage.items():
        lines.append(f"delete {fact!r}")
        if covered:
            targets = ", ".join(repr(vt) for vt in covered[:4])
            suffix = " …" if len(covered) > 4 else ""
            lines.append(f"  eliminates from ΔV: {targets}{suffix}")
        else:
            lines.append("  eliminates from ΔV: nothing directly")
        if collateral:
            losses = ", ".join(repr(vt) for vt in collateral[:4])
            suffix = " …" if len(collateral) > 4 else ""
            weight = math.fsum(problem.weight(vt) for vt in collateral)
            lines.append(
                f"  collateral (weight {weight:g}): {losses}{suffix}"
            )
        else:
            lines.append("  collateral: none")
    surviving = sorted(solution.surviving_delta)
    if surviving:
        lines.append(
            "WARNING — ΔV tuples left standing: "
            + ", ".join(repr(vt) for vt in surviving[:4])
        )
    if include_optimum_gap:
        from repro.core.exact import solve_exact

        optimum = solve_exact(problem)
        gap = solution.side_effect() - optimum.side_effect()
        lines.append(
            f"optimum side-effect {optimum.side_effect():g} "
            f"(gap {gap:g})"
        )
    return "\n".join(lines)
