"""LP-relaxation rounding — general-case approximations beyond the
paper's toolbox, built on its own LP (Section IV.C).

**Deterministic rounding** (:func:`solve_lp_rounding`): solve the primal
relaxation (1)–(5) over the candidate facts and round with threshold
``1/l``:

* Feasibility: each ΔV covering constraint ``Σ_{t ∈ r} y_t >= 1`` has at
  most ``l`` terms, so some fact reaches ``y_t >= 1/l`` and survives the
  rounding — every ΔV tuple is eliminated.
* Ratio: a preserved tuple ``s`` destroyed by the rounding contains a
  deleted fact ``t`` with ``y_t >= 1/l``; constraint (2) then forces
  ``x_s >= y_t / k_s >= 1/l²``, so the rounded cost is at most
  ``l² · LP <= l² · OPT``.

**Randomized rounding** (:func:`solve_randomized_rounding`): delete each
candidate fact independently with probability
``min(1, y_t · ln(1 + ‖ΔV‖) )``, repair any uncovered witness with its
cheapest fact, repeat a few times and keep the best outcome.  Expected
cost is ``O(l · log ‖ΔV‖) · LP`` — better than ``l²`` whenever
``log ‖ΔV‖ < l`` — and feasibility is guaranteed by the repair step
regardless of the coin flips.

Both apply to **any** key-preserving instance (unlike Algorithms 1–3,
which need the forest case), giving alternatives next to the Claim 1
pipeline.  A reverse-delete prune keeps solutions minimal.
Experimentally compared in ``benchmarks/bench_ablation_solvers.py`` and
validated against the deterministic bound in the tests.
"""

from __future__ import annotations

import math
import random

from repro.errors import NotKeyPreservingError
from repro.relational.tuples import Fact
from repro.core.problem import DeletionPropagationProblem
from repro.core.session import SolveSession
from repro.core.solution import Propagation
from repro.lp.formulations import primal_vse_lp

__all__ = [
    "solve_lp_rounding",
    "solve_randomized_rounding",
    "lp_rounding_bound",
]


def _candidate_values(
    problem: DeletionPropagationProblem, route: str
) -> list[tuple[Fact, float]] | None:
    """``(fact, y_t)`` of the LP optimum per candidate fact, in ascending
    fact order — or ``None`` when ΔV is empty (nothing to delete)."""
    session = SolveSession.of(problem)
    if not session.profile.key_preserving:
        raise NotKeyPreservingError(f"{route} requires key-preserving queries")
    if session.profile.empty_delta:
        return None
    candidates = session.arena.candidate_ids_np
    y = primal_vse_lp(problem).solve().values[: candidates.size]
    return list(zip(session.arena.facts_of(candidates.tolist()), y.tolist()))


def solve_lp_rounding(problem: DeletionPropagationProblem) -> Propagation:
    """Solve the LP relaxation and round ``y_t >= 1/l`` up.

    Requires key-preserving queries (like every algorithm in the
    paper).  Returns a feasible solution within ``l²`` of the optimum.
    """
    values = _candidate_values(problem, "LP rounding")
    if values is None:
        return Propagation(problem, (), method="lp-rounding")
    threshold = 1.0 / max(1, problem.max_arity)
    deleted = {fact for fact, value in values if value >= threshold - 1e-12}
    return Propagation(
        problem, _prune(problem, deleted), method="lp-rounding"
    )


def lp_rounding_bound(problem: DeletionPropagationProblem) -> float:
    """The proven deterministic rounding ratio ``l²``."""
    return float(max(1, problem.max_arity)) ** 2


def _prune(
    problem: DeletionPropagationProblem, deleted: set[Fact]
) -> frozenset[Fact]:
    """Reverse-delete: drop deletions unnecessary for feasibility."""
    witnesses = {
        vt: problem.witness(vt) for vt in problem.deleted_view_tuples()
    }
    needed = set(deleted)
    for fact in sorted(deleted, reverse=True):
        trial = needed - {fact}
        if all(witness & trial for witness in witnesses.values()):
            needed = trial
    return frozenset(needed)


def solve_randomized_rounding(
    problem: DeletionPropagationProblem,
    rng: random.Random | None = None,
    repetitions: int = 5,
) -> Propagation:
    """Randomized LP rounding with greedy repair (see module docstring).

    Deterministic for a given ``rng`` seed; feasible regardless of the
    coin flips thanks to the repair step.
    """
    values = _candidate_values(problem, "randomized rounding")
    if values is None:
        return Propagation(problem, (), method="randomized-rounding")
    rng = rng or random.Random(0)
    delta = problem.deleted_view_tuples()
    witnesses = {vt: problem.witness(vt) for vt in delta}
    inflation = math.log(1 + problem.norm_delta_v)

    def damage_of(fact: Fact, already: set[Fact]) -> float:
        # The preserved tuples deleting ``fact`` newly eliminates, folded
        # with fsum so the total does not depend on set iteration order.
        return math.fsum(
            problem.weight(vt)
            for vt in problem.dependents(fact)
            if vt not in problem.deletion and not problem.witness(vt) & already
        )

    best: Propagation | None = None
    for _ in range(max(1, repetitions)):
        deleted = {
            fact
            for fact, value in values
            if rng.random() < min(1.0, value * inflation)
        }
        # Repair: cover every missed witness with its cheapest fact.
        for vt in delta:
            if witnesses[vt] & deleted:
                continue
            cheapest = min(
                sorted(witnesses[vt]),
                key=lambda fact: damage_of(fact, deleted),
            )
            deleted.add(cheapest)
        candidate = Propagation(
            problem, _prune(problem, deleted), method="randomized-rounding"
        )
        if best is None or candidate.side_effect() < best.side_effect():
            best = candidate
    assert best is not None
    return best
