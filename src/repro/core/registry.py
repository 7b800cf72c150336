"""Solver registry and structure-aware dispatch.

``solve(problem)`` picks the strongest applicable method by walking a
declarative **route table**: an ordered list of
``(predicate over the StructureProfile, solver over the SolveSession)``
pairs.  The profile is computed once per instance by the
:class:`~repro.core.session.SolveSession`, so dispatch never re-runs the
structural scans.  The routes, in order:

1. **Balanced** problems: exact DP when the pivot-forest structure holds,
   else the Lemma 1 PN-PSC pipeline.
2. Empty ΔV: the trivial empty solution.
3. Standard problems with a single deleted view tuple: exact argmin.
4. Non-key-preserving inputs: fall back to exact search.
5. Pivot-forest structure: Algorithm 4 (exact, polynomial).
6. Forest case: run Algorithm 1 (``PrimeDualVSE``) and Algorithm 3
   (``LowDegTreeVSETwo``) and keep the cheaper — the paper notes the
   ``2·sqrt(‖V‖)`` bound "is sometimes better than factor l".  The
   winner is labeled ``auto:<winner>`` and every candidate's cost is
   recorded in the :class:`SolveReport` trace.  Algorithm 3 is skipped
   when Algorithm 1's own dual certifies its answer optimal.
7. Small/medium key-preserving instances (``‖V‖`` up to
   ``ILP_ROUTE_MAX_NORM_V``) with no special structure: the
   arena-compiled exact ILP (:mod:`repro.lp.ilp`) — an exact answer in
   milliseconds where the general pipeline only approximates.
8. Otherwise: the Claim 1 RBSC pipeline.

``solve_report`` returns the full :class:`SolveReport` envelope (the
:class:`~repro.core.solution.Propagation` plus the route taken, the
per-stage timings, and the producing solver's
:class:`~repro.core.oracle.OracleCounters`); ``solve`` is the
propagation-only wrapper.  Named solvers are exposed directly via
``solve(problem, method)``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SolverError
from repro.core.balanced import solve_balanced
from repro.core.dp_tree import solve_dp_tree
from repro.core.exact import (
    solve_exact,
    solve_exact_bruteforce,
    solve_exact_ilp,
)
from repro.core.general import solve_general
from repro.core.greedy import solve_greedy_max_coverage, solve_greedy_min_damage
from repro.core.lowdeg_tree import solve_lowdeg_tree_sweep
from repro.core.lp_rounding import solve_lp_rounding, solve_randomized_rounding
from repro.core.primal_dual import PrimalDualTrace, solve_primal_dual
from repro.core.problem import DeletionPropagationProblem
from repro.core.resilience import (
    AttemptRecord,
    Deadline,
    SolvePolicy,
    deadline_scope,
)
from repro.core.session import SolveSession, StructureProfile
from repro.core.single_query import (
    solve_single_deletion,
    solve_single_query,
    solve_two_atom_mincut,
)
from repro.core.solution import Propagation

__all__ = [
    "SOLVERS",
    "ROUTE_TABLE",
    "Route",
    "RouteStage",
    "SolveReport",
    "ILP_ROUTE_MAX_NORM_V",
    "available_solvers",
    "route_plan",
    "solve",
    "solve_report",
]

Solver = Callable[[DeletionPropagationProblem], Propagation]

SOLVERS: dict[str, Solver] = {
    "exact": solve_exact,
    "exact-bnb": solve_exact_bruteforce,
    "exact-ilp": solve_exact_ilp,
    "claim1": solve_general,
    "balanced-lowdeg": solve_balanced,
    "primal-dual": solve_primal_dual,
    "lowdeg-tree": solve_lowdeg_tree_sweep,
    "lp-rounding": solve_lp_rounding,
    "randomized-rounding": solve_randomized_rounding,
    "dp-tree": solve_dp_tree,
    "single-query": solve_single_query,
    "single-deletion": solve_single_deletion,
    "two-atom-mincut": solve_two_atom_mincut,
    "greedy-min-damage": solve_greedy_min_damage,
    "greedy-max-coverage": solve_greedy_max_coverage,
}


def available_solvers() -> list[str]:
    """Names accepted by :func:`solve` (besides ``"auto"``)."""
    return sorted(SOLVERS)


# ----------------------------------------------------------------------
# SolveReport envelope
# ----------------------------------------------------------------------


@dataclass
class RouteStage:
    """One solver execution inside a dispatch: what ran, how long it
    took, what it cost, and whether its answer was kept."""

    route: str  #: route-table entry (or ``forced:<name>``)
    method: str  #: the produced Propagation's method label
    seconds: float
    objective: float | None  #: the candidate's natural objective
    chosen: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "route": self.route,
            "method": self.method,
            "seconds": self.seconds,
            "objective": self.objective,
            "chosen": self.chosen,
        }


@dataclass
class SolveReport:
    """The uniform dispatch envelope: the winning propagation plus how
    it was reached.

    ``trace`` holds every solver actually executed — for the forest
    duel that is both candidates, with the loser's cost preserved
    instead of silently discarded.  ``note`` says why a duel ran only
    one candidate (a dual certificate or an expired deadline); it is
    printed by :meth:`summary` and never serialized.

    ``attempts`` is the resilience trace: empty for a plain dispatch,
    and one :class:`~repro.core.resilience.AttemptRecord` per attempt
    (method tried, deadline hit, retry cause) when the solve ran under
    a :class:`~repro.core.resilience.SolvePolicy` or through the pool
    supervisor.
    """

    propagation: Propagation
    route: str  #: name of the route-table entry (or ``forced:<name>``)
    profile: StructureProfile
    trace: list[RouteStage] = field(default_factory=list)
    attempts: list[AttemptRecord] = field(default_factory=list)
    note: str | None = None

    @property
    def method(self) -> str:
        return self.propagation.method

    @property
    def counters(self):
        """The producing solver's OracleCounters (``None`` when the
        winning route did not run on the elimination oracle)."""
        return self.propagation.counters

    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.trace)

    def summary(self) -> str:
        lines = [
            f"route {self.route}: {self.propagation.summary()}",
        ]
        for stage in self.trace:
            mark = "*" if stage.chosen else " "
            objective = (
                "-" if stage.objective is None else f"{stage.objective:g}"
            )
            lines.append(
                f"  {mark} {stage.method:<24} {stage.seconds * 1e3:8.2f} ms"
                f"  objective {objective}"
            )
        if self.note:
            lines.append(f"  ({self.note})")
        for record in self.attempts:
            lines.append(f"  ~ {record.summary()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Route table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """One dispatch rule: if ``applies(profile)``, answer with
    ``run(session)``."""

    name: str
    applies: Callable[[StructureProfile], bool]
    run: Callable[[SolveSession], Propagation]


#: Instances up to this ``‖V‖`` take the exact ILP route when no
#: stronger structural route applies — the arena-compiled backend
#: answers these in single-digit milliseconds (see BENCH_ilp_exact),
#: so an exact answer beats the Claim 1 approximation outright.
ILP_ROUTE_MAX_NORM_V = 64

#: Relative slack taken off Algorithm 1's float dual objective before
#: it certifies: the dual is a float sum and may overshoot the exact
#: dual by rounding, never by this much.
_DUAL_SLACK = 1e-9


def _run_trivial(session: SolveSession) -> Propagation:
    return Propagation(session.problem, (), method="auto-trivial")


def _duel_certificate(
    session: SolveSession, side_effect: float, dual: float
) -> str | None:
    """Why Algorithm 1's answer cannot lose the duel, or ``None``.

    ``dual`` is a feasible dual objective, so it lower-bounds the
    optimum (docs/ALGORITHMS.md, "Certified forest duel").  With
    integer weights the optimum is an integer too, so ``ceil(dual)``
    bounds it; otherwise only the slack-reduced dual does, which keeps
    a float tie from certifying.  The optimum is never negative.  A
    side effect at or below the bound is optimal, and Algorithm 3 can
    at best tie it — which the first-minimum rule resolves for
    Algorithm 1.
    """
    floor = dual - _DUAL_SLACK * max(1.0, abs(dual))
    if session.integer_weights():
        bound = max(0, math.ceil(floor))
        if side_effect <= bound:
            return (
                f"certified: side effect {side_effect:g} <= "
                f"ceil(dual {dual:.6g}) = {bound}"
            )
    elif side_effect <= max(0.0, floor):
        return (
            f"certified: side effect {side_effect:g} <= "
            f"dual {dual:.6g}"
        )
    return None


def _run_forest_duel(session: SolveSession) -> Propagation:
    """Run Algorithm 1, then Algorithm 3, and keep the cheaper (the
    first on a tie), labeled with the winner; every candidate that ran
    is stashed as a trace stage.

    Algorithm 3 runs only when it could change the answer.  It is
    skipped when Algorithm 1's dual certifies Algorithm 1 optimal (see
    :func:`_duel_certificate`), and when the active deadline has
    expired — a one-candidate duel is still a correct (just possibly
    costlier) answer, so the duel degrades instead of raising.
    """
    problem = session.problem
    trace = PrimalDualTrace()
    start = time.perf_counter()
    first = solve_primal_dual(problem, trace=trace)
    candidates = [(first, time.perf_counter() - start)]
    note = _duel_certificate(
        session, first.side_effect(), trace.dual_objective()
    )
    deadline = session.deadline
    if note is None and deadline is not None and deadline.expired:
        note = "deadline: expired after primal-dual, lowdeg-tree skipped"
    if note is None:
        start = time.perf_counter()
        second = solve_lowdeg_tree_sweep(problem)
        candidates.append((second, time.perf_counter() - start))
    winner = min(candidates, key=lambda pair: pair[0].side_effect())[0]
    labeled = winner.relabeled(f"auto:{winner.method}")
    # Stash the duel stages for solve_report to splice into the trace.
    labeled.duel_stages = [
        RouteStage(
            route="forest-duel",
            method=candidate.method,
            seconds=seconds,
            objective=candidate.side_effect(),
            chosen=candidate is winner,
        )
        for candidate, seconds in candidates
    ]
    labeled.duel_note = note
    return labeled


ROUTE_TABLE: tuple[Route, ...] = (
    Route(
        "balanced-dp",
        lambda p: p.balanced and p.key_preserving and p.dp_tree_applies,
        lambda s: solve_dp_tree(s.problem),
    ),
    Route(
        "balanced",
        lambda p: p.balanced,
        lambda s: solve_balanced(s.problem),
    ),
    Route("trivial", lambda p: p.empty_delta, _run_trivial),
    Route(
        "single-deletion",
        lambda p: p.norm_delta_v == 1 and p.key_preserving,
        lambda s: solve_single_deletion(s.problem),
    ),
    Route(
        # Outside the paper's algorithmic class: fall back to exact.
        "exact-fallback",
        lambda p: not p.key_preserving,
        lambda s: solve_exact(s.problem),
    ),
    Route(
        "dp-tree",
        lambda p: p.dp_tree_applies,
        lambda s: solve_dp_tree(s.problem),
    ),
    Route(
        # Algorithms 1 and 3 walk the data dual graph, which is only
        # defined for sj-free queries; self-join forest inputs fall
        # through to the Claim 1 pipeline.
        "forest-duel",
        lambda p: p.forest_case and p.self_join_free,
        _run_forest_duel,
    ),
    Route(
        # Small/medium key-preserving instances outside every special
        # structure: the arena-compiled ILP answers *exactly* in
        # milliseconds where the Claim 1 pipeline only approximates.
        # Balanced problems never reach here (the balanced routes are
        # a catch-all for them); larger instances fall through to the
        # approximation below.
        "exact-ilp",
        lambda p: (
            not p.balanced
            and p.key_preserving
            and p.norm_v <= ILP_ROUTE_MAX_NORM_V
        ),
        lambda s: solve_exact_ilp(s.problem),
    ),
    Route("general", lambda p: True, lambda s: solve_general(s.problem)),
)


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def route_plan(
    problem: DeletionPropagationProblem | SolveSession,
) -> Route:
    """The :data:`ROUTE_TABLE` entry an auto dispatch of ``problem``
    takes: the first whose predicate holds (``repro route explain``
    prints it)."""
    session = (
        problem
        if isinstance(problem, SolveSession)
        else SolveSession.of(problem)
    )
    for route in ROUTE_TABLE:
        if route.applies(session.profile):
            return route
    raise SolverError("route table exhausted (missing catch-all)")


def _record_trace(session: SolveSession, report: SolveReport) -> None:
    """Append the dispatch to the trace store.  Best-effort by
    contract: recording failures must never surface as solve
    failures."""
    try:
        from repro.core.tracestore import default_store, record_from_report

        store = default_store()
        if store is not None:
            store.append(record_from_report(session, report))
    except Exception:
        pass


def solve_report(
    problem: DeletionPropagationProblem | SolveSession,
    method: str = "auto",
    deadline: Deadline | None = None,
    policy: SolvePolicy | None = None,
    rng: "random.Random | None" = None,
) -> SolveReport:
    """Solve and return the full :class:`SolveReport` envelope.

    Accepts either a problem (a session is built or reused via
    :meth:`SolveSession.of`) or an existing session.  ``deadline``
    installs a cooperative per-request deadline around the dispatch
    (composing with any enclosing scope); ``policy`` delegates to
    :func:`repro.core.resilience.solve_with_policy` for the full
    deadline + retry + fallback-chain treatment, with ``rng`` (or a
    per-request seeded default) driving its backoff jitter.
    """
    if policy is not None:
        from repro.core.resilience import solve_with_policy

        return solve_with_policy(
            problem,
            method=method,
            policy=policy,
            deadline=deadline,
            rng=rng,
        )
    if deadline is not None:
        with deadline_scope(deadline):
            return solve_report(problem, method=method)

    if isinstance(problem, SolveSession):
        session = problem
    else:
        session = SolveSession.of(problem)

    if method != "auto":
        try:
            solver = SOLVERS[method]
        except KeyError:
            raise SolverError(
                f"unknown method {method!r}; available: "
                f"{', '.join(available_solvers())} or 'auto'"
            ) from None
        start = time.perf_counter()
        propagation = solver(session.problem)
        seconds = time.perf_counter() - start
        report = SolveReport(
            propagation=propagation,
            route=f"forced:{method}",
            profile=session.profile,
            trace=[
                RouteStage(
                    route=f"forced:{method}",
                    method=propagation.method,
                    seconds=seconds,
                    objective=propagation.objective(),
                    chosen=True,
                )
            ],
        )
        _record_trace(session, report)
        return report

    route = route_plan(session)
    start = time.perf_counter()
    propagation = route.run(session)
    seconds = time.perf_counter() - start
    stages = getattr(propagation, "duel_stages", None)
    if stages is None:
        stages = [
            RouteStage(
                route=route.name,
                method=propagation.method,
                seconds=seconds,
                objective=propagation.objective(),
                chosen=True,
            )
        ]
    report = SolveReport(
        propagation=propagation,
        route=route.name,
        profile=session.profile,
        trace=stages,
        note=getattr(propagation, "duel_note", None),
    )
    _record_trace(session, report)
    return report


def solve(
    problem: DeletionPropagationProblem,
    method: str = "auto",
    deadline: Deadline | None = None,
    policy: SolvePolicy | None = None,
    rng: "random.Random | None" = None,
) -> Propagation:
    """Solve a deletion-propagation problem.

    ``method="auto"`` dispatches by structure via the route table (see
    module docstring); any name from :func:`available_solvers` forces a
    specific algorithm.  ``deadline`` / ``policy`` / ``rng`` add the
    resilience layer (see :mod:`repro.core.resilience`).  Use
    :func:`solve_report` for the route trace, per-stage timings, and
    attempt trace.
    """
    return solve_report(
        problem,
        method=method,
        deadline=deadline,
        policy=policy,
        rng=rng,
    ).propagation
