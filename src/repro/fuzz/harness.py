"""The differential cross-check executor.

:func:`check_problem` runs one problem through every applicable route
and returns a :class:`CaseReport` listing the disagreements (empty when
all routes agree).  The checks, in the order they run:

1. **Serialization round-trip** — ``problem_to_dict`` →
   ``problem_from_dict`` must reproduce the views and ΔV.
1b. **Classifier agreement** — the session profile's classifier flags
   must match a fresh standalone structural scan
   (:func:`repro.relational.analysis.query_set_flags`).
2. **Route sweep** — every applicable registered strategy
   (:mod:`repro.core.registry`) must produce a feasible propagation
   (standard problems), and each propagation must be *consistent* under
   both :func:`repro.core.verify.verify_solution` backends (join engine
   and SQLite), with the backend's recomputed feasibility/side-effect
   matching the witness bookkeeping.
3. **Arena vs reference** — the arena-backed greedy/local-search
   solvers must match their object-backed twins in
   :mod:`repro.core.reference` move-for-move (identical fact sets).
4. **Exact ratio** — on small instances, the ILP optimum is computed
   and every route with a quoted guarantee must stay within its bound
   (Claim 1's ``2·sqrt(l·‖V‖·log‖ΔV‖)``, Theorem 3's ``l``, Theorem 4's
   ``2·sqrt(‖V‖)``, LP rounding's ``l²``; exact routes must match the
   optimum).  No route may beat the ILP (that would indict the ILP
   itself), and on standard problems the LP relaxation (1)–(5) must not
   exceed it.
4b. **Duel certificate** — on forest-duel cases, Algorithm 1's dual
   objective must not exceed the ILP optimum, and the auto answer must
   equal the full duel's (both candidates run, first minimum kept).
5. **Metamorphic invariants** — adding a fact in a fresh unrelated
   relation never changes any deterministic route's answer; duplicating
   ΔV rows in the problem document is a no-op; after applying a
   feasible propagation, re-solving the residual instance (every
   requested tuple already eliminated) deletes nothing.

A raised ``SolverError``/``NotKeyPreservingError`` marks a route as
inapplicable to the instance — only *crashes* and *disagreements* are
failures.  :func:`run_fuzz` drives generate → check → shrink → persist.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    DeadlineExceededError,
    NotKeyPreservingError,
    ProblemError,
    SolverError,
)
from repro.relational.instance import Instance
from repro.relational.schema import Key, RelationSchema, Schema
from repro.relational.tuples import Fact
from repro.core.general import claim1_bound
from repro.core.lowdeg_tree import theorem4_bound
from repro.core.lp_rounding import lp_rounding_bound
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)
from repro.core.registry import solve
from repro.core.resilience import Deadline, deadline_scope
from repro.core.session import SolveSession
from repro.core.solution import Propagation
from repro.core.verify import verify_solution

__all__ = ["CaseReport", "Disagreement", "FuzzStats", "check_problem", "run_fuzz"]

_EPS = 1e-6

#: Instances small enough for the exact ILP cross-check.  The arena-
#: compiled route (sparse blocks, exact lexicographic tie-break) solves
#: far larger programs in milliseconds than the old dense per-fact
#: assembly did, so the referee covers a wider slice of the generator's
#: output distribution.
_ILP_MAX_CANDIDATES = 48
_ILP_MAX_VIEW_TUPLES = 200

#: Name of the relation used by the unrelated-fact metamorphic check;
#: chosen to sort last so arena fact IDs of the original facts shift
#: as little as possible (the check must hold regardless).
_UNRELATED_RELATION = "ZZ_FUZZ_UNRELATED"


@dataclass(frozen=True)
class Disagreement:
    """One cross-route disagreement (or route crash)."""

    check: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.detail}"


@dataclass
class CaseReport:
    """Everything :func:`check_problem` learned about one case."""

    kind: str
    routes_run: list[str] = field(default_factory=list)
    failures: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, check: str, detail: str) -> None:
        self.failures.append(Disagreement(check, detail))


# ----------------------------------------------------------------------
# Route selection
# ----------------------------------------------------------------------


def _routes_for(problem: DeletionPropagationProblem) -> list[str]:
    """The strategies worth running on this problem's structure.

    Reads the problem's cached :class:`StructureProfile`, so the route
    sweep and the ``auto`` dispatch below share one set of structural
    predicates (computed exactly once per case)."""
    profile = SolveSession.of(problem).profile
    if isinstance(problem, BalancedDeletionPropagationProblem):
        routes = ["auto", "balanced-lowdeg"]
        if profile.key_preserving:
            routes += ["greedy-min-damage", "greedy-max-coverage"]
        return routes
    routes = ["auto"]
    if profile.key_preserving:
        routes += [
            "claim1",
            "greedy-min-damage",
            "greedy-max-coverage",
            "lp-rounding",
            "randomized-rounding",
        ]
        if profile.forest_case and profile.self_join_free:
            routes += ["primal-dual", "lowdeg-tree"]
        if profile.dp_tree_applies:
            routes.append("dp-tree")
    return routes


#: Quoted multiplicative guarantees per route (None = no guarantee, the
#: route is only checked for verifier consistency and not-beating-exact).
_ROUTE_BOUND: dict[str, Callable[[DeletionPropagationProblem], float] | None] = {
    "claim1": claim1_bound,
    "primal-dual": lambda p: float(p.max_arity),
    "lowdeg-tree": theorem4_bound,
    "dp-tree": lambda p: 1.0,
    # auto dispatches to the strongest applicable method; its weakest
    # guarantee on key-preserving problems is Claim 1's (on the forest
    # case it is the better of the l- and Theorem-4 bounds, both also
    # covered by taking the max).
    "auto": lambda p: max(claim1_bound(p), float(p.max_arity), theorem4_bound(p)),
    "greedy-min-damage": None,
    "greedy-max-coverage": None,
    "balanced-lowdeg": None,
    "lp-rounding": lp_rounding_bound,
    "randomized-rounding": None,
}


def _solve_route(
    problem: DeletionPropagationProblem, method: str, report: CaseReport
) -> Propagation | None:
    """Run one route; SolverError = inapplicable, anything else = crash."""
    try:
        propagation = solve(problem, method=method)
    except DeadlineExceededError:
        # The campaign budget (a SolverError subclass — it must not be
        # swallowed as "inapplicable") propagates to run_fuzz.
        raise
    except (SolverError, NotKeyPreservingError):
        return None
    except Exception:
        report.fail(
            f"route-crash:{method}",
            traceback.format_exc(limit=3).strip().splitlines()[-1],
        )
        return None
    report.routes_run.append(method)
    return propagation


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------


def _check_roundtrip(
    problem: DeletionPropagationProblem, report: CaseReport
) -> None:
    import json

    from repro.io.serialize import problem_from_dict, problem_to_dict

    try:
        # Through real JSON text, not just the dict form — the corpus
        # stores text, and the tuple→array encoding must invert.
        twin = problem_from_dict(
            json.loads(json.dumps(problem_to_dict(problem)))
        )
    except DeadlineExceededError:
        raise
    except Exception as exc:
        report.fail("serialize-roundtrip", f"{type(exc).__name__}: {exc}")
        return
    if sorted(twin.all_view_tuples()) != sorted(problem.all_view_tuples()):
        report.fail("serialize-roundtrip", "view tuples changed")
    if sorted(twin.deleted_view_tuples()) != sorted(
        problem.deleted_view_tuples()
    ):
        report.fail("serialize-roundtrip", "ΔV changed")


def _check_classifier_agreement(
    problem: DeletionPropagationProblem, report: CaseReport
) -> None:
    """The session profile's classifier flags must agree with a fresh
    standalone structural scan.

    Auto dispatch and ``repro classify`` both read the flags off the
    cached :class:`StructureProfile` (one shared scan); this check
    pins that cache to the ground truth
    :func:`repro.relational.analysis.query_set_flags` recomputes from
    scratch, so a stale or mis-serialized profile hint cannot silently
    reroute a problem."""
    from repro.relational.analysis import query_set_flags

    try:
        cached = SolveSession.of(problem).profile.classification_flags()
        fresh = query_set_flags(list(problem.queries))
    except DeadlineExceededError:
        raise
    except Exception as exc:
        report.fail("classify-vs-profile", f"{type(exc).__name__}: {exc}")
        return
    for name, value in fresh.items():
        if cached.get(name) != value:
            report.fail(
                "classify-vs-profile",
                f"flag {name}: profile says {cached.get(name)!r}, "
                f"fresh scan says {value!r}",
            )


def _check_propagation(
    method: str, propagation: Propagation, report: CaseReport
) -> None:
    problem = propagation.problem
    balanced = isinstance(problem, BalancedDeletionPropagationProblem)
    if not balanced and not propagation.is_feasible():
        report.fail(
            f"infeasible:{method}",
            f"surviving ΔV: {sorted(map(repr, propagation.surviving_delta))[:4]}",
        )
    for backend in ("engine", "sqlite"):
        try:
            verdict = verify_solution(propagation, backend=backend)
        except DeadlineExceededError:
            raise
        except Exception as exc:
            report.fail(
                f"verify-crash:{method}:{backend}",
                f"{type(exc).__name__}: {exc}",
            )
            continue
        if not verdict.consistent:
            report.fail(
                f"verify:{method}:{backend}",
                "; ".join(verdict.mismatches),
            )
            continue
        if verdict.feasible != propagation.is_feasible():
            report.fail(
                f"verify-feasibility:{method}:{backend}",
                f"backend says {verdict.feasible}, "
                f"bookkeeping says {propagation.is_feasible()}",
            )
        if abs(verdict.side_effect - propagation.side_effect()) > _EPS:
            report.fail(
                f"verify-side-effect:{method}:{backend}",
                f"backend {verdict.side_effect!r} vs "
                f"bookkeeping {propagation.side_effect()!r}",
            )


def _check_arena_vs_reference(
    problem: DeletionPropagationProblem, report: CaseReport
) -> None:
    if not SolveSession.of(problem).profile.key_preserving:
        return
    from repro.core.greedy import (
        solve_greedy_max_coverage,
        solve_greedy_min_damage,
    )
    from repro.core.local_search import improve
    from repro.core.reference import (
        reference_greedy_max_coverage,
        reference_greedy_min_damage,
        reference_improve,
    )

    pairs = [
        ("greedy-min-damage", solve_greedy_min_damage, reference_greedy_min_damage),
        ("greedy-max-coverage", solve_greedy_max_coverage, reference_greedy_max_coverage),
    ]
    start: Propagation | None = None
    for name, arena_solver, reference_solver in pairs:
        try:
            arena = arena_solver(problem)
            reference = reference_solver(problem)
        except DeadlineExceededError:
            raise
        except (SolverError, NotKeyPreservingError):
            continue
        except Exception:
            report.fail(
                f"twin-crash:{name}",
                traceback.format_exc(limit=3).strip().splitlines()[-1],
            )
            continue
        if arena.deleted_facts != reference.deleted_facts:
            report.fail(
                f"arena-vs-reference:{name}",
                f"arena {sorted(map(repr, arena.deleted_facts))} != "
                f"reference {sorted(map(repr, reference.deleted_facts))}",
            )
        if start is None:
            start = arena
    balanced = isinstance(problem, BalancedDeletionPropagationProblem)
    if start is not None and (balanced or start.is_feasible()):
        try:
            improved = improve(start)
            ref_improved = reference_improve(start)
        except DeadlineExceededError:
            raise
        except Exception:
            report.fail(
                "twin-crash:local-search",
                traceback.format_exc(limit=3).strip().splitlines()[-1],
            )
            return
        if improved.deleted_facts != ref_improved.deleted_facts:
            report.fail(
                "arena-vs-reference:local-search",
                f"arena {sorted(map(repr, improved.deleted_facts))} != "
                f"reference {sorted(map(repr, ref_improved.deleted_facts))}",
            )


def _ilp_applicable(problem: DeletionPropagationProblem) -> bool:
    return (
        SolveSession.of(problem).profile.key_preserving
        and len(problem.candidate_facts()) <= _ILP_MAX_CANDIDATES
        and problem.norm_v <= _ILP_MAX_VIEW_TUPLES
    )


def _check_ratios(
    problem: DeletionPropagationProblem,
    produced: dict[str, Propagation],
    report: CaseReport,
) -> float | None:
    """Check every route against the ILP optimum; returns the optimum
    (``None`` when the referee does not apply or failed)."""
    if not _ilp_applicable(problem):
        return None
    from repro.core.exact import solve_exact

    try:
        optimum = solve_exact(problem)
    except DeadlineExceededError:
        raise
    except (SolverError, NotKeyPreservingError):
        return None
    except Exception:
        report.fail(
            "route-crash:exact",
            traceback.format_exc(limit=3).strip().splitlines()[-1],
        )
        return None
    report.routes_run.append("exact")
    _check_propagation("exact", optimum, report)

    balanced = isinstance(problem, BalancedDeletionPropagationProblem)
    objective = (
        (lambda s: s.balanced_cost()) if balanced else (lambda s: s.side_effect())
    )
    opt_value = objective(optimum)
    if not balanced:
        _check_lp_bound(problem, opt_value, report)
    for method, propagation in produced.items():
        if not balanced and not propagation.is_feasible():
            continue
        value = objective(propagation)
        if value < opt_value - _EPS:
            report.fail(
                f"beats-exact:{method}",
                f"{method} objective {value!r} < exact optimum {opt_value!r}",
            )
        if balanced:
            continue  # quoted bounds below are for the standard problem
        bound_fn = _ROUTE_BOUND.get(method)
        if bound_fn is None:
            continue
        bound = bound_fn(problem)
        if value > bound * opt_value + _EPS:
            report.fail(
                f"ratio:{method}",
                f"side-effect {value!r} exceeds bound {bound:g} × "
                f"optimum {opt_value!r}",
            )
    return opt_value


def _check_lp_bound(
    problem: DeletionPropagationProblem, opt_value: float, report: CaseReport
) -> None:
    """The LP relaxation (1)–(5) must lower-bound the ILP optimum."""
    from repro.lp import lp_lower_bound

    try:
        bound = lp_lower_bound(problem)
    except DeadlineExceededError:
        raise
    except Exception as exc:
        report.fail("lp-bound-crash", f"{type(exc).__name__}: {exc}")
        return
    if bound > opt_value + _EPS:
        report.fail(
            "lp-bound",
            f"LP optimum {bound!r} exceeds exact optimum {opt_value!r}",
        )


def _check_duel_certificate(
    problem: DeletionPropagationProblem,
    auto: Propagation | None,
    opt_value: float | None,
    report: CaseReport,
) -> None:
    """On a forest-duel case, Algorithm 1's dual objective must not
    exceed the ILP optimum (weak duality — the certificate the duel
    stops on), and the auto answer must equal the full duel's: both
    candidates forced, the first minimum kept."""
    from repro.core.lowdeg_tree import solve_lowdeg_tree_sweep
    from repro.core.primal_dual import PrimalDualTrace, solve_primal_dual
    from repro.core.registry import route_plan

    if auto is None or route_plan(problem).name != "forest-duel":
        return
    trace = PrimalDualTrace()
    candidates = (
        solve_primal_dual(problem, trace=trace),
        solve_lowdeg_tree_sweep(problem),
    )
    dual = trace.dual_objective()
    if opt_value is not None and dual > opt_value + _EPS:
        report.fail(
            "duel-certificate:dual",
            f"dual objective {dual!r} exceeds exact optimum {opt_value!r}",
        )
    full = min(candidates, key=lambda candidate: candidate.side_effect())
    if (
        auto.deleted_facts != full.deleted_facts
        or auto.method != f"auto:{full.method}"
    ):
        report.fail(
            "duel-certificate:full-duel",
            f"auto {auto.method} {sorted(map(repr, auto.deleted_facts))} "
            f"!= full duel auto:{full.method} "
            f"{sorted(map(repr, full.deleted_facts))}",
        )


# ----------------------------------------------------------------------
# Metamorphic invariants
# ----------------------------------------------------------------------


def _deletions_mapping(problem: DeletionPropagationProblem) -> dict[str, list]:
    return {
        name: [tuple(values) for values in sorted(problem.deletion.on(name))]
        for name in problem.views.names
        if problem.deletion.on(name)
    }


def _with_unrelated_fact(
    problem: DeletionPropagationProblem,
) -> DeletionPropagationProblem:
    """The same problem over an instance extended with one fact in a
    fresh relation no query mentions."""
    relations = list(problem.instance.schema) + [
        RelationSchema(_UNRELATED_RELATION, ("k", "pad"), Key((0,)))
    ]
    schema = Schema(relations)
    instance = Instance(schema)
    for fact in problem.instance:
        instance.add(fact)
    instance.add(Fact(_UNRELATED_RELATION, ("zz0", "zzpad")))
    cls = type(problem)
    kwargs: dict[str, Any] = {}
    if isinstance(problem, BalancedDeletionPropagationProblem):
        kwargs["delta_penalty"] = problem.delta_penalty
    return cls(
        instance,
        list(problem.queries),
        _deletions_mapping(problem),
        weights=dict(problem._weights),
        **kwargs,
    )


def _check_metamorphic(
    problem: DeletionPropagationProblem,
    produced: dict[str, Propagation],
    report: CaseReport,
) -> None:
    # (1) Adding an unrelated fact never changes any route's answer.
    try:
        augmented = _with_unrelated_fact(problem)
    except DeadlineExceededError:
        raise
    except Exception as exc:
        report.fail("metamorphic-setup", f"{type(exc).__name__}: {exc}")
        return
    for method, original in produced.items():
        try:
            again = solve(augmented, method=method)
        except DeadlineExceededError:
            raise
        except (SolverError, NotKeyPreservingError) as exc:
            report.fail(
                f"metamorphic-unrelated-fact:{method}",
                f"became inapplicable: {exc}",
            )
            continue
        except Exception:
            report.fail(
                f"metamorphic-unrelated-fact:{method}",
                traceback.format_exc(limit=3).strip().splitlines()[-1],
            )
            continue
        if again.deleted_facts != original.deleted_facts:
            report.fail(
                f"metamorphic-unrelated-fact:{method}",
                f"answer changed: {sorted(map(repr, original.deleted_facts))}"
                f" -> {sorted(map(repr, again.deleted_facts))}",
            )

    # (2) Duplicated ΔV rows in the document are a no-op (the request
    # is a set; deleting an already-requested tuple twice changes
    # nothing).
    from repro.io.serialize import problem_from_dict, problem_to_dict

    doc = problem_to_dict(problem)
    if doc["deletions"] and "auto" in produced:
        doubled = dict(doc)
        doubled["deletions"] = {
            name: [list(row) for row in rows] + [list(rows[0])]
            for name, rows in doc["deletions"].items()
        }
        try:
            twin = solve(problem_from_dict(doubled), method="auto")
        except DeadlineExceededError:
            raise
        except Exception as exc:
            report.fail(
                "metamorphic-duplicate-request",
                f"{type(exc).__name__}: {exc}",
            )
        else:
            if twin.deleted_facts != produced["auto"].deleted_facts:
                report.fail(
                    "metamorphic-duplicate-request",
                    "duplicated ΔV rows changed the answer",
                )

    # (3) Once a feasible propagation is applied, every requested view
    # tuple is already eliminated — re-solving the residual instance is
    # a no-op (nothing left to delete, no further side-effect).
    base = produced.get("auto")
    if base is not None and base.is_feasible():
        try:
            residual_instance = problem.instance.without(base.deleted_facts)
            residual = DeletionPropagationProblem(
                residual_instance, list(problem.queries), {}
            )
            noop = solve(residual, method="auto")
        except DeadlineExceededError:
            raise
        except Exception as exc:
            report.fail("metamorphic-residual", f"{type(exc).__name__}: {exc}")
        else:
            if noop.deleted_facts:
                report.fail(
                    "metamorphic-residual",
                    f"residual solve deleted "
                    f"{sorted(map(repr, noop.deleted_facts))}",
                )
            elif noop.eliminated_view_tuples:
                report.fail(
                    "metamorphic-residual",
                    "empty residual propagation claims eliminations",
                )


# ----------------------------------------------------------------------
# Top-level entry points
# ----------------------------------------------------------------------


def check_problem(
    problem: DeletionPropagationProblem,
    kind: str = "adhoc",
    metamorphic: bool = True,
    deadline: Deadline | None = None,
) -> CaseReport:
    """Run the full differential check battery on one problem.

    ``deadline`` bounds the battery *cooperatively*: it is installed as
    the ambient deadline scope, so the solver hot loops inside each
    route check it mid-solve — an adversarial case cannot pin the
    campaign for longer than one checkpoint stride past the budget.
    Expiry raises :class:`~repro.errors.DeadlineExceededError` to the
    caller (:func:`run_fuzz` turns it into a clean campaign stop).
    """
    report = CaseReport(kind=kind)
    with deadline_scope(deadline):
        _check_roundtrip(problem, report)
        _check_classifier_agreement(problem, report)

        produced: dict[str, Propagation] = {}
        for method in _routes_for(problem):
            if deadline is not None:
                deadline.check(what=f"fuzz route sweep ({method})")
            propagation = _solve_route(problem, method, report)
            if propagation is None:
                continue
            produced[method] = propagation
            _check_propagation(method, propagation, report)

        if deadline is not None:
            deadline.check(what="fuzz cross-checks")
        _check_arena_vs_reference(problem, report)
        opt_value = _check_ratios(problem, produced, report)
        _check_duel_certificate(
            problem, produced.get("auto"), opt_value, report
        )
        if metamorphic:
            if deadline is not None:
                deadline.check(what="fuzz metamorphic checks")
            _check_metamorphic(problem, produced, report)
    return report


@dataclass
class FuzzStats:
    """Summary of one :func:`run_fuzz` campaign."""

    iterations: int = 0
    routes: int = 0
    failures: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz(
    seed: int,
    iterations: int,
    budget_seconds: float | None = None,
    kinds: tuple[str, ...] | None = None,
    corpus_dir: str | None = None,
    shrink: bool = True,
    on_event: Callable[[str], None] | None = None,
) -> FuzzStats:
    """Generate → check → (shrink → persist) loop.

    Each iteration derives its own :class:`random.Random` from
    ``(seed, iteration)``, so any failing iteration can be replayed in
    isolation.  Failures are shrunk (when ``shrink``) and written to
    ``corpus_dir`` as replayable problem documents.
    """
    from repro.fuzz.corpus import write_corpus_case
    from repro.fuzz.generator import CASE_KINDS, generate_case
    from repro.fuzz.shrink import shrink_document
    from repro.io.serialize import problem_from_dict, problem_to_dict

    kinds = tuple(kinds) if kinds else CASE_KINDS
    say = on_event or (lambda _message: None)
    stats = FuzzStats()
    started = time.perf_counter()
    # A real Deadline, not an every-iteration elapsed check: the budget
    # also cuts *through* a slow case via the solver checkpoints, so one
    # adversarial instance cannot blow far past budget_seconds.
    deadline = (
        Deadline.after(budget_seconds) if budget_seconds is not None else None
    )
    for iteration in range(iterations):
        if deadline is not None and deadline.expired:
            say(f"budget exhausted after {iteration} iterations")
            break
        rng = random.Random((seed * 1_000_003 + iteration) & 0xFFFFFFFF)
        try:
            case = generate_case(rng, kinds)
        except ProblemError:
            continue  # degenerate sample (e.g. empty views); not a bug
        try:
            report = check_problem(
                case.problem, kind=case.kind, deadline=deadline
            )
        except DeadlineExceededError:
            say(f"budget exhausted during iteration {iteration}")
            break
        stats.iterations += 1
        stats.routes += len(report.routes_run)
        if report.ok:
            continue
        failure = report.failures[0]
        say(
            f"iteration {iteration} ({case.kind}): "
            f"{len(report.failures)} disagreement(s); first: {failure}"
        )
        doc = problem_to_dict(case.problem)
        if shrink:
            doc, _ = shrink_document(
                doc,
                check=failure.check,
                rebuild=problem_from_dict,
                run_checks=lambda p: check_problem(p, kind=case.kind),
            )
        entry = {
            "version": 1,
            "kind": case.kind,
            "seed": seed,
            "iteration": iteration,
            "checks": [f.check for f in report.failures],
            "detail": str(failure),
            "problem": doc,
        }
        stats.failures.append(entry)
        if corpus_dir is not None:
            path = write_corpus_case(corpus_dir, entry)
            say(f"  wrote shrunken case to {path}")
    stats.wall_seconds = time.perf_counter() - started
    return stats
