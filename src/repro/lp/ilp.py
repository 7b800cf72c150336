"""Arena-compiled exact ILP — the first-class 0/1 route.

The previous ILP backend (``repro.core.exact``) assembled dense
constraint rows fact-by-fact in Python dicts, biased the objective with
a fixed ``1e-9`` per-deletion epsilon, checked the ambient deadline only
once, and raised on every ``success=False`` result even when HiGHS held
a feasible incumbent.  This module replaces all of it with a compiler
straight over the :class:`~repro.core.arena.CompiledProblem` CSR slabs:

* **Constraint blocks as sparse matrices.**  The vt → witness CSR slab
  *is* the incidence matrix ``W`` (one ``scipy.sparse.csr_matrix``
  wrapping the arena buffers, zero copies, ΔV-independent and shared
  across ``with_deletions`` siblings through the session's artifact
  holder).  Per ΔV binding the compiler slices ``W`` down to the
  candidate columns and emits three vectorized blocks — collateral
  linking ``x_r − y_t ≥ 0``, standard covering ``Σ_{t∈wit(b)} y_t ≥ 1``,
  balanced coverage ``c_b − Σ y_t ≤ 0`` — with no per-fact Python loop.
* **Exact lexicographic tie-break.**  Instead of the epsilon, the solve
  is lexicographic in (primary objective, number of deletions): one
  integer-scaled solve ``min M·primary + Σy`` with ``M = n_y + 1`` when
  the arena certifies :attr:`~repro.core.arena.CompiledProblem.exact_costs`
  and the scaled magnitudes stay in float64's exact-integer range,
  otherwise a two-stage solve (minimize primary, pin it, minimize
  ``Σy``).  Optimality among weights is never perturbed.
* **Deadline-respecting incumbents.**  The ambient
  :class:`~repro.core.resilience.Deadline` maps onto HiGHS
  ``time_limit``; a solve stopped at the limit extracts and verifies
  the solver's own feasible incumbent (``result.x`` guarded against
  ``None``) and raises :class:`~repro.errors.DeadlineExceededError`
  *carrying* the best incumbent, so a policy-governed request degrades
  to route ``degraded:exact-ilp`` instead of failing.
* **Warm starts.**  ``scipy``'s ``milp`` takes no starting point, so
  the greedy + local-search incumbent enters as an objective cutoff row
  ``primary(v) ≤ primary(incumbent)`` — pruning the branch & bound
  exactly like a warm-started upper bound — and doubles as the
  degradation answer when the deadline fires first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    ReductionError,
    ReproError,
    SolverError,
)
from repro.core.resilience import active_deadline
from repro.core.solution import Propagation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

    from repro.core.arena import CompiledProblem
    from repro.core.problem import DeletionPropagationProblem
    from repro.core.session import SolveSession

__all__ = [
    "CompiledILP",
    "candidate_incidence",
    "compile_ilp",
    "solve_ilp",
    "witness_incidence",
]

#: Relative slack on primary-objective cutoff rows (the warm-start
#: bound and the stage-2 lexicographic pin) so float64 round-off in the
#: solver never cuts off the true optimum.
_CUTOFF_SLACK = 1e-9

#: Ceiling for the integer-scaled single solve: scaled costs must stay
#: where float64 integer arithmetic is exact (2**52 keeps a factor-2
#: margin below the 2**53 mantissa bound).
_EXACT_LIMIT = 2.0**52

#: ``scipy.optimize.milp`` status code for "iteration or time limit
#: reached" — the one non-success status that may still carry a
#: feasible incumbent in ``result.x``.
_MILP_STATUS_LIMIT = 1


@dataclass(frozen=True)
class CompiledILP:
    """One ΔV binding's 0/1 program, compiled from the arena slabs.

    Variable layout (all binary): ``y_t`` per candidate fact
    (``candidates``, ascending fact IDs — delete the fact), ``x_r`` per
    at-risk preserved view tuple (``at_risk``, ascending vt IDs —
    collateral indicator), and for balanced problems ``c_b`` per ΔV
    tuple (coverage indicator).  ``cost`` is the *primary* objective:
    zero on ``y``, the vt weight on ``x``, ``−delta_penalty`` on ``c``
    (so for balanced problems the optimum equals the balanced cost
    minus the constant ``penalty·‖ΔV‖`` offset).  ``matrix`` stacks the
    linking block and the covering/coverage block with elementwise
    bounds ``lower ≤ matrix·v ≤ upper``.
    """

    balanced: bool
    candidates: np.ndarray  #: candidate fact IDs (the ``y`` columns)
    at_risk: np.ndarray  #: at-risk preserved vt IDs (the ``x`` columns)
    cost: np.ndarray  #: primary objective over all variables
    matrix: "sparse.csr_matrix"
    lower: np.ndarray
    upper: np.ndarray

    @property
    def num_y(self) -> int:
        return int(self.candidates.size)

    @property
    def num_vars(self) -> int:
        return int(self.cost.size)


def witness_incidence(session: "SolveSession") -> "sparse.csr_matrix":
    """The full vt × fact witness incidence matrix as a zero-copy
    ``csr_matrix`` view over the arena's CSR slabs.

    ΔV-independent, so it is built once per compiled instance and
    shared by reference across every ``with_deletions`` sibling via the
    session's artifact holder — the incremental-re-solve half of the
    ILP route: a rebind only re-slices this matrix, never rebuilds it.
    """
    shared = session._shared
    matrix = shared.ilp_incidence
    if matrix is None:
        from scipy import sparse

        arena = session.arena
        matrix = sparse.csr_matrix(
            (
                np.ones(arena.wit_indices.size, dtype=np.float64),
                arena.wit_indices,
                arena.wit_offsets,
            ),
            shape=(arena.num_view_tuples, arena.num_facts),
        )
        shared.ilp_incidence = matrix
    return matrix


def candidate_incidence(session: "SolveSession") -> "sparse.csr_matrix":
    """The witness incidence restricted to this ΔV binding's candidate
    facts (columns in ascending fact-ID order) — the slice both the
    exact ILP and the LP relaxation (:mod:`repro.lp.formulations`)
    compile their blocks from."""
    return witness_incidence(session)[:, session.arena.candidate_ids_np].tocsr()


def compile_ilp(session: "SolveSession") -> CompiledILP:
    """Compile the session's ΔV binding into a :class:`CompiledILP`.

    Pure vectorized sparse assembly: column-slice the shared incidence
    matrix down to the candidate facts, take its ΔV rows as the
    covering (or coverage) block, and expand the at-risk rows' nonzero
    pattern into one linking row per (view tuple, witness fact) pair.
    Raises :class:`~repro.errors.ReductionError` when a standard ΔV
    tuple's covering row would be vacuous (its witness contains no
    candidate fact — an inconsistent reduction, not a solver failure).
    """
    from scipy import sparse

    arena = session.arena
    candidates = arena.candidate_ids_np
    ny = int(candidates.size)
    witness = candidate_incidence(session)

    delta_ids = arena.delta_ids_np
    nd = int(delta_ids.size)
    delta_rows = witness[delta_ids]
    cover_sizes = np.diff(delta_rows.indptr)
    if not arena.balanced and nd and int(cover_sizes.min()) == 0:
        vid = int(delta_ids[int(np.argmin(cover_sizes))])
        raise ReductionError(
            f"ΔV tuple {arena.vt_of(vid)!r} has a witness with no "
            "candidate fact; its covering constraint would be vacuous"
        )

    at_risk = np.flatnonzero(
        ~arena.delta_mask & (np.diff(witness.indptr) > 0)
    )
    nx = int(at_risk.size)
    nc = nd if arena.balanced else 0
    num_vars = ny + nx + nc

    # Linking block: one row per nonzero of the at-risk incidence —
    # x_r − y_t ≥ 0 forces the collateral indicator up whenever any
    # witness fact of r is deleted.
    link = witness[at_risk].tocoo()
    slots = int(link.nnz)
    linking = sparse.csr_matrix(
        (
            np.repeat([1.0, -1.0], slots),
            (np.tile(np.arange(slots), 2), np.concatenate([ny + link.row, link.col])),
        ),
        shape=(slots, num_vars),
    )
    blocks = [linking]
    lower = [np.zeros(slots)]
    upper = [np.full(slots, np.inf)]

    if arena.balanced:
        # Coverage block: c_b − Σ_{t∈wit(b)} y_t ≤ 0 — the coverage
        # indicator can only be claimed when the witness is hit.
        cover = delta_rows.tocoo()
        coverage = sparse.csr_matrix(
            (
                np.concatenate([np.ones(nd), -np.ones(int(cover.nnz))]),
                (
                    np.concatenate([np.arange(nd), cover.row]),
                    np.concatenate([ny + nx + np.arange(nd), cover.col]),
                ),
            ),
            shape=(nd, num_vars),
        )
        blocks.append(coverage)
        lower.append(np.full(nd, -np.inf))
        upper.append(np.zeros(nd))
    else:
        # Covering block: every ΔV witness must be hit.
        covering = sparse.hstack(
            [delta_rows, sparse.csr_matrix((nd, num_vars - ny))],
            format="csr",
        )
        blocks.append(covering)
        lower.append(np.ones(nd))
        upper.append(np.full(nd, np.inf))

    cost = np.zeros(num_vars)
    cost[ny : ny + nx] = arena.weights[at_risk]
    if arena.balanced:
        cost[ny + nx :] = -arena.delta_penalty

    return CompiledILP(
        balanced=bool(arena.balanced),
        candidates=candidates,
        at_risk=at_risk,
        cost=cost,
        matrix=sparse.vstack(blocks, format="csr"),
        lower=np.concatenate(lower),
        upper=np.concatenate(upper),
    )


def _check_candidates(
    problem: "DeletionPropagationProblem",
    arena: "CompiledProblem",
    model: CompiledILP,
) -> None:
    """Cross-check the problem's declared candidate set against the
    arena's ΔV-witness scan (the ``y`` columns).

    A mismatch means some ΔV witness contains a fact outside
    ``candidate_facts()`` (or vice versa) — the inconsistency that used
    to surface as a raw ``KeyError`` out of the dense row assembly.
    Raise a typed :class:`~repro.errors.ReductionError` instead.
    """
    declared = problem.candidate_facts()
    fact_ids = arena.fact_ids
    try:
        declared_ids = sorted(fact_ids[fact] for fact in declared)
    except KeyError as exc:
        raise ReductionError(
            f"candidate fact {exc.args[0]!r} is not in the compiled "
            "arena's fact table"
        ) from None
    if declared_ids != model.candidates.tolist():
        raise ReductionError(
            "candidate_facts() disagrees with the arena's ΔV-witness "
            f"scan ({len(declared_ids)} declared vs {model.num_y} "
            "compiled): some ΔV witness references a fact outside the "
            "candidate set, so the covering rows would be unsound"
        )


def _warm_incumbent(
    problem: "DeletionPropagationProblem",
) -> Propagation | None:
    """The greedy + local-search incumbent used as the warm-start
    cutoff and the degradation answer, or ``None`` when no (feasible)
    incumbent can be produced.

    Deadline expiry *inside* the warm start is swallowed — the best
    solution reached so far is still a perfectly good incumbent; the
    caller re-checks the deadline before committing to the solve.
    """
    from repro.core.greedy import solve_greedy_min_damage
    from repro.core.local_search import improve
    from repro.core.problem import BalancedDeletionPropagationProblem

    balanced = isinstance(problem, BalancedDeletionPropagationProblem)
    try:
        if balanced:
            start = Propagation(
                problem, (), method="exact-ilp-incumbent", validate=False
            )
        else:
            start = solve_greedy_min_damage(problem)
    except DeadlineExceededError as exc:
        start = exc.incumbent
    except ReproError:
        start = None
    if start is None or (not balanced and not start.is_feasible()):
        if balanced:
            return None
        # Last resort: deleting every candidate fact hits every ΔV
        # witness (candidates are exactly the ΔV-witness facts), so
        # this is always feasible — costly, but a valid incumbent.
        start = Propagation(
            problem,
            problem.candidate_facts(),
            method="exact-ilp-incumbent",
            validate=False,
        )
    try:
        refined = improve(start)
    except DeadlineExceededError as exc:
        refined = exc.incumbent if exc.incumbent is not None else start
    except (ReproError, ValueError):
        refined = start
    if not balanced and not refined.is_feasible():
        refined = start
    return Propagation(
        problem,
        refined.deleted_facts,
        method="exact-ilp-incumbent",
        validate=False,
    )


def _scaled_multiplier(
    arena: "CompiledProblem", model: CompiledILP
) -> float | None:
    """The lexicographic scaling factor ``M = n_y + 1``, or ``None``
    when the single-solve encoding is not exact.

    With integer costs (``arena.exact_costs``) every primary objective
    value is an integer, so minimizing ``M·primary + Σy`` is exactly
    lexicographic in (primary, deletions) as long as the scaled
    magnitudes stay in float64's exact-integer range.
    """
    if not arena.exact_costs:
        return None
    multiplier = float(model.num_y + 1)
    reach = float(np.abs(model.cost).sum()) + 1.0
    if multiplier * reach + model.num_y >= _EXACT_LIMIT:
        return None
    return multiplier


def solve_ilp(
    problem: "DeletionPropagationProblem",
    warm_start: bool = True,
    mip_rel_gap: float | None = None,
) -> Propagation:
    """Exact 0/1 ILP over the compiled arena (key-preserving problems,
    standard and balanced).

    Lexicographically optimal in (primary objective, number of
    deletions) — see the module docstring for the formulation, the
    warm-start cutoff, and the deadline/incumbent contract.
    ``mip_rel_gap`` passes a relative optimality-gap tolerance through
    to HiGHS for callers that trade exactness for speed explicitly.
    """
    from repro.core.session import SolveSession

    session = SolveSession.of(problem)
    if not session.profile.key_preserving:
        raise SolverError("ILP backend requires key-preserving queries")
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, milp

    deadline = active_deadline()
    if deadline is not None:
        # ``milp`` cannot be interrupted cooperatively; refuse to start
        # a solve whose budget is already spent.
        deadline.check(what="exact ILP")
    if not problem.candidate_facts():
        return Propagation(problem, (), method="exact-ilp")

    arena = session.arena
    model = session.ilp_model()
    _check_candidates(problem, arena, model)

    incumbent = _warm_incumbent(problem) if warm_start else None
    if deadline is not None:
        # The warm start may have consumed the remaining budget; a
        # policy-governed caller degrades to the incumbent here.
        deadline.check(incumbent=incumbent, what="exact ILP")

    def primary_of(prop: Propagation) -> float:
        if model.balanced:
            # The c_b reward makes the ILP optimum the balanced cost
            # minus the constant penalty·‖ΔV‖ offset.
            return (
                prop.balanced_cost()
                - arena.delta_penalty * arena.num_delta
            )
        return prop.side_effect()

    def cutoff(value: float) -> float:
        return value + _CUTOFF_SLACK * (1.0 + abs(value))

    def extract(result, method: str) -> Propagation | None:
        x = getattr(result, "x", None)
        if x is None:
            return None
        chosen = model.candidates[x[: model.num_y] > 0.5]
        prop = Propagation(
            problem,
            arena.facts_of(chosen.tolist()),
            method=method,
            validate=False,
        )
        if not model.balanced and not prop.is_feasible():
            return None
        return prop

    primary_row = sparse.csr_matrix(model.cost)
    extra_rows: list[tuple] = []
    if incumbent is not None:
        # Warm start as an objective cutoff: primary(v) can never beat
        # the incumbent from above, so the bound only prunes.
        extra_rows.append(
            (primary_row, -np.inf, cutoff(primary_of(incumbent)))
        )

    integrality = np.ones(model.num_vars)
    bounds = Bounds(0, 1)

    def run(objective: np.ndarray, rows: list[tuple]):
        matrix, lower, upper = model.matrix, model.lower, model.upper
        if rows:
            matrix = sparse.vstack(
                [matrix, *(row for row, _, _ in rows)], format="csr"
            )
            lower = np.concatenate(
                [lower, [lo for _, lo, _ in rows]]
            )
            upper = np.concatenate(
                [upper, [hi for _, _, hi in rows]]
            )
        options: dict[str, float] = {}
        if mip_rel_gap is not None:
            options["mip_rel_gap"] = float(mip_rel_gap)
        if deadline is not None:
            remaining = deadline.remaining()
            if remaining <= 0:
                raise DeadlineExceededError(
                    "exact ILP deadline exceeded", incumbent=incumbent
                )
            options["time_limit"] = remaining
        return milp(
            c=objective,
            constraints=LinearConstraint(matrix, lower, upper),
            integrality=integrality,
            bounds=bounds,
            options=options,
        )

    def finish(result) -> Propagation:
        if result.success:
            prop = extract(result, "exact-ilp")
            if prop is None:
                raise SolverError(
                    "ILP reported success without a usable solution "
                    "vector"
                )
            return prop
        if result.status == _MILP_STATUS_LIMIT:
            # Time/iteration limit: result.x may still hold a feasible
            # incumbent (or be None) — degrade, never discard; on a tie
            # the solver's own incumbent wins.
            found = (extract(result, "exact-ilp-incumbent"), incumbent)
            best = min(
                (prop for prop in found if prop is not None),
                key=lambda prop: prop.objective(),
                default=None,
            )
            raise DeadlineExceededError(
                "exact ILP stopped at its time limit", incumbent=best
            )
        raise SolverError(f"ILP solver failed: {result.message}")

    count = np.zeros(model.num_vars)
    count[: model.num_y] = 1.0

    multiplier = _scaled_multiplier(arena, model)
    if multiplier is not None:
        # Single-solve lexicographic encoding with exact integer costs.
        return finish(run(multiplier * model.cost + count, extra_rows))

    # Two-stage lexicographic solve: optimize the primary objective,
    # pin it, then minimize the number of deletions among its optima.
    stage_one_result = run(model.cost, extra_rows)
    stage_one = finish(stage_one_result)
    pin = (primary_row, -np.inf, cutoff(float(stage_one_result.fun)))
    if deadline is not None and deadline.expired:
        # The primary optimum is in hand; the tie-break is best-effort.
        return stage_one
    try:
        stage_two_result = run(count, [*extra_rows, pin])
    except DeadlineExceededError:
        return stage_one
    if (
        stage_two_result.success
        or stage_two_result.status == _MILP_STATUS_LIMIT
    ):
        refined = extract(stage_two_result, "exact-ilp")
        if refined is not None:
            return refined
    # The tie-break is a preference, not a requirement: any stage-2
    # hiccup (limit without an incumbent, numerical infeasibility of
    # the pin) keeps the primary-optimal stage-1 answer.
    return stage_one
