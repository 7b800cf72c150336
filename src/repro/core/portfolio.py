"""Parallel solver portfolios over one compiled problem.

The compiled witness arena (:mod:`repro.core.arena`) makes single
strategies cheap; this module spends the freed budget on *breadth*: run
several solving strategies on the same problem concurrently and keep
the best feasible propagation, or push a batch of ΔV requests against
one shared instance through worker processes.

Both are one kind of work.  A **job** is ``(method, deletions)``: a
portfolio strategy solves the whole problem (``deletions`` is
``None``), a batch request rebinds its own ΔV first.
:func:`_solve_job` runs one job, in a worker or in-process, into one
:class:`Outcome`; :func:`_run_jobs` runs a list of them, serially or on
the supervised pool.  :func:`run_portfolio` and :func:`run_delta_batch`
only build the job list.

Processes, not threads — the solvers are pure Python and hold the GIL,
so ``ProcessPoolExecutor`` is the only way the jobs actually overlap.
The problem reaches the workers through two channels:

* **Shared memory** (the fast path): the parent exports its compiled
  arena once (:meth:`repro.core.session.SolveSession.export_shm`) and
  ships only the manifest — a small dict naming the segment — through
  the pool initializer.  Workers attach the slabs in place
  (:func:`repro.core.shm.attach_session`), skipping query evaluation,
  arena compilation, and the pivot search entirely.
* **The JSON document** (the fallback): when the problem has no arena
  (non-key-preserving), the platform lacks POSIX shared memory, or the
  segment vanished before the worker attached, the worker reconstructs
  from :func:`repro.io.serialize.problem_to_dict` output and compiles
  locally.  Both channels produce bitwise-identical arenas, so this is
  a latency knob, never a semantics knob.

Either way the problem is cached in the worker process for the rest of
the pool's lifetime — the classic compile-once solve-many layout, one
attach (or compile) per worker instead of one per task.  The document
itself is cached on the parent's session, so repeated batches against
one instance serialize it once, and serial in-process runs skip the
doc round-trip entirely.
A worker ships its answer as ``(relation, values)`` pairs, which the
runner rebuilds into a :class:`~repro.core.solution.Propagation`
against its own problem, so the public surface stays object-level.  An
in-process job hands over the solved propagation itself instead: no
second ΔV rebind, no re-validation, and the accounting the solve
already computed is reused by whoever renders it.  Attempt records
cross the process boundary as they are (they are frozen dataclasses).

The pool is **supervised** rather than fire-and-forget: tasks run as
individual futures with per-task timeouts instead of one opaque
``pool.map`` (whose lazy iterator used to let ``BrokenProcessPool``
escape mid-iteration and take every completed result down with it).
The supervisor in :func:`_run_supervised`:

* keeps every result completed before a failure — a crashed worker
  loses at most its own in-flight tasks;
* detects worker crashes (``BrokenProcessPool``), respawns the pool a
  bounded number of times, and re-dispatches only the lost tasks;
* dispatches at most ``max_workers`` tasks at a time, so a task's
  hang-detection clock starts when a worker slot is free for it — a
  task queued behind a full pool is never declared hung while waiting
  for its turn;
* reclaims **hung** tasks: when a :class:`SolvePolicy` deadline is in
  force, a task overdue past the deadline plus a small grace gets its
  pool killed (``SIGKILL`` — a hung worker ignores cooperative
  deadlines by definition) and is re-dispatched on a fresh pool;
* applies a per-task dispatch budget: a task that keeps hanging
  becomes a timeout-error outcome (running it serially would hang the
  parent), a task implicated in worker crashes gets one last dispatch
  on an isolated single-worker *quarantine* pool — an innocent
  casualty of a shared pool loss recovers its result there, while a
  task that deterministically kills its worker breaks only the
  throwaway pool and becomes an error outcome instead of being re-run
  in the parent process (where a segfault or ``os._exit`` would take
  down the whole batch); only tasks never implicated in a process
  death fall back to an in-process serial run;
* records every supervision event as an
  :class:`~repro.core.resilience.AttemptRecord` on the task's outcome,
  so ``--trace`` shows crashes, timeouts, and re-dispatches.

When the pool cannot be used at all (``max_workers=0``, a single
job, or an executor that fails to start — e.g. a sandbox without
process semaphores) the same work runs serially in-process with
identical results; the portfolio is a throughput knob, never a
semantics knob.

Exposed on the command line as ``python -m repro.cli solve
--portfolio`` and used by ``benchmarks/run_all.py``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SolverError
from repro.relational.tuples import Fact
from repro.core.problem import DeletionPropagationProblem
from repro.core.resilience import AttemptRecord, SolvePolicy
from repro.core.solution import Propagation

__all__ = [
    "DEFAULT_PORTFOLIO",
    "Outcome",
    "PortfolioResult",
    "DeltaOutcome",
    "run_portfolio",
    "solve_portfolio",
    "run_delta_batch",
]

#: Strategies tried by default: the paper's general-case approximation
#: plus the two greedy baselines — all polynomial, all feasible on
#: key-preserving problems, frequently incomparable on quality.
DEFAULT_PORTFOLIO: tuple[str, ...] = (
    "claim1",
    "greedy-min-damage",
    "greedy-max-coverage",
)

#: Extra dispatches granted to a task lost to a crashed or hung worker
#: before the supervisor stops re-dispatching it.
_LOST_RETRIES = 1

#: Pool respawns tolerated per run before everything still pending
#: degrades (serially for crash losses, timeout-error for hangs).
_MAX_RESPAWNS = 3

#: Slack added to the policy deadline before a task is declared hung:
#: covers result pickling and queue latency so a task that finished
#: exactly at its cooperative deadline is not killed while its result
#: is in flight.
_TIMEOUT_GRACE = 0.5

#: One job: ``(method, deletions)``, where ``deletions`` is a ΔV
#: request (``{view: [values, ...]}``) or ``None`` for the whole
#: problem.
Job = tuple[str, Mapping[str, Sequence[Sequence[object]]] | None]


@dataclass(frozen=True)
class Outcome:
    """One job's outcome: a portfolio strategy or one ΔV request.

    ``propagation`` is labelled with the run's ``method`` and bound to
    the run's problem (a portfolio strategy) or to a variant carrying
    the request's own ΔV (a batch request); ``error`` carries the
    failure text when the job could not be solved (unknown view tuple,
    solver error, lost worker, ...).  Exactly one of the two is set.
    Between a pool worker and the runner, ``propagation`` holds the
    answer's ``(relation, values)`` pairs instead; callers never see
    that form.

    ``attempts`` is the resilience trace: policy attempts made inside
    the job plus any supervision events (crash, timeout, re-dispatch)
    observed by the parent.  Empty for an undisturbed run without a
    policy.  ``route`` is the dispatch route taken
    (``forced:<method>``, a route-table name, ``degraded:<method>``;
    ``None`` on failure), so the serve tier's per-route histogram sees
    pool runs too.  ``index`` is the job's position in its run.
    """

    method: str
    propagation: Propagation | None
    wall_seconds: float
    error: str | None = None
    attempts: tuple[AttemptRecord, ...] = ()
    route: str | None = None
    index: int = 0

    @property
    def ok(self) -> bool:
        return self.propagation is not None


#: The names the portfolio and the ΔV batch used for their outcomes.
PortfolioResult = DeltaOutcome = Outcome


# ----------------------------------------------------------------------
# Worker-side machinery (module-level so the pool can pickle it)
# ----------------------------------------------------------------------

_WORKER_DOC: Mapping[str, Any] | None = None
_WORKER_MANIFEST: Mapping[str, Any] | None = None
_WORKER_PROBLEM: DeletionPropagationProblem | None = None


def _init_worker(
    doc: Mapping[str, Any], manifest: Mapping[str, Any] | None = None
) -> None:
    global _WORKER_DOC, _WORKER_MANIFEST, _WORKER_PROBLEM
    _WORKER_DOC = doc
    _WORKER_MANIFEST = manifest
    _WORKER_PROBLEM = None


def _prime_session(problem: DeletionPropagationProblem):
    """Build the problem's shared :class:`SolveSession` eagerly: the
    structure profile plus, on key-preserving instances, the compiled
    witness arena.  Every subsequent ΔV rebind then reuses the compiled
    base (delta slices only) instead of recompiling per request."""
    from repro.core.session import SolveSession

    session = SolveSession.of(problem)
    if session.profile.key_preserving:
        session.arena
    return session


def _worker_problem() -> DeletionPropagationProblem:
    """Attach (once) to the parent's shared-memory export — or, when no
    manifest was shipped or its segment is gone, reconstruct from the
    JSON document — then prime and cache the problem in this worker."""
    global _WORKER_MANIFEST, _WORKER_PROBLEM
    if _WORKER_PROBLEM is None:
        if _WORKER_MANIFEST is not None:
            from repro.core.shm import ShmError, attach_session

            try:
                _WORKER_PROBLEM = attach_session(_WORKER_MANIFEST).problem
                return _WORKER_PROBLEM
            except ShmError:
                # Segment unlinked between export and attach (parent
                # session closed early): compile from the doc instead.
                _WORKER_MANIFEST = None
        from repro.io.serialize import problem_from_dict

        problem = problem_from_dict(_WORKER_DOC)
        _prime_session(problem)
        _WORKER_PROBLEM = problem
    return _WORKER_PROBLEM


def _solve_job(
    index: int,
    method: str,
    deletions: Mapping[str, Sequence[Sequence[object]]] | None,
    policy: SolvePolicy | None,
    problem: DeletionPropagationProblem | None = None,
) -> Outcome:
    """Solve job ``index``: the whole problem, or its ΔV ``deletions``
    rebound onto it, with ``method`` under ``policy``.

    With ``problem=None`` the job runs in a pool worker against the
    worker's cached problem and ships its answer as ``(relation,
    values)`` pairs.  With an explicit ``problem`` it runs in-process
    and hands over the solved propagation itself, relabelled; it never
    touches the worker-global cache (a parent that is itself a pool
    worker would otherwise have its cached problem clobbered).

    Everything, the ΔV rebind included, runs inside one ``try``: a
    malformed request or a solver error becomes this job's error text
    (errors are data here) and never fails the rest of its run.  The
    fault site ``delta:<index>`` fires wherever a request runs;
    ``portfolio:<method>`` fires in workers only.
    """
    from repro.core.faultinject import maybe_inject
    from repro.core.registry import solve_report

    start = time.perf_counter()
    try:
        if deletions is not None:
            maybe_inject("delta", index)
        elif problem is None:
            maybe_inject("portfolio", method)
        target = _worker_problem() if problem is None else problem
        if deletions is not None:
            target = target.with_deletions(deletions)
        report = solve_report(target, method=method, policy=policy)
    except Exception as exc:
        return Outcome(
            method,
            None,
            time.perf_counter() - start,
            f"{type(exc).__name__}: {exc}",
            tuple(getattr(exc, "attempts", None) or ()),
            index=index,
        )
    seconds = time.perf_counter() - start
    propagation = report.propagation
    if problem is None:
        answer: Any = [
            (fact.relation, fact.values)
            for fact in sorted(propagation.deleted_facts)
        ]
    else:
        answer = propagation.relabeled(method)
    return Outcome(
        method,
        answer,
        seconds,
        attempts=tuple(report.attempts),
        route=report.route,
        index=index,
    )


# ----------------------------------------------------------------------
# Pool supervisor
# ----------------------------------------------------------------------


@dataclass
class _Task:
    """Supervisor bookkeeping for one job; ``args`` are
    :func:`_solve_job`'s ``(index, method, deletions, policy)``."""

    args: tuple
    dispatches: int = 0
    timed_out: bool = False
    crashed: bool = False  #: saw its worker process die at least once
    events: list[AttemptRecord] = field(default_factory=list)

    def record(self, outcome: str, cause: str) -> None:
        index, method, deletions, _ = self.args
        self.events.append(
            AttemptRecord(
                method=method if deletions is None else str(index),
                outcome=outcome,
                attempt=self.dispatches - 1,
                cause=cause,
            )
        )

    def merged(self, outcome: Outcome) -> Outcome:
        """Prepend this task's supervision events to an outcome's
        attempt trace."""
        if not self.events:
            return outcome
        return replace(
            outcome, attempts=(*self.events, *outcome.attempts)
        )

    def failed(self, seconds: float, error: str) -> Outcome:
        """An error outcome carrying this task's supervision events."""
        index, method, _, _ = self.args
        return Outcome(
            method, None, seconds, error, tuple(self.events), index=index
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung: a plain shutdown
    joins worker processes, which never happens for a worker stuck in a
    non-cooperative call, so kill first.

    ``ProcessPoolExecutor`` does not expose its worker processes, so
    this reaches into the private ``_processes`` dict (stable CPython
    3.7–3.13; ``tests/core/test_portfolio.py`` asserts it exists so an
    interpreter upgrade that renames it fails loudly instead of
    silently leaking hung workers)."""
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _timeout_outcome(task: _Task, task_timeout: float) -> Outcome:
    return task.failed(
        task_timeout,
        f"task exceeded its {task_timeout:.3f}s dispatch timeout "
        f"{task.dispatches} time(s)",
    )


def _crash_outcome(task: _Task, cause: str) -> Outcome:
    return task.failed(
        0.0,
        f"task lost its worker process in {task.dispatches} "
        f"dispatch(es) ({cause}); refusing in-process re-run of a "
        "crash suspect",
    )


def _run_quarantined(
    initargs: tuple, task: _Task, task_timeout: float | None
) -> Outcome:
    """Last dispatch for a crash-lost task, on an isolated
    single-worker pool.

    A task whose shared pool broke may be the crasher or an innocent
    bystander (``BrokenProcessPool`` hits every in-flight future, not
    just the culprit's).  Re-running it here sorts the two apart
    without risking the parent: an innocent task completes and keeps
    its result; a task that deterministically kills its worker breaks
    only this throwaway pool and is finalized as an error outcome —
    never re-executed in the parent process, where a segfault or
    ``os._exit`` would kill the whole batch.
    """
    task.dispatches += 1
    task.record("quarantine", "dispatch budget exhausted")
    try:
        pool = ProcessPoolExecutor(
            max_workers=1, initializer=_init_worker, initargs=initargs
        )
    except (OSError, PermissionError):
        task.dispatches -= 1
        return _crash_outcome(task, "no process primitives for quarantine")
    try:
        outcome = pool.submit(_solve_job, *task.args).result(
            timeout=task_timeout
        )
    except FuturesTimeoutError:
        task.timed_out = True
        _kill_pool(pool)
        return _timeout_outcome(task, task_timeout or 0.0)
    except Exception as exc:
        _kill_pool(pool)
        return _crash_outcome(task, f"{type(exc).__name__}: {exc}")
    pool.shutdown()
    return task.merged(outcome)


def _run_supervised(
    problem: DeletionPropagationProblem,
    initargs: tuple,
    tasks: Sequence[_Task],
    max_workers: int,
    task_timeout: float | None,
) -> list[Outcome]:
    """Run ``tasks`` on a supervised process pool; one outcome per task.

    See the module docstring for the recovery contract.  ``initargs``
    are the workers' ``(doc, manifest)``; ``problem`` runs the serial
    fallbacks in-process.  ``task_timeout`` of ``None`` disables hang
    detection (there is no deadline to judge "hung" against).
    """
    results: dict[int, Outcome] = {}
    pending: list[tuple[int, _Task]] = list(enumerate(tasks))
    budget = 1 + _LOST_RETRIES
    respawns = 0

    def serial(task: _Task) -> Outcome:
        return task.merged(_solve_job(*task.args, problem=problem))

    def finalize_lost(slot: int, task: _Task) -> None:
        """A task out of dispatch budget (or out of pool respawns)."""
        if task.timed_out:
            # Serially re-running a hanger would hang the parent.
            results[slot] = _timeout_outcome(task, task_timeout or 0.0)
        elif task.crashed:
            # Re-running a crash suspect in the parent process could
            # kill the parent; quarantine it on a throwaway pool.
            results[slot] = _run_quarantined(initargs, task, task_timeout)
        else:
            task.record("serial-fallback", "dispatch budget exhausted")
            results[slot] = serial(task)

    def requeue(slot: int, task: _Task, outcome: str, cause: str) -> None:
        task.record(outcome, cause)
        if task.dispatches < budget:
            pending.append((slot, task))
        else:
            finalize_lost(slot, task)

    while pending:
        if respawns > _MAX_RESPAWNS:
            for slot, task in pending:
                finalize_lost(slot, task)
            break
        try:
            pool = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_worker,
                initargs=initargs,
            )
        except (OSError, PermissionError):
            # No usable process primitives (restricted sandboxes): same
            # work, same results, one process.
            for slot, task in pending:
                results[slot] = serial(task)
            break

        in_flight: dict[Any, tuple[int, _Task]] = {}
        expiry: dict[Any, float | None] = {}
        queue, pending = pending, []
        broken = False

        def dispatch() -> bool:
            """Submit queued tasks while worker slots are free.

            At most ``max_workers`` tasks are in flight at once, so the
            hang-detection expiry armed here starts when the task can
            actually execute — a task queued behind a full pool is not
            on the clock while it waits for a slot.  Returns ``False``
            (pool unusable) on a failed submit, leaving the failing
            task and everything still queued for the next pool with
            their dispatch budgets untouched.
            """
            while queue and len(in_flight) < max_workers:
                slot, task = queue.pop(0)
                task.dispatches += 1
                try:
                    future = pool.submit(_solve_job, *task.args)
                except Exception:
                    # This dispatch never started.
                    task.dispatches -= 1
                    queue.insert(0, (slot, task))
                    return False
                in_flight[future] = (slot, task)
                expiry[future] = (
                    time.monotonic() + task_timeout
                    if task_timeout is not None
                    else None
                )
            return True

        broken = not dispatch()
        while in_flight and not broken:
            poll: float | None = None
            if task_timeout is not None:
                poll = max(
                    0.0, min(expiry.values()) - time.monotonic()
                )
            done, _ = wait(
                set(in_flight), timeout=poll, return_when=FIRST_COMPLETED
            )
            for future in done:
                slot, task = in_flight.pop(future)
                del expiry[future]
                try:
                    results[slot] = task.merged(future.result())
                except BrokenProcessPool:
                    broken = True
                    task.crashed = True
                    requeue(
                        slot, task, "worker-crash", "worker process died"
                    )
                except Exception as exc:
                    # Tasks catch their own exceptions, so anything here
                    # is infrastructure (pickling, cancellation): treat
                    # like a crash, but do not mark the task a crash
                    # suspect — no worker process died, so an in-parent
                    # serial re-run stays safe.
                    broken = True
                    requeue(
                        slot,
                        task,
                        "worker-crash",
                        f"{type(exc).__name__}: {exc}",
                    )
            if broken:
                break
            if task_timeout is not None:
                now = time.monotonic()
                overdue = [
                    future
                    for future, when in expiry.items()
                    if when is not None and when <= now
                ]
                for future in overdue:
                    slot, task = in_flight.pop(future)
                    del expiry[future]
                    task.timed_out = True
                    broken = True
                    requeue(
                        slot,
                        task,
                        "worker-timeout",
                        f"no result after {task_timeout:.3f}s",
                    )
                if broken:
                    break
            if not dispatch():
                broken = True
                break

        if broken:
            # Innocent in-flight tasks are casualties of the pool loss:
            # their dispatch is spent, but they go back in the queue.
            # Tasks still queued never dispatched on this pool — they
            # carry over untouched, losing neither budget nor results.
            for future, (slot, task) in in_flight.items():
                requeue(slot, task, "pool-lost", "pool recycled")
            pending.extend(queue)
            respawns += 1
            _kill_pool(pool)
        else:
            pool.shutdown()

    return [results[slot] for slot in sorted(results)]


def _policy_task_timeout(policy: SolvePolicy | None) -> float | None:
    if policy is None or policy.deadline_seconds is None:
        return None
    return policy.deadline_seconds + _TIMEOUT_GRACE


def _session_manifest(session) -> dict | None:
    """Best-effort shared-memory export of the session's compiled state.

    Returns the manifest workers attach by, or ``None`` when the fast
    path is unavailable — no arena (non-key-preserving problem) or no
    usable POSIX shared memory (restricted sandboxes).  ``None`` simply
    routes workers through the JSON-document fallback; results are
    identical either way.
    """
    if not session.profile.key_preserving:
        return None
    try:
        return session.export_shm()
    except Exception:
        return None


# ----------------------------------------------------------------------
# Parent-side API
# ----------------------------------------------------------------------


def _rebuild(
    problem: DeletionPropagationProblem,
    method: str,
    payload: list[tuple[str, tuple]],
) -> Propagation:
    facts = [Fact(relation, values) for relation, values in payload]
    return Propagation(problem, facts, method=method)


def _run_jobs(
    problem: DeletionPropagationProblem,
    jobs: Sequence[Job],
    max_workers: int | None,
    policy: SolvePolicy | None,
) -> list[Outcome]:
    """Run ``jobs`` against ``problem``; one :class:`Outcome` per job,
    in order.

    Jobs run in a supervised process pool when ``max_workers`` permits
    (default: one worker per job, capped at the CPU count) and serially
    in-process otherwise, or when there is a single job.  ``policy``
    applies the resilience contract to every job; its deadline also
    arms the supervisor's hang detection (deadline + grace per
    dispatch).
    """
    if max_workers is None:
        max_workers = min(len(jobs), os.cpu_count() or 1)
    # Compile the shared base once up front: in-process jobs and the
    # rebuilds of pool answers rebind ΔV against this session's arena
    # instead of recompiling per request.
    session = _prime_session(problem)
    args = [
        (index, method, deletions, policy)
        for index, (method, deletions) in enumerate(jobs)
    ]
    if max_workers <= 0 or len(jobs) <= 1:
        # In-process execution never touches the JSON document.
        return [_solve_job(*job, problem=problem) for job in args]

    outcomes = _run_supervised(
        problem,
        (session.document, _session_manifest(session)),
        [_Task(job) for job in args],
        max_workers,
        _policy_task_timeout(policy),
    )
    bound = []
    for outcome, (method, deletions) in zip(outcomes, jobs):
        if outcome.ok and not isinstance(outcome.propagation, Propagation):
            variant = (
                problem
                if deletions is None
                else problem.with_deletions(deletions)
            )
            outcome = replace(
                outcome,
                propagation=_rebuild(variant, method, outcome.propagation),
            )
        bound.append(outcome)
    return bound


def run_portfolio(
    problem: DeletionPropagationProblem,
    methods: Sequence[str] = DEFAULT_PORTFOLIO,
    max_workers: int | None = None,
    policy: SolvePolicy | None = None,
) -> list[Outcome]:
    """Solve ``problem`` with every strategy in ``methods``.

    Returns one :class:`Outcome` per distinct strategy in input order;
    strategies that raised carry their error text instead of a
    propagation.  See :func:`_run_jobs` for ``max_workers`` and
    ``policy``.
    """
    methods = list(dict.fromkeys(methods))  # dedupe, keep order
    if not methods:
        raise SolverError("portfolio needs at least one method")
    return _run_jobs(
        problem, [(method, None) for method in methods], max_workers, policy
    )


def best_result(results: Iterable[Outcome]) -> Outcome:
    """The winning entry: best objective, then fewest deletions, then
    method name (deterministic across pool scheduling orders)."""
    ranked = [r for r in results if r.ok]
    if not ranked:
        errors = "; ".join(
            f"{r.method}: {r.error}" for r in results if r.error
        )
        raise SolverError(f"every portfolio strategy failed ({errors})")
    return min(
        ranked,
        key=lambda r: (
            r.propagation.objective(),
            len(r.propagation.deleted_facts),
            r.method,
        ),
    )


def solve_portfolio(
    problem: DeletionPropagationProblem,
    methods: Sequence[str] = DEFAULT_PORTFOLIO,
    max_workers: int | None = None,
    policy: SolvePolicy | None = None,
) -> Propagation:
    """Run the portfolio and return the best feasible propagation.

    Raises :class:`SolverError` when no strategy produced a feasible
    result (for balanced problems every propagation is feasible, so the
    portfolio always answers)."""
    results = run_portfolio(problem, methods, max_workers=max_workers, policy=policy)
    feasible = [r for r in results if r.ok and r.propagation.is_feasible()]
    winner = best_result(feasible if feasible else results)
    if not winner.propagation.is_feasible():
        raise SolverError(
            "no portfolio strategy produced a feasible propagation"
        )
    return winner.propagation


def run_delta_batch(
    problem: DeletionPropagationProblem,
    requests: Sequence[Mapping[str, Sequence[Sequence[object]]]],
    method: str = "auto",
    max_workers: int | None = None,
    strict: bool = False,
    policy: SolvePolicy | None = None,
) -> list[Outcome]:
    """Solve a batch of ΔV requests against one shared instance.

    Each request is a ``{view: [values, ...]}`` mapping like the
    ``deletions`` field of a problem document.  The instance, queries
    and weights are shipped to the workers once; each job re-binds only
    the deletion set.  Returns one :class:`Outcome` per request, in
    order; a request that fails (malformed or unknown view tuple, solver
    error) carries its error text instead of aborting the batch, so
    every completed propagation survives one bad request — including
    requests lost to a crashed or hung worker, which the pool supervisor
    re-dispatches (see the module docstring).  ``strict=True`` restores
    the historical behavior of raising :class:`SolverError` on the
    first failed request.  See :func:`_run_jobs` for ``max_workers``
    and ``policy``.
    """
    jobs = [(method, request) for request in requests]
    outcomes = _run_jobs(problem, jobs, max_workers, policy)
    if strict:
        for outcome in outcomes:
            if not outcome.ok:
                raise SolverError(
                    f"request #{outcome.index} failed: {outcome.error}"
                )
    return outcomes
