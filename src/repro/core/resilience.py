"""Resilient solve runtime — deadlines, retries, and fallback chains.

The ROADMAP's north star is a serving system, and serving systems treat
per-request time bounds and graceful degradation as table stakes: one
adversarial instance (e.g. the Red-Blue Set Cover gadgets behind
Thm 1/Claim 1) must not stall a batch, and a transient infrastructure
failure must not surface as a solver error.  This module is the spine:

* :class:`Deadline` — a monotonic-clock expiry threaded through the
  :class:`~repro.core.session.SolveSession` into the iteration hot
  loops (local search's move loop, exact enumeration, the LowDeg τ
  sweep) as cheap cooperative checkpoints.  A checkpoint that fires
  raises :class:`~repro.errors.DeadlineExceededError` carrying the
  best-so-far *feasible* propagation when the algorithm has one, so a
  timed-out local search degrades to its current incumbent instead of
  failing.
* A context-var **deadline scope** (:func:`deadline_scope` /
  :func:`active_deadline`): solvers never take a deadline parameter —
  they read the ambient one, so every route, baseline, and nested
  helper cooperates without signature churn.  Nested scopes compose by
  taking the tightest deadline.
* :class:`SolvePolicy` — the per-request resilience contract: a
  deadline, a retry count with exponential backoff + jitter for
  transient (non-:class:`~repro.errors.ReproError`) failures, and an
  ordered *fallback chain* of methods (e.g. ``auto → claim1 →
  greedy-min-damage``) tried when a method is inapplicable or errors
  out deterministically.
* :func:`solve_with_policy` — the orchestrator.  It returns the usual
  :class:`~repro.core.registry.SolveReport` with an ``attempts`` trace
  (one :class:`AttemptRecord` per attempt: method tried, outcome,
  retry cause) so ``--trace`` and the batch runner can show exactly how
  an answer was reached — including answers reached by degradation.

With no policy and no deadline scope installed, nothing in this module
runs on the solve path: results are byte-identical to the plain
``registry.solve`` dispatch.
"""

from __future__ import annotations

import contextlib
import contextvars
import random as _random
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.errors import DeadlineExceededError, ReproError, SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.problem import DeletionPropagationProblem
    from repro.core.registry import SolveReport
    from repro.core.session import SolveSession

__all__ = [
    "AttemptRecord",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "EXACT_FALLBACK",
    "SolvePolicy",
    "active_deadline",
    "deadline_scope",
    "derive_backoff_rng",
    "parse_fallback",
    "solve_with_policy",
]

#: The fallback chain behind the first-class exact ILP route: branch &
#: bound covers the shapes HiGHS cannot take (non-key-preserving
#: inputs), and greedy guarantees *an* answer under deadlines too tight
#: for any exact method.  ``SolvePolicy.exact()`` preconfigures it; the
#: CLI accepts the chain as the ``exact-chain`` fallback alias.
EXACT_FALLBACK: tuple[str, ...] = ("exact-bnb", "greedy-min-damage")


class Deadline:
    """A point on the monotonic clock after which solvers must stop.

    Hot loops poll :attr:`expired` (one clock read + compare) at move
    boundaries where their state is consistent, and raise through
    :meth:`check` with their current incumbent.  ``clock`` is
    injectable so tests can drive expiry deterministically.
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(
        self,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self.expires_at = clock() + seconds

    @classmethod
    def after(
        cls,
        seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - self._clock()

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self, incumbent: object | None = None, what: str = "solve") -> None:
        """Raise :class:`DeadlineExceededError` if expired.

        ``incumbent`` is attached to the error: the best-so-far feasible
        propagation, or ``None`` when the caller has nothing usable yet.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"deadline exceeded during {what}", incumbent=incumbent
            )

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


def _tightest(a: Deadline | None, b: Deadline | None) -> Deadline | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a.remaining() <= b.remaining() else b


_ACTIVE_DEADLINE: contextvars.ContextVar[Deadline | None] = contextvars.ContextVar(
    "repro_active_deadline", default=None
)


def active_deadline() -> Deadline | None:
    """The deadline governing the current solve, or ``None``.

    Hot loops read this once at entry (via
    :attr:`SolveSession.deadline <repro.core.session.SolveSession.deadline>`
    or directly) and keep the object in a local; the no-deadline fast
    path stays branch-free.
    """
    return _ACTIVE_DEADLINE.get()


@contextlib.contextmanager
def deadline_scope(deadline: Deadline | None) -> Iterator[Deadline | None]:
    """Install ``deadline`` as the ambient deadline for the block.

    Composes with an enclosing scope by keeping whichever deadline
    expires first; ``None`` leaves the enclosing scope in force.
    Context-var based, so concurrent threads (the planned ΔV
    thread-layer) each see their own deadline.
    """
    effective = _tightest(_ACTIVE_DEADLINE.get(), deadline)
    token = _ACTIVE_DEADLINE.set(effective)
    try:
        yield effective
    finally:
        _ACTIVE_DEADLINE.reset(token)


class CircuitBreaker:
    """A per-route circuit breaker for the serving layer.

    Tracks consecutive *bad* outcomes (degraded answers, timeouts,
    errors) for one route.  After ``threshold`` consecutive failures
    the breaker **opens**: :meth:`allow` answers ``False`` so callers
    stop routing new work at a method that is currently blowing its
    deadlines.  After ``cooldown_seconds`` the breaker goes
    **half-open** and :meth:`allow` admits exactly one probe; the
    probe's outcome closes the breaker (success) or re-opens it with a
    fresh cooldown (failure).

    The state machine is deliberately tiny — three states, one counter
    — because it sits on the request admission path of
    :class:`repro.serve.server.SolveServer`.  ``clock`` is injectable
    (same convention as :class:`Deadline`) so tests drive the cooldown
    deterministically.
    """

    __slots__ = (
        "threshold",
        "cooldown_seconds",
        "_clock",
        "_state",
        "_consecutive_failures",
        "_opened_at",
        "_probe_outstanding",
        "_opens",
    )

    def __init__(
        self,
        threshold: int = 5,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        self._opens = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (cooldown
        elapsed, probe admitted or admissible)."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            return "half-open"
        return self._state

    def allow(self) -> bool:
        """May a request route here right now?

        ``closed`` always admits.  ``open`` rejects until the cooldown
        elapses, then admits exactly one half-open probe at a time —
        concurrent requests during a probe are rejected so a single
        slow probe cannot re-flood a struggling route.
        """
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probe_outstanding:
            self._state = "half-open"
            self._probe_outstanding = True
            return True
        return False

    def record(self, ok: bool) -> None:
        """Feed one outcome (``ok=False`` for degraded/timeout/error)."""
        if self._state == "half-open":
            self._probe_outstanding = False
            if ok:
                self._state = "closed"
                self._consecutive_failures = 0
            else:
                self._trip()
            return
        if ok:
            self._consecutive_failures = 0
            return
        self._consecutive_failures += 1
        if self._state == "closed" and (
            self._consecutive_failures >= self.threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._probe_outstanding = False
        self._opens += 1

    def retry_after(self) -> float:
        """Seconds until the next half-open probe window (0 when the
        breaker admits traffic) — the serving layer's ``retry_after_ms``
        hint for circuit-open rejections."""
        if self.state != "open":
            return 0.0
        return max(
            0.0,
            self.cooldown_seconds - (self._clock() - self._opened_at),
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "threshold": self.threshold,
            "cooldown_seconds": self.cooldown_seconds,
            "opens": self._opens,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self._consecutive_failures}/{self.threshold})"
        )


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt inside a policy-governed solve (or one supervision
    event inside the pool supervisor).

    ``outcome`` values produced by :func:`solve_with_policy`:
    ``"ok"``, ``"retry"`` (transient failure, will retry), ``"error"``
    (transient failures exhausted), ``"inapplicable"`` (deterministic
    solver error — straight to the next fallback), ``"deadline"``
    (deadline hit with no incumbent), ``"degraded"`` (deadline hit,
    incumbent kept).  The pool supervisor adds ``"worker-crash"``,
    ``"worker-timeout"``, ``"pool-lost"``, and ``"serial-fallback"``.
    """

    method: str
    outcome: str
    seconds: float = 0.0
    attempt: int = 0  #: 0-based retry index (or dispatch index for pool events)
    cause: str | None = None
    #: Backoff sleep drawn before the next retry (``"retry"`` records
    #: only) — recorded so a trace pins down the exact jittered delays
    #: of a run and a replay with the same seed reproduces them.
    jitter: float | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "method": self.method,
            "outcome": self.outcome,
            "seconds": self.seconds,
            "attempt": self.attempt,
            "cause": self.cause,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "AttemptRecord":
        jitter = document.get("jitter")
        return cls(
            method=str(document.get("method", "?")),
            outcome=str(document.get("outcome", "?")),
            seconds=float(document.get("seconds", 0.0)),
            attempt=int(document.get("attempt", 0)),
            cause=document.get("cause"),
            jitter=None if jitter is None else float(jitter),
        )

    def summary(self) -> str:
        cause = f" ({self.cause})" if self.cause else ""
        return (
            f"{self.method} [{self.outcome}] "
            f"try {self.attempt} {self.seconds * 1e3:.2f} ms{cause}"
        )


@dataclass(frozen=True)
class SolvePolicy:
    """The per-request resilience contract.

    * ``deadline_seconds`` — wall-clock bound covering the *whole*
      request (all retries and the full fallback chain share it).
    * ``retries`` — extra attempts per method for transient failures
      (anything that is not a deterministic :class:`ReproError`), with
      exponential backoff ``backoff_seconds · backoff_factor^attempt``
      plus up to ``backoff_jitter`` (a fraction of the backoff) of
      uniform random jitter.
    * ``fallback`` — methods tried, in order, after the requested one
      fails deterministically or errors out of its retry budget.
    """

    deadline_seconds: float | None = None
    retries: int = 0
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    fallback: tuple[str, ...] = ()

    def deadline(self) -> Deadline | None:
        """A fresh :class:`Deadline` for one request (or ``None``)."""
        if self.deadline_seconds is None:
            return None
        return Deadline.after(self.deadline_seconds)

    @classmethod
    def exact(
        cls,
        deadline_seconds: float | None = None,
        retries: int = 0,
        **overrides: object,
    ) -> "SolvePolicy":
        """A policy preconfigured for ``method="exact-ilp"`` requests:
        the :data:`EXACT_FALLBACK` chain behind the ILP, so a request
        degrades branch & bound → greedy instead of erroring when the
        ILP is inapplicable, and an expiring deadline returns the ILP's
        best feasible incumbent (route ``degraded:exact-ilp``)."""
        return cls(
            deadline_seconds=deadline_seconds,
            retries=retries,
            fallback=EXACT_FALLBACK,
            **overrides,  # type: ignore[arg-type]
        )

    def chain(self, method: str) -> tuple[str, ...]:
        """The full method chain: the requested method first, then the
        fallbacks (deduplicated, order preserved)."""
        return tuple(dict.fromkeys((method, *self.fallback)))

    def backoff(self, attempt: int, rng: _random.Random | None = None) -> float:
        """Sleep before retry number ``attempt + 1``.

        The jitter draw comes from ``rng`` so backoff schedules are
        reproducible: :func:`solve_with_policy` always passes one (its
        caller's, or a per-request seeded instance via
        :func:`derive_backoff_rng`).  ``rng=None`` falls back to the
        process-global generator and is only appropriate where
        reproducibility is explicitly not wanted.
        """
        base = self.backoff_seconds * (self.backoff_factor**attempt)
        jitter = (rng.random() if rng is not None else _random.random())
        return base * (1.0 + self.backoff_jitter * jitter)

    def as_dict(self) -> dict[str, object]:
        return {
            "deadline_seconds": self.deadline_seconds,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "backoff_factor": self.backoff_factor,
            "backoff_jitter": self.backoff_jitter,
            "fallback": list(self.fallback),
        }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def derive_backoff_rng(
    method: str, policy: SolvePolicy, seed: int | None = None
) -> _random.Random:
    """A deterministically seeded RNG for one request's backoff jitter.

    With no explicit ``seed`` the seed is a stable digest (CRC-32, not
    Python's randomized ``hash``) of the request shape — the method and
    the policy contract — so the same request draws the same jitter
    sequence in every process, while distinct requests decorrelate.
    ``seed`` (e.g. the CLI's ``--seed``) overrides the digest.
    """
    if seed is None:
        shape = f"{method}|{sorted(policy.as_dict().items())!r}"
        seed = zlib.crc32(shape.encode("utf-8"))
    return _random.Random(seed)


def solve_with_policy(
    problem: "DeletionPropagationProblem | SolveSession",
    method: str = "auto",
    policy: SolvePolicy | None = None,
    deadline: Deadline | None = None,
    rng: _random.Random | None = None,
) -> "SolveReport":
    """Solve under a :class:`SolvePolicy` and return the
    :class:`~repro.core.registry.SolveReport` with its ``attempts``
    trace filled in.

    Per method in ``policy.chain(method)``, up to ``1 + policy.retries``
    attempts are made; deterministic :class:`ReproError` failures skip
    the retry budget and fall straight through the chain.  A
    :class:`DeadlineExceededError` carrying an incumbent short-circuits
    everything: the incumbent *is* the answer (route
    ``degraded:<method>``).  Without an incumbent the error propagates —
    the deadline is global, so later chain entries would expire
    immediately anyway.  When the chain is exhausted a
    :class:`SolverError` summarising every attempt is raised (with the
    trace on its ``attempts`` attribute).  The chain runs exactly as
    declared.
    """
    from repro.core.faultinject import maybe_inject
    from repro.core.registry import SolveReport, solve_report
    from repro.core.session import SolveSession

    if policy is None:
        policy = SolvePolicy()
    if deadline is None:
        deadline = policy.deadline()
    if rng is None:
        # Never fall through to the process-global generator: backoff
        # jitter must be reproducible per request (and recorded in the
        # attempt trace below).
        rng = derive_backoff_rng(method, policy)
    attempts: list[AttemptRecord] = []
    last_error: Exception | None = None

    for name in policy.chain(method):
        attempt = 0
        while True:
            if deadline is not None and deadline.expired:
                attempts.append(
                    AttemptRecord(
                        name,
                        "deadline",
                        0.0,
                        attempt,
                        "request deadline exhausted before attempt",
                    )
                )
                error = DeadlineExceededError(
                    f"request deadline exhausted before trying {name!r}"
                )
                error.attempts = attempts
                raise error from last_error
            start = time.perf_counter()
            try:
                with deadline_scope(deadline):
                    maybe_inject("solve", name)
                    report = solve_report(problem, method=name)
            except DeadlineExceededError as exc:
                seconds = time.perf_counter() - start
                if exc.incumbent is not None:
                    attempts.append(
                        AttemptRecord(
                            name, "degraded", seconds, attempt, str(exc)
                        )
                    )
                    session = (
                        problem
                        if isinstance(problem, SolveSession)
                        else SolveSession.of(problem)
                    )
                    return SolveReport(
                        propagation=exc.incumbent,
                        route=f"degraded:{name}",
                        profile=session.profile,
                        trace=[],
                        attempts=attempts,
                    )
                attempts.append(
                    AttemptRecord(name, "deadline", seconds, attempt, str(exc))
                )
                exc.attempts = attempts
                raise
            except ReproError as exc:
                # Deterministic library failure (inapplicable structure,
                # unknown method, infeasible input): retrying cannot
                # help — move down the fallback chain.
                attempts.append(
                    AttemptRecord(
                        name,
                        "inapplicable",
                        time.perf_counter() - start,
                        attempt,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                last_error = exc
                break
            except Exception as exc:
                seconds = time.perf_counter() - start
                last_error = exc
                cause = f"{type(exc).__name__}: {exc}"
                if attempt < policy.retries:
                    delay = policy.backoff(attempt, rng)
                    attempts.append(
                        AttemptRecord(
                            name, "retry", seconds, attempt, cause, jitter=delay
                        )
                    )
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline.remaining()))
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                    continue
                attempts.append(
                    AttemptRecord(name, "error", seconds, attempt, cause)
                )
                break
            else:
                attempts.append(
                    AttemptRecord(
                        name, "ok", time.perf_counter() - start, attempt
                    )
                )
                report.attempts = attempts
                return report

    detail = "; ".join(
        f"{record.method}: {record.cause}"
        for record in attempts
        if record.cause
    )
    error = SolverError(f"every method in the fallback chain failed ({detail})")
    error.attempts = attempts  # type: ignore[attr-defined]
    raise error from last_error


#: ``--fallback`` aliases expanded by :func:`parse_fallback`.
_FALLBACK_ALIASES: dict[str, tuple[str, ...]] = {
    "exact-chain": EXACT_FALLBACK,
}


def parse_fallback(spec: str | Sequence[str] | None) -> tuple[str, ...]:
    """Normalize a ``--fallback`` CLI value (comma-separated string or
    sequence) into a method tuple, expanding chain aliases (e.g.
    ``exact-chain`` → :data:`EXACT_FALLBACK`)."""
    if spec is None:
        return ()
    if isinstance(spec, str):
        parts = tuple(
            part.strip() for part in spec.split(",") if part.strip()
        )
    else:
        parts = tuple(spec)
    expanded: list[str] = []
    for part in parts:
        expanded.extend(_FALLBACK_ALIASES.get(part, (part,)))
    return tuple(dict.fromkeys(expanded))
