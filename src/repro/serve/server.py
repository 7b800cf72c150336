"""The asyncio solve server (stdlib-only).

Architecture — three tiers, matching the module goal of *compile once,
share everywhere, bound every request*:

1. **Front door** (this module): an asyncio JSON-lines listener on TCP
   or a unix socket.  Connections are cheap; requests carry an optional
   ``id`` and may be pipelined.
2. **Resident instances**: ``register`` parses a problem document once,
   compiles its :class:`~repro.core.session.SolveSession` (structure
   profile + witness arena), and files it under its content hash.
   Re-registering an identical document is a cache hit — no parse, no
   compile.
3. **Execution**: ΔV requests against one instance are *micro-batched*
   by a per-instance group-commit loop: while one batch executes,
   arriving requests accumulate; when it finishes, the accumulated
   queue runs as the next batch through
   :func:`repro.core.portfolio.run_delta_batch`, always in-process
   with no worker pool: a served ΔV request touches only the ΔV's
   dependents in the resident arena, so a worker pool's start-up
   would cost more than the batch.  Every request is admitted under
   its own :class:`~repro.core.resilience.SolvePolicy` contract,
   whose deadline is cooperative.

Admission control is **tiered** rather than a single binary reject:
per-instance load (queued *plus* in-flight requests) and a global
in-flight watermark shed progressively.  Past the *soft* watermark
(``soft_watermark`` × the hard limit) only the lowest-priority
traffic — requests carrying no :class:`SolvePolicy` and priority <= 0
— is rejected; past the hard limit everything is.  Overload
rejections use code ``overloaded`` and carry a ``retry_after_ms``
hint sized to the queue depth, which :class:`~repro.serve.client
.ServeClient` honors with seeded jittered backoff.  A per-route
**circuit breaker** (:class:`~repro.core.resilience.CircuitBreaker`)
opens after consecutive degraded/timeout/error outcomes on a route;
requests for an open route are re-routed down their policy fallback
chain (the breaker feeds the chain ordering — open routes sink to the
tail) or rejected with code ``circuit-open`` when no fallback exists.

Durability: with a ``state_dir``, every acknowledged registration is
appended (fsync-before-ack) to the :class:`~repro.serve.journal
.RegistrationJournal`.  On startup the journal is replayed — every
recorded document is re-parsed and re-compiled, and the recompiled
content hash is verified against the pre-crash record — so a
SIGKILLed server restarts with its resident instances warm.  Records
written by older servers may still name exported ``/dev/shm``
segments; replay reaps those.

Shutdown has two modes.  ``mode: "now"`` (the ``shutdown`` op default,
:meth:`SolveServer.close`, context exit) drains nothing: pending
requests get ``shutting-down`` errors and sessions are closed.  The
server exports nothing to shared memory, so ``/dev/shm`` stays exactly
as it found it.  ``mode: "drain"`` (also wired to SIGTERM by the CLI)
flips the server to draining — readiness goes false, new solves are
rejected with code ``draining`` — lets in-flight batches finish under
a :class:`~repro.core.resilience.Deadline` drain budget, then closes
cleanly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.faultinject import inject_action
from repro.core.resilience import CircuitBreaker, Deadline
from repro.serve.journal import (
    JournalError,
    JournalRecord,
    RegistrationJournal,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    policy_from_doc,
)

__all__ = ["Rejection", "ServeStats", "SolveServer"]

_log = logging.getLogger("repro.serve")


def _latency_bucket(seconds: float) -> str:
    """Log2 latency bucket label (``<=1ms``, ``<=2ms``, …, ``>16384ms``)
    — coarse enough that the histogram stays a handful of keys, fine
    enough that routing drift (a route suddenly answering 8x slower)
    shows up in the ``stats`` op."""
    ms = seconds * 1e3
    bound = 1
    while ms > bound:
        if bound >= 16384:
            return ">16384ms"
        bound *= 2
    return f"<={bound}ms"


@dataclass
class ServeStats:
    """Lifetime counters, exposed by the ``stats`` op.

    ``routes`` is the per-route request/latency histogram: for every
    dispatch route taken by a solve (``forest-duel``, ``exact-ilp``,
    ``forced:<method>``, …) the request count, accumulated wall time,
    and a log2 latency histogram — the production-side view of routing
    drift (a learned router changing its mind shows up here first).
    """

    registered: int = 0
    cache_hits: int = 0
    solves: int = 0
    solve_errors: int = 0
    batches: int = 0
    rejected: int = 0
    protocol_errors: int = 0
    internal_errors: int = 0
    #: Instances restored from the registration journal on startup.
    replayed: int = 0
    #: Soft-tier sheds (policy-less low-priority traffic past the soft
    #: watermark) vs hard-tier sheds (everything past the hard limit).
    shed_soft: int = 0
    shed_hard: int = 0
    #: Requests refused (not re-routed) because a route breaker is open.
    breaker_rejected: int = 0
    routes: dict = field(default_factory=dict)

    def record_route(self, route: str | None, seconds: float) -> None:
        """Count one solved request under its dispatch route (failed
        requests carry no route and count under ``"unrouted"``)."""
        entry = self.routes.setdefault(
            route or "unrouted",
            {"requests": 0, "total_seconds": 0.0, "latency_ms": {}},
        )
        entry["requests"] += 1
        entry["total_seconds"] += seconds
        bucket = _latency_bucket(seconds)
        entry["latency_ms"][bucket] = entry["latency_ms"].get(bucket, 0) + 1

    def as_dict(self) -> dict[str, object]:
        return {
            "registered": self.registered,
            "cache_hits": self.cache_hits,
            "solves": self.solves,
            "solve_errors": self.solve_errors,
            "batches": self.batches,
            "rejected": self.rejected,
            "protocol_errors": self.protocol_errors,
            "internal_errors": self.internal_errors,
            "replayed": self.replayed,
            "shed_soft": self.shed_soft,
            "shed_hard": self.shed_hard,
            "breaker_rejected": self.breaker_rejected,
            "routes": {
                route: {
                    "requests": entry["requests"],
                    "total_seconds": round(entry["total_seconds"], 6),
                    "latency_ms": dict(entry["latency_ms"]),
                }
                for route, entry in sorted(self.routes.items())
            },
        }


@dataclass
class _Registered:
    """One resident instance."""

    instance_id: str
    problem: Any
    session: Any
    profile: dict
    solves: int = 0
    #: serializes thread-side execution: sessions are not thread-safe.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class Rejection(Exception):
    """An admission-control rejection (overload, draining, open
    breaker, shutdown).  Carries the wire error ``code`` and an
    optional ``retry_after_ms`` hint rendered into the error object —
    deliberately *not* a :class:`ProtocolError`: the request was well
    formed, the server just will not take it right now."""

    def __init__(
        self, code: str, message: str, retry_after_ms: int | None = None
    ):
        super().__init__(message)
        self.code = code
        self.retry_after_ms = retry_after_ms

    def response(self, request_id: Any = None) -> dict:
        extra: dict[str, Any] = {}
        if self.retry_after_ms is not None:
            extra["retry_after_ms"] = self.retry_after_ms
        return error_response(
            self.code, str(self), request_id, **extra
        )


class _PendingSolve:
    __slots__ = ("deletions", "method", "policy", "future")

    def __init__(self, deletions, method, policy, future):
        self.deletions = deletions
        self.method = method
        self.policy = policy
        self.future = future


class SolveServer:
    """See the module docstring for the architecture.

    Parameters
    ----------
    host / port:
        TCP endpoint (``port=0`` picks a free port; see
        :attr:`address` after :meth:`start`).  Ignored when
        ``unix_path`` is given.
    unix_path:
        Serve on a unix domain socket instead of TCP.
    max_pending:
        Per-instance hard watermark: queued **plus in-flight** requests
        before new solves are rejected outright (at least 1).
    max_global_pending:
        Server-wide hard watermark over all instances (``None``: 4 ×
        ``max_pending``).
    soft_watermark:
        Fraction of a hard watermark past which the soft shed tier
        starts rejecting policy-less, priority <= 0 requests.
    state_dir:
        Directory for the durable registration journal; ``None`` (the
        default) serves memory-only, exactly as before.
    drain_seconds:
        Default budget for graceful drain (``shutdown`` op with
        ``mode: "drain"``, or SIGTERM via the CLI).
    breaker_threshold / breaker_cooldown_seconds:
        Per-route circuit breaker contract: consecutive bad outcomes
        before a route opens, and how long it stays open before a
        half-open probe.
    default_method:
        Solver used when a request names none.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        max_pending: int = 1024,
        max_global_pending: int | None = None,
        soft_watermark: float = 0.75,
        state_dir: str | None = None,
        drain_seconds: float = 5.0,
        breaker_threshold: int = 5,
        breaker_cooldown_seconds: float = 5.0,
        default_method: str = "auto",
        max_line_bytes: int = MAX_LINE_BYTES,
        _breaker_clock=time.monotonic,
    ):
        # A zero watermark rejects every solve as retryable overload, so
        # a retrying client would loop forever: refuse to start instead.
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self.max_pending = max_pending
        self.max_global_pending = (
            4 * max_pending if max_global_pending is None
            else max_global_pending
        )
        self.soft_watermark = min(1.0, max(0.0, soft_watermark))
        self.drain_seconds = drain_seconds
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_seconds = breaker_cooldown_seconds
        self.default_method = default_method
        self.max_line_bytes = max_line_bytes
        self._breaker_clock = _breaker_clock
        self.stats = ServeStats()
        self._registry: dict[str, _Registered] = {}
        self._doc_alias: dict[str, str] = {}  #: raw-doc hash → instance id
        self._batchers: dict[str, "_Batcher"] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._journal: RegistrationJournal | None = (
            None if state_dir is None else RegistrationJournal(state_dir)
        )
        self._inflight_global = 0
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._closing = False
        self._draining = False
        self._done = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        """The endpoint clients connect to (``host:port`` or
        ``unix:<path>``), available after :meth:`start`."""
        if self._unix_path is not None:
            return f"unix:{self._unix_path}"
        return f"{self._host}:{self._port}"

    async def start(self) -> "SolveServer":
        if self._journal is not None:
            self.replay_journal()
        if self._unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self._unix_path,
                limit=self.max_line_bytes,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self._host,
                port=self._port,
                limit=self.max_line_bytes,
            )
            self._port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_closed(self) -> None:
        """Block until :meth:`close` (or the ``shutdown`` op)."""
        await self._done.wait()

    @property
    def ready(self) -> bool:
        """Accepting new solve work right now (started, not draining,
        not closing) — the ``health`` op's readiness bit."""
        return (
            self._server is not None
            and not self._closing
            and not self._draining
        )

    async def drain(self, budget_seconds: float | None = None) -> None:
        """Graceful shutdown: reject new solves (code ``draining``),
        let in-flight and queued work finish under a
        :class:`~repro.core.resilience.Deadline` drain budget, then
        :meth:`close`.  Idempotent with :meth:`close`; an expired
        budget falls through to the abrupt path for whatever is left.
        """
        if self._closing:
            return
        self._draining = True
        budget = Deadline.after(
            self.drain_seconds if budget_seconds is None else budget_seconds
        )
        while not budget.expired:
            busy = self._inflight_global > 0 or any(
                batcher.load() > 0 for batcher in self._batchers.values()
            )
            if not busy:
                break
            await asyncio.sleep(0.02)
        await self.close()

    async def close(self) -> None:
        """Stop listening, fail pending work, release every session."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()
        for batcher in self._batchers.values():
            await batcher.stop()
        self._batchers.clear()
        for entry in self._registry.values():
            entry.session.close()
        self._registry.clear()
        self._doc_alias.clear()
        if self._journal is not None:
            self._journal.close()
        self._done.set()

    async def __aenter__(self) -> "SolveServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Registration (sync core so the CLI can preload before serving)
    # ------------------------------------------------------------------

    def register_document(
        self,
        doc: Mapping[str, Any],
        journal: bool = True,
    ) -> tuple[str, bool]:
        """Compile and file ``doc``; returns ``(instance_id, cached)``.

        The cache has two levels: the hash of the incoming document
        (skips even the parse for byte-identical re-registrations) and
        the content hash of the *canonical* document (catches
        re-registrations that differ only in JSON formatting).

        With a ``state_dir``, a *new* registration is appended to the
        durable journal and fsynced **before** this returns — the
        acknowledgement the caller sends is the durability point.
        ``journal=False`` is the replay path (the record already
        exists).
        """
        from repro.core.shm import document_hash
        from repro.io.serialize import problem_from_dict

        raw_hash = document_hash(doc)
        known = self._doc_alias.get(raw_hash)
        if known is not None:
            self.stats.cache_hits += 1
            return known, True

        problem = problem_from_dict(doc)
        from repro.core.portfolio import _prime_session

        session = _prime_session(problem)
        instance_id = session.content_hash
        if instance_id in self._registry:
            session.close()
            self._doc_alias[raw_hash] = instance_id
            self.stats.cache_hits += 1
            return instance_id, True

        profile = session.profile.as_dict()
        if journal and self._journal is not None:
            self._journal.append_register(
                instance_id,
                session.document,
                profile,
                options=self._registration_options(),
            )
        self._registry[instance_id] = _Registered(
            instance_id=instance_id,
            problem=problem,
            session=session,
            profile=profile,
        )
        self._doc_alias[raw_hash] = instance_id
        self.stats.registered += 1
        return instance_id, False

    def _registration_options(self) -> dict[str, Any]:
        """The registration-time serving options journaled with each
        instance, so a replayed registry documents the contract it was
        admitted under."""
        return {
            "max_pending": self.max_pending,
            "default_method": self.default_method,
        }

    def replay_journal(self) -> int:
        """Rebuild the resident registry from the durable journal.

        Reap any shared-memory segment the records name (only records
        written by older, exporting servers name one).  Then, for every
        live record, re-parse and re-compile the recorded canonical
        document and verify the recompiled instance **bitwise** against
        the pre-crash record — the content hash covers the canonical
        document bytes, and the recomputed structure profile must match
        the recorded one.  Any divergence raises
        :class:`~repro.serve.journal.JournalError` (serving silently
        different answers than were acknowledged is the one thing a
        durable registry must never do).

        Ends with a compaction, so the on-disk journal always describes
        the current incarnation (and names no reaped segment again).
        Returns the number of instances restored.
        """
        assert self._journal is not None
        records = self._journal.replay()
        reaped = self._journal.reap_stale_segments(records)
        if reaped:
            _log.info(
                "reaped %d stale shared-memory segment(s) from a "
                "previous incarnation: %s", len(reaped), sorted(reaped),
            )
        for record in records:
            instance_id, cached = self.register_document(
                record.problem, journal=False
            )
            if instance_id != record.instance:
                raise JournalError(
                    f"journal replay diverged: recorded instance "
                    f"{record.instance} recompiled to {instance_id}"
                )
            entry = self._registry[instance_id]
            if record.profile is not None and (
                entry.profile != dict(record.profile)
            ):
                raise JournalError(
                    f"journal replay diverged: instance {instance_id} "
                    "recompiled to a different structure profile"
                )
            if not cached:
                self.stats.replayed += 1
        self._journal.compact(
            [
                JournalRecord(
                    op="register",
                    instance=entry.instance_id,
                    problem=entry.session.document,
                    profile=entry.profile,
                    options=self._registration_options(),
                )
                for entry in self._registry.values()
            ]
        )
        return self.stats.replayed

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while not self._closing:
                try:
                    line = await reader.readline()
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                except (asyncio.LimitOverrunError, ValueError):
                    # One line over the stream limit.  The buffer
                    # cannot be resynchronized, so the connection must
                    # close — but the client deserves to hear *why*
                    # instead of a silent hangup.
                    self.stats.protocol_errors += 1
                    try:
                        writer.write(
                            encode_message(
                                error_response(
                                    "bad-request",
                                    "request line exceeds "
                                    f"{self.max_line_bytes} bytes; "
                                    "closing connection",
                                )
                            )
                        )
                        await writer.drain()
                    except ConnectionError:
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response, op = await self._dispatch(line)
                data = encode_message(response)
                fault = inject_action("serve-write", op or "*")
                try:
                    if fault == "drop":
                        # Chaos: the connection dies before any byte of
                        # the response reaches the client.
                        writer.transport.abort()
                        break
                    if fault == "partial":
                        # Chaos: half the response line, then death.
                        writer.write(data[: max(1, len(data) // 2)])
                        await writer.drain()
                        writer.transport.abort()
                        break
                    writer.write(data)
                    await writer.drain()
                except ConnectionError:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown cancels live connections
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Routine on abrupt client disconnects; the connection
                # is gone either way, but keep an audit trail.
                _log.debug("connection close failed", exc_info=True)

    async def _dispatch(self, line: bytes) -> tuple[dict, str | None]:
        request_id: Any = None
        op: Any = None
        try:
            message = decode_line(line)
            request_id = message.get("id")
            op = message.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise ProtocolError(
                    f"unknown op {op!r}; known: {sorted(self._OPS)}"
                )
            response = await handler(self, message)
        except Rejection as exc:
            self.stats.rejected += 1
            return exc.response(request_id), op
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            return error_response("bad-request", str(exc), request_id), op
        except Exception as exc:  # internal error: report, keep serving
            self.stats.internal_errors += 1
            _log.exception("internal error handling op %r", op)
            return (
                error_response(
                    "internal", f"{type(exc).__name__}: {exc}", request_id
                ),
                op,
            )
        if request_id is not None:
            response["id"] = request_id
        return response, op

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def _op_ping(self, message: dict) -> dict:
        return {"ok": True, "pong": True}

    async def _op_stats(self, message: dict) -> dict:
        return {
            "ok": True,
            "stats": self.stats.as_dict(),
            "instances": [
                {
                    "instance": entry.instance_id,
                    "solves": entry.solves,
                }
                for entry in self._registry.values()
            ],
        }

    async def _op_register(self, message: dict) -> dict:
        doc = message.get("problem")
        if not isinstance(doc, dict):
            raise ProtocolError("register needs a 'problem' document")
        instance_id, cached = await asyncio.to_thread(
            self.register_document, doc
        )
        return {
            "ok": True,
            "instance": instance_id,
            "cached": cached,
            "profile": self._registry[instance_id].profile,
        }

    async def _op_unregister(self, message: dict) -> dict:
        entry = self._entry(message)
        batcher = self._batchers.pop(entry.instance_id, None)
        if batcher is not None:
            await batcher.stop()
        del self._registry[entry.instance_id]
        self._doc_alias = {
            raw: iid
            for raw, iid in self._doc_alias.items()
            if iid != entry.instance_id
        }
        entry.session.close()
        if self._journal is not None:
            # Tombstone, not rewrite: append-only survives crashes.
            await asyncio.to_thread(
                self._journal.append_unregister, entry.instance_id
            )
        return {"ok": True, "instance": entry.instance_id}

    @staticmethod
    def _priority(message: dict) -> int:
        priority = message.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ProtocolError("'priority' must be an integer")
        return priority

    async def _solve(
        self, message: dict, entry: _Registered, count: int, load: int, run
    ) -> list[dict]:
        """The path ``solve`` and ``solve_batch`` share.

        Parses priority, method and policy; admits ``load`` (the soft
        tier reads the *parsed* policy, so ``{}`` and ``null`` count as
        none); routes under the breakers; then awaits ``run(method,
        policy)`` for the ``count`` result documents and counts them.
        """
        priority = self._priority(message)
        method = message.get("method", self.default_method)
        if not isinstance(method, str):
            raise ProtocolError("'method' must be a string")
        policy = policy_from_doc(message.get("policy"))
        self._admit(load, priority, policy is not None)
        method, policy = self._apply_breakers(method, policy)
        self._inflight_global += count
        try:
            results = await run(method, policy)
        finally:
            self._inflight_global -= count
        entry.solves += count
        self.stats.solves += count
        self.stats.solve_errors += sum(1 for r in results if r.get("error"))
        return results

    async def _op_solve(self, message: dict) -> dict:
        entry = self._entry(message)
        deletions = message.get("deletions")
        if not isinstance(deletions, dict):
            raise ProtocolError("solve needs a 'deletions' mapping")
        batcher = self._batcher(entry)

        async def run(method, policy) -> list[dict]:
            return [await batcher.submit(deletions, method, policy)]

        (result,) = await self._solve(message, entry, 1, batcher.load(), run)
        if result.get("error"):
            return {"ok": False, "error": {"code": "solve-failed",
                                           "message": result["error"]},
                    "wall_seconds": result["wall_seconds"],
                    "attempts": result["attempts"]}
        return {"ok": True, **result}

    async def _op_solve_batch(self, message: dict) -> dict:
        entry = self._entry(message)
        requests = message.get("requests")
        if not isinstance(requests, list) or not all(
            isinstance(req, dict) for req in requests
        ):
            raise ProtocolError(
                "solve_batch needs a 'requests' list of deletion mappings"
            )

        async def run(method, policy) -> list[dict]:
            async with entry.lock:
                return await asyncio.to_thread(
                    self._execute, entry, requests, method, policy
                )

        count = len(requests)
        results = await self._solve(message, entry, count, count, run)
        return {"ok": True, "results": results}

    async def _op_health(self, message: dict) -> dict:
        from repro.core.shm import active_segments

        return {
            "ok": True,
            "health": {
                "ready": self.ready,
                "draining": self._draining,
                "closing": self._closing,
                "instances": len(self._registry),
                "inflight": {
                    "global": self._inflight_global,
                    "max_global_pending": self.max_global_pending,
                    "per_instance": {
                        instance: batcher.load()
                        for instance, batcher in self._batchers.items()
                    },
                },
                "watermarks": {
                    "max_pending": self.max_pending,
                    "soft_watermark": self.soft_watermark,
                },
                "pool": {
                    "batchers": len(self._batchers),
                    "batchers_alive": sum(
                        1 for batcher in self._batchers.values()
                        if not batcher.dead
                    ),
                },
                "journal": (
                    {"enabled": False}
                    if self._journal is None
                    else {"enabled": True, **self._journal.lag()}
                ),
                "segments": {"active": len(active_segments())},
                "breakers": {
                    route: breaker.as_dict()
                    for route, breaker in sorted(self._breakers.items())
                },
            },
        }

    async def _op_shutdown(self, message: dict) -> dict:
        mode = message.get("mode", "now")
        if mode not in ("now", "drain"):
            raise ProtocolError(
                f"unknown shutdown mode {mode!r}; known: ['drain', 'now']"
            )
        budget = message.get("drain_seconds")
        if budget is not None and (
            isinstance(budget, bool)
            or not isinstance(budget, (int, float))
            or budget < 0
        ):
            raise ProtocolError("'drain_seconds' must be a number >= 0")
        if mode == "drain":
            # Flip before responding so no solve can race in between
            # the acknowledgement and the drain task starting.
            self._draining = True
            work = self.drain(budget)
        else:
            work = self.close()
        # Respond first, then tear down; close() is idempotent.
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(work)
        )
        return {"ok": True, "stopping": True, "mode": mode}

    _OPS = {
        "ping": _op_ping,
        "stats": _op_stats,
        "health": _op_health,
        "register": _op_register,
        "unregister": _op_unregister,
        "solve": _op_solve,
        "solve_batch": _op_solve_batch,
        "shutdown": _op_shutdown,
    }

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def _retry_after_ms(self, load: int, limit: int) -> int:
        """A deterministic backoff hint proportional to queue depth:
        50 ms floor plus one second per fully-loaded watermark."""
        return int(min(5000.0, 50.0 + 1000.0 * load / max(1, limit)))

    def _admit(self, load: int, priority: int, has_policy: bool) -> None:
        """Tiered admission for one solve (or one batch of ``load``).

        Tier 0: a draining/closing server takes nothing new.  Tier 1
        (hard): per-instance load — queued *plus in-flight* — at
        ``max_pending``, or global in-flight at ``max_global_pending``,
        rejects everything.  Tier 2 (soft): past ``soft_watermark`` of
        either limit, the lowest class of traffic — no
        :class:`SolvePolicy` attached and priority <= 0 — is shed
        first, keeping headroom for requests that declared a contract.
        """
        if self._draining or self._closing:
            raise Rejection(
                "draining", "server is draining; retry against a peer"
            )
        global_load = self._inflight_global
        if load >= self.max_pending:
            self.stats.shed_hard += 1
            raise Rejection(
                "overloaded",
                f"instance queue full ({load} of {self.max_pending} "
                "pending+in-flight); retry later or raise --max-pending",
                retry_after_ms=self._retry_after_ms(load, self.max_pending),
            )
        if global_load >= self.max_global_pending:
            self.stats.shed_hard += 1
            raise Rejection(
                "overloaded",
                f"server at global capacity ({global_load} of "
                f"{self.max_global_pending} in flight)",
                retry_after_ms=self._retry_after_ms(
                    global_load, self.max_global_pending
                ),
            )
        if has_policy or priority > 0:
            return
        soft_instance = self.soft_watermark * self.max_pending
        soft_global = self.soft_watermark * self.max_global_pending
        if load >= soft_instance or global_load >= soft_global:
            self.stats.shed_soft += 1
            raise Rejection(
                "overloaded",
                "soft watermark reached; policy-less priority<=0 "
                "requests are shed first (attach a policy or a "
                "positive priority to ride out the load)",
                retry_after_ms=self._retry_after_ms(
                    max(load, global_load), self.max_pending
                ),
            )

    def _breaker(self, route: str) -> CircuitBreaker:
        breaker = self._breakers.get(route)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown_seconds=self.breaker_cooldown_seconds,
                clock=self._breaker_clock,
            )
            self._breakers[route] = breaker
        return breaker

    def _apply_breakers(self, method: str, policy):
        """Route one request under the per-route breaker state.

        The requested method dispatches as long as its breaker admits
        traffic (closed, or half-open granting this request the probe
        slot).  A refused route sinks to the tail of the fallback
        chain — the breaker *feeding the chain ordering* — and the
        first admitting fallback becomes the dispatch head.  When
        every route in the chain is refused the request is rejected
        with ``circuit-open`` and the soonest probe window as its
        ``retry_after_ms`` hint.
        """
        chain = list(
            dict.fromkeys(
                (method, *(policy.fallback if policy is not None else ()))
            )
        )
        admitted = None
        for name in chain:
            breaker = self._breakers.get(name)
            if breaker is None or breaker.allow():
                admitted = name
                break
        if admitted is None:
            self.stats.breaker_rejected += 1
            soonest = min(
                (
                    self._breakers[name].retry_after()
                    for name in chain
                    if name in self._breakers
                ),
                default=self.breaker_cooldown_seconds,
            )
            raise Rejection(
                "circuit-open",
                f"every route in {chain} has an open circuit breaker",
                retry_after_ms=max(1, int(soonest * 1000)),
            )
        tail = [name for name in chain if name != admitted]
        # Stable demotion: open routes last, healthy order preserved.
        tail.sort(
            key=lambda name: (
                1
                if name in self._breakers
                and self._breakers[name].state == "open"
                else 0
            )
        )
        if policy is not None and tuple(tail) != policy.fallback:
            policy = dataclasses.replace(policy, fallback=tuple(tail))
        return admitted, policy

    def _feed_breaker(self, method: str, outcome) -> None:
        """One solve outcome into ``method``'s breaker.

        Breaker food is *route health*: degraded answers (deadline hit,
        incumbent returned) and timeout-shaped failures count against
        the route; deterministic user/solver errors (unknown view,
        infeasible input) say nothing about route health and are
        ignored; clean answers heal.
        """
        route = getattr(outcome, "route", None) or ""
        if outcome.ok:
            self._breaker(method).record(not route.startswith("degraded:"))
            return
        error = (outcome.error or "").lower()
        timeoutish = "deadline" in error or "timeout" in error or any(
            record.outcome in ("worker-timeout", "deadline")
            for record in outcome.attempts
        )
        if timeoutish:
            self._breaker(method).record(False)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _entry(self, message: dict) -> _Registered:
        instance_id = message.get("instance")
        entry = self._registry.get(instance_id)
        if entry is None:
            raise ProtocolError(
                f"unknown instance {instance_id!r}; register it first"
            )
        return entry

    def _batcher(self, entry: _Registered) -> "_Batcher":
        batcher = self._batchers.get(entry.instance_id)
        if batcher is not None and batcher.dead:
            # The group-commit task died (a serve-side bug, or the
            # ``serve-batcher`` chaos fault).  Its futures were failed
            # when it fell; respawn a fresh loop so one task death
            # never bricks an instance.
            _log.warning(
                "respawning dead batcher for instance %s",
                entry.instance_id,
            )
            batcher = None
        if batcher is None:
            batcher = _Batcher(self, entry)
            self._batchers[entry.instance_id] = batcher
        return batcher

    def _execute(
        self,
        entry: _Registered,
        requests: list[Mapping[str, Any]],
        method: str,
        policy,
    ) -> list[dict]:
        """Thread-side: run one batch in-process and render outcome
        documents.

        Runs under ``entry.lock`` — one batch per instance at a time;
        sessions are not safe to share between racing threads.
        """
        from repro.core.portfolio import run_delta_batch
        from repro.io.serialize import solution_to_dict

        self.stats.batches += 1
        outcomes = run_delta_batch(
            entry.problem,
            requests,
            method=method,
            max_workers=0,
            policy=policy,
        )
        results = []
        for outcome in outcomes:
            doc: dict[str, Any] = {
                "wall_seconds": outcome.wall_seconds,
                "route": outcome.route,
                "attempts": [
                    record.as_dict() for record in outcome.attempts
                ],
            }
            if outcome.ok:
                doc["solution"] = solution_to_dict(outcome.propagation)
            else:
                doc["error"] = outcome.error
            self.stats.record_route(outcome.route, outcome.wall_seconds)
            self._feed_breaker(method, outcome)
            results.append(doc)
        return results


class _Batcher:
    """Per-instance group-commit loop (see the module docstring)."""

    def __init__(self, server: SolveServer, entry: _Registered):
        self._server = server
        self._entry = entry
        self._pending: list[_PendingSolve] = []
        self._inflight = 0
        self._wakeup = asyncio.Event()
        self._stopped = False
        self._dead = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def dead(self) -> bool:
        """True once the group-commit task has died abnormally."""
        return self._dead or (
            self._task.done() and not self._stopped
        )

    def load(self) -> int:
        """Requests this instance owes answers for: queued **plus
        in-flight**.  Admission watermarks count both — counting only
        the queue let each drained micro-batch admit ``max_pending``
        fresh requests while the previous batch still executed."""
        return len(self._pending) + self._inflight

    async def submit(self, deletions, method, policy) -> dict:
        if self._stopped or self._dead:
            raise Rejection("shutting-down", "server is shutting down")
        future = asyncio.get_running_loop().create_future()
        self._pending.append(_PendingSolve(deletions, method, policy, future))
        self._wakeup.set()
        return await future

    async def stop(self) -> None:
        self._stopped = True
        self._wakeup.set()
        try:
            await self._task
        except asyncio.CancelledError:  # pragma: no cover
            _log.debug(
                "batcher for %s cancelled during stop",
                self._entry.instance_id,
            )
        self._fail_pending(Rejection("shutting-down",
                                     "server is shutting down"))

    def _fail_pending(self, exc: Exception) -> None:
        for item in self._pending:
            if not item.future.done():
                item.future.set_exception(exc)
        self._pending.clear()

    async def _run(self) -> None:
        from repro.core.faultinject import maybe_inject

        batch: list[_PendingSolve] = []
        try:
            while True:
                await self._wakeup.wait()
                self._wakeup.clear()
                if self._stopped:
                    return
                batch, self._pending = self._pending, []
                if not batch:
                    continue
                self._inflight = len(batch)
                # Chaos hook: a fault here escapes the per-group
                # handler below and kills the whole task — the shape a
                # real group-commit-loop bug would take.
                maybe_inject("serve-batcher", self._entry.instance_id)
                # Group by execution contract: run_delta_batch applies
                # one (method, policy) pair per call.
                groups: dict[tuple, list[_PendingSolve]] = {}
                for item in batch:
                    groups.setdefault(
                        (item.method, item.policy), []
                    ).append(item)
                for items in groups.values():
                    try:
                        async with self._entry.lock:
                            results = await asyncio.to_thread(
                                self._server._execute,
                                self._entry,
                                [item.deletions for item in items],
                                items[0].method,
                                items[0].policy,
                            )
                    except Exception as exc:
                        # Typed solver failures are rendered into
                        # outcome documents inside ``_execute``;
                        # anything reaching here is a serve-side bug.
                        # Log it and hand it to the waiting futures
                        # (whose dispatch path counts it under
                        # ``internal_errors``) instead of letting it
                        # vanish with the batch.
                        _log.exception(
                            "batch execution failed for instance %s",
                            self._entry.instance_id,
                        )
                        for item in items:
                            if not item.future.done():
                                item.future.set_exception(exc)
                        continue
                    finally:
                        self._inflight -= len(items)
                    for item, result in zip(items, results):
                        if not item.future.done():
                            item.future.set_result(result)
                self._inflight = 0
        except Exception as exc:
            # The loop itself died — no future may dangle.  Mark the
            # batcher dead (the server respawns on next use) and fail
            # everything it still owed an answer.
            self._dead = True
            self._inflight = 0
            _log.exception(
                "batcher task died for instance %s",
                self._entry.instance_id,
            )
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            self._fail_pending(exc)
