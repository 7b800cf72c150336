"""Synchronous client for the solve service.

A thin blocking wrapper over one socket: callers that want concurrency
open one client per thread (the closed-loop throughput benchmark does
exactly that).  Addresses take the server's own notation —
``host:port`` for TCP, ``unix:/path/to.sock`` for unix sockets.

Overload-aware: with ``retries > 0`` the client transparently retries
responses whose error code is retryable (``overloaded``,
``circuit-open``), sleeping the server's ``retry_after_ms`` hint —
or a deterministic exponential schedule when the server sent none —
with jitter drawn from a :func:`~repro.core.resilience
.derive_backoff_rng`-seeded generator, so a thousand shed clients do
not stampede back in lockstep.

>>> with ServeClient.connect("127.0.0.1:7341", retries=3) as client:
...     instance = client.register(problem_doc)
...     result = client.solve(instance, {"Q1": [["a", "b"]]},
...                           policy={"deadline_seconds": 0.5})
...     result["solution"]["deleted_facts"]
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode_message,
)

__all__ = ["RETRYABLE_CODES", "ServeClient", "ServeError"]

#: Error codes worth retrying against the *same* server: the request
#: was fine, capacity was not.  ``draining`` is deliberately absent —
#: a draining server only gets further from ready.
RETRYABLE_CODES = ("overloaded", "circuit-open")


class ServeError(ReproError):
    """An error response from the server (carries its ``code`` and,
    on overload-class rejections, the server's ``retry_after_ms``
    backoff hint)."""

    def __init__(
        self, code: str, message: str, retry_after_ms: int | None = None
    ):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retry_after_ms = retry_after_ms


class ServeClient:
    """One connection to a :class:`~repro.serve.server.SolveServer`.

    ``retries``/``backoff_seconds``/``backoff_seed`` configure the
    overload retry loop (see the module docstring); the defaults —
    zero retries — keep every rejection immediately visible.
    """

    def __init__(
        self,
        sock: socket.socket,
        retries: int = 0,
        backoff_seconds: float = 0.05,
        backoff_seed: int | None = None,
        _sleep: Callable[[float], None] = time.sleep,
    ):
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 0
        self.retries = max(0, retries)
        self.backoff_seconds = backoff_seconds
        self.backoff_seed = backoff_seed
        self._sleep = _sleep

    @classmethod
    def connect(
        cls,
        address: str,
        timeout: float | None = 10.0,
        retries: int = 0,
        backoff_seconds: float = 0.05,
        backoff_seed: int | None = None,
    ) -> "ServeClient":
        """Connect to ``host:port`` or ``unix:<path>``."""
        if address.startswith("unix:"):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(address[len("unix:"):])
        else:
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise ProtocolError(
                    f"bad address {address!r}; expected host:port or "
                    "unix:<path>"
                )
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        return cls(
            sock,
            retries=retries,
            backoff_seconds=backoff_seconds,
            backoff_seed=backoff_seed,
        )

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Raw request/response
    # ------------------------------------------------------------------

    def request(self, message: Mapping[str, Any]) -> dict:
        """Send one request, block for its response, raise
        :class:`ServeError` on an error response.

        Overload-class rejections (:data:`RETRYABLE_CODES`) are retried
        up to ``self.retries`` times, honoring the server's
        ``retry_after_ms`` hint with seeded jitter.
        """
        rng = None
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(message)
            except ServeError as exc:
                if attempt >= self.retries or (
                    exc.code not in RETRYABLE_CODES
                ):
                    raise
                if rng is None:
                    rng = self._backoff_rng(message)
                self._sleep(self._backoff_delay(attempt, exc, rng))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, message: Mapping[str, Any]) -> dict:
        self._next_id += 1
        payload = dict(message)
        payload.setdefault("id", self._next_id)
        self._file.write(encode_message(payload))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES)
        if not line:
            raise ProtocolError("server closed the connection")
        response = decode_line(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            retry_after = error.get("retry_after_ms")
            raise ServeError(
                str(error.get("code", "unknown")),
                str(error.get("message", response)),
                retry_after_ms=(
                    int(retry_after)
                    if isinstance(retry_after, (int, float))
                    and not isinstance(retry_after, bool)
                    else None
                ),
            )
        return response

    def _backoff_rng(self, message: Mapping[str, Any]):
        """One jitter stream per logical request: seeded from the
        request shape (op + instance) via the same CRC-32 derivation
        the policy layer uses, so retry schedules reproduce across
        processes while distinct requests decorrelate."""
        from repro.core.resilience import SolvePolicy, derive_backoff_rng

        shape = "{}|{}".format(
            message.get("op", ""), message.get("instance", "")
        )
        return derive_backoff_rng(
            shape, SolvePolicy(), seed=self.backoff_seed
        )

    def _backoff_delay(self, attempt: int, exc: ServeError, rng) -> float:
        """Sleep before retry ``attempt + 1``: the server's hint (when
        present) or the exponential schedule, whichever is longer,
        stretched by up to 25% of seeded jitter."""
        base = self.backoff_seconds * (2.0 ** attempt)
        if exc.retry_after_ms is not None:
            base = max(base, exc.retry_after_ms / 1000.0)
        return base * (1.0 + 0.25 * rng.random())

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def health(self) -> dict:
        """The server's ``health`` block (readiness, watermarks, pool
        liveness, journal lag, segment counts, breaker states)."""
        return self.request({"op": "health"})["health"]

    def register(self, problem_doc: Mapping[str, Any]) -> str:
        """Register a problem document; returns its instance id."""
        return self.request(
            {"op": "register", "problem": dict(problem_doc)}
        )["instance"]

    def register_info(self, problem_doc: Mapping[str, Any]) -> dict:
        """Like :meth:`register` but returns the full response
        (``cached``, ``profile``)."""
        return self.request({"op": "register", "problem": dict(problem_doc)})

    def unregister(self, instance: str) -> None:
        self.request({"op": "unregister", "instance": instance})

    def solve(
        self,
        instance: str,
        deletions: Mapping[str, Sequence[Sequence[object]]],
        method: str | None = None,
        policy: Mapping[str, Any] | None = None,
        priority: int | None = None,
    ) -> dict:
        """Solve one ΔV request; returns the response document
        (``solution``, ``wall_seconds``, ``attempts``)."""
        message: dict[str, Any] = {
            "op": "solve",
            "instance": instance,
            "deletions": {
                name: [list(row) for row in rows]
                for name, rows in deletions.items()
            },
        }
        if method is not None:
            message["method"] = method
        if policy is not None:
            message["policy"] = dict(policy)
        if priority is not None:
            message["priority"] = priority
        return self.request(message)

    def solve_batch(
        self,
        instance: str,
        requests: Sequence[Mapping[str, Sequence[Sequence[object]]]],
        method: str | None = None,
        policy: Mapping[str, Any] | None = None,
    ) -> list[dict]:
        """Solve a batch in one round trip; returns per-request result
        documents (errors inline, never raising mid-batch)."""
        message: dict[str, Any] = {
            "op": "solve_batch",
            "instance": instance,
            "requests": [
                {
                    name: [list(row) for row in rows]
                    for name, rows in req.items()
                }
                for req in requests
            ],
        }
        if method is not None:
            message["method"] = method
        if policy is not None:
            message["policy"] = dict(policy)
        return self.request(message)["results"]

    def shutdown(
        self, mode: str = "now", drain_seconds: float | None = None
    ) -> dict:
        """Ask the server to stop.  ``mode="now"`` keeps the abrupt
        semantics; ``mode="drain"`` lets in-flight work finish under
        the drain budget first."""
        message: dict[str, Any] = {"op": "shutdown", "mode": mode}
        if drain_seconds is not None:
            message["drain_seconds"] = drain_seconds
        return self.request(message)
