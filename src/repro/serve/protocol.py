"""Wire protocol of the solve service: newline-delimited JSON.

One request per line, one response per line, UTF-8, no framing beyond
``\\n`` — the format survives ``nc``/``socat`` debugging and needs no
dependency.  Every request is an object with an ``op`` field; every
response carries ``ok`` plus either the op's payload or an ``error``
object ``{"code", "message"}``.  A request may carry an ``id`` of any
JSON type; it is echoed verbatim on the response so clients can
pipeline requests over one connection and match answers by id.

Operations (see :class:`repro.serve.server.SolveServer` for semantics):

``register``
    ``{"op": "register", "problem": <problem document>}`` →
    ``{"ok": true, "instance": <hash>, "cached": bool,
    "profile": {...}}``
``solve``
    ``{"op": "solve", "instance": <hash>, "deletions": {view: [row..]},
    "method"?: str, "policy"?: <policy doc>}`` →
    ``{"ok": true, "solution": {...}, "wall_seconds": float,
    "attempts": [...]}``
``solve_batch``
    Same, with ``"requests": [<deletions>, ...]`` and a ``"results"``
    array (one entry per request, errors inline).
``health``
    ``{"op": "health"}`` → readiness/draining flags, batcher
    liveness, journal lag, active shared-memory segment count,
    per-route circuit-breaker states, and in-flight watermarks.
``shutdown``
    ``{"op": "shutdown", "mode"?: "now"|"drain"}``.  ``now`` (the
    default) keeps the abrupt semantics: pending work gets
    ``shutting-down`` errors.  ``drain`` flips the server to draining
    (new solves rejected with code ``draining``, readiness false),
    lets in-flight batches finish under the drain budget, then closes.
``stats`` / ``ping`` / ``unregister``
    Introspection and lifecycle.

``solve`` requests may carry an integer ``"priority"`` (default 0).
Under overload the server sheds load in tiers: past the *soft*
watermark only policy-less requests with priority <= 0 are rejected;
past the hard watermark everything is.  Overload rejections use code
``overloaded`` and carry a ``retry_after_ms`` hint in the error object
that :class:`repro.serve.client.ServeClient` honors with seeded
jittered backoff.

The policy document mirrors
:meth:`repro.core.resilience.SolvePolicy.as_dict`; absent fields take
the dataclass defaults, so ``{"deadline_seconds": 0.5}`` is a complete
contract.  A field of the wrong type or range is a ``bad-request``
(see :func:`policy_from_doc`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Mapping

from repro.errors import ReproError

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "decode_line",
    "encode_message",
    "error_response",
    "policy_from_doc",
    "policy_to_doc",
]

#: Upper bound on one request/response line.  Problem documents ride
#: inside ``register`` requests, so the bound is sized for instances,
#: not pings (64 MiB ≈ a few million facts as JSON).
MAX_LINE_BYTES = 64 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed request or response line."""


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to its wire line (compact JSON + ``\\n``)."""
    return (
        json.dumps(message, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one wire line into a message dict."""
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable request line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def error_response(
    code: str, message: str, request_id: Any = None, **extra: Any
) -> dict:
    """An error response document.  ``extra`` fields land inside the
    error object (e.g. ``retry_after_ms`` on ``overloaded``/``draining``
    rejections, so clients can back off intelligently)."""
    error: dict[str, Any] = {"code": code, "message": message}
    error.update(extra)
    response: dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        response["id"] = request_id
    return response


def policy_to_doc(policy) -> dict | None:
    """``SolvePolicy`` → wire document (``None`` stays ``None``)."""
    return None if policy is None else policy.as_dict()


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _check_number(
    name: str, value: Any, kinds: Any = (int, float), positive: bool = False
) -> None:
    """Reject a policy value that is not a finite ``>= 0`` (or, with
    ``positive``, ``> 0``) instance of ``kinds``; bools never pass.
    ``json.loads`` accepts ``NaN``, and a NaN deadline never expires;
    it also accepts integers too large for a float, which would
    overflow once the solve turns them into seconds."""
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or not _finite(value)
        or (value <= 0 if positive else value < 0)
    ):
        what = "an integer" if kinds is int else "a finite number"
        bound = "> 0" if positive else ">= 0"
        raise ProtocolError(
            f"policy {name!r} must be {what} {bound}, got {value!r}"
        )


def policy_from_doc(doc: Mapping[str, Any] | None):
    """Wire document → ``SolvePolicy`` (``None``/``{}`` → no policy).

    Unknown fields are rejected rather than ignored — a client that
    misspells ``deadline_seconds`` should hear about it, not run
    unbounded — and so is every value of the wrong type or range:
    ``deadline_seconds`` is a finite number > 0 or null, ``retries`` an
    integer >= 0, each ``backoff_*`` a finite number >= 0, and
    ``fallback`` a method name (comma-separated) or a list of names.
    """
    if doc is None:
        return None
    if not isinstance(doc, Mapping):
        raise ProtocolError(
            f"'policy' must be an object, got {type(doc).__name__}"
        )
    if not doc:
        return None
    from repro.core.resilience import SolvePolicy, parse_fallback

    known = {field.name for field in dataclasses.fields(SolvePolicy)}
    unknown = set(doc) - known
    if unknown:
        raise ProtocolError(
            f"unknown policy field(s) {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )
    fields = dict(doc)
    if fields.get("deadline_seconds") is not None:
        _check_number(
            "deadline_seconds", fields["deadline_seconds"], positive=True
        )
    if "retries" in fields:
        _check_number("retries", fields["retries"], kinds=int)
    for name in ("backoff_seconds", "backoff_factor", "backoff_jitter"):
        if name in fields:
            _check_number(name, fields[name])
    if "fallback" in fields:
        fallback = fields["fallback"]
        if not isinstance(fallback, str) and not (
            isinstance(fallback, list)
            and all(isinstance(method, str) for method in fallback)
        ):
            raise ProtocolError(
                "policy 'fallback' must be a string or a list of "
                f"strings, got {fallback!r}"
            )
        fields["fallback"] = parse_fallback(fallback)
    return SolvePolicy(**fields)
