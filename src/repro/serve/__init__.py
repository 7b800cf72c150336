"""Long-lived solve service over the resident witness arena.

``repro.serve`` is the request front door for the compile-once
solve-many layout: a stdlib-only asyncio server speaking newline-
delimited JSON over TCP or a unix socket.  Instances are registered
once by content hash (:func:`repro.core.shm.document_hash`) and
compiled into a resident :class:`~repro.core.session.SolveSession`;
every subsequent ΔV request is an O(‖ΔV‖) rebind against the resident
arena — no parsing, no view materialization, no recompilation.

Each request is admitted under the :class:`~repro.core.resilience
.SolvePolicy` contract (deadline / retries / fallback chain) and
executed in-process through :func:`repro.core.portfolio
.run_delta_batch`; the supervised worker pool stays a library and CLI
tool (``solve --portfolio``), not a serve path.  See
:mod:`repro.serve.server` for the batching and admission rules,
:mod:`repro.serve.journal` for the crash-safe registration journal,
and :mod:`repro.serve.chaos` for the service-level chaos harness that
keeps both honest.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.journal import (
    JournalError,
    JournalRecord,
    RegistrationJournal,
)
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode_message,
    policy_from_doc,
    policy_to_doc,
)
from repro.serve.server import Rejection, ServeStats, SolveServer

__all__ = [
    "JournalError",
    "JournalRecord",
    "ProtocolError",
    "RegistrationJournal",
    "Rejection",
    "ServeClient",
    "ServeError",
    "ServeStats",
    "SolveServer",
    "decode_line",
    "encode_message",
    "policy_from_doc",
    "policy_to_doc",
]
