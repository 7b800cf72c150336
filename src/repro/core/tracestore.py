"""Persistent solve-trace store — an observability log of dispatches.

Every dispatch through :func:`repro.core.registry.solve_report` appends
one compact JSON-lines record: the instance fingerprint, the structural
profile features the route table dispatched on, the route and method
that answered, and the per-stage timings (every forest-duel candidate
that ran included).  Nothing in the solver reads the records back;
they answer "which route, how slow" after the fact.

Design constraints, in order:

* **Recording must never break or slow solving.**  Appends are one
  buffered ``write`` + ``flush`` on a file opened in ``O_APPEND`` mode
  (atomic for sub-4KB lines on POSIX, so concurrent workers interleave
  whole records, never partial ones), and every filesystem error is
  swallowed — a read-only disk degrades to "no traces", not to a solve
  failure.
* **Bounded footprint.**  When the active file exceeds ``max_bytes``
  it rotates (``traces.jsonl`` → ``traces.1.jsonl`` …) and the oldest
  file past ``max_files`` is deleted.
* **Opt-out, not opt-in.**  Recording is on by default into
  ``$REPRO_TRACE_DIR`` (or a per-user directory under the system temp
  dir); ``REPRO_TRACE=off|0|false|no`` (or the CLI's ``--no-trace``)
  disables it.

Record schema (``v`` = :data:`SCHEMA_VERSION`)::

    {"v": 1, "ts": <unix seconds>, "instance": "<fingerprint>",
     "profile": {...StructureProfile fields...},
     "route": "forest-duel", "method": "auto:primal-dual",
     "seconds": 0.0012,
     "stages": [{"route": ..., "method": ..., "seconds": ...,
                 "objective": ..., "chosen": true}, ...],
     "attempts": 0}

:func:`validate_record` checks one parsed record against this schema
(CI asserts every line of every trace file passes it).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import SolveReport
    from repro.core.session import SolveSession

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_DIR_ENV",
    "TRACE_ENV",
    "TraceStore",
    "default_store",
    "record_from_report",
    "recording_enabled",
    "reset_default_store",
    "validate_record",
]

SCHEMA_VERSION = 1

#: ``off|0|false|no`` disables recording entirely.
TRACE_ENV = "REPRO_TRACE"
#: Directory holding the JSON-lines trace files.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_ACTIVE_NAME = "traces.jsonl"
_DEFAULT_MAX_BYTES = 4 * 1024 * 1024
_DEFAULT_MAX_FILES = 4

_REQUIRED_KEYS = ("v", "ts", "instance", "profile", "route", "method",
                  "seconds", "stages")
_STAGE_KEYS = ("route", "method", "seconds", "chosen")


def recording_enabled() -> bool:
    """Recording is on unless :data:`TRACE_ENV` says otherwise."""
    value = os.environ.get(TRACE_ENV, "").strip().lower()
    return value not in {"off", "0", "false", "no"}


def _default_directory() -> Path:
    configured = os.environ.get(TRACE_DIR_ENV)
    if configured:
        return Path(configured)
    uid = getattr(os, "getuid", lambda: "any")()
    return Path(tempfile.gettempdir()) / f"repro-traces-{uid}"


class TraceStore:
    """Append-only JSON-lines store with size-based rotation.

    One instance per directory is plenty (appends are cross-process
    safe); the module-level :func:`default_store` hands out a shared
    one wired to the environment.
    """

    def __init__(
        self,
        directory: str | Path,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        max_files: int = _DEFAULT_MAX_FILES,
    ):
        self.directory = Path(directory)
        self.max_bytes = int(max_bytes)
        self.max_files = max(1, int(max_files))
        self._lock = threading.Lock()
        self._handle = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @property
    def active_path(self) -> Path:
        return self.directory / _ACTIVE_NAME

    def _rotated_path(self, index: int) -> Path:
        return self.directory / f"traces.{index}.jsonl"

    def _open(self):
        if self._handle is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._handle = open(
                self.active_path, "a", encoding="utf-8", buffering=1
            )
        return self._handle

    def _rotate_locked(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        oldest = self._rotated_path(self.max_files - 1)
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_files - 2, 0, -1):
            source = self._rotated_path(index)
            if source.exists():
                source.replace(self._rotated_path(index + 1))
        if self.active_path.exists():
            self.active_path.replace(self._rotated_path(1))

    def append(self, record: Mapping[str, object]) -> bool:
        """Append one record; returns whether it was persisted.

        Filesystem failures are swallowed by design — recording is an
        observability side channel and must never turn a successful
        solve into an error.
        """
        try:
            line = json.dumps(record, separators=(",", ":"))
        except (TypeError, ValueError):
            return False
        try:
            with self._lock:
                handle = self._open()
                if (
                    self.max_bytes > 0
                    and handle.tell() + len(line) + 1 > self.max_bytes
                ):
                    self._rotate_locked()
                    handle = self._open()
                handle.write(line + "\n")
            return True
        except OSError:
            return False

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def paths(self) -> list[Path]:
        """Trace files, oldest first (so :meth:`records` is in rough
        append order)."""
        if not self.directory.is_dir():
            return []
        rotated = sorted(
            (
                path
                for path in self.directory.glob("traces.*.jsonl")
                if path.name != _ACTIVE_NAME
            ),
            key=lambda path: path.name,
            reverse=True,
        )
        out = list(rotated)
        if self.active_path.exists():
            out.append(self.active_path)
        return out

    def records(self) -> Iterator[dict]:
        """Every parseable record, oldest file first.  Torn or corrupt
        lines (e.g. from a crashed writer) are skipped, not fatal."""
        for path in self.paths():
            try:
                with open(path, encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = json.loads(line)
                        except ValueError:
                            continue
                        if isinstance(record, dict):
                            yield record
            except OSError:
                continue

    def clear(self) -> None:
        """Delete every trace file (the directory stays)."""
        self.close()
        for path in self.paths():
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:
        return f"TraceStore({str(self.directory)!r})"


# ----------------------------------------------------------------------
# Record construction / validation
# ----------------------------------------------------------------------


def record_from_report(
    session: "SolveSession", report: "SolveReport"
) -> dict:
    """The trace record of one dispatch (see the module docstring for
    the schema)."""
    import time

    from repro.core.session import profile_to_dict

    return {
        "v": SCHEMA_VERSION,
        "ts": round(time.time(), 3),
        "instance": session.trace_key,
        "profile": profile_to_dict(report.profile),
        "route": report.route,
        "method": report.propagation.method,
        "seconds": round(report.total_seconds(), 9),
        "stages": [stage.as_dict() for stage in report.trace],
        "attempts": len(report.attempts),
    }


def validate_record(record: object) -> list[str]:
    """Schema problems of one parsed record (empty list = valid)."""
    if not isinstance(record, dict):
        return ["record is not an object"]
    problems = [
        f"missing key {key!r}" for key in _REQUIRED_KEYS if key not in record
    ]
    if problems:
        return problems
    if record["v"] != SCHEMA_VERSION:
        problems.append(f"unknown schema version {record['v']!r}")
    if not isinstance(record["profile"], dict):
        problems.append("profile is not an object")
    if not isinstance(record["route"], str) or not record["route"]:
        problems.append("route is not a non-empty string")
    if not isinstance(record["method"], str) or not record["method"]:
        problems.append("method is not a non-empty string")
    if not isinstance(record["seconds"], (int, float)):
        problems.append("seconds is not a number")
    stages = record["stages"]
    if not isinstance(stages, list):
        problems.append("stages is not a list")
    else:
        for position, stage in enumerate(stages):
            if not isinstance(stage, dict):
                problems.append(f"stage #{position} is not an object")
                continue
            for key in _STAGE_KEYS:
                if key not in stage:
                    problems.append(f"stage #{position} missing {key!r}")
    return problems


# ----------------------------------------------------------------------
# The process-default store
# ----------------------------------------------------------------------

_DEFAULT_STORE: TraceStore | None = None
_DEFAULT_STORE_DIR: Path | None = None
_DEFAULT_LOCK = threading.Lock()


def default_store() -> TraceStore | None:
    """The environment-configured store, or ``None`` when recording is
    disabled.  Re-reads the environment on every call (cheap), so tests
    and the CLI can flip :data:`TRACE_ENV` / :data:`TRACE_DIR_ENV`
    without process restarts."""
    global _DEFAULT_STORE, _DEFAULT_STORE_DIR
    if not recording_enabled():
        return None
    directory = _default_directory()
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is None or _DEFAULT_STORE_DIR != directory:
            if _DEFAULT_STORE is not None:
                _DEFAULT_STORE.close()
            _DEFAULT_STORE = TraceStore(directory)
            _DEFAULT_STORE_DIR = directory
        return _DEFAULT_STORE


def reset_default_store() -> None:
    """Drop the cached default store (tests that redirect
    :data:`TRACE_DIR_ENV` mid-process call this)."""
    global _DEFAULT_STORE, _DEFAULT_STORE_DIR
    with _DEFAULT_LOCK:
        if _DEFAULT_STORE is not None:
            _DEFAULT_STORE.close()
        _DEFAULT_STORE = None
        _DEFAULT_STORE_DIR = None
