"""Durable registration journal for the solve service.

The serve layer's resident instances (parsed document, compiled arena,
cached profile) live in process memory: a SIGKILL
used to erase them all, and every client had to re-register after a
restart.  This module makes registration *durable*: every successful
``register`` appends one JSON record to an append-only journal under
the server's ``--state-dir`` and ``fsync``\\ s it before the client
hears ``ok`` — the acknowledgement **is** the durability point.  On
startup the server replays the journal (re-parse, re-compile) so a
killed server restarts with its instances warm, and each replayed
instance is verified bitwise against its pre-crash record via the
recorded content hash.

Design notes, in the order they matter:

* **Torn tails are normal, not corruption.**  A SIGKILL can land
  between the two ``write`` calls of one record (the chaos harness
  injects exactly that via the ``journal-append`` fault site).  Replay
  therefore treats an unparseable *final* line as a torn append of a
  registration that was never acknowledged, and drops it silently;
  an unparseable line in the *middle* of the journal is real
  corruption and raises :class:`JournalError`.
* **Compaction over rotation-only.**  ``unregister`` appends a
  tombstone rather than rewriting the file (append-only survives
  crashes; in-place rewrites do not).  Once the live file exceeds
  ``max_bytes`` — or on every clean startup replay — the journal is
  *compacted*: the live registration set is written to a temp file,
  fsynced, and atomically renamed over the old journal (the previous
  file is kept as one ``.1`` generation for post-mortems).
* **Stale segment reaping.**  Records written by older servers, which
  exported each registration to shared memory, carry the segment
  names they exported.  A killed server never ran its finalizers, so
  those ``/dev/shm`` entries outlive it; replay unlinks every recorded
  name.  Current servers export nothing at registration, so their
  records name no segment.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "JournalError",
    "JournalRecord",
    "RegistrationJournal",
]

#: Journal format tag, bumped on incompatible record changes.
FORMAT = "repro-journal/1"

_JOURNAL_NAME = "registrations.jsonl"
_ROTATED_NAME = "registrations.jsonl.1"


class JournalError(ReproError):
    """An unusable journal: mid-file corruption, a foreign format tag,
    or a replay whose re-registration diverged from the recorded
    content hash."""


@dataclass(frozen=True)
class JournalRecord:
    """One journal line.

    ``op`` is ``"register"`` or ``"unregister"``.  Registrations carry
    the *canonical* problem document (the bytes the content hash is
    computed over — re-serialization drift cannot change identity on
    replay), the structure profile, and the registration options in
    force.  ``segments`` is read from records written by older,
    exporting servers, so replay can reap what they left behind.
    """

    op: str
    instance: str
    problem: Mapping[str, Any] | None = None
    profile: Mapping[str, Any] | None = None
    options: Mapping[str, Any] = field(default_factory=dict)
    segments: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "v": 1,
            "op": self.op,
            "instance": self.instance,
        }
        if self.op == "register":
            doc["problem"] = dict(self.problem or {})
            doc["profile"] = (
                dict(self.profile) if self.profile is not None else None
            )
            doc["options"] = dict(self.options)
            doc["segments"] = list(self.segments)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "JournalRecord":
        op = doc.get("op")
        instance = doc.get("instance")
        if op not in ("register", "unregister") or not isinstance(
            instance, str
        ):
            raise JournalError(f"malformed journal record: {dict(doc)!r}")
        if op == "unregister":
            return cls(op=op, instance=instance)
        problem = doc.get("problem")
        if not isinstance(problem, dict):
            raise JournalError(
                f"register record for {instance} has no problem document"
            )
        return cls(
            op=op,
            instance=instance,
            problem=problem,
            profile=doc.get("profile"),
            options=dict(doc.get("options") or {}),
            segments=tuple(doc.get("segments") or ()),
        )


def _encode(record: JournalRecord) -> bytes:
    return (
        json.dumps(record.as_dict(), separators=(",", ":"), default=str)
        + "\n"
    ).encode("utf-8")


class RegistrationJournal:
    """Append-only, fsync-on-append registration journal (see the
    module docstring for the durability and compaction contract).

    Not thread-safe by itself: the server serializes appends through
    its registration path (``asyncio.to_thread`` calls are funneled
    through one event loop's op handlers; the CLI preload runs before
    serving starts).
    """

    def __init__(self, state_dir: str | os.PathLike, max_bytes: int = 64 * 1024 * 1024):
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.state_dir / _JOURNAL_NAME
        self.rotated_path = self.state_dir / _ROTATED_NAME
        self.max_bytes = max_bytes
        #: Lifetime counters for the ``health`` surface.
        self.appends = 0
        self.compactions = 0
        self.torn_records = 0
        self.replayed = 0
        # Open lazily so a replay-then-compact startup never holds a
        # handle to a file it is about to rename away.
        self._handle = None

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _file(self):
        if self._handle is None or self._handle.closed:
            # Drop any torn tail left by a crash mid-append before new
            # records land after it — the torn fragment was never
            # acknowledged, and truncation keeps every *complete* line
            # a whole record (so replay can treat unparseable middle
            # lines as real corruption, not a fused fragment).
            if self.path.exists():
                with open(self.path, "rb") as probe:
                    data = probe.read()
                if data and not data.endswith(b"\n"):
                    keep = data.rfind(b"\n") + 1
                    with open(self.path, "r+b") as fixer:
                        fixer.truncate(keep)
                        fixer.flush()
                        os.fsync(fixer.fileno())
                    self.torn_records += 1
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: JournalRecord) -> None:
        """Durably append one record: write, flush, ``fsync`` — the
        caller may acknowledge the registration once this returns.

        The ``journal-append`` fault site lives *between two writes of
        one record*: under an armed ``kill``/``crash`` spec the first
        half of the encoded line reaches the file (and disk), then the
        process dies — exactly the torn-tail shape replay must absorb.
        """
        from repro.core.faultinject import inject_action

        line = _encode(record)
        handle = self._file()
        action = inject_action("journal-append", record.instance)
        if action in ("kill", "crash"):
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
            os.fsync(handle.fileno())
            if action == "kill":
                import signal

                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
        self.appends += 1
        if self.path.stat().st_size > self.max_bytes:
            self.compact()

    def append_register(
        self,
        instance: str,
        problem: Mapping[str, Any],
        profile: Mapping[str, Any] | None,
        options: Mapping[str, Any] | None = None,
    ) -> None:
        self.append(
            JournalRecord(
                op="register",
                instance=instance,
                problem=problem,
                profile=profile,
                options=dict(options or {}),
            )
        )

    def append_unregister(self, instance: str) -> None:
        self.append(JournalRecord(op="unregister", instance=instance))

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _read_records(self) -> list[JournalRecord]:
        if not self.path.exists():
            return []
        records: list[JournalRecord] = []
        with open(self.path, "rb") as handle:
            raw_lines = handle.read().split(b"\n")
        # A well-formed journal ends with a newline, so the final split
        # element is empty; anything else is a torn tail candidate.
        body, tail = raw_lines[:-1], raw_lines[-1]
        for number, raw in enumerate(body, 1):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw)
                if not isinstance(doc, dict):
                    raise ValueError("record is not an object")
                record = JournalRecord.from_dict(doc)
            except (ValueError, JournalError) as exc:
                raise JournalError(
                    f"{self.path}:{number}: corrupt journal record "
                    f"({exc})"
                ) from exc
            records.append(record)
        if tail.strip():
            # Bytes after the last newline: the classic torn append.
            self.torn_records += 1
        return records

    def replay(self) -> list[JournalRecord]:
        """The live registration set, in first-registration order.

        Applies tombstones (a later ``unregister`` removes the earlier
        registration; a later re-``register`` of the same instance
        wins), tolerates a torn tail, and raises :class:`JournalError`
        on mid-file corruption.
        """
        live: dict[str, JournalRecord] = {}
        for record in self._read_records():
            if record.op == "register":
                live[record.instance] = record
            else:
                live.pop(record.instance, None)
        self.replayed = len(live)
        return list(live.values())

    def reap_stale_segments(
        self, records: Iterable[JournalRecord]
    ) -> list[str]:
        """Unlink every ``/dev/shm`` segment recorded by ``records``.

        A SIGKILLed server never unlinked its exports; on restart they
        are orphans no process can attach correctly (the manifest died
        with the owner).  Returns the names actually removed.  Safe
        after a clean shutdown: the names simply no longer exist.
        """
        from multiprocessing import shared_memory

        reaped: list[str] = []
        for record in records:
            for name in record.segments:
                try:
                    segment = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    continue
                except OSError:  # pragma: no cover - exotic /dev/shm state
                    continue
                try:
                    segment.unlink()
                finally:
                    segment.close()
                reaped.append(name)
        return reaped

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def compact(self, live: list[JournalRecord] | None = None) -> None:
        """Rewrite the journal as exactly the live registration set.

        Crash-safe: the snapshot is written to a temp file in the same
        directory, fsynced, and atomically renamed over the live
        journal; the previous journal survives as one ``.1``
        generation.  A crash at any point leaves either the old or the
        new journal fully intact.
        """
        if live is None:
            live = self.replay()
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
        tmp_path = self.path.with_suffix(".jsonl.tmp")
        with open(tmp_path, "wb") as handle:
            for record in live:
                handle.write(_encode(record))
            handle.flush()
            os.fsync(handle.fileno())
        if self.path.exists():
            os.replace(self.path, self.rotated_path)
        os.replace(tmp_path, self.path)
        # Make both renames durable before reporting the compaction.
        dir_fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def lag(self) -> dict[str, object]:
        """The ``health`` op's journal block: how far the append-only
        file has drifted from its compacted form."""
        size = self.path.stat().st_size if self.path.exists() else 0
        return {
            "path": str(self.path),
            "bytes": size,
            "max_bytes": self.max_bytes,
            "appends": self.appends,
            "compactions": self.compactions,
            "torn_records": self.torn_records,
            "replayed": self.replayed,
        }

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None
