"""Service-level chaos harness for the solve service.

The serve tier now makes three promises that only hold under violence:
no acknowledged solve is ever lost, a journal replay restores the
registry a SIGKILL erased, and no ``/dev/shm`` segment outlives the
sequence.  This module is the violence: a deterministic driver that
boots *real* CLI server processes (``python -m repro.cli serve``),
arms one fault from :mod:`repro.core.faultinject` per leg, drives
traffic through :class:`~repro.serve.client.ServeClient`, and asserts
the invariants the docs claim.  Every leg also checks that the server
holds no shared-memory segment while it serves
(``no-segments-while-serving``): registration compiles in-process and
exports nothing.

Legs (each independent; ``run_leg`` returns a structured report):

``connection-drop``
    ``drop@serve-write:solve`` — the connection dies before any byte
    of one solve response leaves the server.  The client must see a
    clean failure, and a retry on a fresh connection must return the
    exact answer a fault-free run returns.
``partial-write``
    ``partial@serve-write:solve`` — half a response line reaches the
    wire, then the stream dies.  Same obligations as the drop leg; the
    client must not accept the torn line as an answer.
``batcher-death``
    ``transient@serve-batcher`` — the per-instance group-commit task
    dies mid-batch.  In-flight requests must fail loudly (``internal``)
    rather than hang, and the next solve must transparently respawn
    the loop and answer correctly.
``kill-restart``
    ``kill@journal-append`` — SIGKILL *between the two writes of one
    journal record*, the worst possible durability instant.  A restart
    against the same ``--state-dir`` must detect and heal the torn
    tail, replay every acknowledged registration bitwise (same content
    hash, byte-identical answers), and leave zero ``/dev/shm``
    segments behind.

Run from the command line (the CI chaos matrix does)::

    python -m repro.serve.chaos --leg kill-restart
    python -m repro.serve.chaos            # every leg, JSON report
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

__all__ = ["LEGS", "run_leg", "run_all"]

LEGS = (
    "connection-drop",
    "partial-write",
    "batcher-death",
    "kill-restart",
)

_SHM_DIR = Path("/dev/shm")


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


def _problem_doc(seed: int) -> dict:
    """A deterministic chain-shaped problem document (the fuzz
    generator's cases are seed-stable by contract)."""
    from repro.fuzz.generator import make_case
    from repro.io.serialize import problem_to_dict

    return problem_to_dict(make_case("chain", random.Random(seed)).problem)


def _canonical(solution_doc: dict) -> str:
    """Byte-comparable rendering of one solution document.

    The ``method`` label is excluded: it names the dispatch route
    (local solves record the resolved route, served solves echo the
    requested one), not the answer.  Everything that *is* the answer —
    deleted facts, collateral, feasibility, costs — stays bitwise.
    """
    doc = {k: v for k, v in solution_doc.items() if k != "method"}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=str)


def _local_answer(doc: dict) -> str:
    """The fault-free reference answer, computed in-process."""
    from repro.core.registry import solve
    from repro.io.serialize import problem_from_dict, solution_to_dict

    report = solve(problem_from_dict(doc), method="auto")
    return _canonical(solution_to_dict(report))


def _repro_segments() -> set[str]:
    """``repro_*`` entries currently in ``/dev/shm`` (empty set on
    platforms without it — the leak checks then assert vacuously)."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.glob("repro_*")}


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------


class _ServerProc:
    """One ``repro serve`` subprocess on a unix socket."""

    def __init__(
        self,
        workdir: Path,
        name: str,
        state_dir: Path | None = None,
        faults: str | None = None,
        fault_dir: Path | None = None,
    ):
        self.socket_path = workdir / f"{name}.sock"
        self.address = f"unix:{self.socket_path}"
        src_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        env.pop("REPRO_FAULTS", None)
        env.pop("REPRO_FAULT_DIR", None)
        if faults is not None:
            env["REPRO_FAULTS"] = faults
            if fault_dir is not None:
                fault_dir.mkdir(parents=True, exist_ok=True)
                env["REPRO_FAULT_DIR"] = str(fault_dir)
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--unix", str(self.socket_path),
            "--jobs", "0",
        ]
        if state_dir is not None:
            cmd += ["--state-dir", str(state_dir)]
        self.proc = subprocess.Popen(
            cmd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(workdir),
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.serve import ServeClient

        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                _, err = self.proc.communicate()
                raise RuntimeError(
                    f"server died during startup (rc={self.proc.returncode})"
                    f": {err.decode(errors='replace')[-2000:]}"
                )
            try:
                with ServeClient.connect(self.address, timeout=5.0) as c:
                    if c.ping():
                        return
            except Exception as exc:  # noqa: BLE001 - not up yet
                last = exc
                time.sleep(0.05)
        raise RuntimeError(f"server not ready within {timeout}s: {last!r}")

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)

    def wait(self, timeout: float = 30.0) -> int:
        self.proc.communicate(timeout=timeout)
        return self.proc.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """Best-effort clean stop; returns the exit code."""
        if self.proc.poll() is None:
            try:
                from repro.serve import ServeClient

                with ServeClient.connect(self.address, timeout=5.0) as c:
                    c.shutdown()
            except Exception:  # noqa: BLE001 - already dying is fine
                self.proc.terminate()
        try:
            return self.wait(timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            return self.wait(timeout)


# ----------------------------------------------------------------------
# Leg implementations
# ----------------------------------------------------------------------


class _Leg:
    """Check accumulator: every invariant lands in the report, and the
    leg is ``ok`` only when all of them hold."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[dict[str, Any]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})
        return bool(ok)

    def report(self) -> dict[str, Any]:
        return {
            "leg": self.name,
            "ok": all(c["ok"] for c in self.checks),
            "checks": self.checks,
        }


def _expect_connection_death(fn: Callable[[], Any]) -> bool:
    """True when ``fn`` fails the way a severed connection should —
    never by returning a truncated answer as if it were whole."""
    from repro.errors import ReproError

    try:
        fn()
    except (ReproError, OSError, ValueError):
        return True
    return False


def _solve_canonical(client, instance: str, deletions: dict) -> str:
    return _canonical(client.solve(instance, deletions)["solution"])


def _check_no_segments(leg: _Leg, client) -> None:
    """Call after a register and a solve: the server exports nothing."""
    segments = client.health()["segments"]
    leg.check("no-segments-while-serving", segments["active"] == 0,
              str(segments))


def _leg_wire_fault(leg: _Leg, workdir: Path, seed: int, mode: str) -> None:
    """Shared body of the connection-drop and partial-write legs."""
    from repro.serve import ServeClient

    doc = _problem_doc(seed)
    expected = _local_answer(doc)
    before = _repro_segments()
    server = _ServerProc(
        workdir, leg.name,
        state_dir=workdir / "state",
        faults=f"{mode}@serve-write:solve:1",
        fault_dir=workdir / "markers",
    )
    try:
        server.wait_ready()
        with ServeClient.connect(server.address) as client:
            instance = client.register(doc)
        with ServeClient.connect(server.address) as client:
            leg.check(
                "response-severed",
                _expect_connection_death(
                    lambda: client.solve(instance, doc["deletions"])
                ),
                "the faulted solve must fail loudly, not return a "
                "truncated answer",
            )
        with ServeClient.connect(server.address) as client:
            leg.check(
                "retry-answer-exact",
                _solve_canonical(client, instance, doc["deletions"])
                == expected,
                "a fresh connection must get the fault-free answer",
            )
            _check_no_segments(leg, client)
            leg.check("still-ready", client.health()["ready"])
        rc = server.stop()
        leg.check("clean-exit", rc == 0, f"exit code {rc}")
    finally:
        if server.proc.poll() is None:  # pragma: no cover - on failure
            server.proc.kill()
            server.wait()
    leaked = _repro_segments() - before
    leg.check("zero-leaked-segments", not leaked, f"leaked: {sorted(leaked)}")


def _leg_batcher_death(leg: _Leg, workdir: Path, seed: int) -> None:
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    doc = _problem_doc(seed)
    expected = _local_answer(doc)
    before = _repro_segments()
    server = _ServerProc(
        workdir, leg.name,
        state_dir=workdir / "state",
        faults="transient@serve-batcher:*:1",
        fault_dir=workdir / "markers",
    )
    try:
        server.wait_ready()
        with ServeClient.connect(server.address) as client:
            instance = client.register(doc)
            try:
                client.solve(instance, doc["deletions"])
                leg.check("batch-failed-loudly", False,
                          "the injected batcher death produced an answer")
            except ServeError as exc:
                leg.check(
                    "batch-failed-loudly", exc.code == "internal",
                    f"got code {exc.code!r}",
                )
            leg.check(
                "respawned-answer-exact",
                _solve_canonical(client, instance, doc["deletions"])
                == expected,
                "the next solve must respawn the group-commit loop",
            )
            _check_no_segments(leg, client)
            pool = client.health()["pool"]
            leg.check(
                "batcher-alive",
                pool["batchers_alive"] >= 1,
                str(pool),
            )
        rc = server.stop()
        leg.check("clean-exit", rc == 0, f"exit code {rc}")
    finally:
        if server.proc.poll() is None:  # pragma: no cover - on failure
            server.proc.kill()
            server.wait()
    leaked = _repro_segments() - before
    leg.check("zero-leaked-segments", not leaked, f"leaked: {sorted(leaked)}")


def _leg_kill_restart(leg: _Leg, workdir: Path, seed: int) -> None:
    from repro.serve import ServeClient

    doc_a = _problem_doc(seed)
    doc_b = _problem_doc(seed + 1)
    state = workdir / "state"
    before = _repro_segments()

    # Phase 1: a clean server durably registers A and answers.
    server1 = _ServerProc(workdir, "kill-phase1", state_dir=state)
    try:
        server1.wait_ready()
        with ServeClient.connect(server1.address) as client:
            instance = client.register(doc_a)
            answer1 = _solve_canonical(client, instance, doc_a["deletions"])
        rc = server1.stop()
        leg.check("phase1-clean-exit", rc == 0, f"exit code {rc}")
    finally:
        if server1.proc.poll() is None:  # pragma: no cover - on failure
            server1.proc.kill()
            server1.wait()

    # Phase 2: an armed server replays A, then dies by SIGKILL between
    # the two writes of B's journal record — the torn-tail instant.
    server2 = _ServerProc(
        workdir, "kill-phase2",
        state_dir=state,
        faults="kill@journal-append:*:1",
        fault_dir=workdir / "markers",
    )
    try:
        server2.wait_ready()
        with ServeClient.connect(server2.address) as client:
            health = client.health()
            leg.check(
                "phase2-replayed",
                health["journal"]["replayed"] == 1,
                str(health["journal"]),
            )
            leg.check(
                "phase2-answer-exact",
                _solve_canonical(client, instance, doc_a["deletions"])
                == answer1,
                "the replayed instance must answer byte-identically",
            )
            leg.check(
                "register-killed-mid-append",
                _expect_connection_death(lambda: client.register(doc_b)),
                "the SIGKILL lands before the registration is "
                "acknowledged",
            )
        rc = server2.wait()
        leg.check(
            "phase2-sigkilled", rc == -signal.SIGKILL, f"exit code {rc}"
        )
    finally:
        if server2.proc.poll() is None:  # pragma: no cover - on failure
            server2.proc.kill()
            server2.wait()

    journal_bytes = (state / "registrations.jsonl").read_bytes()
    leg.check(
        "torn-tail-on-disk",
        bool(journal_bytes) and not journal_bytes.endswith(b"\n"),
        f"journal ends with {journal_bytes[-20:]!r}",
    )

    # Phase 3: restart against the same state dir — heal, replay,
    # verify, and take the registration the kill swallowed.
    server3 = _ServerProc(workdir, "kill-phase3", state_dir=state)
    try:
        server3.wait_ready()
        with ServeClient.connect(server3.address) as client:
            health = client.health()
            leg.check(
                "phase3-torn-tail-healed",
                health["journal"]["torn_records"] >= 1,
                str(health["journal"]),
            )
            leg.check(
                "phase3-replayed-acknowledged-only",
                health["journal"]["replayed"] == 1,
                "the torn (unacknowledged) registration must not "
                "resurrect",
            )
            leg.check(
                "phase3-answer-exact",
                _solve_canonical(client, instance, doc_a["deletions"])
                == answer1,
                "acknowledged state survives SIGKILL bitwise",
            )
            _check_no_segments(leg, client)
            info = client.register_info(doc_b)
            leg.check(
                "phase3-reregister-lost",
                info["cached"] is False,
                "B was never acknowledged, so it registers fresh",
            )
        rc = server3.stop()
        leg.check("phase3-clean-exit", rc == 0, f"exit code {rc}")
    finally:
        if server3.proc.poll() is None:  # pragma: no cover - on failure
            server3.proc.kill()
            server3.wait()

    leaked = _repro_segments() - before
    leg.check("zero-leaked-segments", not leaked, f"leaked: {sorted(leaked)}")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_leg(name: str, workdir: str | os.PathLike, seed: int = 6) -> dict:
    """Run one chaos leg in ``workdir``; returns its report dict."""
    if name not in LEGS:
        raise ValueError(f"unknown chaos leg {name!r}; known: {list(LEGS)}")
    base = Path(workdir) / name
    base.mkdir(parents=True, exist_ok=True)
    leg = _Leg(name)
    if name == "connection-drop":
        _leg_wire_fault(leg, base, seed, "drop")
    elif name == "partial-write":
        _leg_wire_fault(leg, base, seed, "partial")
    elif name == "batcher-death":
        _leg_batcher_death(leg, base, seed)
    else:
        _leg_kill_restart(leg, base, seed)
    return leg.report()


def run_all(workdir: str | os.PathLike, seed: int = 6) -> dict:
    """Run every leg; returns ``{"ok": bool, "legs": [report, ...]}``."""
    reports = [run_leg(name, workdir, seed) for name in LEGS]
    return {"ok": all(r["ok"] for r in reports), "legs": reports}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="service-level chaos harness for the solve service",
    )
    parser.add_argument("--leg", choices=LEGS, default=None,
                        help="run one leg (default: all)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--seed", type=int, default=6)
    args = parser.parse_args(argv)

    import tempfile

    if args.workdir is not None:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        report = (
            run_leg(args.leg, workdir, args.seed)
            if args.leg else run_all(workdir, args.seed)
        )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report = (
                run_leg(args.leg, tmp, args.seed)
                if args.leg else run_all(tmp, args.seed)
            )
    json.dump(report, sys.stdout, indent=2)
    print()
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
