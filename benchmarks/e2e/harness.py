"""Process, connection and load-loop plumbing of the end-to-end bench.

Everything here talks to a real ``repro serve`` process over a unix
socket; nothing imports the server in-process.  The bench process is
the only client: at most two load connections, each driven by one
closed-loop thread.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.serve.protocol import decode_line, encode_message

#: The checkout root: the bench runs from here and keeps every file it
#: writes under :data:`RUNS_DIR`.
ROOT = Path(__file__).resolve().parents[2]
RUNS_DIR = ROOT / ".e2e_runs"
_SHM_DIR = Path("/dev/shm")
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Environment knobs of the program that would change what a run
#: measures (router choice, fault injection, ILP gate, trace store).
_SCRUBBED_PREFIX = "REPRO_"


class BenchError(RuntimeError):
    """The run could not be measured (server died, leaked a segment,
    timed out); the bench exits non-zero without a result line."""


def clean_env() -> dict[str, str]:
    """The environment every server starts from: inherited ``REPRO_*``
    variables removed, this checkout's ``src`` first on the path, and a
    fixed hash seed so set and dict iteration — and with it the work a
    request does — is the same on every run."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(_SCRUBBED_PREFIX)
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def shm_entries() -> set[str]:
    """Every entry currently in ``/dev/shm``.  A run compares the sets
    before and after its server: any new name is a leaked segment,
    whatever it is called."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.iterdir()}


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve --unix ... --jobs 2`` process in its own run
    directory (socket, trace store and log all live there).

    ``spans_dir`` starts it through ``traced_server.py`` instead, which
    dumps per-layer spans into that directory when the server exits.
    """

    def __init__(self, workdir: Path, spans_dir: Path | None = None):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        # Relative to ROOT (both processes run there): a unix socket
        # path is limited to ~100 bytes, a checkout path is not.
        self.socket_path = os.path.relpath(workdir / "s.sock", ROOT)
        env = clean_env()
        env["REPRO_TRACE_DIR"] = str(workdir / "traces")
        # Two pool workers: one per core of the 2-core target machine.
        serve = ["serve", "--unix", self.socket_path, "--jobs", "2"]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [
                sys.executable,
                str(Path(__file__).with_name("traced_server.py")),
                "--spans-dir", str(spans_dir), *serve,
            ]
        self._log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 60.0) -> None:
        """Block until the server prints its ``listening`` line."""
        deadline = time.monotonic() + timeout
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"server not listening after {timeout}s")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise BenchError(
                    f"server exited during startup: {self.log_tail()}"
                )
            if line.startswith(b"repro serve: listening"):
                return

    def connect(self, timeout: float = 120.0) -> "Connection":
        return Connection(self.socket_path, timeout)

    def cpu_seconds(self) -> float:
        """utime + stime of the server plus its reaped children (the
        pool workers of finished batches)."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return sum(int(value) for value in fields[11:15]) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """Shut the server down through its own ``shutdown`` op and wait
        for the process (and so its pool workers) to end."""
        try:
            if self.proc.poll() is None:
                try:
                    with self.connect(timeout=10.0) as conn:
                        conn.call({"op": "shutdown"})
                except OSError:
                    self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout)
                    raise BenchError("server ignored shutdown; killed")
        finally:
            self.proc.stdout.close()
            self._log.close()

    def log_tail(self, limit: int = 2000) -> str:
        self._log.flush()
        text = (self.workdir / "server.log").read_bytes()
        return text[-limit:].decode(errors="replace")


# ----------------------------------------------------------------------
# Connections
# ----------------------------------------------------------------------


class Connection:
    """One unix-socket connection speaking the JSON-lines protocol with
    the program's own :func:`encode_message` / :func:`decode_line`."""

    def __init__(self, path: str, timeout: float):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(path)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    @staticmethod
    def encode(message: dict) -> tuple[bytes, int]:
        """``(wire line, encode time in ns)``."""
        start = time.perf_counter_ns()
        data = encode_message(message)
        return data, time.perf_counter_ns() - start

    def write(self, data: bytes) -> None:
        self._wfile.write(data)
        self._wfile.flush()

    def send(self, message: dict) -> int:
        """Write one request; returns the encode time in ns."""
        data, encode_ns = self.encode(message)
        self.write(data)
        return encode_ns

    def receive(self) -> tuple[dict, int, int]:
        """Read one response: ``(message, arrival_ns, decode_ns)``."""
        line = self._rfile.readline()
        arrival = time.perf_counter_ns()
        if not line:
            raise BenchError("server closed the connection")
        message = decode_line(line)
        return message, arrival, time.perf_counter_ns() - arrival

    def call(self, message: dict) -> dict:
        self.send(message)
        return self.receive()[0]

    def close(self) -> None:
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One ``solve`` request as the client saw it.

    ``latency_ns`` runs from the start of the send to the decoded
    response.  ``check`` is ``(instance key, ΔV request, served facts)``
    when the request was picked for the correctness sample.
    """

    rid: int
    latency_ns: int
    encode_ns: int
    decode_ns: int
    failed: bool
    route: str = ""
    check: tuple | None = None


def served_facts(solution: dict) -> list:
    """The served ``deleted_facts`` in canonical comparable form."""
    return [
        [fact["relation"], fact["values"]]
        for fact in solution["deleted_facts"]
    ]


def sample_from_response(
    rid: int,
    response: dict,
    request: dict,
    check_key,
    sampled: bool,
    latency_ns: int,
    encode_ns: int,
    decode_ns: int,
) -> Sample:
    """Turn one ``solve`` response into a :class:`Sample`.

    ``request`` is the ΔV mapping the message carried; when ``sampled``,
    the answer is kept with ``check_key`` for the local re-solve.
    """
    if (not response.get("ok") or response.get("error")
            or "solution" not in response):
        return Sample(rid, latency_ns, encode_ns, decode_ns, True)
    check = ((check_key, request, served_facts(response["solution"]))
             if sampled else None)
    return Sample(rid, latency_ns, encode_ns, decode_ns, False,
                  response.get("route") or "unrouted", check)


class RequestIds:
    """Request ids unique across every connection of one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 0

    def __call__(self) -> int:
        with self._lock:
            self._next += 1
            return self._next


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------


def run_threads(targets: list, timeout: float) -> None:
    """Run each callable on its own thread; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # reported to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(target,), daemon=True)
        for target in targets
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise BenchError(f"load thread still running after {timeout}s")
    if errors:
        raise errors[0]


def closed_pass(clients: list, seconds: float) -> tuple[float, list[Sample]]:
    """One closed-loop pass: every client callable runs its
    send-wait-receive loop until ``seconds`` elapse (finishing the
    request in flight).  Returns ``(wall_seconds, samples)``."""
    samples: list[Sample] = []
    start = time.perf_counter()
    deadline = start + seconds
    run_threads(
        [lambda client=client: client(deadline, samples.append)
         for client in clients],
        timeout=seconds + 150.0,
    )
    return time.perf_counter() - start, samples
