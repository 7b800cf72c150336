"""``repro serve`` with per-layer spans recorded from outside ``src/``.

Usage (the bench starts it; it takes the ``repro.cli`` argument list)::

    python benchmarks/e2e/traced_server.py --spans-dir DIR \\
        serve --unix PATH --jobs 2

Before handing control to :func:`repro.cli.main`, this launcher wraps
the public functions of each layer at the module (or class) attribute
its caller resolves at call time, so the program runs unmodified apart
from the timing calls.  A span is ``[id, parent, name, t0_ns, t1_ns,
request_id, attrs]`` on the system-wide monotonic clock
(``perf_counter_ns``), so spans from the bench, the server and its pool
workers line up.  Spans stay in memory; the server process writes
``spans-main-<pid>.json`` when ``repro.cli.main`` returns, and every
pool worker (forked from the server, so it inherits the wrappers)
writes ``spans-worker-<pid>.json`` when it exits normally.
"""

from __future__ import annotations

import argparse
import contextvars
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

#: Outcomes the pool supervisor records when it re-dispatches a task.
_REDISPATCH_OUTCOMES = {
    "worker-crash", "worker-timeout", "pool-lost", "quarantine",
    "serial-fallback",
}

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None
)
#: ``(request_id, op_span_id)`` of the request an op handler serves.
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_request", default=(None, None)
)
#: ``id(deletions mapping)`` → ``(queued_at_ns, request_id, op_span_id)``
#: from admission until the batch holding it starts executing.
_QUEUED: dict[int, tuple[int, object, object]] = {}
#: ``max_workers`` of the ``run_delta_batch`` call in progress.
_WORKERS: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_workers", default=None
)


class Recorder:
    """In-memory span list of one process."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.role = "main"
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return (self.pid << 24) | next(self._ids)

    def add(self, sid, parent, name, t0, t1, rid=None, attrs=None) -> None:
        self.spans.append([sid, parent, name, t0, t1, rid, attrs])

    def after_fork(self) -> None:
        """In a forked pool worker: start an empty span list and dump it
        when the worker process exits."""
        self.role = "worker"
        self._reset()
        _CURRENT.set(None)
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> None:
        path = self.directory / f"spans-{self.role}-{self.pid}.json"
        path.write_text(json.dumps(self.spans))


RECORDER: Recorder | None = None


def _timed(name, fn, describe=None, before=None, root=False):
    """Wrap ``fn`` so each call records one span.

    ``describe(args, result)`` returns ``(request_id, attrs)`` after a
    successful call; ``before(args, span_id, t0)`` runs first inside the
    span.  ``root`` spans take no parent (the batcher runs batches in
    its own task, whose context says nothing about the requests).
    """

    def open_span():
        parent = None if root else _CURRENT.get()
        sid = RECORDER.new_id()
        return parent, sid, _CURRENT.set(sid)

    def close_span(parent, sid, token, t0, args, result, ok):
        t1 = time.perf_counter_ns()
        _CURRENT.reset(token)
        rid, attrs = (None, None)
        if ok and describe is not None:
            rid, attrs = describe(args, result)
        RECORDER.add(sid, parent, name, t0, t1, rid, attrs)

    if inspect.iscoroutinefunction(fn):

        async def async_wrapper(*args, **kwargs):
            parent, sid, token = open_span()
            t0 = time.perf_counter_ns()
            if before is not None:
                before(args, sid, t0)
            ok, result = False, None
            try:
                result = await fn(*args, **kwargs)
                ok = True
                return result
            finally:
                close_span(parent, sid, token, t0, args, result, ok)

        return async_wrapper

    def wrapper(*args, **kwargs):
        parent, sid, token = open_span()
        t0 = time.perf_counter_ns()
        if before is not None:
            before(args, sid, t0)
        ok, result = False, None
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            close_span(parent, sid, token, t0, args, result, ok)

    return wrapper


def _patch(owner, attr, name, **options) -> None:
    setattr(owner, attr, _timed(name, getattr(owner, attr), **options))


# ----------------------------------------------------------------------
# Per-layer hooks
# ----------------------------------------------------------------------


def _op_before(args, sid, t0):
    message = args[1]
    rid = message.get("id")
    _REQUEST.set((rid, sid))
    if message.get("op") == "solve_batch":
        for request in message.get("requests") or ():
            _QUEUED[id(request)] = (t0, rid, sid)


def _execute_before(args, sid, t0):
    for request in args[2]:
        queued = _QUEUED.pop(id(request), None)
        if queued is not None:
            queued_at, rid, op_sid = queued
            RECORDER.add(RECORDER.new_id(), op_sid, "server.queue_wait",
                         queued_at, t0, rid, {"execute": sid})


def _batch_describe(args, outcomes):
    requests = args[1]
    workers = _WORKERS.get()
    n = len(requests)
    if workers is None:
        workers = min(n, os.cpu_count() or 1)
    parallelism = min(workers, n) if workers > 0 and n > 1 else 1
    redispatches = sum(
        1
        for outcome in outcomes
        for record in outcome.attempts
        if record.outcome in _REDISPATCH_OUTCOMES
    )
    return None, {
        "n": n,
        "parallelism": parallelism,
        "wall_sum": sum(outcome.wall_seconds for outcome in outcomes),
        "redispatches": redispatches,
        "errors": sum(1 for outcome in outcomes if not outcome.ok),
    }


def install() -> None:
    """Wrap every layer boundary the bench reports on."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.core import portfolio, registry, shm
    from repro.core.problem import DeletionPropagationProblem
    from repro.core.session import SolveSession
    from repro.core.tracestore import TraceStore
    from repro.io import serialize
    from repro.serve import server

    # serve.protocol, as the server module resolves it.
    _patch(server, "decode_line", "protocol.decode",
           describe=lambda args, msg: (
               msg.get("id"), {"op": msg.get("op")}))
    _patch(server, "encode_message", "protocol.encode",
           describe=lambda args, data: (
               args[0].get("id"), {"bytes": len(data)}))

    # serve.server: op handlers, admission → batch start, execution.
    ops = server.SolveServer._OPS
    for op in ("solve", "solve_batch", "register"):
        ops[op] = _timed(
            f"server.op.{op}", ops[op], before=_op_before,
            describe=lambda args, result: (args[1].get("id"), None),
        )
    batcher_submit = server._Batcher.submit

    async def submit(self, deletions, method, policy):
        rid, op_sid = _REQUEST.get()
        _QUEUED[id(deletions)] = (time.perf_counter_ns(), rid, op_sid)
        return await batcher_submit(self, deletions, method, policy)

    server._Batcher.submit = submit
    _patch(server.SolveServer, "_execute", "server.execute", root=True,
           before=_execute_before,
           describe=lambda args, results: (None, {"n": len(args[2])}))
    _patch(server.SolveServer, "register_document", "server.register")

    # core.portfolio: the batch runner, its pool, the parent rebuild.
    run_delta_batch = portfolio.run_delta_batch
    timed_batch = _timed("portfolio.batch", run_delta_batch,
                         describe=_batch_describe)

    def batch(*args, **kwargs):
        token = _WORKERS.set(kwargs.get("max_workers"))
        try:
            return timed_batch(*args, **kwargs)
        finally:
            _WORKERS.reset(token)

    portfolio.run_delta_batch = batch

    class TracedPool(ProcessPoolExecutor):
        """The pool ``_run_supervised`` builds per pooled batch, with its
        construction, first submit (which forks the workers) and
        shutdown timed."""

        def __init__(self, *args, **kwargs):
            self._e2e_spawned = False
            _timed("portfolio.pool_init", super().__init__)(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if self._e2e_spawned:
                return super().submit(fn, *args, **kwargs)
            self._e2e_spawned = True
            return _timed("portfolio.pool_spawn", super().submit)(
                fn, *args, **kwargs)

        def shutdown(self, wait=True, *, cancel_futures=False):
            return _timed("portfolio.pool_shutdown", super().shutdown)(
                wait, cancel_futures=cancel_futures)

    portfolio.ProcessPoolExecutor = TracedPool
    _patch(portfolio, "_rebuild", "solution.rebuild")
    _patch(portfolio, "_prime_session", "session.compile")

    # core.problem / core.registry / core.tracestore.
    _patch(DeletionPropagationProblem, "with_deletions", "session.rebind")
    _patch(registry, "solve_report", "registry.solve",
           describe=lambda args, report: (None, {
               "route": report.route,
               "stages": [[stage.method, stage.seconds, stage.chosen]
                          for stage in report.trace],
           }))
    _patch(TraceStore, "append", "tracestore.append")

    # io.serialize, core.shm.
    _patch(serialize, "solution_to_dict", "serialize.render")
    _patch(serialize, "problem_from_dict", "serialize.parse")
    _patch(SolveSession, "export_shm", "shm.export")
    _patch(shm, "attach_session", "shm.attach")


def main(argv: list[str] | None = None) -> int:
    global RECORDER
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", required=True, type=Path)
    args, cli_args = parser.parse_known_args(argv)
    args.spans_dir.mkdir(parents=True, exist_ok=True)
    RECORDER = Recorder(args.spans_dir)
    install()
    multiprocessing.util.register_after_fork(RECORDER, Recorder.after_fork)

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        RECORDER.dump()


if __name__ == "__main__":
    sys.exit(main())
