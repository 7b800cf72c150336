"""Crash-safe serving: durable replay, graceful drain, tiered overload
control, circuit breaking, health, and client backoff
(:mod:`repro.serve.server` / :mod:`repro.serve.client`)."""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.core.resilience import CircuitBreaker
from repro.fuzz.generator import make_case
from repro.io.serialize import problem_to_dict
from repro.serve import Rejection, ServeClient, SolveServer
from repro.serve.client import ServeError
from repro.serve.protocol import decode_line, encode_message


def _case_problem(seed: int = 6):
    return make_case("chain", random.Random(seed)).problem


def _doc(seed: int = 6) -> dict:
    return problem_to_dict(_case_problem(seed))


def _serve(tmp_path, **kwargs):
    """Run a server on a unix socket in a background thread; returns
    ``(address, thread)`` once it is accepting connections."""
    socket_path = str(tmp_path / "serve.sock")
    ready = threading.Event()

    def runner() -> None:
        async def main() -> None:
            server = SolveServer(unix_path=socket_path, **kwargs)
            await server.start()
            ready.set()
            await server.serve_until_closed()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(30), "server did not come up"
    return f"unix:{socket_path}", thread


def _shutdown(address: str, thread: threading.Thread) -> None:
    try:
        with ServeClient.connect(address) as client:
            client.shutdown()
    except Exception:  # noqa: BLE001 - already down is fine
        pass
    thread.join(timeout=30)


# ----------------------------------------------------------------------
# Admission control units (no sockets)
# ----------------------------------------------------------------------


def _bare_server(**kwargs) -> SolveServer:
    return SolveServer(**kwargs)


def test_admit_tiers():
    server = _bare_server(max_pending=4, max_global_pending=8,
                          soft_watermark=0.5)
    # Below every watermark: everything admitted.
    server._admit(0, 0, False)
    # Soft tier: policy-less priority<=0 shed first...
    with pytest.raises(Rejection) as excinfo:
        server._admit(2, 0, False)
    assert excinfo.value.code == "overloaded"
    assert excinfo.value.retry_after_ms > 0
    assert server.stats.shed_soft == 1
    # ...while a policy or a positive priority rides out the load.
    server._admit(2, 1, False)
    server._admit(2, 0, True)
    # Hard tier: everything is shed, policy or not.
    with pytest.raises(Rejection):
        server._admit(4, 5, True)
    assert server.stats.shed_hard == 1
    # Global watermark sheds even an idle instance's request.
    server._inflight_global = 8
    with pytest.raises(Rejection):
        server._admit(0, 5, True)
    assert server.stats.shed_hard == 2
    server._inflight_global = 0
    # Draining beats every tier.
    server._draining = True
    with pytest.raises(Rejection) as excinfo:
        server._admit(0, 99, True)
    assert excinfo.value.code == "draining"


def test_soft_shed_reads_the_parsed_policy():
    """``solve`` and ``solve_batch`` decide the soft-tier exemption the
    same way: from the parsed policy, so ``{}`` and ``null`` (both "no
    policy") are shed while a real policy rides out the load."""
    doc = _doc(18)

    async def main():
        server = _bare_server(max_pending=4, max_global_pending=8,
                              soft_watermark=0.5)
        try:
            instance, _ = server.register_document(doc)
            server._inflight_global = 4  # at the soft global watermark
            codes = []
            for policy in ({}, None, {"deadline_seconds": 10.0}):
                for request in (
                    {"op": "solve", "deletions": doc["deletions"]},
                    {"op": "solve_batch", "requests": [doc["deletions"]]},
                ):
                    response, _ = await server._dispatch(encode_message(
                        {**request, "instance": instance, "policy": policy}
                    ))
                    codes.append(
                        "ok" if response["ok"] else response["error"]["code"]
                    )
            return codes, server.stats.shed_soft
        finally:
            await server.close()

    codes, shed_soft = asyncio.run(main())
    assert codes == ["overloaded"] * 4 + ["ok"] * 2
    assert shed_soft == 4


def test_retry_after_hint_scales_with_depth():
    server = _bare_server(max_pending=10)
    shallow = server._retry_after_ms(1, 10)
    deep = server._retry_after_ms(10, 10)
    assert 0 < shallow < deep <= 5000


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


def test_circuit_breaker_state_machine():
    clock = [0.0]
    breaker = CircuitBreaker(threshold=3, cooldown_seconds=10.0,
                             clock=lambda: clock[0])
    assert breaker.state == "closed"
    for _ in range(2):
        breaker.record(False)
    assert breaker.state == "closed"  # below threshold
    breaker.record(True)
    breaker.record(False)
    breaker.record(False)
    assert breaker.state == "closed"  # success reset the streak
    breaker.record(False)
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(10.0)
    # Cooldown elapses: half-open admits exactly one probe.
    clock[0] = 11.0
    assert breaker.state == "half-open"
    assert breaker.allow()
    assert not breaker.allow()  # second caller waits for the probe
    breaker.record(False)  # probe failed: back to open
    assert breaker.state == "open"
    clock[0] = 22.0
    assert breaker.allow()
    breaker.record(True)  # probe succeeded: closed again
    assert breaker.state == "closed"
    assert breaker.allow()
    assert breaker.as_dict()["opens"] == 2


def test_apply_breakers_reroutes_and_rejects():
    from repro.core.resilience import SolvePolicy

    clock = [0.0]
    server = _bare_server(breaker_threshold=2, _breaker_clock=lambda: clock[0])
    policy = SolvePolicy(fallback=("exact-bnb", "greedy-min-damage"))
    # Healthy: the requested method stays the head.
    method, out = server._apply_breakers("auto", policy)
    assert method == "auto"
    # Trip the requested route: it sinks to the tail, first fallback
    # becomes the head.
    for _ in range(2):
        server._breaker("auto").record(False)
    method, out = server._apply_breakers("auto", policy)
    assert method == "exact-bnb"
    assert out.fallback[-1] == "auto"
    # Trip everything: the request is refused with a probe-window hint.
    for name in ("exact-bnb", "greedy-min-damage"):
        for _ in range(2):
            server._breaker(name).record(False)
    with pytest.raises(Rejection) as excinfo:
        server._apply_breakers("auto", policy)
    assert excinfo.value.code == "circuit-open"
    assert excinfo.value.retry_after_ms >= 1
    assert server.stats.breaker_rejected == 1
    # No policy, open route: straight rejection.
    with pytest.raises(Rejection):
        server._apply_breakers("auto", None)


def test_feed_breaker_classifies_outcomes():
    from types import SimpleNamespace

    server = _bare_server(breaker_threshold=2)

    def outcome(ok, route=None, error=None, attempts=()):
        return SimpleNamespace(ok=ok, route=route, error=error,
                               attempts=list(attempts))

    # Clean answers heal; degraded answers count against the route.
    server._feed_breaker("auto", outcome(True, route="forest-duel"))
    assert server._breaker("auto").state == "closed"
    server._feed_breaker("auto", outcome(True, route="degraded:greedy"))
    server._feed_breaker("auto", outcome(False, error="deadline exceeded"))
    assert server._breaker("auto").state == "open"
    # Deterministic user errors are not breaker food.
    fresh = _bare_server(breaker_threshold=1)
    fresh._feed_breaker("auto", outcome(False, error="no such view 'Q9'"))
    assert fresh._breaker("auto").state == "closed"


# ----------------------------------------------------------------------
# Satellite regression: admission counts pending PLUS in-flight
# ----------------------------------------------------------------------


def test_inflight_counts_toward_watermark(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "hang@delta:*:1")
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "markers"))
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "1.0")
    (tmp_path / "markers").mkdir()
    doc = _doc(17)
    address, thread = _serve(tmp_path, max_pending=1)
    try:
        with ServeClient.connect(address) as client:
            instance = client.register(doc)

        slow_result: list = []

        def slow() -> None:
            with ServeClient.connect(address, timeout=30.0) as c:
                slow_result.append(c.solve(instance, doc["deletions"]))

        worker = threading.Thread(target=slow)
        worker.start()
        try:
            # Wait until the hung batch is IN FLIGHT (queue empty).
            with ServeClient.connect(address) as probe:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    load = probe.health()["inflight"]["per_instance"]
                    if load.get(instance, 0) >= 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("hung batch never became in-flight")
                # The old accounting only counted the (empty) queue and
                # admitted this; in-flight work must hold the watermark.
                with pytest.raises(ServeError) as excinfo:
                    probe.solve(instance, doc["deletions"])
                assert excinfo.value.code == "overloaded"
                assert excinfo.value.retry_after_ms > 0
        finally:
            worker.join(timeout=30)
        assert slow_result and "solution" in slow_result[0]
    finally:
        _shutdown(address, thread)


# ----------------------------------------------------------------------
# Drain vs now
# ----------------------------------------------------------------------


def _slow_solve_setup(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("REPRO_FAULTS", "hang@delta:*:1")
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "markers"))
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "0.8")
    (tmp_path / "markers").mkdir()
    return _doc(seed)


def _await_inflight(address: str, instance: str) -> None:
    with ServeClient.connect(address) as probe:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            load = probe.health()["inflight"]["per_instance"]
            if load.get(instance, 0) >= 1:
                return
            time.sleep(0.02)
    pytest.fail("solve never became in-flight")


def test_drain_finishes_inflight_work(tmp_path, monkeypatch):
    doc = _slow_solve_setup(tmp_path, monkeypatch, 21)
    address, thread = _serve(tmp_path, drain_seconds=10.0)
    with ServeClient.connect(address) as client:
        instance = client.register(doc)

    results: list = []
    errors: list = []

    def slow() -> None:
        try:
            with ServeClient.connect(address, timeout=30.0) as c:
                results.append(c.solve(instance, doc["deletions"]))
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    worker = threading.Thread(target=slow)
    worker.start()
    _await_inflight(address, instance)
    with ServeClient.connect(address) as admin:
        response = admin.shutdown(mode="drain")
        assert response["mode"] == "drain"
        # Draining: new solves are rejected immediately with a clean
        # code while the hung batch keeps running.
        with pytest.raises(ServeError) as excinfo:
            admin.solve(instance, doc["deletions"])
        assert excinfo.value.code == "draining"
    worker.join(timeout=30)
    thread.join(timeout=30)
    assert not errors, errors
    assert results and "solution" in results[0]


def test_shutdown_now_abandons_inflight_work(tmp_path, monkeypatch):
    doc = _slow_solve_setup(tmp_path, monkeypatch, 22)
    address, thread = _serve(tmp_path)
    with ServeClient.connect(address) as client:
        instance = client.register(doc)

    outcome: list = []

    def slow() -> None:
        try:
            with ServeClient.connect(address, timeout=30.0) as c:
                outcome.append(("ok", c.solve(instance, doc["deletions"])))
        except Exception as exc:  # noqa: BLE001
            outcome.append(("error", exc))

    worker = threading.Thread(target=slow)
    worker.start()
    _await_inflight(address, instance)
    with ServeClient.connect(address) as admin:
        assert admin.shutdown(mode="now")["mode"] == "now"
    worker.join(timeout=30)
    thread.join(timeout=30)
    # Abrupt shutdown must NOT deliver the in-flight answer: the
    # waiter hears an error (shutting-down or a severed connection).
    assert outcome and outcome[0][0] == "error"


def test_shutdown_rejects_unknown_mode(tmp_path):
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.request({"op": "shutdown", "mode": "later"})
            assert excinfo.value.code == "bad-request"
            assert client.ping()  # the typo did not kill the server
    finally:
        _shutdown(address, thread)


# ----------------------------------------------------------------------
# Health
# ----------------------------------------------------------------------


def test_health_surface(tmp_path):
    doc = _doc(25)
    address, thread = _serve(tmp_path, state_dir=str(tmp_path / "state"))
    try:
        with ServeClient.connect(address) as client:
            health = client.health()
            assert health["ready"] is True
            assert health["draining"] is False
            assert health["journal"]["enabled"] is True
            instance = client.register(doc)
            client.solve(instance, doc["deletions"])
            health = client.health()
            assert health["instances"] == 1
            assert health["journal"]["appends"] == 1
            assert health["segments"] == {"active": 0}
            assert instance in [
                entry["instance"] for entry in client.stats()["instances"]
            ]
            assert health["pool"]["batchers_alive"] == 1
            assert isinstance(health["breakers"], dict)
    finally:
        _shutdown(address, thread)


# ----------------------------------------------------------------------
# Oversized request lines (satellite: no silent connection death)
# ----------------------------------------------------------------------


def test_oversized_line_gets_bad_request_before_close(tmp_path):
    address, thread = _serve(tmp_path, max_line_bytes=1024)
    socket_path = address[len("unix:"):]
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(socket_path)
        with sock:
            sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        line = b"".join(chunks)
        assert line, "connection died without an error response"
        response = decode_line(line)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"
        assert "exceeds" in response["error"]["message"]
        # The error was counted and the server is still serving.
        with ServeClient.connect(address) as client:
            assert client.ping()
            assert client.stats()["stats"]["protocol_errors"] >= 1
    finally:
        _shutdown(address, thread)


# ----------------------------------------------------------------------
# Journal replay (in-process round trip)
# ----------------------------------------------------------------------


def test_replay_restores_instances_across_server_lifetimes(tmp_path):
    doc = _doc(33)
    state = str(tmp_path / "state")
    first = _serve(tmp_path, state_dir=state)
    with ServeClient.connect(first[0]) as client:
        instance = client.register(doc)
        answer = client.solve(instance, doc["deletions"])["solution"]
        client.shutdown()
    first[1].join(timeout=30)

    second = _serve(tmp_path, state_dir=state)
    try:
        with ServeClient.connect(second[0]) as client:
            health = client.health()
            assert health["journal"]["replayed"] == 1
            # The pre-crash content hash is live again without any
            # client re-registering...
            replayed = client.solve(instance, doc["deletions"])["solution"]
            assert replayed == answer
            # ...and a re-register of the same document is a cache hit.
            assert client.register_info(doc)["cached"] is True
    finally:
        _shutdown(second[0], second[1])


def test_replay_reaps_segments_an_older_journal_names(tmp_path):
    """Servers that exported at registration journaled the segment
    name; replay still reaps such a leftover, and the compacted
    journal names it no more."""
    import os
    from multiprocessing import shared_memory

    from repro.serve.journal import JournalRecord, RegistrationJournal

    state = str(tmp_path / "state")
    name = f"repro_jtestold{os.getpid()}"

    async def main():
        first = SolveServer(state_dir=state)
        instance, _ = first.register_document(_doc(35))
        entry = first._registry[instance]
        record = JournalRecord(
            op="register", instance=instance,
            problem=entry.session.document, profile=entry.profile,
            segments=(name,),
        )
        await first.close()
        journal = RegistrationJournal(state)
        journal.compact([record])
        journal.close()
        segment = shared_memory.SharedMemory(create=True, name=name, size=16)
        segment.close()
        second = SolveServer(state_dir=state)
        try:
            return instance, second.replay_journal(), list(second._registry)
        finally:
            await second.close()

    instance, replayed, registry = asyncio.run(main())
    assert (replayed, registry) == (1, [instance])
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    journal = RegistrationJournal(state)
    assert [record.segments for record in journal.replay()] == [()]
    journal.close()


def test_unregister_tombstone_survives_restart(tmp_path):
    doc = _doc(34)
    state = str(tmp_path / "state")
    first = _serve(tmp_path, state_dir=state)
    with ServeClient.connect(first[0]) as client:
        instance = client.register(doc)
        client.unregister(instance)
        client.shutdown()
    first[1].join(timeout=30)

    second = _serve(tmp_path, state_dir=state)
    try:
        with ServeClient.connect(second[0]) as client:
            assert client.health()["journal"]["replayed"] == 0
            with pytest.raises(ServeError):
                client.solve(instance, doc["deletions"])
    finally:
        _shutdown(second[0], second[1])


# ----------------------------------------------------------------------
# Client backoff
# ----------------------------------------------------------------------


class _ScriptedClient(ServeClient):
    """A client whose transport is replaced by a scripted response
    sequence — isolates the retry loop from any socket."""

    def __init__(self, responses, **kwargs):
        sock_a, sock_b = socket.socketpair()
        self._peer = sock_b
        sleeps: list[float] = []
        super().__init__(sock_a, _sleep=sleeps.append, **kwargs)
        self.sleeps = sleeps
        self._responses = list(responses)

    def _request_once(self, message):
        self._file.write(encode_message(dict(message)))
        self._file.flush()
        self._peer.recv(65536)  # consume the request
        self._peer.sendall(encode_message(self._responses.pop(0)))
        return self._request_once_read()

    def _request_once_read(self):
        line = self._file.readline(1 << 20)
        response = decode_line(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServeError(
                str(error.get("code")), str(error.get("message")),
                retry_after_ms=error.get("retry_after_ms"),
            )
        return response

    def close(self):
        super().close()
        self._peer.close()


def _overloaded(retry_after_ms):
    return {
        "ok": False,
        "error": {"code": "overloaded", "message": "shed",
                  "retry_after_ms": retry_after_ms},
    }


def test_client_honors_retry_after_hint_with_seeded_jitter():
    responses = [_overloaded(200), _overloaded(400), {"ok": True, "pong": True}]
    with _ScriptedClient(responses, retries=3, backoff_seed=99) as client:
        assert client.ping()
    assert len(client.sleeps) == 2
    # Each sleep honors the server hint (>= hint, <= hint + 25% jitter).
    assert 0.2 <= client.sleeps[0] <= 0.2 * 1.25
    assert 0.4 <= client.sleeps[1] <= 0.4 * 1.25
    # Deterministic: the same seed draws the same jitter sequence.
    with _ScriptedClient(
        [_overloaded(200), _overloaded(400), {"ok": True, "pong": True}],
        retries=3, backoff_seed=99,
    ) as twin:
        assert twin.ping()
    assert twin.sleeps == client.sleeps


def test_client_gives_up_after_retries_and_skips_non_retryable():
    responses = [_overloaded(10)] * 3
    with _ScriptedClient(responses, retries=2, backoff_seed=1) as client:
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "overloaded"
    assert len(client.sleeps) == 2
    # Non-retryable codes surface immediately, no sleeping.
    bad = {"ok": False, "error": {"code": "bad-request", "message": "no"}}
    with _ScriptedClient([bad], retries=5, backoff_seed=1) as client:
        with pytest.raises(ServeError):
            client.ping()
    assert client.sleeps == []


def test_client_retries_against_live_overloaded_server(tmp_path, monkeypatch):
    """End to end: a hard-watermarked server sheds, the client backs
    off on the server's hint and lands the request."""
    monkeypatch.setenv("REPRO_FAULTS", "hang@delta:*:1")
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "markers"))
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "0.6")
    (tmp_path / "markers").mkdir()
    doc = _doc(41)
    address, thread = _serve(tmp_path, max_pending=1)
    try:
        with ServeClient.connect(address) as client:
            instance = client.register(doc)

        def slow() -> None:
            with ServeClient.connect(address, timeout=30.0) as c:
                c.solve(instance, doc["deletions"])

        worker = threading.Thread(target=slow)
        worker.start()
        _await_inflight(address, instance)
        with ServeClient.connect(address, timeout=30.0, retries=8) as c:
            result = c.solve(instance, doc["deletions"])
            assert "solution" in result
        worker.join(timeout=30)
    finally:
        _shutdown(address, thread)
