"""The solve service: protocol, registration, solving, admission, and
shutdown hygiene (:mod:`repro.serve`)."""

from __future__ import annotations

import asyncio
import random
import threading

import pytest

from repro.core import portfolio
from repro.core.portfolio import run_delta_batch
from repro.core.registry import solve
from repro.core.shm import active_segments
from repro.fuzz.generator import make_case
from repro.io.serialize import problem_to_dict, solution_to_dict
from repro.serve import ServeClient, SolveServer
from repro.serve.chaos import _repro_segments
from repro.serve.client import ServeError
from repro.serve.protocol import (
    ProtocolError,
    decode_line,
    encode_message,
    policy_from_doc,
)


# ----------------------------------------------------------------------
# Protocol unit tests (no sockets)
# ----------------------------------------------------------------------


def test_encode_decode_round_trip():
    message = {"op": "solve", "id": 7, "deletions": {"Q1": [["a", 1]]}}
    assert decode_line(encode_message(message)) == message


def test_decode_rejects_non_objects():
    with pytest.raises(ProtocolError):
        decode_line(b"[1, 2]\n")
    with pytest.raises(ProtocolError):
        decode_line(b"not json\n")


_MALFORMED_POLICIES = [
    {"deadline_sec": 1},  # typo
    {"fallback": 5},
    {"fallback": [["a"]]},
    {"fallback": [1, 2]},
    {"fallback": None},
    {"deadline_seconds": "abc"},
    {"deadline_seconds": float("nan")},
    {"deadline_seconds": float("inf")},
    {"deadline_seconds": 0},
    {"deadline_seconds": True},
    {"retries": "x"},
    {"retries": -1},
    {"retries": 1.5},
    {"retries": True},
    {"backoff_seconds": -0.1},
    {"backoff_factor": [1]},
    {"backoff_jitter": float("nan")},
    {"backoff_seconds": None},
    # Integers too large for a float overflow once turned into seconds.
    {"deadline_seconds": 10**400},
    {"backoff_seconds": 10**400},
    {"backoff_factor": 10**400},
    {"backoff_jitter": 10**400},
    {"retries": 10**400},
]


def test_policy_from_doc():
    assert policy_from_doc(None) is None
    assert policy_from_doc({}) is None
    policy = policy_from_doc(
        {"deadline_seconds": 0.5, "retries": 2, "fallback": "claim1"}
    )
    assert policy.deadline_seconds == 0.5
    assert policy.retries == 2
    assert policy.fallback == ("claim1",)
    with pytest.raises(ProtocolError):
        policy_from_doc({"deadline_secnods": 1.0})  # typo must not pass
    with pytest.raises(ProtocolError):
        policy_from_doc([1])  # not an object
    for malformed in _MALFORMED_POLICIES:
        with pytest.raises(ProtocolError):
            policy_from_doc(malformed)
    # Validated policies are hashable: the batcher groups by them.
    assert hash(policy) == hash(policy_from_doc(policy.as_dict()))


# ----------------------------------------------------------------------
# Server round trips
# ----------------------------------------------------------------------


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


def _case_problem(seed: int = 6):
    return make_case("chain", random.Random(seed)).problem


def test_register_solve_matches_local(tmp_path):
    problem = _case_problem()
    doc = problem_to_dict(problem)
    local = solve(problem, method="auto")
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            assert client.ping()
            info = client.register_info(doc)
            instance = info["instance"]
            assert info["cached"] is False
            assert isinstance(info["profile"], dict)

            # Identical doc re-registration is a cache hit.
            assert client.register_info(doc)["cached"] is True

            result = client.solve(instance, doc["deletions"])
            served = {
                (entry["relation"], tuple(entry["values"]))
                for entry in result["solution"]["deleted_facts"]
            }
            expected = {
                (fact.relation, fact.values)
                for fact in local.deleted_facts
            }
            assert served == expected
            assert result["solution"]["feasible"] == local.is_feasible()
    finally:
        with ServeClient.connect(address) as client:
            client.shutdown()
        thread.join(timeout=30)




def test_solve_batch_and_policy_admission(tmp_path, caplog):
    problem = _case_problem(12)
    doc = problem_to_dict(problem)
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            instance = client.register(doc)
            results = client.solve_batch(
                instance,
                [doc["deletions"]] * 3,
                policy={"deadline_seconds": 10.0, "retries": 1},
            )
            assert len(results) == 3
            assert all("solution" in result for result in results)
            # The policy rode along: the resilience trace shows the
            # attempt loop ran for each request.
            assert all(result["attempts"] for result in results)
            assert client.solve(
                instance, doc["deletions"],
                policy={"deadline_seconds": None, "fallback": ["claim1"]},
            )["solution"]

            for policy in _MALFORMED_POLICIES:
                for send in (
                    lambda: client.solve(
                        instance, doc["deletions"], policy=policy
                    ),
                    lambda: client.solve_batch(
                        instance, [doc["deletions"]], policy=policy
                    ),
                ):
                    with pytest.raises(ServeError) as excinfo:
                        send()
                    assert excinfo.value.code == "bad-request", policy
            assert client.stats()["stats"]["internal_errors"] == 0
        assert "internal error" not in caplog.text
    finally:
        with ServeClient.connect(address) as client:
            client.shutdown()
        thread.join(timeout=30)


def test_serve_path_never_pools_or_exports(tmp_path, monkeypatch):
    """A journaled server answers a batch of 8 in-process: no worker
    pool is built, no shared-memory segment appears, and the answers
    are the serial batch runner's."""
    problem = _case_problem()
    doc = problem_to_dict(problem)
    singles = [
        {vt.view: [list(vt.values)]}
        for vt in sorted(problem.deleted_view_tuples())
    ]
    requests = (([doc["deletions"]] + singles) * 8)[:8]
    expected = [
        solution_to_dict(outcome.propagation)
        for outcome in run_delta_batch(problem, requests, max_workers=0)
    ]

    def no_pool(*args, **kwargs):
        raise AssertionError("the serve path built a worker pool")

    monkeypatch.setattr(portfolio, "ProcessPoolExecutor", no_pool)
    before = _repro_segments()

    async def main():
        server = SolveServer(state_dir=str(tmp_path / "state"))
        try:
            instance, _ = server.register_document(doc)
            response, _ = await server._dispatch(encode_message({
                "op": "solve_batch",
                "instance": instance,
                "requests": requests,
            }))
            return response, _repro_segments() - before
        finally:
            await server.close()

    response, appeared = asyncio.run(main())
    assert response["ok"], response
    assert not appeared, sorted(appeared)
    assert [result["solution"] for result in response["results"]] == expected


def test_error_paths_keep_serving(tmp_path):
    problem = _case_problem(23)
    doc = problem_to_dict(problem)
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.solve("no-such-instance", {"Q1": [["x"]]})
            assert excinfo.value.code == "bad-request"

            instance = client.register(doc)
            with pytest.raises(ServeError) as excinfo:
                client.solve(instance, {"NoSuchView": [["x"]]})
            assert excinfo.value.code == "solve-failed"

            # The connection and the instance both survived.
            assert client.ping()
            assert "solution" in client.solve(instance, doc["deletions"])

            stats = client.stats()["stats"]
            assert stats["registered"] == 1
            assert stats["solve_errors"] >= 1
            assert stats["internal_errors"] == 0

            # A document that explodes inside the serializer (not a
            # protocol violation) is reported as an internal error AND
            # counted, instead of vanishing into the reply stream.
            with pytest.raises(ServeError) as excinfo:
                client.register({"nonsense": 1})
            assert excinfo.value.code == "internal"
            assert client.stats()["stats"]["internal_errors"] == 1
    finally:
        with ServeClient.connect(address) as client:
            client.shutdown()
        thread.join(timeout=30)


def test_concurrent_clients_get_consistent_answers(tmp_path):
    problem = _case_problem(31)
    doc = problem_to_dict(problem)
    local = solve(problem, method="auto")
    expected = {
        (fact.relation, fact.values) for fact in local.deleted_facts
    }
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            instance = client.register(doc)

        failures: list[str] = []

        def drive() -> None:
            try:
                with ServeClient.connect(address) as client:
                    for _ in range(5):
                        result = client.solve(instance, doc["deletions"])
                        got = {
                            (entry["relation"], tuple(entry["values"]))
                            for entry in result["solution"]["deleted_facts"]
                        }
                        assert got == expected
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))

        threads = [threading.Thread(target=drive) for _ in range(4)]
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=120)
        assert not failures, failures
    finally:
        with ServeClient.connect(address) as client:
            client.shutdown()
        thread.join(timeout=30)


def test_unregister_and_shutdown_release_segments(tmp_path):
    before = set(active_segments())
    problem = _case_problem(44)
    doc = problem_to_dict(problem)
    address, thread = _serve(tmp_path)
    with ServeClient.connect(address) as client:
        instance = client.register(doc)
        client.solve(instance, doc["deletions"])
        assert set(active_segments()) == before  # registration exports nothing
        assert client.stats()["instances"]
        client.unregister(instance)
        assert client.stats()["instances"] == []
        # Solving an unregistered instance is a clean error.
        with pytest.raises(ServeError):
            client.solve(instance, doc["deletions"])
        client.register(doc)
        client.shutdown()
    thread.join(timeout=30)
    # No segment ever appeared in this process, and none lingers.
    assert set(active_segments()) == before


def test_non_string_method_is_a_bad_request(tmp_path):
    problem = _case_problem(45)
    doc = problem_to_dict(problem)
    address, thread = _serve(tmp_path)
    try:
        with ServeClient.connect(address) as client:
            instance = client.register(doc)
            for message in (
                {"op": "solve", "deletions": doc["deletions"]},
                {"op": "solve_batch", "requests": [doc["deletions"]]},
            ):
                with pytest.raises(ServeError) as excinfo:
                    client.request(
                        {**message, "instance": instance, "method": ["x"]}
                    )
                assert excinfo.value.code == "bad-request"
                assert "method" in str(excinfo.value)
            stats = client.stats()["stats"]
            assert stats["internal_errors"] == 0
            assert stats["protocol_errors"] == 2
    finally:
        with ServeClient.connect(address) as client:
            client.shutdown()
        thread.join(timeout=30)


def test_malformed_request_fails_only_itself_in_a_coalesced_batch():
    """Three concurrent solves share one micro-batch; the malformed ΔV
    in the middle gets its own typed error while its neighbours
    answer."""
    problem = _case_problem(46)
    doc = problem_to_dict(problem)
    view = next(iter(doc["deletions"]))

    async def main():
        server = SolveServer()
        try:
            instance, _ = server.register_document(doc)
            responses = await asyncio.gather(
                *(
                    server._dispatch(encode_message({
                        "op": "solve",
                        "instance": instance,
                        "deletions": deletions,
                    }))
                    for deletions in (doc["deletions"], {view: 5},
                                      doc["deletions"])
                )
            )
            return [response for response, _ in responses], server.stats
        finally:
            await server.close()

    responses, stats = asyncio.run(main())
    assert stats.batches == 1  # the three solves really coalesced
    assert [response["ok"] for response in responses] == [True, False, True]
    assert responses[1]["error"]["code"] == "solve-failed"
    assert "TypeError" in responses[1]["error"]["message"]
    assert responses[0]["solution"] == responses[2]["solution"]
    assert stats.internal_errors == 0
    assert stats.solve_errors == 1


@pytest.mark.parametrize(
    "kwargs",
    [{"max_pending": 0}, {"max_pending": -1}],
)
def test_server_refuses_degenerate_limits(kwargs):
    # max_pending 0 would answer every solve with a retryable
    # "overloaded", so a retrying client would loop forever.
    with pytest.raises(ValueError):
        SolveServer(**kwargs)


def test_served_delta_trace_is_filed_under_the_instance_id(
    monkeypatch, tmp_path
):
    from repro.core.tracestore import (
        TRACE_DIR_ENV,
        TRACE_ENV,
        default_store,
        reset_default_store,
    )

    monkeypatch.delenv(TRACE_ENV, raising=False)
    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path / "traces"))
    reset_default_store()
    problem = _case_problem(6)
    doc = problem_to_dict(problem)
    view = next(iter(doc["deletions"]))
    deletions = {view: doc["deletions"][view][:1]}

    async def main():
        server = SolveServer()
        try:
            instance, _ = server.register_document(doc)
            response, _ = await server._dispatch(encode_message({
                "op": "solve", "instance": instance, "deletions": deletions,
            }))
            return instance, response
        finally:
            await server.close()

    try:
        instance, response = asyncio.run(main())
        assert response["ok"], response
        records = list(default_store().records())
    finally:
        reset_default_store()
    assert records
    assert {record["instance"] for record in records} == {instance}
