"""The two workloads: their inputs and their clients.

The seed picks every instance's data and every ΔV request; the server
only ever sees the generated problem documents and ΔV mappings.  Each
ΔV request deletes three view tuples drawn from the instance, so it is
never the single-deletion special case and always takes the workload's
named route.  Every tenth request a client sends (by its own request
index) is kept for the correctness check against a local solve.  Why
each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from harness import (
    Connection,
    RequestIds,
    Sample,
    closed_pass,
    sample_from_response,
)

#: ΔV view tuples per request.
DELTA_SIZE = 3
#: Distinct ΔV requests per client before its sequence repeats.
POOL_SIZE = 200
#: Every SAMPLE_EVERY-th request of a client is re-solved locally.
SAMPLE_EVERY = 10
#: forest-serial instances: one seed's data costs up to ~10% more or
#: less to solve than another's, and spreading the requests over several
#: instances averages that out.
FOREST_COUNT = 8


@dataclass
class Instance:
    """One problem the bench registers, with its ΔV request pools (one
    per load connection)."""

    key: str
    problem: object
    doc: dict
    pools: list[list[dict]]


def _delta_requests(problem, rng: random.Random, count: int) -> list[dict]:
    view_tuples = sorted(problem.all_view_tuples())
    requests = []
    for _ in range(count):
        request: dict[str, list] = {}
        for vt in rng.sample(view_tuples, DELTA_SIZE):
            request.setdefault(vt.view, []).append(list(vt.values))
        requests.append(request)
    return requests


def _instance(key: str, problem) -> Instance:
    from repro.io.serialize import problem_to_dict

    rng = random.Random(f"{key}/requests")
    return Instance(
        key=key,
        problem=problem,
        doc=problem_to_dict(problem),
        pools=[_delta_requests(problem, rng, POOL_SIZE) for _ in range(2)],
    )


def redraw(template, rng: random.Random):
    """``template``'s schema and queries over data drawn from ``rng``.

    Every fact keeps its key; a reference ``"<i>:<j>"`` to relation
    ``R<i>`` is re-pointed at a key of ``R<i>`` drawn from ``rng``.  The
    query shape, which sets the route and most of a request's cost,
    stays the template's: one seed's instance costs about what another
    seed's does, while the facts, the answers and the requests differ.
    """
    from repro.core import DeletionPropagationProblem
    from repro.relational import Fact, Instance

    sizes = template.instance.relation_sizes()
    instance = Instance(template.instance.schema)
    for fact in template.instance:
        key, ref = fact.values
        target, sep, _ = str(ref).partition(":")
        if sep and target.isdigit():
            ref = f"{target}:{rng.randrange(sizes[f'R{target}'])}"
        instance.add(Fact(fact.relation, (key, ref)))
    return DeletionPropagationProblem(instance, template.queries, {})


def chain_instance(seed: int, facts_per_relation: int = 700):
    """A ``scaling_problem`` key-preserving 3-relation chain (route
    ``dp-tree``), 2100 facts at the default size: one fixed query shape
    per size, data drawn from the seed."""
    from repro.workloads import scaling_problem

    template = scaling_problem(
        random.Random(f"chain-shape-{facts_per_relation}"),
        facts_per_relation=facts_per_relation,
    )
    key = f"chain-{seed}-{facts_per_relation}"
    return _instance(key, redraw(template, random.Random(key)))


def _forest_duel(problem) -> bool:
    from repro.core.session import SolveSession

    profile = SolveSession.of(problem).profile
    return (profile.forest_case and profile.self_join_free
            and not profile.dp_tree_applies)


def forest_instances(seed: int, count: int) -> list[Instance]:
    """``count`` ``random_forest_problem`` instances (8 relations × 60
    facts) on the ``forest-duel`` route: the first fixed-key shape that
    takes that route (about half are chains that ``dp-tree`` takes
    instead), each with its own data drawn from the seed."""
    from repro.workloads import random_forest_problem

    for attempt in itertools.count():
        template = random_forest_problem(
            random.Random(f"forest-shape-{attempt}"),
            num_relations=8, facts_per_relation=60,
        )
        if _forest_duel(template):
            break
    instances = []
    for k in range(count):
        key = f"forest-{seed}-{k}"
        problem = redraw(template, random.Random(key))
        if not _forest_duel(problem):
            raise AssertionError(f"{key} left the forest-duel route")
        instances.append(_instance(key, problem))
    return instances


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


def _exchange(conn: Connection, message: dict) -> tuple[dict, int, int, int]:
    """Send, wait, receive: ``(response, latency_ns, encode_ns,
    decode_ns)`` with latency from the start of the send."""
    start = time.perf_counter_ns()
    encode_ns = conn.send(message)
    response, arrived, decode_ns = conn.receive()
    return response, arrived + decode_ns - start, encode_ns, decode_ns


def solve_client(conn, targets: list[tuple[str, Instance]], pool: int,
                 next_id: RequestIds):
    """A closed-loop client sending one ``solve`` per message from its
    request pool ``pool``, to the ``(instance id, instance)`` targets in
    turn."""
    counter = itertools.count()

    def run(deadline: float, emit: Callable[[Sample], None]) -> None:
        while time.perf_counter() < deadline:
            index = next(counter)
            instance_id, inst = targets[index % len(targets)]
            requests = inst.pools[pool]
            request = requests[index // len(targets) % len(requests)]
            rid = next_id()
            response, latency, enc, dec = _exchange(conn, {
                "op": "solve", "id": rid, "instance": instance_id,
                "deletions": request,
            })
            emit(sample_from_response(
                rid, response, request, inst.key,
                index % SAMPLE_EVERY == 0, latency, enc, dec,
            ))

    return run


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: percentile reported as ``tail_ms``: one that keeps at least ten
    #: samples beyond it in the kept passes of a default-length run, and
    #: lies below where the workload's latency curve turns steep.
    tail: int
    #: seed → the instances registered at set-up, generated before any
    #: timing; their requests drive the load.
    inputs: Callable[[int], list[Instance]]

    def load(self, conns, instance_ids, instances, next_id):
        """The pass function ``seconds -> (wall_seconds, samples)``.

        ``instance_ids`` are the server's ids of ``instances``, in
        order.  Client ``k`` sends to every other instance starting at
        the ``k``-th, so two clients never queue on one instance's lock
        unless there is only one instance, which they then share.
        """
        targets = list(zip(instance_ids, instances))
        clients = [
            solve_client(conn, targets[k::len(conns)] or targets, k, next_id)
            for k, conn in enumerate(conns)
        ]
        return lambda seconds: closed_pass(clients, seconds)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("chain-serial", 90, lambda seed: [chain_instance(seed)]),
        Workload("forest-serial", 95,
                 lambda seed: forest_instances(seed, FOREST_COUNT)),
    )
}
