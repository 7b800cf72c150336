"""Per-layer metrics from the spans of a traced run.

:func:`analyze` joins the server's spans (see ``traced_server.py``) with
the bench's own client-side timings and returns one value per metric in
:data:`PER_LAYER`, plus detail rows that only the printed table shows
(per-method stage times, route shares, pool-worker attach time).

Request-path spans are counted only inside the measured window; the
registration spans (parse, compile, export) are counted over the whole
run, because the only registrations are the ones made during set-up.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: ``name → (unit, better)`` of every metric a ``--trace 1`` run reports,
#: in print order.  Time metrics here are never structurally zero on a
#: workload; a layer a workload may bypass entirely (the pool) reports a
#: count or a share instead.
PER_LAYER: dict[str, tuple[str, str]] = {
    "client.encode_us": ("us", "lower"),
    "client.decode_us": ("us", "lower"),
    "protocol.decode_us": ("us", "lower"),
    "protocol.encode_us": ("us", "lower"),
    "protocol.response_bytes": ("bytes", "lower"),
    "server.hop_ms": ("ms", "lower"),
    "server.queue_wait_ms": ("ms", "lower"),
    "server.execute_ms": ("ms", "lower"),
    "server.batch_size": ("count", "higher"),
    "server.rejected": ("count", "lower"),
    "portfolio.batch_ms": ("ms", "lower"),
    "portfolio.dispatch_overhead_ms": ("ms", "lower"),
    "portfolio.pool_starts_per_batch": ("count", "lower"),
    "portfolio.pool_share": ("%", "lower"),
    "portfolio.parallel_efficiency": ("ratio", "higher"),
    "portfolio.redispatches": ("count", "lower"),
    "session.rebind_us": ("us", "lower"),
    "session.rebinds_per_request": ("count", "lower"),
    "solution.rebuild_ms": ("ms", "lower"),
    "registry.solve_ms": ("ms", "lower"),
    "registry.overhead_ms": ("ms", "lower"),
    "registry.stages_per_request": ("count", "lower"),
    "kernel.stage_ms": ("ms", "lower"),
    "kernel.chosen_stage_ms": ("ms", "lower"),
    "serialize.render_ms": ("ms", "lower"),
    "serialize.parse_ms": ("ms", "lower"),
    "tracestore.append_us": ("us", "lower"),
    "server.register_ms": ("ms", "lower"),
    "session.compile_ms": ("ms", "lower"),
    "shm.export_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: The layer (module group) each metric belongs to, by name prefix.
#: README.md records which end-to-end metric each layer should move.
LAYERS: dict[str, tuple[str, ...]] = {
    "serve.client / serve.protocol": ("client.", "protocol."),
    "serve.server": ("server.hop", "server.queue_wait", "server.execute",
                     "server.batch", "server.rejected"),
    "core.portfolio": ("portfolio.",),
    "core.problem / core.solution": ("session.rebind", "solution."),
    "core.registry / core.router / kernels": (
        "registry.", "kernel.", "router."),
    "io.serialize": ("serialize.",),
    "core.tracestore": ("tracestore.",),
    "registration (session / shm)": (
        "server.register", "session.compile", "shm."),
    "residual": ("trace.",),
}

_SOLVE_OPS = ("solve", "solve_batch")


def load_spans(directory: Path) -> list[tuple[str, list]]:
    """``(role, span)`` pairs from every dump in ``directory``."""
    spans = []
    for path in sorted(directory.glob("spans-*.json")):
        role = path.name.split("-")[1]
        spans.extend((role, span) for span in json.loads(path.read_text()))
    return spans


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(ns: float) -> float:
    return ns / 1e6


class _Spans:
    """Index over one run's spans."""

    def __init__(self, spans, window):
        self.window = window
        self.by_name = defaultdict(list)
        self.by_id = {}
        for role, span in spans:
            sid, parent, name, t0, t1, rid, attrs = span
            record = {"id": sid, "parent": parent, "name": name, "t0": t0,
                      "t1": t1, "dur": t1 - t0, "rid": rid,
                      "attrs": attrs or {}, "role": role}
            self.by_name[name].append(record)
            self.by_id[sid] = record

    def named(self, name, windowed=True, role=None):
        start, end = self.window
        return [
            span for span in self.by_name.get(name, ())
            if (not windowed or start <= span["t0"] <= end)
            and (role is None or span["role"] == role)
        ]

    def parent_name(self, span):
        parent = self.by_id.get(span["parent"])
        return parent["name"] if parent else None


def analyze(
    spans: list,
    samples: list,
    window: tuple[int, int],
    stats: dict,
    traced_p50_ms: float,
    untraced_p50_ms: float,
) -> tuple[dict[str, float], dict[str, tuple[float, str, int]]]:
    """Return ``(metrics, details)``.

    ``metrics`` maps every :data:`PER_LAYER` name to its value.
    ``details`` maps every reported name (the same plus the extra rows)
    to ``(value, unit, sample count)`` for the printed table.
    """
    index = _Spans(spans, window)
    details: dict[str, tuple[float, str, int]] = {}

    def put(name, value, n, unit=None):
        details[name] = (value, unit or PER_LAYER[name][0], n)

    # serve.client / serve.protocol
    put("client.encode_us", _median(s.encode_ns / 1e3 for s in samples),
        len(samples))
    put("client.decode_us", _median(s.decode_ns / 1e3 for s in samples),
        len(samples))
    decodes = [s for s in index.named("protocol.decode")
               if s["attrs"].get("op") in _SOLVE_OPS]
    solve_rids = {s["rid"] for s in decodes}
    put("protocol.decode_us", _median(s["dur"] / 1e3 for s in decodes),
        len(decodes))
    encodes = [s for s in index.named("protocol.encode")
               if s["rid"] in solve_rids]
    put("protocol.encode_us", _median(s["dur"] / 1e3 for s in encodes),
        len(encodes))
    put("protocol.response_bytes",
        _median(s["attrs"]["bytes"] for s in encodes), len(encodes))

    # serve.server
    ops = [span for op in _SOLVE_OPS
           for span in index.named(f"server.op.{op}")]
    waits = index.named("server.queue_wait")
    executes = {span["id"]: span for span in index.named("server.execute")}
    wait_of = {}
    for span in waits:
        wait_of.setdefault(span["rid"], span)
    hops = []
    for span in ops:
        wait = wait_of.get(span["rid"])
        execute = executes.get(wait["attrs"]["execute"]) if wait else None
        if execute is not None:
            hops.append(span["dur"] - wait["dur"] - execute["dur"])
    put("server.hop_ms", _ms(_median(hops)), len(hops))
    put("server.queue_wait_ms", _ms(_median(s["dur"] for s in waits)),
        len(waits))
    put("server.execute_ms", _ms(_median(s["dur"] for s in executes.values())),
        len(executes))
    sizes = [s["attrs"]["n"] for s in executes.values()]
    put("server.batch_size", statistics.fmean(sizes) if sizes else 0.0,
        len(sizes))
    put("server.rejected", float(stats.get("rejected", 0)), 1)

    # core.portfolio
    batches = index.named("portfolio.batch")
    put("portfolio.batch_ms", _ms(_median(s["dur"] for s in batches)),
        len(batches))
    overheads = [
        s["dur"] - 1e9 * s["attrs"]["wall_sum"] / s["attrs"]["parallelism"]
        for s in batches
    ]
    put("portfolio.dispatch_overhead_ms", _ms(_median(overheads)),
        len(overheads))
    pool_spans = [
        span for name in ("portfolio.pool_init", "portfolio.pool_spawn",
                          "portfolio.pool_shutdown")
        for span in index.named(name)
    ]
    starts = len(index.named("portfolio.pool_init"))
    batch_ns = sum(s["dur"] for s in batches)
    put("portfolio.pool_starts_per_batch",
        starts / len(batches) if batches else 0.0, len(batches))
    put("portfolio.pool_share",
        100.0 * sum(s["dur"] for s in pool_spans) / batch_ns
        if batch_ns else 0.0, len(pool_spans))
    capacity = sum(s["dur"] * s["attrs"]["parallelism"] for s in batches)
    put("portfolio.parallel_efficiency",
        1e9 * sum(s["attrs"]["wall_sum"] for s in batches) / capacity
        if capacity else 0.0, len(batches))
    put("portfolio.redispatches",
        float(sum(s["attrs"]["redispatches"] for s in batches)), len(batches))
    served = sum(s["attrs"]["n"] for s in batches)

    # core.problem / core.solution
    rebinds = index.named("session.rebind", role="main")
    put("session.rebind_us", _median(s["dur"] / 1e3 for s in rebinds),
        len(rebinds))
    put("session.rebinds_per_request",
        len(rebinds) / served if served else 0.0, served)
    rebuilds = index.named("solution.rebuild")
    put("solution.rebuild_ms", _ms(_median(s["dur"] for s in rebuilds)),
        len(rebuilds))

    # core.registry / core.router / kernels
    reports = [s for s in index.named("registry.solve")
               if index.parent_name(s) != "registry.solve"]
    put("registry.solve_ms", _ms(_median(s["dur"] for s in reports)),
        len(reports))
    stage_ns = [1e9 * sum(stage[1] for stage in s["attrs"]["stages"])
                for s in reports]
    put("registry.overhead_ms",
        _ms(_median(s["dur"] - staged for s, staged in zip(reports, stage_ns))),
        len(reports))
    put("registry.stages_per_request",
        statistics.fmean(len(s["attrs"]["stages"]) for s in reports)
        if reports else 0.0, len(reports))
    put("kernel.stage_ms", _ms(_median(stage_ns)), len(reports))
    put("kernel.chosen_stage_ms", _median(
        1e3 * stage[1] for s in reports for stage in s["attrs"]["stages"]
        if stage[2]), len(reports))
    per_method = defaultdict(list)
    for s in reports:
        for method, seconds, _ in s["attrs"]["stages"]:
            per_method[method].append(1e3 * seconds)
    for method, values in sorted(per_method.items()):
        put(f"kernel.stage_ms.{method}", _median(values), len(values), "ms")
    routes = [s.route for s in samples if not s.failed]
    for route in sorted(set(routes)):
        put(f"router.route_share.{route}", routes.count(route) / len(routes),
            len(routes), "ratio")

    # io.serialize / core.tracestore
    renders = index.named("serialize.render")
    put("serialize.render_ms", _ms(_median(s["dur"] for s in renders)),
        len(renders))
    parses = index.named("serialize.parse", windowed=False, role="main")
    put("serialize.parse_ms", _ms(_median(s["dur"] for s in parses)),
        len(parses))
    appends = index.named("tracestore.append")
    put("tracestore.append_us", _median(s["dur"] / 1e3 for s in appends),
        len(appends))

    # registration: session compile, shm export
    registers = index.named("server.register", windowed=False)
    register_ids = {s["id"] for s in registers}
    put("server.register_ms", _ms(_median(s["dur"] for s in registers)),
        len(registers))
    for name, metric in (("session.compile", "session.compile_ms"),
                         ("shm.export", "shm.export_ms")):
        spans_ = [s for s in index.named(name, windowed=False)
                  if s["parent"] in register_ids]
        put(metric, _ms(_median(s["dur"] for s in spans_)), len(spans_))
    attaches = index.named("shm.attach")
    if attaches:
        put("shm.attach_ms", _ms(_median(s["dur"] for s in attaches)),
            len(attaches), "ms")

    # residuals
    decode_of = {s["rid"]: s for s in decodes}
    encode_of = {s["rid"]: s for s in encodes}
    op_of = {s["rid"]: s for s in ops}
    gaps, sent_latency = [], []
    for sample in samples:
        parts = (decode_of.get(sample.rid), op_of.get(sample.rid),
                 encode_of.get(sample.rid))
        if None in parts:
            continue
        latency = sample.latency_ns
        attributed = (sample.encode_ns + sample.decode_ns
                      + sum(part["dur"] for part in parts))
        gaps.append(latency - attributed)
        sent_latency.append(latency)
    put("trace.unattributed_ms", _ms(_median(gaps)), len(gaps))
    put("trace.unattributed_pct",
        100.0 * _median(gaps) / _median(sent_latency) if gaps else 0.0,
        len(gaps), "%")
    put("trace.overhead_pct",
        100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms
        if untraced_p50_ms else 0.0, 2)

    metrics = {name: details[name][0] for name in PER_LAYER}
    return metrics, details


def layer_of(metric: str) -> str:
    """The :data:`LAYERS` group a metric belongs to."""
    for group, prefixes in LAYERS.items():
        if metric.startswith(prefixes):
            return group
    return ""
