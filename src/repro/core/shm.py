"""Named shared-memory export/attach for the compiled witness arena.

:class:`~repro.core.arena.CompiledProblem` already stores the whole
witness structure as flat, immutable, contiguous numpy buffers — the
exact shape ``multiprocessing.shared_memory`` serves zero-copy.  This
module packs those slabs into **one named segment** per instance and
describes it with a JSON *manifest*, so a worker process *attaches* to a
compiled instance (microseconds of ``mmap`` + object rebuilding) instead
of re-parsing the problem document and re-running query evaluation,
profile scans, and the arena compile.

Manifest format (``format: "repro-shm-arena/1"``)
-------------------------------------------------

* ``segment`` — the shared-memory segment name.
* ``arrays`` — per-slab specs ``{name: {dtype, shape, offset}}`` for
  ``dep_offsets`` / ``dep_indices`` / ``wit_offsets`` / ``wit_indices``
  / ``weights`` / ``is_delta``, all views into the one segment
  (offsets 8-byte aligned).
* ``document`` — the full problem document
  (:func:`repro.io.serialize.problem_to_dict`): facts, schema, query
  texts, ΔV, weights.  Facts are cheap to rebuild; *evaluating* the
  queries over them is what the segment lets attachers skip.
* ``view_tuples`` — the view tuples in **arena ID order** (the sorted
  interning order), so attachers rebuild the ID ↔ object tables without
  evaluating anything.
* ``content_hash`` — sha256 over the canonical document JSON; the
  registration key of :mod:`repro.serve`.
* ``profile`` / ``pivots`` — optional: the exporter's
  :class:`~repro.core.session.StructureProfile` verdicts and data-dual
  pivot facts, letting :func:`attach_session` seed the session memos
  (the structural probe — in particular Algorithm 4's pivot search —
  dominates worker prime time, and its answers are ΔV-independent).

Ownership & lifetime
--------------------

The exporting process **owns** the segment: it is closed *and unlinked*
when the owning arena (and every ΔV sibling sharing the handle) is
garbage collected, or eagerly via :func:`release_arena` /
``SolveSession.close()`` — ``weakref.finalize`` covers interpreter
exit.  Attachers hold a close-only handle and never unlink.  On Python
< 3.13 ``SharedMemory`` has no ``track=False``, and the global
``resource_tracker`` would unlink the segment when *any* attaching
process exits; :func:`_attach_segment` therefore unregisters the
attachment from the tracker, restoring owner-only unlink semantics.

Bit-exactness
-------------

Attach is **bitwise identical** to a local compile: the interning
tables are rebuilt in the same sorted order the exporter used (IDs are
positions in sorted object order, and sorting is deterministic), and
the CSR/weight/flag buffers are the exporter's own bytes.  Every solver
consumes only those arrays plus lazy tuple views derived from them, so
an attached solve replays a local solve move-for-move — the
``tests/core/test_shm.py`` differential suite asserts this per fuzz
shape, oracle counters included.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping, TYPE_CHECKING

import numpy as np

from repro.errors import ReproError
from repro.relational.tuples import Fact
from repro.relational.views import View, ViewSet, ViewTuple
from repro.core.arena import CompiledProblem, _StructCache, _readonly
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import SolveSession

__all__ = [
    "ShmError",
    "export_arena",
    "export_session",
    "attach_arena",
    "attach_session",
    "release_arena",
    "document_hash",
    "active_segments",
]

_FORMAT = "repro-shm-arena/1"

#: The arena slabs that live in the segment, in pack order.
_ARRAY_FIELDS = (
    "dep_offsets",
    "dep_indices",
    "wit_offsets",
    "wit_indices",
    "weights",
    "is_delta",
)

_ALIGN = 8


class ShmError(ReproError):
    """Malformed manifest or unusable shared-memory segment."""


# ----------------------------------------------------------------------
# Segment handles (lifetime management)
# ----------------------------------------------------------------------

#: Names of segments this process currently owns (diagnostics/tests).
_OWNED_NAMES: set[str] = set()
#: Names of segments this process is attached to (diagnostics/tests).
_ATTACHED_NAMES: set[str] = set()


def _close_and_unlink(
    shm: shared_memory.SharedMemory, name: str, owner_pid: int
) -> None:
    _OWNED_NAMES.discard(name)
    try:
        shm.close()
    except (OSError, BufferError):  # pragma: no cover - views still alive
        pass
    if os.getpid() != owner_pid:
        # A fork-started worker inherited this handle; the segment
        # belongs to the parent and must survive the child's exit.
        return
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def _close_only(shm: shared_memory.SharedMemory, name: str) -> None:
    _ATTACHED_NAMES.discard(name)
    try:
        shm.close()
    except BufferError:
        # Live numpy views still point into the mapping.  Unmapping
        # would invalidate them, so neutralize the handle instead: drop
        # the mmap reference (the OS reclaims the mapping at process
        # exit) and close the fd.  The views stay valid, and
        # ``SharedMemory.__del__`` has nothing left to retry — no
        # "Exception ignored" noise on interpreter shutdown.
        shm._mmap = None
        if shm._fd >= 0:
            os.close(shm._fd)
            shm._fd = -1
    except OSError:  # pragma: no cover - buffer already torn down
        pass


class _OwnedSegment:
    """The exporter's handle: close **and unlink** on release/GC."""

    __slots__ = ("shm", "manifest", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict):
        self.shm = shm
        self.manifest = manifest
        self._finalizer = weakref.finalize(
            self, _close_and_unlink, shm, shm.name, os.getpid()
        )
        _OWNED_NAMES.add(shm.name)

    def release(self) -> None:
        self._finalizer()


class _AttachedSegment:
    """A reader's handle: close only — the exporter owns the name."""

    __slots__ = ("shm", "manifest", "_finalizer", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict):
        self.shm = shm
        self.manifest = manifest
        self._finalizer = weakref.finalize(self, _close_only, shm, shm.name)
        _ATTACHED_NAMES.add(shm.name)

    def release(self) -> None:
        self._finalizer()


def active_segments() -> tuple[str, ...]:
    """Names of segments this process owns or is attached to (sorted;
    the leak assertions of the shm tests and the serve smoke job)."""
    return tuple(sorted(_OWNED_NAMES | _ATTACHED_NAMES))


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment *without* adopting unlink duty.

    Python < 3.13 registers every attachment with the global
    ``resource_tracker``, whose exit cleanup would unlink the segment
    out from under the owner the moment any attaching process exits.
    Unregistering the attachment restores owner-only unlink.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError as exc:
        raise ShmError(
            f"shared-memory segment {name!r} does not exist (exporter "
            "gone, or segment already released?)"
        ) from exc
    if name not in _OWNED_NAMES:
        # Attaching from the owning process must NOT unregister — the
        # tracker entry belongs to the create side and unlink expects
        # to find it.
        try:  # pragma: no cover - tracker internals vary across versions
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    return shm


# ----------------------------------------------------------------------
# Value / fact codecs (JSON-safe, mirroring repro.io.serialize)
# ----------------------------------------------------------------------


def _value_to_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_value_to_json(item) for item in value]
    return value


def _value_from_json(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_value_from_json(item) for item in value)
    return value


def document_hash(document: Mapping[str, Any]) -> str:
    """sha256 over the canonical (sorted-key, compact) document JSON —
    the content address an instance registers under in the serve tier.

    The optional ``"profile"`` block is excluded: it is a derived cache
    of the document's own content (see
    :func:`repro.io.serialize.problem_to_dict`), so a document with and
    without it must hash to the same address — clients from before the
    block existed keep hitting the same serve-tier cache entries.
    """
    if "profile" in document:
        document = {k: v for k, v in document.items() if k != "profile"}
    canonical = json.dumps(
        document, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def export_arena(
    arena: CompiledProblem,
    document: Mapping[str, Any] | None = None,
    profile: Mapping[str, Any] | None = None,
    rooted: Mapping[str, Any] | None = None,
) -> dict:
    """Publish ``arena``'s slabs into one named segment; return the
    manifest.

    Idempotent per arena: a second call returns the cached manifest
    (enriched in place if ``profile`` / ``rooted`` arrive later — e.g.
    a bare ``CompiledProblem.export_shm()`` followed by
    ``SolveSession.export_shm()``).  The calling process owns the
    segment; see module docstring for lifetime rules.
    """
    handle = arena._shm
    if isinstance(handle, _OwnedSegment):
        manifest = handle.manifest
        if profile is not None and manifest.get("profile") is None:
            manifest["profile"] = dict(profile)
        if rooted is not None and manifest.get("rooted") is None:
            manifest["rooted"] = dict(rooted)
        return manifest
    if isinstance(handle, _AttachedSegment):
        # Re-exporting an attached arena would copy the segment under a
        # new name; the attacher already holds a manifest-equivalent.
        return dict(handle.manifest)

    arrays = [
        (slab, np.ascontiguousarray(getattr(arena, slab)))
        for slab in _ARRAY_FIELDS
    ]
    specs: dict[str, dict[str, Any]] = {}
    offset = 0
    for slab, array in arrays:
        offset = -(-offset // _ALIGN) * _ALIGN
        specs[slab] = {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "offset": offset,
        }
        offset += array.nbytes
    shm = shared_memory.SharedMemory(
        create=True,
        name=f"repro_{secrets.token_hex(6)}",
        size=max(1, offset),
    )
    for slab, array in arrays:
        start = specs[slab]["offset"]
        target = np.frombuffer(
            shm.buf, dtype=array.dtype, count=array.size, offset=start
        )
        target[:] = array.reshape(-1)

    if document is None:
        from repro.io.serialize import problem_to_dict

        document = problem_to_dict(arena.problem)
    manifest: dict[str, Any] = {
        "format": _FORMAT,
        "segment": shm.name,
        "arrays": specs,
        "document": dict(document),
        # Interning tables in arena ID order, so attachers rebuild the
        # ID ↔ object maps without evaluating or re-sorting anything
        # (Fact/ViewTuple ordering has a repr fallback for mixed value
        # types — shipping the order sidesteps re-deriving it).
        "facts": [
            [fact.relation, [_value_to_json(v) for v in fact.values]]
            for fact in arena.facts
        ],
        "view_tuples": [
            [vt.view, [_value_to_json(v) for v in vt.values]]
            for vt in arena.view_tuples
        ],
        "balanced": arena.balanced,
        "delta_penalty": arena.delta_penalty,
        "content_hash": document_hash(document),
        "profile": dict(profile) if profile is not None else None,
        "rooted": dict(rooted) if rooted is not None else None,
    }
    arena._shm = _OwnedSegment(shm, manifest)
    return manifest


def export_session(session: "SolveSession") -> dict:
    """Export a session's arena with the structural verdicts riding
    along: the profile dict and — when Algorithm 4 applies — the full
    pivot-rooted layout (parent / depth / component-id arrays over
    arena fact IDs), so attachers skip the structural probe *and* the
    quadratic pivot search entirely."""
    profile = session.profile
    rooted_doc: dict[str, Any] | None = None
    if profile.dp_tree_applies:
        arena = session.arena
        fact_ids = arena.fact_ids
        num_facts = len(arena.facts)
        # -2 = fact not in the data dual graph, -1 = component pivot.
        parent = [-2] * num_facts
        depth = [0] * num_facts
        component = [-1] * num_facts
        pivots: list[int] = []
        for cid, rc in enumerate(session.rooted_components()):
            pivots.append(fact_ids[rc.pivot])
            for fact, par in rc.parent.items():
                fid = fact_ids[fact]
                parent[fid] = -1 if par is None else fact_ids[par]
                depth[fid] = rc.depth[fact]
                component[fid] = cid
        rooted_doc = {
            "parent": parent,
            "depth": depth,
            "component": component,
            "pivots": pivots,
        }
    from repro.core.session import profile_to_dict

    return export_arena(
        session.arena,
        document=session.document,
        profile=profile_to_dict(profile),
        rooted=rooted_doc,
    )


def release_arena(arena: CompiledProblem) -> None:
    """Eagerly release ``arena``'s segment handle: owners close and
    unlink, attachers just close.  Safe to call twice.  ΔV siblings
    sharing the handle lose their numpy views — release only when the
    instance is retired."""
    handle = arena._shm
    if handle is not None:
        handle.release()
        arena._shm = None


# ----------------------------------------------------------------------
# Attach
# ----------------------------------------------------------------------


def _segment_views(
    segment: shared_memory.SharedMemory, specs: Mapping[str, Any]
) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for name in _ARRAY_FIELDS:
        try:
            spec = specs[name]
            dtype = np.dtype(spec["dtype"])
            shape = tuple(int(dim) for dim in spec["shape"])
            offset = int(spec["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ShmError(f"manifest array spec {name!r} malformed") from exc
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + count * dtype.itemsize
        if end > segment.size:
            raise ShmError(
                f"array {name!r} ({end} bytes) overruns segment "
                f"{segment.name!r} ({segment.size} bytes)"
            )
        views[name] = _readonly(
            np.frombuffer(
                segment.buf, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
        )
    return views


def attach_arena(manifest: Mapping[str, Any]) -> CompiledProblem:
    """Attach to an exported arena: rebuild the object surface (facts,
    views, problem) from the manifest *without query evaluation* and
    point the arena's slabs straight into the shared segment.

    The returned arena's ``problem`` carries it as its compiled arena,
    so ``SolveSession.of(arena.problem)`` (or :func:`attach_session`)
    finds it instead of recompiling.
    """
    if manifest.get("format") != _FORMAT:
        raise ShmError(
            f"unsupported manifest format {manifest.get('format')!r} "
            f"(expected {_FORMAT!r})"
        )
    from repro.io.serialize import schema_from_dict
    from repro.relational.instance import Instance
    from repro.relational.parser import parse_query

    document = manifest["document"]
    segment = _attach_segment(manifest["segment"])
    try:
        slabs = _segment_views(segment, manifest["arrays"])

        schema = schema_from_dict(document["schema"])
        queries = [parse_query(text, schema) for text in document["queries"]]

        # The manifest ships both interning tables in arena ID order —
        # facts rebuilt positionally, instance bulk-loaded without
        # re-validating what the exporter already validated.
        facts: tuple[Fact, ...] = tuple(
            Fact(relation, tuple(_value_from_json(v) for v in values))
            for relation, values in manifest["facts"]
        )
        instance = Instance.from_trusted_facts(schema, facts)
        view_tuples: tuple[ViewTuple, ...] = tuple(
            ViewTuple(view, tuple(_value_from_json(v) for v in values))
            for view, values in manifest["view_tuples"]
        )
        wit_offsets = slabs["wit_offsets"]
        wit_indices = slabs["wit_indices"]
        if len(view_tuples) + 1 != wit_offsets.size:
            raise ShmError(
                f"manifest lists {len(view_tuples)} view tuples but the "
                f"witness CSR has {wit_offsets.size - 1} rows"
            )
        if len(facts) + 1 != slabs["dep_offsets"].size:
            raise ShmError(
                f"document has {len(facts)} facts but the dependents "
                f"CSR has {slabs['dep_offsets'].size - 1} rows"
            )

        # Per-view witness maps straight from the CSR — the evaluation
        # the exporter already paid for, replayed as array indexing.
        bounds = wit_offsets.tolist()
        flat = wit_indices.tolist()
        by_view: dict[str, dict[tuple, list[frozenset[Fact]]]] = {
            query.name: {} for query in queries
        }
        for vid, vt in enumerate(view_tuples):
            witness = frozenset(
                facts[fid] for fid in flat[bounds[vid] : bounds[vid + 1]]
            )
            by_view[vt.view][vt.values] = [witness]

        views = ViewSet(
            View.from_witnesses(query, by_view[query.name])
            for query in queries
        )
        deletions = {
            name: [
                tuple(_value_from_json(v) for v in values) for values in rows
            ]
            for name, rows in document.get("deletions", {}).items()
        }
        weights = {
            (
                entry["view"],
                tuple(_value_from_json(v) for v in entry["values"]),
            ): float(entry["weight"])
            for entry in document.get("weights", [])
        }
        balanced = bool(manifest.get("balanced", document.get("balanced")))
        cls = (
            BalancedDeletionPropagationProblem
            if balanced
            else DeletionPropagationProblem
        )
        problem = cls.from_materialized(
            instance,
            queries,
            views,
            deletions,
            weights=weights,
            delta_penalty=float(manifest.get("delta_penalty", 1.0)),
        )

        arena = CompiledProblem.__new__(CompiledProblem)
        arena.problem = problem
        arena.balanced = balanced
        arena.delta_penalty = float(manifest.get("delta_penalty", 1.0))
        arena.facts = facts
        arena.fact_ids = {fact: fid for fid, fact in enumerate(facts)}
        arena.view_tuples = view_tuples
        arena.vt_ids = {vt: vid for vid, vt in enumerate(view_tuples)}
        arena.dep_offsets = slabs["dep_offsets"]
        arena.dep_indices = slabs["dep_indices"]
        arena.wit_offsets = wit_offsets
        arena.wit_indices = wit_indices
        arena.weights = slabs["weights"]
        arena._struct = _StructCache()
        arena._shm = _AttachedSegment(segment, dict(manifest))
        arena._set_delta_flags(slabs["is_delta"])
        arena._bind_delta()
        arena._exact_costs = None
        problem._compiled_arena = arena
        return arena
    except BaseException:
        _close_only(segment, segment.name)
        raise


def _rebuild_rooted(
    arena: CompiledProblem, rooted_doc: Mapping[str, Any]
) -> "list":
    """Reconstruct the pivot-rooted layout from the shipped fact-ID
    arrays — no adjacency construction, no pivot search, no segment
    verification: the exporter's layout is replayed verbatim.

    Segment order matches a local build: segments are appended in arena
    view-tuple ID order, which is exactly the (sorted) insertion order
    of the exporter's witness map.
    """
    from repro.hypergraph.datadual import RootedComponent, Segment

    facts = arena.facts
    parent_ids = rooted_doc["parent"]
    depth_ids = rooted_doc["depth"]
    component_ids = rooted_doc["component"]
    pivots = rooted_doc["pivots"]
    if len(parent_ids) != len(facts):
        raise ShmError(
            f"rooted layout covers {len(parent_ids)} facts, arena has "
            f"{len(facts)}"
        )

    num_components = len(pivots)
    parents: list[dict[Fact, Fact | None]] = [{} for _ in range(num_components)]
    depths: list[dict[Fact, int]] = [{} for _ in range(num_components)]
    children: list[dict[Fact, list[Fact]]] = [
        {} for _ in range(num_components)
    ]
    for fid, cid in enumerate(component_ids):
        if cid < 0:
            continue
        fact = facts[fid]
        pid = parent_ids[fid]
        par = None if pid < 0 else facts[pid]
        parents[cid][fact] = par
        depths[cid][fact] = depth_ids[fid]
        children[cid].setdefault(fact, [])
        if par is not None:
            children[cid].setdefault(par, []).append(fact)

    segments: list[list[Segment]] = [[] for _ in range(num_components)]
    bounds = arena.wit_offsets.tolist()
    flat = arena.wit_indices.tolist()
    for vid, vt in enumerate(arena.view_tuples):
        row = flat[bounds[vid] : bounds[vid + 1]]
        if not row:
            continue
        cid = component_ids[row[0]]
        ordered = sorted(row, key=depth_ids.__getitem__)
        run = tuple(facts[fid] for fid in ordered)
        segments[cid].append(Segment(vt, run[0], run[-1], run))

    return [
        RootedComponent(
            facts[pivots[cid]],
            parents[cid],
            depths[cid],
            children[cid],
            segments[cid],
        )
        for cid in range(num_components)
    ]


def attach_session(manifest: Mapping[str, Any]) -> "SolveSession":
    """Attach to an exported instance and return a ready
    :class:`~repro.core.session.SolveSession`: arena attached, profile
    seeded from the manifest verdicts, and — when Algorithm 4 applies —
    the witness map and the pivot-rooted layout rebuilt from the
    shipped fact-ID arrays (the data dual graph itself stays lazy; no
    route needs its adjacency once the rooting is known)."""
    from repro.core.session import SolveSession, profile_from_dict

    arena = attach_arena(manifest)
    problem = arena.problem
    session = SolveSession.of(problem)
    session.__dict__["arena"] = arena
    session.__dict__["document"] = manifest["document"]
    session.__dict__["content_hash"] = manifest["content_hash"]

    profile_doc = manifest.get("profile")
    if profile_doc is not None:
        session.__dict__["profile"] = profile_from_dict(
            profile_doc, norm_delta_v=problem.norm_delta_v
        )
        if profile_doc["dp_tree_applies"]:
            shared = session._shared
            shared.witness_map = {
                vt: problem.witness(vt) for vt in arena.view_tuples
            }
            rooted_doc = manifest.get("rooted")
            if rooted_doc is not None:
                shared.rooted = _rebuild_rooted(arena, rooted_doc)
            else:  # pragma: no cover - manifests from export_session
                # always carry the layout; fall back to a local search.
                shared.rooted = session.data_dual().rooted_components()
    return session
