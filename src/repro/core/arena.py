"""Compiled witness arena — integer-ID form of a propagation problem.

Every solver in this package is a covering loop over the unique
witnesses guaranteed by key preservation, and after the incremental
:class:`~repro.core.oracle.EliminationOracle` made each move
``O(dependents)``, the remaining constant factor was dominated by
Python object hashing: the dependents were frozensets of
:class:`~repro.relational.views.ViewTuple` and the witnesses frozensets
of :class:`~repro.relational.tuples.Fact`, so every counter lookup paid
a tuple hash.  :class:`CompiledProblem` flattens the whole witness
bipartite structure into dense integer IDs **once**, after which any
number of solving strategies (greedy, local search, the RBSC / PN-PSC
set-cover pipelines, a parallel portfolio) reuse the same arrays —
compile once, solve many.

Memory layout
-------------

* ``facts`` / ``view_tuples`` — the interning tables, ID → object.  IDs
  are assigned **in sorted object order**, so comparing two IDs orders
  exactly like comparing the objects they name; heaps and sorted scans
  over IDs therefore reproduce the object-level iteration order
  move-for-move.
* ``dep_offsets`` / ``dep_indices`` — CSR adjacency fact → dependent
  view tuples: the dependents of fact ``f`` are
  ``dep_indices[dep_offsets[f]:dep_offsets[f + 1]]`` (sorted).
* ``wit_offsets`` / ``wit_indices`` — CSR adjacency view tuple →
  witness facts (the transpose; key preservation makes the two sides of
  the bipartite graph each other's inverse).
* ``weights`` — flat per-view-tuple weight array.
* ``is_delta`` — flat per-view-tuple ΔV membership flags.

The CSR slabs are **read-only numpy buffers** (``np.int32`` adjacency,
``np.float64`` weights, ``np.uint8`` flags): the canonical layout for
the vectorized kernels (batched gathers + segment sums in
:mod:`repro.core.npkernels`), and — being flat, immutable, contiguous
buffers — directly shareable across processes: :meth:`export_shm` /
:meth:`attach_shm` move them onto named ``multiprocessing.shared_memory``
segments so workers *attach* to a compiled instance instead of
re-compiling it (see :mod:`repro.core.shm`).  The scalar move loops
keep allocation-free Python views over the same data: ``dep_of`` /
``wit_of`` are per-row tuples, ``weights_list`` / ``delta_flags`` are a
float tuple / ``bytes`` twin of the flat arrays (iterating small tuples
and indexing ``bytes`` is the fastest loop CPython offers, and numpy
scalar extraction would slow every per-move read).  The numpy slab is
the single source of truth: every scalar twin is a *lazy* view
materialized on first use (and shared by reference across ΔV-sibling
arenas), so the witness structure is stored once, not twice, and an
attached arena pays nothing for loops it never runs.

The object-level API (:class:`~repro.core.problem.DeletionPropagationProblem`,
:class:`~repro.core.solution.Propagation`) remains the public surface;
:meth:`CompiledProblem.fact_of` / :meth:`CompiledProblem.vt_of`
reconstruct objects from IDs on export.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.errors import NotKeyPreservingError
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)

__all__ = ["CandidateSlab", "CompiledProblem", "compile_problem"]


class CandidateSlab(NamedTuple):
    """Flat batch layout of the candidate facts' dependent rows.

    One gather-ready slab per (arena, ΔV) binding: the dependent rows
    of every candidate fact concatenated (``vids``), with the owning
    candidate *position* per slot (``rowid``), the per-candidate
    offsets (``rowptr``), the candidate fact IDs in ascending order
    (``ids``), and the inverse map fact ID → candidate position
    (``pos_of``, ``-1`` for non-candidates).  ``delta`` / ``weights``
    are the per-slot ΔV flags and weights (state-independent gathers
    the batch passes would otherwise redo every call).
    """

    ids: np.ndarray
    rowptr: np.ndarray
    vids: np.ndarray
    rowid: np.ndarray
    pos_of: np.ndarray
    delta: np.ndarray
    weights: np.ndarray


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _StructCache:
    """Lazily materialized scalar twins of the ΔV-independent CSR slabs.

    Shared **by reference** across every ΔV-sibling arena of one
    instance (:meth:`CompiledProblem.rebound`), so whichever binding
    first runs a scalar loop materializes the tuple views for all of
    them — and bindings that only ever run the vectorized kernels never
    materialize them at all.
    """

    __slots__ = ("wit_of", "dep_of", "dep_set_of", "weights_list")

    def __init__(self) -> None:
        self.wit_of: tuple[tuple[int, ...], ...] | None = None
        self.dep_of: tuple[tuple[int, ...], ...] | None = None
        self.dep_set_of: tuple[frozenset[int], ...] | None = None
        self.weights_list: tuple[float, ...] | None = None


def _csr_rows(
    offsets: np.ndarray, indices: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Per-row tuple views of a CSR slab (plain Python ints, so the
    scalar hot loops hash/compare without numpy boxing)."""
    flat = indices.tolist()
    bounds = offsets.tolist()
    return tuple(
        tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])
    )


class CompiledProblem:
    """Integer-ID witness arena for one key-preserving problem.

    Built in one pass over the problem's witness structure; immutable
    afterwards.  Use :meth:`CompiledProblem.of` to share one compile
    across every solver touching the same problem.
    """

    __slots__ = (
        "problem",
        "facts",
        "fact_ids",
        "view_tuples",
        "vt_ids",
        "dep_offsets",
        "dep_indices",
        "wit_offsets",
        "wit_indices",
        "weights",
        "is_delta",
        "delta_flags",
        "delta_mask",
        "delta_ids_np",
        "candidate_ids_np",
        "num_delta",
        "balanced",
        "delta_penalty",
        "_struct",
        "_delta_ids",
        "_preserved_ids",
        "_candidate_ids",
        "_cand_slab",
        "_exact_costs",
        "_shm",
    )

    def __init__(self, problem: DeletionPropagationProblem):
        if not problem.is_key_preserving():
            raise NotKeyPreservingError(
                "the witness arena requires key-preserving queries "
                "(unique witnesses)"
            )
        self.problem = problem
        self.balanced = isinstance(problem, BalancedDeletionPropagationProblem)
        self.delta_penalty = float(getattr(problem, "delta_penalty", 1.0))

        # Interning tables in sorted order so ID order == object order.
        self.facts: tuple[Fact, ...] = tuple(sorted(problem.instance.facts()))
        self.fact_ids: dict[Fact, int] = {
            fact: fid for fid, fact in enumerate(self.facts)
        }
        self.view_tuples: tuple[ViewTuple, ...] = tuple(
            problem.all_view_tuples()  # already sorted by ViewSet
        )
        self.vt_ids: dict[ViewTuple, int] = {
            vt: vid for vid, vt in enumerate(self.view_tuples)
        }

        num_facts = len(self.facts)

        # One pass over the unique witnesses builds both CSR sides.
        weight_values: list[float] = []
        delta_flags = bytearray(len(self.view_tuples))
        witness_ids: list[list[int]] = []
        dep_lists: list[list[int]] = [[] for _ in range(num_facts)]
        deletion = problem.deletion
        weight = problem.weight
        fact_ids = self.fact_ids
        for vid, vt in enumerate(self.view_tuples):
            weight_values.append(weight(vt))
            if vt in deletion:
                delta_flags[vid] = 1
            wit = sorted(fact_ids[fact] for fact in problem.witness(vt))
            witness_ids.append(wit)
            for fid in wit:
                dep_lists[fid].append(vid)

        self.weights = _readonly(np.asarray(weight_values, dtype=np.float64))
        self.wit_offsets, self.wit_indices = _csr(witness_ids)
        self.dep_offsets, self.dep_indices = _csr(dep_lists)
        # Scalar tuple views over the CSR slabs are *lazy* (see
        # _StructCache) — the flat arrays are the only eager store.
        self._struct = _StructCache()
        self._shm = None

        self._set_delta_flags(bytes(delta_flags))
        self._bind_delta()
        self._exact_costs: bool | None = None

    @property
    def exact_costs(self) -> bool:
        """Whether every objective value any solver can compute over
        this arena is exact in ``float64``.

        True when the weights and the ΔV penalty are non-negative
        integers whose largest reachable aggregate stays below
        ``2**52``: integer float64 arithmetic never rounds there, so
        *every* association of a cost computation — scalar fold or
        vectorized broadcast — yields the identical bit pattern.  The
        batch kernels use this to decide swap accepts straight from the
        vectorized cost matrix instead of re-running near-ties through
        the scalar trial.  Computed lazily, cached per binding.
        """
        cached = self._exact_costs
        if cached is None:
            weights = self.weights
            penalty = self.delta_penalty
            reach = float(weights.sum()) + (abs(penalty) + 1.0) * (
                self.num_view_tuples + 1
            )
            cached = bool(
                penalty.is_integer()
                and penalty >= 0.0
                and reach < 2.0**52
                and bool(np.all(np.floor(weights) == weights))
                and bool(np.all(weights >= 0.0))
            )
            self._exact_costs = cached
        return cached

    def _set_delta_flags(self, flags: "bytes | np.ndarray") -> None:
        """Install the per-view-tuple ΔV flags from either a ``bytes``
        string (local compile / rebind) or a ``np.uint8`` array (a
        shared-memory view on attach) — the other representation is
        derived, so both stores stay in lock-step."""
        if isinstance(flags, np.ndarray):
            self.is_delta = flags
            self.delta_flags = flags.tobytes()
        else:
            self.delta_flags = flags
            self.is_delta = np.frombuffer(flags, dtype=np.uint8)
        self.delta_mask = _readonly(self.is_delta.view(bool))

    def _bind_delta(self) -> None:
        """Derive the ΔV slices (``delta_ids_np`` / ``candidate_ids_np``
        / ``num_delta``) from ``is_delta`` as batch numpy operations.
        Shared by the full compile, the O(‖ΔV‖) rebind, and the
        shared-memory attach; the tuple twins reset to lazy."""
        mask = self.delta_mask
        self.delta_ids_np = _readonly(np.flatnonzero(mask))
        self.num_delta = int(self.delta_ids_np.size)
        witness_lengths = np.diff(self.wit_offsets)
        slot_is_delta = np.repeat(mask, witness_lengths)
        self.candidate_ids_np = _readonly(
            np.unique(self.wit_indices[slot_is_delta]).astype(np.int64)
        )
        self._delta_ids: tuple[int, ...] | None = None
        self._preserved_ids: tuple[int, ...] | None = None
        self._candidate_ids: tuple[int, ...] | None = None
        self._cand_slab: CandidateSlab | None = None

    # ------------------------------------------------------------------
    # Lazy scalar twins (single source of truth: the numpy slabs)
    # ------------------------------------------------------------------

    @property
    def wit_of(self) -> tuple[tuple[int, ...], ...]:
        """Per-row tuple views of the vt → witness CSR (lazy, shared
        across ΔV siblings)."""
        cached = self._struct.wit_of
        if cached is None:
            cached = self._struct.wit_of = _csr_rows(
                self.wit_offsets, self.wit_indices
            )
        return cached

    @property
    def dep_of(self) -> tuple[tuple[int, ...], ...]:
        """Per-row tuple views of the fact → dependents CSR (lazy,
        shared across ΔV siblings)."""
        cached = self._struct.dep_of
        if cached is None:
            cached = self._struct.dep_of = _csr_rows(
                self.dep_offsets, self.dep_indices
            )
        return cached

    @property
    def dep_set_of(self) -> tuple[frozenset[int], ...]:
        """Frozen membership views of the dependent rows for the swap
        hypotheticals (``vid in dep(replacement)``) — built once so no
        per-trial set churn."""
        cached = self._struct.dep_set_of
        if cached is None:
            cached = self._struct.dep_set_of = tuple(
                frozenset(row) for row in self.dep_of
            )
        return cached

    @property
    def weights_list(self) -> tuple[float, ...]:
        """Float-tuple twin of ``weights`` for the scalar loops."""
        cached = self._struct.weights_list
        if cached is None:
            cached = self._struct.weights_list = tuple(self.weights.tolist())
        return cached

    @property
    def delta_ids(self) -> tuple[int, ...]:
        """ΔV view-tuple IDs, ascending (tuple twin of
        ``delta_ids_np``)."""
        cached = self._delta_ids
        if cached is None:
            cached = self._delta_ids = tuple(self.delta_ids_np.tolist())
        return cached

    @property
    def preserved_ids(self) -> tuple[int, ...]:
        """Non-ΔV view-tuple IDs, ascending."""
        cached = self._preserved_ids
        if cached is None:
            cached = self._preserved_ids = tuple(
                np.flatnonzero(~self.delta_mask).tolist()
            )
        return cached

    @property
    def candidate_ids(self) -> tuple[int, ...]:
        """Facts occurring in some ΔV witness, ascending (tuple twin of
        ``candidate_ids_np``)."""
        cached = self._candidate_ids
        if cached is None:
            cached = self._candidate_ids = tuple(
                self.candidate_ids_np.tolist()
            )
        return cached

    def candidate_slab(self) -> CandidateSlab:
        """The (lazily built, per-binding cached) flat batch layout of
        the candidate facts' dependent rows (see :class:`CandidateSlab`).
        ΔV-dependent — rebuilt by :meth:`rebound`, not shared."""
        slab = self._cand_slab
        if slab is None:
            from repro.core.npkernels import concat_rows

            ids = self.candidate_ids_np
            vids, rowid, rowptr = concat_rows(
                self.dep_offsets, self.dep_indices, ids
            )
            pos_of = np.full(len(self.facts), -1, dtype=np.int64)
            pos_of[ids] = np.arange(ids.size, dtype=np.int64)
            slab = CandidateSlab(
                ids=ids,
                rowptr=_readonly(rowptr),
                vids=_readonly(vids),
                rowid=_readonly(rowid),
                pos_of=_readonly(pos_of),
                delta=_readonly(self.delta_mask[vids]),
                weights=_readonly(self.weights[vids]),
            )
            self._cand_slab = slab
        return slab

    def rebound(self, problem: DeletionPropagationProblem) -> "CompiledProblem":
        """A sibling arena for ``problem`` — the same instance/queries
        with a different ΔV — sharing every ΔV-independent array.

        The interning tables, both CSR adjacency sides, the per-row
        tuple views, and the weights carry over by reference; only the
        ``is_delta`` flags and the delta/candidate slices are rebuilt,
        so re-binding a request against a compiled base costs
        O(‖V‖ + ‖ΔV‖) instead of a full recompile.  :meth:`of` calls it
        lazily for a
        :meth:`~repro.core.problem.DeletionPropagationProblem.with_deletions`
        sibling.
        """
        if problem.views is not self.problem.views:
            raise ValueError(
                "rebound() requires a problem sharing this arena's "
                "materialized views (use with_deletions)"
            )
        clone = object.__new__(CompiledProblem)
        clone.problem = problem
        clone.balanced = isinstance(problem, BalancedDeletionPropagationProblem)
        clone.delta_penalty = float(getattr(problem, "delta_penalty", 1.0))
        # ΔV-independent structure: shared by reference.
        clone.facts = self.facts
        clone.fact_ids = self.fact_ids
        clone.view_tuples = self.view_tuples
        clone.vt_ids = self.vt_ids
        clone.dep_offsets = self.dep_offsets
        clone.dep_indices = self.dep_indices
        clone.wit_offsets = self.wit_offsets
        clone.wit_indices = self.wit_indices
        clone.weights = self.weights
        # The lazy scalar-twin cache is shared *by reference*: whichever
        # sibling materializes a tuple view first shares it with all.
        clone._struct = self._struct
        clone._shm = self._shm
        # ΔV slices: rebuilt from the new deletion.
        flags = bytearray(len(self.view_tuples))
        vt_ids = self.vt_ids
        for vt in problem.deleted_view_tuples():
            flags[vt_ids[vt]] = 1
        clone._set_delta_flags(bytes(flags))
        clone._bind_delta()
        # Exactness depends only on the (shared) weights and the
        # penalty — carry the verdict over when the penalty matches.
        clone._exact_costs = (
            self._exact_costs
            if clone.delta_penalty == self.delta_penalty
            else None
        )
        return clone

    # ------------------------------------------------------------------
    # Shared-memory export / attach (see :mod:`repro.core.shm`)
    # ------------------------------------------------------------------

    def export_shm(self) -> dict:
        """Publish this arena's flat slabs into one named
        ``multiprocessing.shared_memory`` segment and return the JSON
        manifest other processes pass to :meth:`attach_shm`.

        Idempotent per arena: repeated calls return the same manifest /
        segment.  The calling process owns the segment; it is closed and
        unlinked when the arena (and every ΔV sibling sharing the
        handle) is garbage collected, or eagerly via
        :func:`repro.core.shm.release_arena`.
        """
        from repro.core.shm import export_arena

        return export_arena(self)

    @classmethod
    def attach_shm(cls, manifest: dict) -> "CompiledProblem":
        """Attach to an arena exported by :meth:`export_shm` in another
        process — bitwise-identical slabs, zero compile work.  The
        returned arena holds a read-only attachment; the exporting
        process retains ownership of the segment's lifetime.
        """
        from repro.core.shm import attach_arena

        return attach_arena(manifest)

    # ------------------------------------------------------------------
    # Shared-compile cache
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, problem: DeletionPropagationProblem) -> "CompiledProblem":
        """The (cached) compiled form of ``problem`` — every solver that
        asks for the same problem gets the same arena.  A
        :meth:`~repro.core.problem.DeletionPropagationProblem.with_deletions`
        sibling is :meth:`rebound` from the arena it recorded, on this
        first request, instead of compiled."""
        compiled = getattr(problem, "_compiled_arena", None)
        if compiled is None or compiled.problem is not problem:
            base = getattr(problem, "_arena_base", None)
            compiled = cls(problem) if base is None else base.rebound(problem)
            problem._compiled_arena = compiled
        return compiled

    # ------------------------------------------------------------------
    # ID ↔ object translation (export surface)
    # ------------------------------------------------------------------

    @property
    def num_facts(self) -> int:
        return len(self.facts)

    @property
    def num_view_tuples(self) -> int:
        return len(self.view_tuples)

    def fact_id(self, fact: Fact) -> int:
        return self.fact_ids[fact]

    def fact_of(self, fid: int) -> Fact:
        return self.facts[fid]

    def vt_id(self, vt: ViewTuple) -> int:
        return self.vt_ids[vt]

    def vt_of(self, vid: int) -> ViewTuple:
        return self.view_tuples[vid]

    def facts_of(self, fids: Iterable[int]) -> list[Fact]:
        facts = self.facts
        return [facts[fid] for fid in fids]

    def vts_of(self, vids: Iterable[int]) -> list[ViewTuple]:
        vts = self.view_tuples
        return [vts[vid] for vid in vids]

    def dependent_ids(self, fid: int) -> tuple[int, ...]:
        """View-tuple IDs whose unique witness contains fact ``fid``."""
        return self.dep_of[fid]

    def witness_ids(self, vid: int) -> tuple[int, ...]:
        """Fact IDs of the unique witness of view tuple ``vid``."""
        return self.wit_of[vid]

    def __repr__(self) -> str:
        return (
            f"CompiledProblem(|D|={self.num_facts}, "
            f"‖V‖={self.num_view_tuples}, ‖ΔV‖={self.num_delta}, "
            f"nnz={len(self.dep_indices)})"
        )


def _csr(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack a list of index rows into read-only ``np.int32``
    (offsets, indices) CSR buffers."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    indices = np.asarray(
        [index for row in rows for index in row], dtype=np.int32
    )
    return _readonly(offsets), _readonly(indices)


def compile_problem(problem: DeletionPropagationProblem) -> CompiledProblem:
    """Compile ``problem`` into a fresh integer-ID witness arena (see
    :meth:`CompiledProblem.of` for the shared, cached variant)."""
    return CompiledProblem(problem)
