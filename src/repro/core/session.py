"""Compile-once solve context — one :class:`SolveSession` per instance.

Before this module existed every ``registry.solve`` call re-ran the
structural scans (``is_key_preserving`` / ``is_forest_case`` /
``is_self_join_free`` / ``dp_tree`` applicability) and every route
re-derived the witness artifacts the compiled arena already holds: the
primal-dual route rebuilt the data dual graph, the LowDeg sweep rebuilt
it once *per τ*, and the set-cover pipelines re-sliced red/blue element
arrays per call.  A :class:`SolveSession` is built once per problem
instance and owns all of it:

* the :class:`~repro.core.arena.CompiledProblem` integer-ID witness
  arena (compiled on first demand, shared with every solver);
* a :class:`StructureProfile` — every structural predicate and size
  norm the route table dispatches on, each computed exactly once;
* memoized solve artifacts: the witness map, the rooted data dual
  layout (Algorithms 1/3/4), the ΔV candidates' preserved dependents
  (Algorithms 1–3), and the RBSC / PN-PSC covering reductions with red/blue
  slices taken from the arena's flat int-ID arrays.

Sessions are cached on the problem (:meth:`SolveSession.of`), so any
number of solver routes, portfolio strategies, statistics calls, and
verification passes share one compile.  Re-binding a new ΔV against the
same instance (:meth:`SolveSession.rebind`) clones only the
ΔV-dependent slices: the interning tables, CSR adjacency, structure
profile flags, rooted components, Algorithm 4's DP tables and the trace
key carry over untouched — this is the batch hot path of
:func:`repro.core.portfolio.run_delta_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, TYPE_CHECKING

from repro.errors import (
    NotKeyPreservingError,
    QueryError,
    StructureError,
)
from repro.relational.tuples import Fact
from repro.relational.views import ViewTuple
from repro.core.arena import CompiledProblem
from repro.core.resilience import Deadline, active_deadline
from repro.core.problem import (
    BalancedDeletionPropagationProblem,
    DeletionPropagationProblem,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.hypergraph.datadual import DataDualGraph, RootedComponent
    from repro.lp.ilp import CompiledILP
    from repro.reductions.to_setcover import SetCoverReduction

__all__ = [
    "SolveSession",
    "StructureProfile",
    "profile_from_dict",
    "profile_to_dict",
]


@dataclass(frozen=True)
class StructureProfile:
    """Every structural fact the route table dispatches on, computed
    exactly once per session.

    All fields except ``norm_delta_v`` (and the derived
    :attr:`empty_delta`) depend only on the queries and the source
    instance, so a ΔV rebind copies them verbatim.

    The Tables II–V classifier flags (``head_domination`` through
    ``hierarchical``) ride along from the same scan, so
    :mod:`repro.core.classify` and the dispatcher share one source of
    truth; ``None`` marks a flag that is undefined for the query set
    (multiple queries, self-joins, or an analysis outside its class).
    """

    key_preserving: bool
    self_join_free: bool
    project_free: bool
    single_query: bool
    forest_case: bool
    dp_tree_applies: bool
    balanced: bool
    max_arity: int  #: the paper's ``l``
    norm_v: int  #: ``‖V‖``
    norm_delta_v: int  #: ``‖ΔV‖``
    # Tables II–V classifier flags (single-query sj-free analyses).
    head_domination: bool | None = None
    fd_head_domination: bool | None = None
    triad: bool | None = None
    fd_induced_triad: bool | None = None
    hierarchical: bool | None = None

    @property
    def empty_delta(self) -> bool:
        return self.norm_delta_v == 0

    def as_dict(self) -> dict[str, object]:
        return {
            "key_preserving": self.key_preserving,
            "self_join_free": self.self_join_free,
            "project_free": self.project_free,
            "single_query": self.single_query,
            "forest_case": self.forest_case,
            "dp_tree_applies": self.dp_tree_applies,
            "balanced": self.balanced,
            "l": self.max_arity,
            "norm_v": self.norm_v,
            "norm_delta_v": self.norm_delta_v,
            "head_domination": self.head_domination,
            "fd_head_domination": self.fd_head_domination,
            "triad": self.triad,
            "fd_induced_triad": self.fd_induced_triad,
            "hierarchical": self.hierarchical,
        }

    def classification_flags(self) -> dict[str, bool | None]:
        """The profile rephrased as the classifier's flag dictionary
        (the shape :func:`repro.relational.analysis.query_set_flags`
        produces) — ``forest_case`` here is the paper's *algorithmic*
        forest case (key-preserving and forest structure), while the
        profile field carries the raw structural test."""
        return {
            "multiple_queries": not self.single_query,
            "project_free": self.project_free,
            "self_join_free": self.self_join_free,
            "key_preserving": self.key_preserving,
            "forest_structure": self.forest_case,
            "forest_case": self.key_preserving and self.forest_case,
            "head_domination": self.head_domination,
            "fd_head_domination": self.fd_head_domination,
            "triad": self.triad,
            "fd_induced_triad": self.fd_induced_triad,
            "hierarchical": self.hierarchical,
        }


#: Profile fields serialized by :func:`profile_to_dict`, in order.
_PROFILE_BOOL_FIELDS = (
    "key_preserving",
    "self_join_free",
    "project_free",
    "single_query",
    "forest_case",
    "dp_tree_applies",
    "balanced",
)
_PROFILE_FLAG_FIELDS = (
    "head_domination",
    "fd_head_domination",
    "triad",
    "fd_induced_triad",
    "hierarchical",
)


def profile_to_dict(profile: StructureProfile) -> dict[str, object]:
    """Serialize a profile for problem documents and shm manifests
    (field names verbatim, unlike :meth:`StructureProfile.as_dict`'s
    display key ``l``)."""
    doc: dict[str, object] = {
        name: getattr(profile, name) for name in _PROFILE_BOOL_FIELDS
    }
    doc["max_arity"] = profile.max_arity
    doc["norm_v"] = profile.norm_v
    doc["norm_delta_v"] = profile.norm_delta_v
    for name in _PROFILE_FLAG_FIELDS:
        doc[name] = getattr(profile, name)
    return doc


def profile_from_dict(
    doc: Mapping[str, object], norm_delta_v: int | None = None
) -> StructureProfile:
    """Rebuild a :class:`StructureProfile` from :func:`profile_to_dict`
    output.  Documents written before the classifier flags existed load
    with those flags ``None`` (undefined, never wrong).  ``norm_delta_v``
    overrides the stored value — attachers pass their own ΔV binding."""

    def flag(name: str) -> bool | None:
        value = doc.get(name)
        return None if value is None else bool(value)

    return StructureProfile(
        key_preserving=bool(doc["key_preserving"]),
        self_join_free=bool(doc["self_join_free"]),
        project_free=bool(doc["project_free"]),
        single_query=bool(doc["single_query"]),
        forest_case=bool(doc["forest_case"]),
        dp_tree_applies=bool(doc["dp_tree_applies"]),
        balanced=bool(doc["balanced"]),
        max_arity=int(doc["max_arity"]),
        norm_v=int(doc["norm_v"]),
        norm_delta_v=int(
            doc.get("norm_delta_v", 0) if norm_delta_v is None else norm_delta_v
        ),
        head_domination=flag("head_domination"),
        fd_head_domination=flag("fd_head_domination"),
        triad=flag("triad"),
        fd_induced_triad=flag("fd_induced_triad"),
        hierarchical=flag("hierarchical"),
    )


_UNSET = object()


def _crc_fingerprint(problem: DeletionPropagationProblem) -> str:
    """CRC over the query texts and size norms: the trace key of an
    instance whose document was never serialized."""
    import zlib

    shape = "|".join(sorted(repr(q) for q in problem.queries))
    digest = zlib.crc32(
        f"{shape}#{problem.norm_v}#{len(problem.instance)}".encode()
    )
    return f"crc32:{digest:08x}"


class _InstanceArtifacts:
    """ΔV-independent solve artifacts of one compiled instance.

    Held by reference by every session bound to the same instance
    (the base and all of its ``with_deletions`` rebinds), so whichever
    sibling builds the witness map, the data dual graph, its depths, or
    the pivot rooting first builds it for all of them.
    """

    __slots__ = (
        "witness_map",
        "data_dual",
        "dual_depths",
        "rooted",
        "component_index",
        "dp_tables",
        "ilp_incidence",
        "trace_key",
    )

    def __init__(self) -> None:
        self.witness_map: Mapping[ViewTuple, frozenset[Fact]] | None = None
        self.data_dual: "DataDualGraph | None" = None
        self.dual_depths: dict[Fact, int] | None = None
        self.rooted: "list[RootedComponent] | object" = _UNSET
        self.component_index: dict[ViewTuple, int] | None = None
        #: Algorithm 4's index tables, one per rooted component, compiled
        #: the first time a request touches it (see
        #: :mod:`repro.core.dp_tree`).
        self.dp_tables: dict["RootedComponent", object] = {}
        self.trace_key: str | None = None
        #: Full vt × fact witness incidence as a scipy csr_matrix over
        #: the arena slabs (see :func:`repro.lp.ilp.witness_incidence`)
        #: — ΔV-independent, so siblings share one build.
        self.ilp_incidence: object | None = None


class SolveSession:
    """One problem instance, compiled once, solved many ways.

    Use :meth:`SolveSession.of` — it caches the session on the problem
    so every route, portfolio strategy, and statistics call shares the
    same artifacts.  Direct construction is only for tests that need an
    uncached session.
    """

    def __init__(
        self,
        problem: DeletionPropagationProblem,
        shared: _InstanceArtifacts | None = None,
    ):
        self.problem = problem
        # ΔV-independent artifacts live in a holder shared by reference
        # across every rebind of the same instance.
        self._shared = shared if shared is not None else _InstanceArtifacts()
        # ΔV-dependent memos: per-session.
        self._rbsc: "SetCoverReduction | None" = None
        self._posneg: "SetCoverReduction | None" = None
        self._ilp: "CompiledILP | None" = None

    # ------------------------------------------------------------------
    # Construction / caching
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, problem: DeletionPropagationProblem) -> "SolveSession":
        """The (cached) session of ``problem``.

        A problem produced by
        :meth:`~repro.core.problem.DeletionPropagationProblem.with_deletions`
        carries a pointer to its base problem's session; the first
        ``of`` call on such a clone derives a rebound session instead
        of recomputing the instance-level artifacts from scratch.
        """
        session = getattr(problem, "_solve_session", None)
        if session is not None and session.problem is problem:
            return session
        base = getattr(problem, "_session_base", None)
        if (
            base is not None
            and base.problem.views is problem.views
            and type(base.problem) is type(problem)
        ):
            session = base._rebound_to(problem)
        else:
            session = cls(problem)
        problem._solve_session = session
        return session

    def rebind(
        self, deletions: Mapping[str, Iterable[tuple]]
    ) -> "SolveSession":
        """A sibling session over the same compiled instance with a
        different ΔV.

        Costs O(‖ΔV‖): the views, witness arena arrays, structure
        flags, and rooted data dual layout are shared; only the
        ΔV-dependent memos are rebuilt, and the arena's ΔV slices
        (``is_delta`` / ``delta_ids`` / ``candidate_ids``, O(‖V‖ +
        ‖ΔV‖)) only when a solver first asks for the arena.
        """
        return SolveSession.of(self.problem.with_deletions(deletions))

    def _rebound_to(
        self, problem: DeletionPropagationProblem
    ) -> "SolveSession":
        """A session for a rebound problem variant (``problem`` shares
        this session's views), sharing the ΔV-independent artifact
        holder by reference."""
        clone = SolveSession(problem, shared=self._shared)
        if "profile" in self.__dict__:
            clone.__dict__["profile"] = replace(
                self.profile, norm_delta_v=problem.norm_delta_v
            )
        return clone

    # ------------------------------------------------------------------
    # Serialization / shared-memory export
    # ------------------------------------------------------------------

    @cached_property
    def document(self) -> dict:
        """The problem's JSON document
        (:func:`repro.io.serialize.problem_to_dict`), serialized exactly
        once per session — the portfolio/batch layers and the shm
        manifest all read this instead of re-serializing per call."""
        from repro.io.serialize import problem_to_dict

        return problem_to_dict(self.problem)

    @cached_property
    def content_hash(self) -> str:
        """sha256 content address of :attr:`document` — the key an
        instance registers under in :mod:`repro.serve`."""
        from repro.core.shm import document_hash

        return document_hash(self.document)

    @property
    def trace_key(self) -> str:
        """A cheap instance fingerprint for trace-store records, fixed
        once per instance on the shared holder.

        A ``with_deletions`` sibling reports its base session's key, so
        every request on a served instance is filed under the base's
        :attr:`content_hash` — its registration id.  A session prefers
        that exact hash when its document has already been serialized
        (serve / portfolio paths); otherwise it takes a CRC over the
        query texts and size norms, never forcing a full document
        serialization onto the solve hot path."""
        shared = self._shared
        if shared.trace_key is None:
            origin = getattr(self.problem, "_session_base", None) or self
            if (
                "content_hash" in origin.__dict__
                or "document" in origin.__dict__
            ):
                shared.trace_key = origin.content_hash
            else:
                shared.trace_key = _crc_fingerprint(origin.problem)
        return shared.trace_key

    def export_shm(self) -> dict:
        """Publish the compiled arena into a named shared-memory segment
        (profile verdicts and pivot hints riding along) and return the
        manifest workers pass to :func:`repro.core.shm.attach_session`.
        Idempotent; this process owns the segment until :meth:`close`."""
        from repro.core.shm import export_session

        return export_session(self)

    def close(self) -> None:
        """Release this session's shared-memory segment, if any was
        exported (owners unlink it, attachers just close).  The session
        and its arena remain usable afterwards — solves fall back to the
        local heap arrays only if the arena never moved to shm; an
        *attached* session must not be used after ``close``."""
        from repro.core.shm import release_arena

        arena = self.__dict__.get("arena")
        if arena is None:
            arena = getattr(self.problem, "_compiled_arena", None)
        if arena is not None:
            release_arena(arena)

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------

    @property
    def deadline(self) -> Deadline | None:
        """The ambient per-request :class:`Deadline` (installed by
        :func:`repro.core.resilience.deadline_scope`), or ``None``.

        Solver hot loops read this once at entry and keep the object in
        a local, so the no-deadline fast path stays unchanged.
        """
        return active_deadline()

    def checkpoint(
        self, incumbent: object | None = None, what: str = "solve"
    ) -> None:
        """Cooperative deadline checkpoint: raises
        :class:`~repro.errors.DeadlineExceededError` (carrying
        ``incumbent``) when the ambient deadline has expired."""
        deadline = active_deadline()
        if deadline is not None:
            deadline.check(incumbent=incumbent, what=what)

    # ------------------------------------------------------------------
    # Structure profile
    # ------------------------------------------------------------------

    @cached_property
    def profile(self) -> StructureProfile:
        """The problem's structural profile, computed exactly once.

        A problem document that shipped with a cached ``profile`` block
        (:func:`repro.io.serialize.problem_from_dict`) skips the
        structural scan entirely — the hint is trusted only after its
        size norms match the parsed problem, so a stale or hand-edited
        document degrades to a fresh scan, never to a wrong profile.
        """
        problem = self.problem
        hinted = self._profile_from_hint()
        if hinted is not None:
            return hinted
        from repro.relational.analysis import query_set_flags

        flags = query_set_flags(problem.queries)
        key_preserving = bool(flags["key_preserving"])
        forest_case = bool(flags["forest_structure"])
        # Algorithm 4 applicability: attempt the pivot rooting exactly
        # as dp_tree's probe used to, seeding the session memos so the
        # attempt is never repeated.  (The memos are seeded directly —
        # not via data_dual() — because that accessor reads this
        # property, which is still being computed.)
        dp_tree_applies = False
        if key_preserving and forest_case:
            shared = self._shared
            try:
                if shared.witness_map is None:
                    shared.witness_map = {
                        vt: problem.witness(vt)
                        for vt in problem.all_view_tuples()
                    }
                if shared.data_dual is None:
                    from repro.hypergraph.datadual import DataDualGraph

                    shared.data_dual = DataDualGraph(
                        dict(shared.witness_map), problem.queries
                    )
                self.rooted_components()
            except (StructureError, NotKeyPreservingError, QueryError):
                dp_tree_applies = False
            else:
                dp_tree_applies = True
        return StructureProfile(
            key_preserving=key_preserving,
            self_join_free=bool(flags["self_join_free"]),
            project_free=bool(flags["project_free"]),
            single_query=not flags["multiple_queries"],
            forest_case=forest_case,
            dp_tree_applies=dp_tree_applies,
            balanced=isinstance(
                problem, BalancedDeletionPropagationProblem
            ),
            max_arity=problem.max_arity,
            norm_v=problem.norm_v,
            norm_delta_v=problem.norm_delta_v,
            head_domination=flags["head_domination"],
            fd_head_domination=flags["fd_head_domination"],
            triad=flags["triad"],
            fd_induced_triad=flags["fd_induced_triad"],
            hierarchical=flags["hierarchical"],
        )

    def _profile_from_hint(self) -> StructureProfile | None:
        """The document-cached profile, validated against the parsed
        problem, or ``None`` (missing or untrustworthy hint)."""
        hint = getattr(self.problem, "_profile_hint", None)
        if not isinstance(hint, Mapping):
            return None
        try:
            rebuilt = profile_from_dict(
                hint, norm_delta_v=self.problem.norm_delta_v
            )
        except (KeyError, TypeError, ValueError):
            return None
        problem = self.problem
        if (
            rebuilt.norm_v != problem.norm_v
            or rebuilt.max_arity != problem.max_arity
            or rebuilt.balanced
            != isinstance(problem, BalancedDeletionPropagationProblem)
            or rebuilt.single_query != (len(problem.queries) == 1)
        ):
            return None
        return rebuilt

    # ------------------------------------------------------------------
    # Compiled arena
    # ------------------------------------------------------------------

    @cached_property
    def arena(self) -> CompiledProblem:
        """The shared integer-ID witness arena (raises
        :class:`~repro.errors.NotKeyPreservingError` outside the
        key-preserving class)."""
        return CompiledProblem.of(self.problem)

    # ------------------------------------------------------------------
    # Witness structure (delegating to the problem's caches)
    # ------------------------------------------------------------------

    def witness(self, vt: ViewTuple) -> frozenset[Fact]:
        return self.problem.witness(vt)

    def witnesses(self, vt: ViewTuple) -> list[frozenset[Fact]]:
        return self.problem.witnesses(vt)

    def dependents(self, fact: Fact) -> frozenset[ViewTuple]:
        return self.problem.dependents(fact)

    def candidate_facts(self) -> tuple[Fact, ...]:
        return self.problem.candidate_facts()

    def weight(self, vt: ViewTuple) -> float:
        return self.problem.weight(vt)

    def deleted_view_tuples(self) -> list[ViewTuple]:
        return self.problem.deleted_view_tuples()

    def preserved_view_tuples(self) -> list[ViewTuple]:
        return self.problem.preserved_view_tuples()

    def witness_map(self) -> Mapping[ViewTuple, frozenset[Fact]]:
        """``{vt: wit(vt)}`` over all view tuples (key-preserving only;
        ΔV-independent, shared across rebinds)."""
        shared = self._shared
        if shared.witness_map is None:
            problem = self.problem
            if not self.profile.key_preserving:
                raise NotKeyPreservingError(
                    "the witness map requires key-preserving queries "
                    "(unique witnesses)"
                )
            shared.witness_map = {
                vt: problem.witness(vt) for vt in problem.all_view_tuples()
            }
        return shared.witness_map

    # ------------------------------------------------------------------
    # Forest-case artifacts (Algorithms 1 / 3 / 4)
    # ------------------------------------------------------------------

    def data_dual(self) -> "DataDualGraph":
        """The data dual graph over the unique witnesses (memoized;
        defined for key-preserving forest-case sj-free inputs)."""
        shared = self._shared
        if shared.data_dual is None:
            from repro.hypergraph.datadual import DataDualGraph

            profile = self.profile
            if shared.data_dual is not None:
                # Computing the profile just seeded the graph (the
                # Algorithm 4 applicability probe builds it).
                return shared.data_dual
            if not profile.key_preserving:
                raise NotKeyPreservingError(
                    "the data dual graph requires key-preserving queries"
                )
            if not profile.forest_case:
                raise StructureError(
                    "the data dual graph requires the forest case (dual "
                    "hypergraph components must be hypertrees)"
                )
            shared.data_dual = DataDualGraph(
                dict(self.witness_map()), self.problem.queries
            )
        return shared.data_dual

    def dual_depths(self) -> dict[Fact, int]:
        """Depths of every fact with each data dual component rooted at
        its smallest fact (Algorithm 1's processing order; memoized)."""
        shared = self._shared
        if shared.dual_depths is None:
            graph = self.data_dual()
            depth: dict[Fact, int] = {}
            for component in graph.components():
                root = min(component)
                depth[root] = 0
                stack = [root]
                while stack:
                    node = stack.pop()
                    for nb in sorted(graph.neighbors(node)):
                        if nb not in depth:
                            depth[nb] = depth[node] + 1
                            stack.append(nb)
            shared.dual_depths = depth
        return shared.dual_depths

    def rooted_components(self) -> "list[RootedComponent]":
        """Algorithm 4's pivot-rooted layout (memoized — including the
        negative answer, so ``dp_tree_applies`` probes don't redo the
        pivot search)."""
        shared = self._shared
        if shared.rooted is _UNSET:
            try:
                shared.rooted = self.data_dual().rooted_components()
            except (StructureError, NotKeyPreservingError, QueryError) as exc:
                shared.rooted = exc
        if isinstance(shared.rooted, Exception):
            raise shared.rooted
        return shared.rooted

    def dp_tables(self) -> dict:
        """Algorithm 4's compiled index tables, keyed by rooted
        component (filled lazily by :mod:`repro.core.dp_tree`; shared
        with every ΔV sibling of this instance)."""
        return self._shared.dp_tables

    def component_index(self) -> dict[ViewTuple, int]:
        """View tuple → position of its component in
        :meth:`rooted_components` (memoized on the shared holder, so
        ΔV siblings and shm-attached sessions build it once per
        instance).  Algorithm 4 reads it to visit only the components
        holding a ΔV tuple."""
        shared = self._shared
        if shared.component_index is None:
            shared.component_index = {
                segment.view_tuple: cid
                for cid, component in enumerate(self.rooted_components())
                for segment in component.segments
            }
        return shared.component_index

    # ------------------------------------------------------------------
    # ΔV candidate index (Algorithms 1–3)
    # ------------------------------------------------------------------

    @cached_property
    def preserved_dependents(self) -> dict[Fact, tuple[ViewTuple, ...]]:
        """For every ΔV candidate fact: the preserved view tuples whose
        witness contains it, ascending — all of R that Algorithms 1–3
        read (ΔV-dependent, so memoized per session)."""
        problem = self.problem
        delta = frozenset(problem.deleted_view_tuples())
        return {
            fact: tuple(sorted(problem.dependents(fact) - delta))
            for fact in problem.candidate_facts()
        }

    def preserved_degree(self) -> dict[Fact, int]:
        """Every ΔV candidate fact's number of preserved dependents
        (Algorithm 2's τ-threshold quantity)."""
        return {f: len(vts) for f, vts in self.preserved_dependents.items()}

    @cached_property
    def wide_tuple_weights(self) -> dict[ViewTuple, float]:
        """Algorithm 2's pruned objective: weight 0.0 for each preserved
        dependent of a candidate wider than ``sqrt(‖V‖)``."""
        cutoff = math.sqrt(self.problem.norm_v)
        return {
            vt: 0.0
            for vts in self.preserved_dependents.values()
            for vt in vts
            if len(self.problem.witness(vt)) > cutoff
        }

    # ------------------------------------------------------------------
    # Set-cover reductions (Claim 1 / Lemma 1)
    # ------------------------------------------------------------------

    def rbsc(self) -> "SetCoverReduction":
        """The memoized Claim 1 reduction (VSE → RBSC) over the arena's
        flat int-ID red/blue slices."""
        if self._rbsc is None:
            from repro.reductions.to_setcover import problem_to_rbsc

            self._rbsc = problem_to_rbsc(self.problem, compiled=self.arena)
        return self._rbsc

    def posneg(self) -> "SetCoverReduction":
        """The memoized Lemma 1 reduction (balanced VSE → PN-PSC) over
        the arena's flat int-ID slices."""
        if self._posneg is None:
            from repro.reductions.to_setcover import problem_to_posneg

            self._posneg = problem_to_posneg(
                self.problem, compiled=self.arena
            )
        return self._posneg

    def ilp_model(self) -> "CompiledILP":
        """The memoized arena-compiled 0/1 program of this ΔV binding
        (:func:`repro.lp.ilp.compile_ilp`): linking and
        covering/coverage blocks as sparse matrices over the CSR slabs.

        The covering rows are ΔV-dependent, so the model itself is
        per-session — but the witness incidence it slices lives in the
        shared artifact holder, so rebinding a sibling ΔV re-slices one
        cached matrix instead of rebuilding the incidence structure.
        """
        if self._ilp is None:
            from repro.lp.ilp import compile_ilp

            self._ilp = compile_ilp(self)
        return self._ilp

    def __repr__(self) -> str:
        built = [
            name
            for name, flag in (
                ("profile", "profile" in self.__dict__),
                ("arena", "arena" in self.__dict__),
                ("data-dual", self._shared.data_dual is not None),
                ("rbsc", self._rbsc is not None),
                ("posneg", self._posneg is not None),
                ("ilp", self._ilp is not None),
            )
            if flag
        ]
        return (
            f"SolveSession({self.problem!r}, "
            f"built=[{', '.join(built) or 'nothing yet'}])"
        )
