"""Problem definitions (paper Section II.C and Section III).

:class:`DeletionPropagationProblem` packages a source instance ``D``, a
set of conjunctive queries ``Q``, the materialized views ``V`` and the
requested deletions ``ΔV``, plus optional per-view-tuple weights (the
paper's weighted variant).  It precomputes the witness structure every
algorithm consumes:

* ``witnesses(vt)`` — all witnesses of a view tuple; exactly one for
  key-preserving queries.
* ``dependents(fact)`` — the view tuples having some witness through the
  fact (for key-preserving queries: exactly the view tuples eliminated by
  deleting it).
* ``candidate_facts()`` — the facts occurring in witnesses of ΔV tuples;
  a minimum solution never deletes anything else, so every solver
  restricts its search to this set.

:class:`BalancedDeletionPropagationProblem` is the balanced variant of
Section III: eliminating all of ΔV becomes optional, and the objective
charges one unit per ΔV tuple left standing plus the (weighted)
side-effect.  (The paper's displayed balanced objective literally reads
``Σ|Vi − Qi(D\\ΔD)| + Σ|Vi\\ΔVi − Qi(D\\ΔD)|``, which double-charges
side-effect and rewards keeping ΔV; its reduction target — positive-
negative partial set cover, cost = uncovered positives + covered
negatives — fixes the intended semantics, and that is what we implement:
``cost = |ΔV not eliminated| + w(preserved eliminated)``.)
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro.errors import ProblemError
from repro.relational.cq import ConjunctiveQuery
from repro.relational.instance import Instance
from repro.relational.tuples import Fact
from repro.relational.views import Deletion, View, ViewSet, ViewTuple

__all__ = ["DeletionPropagationProblem", "BalancedDeletionPropagationProblem"]


class DeletionPropagationProblem:
    """The multi-view view-side-effect deletion propagation problem.

    Parameters
    ----------
    instance:
        The source database ``D``.
    queries:
        The queries ``Q = {Q1..Qm}``; views are materialized on
        construction.
    deletions:
        ``ΔV`` as a mapping of view (= query) name to value tuples.
    weights:
        Optional weights on *preserved* view tuples — the user preference
        of the weighted variant (Section IV).  Missing entries default to
        1.0.  Keys are :class:`ViewTuple` or ``(view_name, values)``.
    """

    def __init__(
        self,
        instance: Instance,
        queries: Sequence[ConjunctiveQuery],
        deletions: Mapping[str, Iterable[tuple]],
        weights: Mapping[ViewTuple | tuple, float] | None = None,
    ):
        if not queries:
            raise ProblemError("at least one query is required")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ProblemError(f"duplicate query names in {names}")
        self.instance = instance
        self.queries: tuple[ConjunctiveQuery, ...] = tuple(queries)
        self.views = ViewSet.materialize(queries, instance)
        self.deletion = Deletion(self.views, deletions)
        self._weights: dict[ViewTuple, float] = {}
        for key, value in (weights or {}).items():
            vt = key if isinstance(key, ViewTuple) else ViewTuple(key[0], key[1])
            if value < 0:
                raise ProblemError(f"negative weight {value} for {vt!r}")
            self._weights[vt] = float(value)

    # ------------------------------------------------------------------
    # Paper notation (Table I)
    # ------------------------------------------------------------------

    @property
    def norm_v(self) -> int:
        """``‖V‖`` — total number of view tuples."""
        return self.views.total_size()

    @property
    def norm_delta_v(self) -> int:
        """``‖ΔV‖`` — total number of deletions requested."""
        return self.deletion.total_size()

    @property
    def max_arity(self) -> int:
        """``l`` — maximum ``arity(Q)`` over the queries."""
        return self.views.max_arity()

    # ------------------------------------------------------------------
    # View tuples
    # ------------------------------------------------------------------

    def deleted_view_tuples(self) -> list[ViewTuple]:
        """The ΔV tuples."""
        return self.deletion.deleted_view_tuples()

    def preserved_view_tuples(self) -> list[ViewTuple]:
        """``R`` — the view tuples that should survive."""
        return self.deletion.preserved_view_tuples()

    def all_view_tuples(self) -> list[ViewTuple]:
        return self.views.all_view_tuples()

    def weight(self, vt: ViewTuple) -> float:
        """Weight of a view tuple (defaults to 1.0)."""
        return self._weights.get(vt, 1.0)

    def view(self, name: str) -> View:
        return self.views.view(name)

    # ------------------------------------------------------------------
    # Witness structure
    # ------------------------------------------------------------------

    def witnesses(self, vt: ViewTuple) -> list[frozenset[Fact]]:
        """All witnesses of ``vt``; eliminating ``vt`` requires hitting
        every one of them."""
        return self.views.view(vt.view).witnesses_of(vt.values)

    def witness(self, vt: ViewTuple) -> frozenset[Fact]:
        """The unique witness (key-preserving queries only)."""
        return self.views.view(vt.view).witness_of(vt.values)

    @cached_property
    def _dependents(self) -> dict[Fact, frozenset[ViewTuple]]:
        # ΔV-independent: a with_deletions sibling resolves to its base
        # problem's index, so it is built at most once per instance.
        base = self.__dict__.get("_dependents_base")
        if base is not None:
            return base._dependents
        index: dict[Fact, set[ViewTuple]] = {}
        for vt in self.all_view_tuples():
            for witness in self.witnesses(vt):
                for fact in witness:
                    index.setdefault(fact, set()).add(vt)
        return {fact: frozenset(vts) for fact, vts in index.items()}

    def dependents(self, fact: Fact) -> frozenset[ViewTuple]:
        """View tuples with some witness through ``fact``.  For
        key-preserving queries these are exactly the view tuples
        eliminated when ``fact`` is deleted."""
        return self._dependents.get(fact, frozenset())

    @cached_property
    def _candidate_facts(self) -> tuple[Fact, ...]:
        facts: set[Fact] = set()
        for vt in self.deleted_view_tuples():
            for witness in self.witnesses(vt):
                facts.update(witness)
        return tuple(sorted(facts))

    def candidate_facts(self) -> tuple[Fact, ...]:
        """Facts occurring in some witness of some ΔV tuple — the only
        facts any minimal solution deletes."""
        return self._candidate_facts

    def with_deletions(
        self, deletions: Mapping[str, Iterable[tuple]]
    ) -> "DeletionPropagationProblem":
        """A sibling problem over the same instance/queries with a
        different ΔV.

        The materialized views, weights, and the fact → dependents index
        are *shared* with ``self`` — only the
        :class:`~repro.relational.views.Deletion` is rebuilt, so binding
        a new request against a compiled instance costs O(‖ΔV‖) instead
        of re-materializing every view.  The index is built lazily, on
        the base problem, by whichever sibling needs it first; every
        later sibling holds that same object.  This is the hot path of
        :func:`repro.core.portfolio.run_delta_batch`.
        """
        clone = object.__new__(type(self))
        clone.instance = self.instance
        clone.queries = self.queries
        clone.views = self.views
        clone.deletion = Deletion(self.views, deletions)
        # Weights are never written after construction: share the dict.
        clone._weights = self._weights
        if isinstance(self, BalancedDeletionPropagationProblem):
            clone.delta_penalty = self.delta_penalty
        # The dependents index is ΔV-independent: share the base's, built
        # or not.  (candidate_facts depends on ΔV and must not be copied.)
        clone._dependents_base = self.__dict__.get("_dependents_base", self)
        # A compiled witness arena carries over, but only on demand:
        # CompiledProblem.of rebinds its O(‖V‖ + ‖ΔV‖) ΔV slices the
        # first time a solver asks (never a full recompile), and the
        # routes that never read the arena (dp-tree, the forest duel)
        # never pay for it.
        arena = self.__dict__.get("_compiled_arena")
        if arena is None or arena.problem is not self:
            arena = self.__dict__.get("_arena_base")
        if arena is not None:
            clone._arena_base = arena
        # Point the clone at the base's session (created lazily here if
        # need be — construction computes nothing) so SolveSession.of
        # rebinds and every sibling shares one set of ΔV-independent
        # artifacts instead of recomputing per variant.
        from repro.core.session import SolveSession

        clone._session_base = SolveSession.of(self)
        return clone

    @classmethod
    def from_materialized(
        cls,
        instance: Instance,
        queries: Sequence[ConjunctiveQuery],
        views: ViewSet,
        deletions: Mapping[str, Iterable[tuple]],
        weights: Mapping[ViewTuple | tuple, float] | None = None,
        delta_penalty: float = 1.0,
    ) -> "DeletionPropagationProblem":
        """A problem over *pre-materialized* views, skipping query
        evaluation.

        The shared-memory attach path (:mod:`repro.core.shm`) rebuilds
        views from shipped witness arrays via
        :meth:`~repro.relational.views.View.from_witnesses`; this
        constructor accepts them instead of re-running
        ``ViewSet.materialize``.  ``delta_penalty`` only applies when
        ``cls`` is the balanced variant.
        """
        if not queries:
            raise ProblemError("at least one query is required")
        problem = object.__new__(cls)
        problem.instance = instance
        problem.queries = tuple(queries)
        problem.views = views
        problem.deletion = Deletion(views, deletions)
        problem._weights = {}
        for key, value in (weights or {}).items():
            vt = key if isinstance(key, ViewTuple) else ViewTuple(key[0], key[1])
            if value < 0:
                raise ProblemError(f"negative weight {value} for {vt!r}")
            problem._weights[vt] = float(value)
        if issubclass(cls, BalancedDeletionPropagationProblem):
            if delta_penalty < 0:
                raise ProblemError(f"negative delta_penalty {delta_penalty}")
            problem.delta_penalty = float(delta_penalty)
        return problem

    def eliminated_by(self, deleted: Iterable[Fact]) -> set[ViewTuple]:
        """View tuples eliminated by deleting ``deleted``: those whose
        *every* witness meets the deletion (correct for all CQs, since a
        view tuple survives iff some witness survives intact)."""
        deleted_set = frozenset(deleted)
        if not deleted_set:
            return set()
        affected: set[ViewTuple] = set()
        for fact in deleted_set:
            affected.update(self.dependents(fact))
        out: set[ViewTuple] = set()
        for vt in affected:
            if all(witness & deleted_set for witness in self.witnesses(vt)):
                out.add(vt)
        return out

    # ------------------------------------------------------------------
    # Structural classification
    # ------------------------------------------------------------------

    def is_key_preserving(self) -> bool:
        """All queries key-preserving (precondition of the paper's
        algorithms)."""
        return all(q.is_key_preserving() for q in self.queries)

    def is_project_free(self) -> bool:
        return all(q.is_project_free() for q in self.queries)

    def is_self_join_free(self) -> bool:
        return all(q.is_self_join_free() for q in self.queries)

    def is_single_query(self) -> bool:
        return len(self.queries) == 1

    def is_forest_case(self) -> bool:
        """Dual hypergraph has every component a hypertree (Fig. 3)."""
        from repro.hypergraph.dual import is_forest_case

        return is_forest_case(self.queries)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|D|={len(self.instance)}, "
            f"m={len(self.queries)}, ‖V‖={self.norm_v}, "
            f"‖ΔV‖={self.norm_delta_v}, l={self.max_arity})"
        )


class BalancedDeletionPropagationProblem(DeletionPropagationProblem):
    """Balanced deletion propagation (Section III, Theorem 2; Section V
    "Balanced version").

    Feasibility no longer requires eliminating all of ΔV; the objective
    becomes ``|ΔV not eliminated| + w(preserved eliminated)``, the
    positive-negative partial set cover semantics.  ``delta_penalty``
    scales the charge for ΔV tuples left standing (1.0 = the paper's
    unweighted trade-off).
    """

    def __init__(
        self,
        instance: Instance,
        queries: Sequence[ConjunctiveQuery],
        deletions: Mapping[str, Iterable[tuple]],
        weights: Mapping[ViewTuple | tuple, float] | None = None,
        delta_penalty: float = 1.0,
    ):
        super().__init__(instance, queries, deletions, weights)
        if delta_penalty < 0:
            raise ProblemError(f"negative delta_penalty {delta_penalty}")
        self.delta_penalty = float(delta_penalty)
