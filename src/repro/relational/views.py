"""Materialized views, view sets, and view deletions (ΔV).

A :class:`View` is a materialized query result ``Q(D)`` together with the
query that produced it; a :class:`ViewSet` is the paper's ``V``; a
:class:`Deletion` is the paper's ``ΔV``.  View tuples are addressed by
:class:`ViewTuple` (view name + values), carry optional user weights (the
paper's weighted variant, Section IV), and know their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import ViewError
from repro.relational.cq import ConjunctiveQuery
from repro.relational.instance import Instance
from repro.relational.provenance import unique_witness_map, witness_map
from repro.relational.tuples import Fact

__all__ = ["ViewTuple", "View", "ViewSet", "Deletion"]


@dataclass(frozen=True)
class ViewTuple:
    """A single view tuple, identified by the view it belongs to.

    The hash is computed once, on construction, as :class:`Fact` does:
    a served request hashes the same few hundred view tuples over and
    over (ΔV membership, weights, component lookups).
    """

    view: str
    values: tuple

    def __init__(self, view: str, values: Iterable[object]):
        object.__setattr__(self, "view", view)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_hash", hash((view, self.values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__ so the hash is recomputed under the
        # loading process's string-hash seed.
        return (type(self), (self.view, self.values))

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.view}[{inner}]"

    def __lt__(self, other: "ViewTuple") -> bool:
        if not isinstance(other, ViewTuple):
            return NotImplemented
        if self.view != other.view:
            return self.view < other.view
        try:
            return self.values < other.values
        except TypeError:
            return repr(self.values) < repr(other.values)


class View:
    """A materialized view ``V = Q(D)``.

    The view stores its tuples and, when the query is key preserving, the
    unique witness of every tuple.  Non-key-preserving queries are still
    supported for the analysis/classification modules (all witnesses are
    kept), but the paper's algorithms require key preservation.
    """

    def __init__(self, query: ConjunctiveQuery, instance: Instance):
        self.query = query
        self.name = query.name
        if query.is_key_preserving():
            unique = unique_witness_map(query, instance)
            self._witnesses: dict[tuple, list[frozenset[Fact]]] = {
                head: [w] for head, w in unique.items()
            }
        else:
            self._witnesses = witness_map(query, instance)
        self._tuples: frozenset[tuple] = frozenset(self._witnesses)

    @classmethod
    def from_witnesses(
        cls,
        query: ConjunctiveQuery,
        witnesses: Mapping[tuple, Iterable[frozenset[Fact]]],
    ) -> "View":
        """A view from an *already materialized* witness map, skipping
        query evaluation entirely.

        This is the shared-memory attach path
        (:mod:`repro.core.shm`): the exporting process evaluated the
        queries once, shipped the witness structure as flat arrays, and
        attaching processes rebuild the object surface from it.  The
        caller is responsible for ``witnesses`` actually being
        ``Q(D)`` — the differential suites cover that contract.
        """
        view = cls.__new__(cls)
        view.query = query
        view.name = query.name
        view._witnesses = {
            tuple(head): list(wits) for head, wits in witnesses.items()
        }
        view._tuples = frozenset(view._witnesses)
        return view

    @property
    def tuples(self) -> frozenset[tuple]:
        """The raw value tuples of the view."""
        return self._tuples

    def view_tuples(self) -> list[ViewTuple]:
        """All tuples wrapped as :class:`ViewTuple`, sorted."""
        return sorted(ViewTuple(self.name, values) for values in self._tuples)

    def __contains__(self, values: tuple) -> bool:
        return tuple(values) in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def width(self) -> int:
        """Width of the view = ``arity(Q)`` (paper Section II.B)."""
        return self.query.arity

    def witnesses_of(self, values: tuple) -> list[frozenset[Fact]]:
        """All witnesses of one view tuple."""
        try:
            return list(self._witnesses[tuple(values)])
        except KeyError:
            raise ViewError(
                f"{tuple(values)!r} is not a tuple of view {self.name!r}"
            ) from None

    def witness_of(self, values: tuple) -> frozenset[Fact]:
        """The unique witness (key-preserving queries)."""
        witnesses = self.witnesses_of(values)
        if len(witnesses) != 1:
            raise ViewError(
                f"view tuple {tuple(values)!r} of {self.name!r} has "
                f"{len(witnesses)} witnesses; expected exactly one"
            )
        return witnesses[0]

    def __repr__(self) -> str:
        return f"View({self.name}, {len(self)} tuples)"


class ViewSet:
    """The paper's ``V = {V1..Vm}``: one view per query, unique names."""

    def __init__(self, views: Iterable[View]):
        self._views: dict[str, View] = {}
        for view in views:
            if view.name in self._views:
                raise ViewError(f"duplicate view name {view.name!r}")
            self._views[view.name] = view
        if not self._views:
            raise ViewError("a view set must contain at least one view")

    @classmethod
    def materialize(
        cls, queries: Iterable[ConjunctiveQuery], instance: Instance
    ) -> "ViewSet":
        """Materialize ``Qi(D)`` for every query."""
        return cls(View(q, instance) for q in queries)

    def view(self, name: str) -> View:
        try:
            return self._views[name]
        except KeyError:
            raise ViewError(f"unknown view {name!r}") from None

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    def total_size(self) -> int:
        """``‖V‖``: the total number of view tuples across all views."""
        return sum(len(v) for v in self._views.values())

    def max_arity(self) -> int:
        """``l``: the maximum ``arity(Q)`` among the queries."""
        return max(v.width for v in self._views.values())

    def all_view_tuples(self) -> list[ViewTuple]:
        out: list[ViewTuple] = []
        for view in self:
            out.extend(view.view_tuples())
        return sorted(out)

    def queries(self) -> list[ConjunctiveQuery]:
        return [v.query for v in self]

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name}:{len(v)}" for v in self)
        return f"ViewSet({inner})"


class Deletion:
    """The paper's ``ΔV``: per-view sets of tuples to remove.

    Validated against the view set: every requested tuple must actually be
    a view tuple.  Views without deletions may be omitted.
    """

    def __init__(
        self, views: ViewSet, deletions: Mapping[str, Iterable[tuple]]
    ):
        self._views = views
        self._sorted_view_tuples: tuple[ViewTuple, ...] | None = None
        self._deletions: dict[str, frozenset[tuple]] = {}
        for name, tuples in deletions.items():
            view = views.view(name)  # raises on unknown view
            requested = frozenset(tuple(t) for t in tuples)
            missing = requested - view.tuples
            if missing:
                raise ViewError(
                    f"deletion on view {name!r} includes non-view tuples: "
                    f"{sorted(map(repr, missing))[:3]}"
                )
            if requested:
                self._deletions[name] = requested

    @property
    def views(self) -> ViewSet:
        return self._views

    def on(self, view_name: str) -> frozenset[tuple]:
        """The deleted tuples of one view (empty set when none)."""
        return self._deletions.get(view_name, frozenset())

    def __contains__(self, vt: ViewTuple) -> bool:
        return vt.values in self._deletions.get(vt.view, frozenset())

    def total_size(self) -> int:
        """``‖ΔV‖``: the total number of deleted view tuples."""
        return sum(len(d) for d in self._deletions.values())

    def is_empty(self) -> bool:
        return not self._deletions

    def deleted_view_tuples(self) -> list[ViewTuple]:
        """The ΔV tuples, sorted (built once: a deletion is immutable)."""
        if self._sorted_view_tuples is None:
            self._sorted_view_tuples = tuple(
                sorted(
                    ViewTuple(name, values)
                    for name, tuples in self._deletions.items()
                    for values in tuples
                )
            )
        return list(self._sorted_view_tuples)

    def preserved_view_tuples(self) -> list[ViewTuple]:
        """``R = {V1 \\ ΔV1, ...}``: the tuples that must survive."""
        out: list[ViewTuple] = []
        for view in self._views:
            deleted = self.on(view.name)
            out.extend(
                ViewTuple(view.name, values)
                for values in view.tuples
                if values not in deleted
            )
        return sorted(out)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{len(t)}" for n, t in self._deletions.items())
        return f"Deletion({inner or 'empty'})"
