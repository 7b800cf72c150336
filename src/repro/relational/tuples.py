"""Facts: tuples tagged with their relation symbol.

The paper treats an instance as a set of *facts* ``T(t)`` (Section II.A).
A :class:`Fact` is exactly that: an immutable, hashable pair of relation
name and value tuple.  Facts are what deletion-propagation solutions
(``ΔD``) are made of, so they must be cheap to hash and compare.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import InstanceError
from repro.relational.schema import RelationSchema

__all__ = ["Fact"]


class Fact:
    """An immutable fact ``relation(values...)``.

    Facts compare and hash by ``(relation, values)`` so that sets of facts
    behave like the paper's set-of-facts instances.
    """

    __slots__ = ("relation", "values", "_hash")

    def __init__(self, relation: str, values: Iterable[object]):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "_hash", hash((relation, self.values)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Fact is immutable")

    def __reduce__(self):
        # Rebuild through __init__: restoring the slots would go through
        # the blocking __setattr__, and the cached hash is only valid
        # under the string-hash seed of the process that computed it.
        return (type(self), (self.relation, self.values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def key_values(self, schema: RelationSchema) -> tuple[object, ...]:
        """Project this fact onto the key of ``schema``.

        Raises :class:`InstanceError` when the fact does not belong to the
        relation or has the wrong arity.
        """
        if schema.name != self.relation:
            raise InstanceError(
                f"fact of relation {self.relation!r} projected with schema "
                f"of {schema.name!r}"
            )
        if schema.arity != self.arity:
            raise InstanceError(
                f"fact arity {self.arity} does not match schema arity "
                f"{schema.arity} for relation {self.relation!r}"
            )
        return tuple(self.values[p] for p in schema.key)

    def __iter__(self) -> Iterator[object]:
        return iter(self.values)

    def __getitem__(self, position: int) -> object:
        return self.values[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fact):
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Fact") -> bool:
        # Total order so solutions can be printed deterministically.  Mixed
        # value types fall back to comparing their reprs.
        if not isinstance(other, Fact):
            return NotImplemented
        if self.relation != other.relation:
            return self.relation < other.relation
        try:
            return self.values < other.values
        except TypeError:
            return repr(self.values) < repr(other.values)

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"
