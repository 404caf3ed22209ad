"""Relational database schemas.

A :class:`DatabaseSchema` is a collection of :class:`RelationSchema` objects,
each naming a relation and fixing an ordered tuple of attribute names.  All
queries, views, access constraints, instances and query plans in this library
are defined against a database schema, mirroring the paper's setting where
queries, views and access schemas are "all defined over the same database
schema R".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..errors import SchemaError


@dataclass(frozen=True)
class RelationSchema:
    """A relation name together with its ordered attributes.

    >>> movie = RelationSchema("movie", ("mid", "mname", "studio", "release"))
    >>> movie.arity
    4
    >>> movie.position("studio")
    2
    """

    name: str
    attributes: tuple[str, ...]

    def __init__(self, name: str, attributes: Iterable[str]) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in relation {name!r}: {attrs}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)

    @property
    def arity(self) -> int:
        """Number of attributes of the relation."""
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Return the index of ``attribute`` within the relation."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"attributes are {self.attributes}"
            ) from exc

    def positions(self, attributes: Iterable[str]) -> tuple[int, ...]:
        """Return the indices of a sequence of attributes, preserving order."""
        key = tuple(attributes)
        cache = self.__dict__.setdefault("_positions", {})
        found = cache.get(key)
        if found is None:
            found = cache[key] = tuple(self.position(attr) for attr in key)
        return found

    def has_attributes(self, attributes: Iterable[str]) -> bool:
        """Return ``True`` when all ``attributes`` belong to this relation."""
        own = set(self.attributes)
        return all(attr in own for attr in attributes)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


class DatabaseSchema:
    """A database schema: a set of relation schemas addressable by name."""

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        self._relations: dict[str, RelationSchema] = {}
        for relation in relations:
            self.add(relation)

    def add(self, relation: RelationSchema) -> None:
        """Add a relation schema; re-adding an identical schema is a no-op."""
        existing = self._relations.get(relation.name)
        if existing is not None and existing != relation:
            raise SchemaError(
                f"relation {relation.name!r} already declared with different attributes"
            )
        self._relations[relation.name] = relation

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name``."""
        try:
            return self._relations[name]
        except KeyError as exc:
            raise SchemaError(f"unknown relation {name!r}; known: {sorted(self._relations)}") from exc

    @property
    def relations(self) -> Mapping[str, RelationSchema]:
        """Read-only view of the relation schemas keyed by name."""
        return dict(self._relations)

    @property
    def names(self) -> tuple[str, ...]:
        """Relation names in insertion order."""
        return tuple(self._relations)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DatabaseSchema({', '.join(str(r) for r in self)})"

    def restricted_to(self, names: Iterable[str]) -> "DatabaseSchema":
        """Return a new schema containing only the named relations."""
        return DatabaseSchema(self.relation(name) for name in names)

    def merged_with(self, other: "DatabaseSchema") -> "DatabaseSchema":
        """Return the union of two schemas (they must agree on shared names)."""
        merged = DatabaseSchema(self)
        for relation in other:
            merged.add(relation)
        return merged


def schema_from_spec(spec: Mapping[str, Iterable[str]]) -> DatabaseSchema:
    """Build a schema from a ``{relation_name: attribute_names}`` mapping.

    >>> schema = schema_from_spec({"rating": ("mid", "rank")})
    >>> schema.relation("rating").arity
    2
    """
    return DatabaseSchema(RelationSchema(name, attrs) for name, attrs in spec.items())
