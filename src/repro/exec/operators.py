"""Volcano-style physical operators (shared ``open``/``next``/``close``).

Rows are plain Python tuples; an operator's column layout is fixed by the
compiler that builds the tree, so operators themselves deal only in
positions and closures — no attribute names, no query terms.  ``next()``
returns the next row or ``None`` when the stream is exhausted; ``rows()``
drives a whole tree to completion.

Set semantics is *not* implicit: operators stream whatever their inputs
produce, and the compilers insert :class:`Distinct` exactly where the
algebra requires it (after projections and unions).  The only operators that
touch storage are :class:`IndexLookup` (charged to the
:class:`~repro.exec.iometer.IOMeter` — the paper's ``Dξ``) and :class:`Scan`
over a cached view (free, but counted as view-scan work); every other
operator is pure CPU over its inputs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence, cast

from .iometer import IOMeter

#: A data row.  Layouts are positional and fixed by the compilers.
Row = tuple[object, ...]


def tuple_extractor(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)`` at C speed where possible.

    Shared by the operator kernel, the lowering pass and the codegen tier —
    positional extraction must behave identically everywhere or the two
    execution tiers drift apart.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return cast(Callable[[Row], Row], itemgetter(*positions))


def key_extractor(positions: Sequence[int]) -> Callable[[Row], object]:
    """Join-key extractor; single positions yield scalars (both sides agree)."""
    if not positions:
        return lambda row: ()
    return cast(Callable[[Row], object], itemgetter(*positions))


_tuple_extractor = tuple_extractor
_key_extractor = key_extractor


class Operator:
    """Base class: a restartable iterator over rows.

    Subclasses set ``children`` in ``__init__`` and implement
    :meth:`_produce` as a generator pulling from the (already opened)
    children.  ``open()`` opens the tree depth-first; ``close()`` releases
    it; ``rows()`` is the one-shot driver used by the executors.
    """

    children: tuple["Operator", ...] = ()
    _iterator: Iterator[Row] | None = None

    def open(self) -> None:
        for child in self.children:
            child.open()
        self._iterator = self._produce()

    def next(self) -> Row | None:
        iterator = self._iterator
        if iterator is None:
            return None
        return next(iterator, None)

    def close(self) -> None:
        self._iterator = None
        for child in self.children:
            child.close()

    def _produce(self) -> Iterator[Row]:
        raise NotImplementedError

    def _input(self, child: "Operator") -> Iterator[Row]:
        """The row stream of an (already opened) child.

        Subclass ``_produce`` bodies consume the child's generator directly
        instead of calling ``child.next()`` per row — one Python frame per
        operator instead of a method call per row per level.
        """
        iterator = child._iterator
        assert iterator is not None, "child operator was not opened"
        return iterator

    def rows(self) -> Iterator[Row]:
        """Open, stream every row, close — the standard execution driver."""
        self.open()
        try:
            assert self._iterator is not None
            yield from self._iterator
        finally:
            self.close()


class Scan(Operator):
    """Scan a materialised collection of rows.

    With ``meter`` set, the scan is accounted as *view-scan* work at open
    time (cached views are free to read but their size is reported, exactly
    as the paper's cost model prescribes).  Base-relation scans of
    Yannakakis' evaluator pass no meter: full-scan evaluation is charged
    through the baseline's cost model, not per row.
    """

    def __init__(
        self,
        rows: Collection[Row] | Iterable[Row],
        meter: IOMeter | None = None,
    ) -> None:
        self._rows = rows
        self._meter = meter

    def open(self) -> None:
        if self._meter is not None:
            rows = self._rows
            if not isinstance(rows, Collection):
                rows = list(rows)
                self._rows = rows
            self._meter.record_view_scan(len(rows))
        super().open()

    def _produce(self) -> Iterator[Row]:
        yield from self._rows


class IndexLookup(Operator):
    """``fetch(X ∈ child, R, Y)`` — the only operator that touches base data.

    For every *distinct* key produced by the child (``S_j`` has set
    semantics, so duplicate keys cost nothing), the access-constraint index
    is probed through ``provider.fetch`` and every returned tuple is charged
    to the meter — this is precisely the bag ``Dξ`` of the paper.  Returned
    tuples are projected onto the requested output positions; the compiler
    wraps the lookup in :class:`Distinct` to restore set semantics.

    ``child=None`` models ``fetch(∅, R, Y)``: a single lookup under the
    empty key.
    """

    def __init__(
        self,
        child: Operator | None,
        relation: str,
        constraint: object,
        provider: object,
        key_positions: Sequence[int],
        output_positions: Sequence[int],
        meter: IOMeter,
    ) -> None:
        self.children = (child,) if child is not None else ()
        self._child = child
        self._relation = relation
        self._constraint = constraint
        self._provider = provider
        self._key_positions = tuple(key_positions)
        self._output_positions = tuple(output_positions)
        self._meter = meter

    def _keys(self) -> Iterator[Row]:
        if self._child is None:
            yield ()
            return
        seen: set[Row] = set()
        extract = _tuple_extractor(self._key_positions)
        for row in self._input(self._child):
            key = extract(row)
            if key not in seen:
                seen.add(key)
                yield key

    def _produce(self) -> Iterator[Row]:
        fetch = self._provider.fetch  # type: ignore[attr-defined]
        meter, relation = self._meter, self._relation
        project = _tuple_extractor(self._output_positions)
        for key in self._keys():
            fetched = fetch(self._constraint, key)
            meter.record_fetch(relation, len(fetched))
            for row in fetched:
                yield project(row)


class HashJoin(Operator):
    """Hash join on positional keys; emits ``left + right`` concatenations.

    The right input is materialised into a hash table, then the left input
    streams through and probes it.  Empty key tuples degrade to a cross
    product (single bucket), which is how the plan compiler realises ``×``.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: Sequence[int],
        right_key: Sequence[int],
    ) -> None:
        self.children = (left, right)
        self._left = left
        self._right = right
        self._left_key = tuple(left_key)
        self._right_key = tuple(right_key)

    def _produce(self) -> Iterator[Row]:
        right_key = _key_extractor(self._right_key)
        table: dict[object, list[Row]] = {}
        for row in self._input(self._right):
            table.setdefault(right_key(row), []).append(row)
        left_key = _key_extractor(self._left_key)
        lookup = table.get
        for left_row in self._input(self._left):
            bucket = lookup(left_key(left_row))
            if bucket:
                for right_row in bucket:
                    yield left_row + right_row


class SemiJoin(Operator):
    """Semi-join (``anti=False``) or anti-semi-join (``anti=True``).

    Keeps the left rows whose key does (not) appear among the right keys —
    the reducer of Yannakakis' algorithm, and (keyed on the whole row) the
    realisation of set difference.  With empty keys this degrades to the
    textbook special case: everything passes iff the right side is
    (non-)empty.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: Sequence[int],
        right_key: Sequence[int],
        anti: bool = False,
    ) -> None:
        self.children = (left, right)
        self._left = left
        self._right = right
        self._left_key = tuple(left_key)
        self._right_key = tuple(right_key)
        self._anti = anti

    def _produce(self) -> Iterator[Row]:
        right_key = _key_extractor(self._right_key)
        keys = {right_key(row) for row in self._input(self._right)}
        left_key, anti = _key_extractor(self._left_key), self._anti
        for row in self._input(self._left):
            if (left_key(row) in keys) != anti:
                yield row


class Project(Operator):
    """Positional projection; ``mapper`` overrides it for computed outputs.

    Projection is not injective, so the compilers follow it with
    :class:`Distinct` wherever the algebra's set semantics requires.
    """

    def __init__(
        self,
        child: Operator,
        positions: Sequence[int] | None = None,
        mapper: Callable[[Row], Row] | None = None,
    ) -> None:
        if (positions is None) == (mapper is None):
            raise ValueError("Project takes exactly one of positions= or mapper=")
        self.children = (child,)
        self._child = child
        if mapper is None:
            assert positions is not None
            mapper = _tuple_extractor(tuple(positions))
        self._mapper = mapper

    def _produce(self) -> Iterator[Row]:
        mapper = self._mapper
        return map(mapper, self._input(self._child))


class Select(Operator):
    """Filter rows through a predicate closure."""

    def __init__(self, child: Operator, predicate: Callable[[Row], bool]) -> None:
        self.children = (child,)
        self._child = child
        self._predicate = predicate

    def _produce(self) -> Iterator[Row]:
        predicate = self._predicate
        return filter(predicate, self._input(self._child))


class Union(Operator):
    """Concatenate input streams (bag union; wrap in :class:`Distinct` for ∪)."""

    def __init__(self, inputs: Sequence[Operator]) -> None:
        self.children = tuple(inputs)

    def _produce(self) -> Iterator[Row]:
        for child in self.children:
            yield from self._input(child)


class Distinct(Operator):
    """Drop duplicate rows (streaming, with a seen-set)."""

    def __init__(self, child: Operator) -> None:
        self.children = (child,)
        self._child = child

    def _produce(self) -> Iterator[Row]:
        seen: set[Row] = set()
        add = seen.add
        for row in self._input(self._child):
            if row not in seen:
                add(row)
                yield row


class Materialize(Operator):
    """Materialise the child on open and replay the buffered rows.

    A restartable pipeline breaker: for subtrees that must be fully
    evaluated before their consumer starts, or consumed more than once
    without re-running the child.  (The Yannakakis evaluator keeps its
    reduction state as explicit row lists instead — the semi-join passes
    replace inputs wholesale — so this operator mainly serves hand-built
    operator trees and tooling.)  ``materialized`` exposes the buffer after
    open.
    """

    def __init__(self, child: Operator) -> None:
        self.children = (child,)
        self._child = child
        self.materialized: list[Row] = []

    def open(self) -> None:
        super().open()
        self.materialized = list(self._input(self._child))

    def _produce(self) -> Iterator[Row]:
        yield from self.materialized
