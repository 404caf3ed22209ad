"""Positional row keys and hash grouping, each built in one C-keyed pass.

Every hash index the library builds over a row set keys each row by its
values at some positions: the access-constraint index versions, the
secondary indexes of relations and of their snapshot versions, the
maintenance kernel's indexes of deleted rows and the loop-nest compiler's
indexes over plain fact maps.  :func:`projections` yields those keys with no
Python-level call per row — ``itemgetter`` for two or more positions,
``zip`` over one ``itemgetter`` column for a single position — and the two
groupers consume them in row iteration order, so a bucket lists its rows, or
first meets its projections, in the order the rows were iterated.

:func:`row_getter` is the same key as a callable, for code that keys one row
at a time (the write path's staging and admission, compiled closures).
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Collection, Iterator, Sequence, cast

__all__ = ["Row", "count_projections", "group_rows", "projections", "row_getter"]

#: A data row: a tuple of values, positional.
Row = tuple[object, ...]


def row_getter(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[p] for p in positions)``, an ``itemgetter``
    wherever that returns a tuple."""
    positions = tuple(positions)
    if len(positions) > 1:
        return cast(Callable[[Row], Row], itemgetter(*positions))
    if positions:
        position = positions[0]
        return lambda row: (row[position],)
    return lambda row: ()


def projections(rows: Collection[Row], positions: Sequence[int]) -> Iterator[Row]:
    """``map(row_getter(positions), rows)``, with no Python call per row."""
    positions = tuple(positions)
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    if positions:
        return zip(map(itemgetter(positions[0]), rows))
    return repeat((), len(rows))


def group_rows(rows: Collection[Row], positions: Sequence[int]) -> dict[Row, list[Row]]:
    """``rows`` hashed on their values at ``positions``: key -> the rows
    with that key, in iteration order.  ``rows`` is iterated twice, so it
    must be a collection that is not mutated meanwhile."""
    index: dict[Row, list[Row]] = {}
    for key, row in zip(projections(rows, positions), rows):
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    return index


def count_projections(
    rows: Collection[Row], key_positions: Sequence[int], value_positions: Sequence[int]
) -> dict[Row, dict[Row, int]]:
    """key -> {projection at ``value_positions``: how many rows support it},
    keys and projections in the order the rows first show them.  Iterates
    ``rows`` twice, like :func:`group_rows`."""
    buckets: dict[Row, dict[Row, int]] = {}
    for key, value in zip(
        projections(rows, key_positions), projections(rows, value_positions)
    ):
        counts = buckets.get(key)
        if counts is None:
            buckets[key] = {value: 1}
        else:
            counts[value] = counts.get(value, 0) + 1
    return buckets
