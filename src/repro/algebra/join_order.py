"""One join-order search, shared by the plan builder and the loop-nest compiler.

Both orderers answer the same question — in which order should the atoms of
a conjunctive query be joined? — and differ only in what one step costs:

* the bounded-plan builder (:mod:`repro.engine.optimizer`) prices a fetch
  through an access constraint by the probe calls and tuples the IOMeter
  will charge (its ``Dξ``);
* the loop-nest compiler (:mod:`repro.exec.cq_compiler`) prices a scan or a
  secondary-index probe per prefix row.

:func:`search_order` is a Selinger-style dynamic program over subsets of the
items: one state per covered subset keeps the cheapest way of reaching it.
Ties break on the lexicographically smallest ``(item, choice)`` sequence, so
the chosen order is deterministic.  Above ``max_exact`` items the subset
space is too large and the search narrows to a width-1 beam: at each step
the cheapest feasible extension, ties broken the same way.

The caller supplies ``extend(state, covered, item)``, yielding the feasible
ways of adding ``item`` next as ``(choice, step_cost, next_state)``; this
module reads nothing but those costs, so it imports nothing either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Sequence, TypeVar

S = TypeVar("S")
C = TypeVar("C")

#: Item count above which :func:`search_order` narrows to the width-1 beam.
MAX_EXACT_ITEMS = 10


@dataclass(frozen=True)
class SearchResult(Generic[C]):
    """The cheapest order found, its cost, and every complete order the exact
    search priced (cost, order), for a chosen-vs-rejected report (empty
    under the width-1 beam)."""

    order: tuple[tuple[int, C], ...]
    cost: float
    completions: tuple[tuple[float, tuple[tuple[int, C], ...]], ...] = ()


Extend = Callable[[S, frozenset[int], int], Iterable[tuple[C, float, S]]]


def search_order(
    items: Sequence[int],
    start: S,
    extend: Extend,
    max_exact: int,
) -> SearchResult | None:
    """The cheapest complete order of ``items``, or ``None`` when no order
    reaches them all.

    ``extend(state, covered, item)`` yields the feasible ways of joining
    ``item`` after the ``covered`` items (whose search state is ``state``),
    each as ``(choice, step_cost, next_state)``; the choices of one call
    must come in a fixed order (their index breaks ties).
    """
    ordered = tuple(sorted(set(items)))
    if not ordered:
        return SearchResult(order=(), cost=0.0)
    if len(ordered) > max_exact:
        return _beam(ordered, start, extend)
    return _subsets(ordered, start, extend)


def _subsets(ordered: tuple[int, ...], start: S, extend: Extend) -> SearchResult | None:
    full = frozenset(ordered)
    # covered subset -> (cost, tiebreak, state, order)
    states: dict[frozenset[int], tuple] = {frozenset(): (0.0, (), start, ())}
    by_size: list[list[frozenset[int]]] = [[] for _ in range(len(ordered) + 1)]
    by_size[0].append(frozenset())
    completions: list[tuple[float, tuple]] = []
    for size in range(len(ordered)):
        for covered in by_size[size]:
            cost, tiebreak, state, order = states[covered]
            for item in ordered:
                if item in covered:
                    continue
                reached = covered | {item}
                for index, (choice, step_cost, next_state) in enumerate(
                    extend(state, covered, item)
                ):
                    candidate = (
                        cost + step_cost,
                        tiebreak + ((item, index),),
                        next_state,
                        order + ((item, choice),),
                    )
                    existing = states.get(reached)
                    if existing is None:
                        by_size[len(reached)].append(reached)
                    if existing is None or candidate[:2] < existing[:2]:
                        states[reached] = candidate
                    if reached == full:
                        completions.append((candidate[0], candidate[3]))
    winner = states.get(full)
    if winner is None:
        return None
    return SearchResult(
        order=winner[3], cost=winner[0], completions=tuple(completions)
    )


def _beam(ordered: tuple[int, ...], start: S, extend: Extend) -> SearchResult | None:
    covered: frozenset[int] = frozenset()
    state, cost = start, 0.0
    order: list[tuple[int, object]] = []
    while len(covered) < len(ordered):
        best: tuple | None = None
        for item in ordered:
            if item in covered:
                continue
            for index, (choice, step_cost, next_state) in enumerate(
                extend(state, covered, item)
            ):
                candidate = (step_cost, item, index, choice, next_state)
                if best is None or candidate[:3] < best[:3]:
                    best = candidate
        if best is None:
            return None
        step_cost, item, _, choice, state = best
        cost += step_cost
        covered |= {item}
        order.append((item, choice))
    return SearchResult(order=tuple(order), cost=cost)
