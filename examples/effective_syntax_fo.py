"""Effective syntax for FO: topped queries and size-bounded views (Section 5).

VBRP is undecidable for FO, yet the paper shows how to make practical use of
bounded rewriting anyway: check — in PTIME — whether the query is *topped by
(R, V, A, M)*; if it is, generate a bounded plan directly.  This example runs
the machinery on the query q3 of Example 5.3:

    q3(z) = q4(z) ∧ ¬ ∃w R(z, w)
    q4(z) = ∃x∃y ( V3(x, y) ∧ x = 1 ∧ R(y, z) )
    V3(x, y) = R(y, y) ∧ T(x, y)          (a cached view)
    A2 = { R(A -> B, N), T(C -> E, N) }

and also demonstrates the size-bounded effective syntax of Theorem 5.2, which
serves as the bounded-output oracle for FO views.

Run with:  python examples/effective_syntax_fo.py
"""

from __future__ import annotations

import random

from repro import QueryService
from repro.algebra import ConjunctiveQuery, RelationAtom, Variable, View, schema_from_spec
from repro.algebra.fo import atom, conj, eq, exists, neg
from repro.core.access import AccessConstraint, AccessSchema
from repro.core.size_bounded import is_size_bounded, make_size_bounded
from repro.core.topped import analyze_topped, is_topped, topped_plan
from repro.storage.instance import Database

X, Y, Z, W = Variable("x"), Variable("y"), Variable("z"), Variable("w")
N = 10


def build_setting():
    schema = schema_from_spec({"R": ("A", "B"), "T": ("C", "E")})
    access = AccessSchema(
        (AccessConstraint("R", ("A",), ("B",), N), AccessConstraint("T", ("C",), ("E",), N))
    )
    v3 = View(
        "V3",
        ConjunctiveQuery(
            head=(X, Y),
            atoms=(RelationAtom("R", (Y, Y)), RelationAtom("T", (X, Y))),
            name="V3_def",
        ),
    )
    return schema, access, v3


def build_database(schema, seed: int = 5, size: int = 2_000) -> Database:
    generator = random.Random(seed)
    db = Database(schema)
    per_key: dict[object, int] = {}

    def add(relation: str, key: object, row: tuple) -> None:
        if per_key.get((relation, key), 0) < N:
            per_key[(relation, key)] = per_key.get((relation, key), 0) + 1
            db.add(relation, row)

    # A handful of self-loops liked by key 1 (these feed V3 and q4).
    for node in range(N // 2):
        add("R", f"n{node}", (f"n{node}", f"n{node}"))
        add("T", 1, (1, f"n{node}"))
    while db.size < size:
        a = generator.randrange(400)
        add("R", a, (a, generator.randrange(400)))
        c = generator.randrange(2, 400)
        add("T", c, (c, generator.randrange(400)))
    return db


def main() -> None:
    print("=== Topped queries: Example 5.3 ===\n")
    schema, access, v3 = build_setting()
    views = [v3]

    q4 = exists([X, Y], conj(atom("V3", X, Y), eq(X, 1), atom("R", Y, Z)))
    q3 = conj(q4, neg(exists([W], atom("R", Z, W))))
    print(f"q3(z) = {q3}\n")

    from repro.algebra.views import ViewSet

    analysis = analyze_topped(q3, schema, ViewSet(views), access)
    print(f"covq(Qε, q3) = {analysis.covered}")
    print(f"size(Qε, q3) = {analysis.size}  (the paper derives 13 for this query)")
    print(f"topped by (R, V, A, M=40)? {is_topped(q3, schema, ViewSet(views), access, 40)}\n")

    plan = topped_plan(q3, (Z,), schema, ViewSet(views), access)
    print("generated bounded plan (cf. Figure 3):")
    print(plan.pretty())

    database = build_database(schema)
    assert database.satisfies(access)
    service = QueryService(database, access, views)
    answer = service.query(q3, head=(Z,))
    print(f"\nexecuted on |D| = {database.size:,} tuples:")
    print(f"  bounded plan used : {answer.used_bounded_plan}")
    print(f"  answers           : {len(answer.rows)}")
    print(f"  tuples fetched    : {answer.tuples_fetched}")

    print("\n=== Size-bounded queries: Theorem 5.2 ===\n")
    inner = exists([Y], atom("R", X, Y))
    bounded_view_def = make_size_bounded(inner, head=(X,), bound=3)
    print("V(x) :=", bounded_view_def)
    print("is_size_bounded(V)?", is_size_bounded(bounded_view_def, head=(X,)))
    print(
        "\nSize-bounded FO views act as the PTIME bounded-output oracle when "
        "checking topped queries: their declared bound becomes a virtual "
        "access constraint on the cached view relation."
    )


if __name__ == "__main__":
    main()
