"""Random conjunctive-query generation over an arbitrary schema.

The paper's motivation cites experiments where, under a couple of hundred
access constraints, roughly 77% of randomly generated conjunctive queries are
boundedly evaluable, and bounded plans beat full scans by orders of
magnitude.  This generator produces the random CQ workloads used by the
corresponding benchmarks: queries are built by picking relation atoms,
sharing join variables with a configurable probability and grounding some
attributes with constants drawn from the data (so that a realistic fraction
of queries can be anchored by the access-constraint indices).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema
from ..algebra.terms import Constant, Term, Variable
from ..storage.generators import rng
from ..storage.instance import Database


@dataclass
class RandomCQConfig:
    """Knobs of the random CQ generator."""

    min_atoms: int = 2
    max_atoms: int = 4
    constant_probability: float = 0.3
    join_probability: float = 0.6
    head_size: int = 2
    seed: int = 42


def _constant_pool(database: Database, per_relation: int, generator: random.Random) -> dict[str, list[tuple]]:
    pool: dict[str, list[tuple]] = {}
    for name, relation in database.facts.items():
        # Sorted first: a set's iteration order follows the salted string
        # hash, so the seeded shuffle alone would depend on PYTHONHASHSEED.
        rows = sorted(relation, key=repr)
        generator.shuffle(rows)
        pool[name] = rows[:per_relation]
    return pool


def random_cq(
    schema: DatabaseSchema,
    database: Database,
    config: RandomCQConfig,
    generator: random.Random,
    name: str = "Qr",
) -> ConjunctiveQuery:
    """Generate one random CQ whose constants come from the database."""
    pool = _constant_pool(database, per_relation=20, generator=generator)
    relations = [r for r in schema.names if len(database.relation(r)) > 0]
    if not relations:
        relations = list(schema.names)
    num_atoms = generator.randint(config.min_atoms, config.max_atoms)
    atoms: list[RelationAtom] = []
    variables: list[Variable] = []
    counter = 0
    for _ in range(num_atoms):
        relation_name = generator.choice(relations)
        relation = schema.relation(relation_name)
        sample_rows = pool.get(relation_name, [])
        sample = generator.choice(sample_rows) if sample_rows else None
        terms: list[Term] = []
        for position, attribute in enumerate(relation.attributes):
            roll = generator.random()
            if sample is not None and roll < config.constant_probability:
                terms.append(Constant(sample[position]))
            elif variables and roll < config.constant_probability + config.join_probability:
                terms.append(generator.choice(variables))
            else:
                variable = Variable(f"v{counter}")
                counter += 1
                variables.append(variable)
                terms.append(variable)
        atoms.append(RelationAtom(relation_name, terms))
    head_candidates = list(dict.fromkeys(variables))
    generator.shuffle(head_candidates)
    head = tuple(head_candidates[: config.head_size])
    if not head and head_candidates:
        head = (head_candidates[0],)
    return ConjunctiveQuery(head=head, atoms=tuple(atoms), name=name)


def random_workload(
    schema: DatabaseSchema,
    database: Database,
    count: int,
    config: RandomCQConfig | None = None,
) -> list[ConjunctiveQuery]:
    """Generate ``count`` random CQs (deterministic for a given config seed)."""
    config = config or RandomCQConfig()
    generator = rng(config.seed)
    return [
        random_cq(schema, database, config, generator, name=f"Qr{i}") for i in range(count)
    ]
