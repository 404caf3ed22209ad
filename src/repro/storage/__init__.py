"""Storage substrate: instances, indices, statistics, updates, delta streams."""

from .deltas import DeltaObserver, DeltaStream
from .indexes import AccessIndex, IndexSet
from .instance import Database, Relation
from .statistics import (
    constraint_bound,
    discover_access_constraints,
    verify_expected_schema,
)
from .updates import Deletion, Insertion, UpdateBatch, random_update_batch

__all__ = [
    "AccessIndex",
    "Database",
    "Deletion",
    "DeltaObserver",
    "DeltaStream",
    "IndexSet",
    "Insertion",
    "Relation",
    "UpdateBatch",
    "constraint_bound",
    "discover_access_constraints",
    "random_update_batch",
    "verify_expected_schema",
]
