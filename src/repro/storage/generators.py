"""Deterministic synthetic-data helpers shared by the workload generators.

All generators take an explicit seed and use :class:`random.Random`, so
benchmark and test runs are reproducible.
"""

from __future__ import annotations

import random
import string
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Sequence


def rng(seed: int) -> random.Random:
    """A seeded random generator (one per workload, never the global one)."""
    return random.Random(seed)


def identifier(prefix: str, number: int, width: int = 6) -> str:
    """A readable synthetic identifier such as ``person_000042``."""
    return f"{prefix}_{number:0{width}d}"


def random_name(generator: random.Random, length: int = 8) -> str:
    """A pronounceable-ish random string (used for names/labels)."""
    letters = string.ascii_lowercase
    return "".join(generator.choice(letters) for _ in range(length))


@lru_cache(maxsize=16)
def _zipf_table(n: int, skew: float) -> tuple[float, tuple[float, ...]]:
    """``(total, running sums)`` of the truncated zeta weights ``1/(i+1)^skew``.

    The running sums are accumulated left to right and the total is taken
    with ``sum`` — the exact floating-point values a sample-time loop over
    the weights would see — so sampling against the table is bit-identical
    to recomputing the weights per sample.
    """
    weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
    return sum(weights), tuple(accumulate(weights))


def zipf_index(generator: random.Random, n: int, skew: float = 1.1) -> int:
    """Sample an index in ``[0, n)`` with an (approximate) Zipf distribution.

    Real-life datasets behind the paper's experiments (social graphs, call
    records) are heavily skewed; the skew is what makes naive scans expensive
    while access constraints still hold.
    """
    if n <= 1:
        return 0
    # Inverse-CDF sampling over a truncated zeta distribution: the first
    # index whose running sum reaches the target.
    total, cumulative = _zipf_table(n, skew)
    return min(bisect_left(cumulative, generator.random() * total), n - 1)


def bounded_choices(
    generator: random.Random,
    population: Sequence[object],
    count: int,
) -> list[object]:
    """Sample ``count`` distinct items (or fewer if the population is small)."""
    count = min(count, len(population))
    return generator.sample(list(population), count)


def partitioned_counts(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` near-equal counts (deterministic)."""
    if parts <= 0:
        return []
    base, remainder = divmod(total, parts)
    return [base + (1 if i < remainder else 0) for i in range(parts)]
