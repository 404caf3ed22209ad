"""The Graph Search workload of Example 1.1 (movies liked by NASA folks).

Schema ``R0``:

* ``person(pid, name, affiliation)``
* ``movie(mid, mname, studio, release)``
* ``rating(mid, rank)``
* ``like(pid, id, type)``

Access schema ``A0``:

* ``φ1 = movie((studio, release) -> mid, N0)`` — each studio releases at most
  ``N0`` movies per year (``N0 ≈ 100`` in practice);
* ``φ2 = rating(mid -> rank, 1)`` — each movie has a unique rating;

optionally extended (``A1``) with ``φ3 = like((pid, id) -> type, 1)``.

Query ``Q0``: movies released by Universal Studios in 2014, liked by people
at NASA and rated 5.  ``Q0`` is *not* boundedly evaluable under ``A0`` (the
person/like relations are unbounded), but with the view ``V1`` (movies liked
by NASA folks) it has an 11-bounded rewriting whose plan ``ξ0`` (Figure 1)
fetches at most ``2·N0`` tuples however large the database grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema, schema_from_spec
from ..algebra.terms import Constant, Variable
from ..algebra.views import View, ViewSet
from ..core.access import AccessConstraint, AccessSchema
from ..core.plans import (
    AttributeEqualsAttribute,
    AttributeEqualsConstant,
    ConstantScan,
    FetchNode,
    PlanNode,
    ProductNode,
    ProjectNode,
    RenameNode,
    SelectNode,
    ViewScan,
)
from ..errors import AccessConstraintError
from ..storage.generators import identifier, rng, zipf_index
from ..storage.instance import Database

STUDIOS = ("Universal", "Paramount", "Warner", "Sony", "Disney", "MGM", "Lionsgate")
YEARS = tuple(str(year) for year in range(2005, 2016))
AFFILIATIONS = ("NASA", "ESA", "MIT", "CERN", "EPFL", "Edinburgh", "Beihang")


def schema() -> DatabaseSchema:
    """The database schema R0 of Example 1.1."""
    return schema_from_spec(
        {
            "person": ("pid", "name", "affiliation"),
            "movie": ("mid", "mname", "studio", "release"),
            "rating": ("mid", "rank"),
            "like": ("pid", "id", "type"),
        }
    )


def access_schema(n0: int = 100, with_like_key: bool = False) -> AccessSchema:
    """The access schema A0 (or A1 when ``with_like_key``) of Examples 1.1/3.3."""
    constraints = [
        AccessConstraint("movie", ("studio", "release"), ("mid",), n0),
        AccessConstraint("rating", ("mid",), ("rank",), 1),
    ]
    if with_like_key:
        constraints.append(AccessConstraint("like", ("pid", "id"), ("type",), 1))
    return AccessSchema(constraints)


def query_q0() -> ConjunctiveQuery:
    """Q0(mid): Universal movies from 2014, liked by NASA people, rated 5."""
    mid, xp, xp_name, ym = (
        Variable("mid"),
        Variable("xp"),
        Variable("xp_name"),
        Variable("ym"),
    )
    return ConjunctiveQuery(
        head=(mid,),
        atoms=(
            RelationAtom("person", (xp, xp_name, Constant("NASA"))),
            RelationAtom("movie", (mid, ym, Constant("Universal"), Constant("2014"))),
            RelationAtom("like", (xp, mid, Constant("movie"))),
            RelationAtom("rating", (mid, Constant(5))),
        ),
        name="Q0",
    )


def view_v1() -> View:
    """V1(mid): movies liked by people at NASA (Example 1.1)."""
    mid, xp, xp_name, ym, z1, z2 = (
        Variable("mid"),
        Variable("xp"),
        Variable("xp_name"),
        Variable("ym"),
        Variable("z1"),
        Variable("z2"),
    )
    definition = ConjunctiveQuery(
        head=(mid,),
        atoms=(
            RelationAtom("person", (xp, xp_name, Constant("NASA"))),
            RelationAtom("movie", (mid, ym, z1, z2)),
            RelationAtom("like", (xp, mid, Constant("movie"))),
        ),
        name="V1_def",
    )
    return View("V1", definition)


def view_v2() -> View:
    """V2(pid): people who work at NASA (Example 3.3)."""
    pid, name = Variable("pid"), Variable("name")
    definition = ConjunctiveQuery(
        head=(pid,),
        atoms=(RelationAtom("person", (pid, name, Constant("NASA"))),),
        name="V2_def",
    )
    return View("V2", definition)


def views() -> ViewSet:
    return ViewSet((view_v1(), view_v2()))


def figure1_plan() -> PlanNode:
    """The bounded plan ξ0 of Figure 1 (modulo explicit renaming nodes).

    Fetches Universal/2014 movies through φ1, filters them against the cached
    view V1, fetches their ratings through φ2, keeps rank 5 and projects the
    movie identifiers.
    """
    studio = ConstantScan("Universal", attribute="studio")
    release = ConstantScan("2014", attribute="release")
    keys = ProductNode(studio, release)
    movies = FetchNode(keys, "movie", ("studio", "release"), ("mid",))
    movie_ids = ProjectNode(movies, ("mid",))

    liked = RenameNode(ViewScan("V1", ("mid",)), {"mid": "mid_v"})
    pairs = ProductNode(movie_ids, liked)
    matched = SelectNode(pairs, (AttributeEqualsAttribute("mid", "mid_v"),))
    candidates = ProjectNode(matched, ("mid",))

    ratings = FetchNode(candidates, "rating", ("mid",), ("rank",))
    rated_five = SelectNode(ratings, (AttributeEqualsConstant("rank", 5),))
    return ProjectNode(rated_five, ("mid",))


@dataclass
class GraphSearchInstance:
    """A generated Graph Search dataset together with its parameters."""

    database: Database
    n0: int
    num_persons: int
    num_movies: int
    nasa_fraction: float


def generate(
    num_persons: int = 1000,
    num_movies: int = 500,
    likes_per_person: int = 5,
    n0: int = 100,
    nasa_fraction: float = 0.02,
    planted_answers: int = 3,
    seed: int = 7,
) -> GraphSearchInstance:
    """Generate a dataset satisfying A0 (and A1) with the requested scale.

    The movie relation is generated so that no (studio, release) pair exceeds
    ``n0`` movies; each movie gets exactly one rating; likes are skewed
    towards popular movies, as in real social data.  ``planted_answers``
    guarantees that Q0 has at least that many answers (Universal/2014 movies
    rated 5 and liked by a NASA person), so the workload is never vacuous.
    More movies than the ``len(STUDIOS) * len(YEARS) * n0`` that
    ``movie((studio, release) -> mid, n0)`` admits are refused.
    """
    capacity = len(STUDIOS) * len(YEARS) * n0
    if num_movies + planted_answers > capacity:
        raise AccessConstraintError(
            f"{num_movies} movies + {planted_answers} planted answers exceed the "
            f"{capacity} that movie((studio, release) -> mid, {n0}) admits over "
            f"{len(STUDIOS)} studios x {len(YEARS)} years; raise n0 or lower num_movies"
        )
    generator = rng(seed)
    database = Database(schema())

    persons = []
    for index in range(num_persons):
        pid = identifier("p", index)
        affiliation = (
            "NASA" if generator.random() < nasa_fraction else generator.choice(AFFILIATIONS[1:])
        )
        persons.append(pid)
        database.add("person", (pid, f"name_{index}", affiliation))

    movies = []
    group_counts: dict[tuple[str, str], int] = {}
    for index in range(num_movies):
        mid = identifier("m", index)
        # Pick a (studio, release) group that still has room under N0.
        for _ in range(20):
            studio = generator.choice(STUDIOS)
            release = generator.choice(YEARS)
            if group_counts.get((studio, release), 0) < n0:
                break
        else:  # nearly full: take the first group with room (capacity checked above)
            studio, release = next(
                (s, y)
                for s in STUDIOS
                for y in YEARS
                if group_counts.get((s, y), 0) < n0
            )
        group_counts[(studio, release)] = group_counts.get((studio, release), 0) + 1
        movies.append(mid)
        database.add("movie", (mid, f"title_{index}", studio, release))
        database.add("rating", (mid, generator.randint(1, 5)))

    for pid in persons:
        liked = set()
        for _ in range(likes_per_person):
            movie_index = zipf_index(generator, len(movies), skew=1.2)
            liked.add(movies[movie_index])
        for mid in liked:
            database.add("like", (pid, mid, "movie"))

    # Plant guaranteed answers for Q0: Universal/2014 movies rated 5, liked by
    # a NASA person.  The planted movies stay within the N0 group bound.
    if planted_answers > 0:
        nasa_pid = identifier("p", num_persons)
        database.add("person", (nasa_pid, "planted_nasa", "NASA"))
        for index in range(planted_answers):
            if group_counts.get(("Universal", "2014"), 0) >= n0:
                break
            mid = identifier("m", num_movies + index)
            group_counts[("Universal", "2014")] = (
                group_counts.get(("Universal", "2014"), 0) + 1
            )
            database.add("movie", (mid, f"planted_title_{index}", "Universal", "2014"))
            database.add("rating", (mid, 5))
            database.add("like", (nasa_pid, mid, "movie"))

    return GraphSearchInstance(
        database=database,
        n0=n0,
        num_persons=num_persons,
        num_movies=num_movies,
        nasa_fraction=nasa_fraction,
    )
