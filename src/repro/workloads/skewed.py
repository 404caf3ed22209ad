"""A skewed social-feed workload where average-priced join ordering goes wrong.

Schema:

* ``follows(celeb, fan)`` — who follows which celebrity;
* ``staff(team, agent)`` — support agents grouped into small teams;
* ``contacted(user, agent)`` — which users contacted which agents.

Access schema:

* ``follows(celeb -> fan, F)`` — a celebrity has at most ``F`` followers
  (large: the hot celebrity is popular);
* ``staff(team -> agent, S)`` — teams are small;
* ``contacted(user -> agent, Cu)`` — a user contacts few agents;
* ``contacted(agent -> user, Ca)`` — an agent serves a bounded book of users.

The benchmark query asks for (fan, agent) pairs where the fan follows the
hot celebrity and contacted an agent of one specific team.  Both directions
of ``contacted`` yield a conforming bounded plan, but their costs diverge by
orders of magnitude on skewed data: probing ``contacted[user -> agent]``
once per follower of the hot celebrity fetches every contact of thousands
of fans, while probing ``contacted[agent -> user]`` once per agent of the
one small team fetches a few hundred tuples.  The greedy fetch loop
(``HeuristicPlanner(max_dp_atoms=0)``) orders fetches by the *average*
bucket size of each constraint and walks into the expensive direction; the
default subset-DP orderer prices the ``follows.celeb`` key at the column's
second-moment bucket — a key drawn from this data is most likely the hot
one — and picks the cheap direction without reading which celebrity the
query names.  That makes this the reference workload for the DP-vs-greedy
figures and the adaptive re-planning tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.atoms import RelationAtom
from ..algebra.cq import ConjunctiveQuery
from ..algebra.schema import DatabaseSchema, schema_from_spec
from ..algebra.terms import Constant, Variable
from ..algebra.views import ViewSet
from ..core.access import AccessConstraint, AccessSchema
from ..storage.generators import rng
from ..storage.instance import Database

HOT_CELEB = "c_hot"
HOT_TEAM = "t0"


def schema() -> DatabaseSchema:
    """The social-feed schema (follows / staff / contacted)."""
    return schema_from_spec(
        {
            "follows": ("celeb", "fan"),
            "staff": ("team", "agent"),
            "contacted": ("user", "agent"),
        }
    )


def access_schema(
    fan_bound: int = 4000,
    team_size: int = 10,
    contacts_per_user: int = 20,
    contacts_per_agent: int = 200,
) -> AccessSchema:
    """The four access constraints described in the module docstring."""
    return AccessSchema(
        (
            AccessConstraint("follows", ("celeb",), ("fan",), fan_bound),
            AccessConstraint("staff", ("team",), ("agent",), team_size),
            AccessConstraint("contacted", ("user",), ("agent",), contacts_per_user),
            AccessConstraint("contacted", ("agent",), ("user",), contacts_per_agent),
        )
    )


def views() -> ViewSet:
    """The workload runs without materialised views (pure fetch plans)."""
    return ViewSet(())


def query_feed(celeb: str = HOT_CELEB, team: str = HOT_TEAM) -> ConjunctiveQuery:
    """Q(fan, agent): fans of ``celeb`` who contacted an agent of ``team``."""
    fan, agent = Variable("fan"), Variable("agent")
    return ConjunctiveQuery(
        head=(fan, agent),
        atoms=(
            RelationAtom("follows", (Constant(celeb), fan)),
            RelationAtom("staff", (Constant(team), agent)),
            RelationAtom("contacted", (fan, agent)),
        ),
        name="Qfeed",
    )


@dataclass
class SkewedInstance:
    """A generated social-feed dataset together with its parameters."""

    database: Database
    hot_fans: int
    teams: int
    team_size: int
    users: int
    contacts_per_user: int

    @property
    def agents(self) -> int:
        return self.teams * self.team_size


def generate(
    hot_fans: int = 2000,
    cold_celebs: int = 50,
    cold_fans_each: int = 4,
    teams: int = 50,
    team_size: int = 5,
    users: int = 5000,
    contacts_per_user: int = 8,
    seed: int = 11,
) -> SkewedInstance:
    """Generate a skewed dataset satisfying the default access schema.

    One hot celebrity (:data:`HOT_CELEB`) has ``hot_fans`` followers —
    the histogram's hot-key singleton bucket — while ``cold_celebs`` others
    have a handful each, so the *average* follows bucket is tiny and the
    greedy loop's averaged estimates misprice the hot key.  Users
    ``fan0 .. fan{users-1}`` (a superset of the hot fans) each contact
    ``contacts_per_user`` agents chosen round-robin with jitter, keeping
    every ``contacted`` bucket within its bound in both directions.
    Answers to :func:`query_feed` exist by construction: hot fans whose
    contacts land on :data:`HOT_TEAM`'s agents.
    """
    generator = rng(seed)
    database = Database(schema())

    database.add_many(
        "follows", [(HOT_CELEB, f"fan{index}") for index in range(hot_fans)]
    )
    for celeb_index in range(cold_celebs):
        for fan_offset in range(cold_fans_each):
            fan_index = generator.randrange(users)
            database.add("follows", (f"c{celeb_index}", f"fan{fan_index}"))

    agents = teams * team_size
    database.add_many(
        "staff",
        [
            (f"t{agent_index // team_size}", f"agent{agent_index}")
            for agent_index in range(agents)
        ],
    )

    contacts = set()
    for user_index in range(users):
        for contact in range(contacts_per_user):
            # Round-robin base keeps agent books balanced (bounded in the
            # agent -> user direction); the jitter de-correlates users.
            agent_index = (user_index + contact * generator.randrange(1, 7)) % agents
            contacts.add((f"fan{user_index}", f"agent{agent_index}"))
    database.add_many("contacted", sorted(contacts))

    return SkewedInstance(
        database=database,
        hot_fans=hot_fans,
        teams=teams,
        team_size=team_size,
        users=users,
        contacts_per_user=contacts_per_user,
    )
