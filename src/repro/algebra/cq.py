"""Conjunctive queries (CQ / SPC queries) and their tableau representation.

A conjunctive query ``Q(x̄) = ∃x̄' φ(x̄, x̄')`` is represented by

* a **head**: the tuple of output terms ``x̄`` (variables or constants),
* a conjunction of **relation atoms**, and
* a conjunction of **equality atoms** between variables and constants.

The *tableau representation* ``(T_Q, ū)`` (paper, Section 3.1) is obtained by
transitively applying the equality atoms: variables that are equated are
merged, variables equated to a constant become that constant.  The tableau is
the set of resulting relation atoms viewed as an instance whose "values" are
constants and the remaining variables (labelled nulls); the summary ``ū`` is
the head after the same substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import QueryError, SchemaError
from .atoms import EqualityAtom, RelationAtom
from .schema import DatabaseSchema
from .terms import Constant, FreshVariableFactory, Term, Variable, as_term


class _UnionFind:
    """Union-find over terms used to normalise equality atoms."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        parent = self._parent.get(term, term)
        if parent == term:
            return term
        root = self.find(parent)
        self._parent[term] = root
        return root

    def union(self, left: Term, right: Term) -> bool:
        """Merge the classes of ``left`` and ``right``.

        Returns ``False`` when the merge is inconsistent, i.e. it would equate
        two distinct constants.
        """
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left == root_right:
            return True
        left_const = isinstance(root_left, Constant)
        right_const = isinstance(root_right, Constant)
        if left_const and right_const:
            return False
        if left_const:
            # Constants are always class representatives.
            self._parent[root_right] = root_left
        else:
            self._parent[root_left] = root_right
        return True

    def representative_map(self, terms: Iterable[Term]) -> dict[Term, Term]:
        return {term: self.find(term) for term in terms}


@dataclass(frozen=True)
class Tableau:
    """Tableau representation ``(T_Q, ū)`` of a conjunctive query."""

    atoms: frozenset[RelationAtom]
    summary: tuple[Term, ...]

    def facts(self) -> dict[str, set[tuple]]:
        """Return the tableau as facts: relation name -> set of value tuples.

        Constants contribute their wrapped value; variables contribute the
        :class:`Variable` object itself, playing the role of a labelled null.
        This is exactly the *canonical database* used for containment tests
        and for the constructions in the paper's proofs.
        """
        facts: dict[str, set[tuple]] = {}
        for atom in self.atoms:
            values = tuple(
                term.value if isinstance(term, Constant) else term for term in atom.terms
            )
            facts.setdefault(atom.relation, set()).add(values)
        return facts

    def summary_values(self) -> tuple:
        """Summary with constants unwrapped (variables stay as objects)."""
        return tuple(
            term.value if isinstance(term, Constant) else term for term in self.summary
        )

    @property
    def variables(self) -> frozenset[Variable]:
        found: set[Variable] = set()
        for atom in self.atoms:
            found.update(atom.variables)
        found.update(t for t in self.summary if isinstance(t, Variable))
        return frozenset(found)

    def __str__(self) -> str:
        atoms = " ∧ ".join(sorted(str(a) for a in self.atoms))
        head = ", ".join(str(t) for t in self.summary)
        return f"({head}) <- {atoms}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``Q(head) :- atoms, equalities``.

    >>> from repro.algebra.terms import variables
    >>> x, y = variables("x y")
    >>> q = ConjunctiveQuery(head=(x,), atoms=(RelationAtom("R", (x, y)),))
    >>> q.head_arity
    1
    """

    head: tuple[Term, ...]
    atoms: tuple[RelationAtom, ...]
    equalities: tuple[EqualityAtom, ...] = ()
    name: str = "Q"

    def __init__(
        self,
        head: Sequence[object],
        atoms: Sequence[RelationAtom] = (),
        equalities: Sequence[EqualityAtom] = (),
        name: str = "Q",
    ) -> None:
        object.__setattr__(self, "head", tuple(as_term(t) for t in head))
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "equalities", tuple(equalities))
        object.__setattr__(self, "name", name)
        for equality in self.equalities:
            if equality.negated:
                raise QueryError(
                    f"conjunctive queries admit only equality conditions, got {equality}"
                )

    # ------------------------------------------------------------------ #
    # Structural accessors
    # ------------------------------------------------------------------ #

    @property
    def head_arity(self) -> int:
        return len(self.head)

    @property
    def is_boolean(self) -> bool:
        return not self.head

    @property
    def variables(self) -> frozenset[Variable]:
        """All variables of the query (free and existentially quantified)."""
        found: set[Variable] = set(t for t in self.head if isinstance(t, Variable))
        for atom in self.atoms:
            found.update(atom.variables)
        for equality in self.equalities:
            found.update(equality.variables)
        return frozenset(found)

    @property
    def head_variables(self) -> frozenset[Variable]:
        return frozenset(t for t in self.head if isinstance(t, Variable))

    @property
    def existential_variables(self) -> frozenset[Variable]:
        return self.variables - self.head_variables

    @property
    def constants(self) -> frozenset[Constant]:
        found: set[Constant] = set(t for t in self.head if isinstance(t, Constant))
        for atom in self.atoms:
            found.update(atom.constants)
        for equality in self.equalities:
            for term in (equality.left, equality.right):
                if isinstance(term, Constant):
                    found.add(term)
        return frozenset(found)

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(atom.relation for atom in self.atoms)

    def validate(self, schema: DatabaseSchema) -> None:
        """Check atoms against ``schema`` and the safety of head variables."""
        for atom in self.atoms:
            atom.validate(schema)
        body_vars = set()
        for atom in self.atoms:
            body_vars.update(atom.variables)
        # A head variable is safe if it occurs in the body or is equated
        # (possibly transitively) to a constant or body variable.
        mapping = self._equality_mapping()
        for term in self.head:
            if isinstance(term, Variable):
                resolved = mapping.get(term, term)
                if isinstance(resolved, Variable) and resolved not in {
                    mapping.get(v, v) for v in body_vars
                }:
                    raise QueryError(
                        f"head variable {term} of query {self.name!r} does not occur "
                        "in the body and is not equated to a body term"
                    )

    # ------------------------------------------------------------------ #
    # Normalisation and the tableau representation
    # ------------------------------------------------------------------ #

    def _union_find(self) -> _UnionFind | None:
        """Build the union-find induced by the equality atoms.

        Returns ``None`` when the equalities are inconsistent (two distinct
        constants are equated), i.e. the query is unsatisfiable.
        """
        uf = _UnionFind()
        for equality in self.equalities:
            if not uf.union(equality.left, equality.right):
                return None
        return uf

    def _equality_mapping(self) -> dict[Term, Term]:
        uf = self._union_find()
        if uf is None:
            return {}
        return uf.representative_map(self.variables)

    def is_satisfiable(self) -> bool:
        """A CQ is unsatisfiable only if its equalities equate two constants."""
        return self._union_find() is not None

    def normalize(self) -> "ConjunctiveQuery":
        """Fold the equality atoms into the relation atoms and the head.

        The result has no equality atoms; equated variables are replaced by a
        single representative, and variables equated to a constant are
        replaced by that constant.  Raises :class:`QueryError` when the query
        is unsatisfiable.  A query without equality atoms is its own normal
        form; otherwise the result is computed once per (immutable) instance.
        """
        if not self.equalities:
            return self
        normalized = self.__dict__.get("_normalized")
        if normalized is None:
            uf = self._union_find()
            if uf is None:
                raise QueryError(f"query {self.name!r} is unsatisfiable (constants equated)")
            mapping = uf.representative_map(self.variables)
            atoms = tuple(atom.substitute(mapping) for atom in self.atoms)
            head = tuple(mapping.get(term, term) for term in self.head)
            normalized = ConjunctiveQuery(head=head, atoms=atoms, equalities=(), name=self.name)
            self.__dict__["_normalized"] = normalized
        return normalized

    def tableau(self) -> Tableau:
        """Return the tableau representation ``(T_Q, ū)`` of the query (computed once)."""
        tableau = self.__dict__.get("_tableau")
        if tableau is None:
            normalized = self.normalize()
            tableau = Tableau(atoms=frozenset(normalized.atoms), summary=normalized.head)
            self.__dict__["_tableau"] = tableau
        return tableau

    # ------------------------------------------------------------------ #
    # Term-level rewriting helpers
    # ------------------------------------------------------------------ #

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head, atoms and equalities."""
        return ConjunctiveQuery(
            head=tuple(mapping.get(t, t) for t in self.head),
            atoms=tuple(atom.substitute(mapping) for atom in self.atoms),
            equalities=tuple(eq.substitute(mapping) for eq in self.equalities),
            name=self.name,
        )

    def with_extra_equalities(
        self, equalities: Iterable[EqualityAtom], name: str | None = None
    ) -> "ConjunctiveQuery":
        """Return a copy with additional equality atoms (used for element queries)."""
        return ConjunctiveQuery(
            head=self.head,
            atoms=self.atoms,
            equalities=self.equalities + tuple(equalities),
            name=name if name is not None else self.name,
        )

    def rename_apart(
        self, factory: FreshVariableFactory, keep: Iterable[Variable] = ()
    ) -> tuple["ConjunctiveQuery", dict[Term, Term]]:
        """Rename all variables not in ``keep`` to fresh ones.

        Returns the renamed query together with the substitution used, so the
        caller can relate old and new variables (e.g. to align a view's head
        with plan attributes).
        """
        keep_set = set(keep)
        mapping: dict[Term, Term] = {}
        for variable in sorted(self.variables, key=lambda v: v.name):
            if variable in keep_set:
                continue
            mapping[variable] = factory.fresh(variable.name)
        return self.substitute(mapping), mapping

    def project_head(self, positions: Sequence[int], name: str | None = None) -> "ConjunctiveQuery":
        """Return the query with its head restricted to ``positions``."""
        try:
            head = tuple(self.head[i] for i in positions)
        except IndexError as exc:
            raise QueryError(f"projection positions {positions} out of range") from exc
        return ConjunctiveQuery(
            head=head, atoms=self.atoms, equalities=self.equalities,
            name=name if name is not None else self.name,
        )

    def conjoin(self, other: "ConjunctiveQuery", name: str | None = None) -> "ConjunctiveQuery":
        """Conjoin two CQs, concatenating their heads.

        Shared variable names are *not* renamed apart: conjunction is by
        variable name, which matches the textbook semantics of writing the two
        bodies side by side.
        """
        return ConjunctiveQuery(
            head=self.head + other.head,
            atoms=self.atoms + other.atoms,
            equalities=self.equalities + other.equalities,
            name=name if name is not None else f"{self.name}_and_{other.name}",
        )

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        parts = [str(a) for a in self.atoms] + [str(e) for e in self.equalities]
        body = " ∧ ".join(parts) if parts else "true"
        return f"{self.name}({head}) :- {body}"


def cq(
    name: str,
    head: Sequence[object],
    atoms: Sequence[RelationAtom],
    equalities: Sequence[EqualityAtom] = (),
) -> ConjunctiveQuery:
    """Convenience constructor mirroring the paper's ``Q(x̄) = ...`` notation."""
    return ConjunctiveQuery(head=head, atoms=atoms, equalities=equalities, name=name)


def check_same_arity(queries: Sequence[ConjunctiveQuery]) -> int:
    """Return the common head arity of ``queries`` or raise :class:`QueryError`."""
    if not queries:
        raise QueryError("expected at least one conjunctive query")
    arity = queries[0].head_arity
    for query in queries[1:]:
        if query.head_arity != arity:
            raise QueryError(
                "queries in a union must share the same head arity: "
                f"{queries[0].name!r} has {arity}, {query.name!r} has {query.head_arity}"
            )
    return arity
