"""Exception hierarchy for the bounded-rewriting library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications can catch a single base class.  More specific subclasses signal
schema problems, malformed queries, plan construction errors and resource
budgets being exceeded by the (worst-case exponential) decision procedures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relation / attribute reference does not match the database schema."""


class QueryError(ReproError):
    """A query is malformed (arity mismatch, unsafe head variable, ...)."""


class PlanError(ReproError):
    """A query plan is malformed (attribute mismatch, unknown view, ...)."""


class PlanVerificationError(PlanError):
    """A plan failed static verification (:mod:`repro.analysis`).

    Raised by :class:`~repro.engine.service.QueryService` when a plan fails
    the :func:`repro.analysis.verify_plan` checker — every plan is checked
    before it enters the plan cache, and a hand-built plan before
    ``execute_plan`` runs it.  ``diagnostics``
    carries the individual findings; ``query_name`` names the offending query
    when known.
    """

    def __init__(
        self,
        message: str,
        diagnostics: tuple = (),
        query_name: str | None = None,
    ) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)
        self.query_name = query_name


class AccessConstraintError(ReproError):
    """An access constraint refers to unknown relations or attributes."""


class UnsupportedQueryError(ReproError):
    """The operation is not defined for this query language fragment.

    For instance, asking for the tableau of a query with negation, or the
    exact bounded-output test of a full FO query (undecidable; use the
    size-bounded effective syntax instead).
    """


class BudgetExceededError(ReproError):
    """An exponential decision procedure exceeded its configured budget.

    The bounded-rewriting and bounded-output problems are Sigma^p_3- and
    coNP-complete respectively, so exact procedures enumerate exponentially
    many candidates in the worst case.  Budgets keep them predictable; callers
    can raise the budget or switch to the heuristic/effective-syntax path.
    """


class DeltaCompilationError(UnsupportedQueryError):
    """A view definition could not be compiled into delta rules or kernels.

    Raised when the maintainer materialises the view: for a body without
    relation atoms, an unsafe head, a delta program that fails verification
    or generated kernel source that does not compile.  Subclasses
    :class:`UnsupportedQueryError`; ``view_name`` (and, when relevant,
    ``relation``) identify the offending artifact.
    """

    def __init__(
        self,
        message: str,
        view_name: str | None = None,
        relation: str | None = None,
    ) -> None:
        super().__init__(message)
        self.view_name = view_name
        self.relation = relation


class EvaluationError(ReproError):
    """A query or plan could not be evaluated on the given database."""


class PlanStoreError(ReproError):
    """A persistent plan-store file is unreadable (truncated, garbage, ...).

    Raised by :class:`repro.engine.service.plan_store.PlanStore` when the
    on-disk payload cannot be decoded at all.  A *stale* store — wrong
    statistics fingerprint or planner-chain signature, or an unknown format
    version — is not an error: the service silently plans from scratch.
    """
