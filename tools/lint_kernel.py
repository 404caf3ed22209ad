#!/usr/bin/env python3
"""Kernel-discipline linter (CI job ``lint``).

The repository's accounting and layering guarantees are easy to break
silently — an operator that fetches tuples without charging the
:class:`~repro.exec.iometer.IOMeter` skews every ``Dξ`` measurement, and a
module reaching into storage internals bypasses the netted write path the
maintenance kernel depends on.  This linter enforces these rules by AST
inspection (no imports of the checked code, so it runs on any tree):

``kernel.unmetered-fetch``
    In ``src/repro/exec/codegen.py``, ``src/repro/exec/cq_compiler.py``
    and ``src/repro/exec/delta_compiler.py`` (the modules that generate
    kernels, for reads and maintenance), every function that touches a
    storage-boundary
    probe — ``.fetch`` or any ``.fetch_*`` variant such as the batched
    ``.fetch_many``, or a call of a local alias of one — must also reference
    ``record_fetch``: tuples crossing the boundary are charged to the meter
    in the same function that pulls them.  For the codegen tiers this covers
    the *generated* closures too: they are nested functions of the compiling
    function, and ``ast.walk`` descends into them.

``kernel.unmetered-view-read``
    In ``src/repro/exec/codegen.py``, every function that reads a cached
    view — loads a ``.views`` attribute, the runtime's view versions — must
    also reference ``record_view_scan``: a whole read charges ``|V|``, a
    keyed probe the rows its bucket holds, and either is charged in the
    function that reads it (``view_tuples_scanned`` is what the reference
    evaluator checks every view read against).

``kernel.codegen-storage-import``
    The same three modules may not import ``repro.storage``: compiled
    closures only reach base data through the metered fetch protocol
    (``FetchProvider``) and loop nests through a late-bound ``FactsSource``,
    never through storage classes whose internals would let a kernel bypass
    the accounting boundary.

``kernel.storage-internals``
    No module outside ``src/repro/storage`` may access ``._tuples`` (the
    raw backing set of :class:`~repro.storage.instance.Relation`): it belongs
    to the relation's one write path (``Relation.apply_delta``), which keeps
    statistics, secondary indexes and the mutation counter in step with it.

``kernel.plan-store-exec-import``
    ``src/repro/engine/service/plan_store.py`` may not import ``repro.exec``
    (nor the in-memory plan cache): the persistent store holds plain data
    records only.  Compiled closures, meters and runtime state are rebuilt
    by the service after load — pickling execution-layer objects would tie
    the on-disk format to runtime internals.

``kernel.exhaustive-element-sweep``
    ``src/repro/core/bounded_output.py``, ``core/conformance.py``,
    ``core/equivalence.py`` and everything under ``src/repro/engine`` may not
    import or call ``iter_element_queries`` / ``element_queries``: that sweep
    over every equality pattern (Bell-number many) is the paper's
    *definition*, kept for examples and as the test oracle.  Decision
    procedures and planners run on the minimal element queries
    (``iter_minimal_element_queries``), which decide the same questions.

``kernel.service-resolve``
    Inside ``src/repro/engine/service/``, ``parse_query`` and
    ``canonical_query_key`` may be *called* only by the resolve stage
    (``resolve.py``), which memoises their results per distinct input;
    ``cache.py`` defines ``canonical_query_key`` and the package re-exports
    it.  An entry point that parses or canonicalises on its own re-does, on
    every warm call, the work the memo exists to skip — and can disagree with
    the checks the resolve stage applies once.  The same goes for the query
    *shape*: only the resolve stage constructs a ``Param`` or mentions
    ``SLOT_PREFIX``, so auto-parameter slots are minted, and shapes and
    binding vectors built, in one place — a second one could number slots
    differently and execute a shared plan with another input's values.

``kernel.write-path-plan-cache``
    The write path does not touch the plan cache: ``QueryService.on_delta``
    and ``QueryService.apply`` (``src/repro/engine/service/service.py``) may
    not mention ``plan_cache``, and nothing under ``src/`` may call
    ``.invalidate(...)`` on a plan cache (a receiver named ``…cache``).
    Whether a query has a bounded plan, and which, depends on the query, the
    access schema and the views — never on the data — and closures late-bind
    snapshot and view cache, so evicting on a write only buys re-planning,
    re-verification and recompilation of the same plan.

``kernel.row-observer``
    No per-row observer hook anywhere under ``src/repro``: no definition,
    call or getattr string of ``register_observer``, ``on_insert`` or
    ``on_delete``.  A write reaches storage as one netted batch per relation
    (``Relation.apply_delta``), and the snapshot version is the only
    access-constraint index; a hook fired per row would grow a second,
    row-at-a-time index back beside it, paying per row on every transaction.

``kernel.live-read``
    ``src/repro/engine/baseline.py`` and ``src/repro/engine/service/backends.py``
    may not read rows of a live ``Database``: no ``.facts`` attribute, no
    ``.relation(...)`` call and no ``NaiveEngine(database)``.  Every read
    pins one snapshot version; a full scan of the live instance racing a
    writer can observe a state that was never committed (the gap between
    the two set operations of ``Relation.apply_delta``).  Statistics reads
    are not row reads: they steer estimates only.

``kernel.write-path-statistics``
    In ``src/repro/storage/instance.py``, ``Relation.apply_delta``,
    ``Database._net`` and ``Database.apply`` may not mention
    ``_value_counts`` nor ``_square_sums``: column statistics — the exact
    value counts and their running second moments — fold in on read
    (``Relation.statistics``).  A write only accumulates each column's net
    value changes; moving value counts per write charges every transaction
    for estimates that may not be read before the next one.

``kernel.per-row-key``
    Under ``src/repro/storage/`` and in ``src/repro/core/access.py``,
    ``src/repro/engine/service/maintenance.py`` and
    ``src/repro/exec/cq_compiler.py``, no ``tuple(<row>[<p>] for <p> in …)``
    generator: a row's key or projection comes from
    :mod:`repro.algebra.rows` — ``projections`` / ``group_rows`` /
    ``count_projections`` for a row set, ``row_getter`` for one row at a
    time — which key in C.  A generator runs a Python frame per row and
    per position, and an index built that way over a whole relation is
    what made building a service's constraint indexes cost more than
    anything else it does at start-up.  ``src/repro/algebra/evaluation.py``
    is the independent reference evaluator and is left alone.

Usage::

    python tools/lint_kernel.py [--root PATH]

Exits 1 and prints one ``path:line: [code] message`` per violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

CODEGEN_FILE = Path("src/repro/exec/codegen.py")
CQ_COMPILER_FILE = Path("src/repro/exec/cq_compiler.py")
DELTA_COMPILER_FILE = Path("src/repro/exec/delta_compiler.py")
#: Modules that emit (or are) generated kernels, for reads and maintenance:
#: they may only reach base data through the metered fetch protocol or a
#: facts source, never via storage classes.
CODEGEN_FILES = frozenset({CODEGEN_FILE, CQ_COMPILER_FILE, DELTA_COMPILER_FILE})
METERED_FETCH_FILES = CODEGEN_FILES
STORAGE_DIR = Path("src/repro/storage")
#: The persistent plan store holds plain data records; execution-layer
#: modules it may never import (closures/meters are rebuilt after load).
PLAN_STORE_FILE = Path("src/repro/engine/service/plan_store.py")
PLAN_STORE_FORBIDDEN = ("repro.exec", "repro.engine.service.cache")

#: The exhaustive element-query sweep and the modules that must not run it.
EXHAUSTIVE_SWEEP_NAMES = frozenset({"iter_element_queries", "element_queries"})
DECISION_PROCEDURE_FILES = frozenset(
    {
        Path("src/repro/core/bounded_output.py"),
        Path("src/repro/core/conformance.py"),
        Path("src/repro/core/equivalence.py"),
    }
)
ENGINE_DIR = Path("src/repro/engine")

#: Per-input work owned by the service's resolve stage, and that stage's file.
SERVICE_DIR = Path("src/repro/engine/service")
RESOLVE_STAGE_FILE = SERVICE_DIR / "resolve.py"
RESOLVE_STAGE_CALLS = frozenset({"parse_query", "canonical_query_key", "Param"})
RESOLVE_STAGE_NAMES = frozenset({"SLOT_PREFIX"})

#: The write path: the service methods a committed transaction runs through.
SERVICE_FILE = SERVICE_DIR / "service.py"
WRITE_PATH_METHODS = frozenset({"on_delta", "apply"})


#: The full-scan readers: rows come from the pinned snapshot, never live.
LIVE_READ_FILES = frozenset(
    {Path("src/repro/engine/baseline.py"), SERVICE_DIR / "backends.py"}
)

#: The write path's storage methods, per class, and the folded statistics
#: fields they may not touch: statistics fold on read.
INSTANCE_FILE = STORAGE_DIR / "instance.py"
WRITE_PATH_STATISTICS_METHODS = {
    "Relation": frozenset({"apply_delta"}),
    "Database": frozenset({"_net", "apply"}),
}
FOLDED_STATISTICS_FIELDS = frozenset({"_value_counts", "_square_sums"})

#: Modules that key rows through repro.algebra.rows, never a per-row
#: ``tuple(row[p] for p in …)`` generator (plus everything under storage/).
PER_ROW_KEY_FILES = frozenset(
    {
        Path("src/repro/core/access.py"),
        SERVICE_DIR / "maintenance.py",
        CQ_COMPILER_FILE,
    }
)

#: Per-row change hooks: the write path is set-at-a-time, with no observers.
ROW_OBSERVER_NAMES = frozenset({"register_observer", "on_insert", "on_delete"})


@dataclass(frozen=True)
class Violation:
    path: Path
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.code}] {self.message}"


def _attribute_names(node: ast.AST) -> Iterator[tuple[str, int]]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr, sub.lineno
        elif isinstance(sub, ast.Name):
            yield sub.id, sub.lineno


def _fetch_probes(node: ast.AST) -> Iterator[tuple[str, int]]:
    """Storage-boundary probes under ``node``: a ``.fetch`` / ``.fetch_*``
    attribute, or a call of a local alias of one (``fetch_many(...)``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            name = sub.func.id
        elif isinstance(sub, ast.Name) and sub.id == "fetch":
            name = sub.id
        else:
            continue
        if name == "fetch" or name.startswith("fetch_"):
            yield name, sub.lineno


def check_metered_fetches(path: Path, tree: ast.Module) -> list[Violation]:
    """Every function touching a ``.fetch*`` probe must also reference the meter."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        probe = next(_fetch_probes(node), None)
        if probe is not None and "record_fetch" not in dict(_attribute_names(node)):
            name, line = probe
            violations.append(
                Violation(
                    path,
                    line,
                    "kernel.unmetered-fetch",
                    f"function {node.name!r} probes '.{name}' without charging "
                    "the IOMeter ('record_fetch'); every tuple crossing the "
                    "storage boundary must be metered in the same function",
                )
            )
    return violations


def check_metered_view_reads(path: Path, tree: ast.Module) -> list[Violation]:
    """Every function loading ``.views`` must also charge ``record_view_scan``."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = next(
            (
                sub
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and sub.attr == "views"
                and isinstance(sub.ctx, ast.Load)
            ),
            None,
        )
        if read is not None and "record_view_scan" not in dict(_attribute_names(node)):
            violations.append(
                Violation(
                    path,
                    read.lineno,
                    "kernel.unmetered-view-read",
                    f"function {node.name!r} reads '.views' without charging "
                    "the IOMeter ('record_view_scan'); every view read must be "
                    "metered in the same function",
                )
            )
    return violations


def check_storage_internals(path: Path, tree: ast.Module) -> list[Violation]:
    """``._tuples`` is storage-private; nobody else may touch it."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_tuples":
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "kernel.storage-internals",
                    "access to 'Relation._tuples' outside repro.storage "
                    "bypasses the relation's write path "
                    "(Relation.apply_delta); use the public Relation API",
                )
            )
    return violations


def check_codegen_storage_imports(path: Path, tree: ast.Module) -> list[Violation]:
    """The codegen module must stay behind the metered fetch protocol."""
    parts = path.parts
    package_parts: tuple[str, ...] = ()
    if "src" in parts:
        start = parts.index("src") + 1
        package_parts = tuple(parts[start:-1])
    violations: list[Violation] = []

    def report(line: int, module: str) -> None:
        violations.append(
            Violation(
                path,
                line,
                "kernel.codegen-storage-import",
                f"codegen module imports {module!r}; generated closures may "
                "only touch base data through the metered fetch protocol "
                "(FetchProvider), never through storage classes",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node, package_parts)
            if module == "repro.storage" or module.startswith("repro.storage."):
                report(node.lineno, module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.storage" or alias.name.startswith(
                    "repro.storage."
                ):
                    report(node.lineno, alias.name)
    return violations


def check_plan_store_imports(path: Path, tree: ast.Module) -> list[Violation]:
    """The persistent plan store stays a plain-data module."""
    parts = path.parts
    package_parts: tuple[str, ...] = ()
    if "src" in parts:
        start = parts.index("src") + 1
        package_parts = tuple(parts[start:-1])
    violations: list[Violation] = []

    def report(line: int, module: str) -> None:
        violations.append(
            Violation(
                path,
                line,
                "kernel.plan-store-exec-import",
                f"plan-store module imports {module!r}; the persistent store "
                "holds plain data records only — compiled closures and "
                "runtime caches are rebuilt by the service after load",
            )
        )

    def is_forbidden(module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in PLAN_STORE_FORBIDDEN
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _imported_module(node, package_parts)
            if is_forbidden(module):
                report(node.lineno, module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if is_forbidden(alias.name):
                    report(node.lineno, alias.name)
    return violations


def check_exhaustive_sweep(path: Path, tree: ast.Module) -> list[Violation]:
    """Decision procedures and planners stay off the Bell-number sweep."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        for name in EXHAUSTIVE_SWEEP_NAMES.intersection(names):
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "kernel.exhaustive-element-sweep",
                    f"use of {name!r}: the sweep over every equality pattern "
                    "is the definition and the test oracle only — decide on "
                    "the minimal element queries "
                    "('iter_minimal_element_queries') instead",
                )
            )
    return violations


def check_service_resolve(path: Path, tree: ast.Module) -> list[Violation]:
    """Only the resolve stage parses, canonicalises and mints parameter slots
    inside the service."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        # A bare name (ast.Name.id) or a qualified one (ast.Attribute.attr).
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            found = name in RESOLVE_STAGE_CALLS
        else:
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            found = name in RESOLVE_STAGE_NAMES
        if found:
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "kernel.service-resolve",
                    f"use of {name!r} outside the resolve stage; take the "
                    "memoised ResolvedQuery from 'ResolveStage.resolve' "
                    "instead of re-parsing, re-canonicalising or re-shaping "
                    "the input (its shape key and bindings included)",
                )
            )
    return violations


def check_write_path_plan_cache(path: Path, tree: ast.Module) -> list[Violation]:
    """Writes leave the plan cache alone: no sweep, no reference at all."""
    violations: list[Violation] = []

    def report(line: int, message: str) -> None:
        violations.append(
            Violation(path, line, "kernel.write-path-plan-cache", message)
        )

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "invalidate"
        ):
            receiver = node.func.value
            name = getattr(receiver, "id", None) or getattr(receiver, "attr", "")
            if name.endswith("cache"):
                report(
                    node.lineno,
                    f"call of '{name}.invalidate': plans are data-independent "
                    "and leave the cache by LRU, clear() or re-plan only",
                )
    if path != SERVICE_FILE:
        return violations
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "QueryService"):
            continue
        for method in cls.body:
            if (
                isinstance(method, ast.FunctionDef)
                and method.name in WRITE_PATH_METHODS
            ):
                for name, line in _attribute_names(method):
                    if name == "plan_cache":
                        report(
                            line,
                            f"QueryService.{method.name} mentions 'plan_cache': "
                            "the write path does not touch the plan cache",
                        )
    return violations


def check_row_observers(path: Path, tree: ast.Module) -> list[Violation]:
    """No per-row observer hook: writes reach storage as netted batches."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # getattr(observer, "on_insert")
        else:
            continue
        if name in ROW_OBSERVER_NAMES:
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "kernel.row-observer",
                    f"per-row observer hook {name!r}: storage applies one "
                    "netted delta per relation (Relation.apply_delta) and the "
                    "snapshot version is the only access-constraint index — "
                    "consume the transaction's DeltaStream instead",
                )
            )
    return violations


def check_live_reads(path: Path, tree: ast.Module) -> list[Violation]:
    """The full-scan readers read a pinned snapshot, never a live Database."""
    violations: list[Violation] = []

    def report(line: int, what: str) -> None:
        violations.append(
            Violation(
                path,
                line,
                "kernel.live-read",
                f"{what} reads rows of the live Database; a full scan must "
                "read the snapshot its read pinned (the backend's provider), "
                "or a concurrent write shows through half-applied",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "facts":
            report(node.lineno, "'.facts'")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "relation":
                report(node.lineno, "'.relation(...)'")
            elif getattr(func, "id", None) == "NaiveEngine" or getattr(
                func, "attr", None
            ) == "NaiveEngine":
                given = [*node.args[:1], *(k.value for k in node.keywords)]
                for argument in given:
                    name = getattr(argument, "id", None) or getattr(
                        argument, "attr", None
                    )
                    if name == "database":
                        report(node.lineno, "'NaiveEngine(database)'")
    return violations


def check_write_path_statistics(path: Path, tree: ast.Module) -> list[Violation]:
    """The write path accumulates value changes; statistics fold on read."""
    violations: list[Violation] = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = WRITE_PATH_STATISTICS_METHODS.get(cls.name, frozenset())
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name in methods):
                continue
            for node in ast.walk(method):
                if not (
                    isinstance(node, ast.Attribute)
                    and node.attr in FOLDED_STATISTICS_FIELDS
                ):
                    continue
                violations.append(
                    Violation(
                        path,
                        node.lineno,
                        "kernel.write-path-statistics",
                        f"{cls.name}.{method.name} mentions {node.attr!r}: "
                        "column statistics fold in on read "
                        "(Relation.statistics); a write only accumulates "
                        "each column's net value changes",
                    )
                )
    return violations


def check_per_row_keys(path: Path, tree: ast.Module) -> list[Violation]:
    """Row keys come from the C-keyed helpers, not a per-row generator."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "tuple"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.GeneratorExp)
        ):
            continue
        generator = node.args[0]
        element = generator.elt
        target = generator.generators[0].target
        if (
            len(generator.generators) == 1
            and isinstance(target, ast.Name)
            and isinstance(element, ast.Subscript)
            and isinstance(element.value, ast.Name)
            and isinstance(element.slice, ast.Name)
            and element.slice.id == target.id
        ):
            violations.append(
                Violation(
                    path,
                    node.lineno,
                    "kernel.per-row-key",
                    f"'tuple({element.value.id}[{target.id}] for {target.id} in …)' "
                    "keys a row with a Python frame per position; use "
                    "repro.algebra.rows (projections / group_rows / "
                    "count_projections over a row set, row_getter for one row)",
                )
            )
    return violations


def _imported_module(node: ast.ImportFrom, package_parts: tuple[str, ...]) -> str:
    """Absolute dotted module an ``ImportFrom`` resolves to (best effort)."""
    module = node.module or ""
    if node.level == 0:
        return module
    base = package_parts[: len(package_parts) - (node.level - 1)]
    return ".".join([*base, module] if module else base)


def lint_file(path: Path, root: Path) -> list[Violation]:
    """All violations in one file (paths are reported relative to ``root``)."""
    relative = path.relative_to(root)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations: list[Violation] = []
    if relative in METERED_FETCH_FILES:
        violations += check_metered_fetches(relative, tree)
    if relative == CODEGEN_FILE:
        violations += check_metered_view_reads(relative, tree)
    if relative in CODEGEN_FILES:
        violations += check_codegen_storage_imports(relative, tree)
    if relative == PLAN_STORE_FILE:
        violations += check_plan_store_imports(relative, tree)
    if relative in DECISION_PROCEDURE_FILES or ENGINE_DIR in relative.parents:
        violations += check_exhaustive_sweep(relative, tree)
    if SERVICE_DIR in relative.parents and relative != RESOLVE_STAGE_FILE:
        violations += check_service_resolve(relative, tree)
    if relative in LIVE_READ_FILES:
        violations += check_live_reads(relative, tree)
    if relative == INSTANCE_FILE:
        violations += check_write_path_statistics(relative, tree)
    if relative in PER_ROW_KEY_FILES or STORAGE_DIR in relative.parents:
        violations += check_per_row_keys(relative, tree)
    violations += check_write_path_plan_cache(relative, tree)
    violations += check_row_observers(relative, tree)
    if STORAGE_DIR not in relative.parents:
        violations += check_storage_internals(relative, tree)
    return violations


def lint_tree(root: Path) -> list[Violation]:
    """Lint every library module under ``root / src / repro``."""
    violations: list[Violation] = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        violations += lint_file(path, root)
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (defaults to this script's grandparent)",
    )
    options = parser.parse_args(argv)
    violations = lint_tree(options.root.resolve())
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} kernel-discipline violation(s)")
        return 1
    print("kernel discipline ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
