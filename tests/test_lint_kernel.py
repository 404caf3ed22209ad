"""Tests for the kernel-discipline linter (``tools/lint_kernel.py``)."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import lint_kernel  # noqa: E402  (path set up above)

REPO_ROOT = TOOLS.parent


def _write(root: Path, relative: str, source: str) -> Path:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def test_repository_is_clean():
    assert lint_kernel.lint_tree(REPO_ROOT) == []


def test_cli_exits_zero_on_clean_tree(capsys):
    assert lint_kernel.main(["--root", str(REPO_ROOT)]) == 0
    assert "kernel discipline ok" in capsys.readouterr().out


def test_unmetered_fetch_is_flagged(tmp_path):
    _write(
        tmp_path,
        "src/repro/exec/codegen.py",
        """
        class Rogue:
            def _produce(self):
                for key in self._keys():
                    yield from self._provider.fetch(self._constraint, key)

            def metered(self):
                rows = self._provider.fetch(self._constraint, ())
                self._meter.record_fetch(self._relation, len(rows))
                return rows
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.unmetered-fetch"]
    assert "_produce" in violations[0].message


def test_storage_internals_access_is_flagged(tmp_path):
    _write(
        tmp_path,
        "src/repro/exec/shortcut.py",
        """
        def peek(relation):
            return len(relation._tuples)
        """,
    )
    # The same access *inside* storage is the implementation, not a violation.
    _write(
        tmp_path,
        "src/repro/storage/instance.py",
        """
        class Relation:
            def __len__(self):
                return len(self._tuples)
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.storage-internals"]
    assert violations[0].path == Path("src/repro/exec/shortcut.py")


def test_unmetered_fetch_in_codegen_closure_is_flagged(tmp_path):
    # The generated closure is a nested function — the rule must descend
    # into it, not just check the module's top-level functions.
    _write(
        tmp_path,
        "src/repro/exec/codegen.py",
        """
        def compile_fetch(constraint):
            def step(runtime):
                return runtime.provider.fetch(constraint, ())

            return step

        def compile_fetch_metered(constraint, relation):
            def step(runtime):
                fetched = runtime.provider.fetch(constraint, ())
                runtime.meter.record_fetch(relation, len(fetched))
                return fetched

            return step
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    # Both the unmetered closure and its enclosing compile function carry
    # the probe, so the walk reports the defect at both levels.
    assert {v.code for v in violations} == {"kernel.unmetered-fetch"}
    assert any("step" in v.message for v in violations)


def test_unmetered_batched_fetch_is_flagged(tmp_path):
    # The batched probe crosses the same boundary as `.fetch`: a closure
    # calling `.fetch_many` without `record_fetch` is the same defect.
    _write(
        tmp_path,
        "src/repro/exec/codegen.py",
        """
        def compile_fetch(constraint):
            def step_batch(runtime, keys):
                return runtime.provider.fetch_many(constraint, keys)

            return step_batch

        def compile_fetch_metered(constraint, relation):
            def step(runtime, keys):
                batches = runtime.provider.fetch_many(constraint, keys)
                for fetched in batches:
                    runtime.meter.record_fetch(relation, len(fetched))
                return batches

            return step
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert {v.code for v in violations} == {"kernel.unmetered-fetch"}
    assert {v.line for v in violations} == {4}
    assert any("'step_batch' probes '.fetch_many'" in v.message for v in violations)


def test_unmetered_fetch_read_only_inside_a_comprehension_is_flagged(tmp_path):
    # A kernel that projects the batch inline never names the batch in a
    # loop of its own: the probe inside the comprehension still counts.
    _write(
        tmp_path,
        "src/repro/exec/codegen.py",
        """
        def compile_fetch(constraint, position):
            def step_inline(runtime, keys):
                return {
                    (row[position],)
                    for fetched in runtime.provider.fetch_many(constraint, keys)
                    for row in fetched
                }

            return step_inline
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert {v.code for v in violations} == {"kernel.unmetered-fetch"}
    assert any("'step_inline' probes '.fetch_many'" in v.message for v in violations)


def test_unmetered_view_read_is_flagged(tmp_path):
    # A keyed probe of a view version reads '.views' like a whole read: a
    # closure returning the bucket without charging it is the defect; the
    # metered one and a plain store of the attribute are not.
    _write(
        tmp_path,
        "src/repro/exec/codegen.py",
        """
        class Runtime:
            def __init__(self, views):
                self.views = views

        def compile_probe(name, on, key):
            def step_probe(runtime):
                return runtime.views[name].index_on(on).get(key, ())

            return step_probe

        def compile_probe_metered(name, on, key):
            def step_probe(runtime):
                bucket = runtime.views[name].index_on(on).get(key, ())
                runtime.meter.record_view_scan(len(bucket))
                return bucket

            return step_probe
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert {v.code for v in violations} == {"kernel.unmetered-view-read"}
    assert {v.line for v in violations} == {8}
    assert any("'step_probe' reads '.views'" in v.message for v in violations)


@pytest.mark.parametrize(
    "source",
    [
        "from repro.storage.instance import Database\n",
        "from repro.storage import indexes\n",
        "import repro.storage.indexes\n",
        "from ..storage.instance import Relation\n",
    ],
)
def test_codegen_storage_imports_are_flagged(tmp_path, source):
    _write(tmp_path, "src/repro/exec/codegen.py", source)
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.codegen-storage-import"]


@pytest.mark.parametrize("module", ["cq_compiler", "delta_compiler"])
def test_unmetered_fetch_in_the_loop_nest_compiler_is_flagged(tmp_path, module):
    # The loop-nest compiler generates the read path's nests and the
    # maintenance nests, and the delta rewrite feeds it: both obey the same
    # discipline as the plan codegen — any function (generated closures
    # included) touching `.fetch` must charge the meter.
    _write(
        tmp_path,
        f"src/repro/exec/{module}.py",
        """
        def compile_delta(constraint):
            def kernel(runtime):
                return runtime.provider.fetch(constraint, ())

            return kernel
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert {v.code for v in violations} == {"kernel.unmetered-fetch"}
    assert any("kernel" in v.message for v in violations)


@pytest.mark.parametrize(
    "source",
    [
        "from repro.storage.instance import Database\n",
        "from ..storage.deltas import DeltaStream\n",
        "import repro.storage.indexes\n",
    ],
)
@pytest.mark.parametrize("module", ["cq_compiler", "delta_compiler"])
def test_loop_nest_compiler_storage_imports_are_flagged(tmp_path, source, module):
    _write(tmp_path, f"src/repro/exec/{module}.py", source)
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.codegen-storage-import"]


def test_storage_imports_elsewhere_are_not_codegen_violations(tmp_path):
    _write(
        tmp_path,
        "src/repro/engine/module.py",
        "from ..storage.instance import Database\n",
    )
    assert lint_kernel.lint_tree(tmp_path) == []


def test_cli_exits_one_and_reports_violations(tmp_path, capsys):
    _write(
        tmp_path,
        "src/repro/engine/hack.py",
        "from repro.core.element_queries import iter_element_queries\n",
    )
    assert lint_kernel.main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "kernel.exhaustive-element-sweep" in out
    assert "1 kernel-discipline violation(s)" in out


@pytest.mark.parametrize(
    "source",
    [
        "from repro.exec.iometer import IOMeter\n",
        "from repro.exec import codegen\n",
        "import repro.exec.codegen\n",
        "from ...exec.plan_runner import execute_plan\n",
        "from .cache import CachedPlan\n",
    ],
)
def test_plan_store_exec_imports_are_flagged(tmp_path, source):
    _write(tmp_path, "src/repro/engine/service/plan_store.py", source)
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.plan-store-exec-import"]
    assert "plain data records" in violations[0].message


def test_plan_store_data_imports_are_allowed(tmp_path):
    # Plain-data imports (errors, stdlib) are fine; and the same exec
    # import from the *service* module is not a plan-store violation.
    _write(
        tmp_path,
        "src/repro/engine/service/plan_store.py",
        """
        import io
        import pickle
        from ...errors import PlanStoreError
        """,
    )
    _write(
        tmp_path,
        "src/repro/engine/service/service.py",
        "from ...exec.iometer import IOMeter\n",
    )
    assert lint_kernel.lint_tree(tmp_path) == []


@pytest.mark.parametrize(
    "relative",
    [
        "src/repro/core/bounded_output.py",
        "src/repro/core/conformance.py",
        "src/repro/core/equivalence.py",
        "src/repro/engine/optimizer.py",
        "src/repro/engine/service/planners.py",
    ],
)
@pytest.mark.parametrize(
    "source",
    [
        "from repro.core.element_queries import iter_element_queries\n",
        "from .element_queries import ElementQueryBudget, element_queries\n",
        "from . import element_queries as eq\nleaves = eq.iter_element_queries(q, a, s)\n",
        "def decide(q, a, s):\n    return list(element_queries(q, a, s))\n",
    ],
)
def test_exhaustive_element_sweep_is_flagged(tmp_path, relative, source):
    _write(tmp_path, relative, source)
    violations = lint_kernel.lint_tree(tmp_path)
    assert violations
    assert {v.code for v in violations} == {"kernel.exhaustive-element-sweep"}
    assert "iter_minimal_element_queries" in violations[0].message


def test_minimal_element_queries_and_the_definition_itself_are_allowed(tmp_path):
    _write(
        tmp_path,
        "src/repro/core/bounded_output.py",
        """
        from .element_queries import ElementQueryBudget, iter_minimal_element_queries

        def decide(q, a, s):
            return list(iter_minimal_element_queries(q, a, s))
        """,
    )
    # The definition, its public re-export and non-decision modules are out of scope.
    _write(
        tmp_path,
        "src/repro/core/element_queries.py",
        "def iter_element_queries(q, a, s):\n    yield q\n",
    )
    _write(
        tmp_path,
        "src/repro/core/__init__.py",
        "from .element_queries import element_queries, iter_element_queries\n",
    )
    assert lint_kernel.lint_tree(tmp_path) == []


@pytest.mark.parametrize(
    "relative, source",
    [
        (
            "src/repro/engine/service/service.py",
            "from ...algebra.parser import parse_query\n"
            "def lint(self, text):\n    return parse_query(text)\n",
        ),
        (
            "src/repro/engine/service/service.py",
            "from .cache import canonical_query_key\n"
            "def plan(self, q):\n    return canonical_query_key(q)\n",
        ),
        (
            "src/repro/engine/service/backends.py",
            "from . import cache\n"
            "def key(q):\n    return cache.canonical_query_key(q)\n",
        ),
        # Minting an auto-parameter slot, hence building a shape or a
        # binding vector, behind the memo.
        (
            "src/repro/engine/service/service.py",
            "from ...algebra.terms import Param\n"
            "def slot(k):\n    return Param(f'${k}')\n",
        ),
        (
            "src/repro/engine/service/planners.py",
            "from . import resolve\n"
            "def lifted(name):\n    return name.startswith(resolve.SLOT_PREFIX)\n",
        ),
    ],
)
def test_parsing_behind_the_resolve_memo_is_flagged(tmp_path, relative, source):
    _write(tmp_path, relative, source)
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.service-resolve"]
    assert "ResolveStage.resolve" in violations[0].message


def test_resolve_stage_definition_and_reexport_are_allowed(tmp_path):
    _write(
        tmp_path,
        "src/repro/engine/service/resolve.py",
        """
        from ...algebra.parser import parse_query
        from ...algebra.terms import Param
        from .cache import canonical_query_key

        SLOT_PREFIX = "$"

        def resolve(text):
            query = parse_query(text)
            return query, canonical_query_key(query), Param(SLOT_PREFIX + "0")
        """,
    )
    _write(
        tmp_path,
        "src/repro/engine/service/cache.py",
        "def canonical_query_key(query):\n    return ('CQ', str(query))\n",
    )
    _write(
        tmp_path,
        "src/repro/engine/service/__init__.py",
        "from .cache import canonical_query_key\n",
    )
    # Outside the service package the two functions stay public and callable.
    _write(
        tmp_path,
        "src/repro/engine/optimizer.py",
        "from ..algebra.parser import parse_query\n"
        "def demo():\n    return parse_query('Q(x) :- R(x)')\n",
    )
    assert lint_kernel.lint_tree(tmp_path) == []


def test_row_observer_hooks_are_flagged(tmp_path):
    """The fixture is the per-row observer protocol the write path replaced."""
    _write(
        tmp_path,
        "src/repro/storage/indexes.py",
        """
        class AccessIndex:
            def __init__(self, relation):
                relation.register_observer(self)

            def on_insert(self, row):
                pass
        """,
    )
    _write(
        tmp_path,
        "src/repro/storage/instance.py",
        """
        def _notify(observers, row):
            for observer in observers:
                getattr(observer, "on_delete")(row)
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert sorted((v.code, v.path.name, v.line) for v in violations) == [
        ("kernel.row-observer", "indexes.py", 4),
        ("kernel.row-observer", "indexes.py", 6),
        ("kernel.row-observer", "instance.py", 4),
    ]
    assert "Relation.apply_delta" in violations[0].message


def test_batch_writes_and_delta_observers_are_allowed(tmp_path):
    # One netted delta per relation, and the transaction-level on_delta
    # observer, are the write path itself.
    _write(
        tmp_path,
        "src/repro/storage/instance.py",
        """
        class Relation:
            def apply_delta(self, added, removed, transient=()):
                self._tuples.difference_update(removed)
                self._tuples.update(added)

        def notify(observers, stream):
            for observer in observers:
                observer.on_delta(stream)
        """,
    )
    assert lint_kernel.lint_tree(tmp_path) == []


def test_write_path_touching_the_plan_cache_is_flagged(tmp_path):
    """The fixture is the last ``on_delta`` that swept the cache per write."""
    _write(
        tmp_path,
        "src/repro/engine/service/service.py",
        """
        class QueryService:
            def on_delta(self, stream):
                stats = MaintenanceStats()
                deltas = self.maintainer.apply_stream(stream, stats)
                self.stats.record_maintenance(stats)
                touched = set(stream.touched)
                touched.update(delta.view for delta in deltas)
                self.plan_cache.invalidate(touched)
                if deltas:
                    self._view_cache = self.maintainer.snapshot()

            def query(self, text):
                return self.plan_cache.get(text)  # reads may, writes may not
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.write-path-plan-cache"] * 2
    assert "plan_cache.invalidate" in violations[0].message
    assert "QueryService.on_delta" in violations[1].message


def test_plan_cache_invalidate_is_flagged_anywhere_but_other_invalidates_are_not(
    tmp_path,
):
    _write(
        tmp_path,
        "src/repro/engine/service/maintenance.py",
        "def after_write(cache, touched):\n    return cache.invalidate(touched)\n",
    )
    _write(
        tmp_path,
        "src/repro/engine/service/backends.py",
        """
        class InMemoryBackend:
            def refresh(self, statistics):
                statistics.invalidate()  # drops a statistics memo, not a plan
        """,
    )
    _write(
        tmp_path,
        "src/repro/engine/service/cache.py",
        """
        class LRUPlanCache:
            def invalidate(self, touched):  # the definition stays importable
                return 0
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [(v.code, v.path.name) for v in violations] == [
        ("kernel.write-path-plan-cache", "maintenance.py")
    ]


@pytest.mark.parametrize(
    "relative", ["src/repro/engine/baseline.py", "src/repro/engine/service/backends.py"]
)
def test_live_database_row_reads_in_the_full_scan_readers_are_flagged(tmp_path, relative):
    _write(
        tmp_path,
        relative,
        """
        class Reader:
            def rows(self, query):
                facts = self.database.facts
                relation = self.database.relation("R")
                engine = NaiveEngine(self.database)
                return NaiveEngine(source=database), facts, relation

            def pinned(self, query):
                # The snapshot's rows and the live statistics are fine.
                snapshot = self._executor.provider
                return NaiveEngine(snapshot, self.database.statistics())
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.live-read"] * 4
    assert [v.line for v in violations] == [4, 5, 6, 7]


def test_live_database_reads_elsewhere_are_not_live_read_violations(tmp_path):
    _write(
        tmp_path,
        "src/repro/engine/service/maintenance.py",
        """
        def materialise(self, view):
            return evaluate_ucq(view.as_ucq(), self.database.facts)
        """,
    )
    assert lint_kernel.lint_tree(tmp_path) == []


def test_statistics_maintained_on_the_write_path_are_flagged(tmp_path):
    _write(
        tmp_path,
        "src/repro/storage/instance.py",
        """
        class Relation:
            def apply_delta(self, added, removed):
                for per_value in self._value_counts:
                    self._square_sums[0] += 1

        class Database:
            def _net(self, updates, admit, managers):
                return helper(self.relation("R")._value_counts)

            def apply(self, updates, *, admit=None):
                return [r._square_sums for r in updates]
        """,
    )
    violations = lint_kernel.lint_tree(tmp_path)
    assert [v.code for v in violations] == ["kernel.write-path-statistics"] * 4
    assert [v.line for v in violations] == [4, 5, 9, 12]
    assert "'_square_sums'" in violations[1].message


def test_statistics_folded_on_read_are_not_write_path_violations(tmp_path):
    _write(
        tmp_path,
        "src/repro/storage/instance.py",
        """
        class Relation:
            def apply_delta(self, added, removed):
                for net in self._pending:
                    net.update(added)

            def _fold_statistics(self):
                for per_value in self._value_counts:
                    self._square_sums[0] += 1
        """,
    )
    # The same names outside the storage write path are not checked either.
    _write(
        tmp_path,
        "src/repro/storage/statistics.py",
        """
        class Database:
            def apply(self, relation):
                return relation._value_counts, relation._square_sums
        """,
    )
    assert lint_kernel.lint_tree(tmp_path) == []
