"""The repo-specific lint: rules over synthetic trees, baseline, CLI.

Each of the AST rules is exercised positively (a crafted source file
triggers it) and negatively (the compliant variant is clean); the baseline
round-trips and partitions findings; the CLI exit codes match the CI
contract (2 without ``--lint``, 1 with new violations, 0 when clean or
updating the baseline); and the real tree is clean against the checked-in
baseline — the actual CI gate, run in-process.  Beside the ``layering``
rule, a subprocess that plans, runs and explains the census queries with
verification off must not load ``repro.analysis`` at all.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.lint import (
    BASELINE_FORMAT,
    DEFAULT_BASELINE,
    REPORT_FORMAT,
    RULES,
    Violation,
    build_report,
    check_async_blocking,
    check_dynamic_code,
    check_identity_key,
    check_layering,
    check_locked_state,
    check_operator_dispatch,
    check_picklable_plan_state,
    check_relation_storage,
    check_relation_version,
    check_template_mutation,
    default_root,
    load_baseline,
    run_lint,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.__main__ import main


def violations_of(check, source, path="repro/example.py"):
    return check(ast.parse(source), path)


class TestRelationVersion:
    def test_mutation_without_bump_flagged(self):
        source = (
            "class Relation:\n"
            "    def insert(self, row):\n"
            "        self._rows.append(row)\n"
        )
        found = violations_of(check_relation_version, source)
        assert [v.rule for v in found] == ["relation-version"]
        assert found[0].symbol == "Relation.insert"

    def test_mutation_with_bump_clean(self):
        source = (
            "class Relation:\n"
            "    def insert(self, row):\n"
            "        self._rows.append(row)\n"
            "        self._version += 1\n"
        )
        assert violations_of(check_relation_version, source) == []

    def test_storage_rebinding_counts_as_mutation(self):
        source = (
            "class Relation:\n"
            "    def replace(self, rows):\n"
            "        self._rows = list(rows)\n"
        )
        found = violations_of(check_relation_version, source)
        assert [v.symbol for v in found] == ["Relation.replace"]

    def test_init_is_exempt(self):
        source = (
            "class Relation:\n"
            "    def __init__(self):\n"
            "        self._rows = []\n"
        )
        assert violations_of(check_relation_version, source) == []

    def test_row_set_slot_is_storage_too(self):
        source = (
            "class Relation:\n"
            "    def forget(self, row):\n"
            "        self._members.discard(row)\n"
        )
        found = violations_of(check_relation_version, source)
        assert [v.symbol for v in found] == ["Relation.forget"]

    def test_bulk_assignment_needs_the_bump_deriving_the_set_does_not(self):
        adopt = (
            "class Relation:\n"
            "    def adopt(self, rows):\n"
            "        self._rows = rows\n"
            "        self._members = None\n"
        )
        assert [v.symbol for v in violations_of(check_relation_version, adopt)] == [
            "Relation.adopt"
        ]
        assert violations_of(check_relation_version, adopt + "        self._version = len(rows)\n") == []
        derive = (
            "class Relation:\n"
            "    def member_set(self):\n"
            "        self._members = set(self._rows)\n"
            "        return self._members\n"
        )
        assert violations_of(check_relation_version, derive) == []


class TestRelationStorage:
    def test_reads_and_writes_outside_the_relation_module_flagged(self):
        source = (
            "def peek(relation):\n"
            "    return relation._rows[0]\n"
            "def fast_contains(relation, row):\n"
            "    return row in relation._members\n"
            "class Shortcut:\n"
            "    def graft(self, relation, rows):\n"
            "        relation._rows = rows\n"
            "size = len(source._rows)\n"
        )
        found = violations_of(check_relation_storage, source, "repro/core/exec/fast.py")
        assert {v.rule for v in found} == {"relation-storage"}
        assert sorted((v.line, v.symbol) for v in found) == [
            (2, "peek"),
            (4, "fast_contains"),
            (7, "Shortcut.graft"),
            (8, "<module>"),
        ]
        assert "_members" in next(v for v in found if v.symbol == "fast_contains").message

    def test_public_access_and_the_relation_module_clean(self):
        source = (
            "def rows_of(relation):\n"
            "    return list(relation), relation.rows, relation.row_set()\n"
        )
        assert violations_of(check_relation_storage, source) == []
        inside = "class Relation:\n    def __len__(self):\n        return len(self._rows)\n"
        assert violations_of(check_relation_storage, inside) != []
        assert violations_of(check_relation_storage, inside, "repro/relational/relation.py") == []


class TestLockedState:
    def test_unlocked_access_flagged(self):
        source = (
            "class PlanCache:\n"
            "    def size(self):\n"
            "        return len(self._entries)\n"
        )
        found = violations_of(check_locked_state, source)
        assert [v.symbol for v in found] == ["PlanCache.size"]
        assert "_entries" in found[0].message

    def test_locked_access_clean(self):
        source = (
            "class PlanCache:\n"
            "    def size(self):\n"
            "        with self._lock:\n"
            "            return len(self._entries)\n"
        )
        assert violations_of(check_locked_state, source) == []

    def test_other_classes_ignored(self):
        source = (
            "class Unrelated:\n"
            "    def size(self):\n"
            "        return len(self._entries)\n"
        )
        assert violations_of(check_locked_state, source) == []

    def test_nested_callback_loses_the_lock(self):
        # A closure registered under the lock runs later, without it.
        source = (
            "class PlanCache:\n"
            "    def arm(self):\n"
            "        with self._lock:\n"
            "            def hook():\n"
            "                self._entries.clear()\n"
            "            return hook\n"
        )
        found = violations_of(check_locked_state, source)
        assert [v.symbol for v in found] == ["PlanCache.arm"]


class TestAsyncBlocking:
    SERVICE_PATH = "repro/service/worker.py"

    def test_blocking_call_in_coroutine_flagged(self):
        source = (
            "import time\n"
            "async def tick():\n"
            "    time.sleep(1)\n"
        )
        found = violations_of(check_async_blocking, source, self.SERVICE_PATH)
        assert [v.rule for v in found] == ["async-blocking"]
        assert "time.sleep" in found[0].message

    def test_open_and_path_io_flagged(self):
        source = (
            "async def load(path):\n"
            "    with open(path) as handle:\n"
            "        return handle\n"
            "async def read(path):\n"
            "    return path.read_text()\n"
        )
        found = violations_of(check_async_blocking, source, self.SERVICE_PATH)
        assert sorted(v.symbol for v in found) == ["load", "read"]

    def test_sync_function_not_checked(self):
        source = "import time\ndef tick():\n    time.sleep(1)\n"
        assert violations_of(check_async_blocking, source, self.SERVICE_PATH) == []

    def test_only_service_paths_checked(self):
        source = "import time\nasync def tick():\n    time.sleep(1)\n"
        assert violations_of(check_async_blocking, source, "repro/core/x.py") == []


class TestPicklablePlanState:
    def test_lambda_on_operator_flagged(self):
        source = (
            "class Filter(PhysicalOperator):\n"
            "    def __init__(self, predicate):\n"
            "        self.test = lambda row: predicate(row)\n"
        )
        found = violations_of(check_picklable_plan_state, source)
        assert [v.rule for v in found] == ["picklable-plan"]
        assert found[0].symbol == "Filter.__init__"
        assert "lambda" in found[0].message

    def test_open_handle_on_predicate_flagged(self):
        source = (
            "class FromFile(Predicate):\n"
            "    def __init__(self, path):\n"
            "        self.handle = open(path)\n"
        )
        found = violations_of(check_picklable_plan_state, source)
        assert [v.symbol for v in found] == ["FromFile.__init__"]
        assert "open file handle" in found[0].message

    def test_engine_reference_flagged(self):
        source = (
            "class Scan(PhysicalOperator):\n"
            "    def __init__(self, engine, name):\n"
            "        self.engine = engine\n"
            "        self.name = name\n"
        )
        found = violations_of(check_picklable_plan_state, source)
        assert [v.symbol for v in found] == ["Scan.__init__"]
        assert "engine" in found[0].message

    def test_transitive_subclass_checked(self):
        source = (
            "class Join(PhysicalOperator):\n"
            "    pass\n"
            "class HashJoin(Join):\n"
            "    def __init__(self, probe):\n"
            "        self.probe = lambda row: row\n"
        )
        found = violations_of(check_picklable_plan_state, source)
        assert [v.symbol for v in found] == ["HashJoin.__init__"]

    def test_plain_state_clean(self):
        source = (
            "class Scan(PhysicalOperator):\n"
            "    def __init__(self, name, rows):\n"
            "        self.name = name\n"
            "        self.estimated_rows = rows\n"
        )
        assert violations_of(check_picklable_plan_state, source) == []

    def test_unrelated_classes_ignored(self):
        source = (
            "class Service:\n"
            "    def __init__(self, engine):\n"
            "        self.engine = engine\n"
            "        self.hook = lambda: None\n"
        )
        assert violations_of(check_picklable_plan_state, source) == []


class TestDynamicCode:
    def test_builtin_eval_exec_compile_flagged(self):
        source = (
            "def load(text):\n"
            "    def inner():\n"
            "        return eval(text)\n"
            "    exec(text)\n"
            "    return inner\n"
            "code = compile('1', '<s>', 'eval')\n"
        )
        found = violations_of(check_dynamic_code, source)
        assert {v.rule for v in found} == {"dynamic-code"}
        assert sorted((v.line, v.symbol) for v in found) == [
            (3, "load.inner"),
            (4, "load"),
            (6, "<module>"),
        ]

    def test_methods_and_the_predicate_module_clean(self):
        source = (
            "import re\n"
            "def plan(predicate, schema, text):\n"
            "    check = predicate.compile(schema)\n"
            "    return check, re.compile(text)\n"
        )
        assert violations_of(check_dynamic_code, source) == []
        generated = "def build(code, namespace):\n    exec(code, namespace)\n"
        assert violations_of(check_dynamic_code, generated) != []
        assert (
            violations_of(check_dynamic_code, generated, "repro/relational/predicates.py")
            == []
        )


class TestOperatorDispatch:
    def test_operator_calls_outside_the_backends_flagged(self):
        source = (
            "from ...relational import algebra as relational_algebra\n"
            "from . import uwsdt_ops, wsd_ops\n"
            "from .wsd_ops import copy_relation as duplicate\n"
            "def walk(query, wsd, uwsdt, left, right):\n"
            "    wsd_ops.select(wsd, 'R', 'P', query.predicate)\n"
            "    uwsdt_ops.union(uwsdt, 'R', 'S', 'P')\n"
            "    duplicate(wsd, 'R', 'S')\n"
            "    return relational_algebra.product(left, right)\n"
        )
        found = violations_of(check_operator_dispatch, source, "repro/core/algebra/walker.py")
        assert {v.rule for v in found} == {"operator-dispatch"}
        assert [(v.line, v.symbol) for v in found] == [(line, "walk") for line in (5, 6, 7, 8)]
        assert "select() of core.algebra.wsd_ops" in found[0].message
        assert "product() of relational.algebra" in found[3].message

    def test_absolute_imports_and_the_package_reexports_flagged(self):
        source = (
            "import repro.core.algebra.uwsdt_ops\n"
            "from repro.relational import equi_join, eq\n"
            "def run(uwsdt, left, right):\n"
            "    repro.core.algebra.uwsdt_ops.project(uwsdt, 'R', 'P', ['A'])\n"
            "    return equi_join(left, right, 'A', 'B'), eq('A', 1)\n"
        )
        found = violations_of(check_operator_dispatch, source, "repro/apps/report.py")
        assert [(v.line, v.symbol) for v in found] == [(4, "run"), (5, "run")]

    def test_backends_the_references_and_query_combinators_clean(self):
        dispatch = (
            "from ...relational import algebra as relational_algebra\n"
            "from ..algebra import uwsdt_ops, wsd_ops\n"
            "class UWSDTBackend:\n"
            "    def copy(self, name, target):\n"
            "        uwsdt_ops.rename(self.engine, name, target, 'A', 'A')\n"
            "    def product(self, left, right):\n"
            "        return relational_algebra.product(left, right)\n"
            "class WSDBackend:\n"
            "    def copy(self, name, target):\n"
            "        wsd_ops.copy_relation(self.engine, name, target)\n"
        )
        elsewhere = violations_of(check_operator_dispatch, dispatch, "repro/core/exec/other.py")
        assert len(elsewhere) == 3
        # The executor may call the engines' operators, never Figure 9's.
        found = violations_of(check_operator_dispatch, dispatch, "repro/core/exec/backends.py")
        assert [(v.line, v.symbol) for v in found] == [(10, "WSDBackend.copy")]
        assert "not an engine; go through evaluate_on_wsd" in found[0].message
        reference = (
            "from ...relational import algebra as relational_algebra\n"
            "from . import wsd_ops\n"
            "def _evaluate_db(query, database):\n"
            "    return relational_algebra.select(database.relation(query.name), query.predicate)\n"
            "def _evaluate_wsd(query, wsd, target, names):\n"
            "    wsd_ops.select(wsd, query.name, target, query.predicate)\n"
            "    return relational_algebra.select(wsd, query.predicate)\n"
            "def elsewhere(relation, predicate):\n"
            "    return relational_algebra.select(relation, predicate)\n"
        )
        found = violations_of(check_operator_dispatch, reference, "repro/core/algebra/query.py")
        assert [(v.line, v.symbol) for v in found] == [(7, "_evaluate_wsd"), (9, "elsewhere")]
        # A UWSDT operator's certain part is the classical operator; it
        # reaches neither Figure 9 nor another UWSDT operator.
        certain_part = (
            "from ...relational import algebra as relational_algebra\n"
            "from . import uwsdt_ops, wsd_ops\n"
            "def select(uwsdt, template, predicate):\n"
            "    certain = relational_algebra.select(template.certain, predicate)\n"
            "    wsd_ops.select(uwsdt, 'R', 'P', predicate)\n"
            "    uwsdt_ops.project(uwsdt, 'R', 'P', ['A'])\n"
        )
        found = violations_of(
            check_operator_dispatch, certain_part, "repro/core/algebra/uwsdt_ops.py"
        )
        assert [(v.line, v.symbol) for v in found] == [(5, "select"), (6, "select")]
        # Query combinators and backend methods share the operators' names.
        methods = (
            "def build(query, backend, other):\n"
            "    tree = query.select(1).project(['A']).union(other)\n"
            "    return backend.filter(tree, None), select(tree)\n"
        )
        assert violations_of(check_operator_dispatch, methods) == []


# --------------------------------------------------------------------------- #
# run_lint over a synthetic tree, baseline workflow, report format
# --------------------------------------------------------------------------- #


def synthetic_package(tmp_path):
    """A package with one violation per rule; returns its root directory."""
    root = tmp_path / "pkg"
    (root / "service").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "service" / "__init__.py").write_text("")
    (root / "storage.py").write_text(
        "class Relation:\n"
        "    def insert(self, row):\n"
        "        self._rows.append(row)\n"
        "\n"
        "class PlanCache:\n"
        "    def size(self):\n"
        "        return len(self._entries)\n"
    )
    (root / "service" / "loop.py").write_text(
        "import time\n"
        "async def tick():\n"
        "    time.sleep(1)\n"
    )
    (root / "physical.py").write_text(
        "class Filter(PhysicalOperator):\n"
        "    def __init__(self, predicate):\n"
        "        self.test = lambda row: predicate(row)\n"
    )
    (root / "loader.py").write_text("def load(text):\n    return eval(text)\n")
    (root / "walker.py").write_text(
        "from .core.algebra import wsd_ops\n"
        "def walk(wsd, predicate):\n"
        "    wsd_ops.select(wsd, 'R', 'P', predicate)\n"
    )
    (root / "core").mkdir()
    (root / "core" / "__init__.py").write_text("")
    (root / "core" / "layers.py").write_text("from ..service import loop\n")
    (root / "core" / "cleanup.py").write_text(
        "def drop(uwsdt, row):\n"
        "    uwsdt.templates['R'].remove(row)\n"
    )
    return root


class TestIdentityKey:
    def test_id_keyed_memo_flagged_outside_same(self):
        source = (
            "def estimate(node, memo):\n"
            "    memo[id(node)] = 1\n"
            "class Same:\n"
            "    def __hash__(self):\n"
            "        return id(self.target)\n"
        )
        found = violations_of(check_identity_key, source, "repro/core/planner/memo.py")
        assert {v.rule for v in found} == {"identity-key"}
        assert sorted(v.symbol for v in found) == ["Same.__hash__", "estimate"]
        # ``catalog.Same`` holds the object whose id it hashes: exempt there only.
        catalog = violations_of(check_identity_key, source, "repro/core/planner/catalog.py")
        assert [v.symbol for v in catalog] == ["estimate"]
        assert violations_of(check_identity_key, source, "repro/relational/indexes.py") == []


class TestLayering:
    def test_planted_imports_of_upper_layers_flagged(self):
        source = (
            "from ...analysis.schema import analyze\n"
            "def explain(plan):\n"
            "    from ...service import QueryService\n"
            "    import repro.analysis.invariants\n"
            "    from repro import analysis\n"
        )
        found = violations_of(check_layering, source, "repro/core/planner/planner.py")
        assert {v.rule for v in found} == {"layering"}
        assert sorted((v.line, v.symbol) for v in found) == [
            (1, "<module>"), (3, "explain"), (4, "explain"), (5, "explain"),
        ]
        assert "repro.service" in found[1].message
        relational = "from ..service import QueryService\n"
        assert len(violations_of(check_layering, relational, "repro/relational/database.py")) == 1

    def test_the_hook_and_the_upper_layers_themselves_clean(self):
        hook = "def verifier():\n    from ..analysis import invariants\n    return invariants\n"
        assert violations_of(check_layering, hook, "repro/core/verify.py") == []
        elsewhere = hook.replace("..analysis", "...analysis")
        assert len(violations_of(check_layering, elsewhere, "repro/core/exec/lower.py")) == 1
        upper = "from ..core.algebra.schema import output_schema\nfrom ..analysis import lint\n"
        assert violations_of(check_layering, upper, "repro/service/server.py") == []
        # Same-named modules of another package are not the upper layers.
        assert violations_of(check_layering, "from tools import analysis\n", "repro/core/x.py") == []


class TestTemplateMutation:
    def test_in_place_template_writes_flagged_outside_the_uwsdt(self):
        source = (
            "def fuzz(uwsdt, row):\n"
            "    uwsdt.templates['R'].insert(row)\n"
            "    uwsdt.templates[name].insert_many([row])\n"
            "    self.engine.templates['R'].remove(row)\n"
            "    uwsdt.templates['R'].copy()\n"
            "    uwsdt.relation('R').insert(row)\n"
            "    uwsdt.templates['R'].certain.insert(row)\n"
            "    uwsdt.templates[name].open.remove(row)\n"
            "    uwsdt.templates['R'].certain.copy()\n"
        )
        found = violations_of(check_template_mutation, source, "repro/core/chase.py")
        assert [(v.rule, v.line, v.symbol) for v in found] == [
            ("template-mutation", 2, "fuzz"),
            ("template-mutation", 3, "fuzz"),
            ("template-mutation", 4, "fuzz"),
            ("template-mutation", 7, "fuzz"),
            ("template-mutation", 8, "fuzz"),
        ]
        # ``add_template_tuple`` copies a shared template before it writes.
        assert violations_of(check_template_mutation, source, "repro/core/uwsdt.py") == []


#: Plans, runs and explains Q1–Q6 on a Database and a chased UWSDT, rejects a
#: set operation at build time, then prints the analysis modules it loaded.
RUNTIME_ONLY = """
import sys
from repro.census import CensusGenerator, census_dependencies, census_query, query_names
from repro.core import UWSDT, chase_uwsdt
from repro.core.algebra import BaseRelation
from repro.relational import Database
from repro.relational.errors import SchemaError

generator = CensusGenerator(seed=7)
database = Database([generator.clean_relation(300)])
uwsdt = UWSDT.from_orset_relation(generator.add_noise(generator.clean_relation(300), 0.01))
chase_uwsdt(uwsdt, census_dependencies())
for engine in (database, uwsdt):
    for name in query_names():
        query = census_query(name)
        query.plan(engine).explain()
        query.run(engine, name)
        query.explain_analyze(engine, name + "_analyzed")
try:
    BaseRelation("R").project(["A", "B"]).union(BaseRelation("R").project(["A"]))
except SchemaError as error:
    assert "arity-mismatch" in str(error)
else:
    raise SystemExit("the set operation was not rejected")
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "analysis"]))
"""


def test_the_runtime_with_verification_off_never_imports_the_analysis_package():
    source_root = default_root().parent
    environment = dict(os.environ, REPRO_VERIFY_PLANS="0", PYTHONPATH=str(source_root))
    completed = subprocess.run(
        [sys.executable, "-c", RUNTIME_ONLY],
        capture_output=True, text=True, env=environment, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


class TestRunLintAndBaseline:
    def test_all_rules_fire_over_synthetic_tree(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        assert sorted({v.rule for v in found}) == [
            "async-blocking",
            "dynamic-code",
            "layering",
            "locked-state",
            "operator-dispatch",
            "picklable-plan",
            "relation-storage",
            "relation-version",
            "template-mutation",
        ]
        # Paths are relative to the package's parent, posix-style.
        assert all(v.path.startswith("pkg/") for v in found)

    def test_baseline_roundtrip_and_partition(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        baseline_path = tmp_path / "baseline.json"
        write_baseline(found[:2], baseline_path)
        payload = json.loads(baseline_path.read_text())
        assert payload["format"] == BASELINE_FORMAT
        baseline = load_baseline(baseline_path)
        new, known = split_by_baseline(found, baseline)
        assert len(known) == 2 and len(new) == len(found) - 2

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_baseline_key_ignores_line_numbers(self):
        a = Violation("r", "p.py", 3, "f", "m")
        b = Violation("r", "p.py", 99, "f", "other message")
        assert a.key() == b.key()

    def test_report_format(self, tmp_path):
        found = run_lint(synthetic_package(tmp_path))
        report = build_report(found, {found[0].key()})
        assert report["format"] == REPORT_FORMAT
        assert report["total"] == len(found)
        assert len(report["new"]) + len(report["baselined"]) == len(found)
        assert report["rules"] == sorted(rule.__name__ for rule in RULES)


class TestCommandLine:
    def test_no_lint_flag_exits_2(self, capsys):
        assert main([]) == 2

    def test_new_violations_exit_1(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        code = main(["--lint", "--root", str(root), "--baseline", str(tmp_path / "b.json")])
        assert code == 1
        assert "NEW:" in capsys.readouterr().out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        baseline = tmp_path / "b.json"
        assert main(["--lint", "--root", str(root), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert main(["--lint", "--root", str(root), "--baseline", str(baseline)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_report_artifact_written(self, tmp_path, capsys):
        root = synthetic_package(tmp_path)
        report = tmp_path / "LINT_report.json"
        main(["--lint", "--root", str(root), "--baseline", str(tmp_path / "b.json"),
              "--report", str(report)])
        assert json.loads(report.read_text())["format"] == REPORT_FORMAT


class TestRepositoryIsClean:
    def test_repo_tree_has_no_new_violations(self):
        # The actual CI gate, in-process: the installed package linted
        # against the checked-in baseline must produce nothing new.
        new, _known = split_by_baseline(
            run_lint(default_root()), load_baseline(DEFAULT_BASELINE)
        )
        assert new == [], "\n".join(v.render() for v in new)

    def test_checked_in_baseline_is_current(self):
        # Every baselined entry still corresponds to a real finding —
        # stale entries mean the fix landed and the baseline should shrink.
        keys = {v.key() for v in run_lint(default_root())}
        assert load_baseline(DEFAULT_BASELINE) <= keys
