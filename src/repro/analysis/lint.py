"""Repo-specific Python-AST lint rules (``python -m repro.analysis --lint``).

Generic linters cannot know this codebase's contracts; these rules encode
the ones that have bitten (or nearly bitten) before:

* ``relation-version`` — a function that mutates a ``Relation``'s row
  storage (``_rows`` / ``_members``) must bump ``_version`` on the same
  path: the statistics catalog and the plan cache both invalidate by
  version polling, so a silent mutation serves stale plans forever.
* ``relation-storage`` — ``_rows`` and ``_members`` may be read or written
  in ``relational/relation.py`` only: the row set exists only once something
  asked for it, so code reaching past ``iter(relation)`` / ``row_set()``
  would read ``None`` — or, writing, desynchronize the two.
* ``locked-state`` — methods of ``MetricsRegistry`` / ``PlanCache`` /
  ``IndexPool`` must touch their private state only under ``self._lock``
  (these objects are shared across the async service's worker threads).
* ``async-blocking`` — coroutines in ``repro.service`` must not call
  blocking primitives (``time.sleep``, synchronous file I/O,
  ``subprocess``): one blocked coroutine stalls the whole event loop.
* ``picklable-plan`` — subclasses of ``PhysicalOperator`` / ``Predicate``
  must not store lambdas, open handles or engine/backend references on
  ``self``: physical plans are pickled wholesale to the sharded worker
  pool, and an unpicklable operator forces every shard onto the
  in-process fallback path (or, for an engine reference, ships the whole
  engine to every worker).
* ``dynamic-code`` — the builtins ``eval`` / ``exec`` / ``compile`` may be
  called in ``relational/predicates.py`` only: ``Predicate.compile`` is the
  one place that generates code, and it keeps constants and attribute names
  out of the source it generates.
* ``operator-dispatch`` — the operators of ``uwsdt_ops`` may be called in
  ``core/exec/backends.py`` only, those of ``relational.algebra`` there and
  in ``query.py``'s ``_evaluate_db`` (the possible-worlds oracle's per-world
  reference), and those of ``wsd_ops`` in ``query.py``'s ``_evaluate_wsd``
  only (the Figure 9 specification): the executor is the only interpreter
  of a query tree on an engine, so a second tree-walker cannot grow back
  beside it.
* ``identity-key`` — no call of the builtin ``id`` in ``core/planner``,
  ``core/exec`` or ``analysis`` but in ``catalog.Same``, which holds the
  object it names: a memo keyed by a node's address serves a freed node's
  entry to whatever object reuses it.  Query trees and predicates are
  values; key by them.
* ``layering`` — no module under ``core`` or ``relational`` imports
  ``repro.analysis`` or ``repro.service``, but ``core/verify.py``'s
  ``verifier``, the one hook that imports the plan verifier while
  verification is on: the runtime must not depend on the layers built on
  top of it.
* ``template-mutation`` — no call of ``insert`` / ``insert_many`` /
  ``remove`` on a subscript of a ``.templates`` attribute outside
  ``core/uwsdt.py``: a UWSDT shares its template relations with its copies,
  and only ``UWSDT.add_template_tuple`` copies a shared template before it
  writes.

Findings are compared against a checked-in baseline
(``lint_baseline.json`` next to this module): pre-existing violations are
tolerated, *new* ones fail CI.  Baseline identity is ``(rule, path,
symbol)`` — line numbers are deliberately excluded so unrelated edits
don't churn the baseline.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Mutable state per lock-guarded class: these attributes must only be
#: touched under ``self._lock``.  Immutable configuration set once in
#: ``__init__`` (the engine reference, backend kinds) is deliberately not listed.
LOCKED_CLASSES = {
    "MetricsRegistry": ("_metrics",),
    "PlanCache": ("_entries",),
    "IndexPool": ("_cache",),
}

#: The slots holding a ``Relation``'s rows (the list and its lazily derived
#: set twin) and the one module allowed to touch them.
RELATION_STORAGE = ("_rows", "_members")
RELATION_MODULE = "relational/relation.py"

#: Mutating method calls on the storage slots that require a version bump.
MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "add", "discard", "update"}
)

#: Call patterns that block the event loop inside a coroutine.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.socket",
        "urllib.request.urlopen",
    }
)

#: Blocking method names on arbitrary receivers (Path I/O, file handles).
BLOCKING_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Root classes whose subclasses travel inside pickled ``PhysicalPlan``
#: payloads to the sharded worker pool.
PLAN_STATE_ROOTS = ("PhysicalOperator", "Predicate")

#: Parameter / attribute names that denote an engine or backend object —
#: state a plan operator must never capture (the plan would drag the whole
#: engine through pickle on every shard dispatch).
ENGINE_REFERENCE_NAMES = frozenset({"engine", "backend"})

#: Builtins that turn a string into running code, and the one module allowed
#: to call them.
DYNAMIC_CODE_BUILTINS = frozenset({"eval", "exec", "compile"})
DYNAMIC_CODE_MODULE = "relational/predicates.py"

#: The modules implementing the algebra's operators (suffixes of the imported
#: module's absolute name), the classical operators the ``relational`` package
#: re-exports, the executor module that may call the engines' operators, and
#: the reference functions that may call one operator module each.
CLASSICAL_MODULE = "relational.algebra"
SPECIFICATION_MODULE = "core.algebra.wsd_ops"
OPERATOR_MODULES = (SPECIFICATION_MODULE, "core.algebra.uwsdt_ops", CLASSICAL_MODULE)
CLASSICAL_OPERATORS = frozenset(
    "select project rename product union difference intersection equi_join natural_join".split()
)
OPERATOR_DISPATCH_MODULE = "core/exec/backends.py"
REFERENCE_MODULE = "core/algebra/query.py"
REFERENCE_FUNCTIONS = {"_evaluate_db": CLASSICAL_MODULE, "_evaluate_wsd": SPECIFICATION_MODULE}

#: Packages whose memos key by value, never by the builtin ``id``, and the
#: one class there that may call it (it keeps its target alive).
IDENTITY_KEY_PACKAGES = ("core/planner/", "core/exec/", "analysis/")
IDENTITY_KEY_EXEMPT = ("core/planner/catalog.py", "Same.")

#: The runtime packages, the packages built on top of them, and the one
#: function in the runtime that may import one of those.
RUNTIME_PACKAGES = ("core", "relational")
UPPER_PACKAGES = ("analysis", "service")
LAYERING_HOOK = ("core/verify.py", "verifier")

#: Relation methods that write rows in place, and the one module allowed to
#: call them on a UWSDT template (it copies a shared template first).
TEMPLATE_WRITES = frozenset({"insert", "insert_many", "remove"})
TEMPLATE_MODULE = "core/uwsdt.py"

#: The format tag written into baselines and reports.
BASELINE_FORMAT = "repro-lint-baseline/1"
REPORT_FORMAT = "repro-lint-report/1"

#: Default baseline location: checked in next to this module.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "lint_baseline.json"


@dataclass(frozen=True)
class Violation:
    """One lint finding."""

    rule: str
    path: str
    line: int
    symbol: str
    message: str

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line churn."""
        return (self.rule, self.path, self.symbol)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.symbol}: {self.message}"


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_self_attribute(node: ast.AST, names: Iterable[str]) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in set(names)
    )


def _functions(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """All (qualified name, function node) pairs, including methods."""
    found: List[Tuple[str, ast.AST]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                found.append((name, child))
                walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


# --------------------------------------------------------------------------- #
# Rule implementations (each: (tree, relative path) -> violations)
# --------------------------------------------------------------------------- #


def check_relation_version(tree: ast.Module, path: str) -> List[Violation]:
    violations: List[Violation] = []
    for symbol, function in _functions(tree):
        if symbol.rsplit(".", 1)[-1] == "__init__":
            continue  # constructors initialize storage; version starts fresh
        mutation: Optional[ast.AST] = None
        bumps_version = False
        for node in ast.walk(function):
            # receiver._rows.append(...) / receiver._members.add(...)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr in RELATION_STORAGE
            ):
                mutation = mutation or node
            # receiver._rows = ... (rebinding the rows wholesale, as the bulk
            # constructor does; rebinding only ``_members``, the set derived
            # from them, changes no content)
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "_rows":
                        mutation = mutation or node
                    if isinstance(target, ast.Attribute) and target.attr == "_version":
                        bumps_version = True
        if mutation is not None and not bumps_version:
            violations.append(
                Violation(
                    rule="relation-version",
                    path=path,
                    line=getattr(mutation, "lineno", 1),
                    symbol=symbol,
                    message=(
                        "mutates Relation row storage without bumping _version "
                        "on the same path (version polling will serve stale "
                        "statistics and cached plans)"
                    ),
                )
            )
    return violations


def _enclosing_symbols(tree: ast.Module) -> Dict[ast.AST, str]:
    """Each node's innermost enclosing function (absent: module level)."""
    enclosing: Dict[ast.AST, str] = {}
    for symbol, function in _functions(tree):  # outer before inner: innermost wins
        for node in ast.walk(function):
            enclosing[node] = symbol
    return enclosing


def check_relation_storage(tree: ast.Module, path: str) -> List[Violation]:
    if path.replace("\\", "/").endswith(RELATION_MODULE):
        return []
    accesses = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in RELATION_STORAGE
    ]
    if not accesses:
        return []
    enclosing = _enclosing_symbols(tree)
    return [
        Violation(
            rule="relation-storage",
            path=path,
            line=access.lineno,
            symbol=enclosing.get(access, "<module>"),
            message=(
                f"touches Relation storage slot {access.attr} outside "
                f"{RELATION_MODULE} — iterate the relation, or ask it for row_set()"
            ),
        )
        for access in accesses
    ]


def check_locked_state(tree: ast.Module, path: str) -> List[Violation]:
    violations: List[Violation] = []

    def scan(
        node: ast.AST,
        guarded: Tuple[str, ...],
        locked: bool,
        findings: Set[Tuple[int, str]],
    ) -> None:
        if isinstance(node, ast.With):
            holds = any(
                _is_self_attribute(item.context_expr, ("_lock",))
                for item in node.items
            )
            for body_node in node.body:
                scan(body_node, guarded, locked or holds, findings)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callback runs later, outside the caller's lock.
            body = node.body if isinstance(node.body, list) else [node.body]
            for body_node in body:
                scan(body_node, guarded, False, findings)
            return
        if isinstance(node, ast.Call):
            # ``self._helper(...)``: the func attribute is a bound method,
            # not state — the helper is checked on its own.  Anything
            # deeper (``self._entries.get(...)``, call arguments) still is.
            is_bound_method = (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            )
            if not is_bound_method:
                scan(node.func, guarded, locked, findings)
            for argument in list(node.args) + [kw.value for kw in node.keywords]:
                scan(argument, guarded, locked, findings)
            return
        if not locked and _is_self_attribute(node, guarded):
            findings.add((node.lineno, node.attr))
            return
        for child in ast.iter_child_nodes(node):
            scan(child, guarded, locked, findings)

    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef) or class_node.name not in LOCKED_CLASSES:
            continue
        guarded = LOCKED_CLASSES[class_node.name]
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # construction happens-before sharing
            findings: Set[Tuple[int, str]] = set()
            scan(method, guarded, False, findings)
            if findings:
                first_line = min(line for line, _ in findings)
                attrs = sorted({attr for _, attr in findings})
                violations.append(
                    Violation(
                        rule="locked-state",
                        path=path,
                        line=first_line,
                        symbol=f"{class_node.name}.{method.name}",
                        message=(
                            f"touches {', '.join(attrs)} outside `with self._lock` "
                            "(shared across service worker threads)"
                        ),
                    )
                )
    return violations


def check_async_blocking(tree: ast.Module, path: str) -> List[Violation]:
    if "/service/" not in path.replace("\\", "/"):
        return []
    violations: List[Violation] = []

    def scan(node: ast.AST, symbol: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs run in their own context
            if isinstance(child, ast.Call):
                dotted = _dotted_name(child.func)
                blocking = (
                    (dotted is not None and dotted in BLOCKING_CALLS)
                    or (isinstance(child.func, ast.Name) and child.func.id == "open")
                    or (
                        isinstance(child.func, ast.Attribute)
                        and child.func.attr in BLOCKING_METHODS
                    )
                )
                if blocking:
                    label = dotted or getattr(
                        child.func, "attr", getattr(child.func, "id", "call")
                    )
                    violations.append(
                        Violation(
                            rule="async-blocking",
                            path=path,
                            line=child.lineno,
                            symbol=symbol,
                            message=(
                                f"blocking call {label}() inside a coroutine — "
                                "use asyncio.to_thread or an async equivalent"
                            ),
                        )
                    )
            scan(child, symbol)

    for symbol, function in _functions(tree):
        if isinstance(function, ast.AsyncFunctionDef):
            for statement in function.body:
                scan(statement, symbol)
    return violations


def _unpicklable_reason(value: ast.AST) -> Optional[str]:
    """Why an assigned value cannot travel through pickle, or None."""
    for node in ast.walk(value):
        if isinstance(node, ast.Lambda):
            return "a lambda (pickle cannot serialize it)"
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if (isinstance(node.func, ast.Name) and node.func.id == "open") or dotted in (
                "io.open",
                "os.fdopen",
            ):
                return "an open file handle"
        if isinstance(node, ast.Name) and node.id in ENGINE_REFERENCE_NAMES:
            return f"an engine/backend reference ({node.id})"
        if isinstance(node, ast.Attribute) and node.attr in ENGINE_REFERENCE_NAMES:
            return f"an engine/backend reference (.{node.attr})"
    return None


def check_picklable_plan_state(tree: ast.Module, path: str) -> List[Violation]:
    """Plan operators and predicates must stay picklable.

    The sharded backend ships ``(shard engine, subtree)`` payloads through a
    ``ProcessPoolExecutor``; a lambda, an open handle or a captured
    engine/backend object on any operator or predicate breaks (or bloats)
    that path for every query whose plan contains the node.
    """
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in classes
    }
    plan_classes: Set[str] = set(PLAN_STATE_ROOTS)
    changed = True
    while changed:  # transitive subclasses within the module
        changed = False
        for name, parents in bases.items():
            if name not in plan_classes and parents & plan_classes:
                plan_classes.add(name)
                changed = True

    violations: List[Violation] = []
    for class_node in classes:
        if class_node.name not in plan_classes:
            continue
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                stores_on_self = any(
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    for target in node.targets
                )
                if not stores_on_self:
                    continue
                reason = _unpicklable_reason(node.value)
                if reason is not None:
                    violations.append(
                        Violation(
                            rule="picklable-plan",
                            path=path,
                            line=node.lineno,
                            symbol=f"{class_node.name}.{method.name}",
                            message=(
                                f"stores {reason} on plan operator/predicate "
                                "state — physical plans are pickled to the "
                                "sharded worker pool"
                            ),
                        )
                    )
    return violations


def _builtin_calls(tree: ast.Module, names: Iterable[str]) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names
    ]


def check_dynamic_code(tree: ast.Module, path: str) -> List[Violation]:
    if path.replace("\\", "/").endswith(DYNAMIC_CODE_MODULE):
        return []
    calls = _builtin_calls(tree, DYNAMIC_CODE_BUILTINS)
    if not calls:
        return []
    enclosing = _enclosing_symbols(tree)
    return [
        Violation(
            rule="dynamic-code",
            path=path,
            line=call.lineno,
            symbol=enclosing.get(call, "<module>"),
            message=(
                f"calls builtin {call.func.id}() — code is generated in "
                f"{DYNAMIC_CODE_MODULE} (Predicate.compile) and nowhere else"
            ),
        )
        for call in calls
    ]


def _operator_module(dotted: str) -> Optional[str]:
    """The operator module a dotted module name denotes, else None."""
    return next((m for m in OPERATOR_MODULES if f".{dotted}".endswith(f".{m}")), None)


def _operator_bindings(tree: ast.Module, path: str) -> Dict[str, str]:
    """Local name → operator module, for every name an import binds to an
    operator module or to one of its functions (``path``: posix, relative)."""
    package = path.split("/")[:-1]
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue  # ``import a.b.wsd_ops`` is called by its dotted name, matched as such
        base = package[: len(package) - node.level + 1] if node.level else []
        source = ".".join(base + ([node.module] if node.module else []))
        reexports = source.rsplit(".", 1)[-1] == "relational"
        for alias in node.names:
            origin = _operator_module(f"{source}.{alias.name}") or _operator_module(source)
            if origin is None and reexports and alias.name in CLASSICAL_OPERATORS:
                origin = CLASSICAL_MODULE
            if origin is not None:
                bindings[alias.asname or alias.name] = origin
    return bindings


def check_operator_dispatch(tree: ast.Module, path: str) -> List[Violation]:
    normalized = path.replace("\\", "/")
    bindings = _operator_bindings(tree, normalized)
    calls: List[Tuple[ast.Call, str, str]] = []
    for node in ast.walk(tree):
        called = _dotted_name(node.func) if isinstance(node, ast.Call) else None
        if called is None:
            continue
        receiver, _, name = called.rpartition(".")
        if receiver:  # module.operator(...)
            origin = bindings.get(receiver) or _operator_module(receiver)
        else:  # an operator imported by name
            origin = bindings.get(name)
        if origin is not None:
            calls.append((node, name, origin))
    if not calls:
        return []
    enclosing = _enclosing_symbols(tree)
    in_dispatch_module = normalized.endswith(OPERATOR_DISPATCH_MODULE)
    in_reference_module = normalized.endswith(REFERENCE_MODULE)

    def allowed(call: ast.Call, origin: str) -> bool:
        if in_dispatch_module:
            return origin != SPECIFICATION_MODULE
        return in_reference_module and REFERENCE_FUNCTIONS.get(enclosing.get(call, "")) == origin

    return [
        Violation(
            rule="operator-dispatch",
            path=path,
            line=call.lineno,
            symbol=enclosing.get(call, "<module>"),
            message=(
                f"calls {name}() of {origin} outside {OPERATOR_DISPATCH_MODULE} — the "
                "executor is the only interpreter of a query tree; go through Query.run"
                if origin != SPECIFICATION_MODULE
                else f"calls {name}() of {origin} outside {REFERENCE_MODULE}'s "
                "_evaluate_wsd — the Figure 9 operators are the specification, "
                "not an engine; go through evaluate_on_wsd"
            ),
        )
        for call, name, origin in calls
        if not allowed(call, origin)
    ]


def check_identity_key(tree: ast.Module, path: str) -> List[Violation]:
    normalized = "/" + path.replace("\\", "/")
    if not any(f"/{package}" in normalized for package in IDENTITY_KEY_PACKAGES):
        return []
    enclosing = _enclosing_symbols(tree)
    module, owner = IDENTITY_KEY_EXEMPT
    message = "calls the builtin id — an address a freed object hands on; key by the value"
    return [
        Violation("identity-key", path, call.lineno, enclosing.get(call, "<module>"), message)
        for call in _builtin_calls(tree, ("id",))
        if not (normalized.endswith(module) and enclosing.get(call, "").startswith(owner))
    ]


def _imported_modules(node: ast.AST, package: List[str]) -> List[str]:
    """The absolute names an ``import`` / ``from … import`` statement may bind
    (``package``: the importing module's package path)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = package[: len(package) - node.level + 1] if node.level else []
    source = ".".join(base + ([node.module] if node.module else []))
    return [source] + [f"{source}.{alias.name}" for alias in node.names]


def check_layering(tree: ast.Module, path: str) -> List[Violation]:
    parts = path.replace("\\", "/").split("/")
    if len(parts) < 3 or parts[1] not in RUNTIME_PACKAGES:
        return []
    root, module = parts[0], "/".join(parts[1:])
    enclosing = _enclosing_symbols(tree)
    violations: List[Violation] = []
    for node in ast.walk(tree):
        upper = set()
        for name in _imported_modules(node, parts[:-1]):
            head, _, rest = name.partition(".")
            package = rest.split(".")[0]
            if head == root and package in UPPER_PACKAGES:
                upper.add(f"{root}.{package}")
        symbol = enclosing.get(node, "<module>")
        if upper and (module, symbol) != LAYERING_HOOK:
            violations.append(
                Violation(
                    "layering",
                    path,
                    node.lineno,
                    symbol,
                    f"imports {', '.join(sorted(upper))} from the runtime — only "
                    f"{LAYERING_HOOK[0]}'s {LAYERING_HOOK[1]}() may (the plan verifier)",
                )
            )
    return violations


def check_template_mutation(tree: ast.Module, path: str) -> List[Violation]:
    if path.replace("\\", "/").endswith(TEMPLATE_MODULE):
        return []
    enclosing = _enclosing_symbols(tree)
    return [
        Violation(
            "template-mutation",
            path,
            node.lineno,
            enclosing.get(node, "<module>"),
            f"calls {node.func.attr}() on a UWSDT template in place — copies share "
            "templates; go through UWSDT.add_template_tuple or load_template",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in TEMPLATE_WRITES
        and isinstance(node.func.value, ast.Subscript)
        and isinstance(node.func.value.value, ast.Attribute)
        and node.func.value.value.attr == "templates"
    ]


RULES = (
    check_relation_version,
    check_relation_storage,
    check_locked_state,
    check_async_blocking,
    check_picklable_plan_state,
    check_dynamic_code,
    check_operator_dispatch,
    check_identity_key,
    check_layering,
    check_template_mutation,
)


# --------------------------------------------------------------------------- #
# Running + baseline workflow
# --------------------------------------------------------------------------- #


def default_root() -> Path:
    """The installed ``repro`` package directory (lint scans the source)."""
    return Path(__file__).resolve().parent.parent


def run_lint(root: Optional[Path] = None) -> List[Violation]:
    """Run every rule over all ``.py`` files under ``root``; sorted findings."""
    root = (root or default_root()).resolve()
    violations: List[Violation] = []
    for source in sorted(root.rglob("*.py")):
        relative = source.relative_to(root.parent).as_posix()
        try:
            tree = ast.parse(source.read_text(encoding="utf-8"))
        except SyntaxError as error:  # pragma: no cover - the suite would fail first
            violations.append(
                Violation("parse-error", relative, error.lineno or 1, "<module>", str(error))
            )
            continue
        for rule in RULES:
            violations.extend(rule(tree, relative))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def load_baseline(path: Optional[Path] = None) -> Set[Tuple[str, str, str]]:
    """The accepted violation keys (empty when no baseline exists yet)."""
    path = path or DEFAULT_BASELINE
    if not path.exists():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        (entry["rule"], entry["path"], entry["symbol"])
        for entry in payload.get("violations", [])
    }


def write_baseline(violations: Sequence[Violation], path: Optional[Path] = None) -> Path:
    path = path or DEFAULT_BASELINE
    payload = {
        "format": BASELINE_FORMAT,
        "violations": [
            {"rule": v.rule, "path": v.path, "symbol": v.symbol}
            for v in sorted(violations, key=lambda v: v.key())
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def split_by_baseline(
    violations: Sequence[Violation], baseline: Set[Tuple[str, str, str]]
) -> Tuple[List[Violation], List[Violation]]:
    """``(new, baselined)`` partition of the findings."""
    new: List[Violation] = []
    known: List[Violation] = []
    for violation in violations:
        (known if violation.key() in baseline else new).append(violation)
    return new, known


def build_report(
    violations: Sequence[Violation], baseline: Set[Tuple[str, str, str]]
) -> Dict[str, object]:
    """The ``LINT_report.json`` payload CI uploads as an artifact."""
    new, known = split_by_baseline(violations, baseline)
    return {
        "format": REPORT_FORMAT,
        "total": len(violations),
        "new": [asdict(v) for v in new],
        "baselined": [asdict(v) for v in known],
        "rules": sorted({rule.__name__ for rule in RULES}),
    }
