"""Plan identity: the plans of the benchmark's queries, byte for byte.

Every performance PR has to show that it changed how fast a plan is found
and not which plan: the logical decision trace (``Plan.explain()``) and the
lowered physical tree (``PhysicalPlan.explain()``) of the nine benchmark
queries on the smoke-size census Database and chased UWSDT are compared with
a checked-in dump.  A PR that means to change a plan regenerates the dump
(copy ``plans_400.actual.txt`` over ``plans_400.txt``) and says so.
"""

import difflib
from pathlib import Path

from _fixtures import benchmark_queries, census_engines

GOLDEN = Path(__file__).parent / "golden" / "plans_400.txt"
ACTUAL = GOLDEN.with_name("plans_400.actual.txt")


def dump_plans() -> str:
    sections = []
    for engine in census_engines():
        kind = type(engine).__name__
        for label, query in benchmark_queries():
            plan = query.plan(engine)
            physical = query.physical_plan(engine, plan=plan, backend="row")
            sections.append(
                f"#### {kind} {label}\n{plan.explain()}\n---- physical\n{physical.explain()}\n"
            )
    return "\n".join(sections)


def test_benchmark_plans_match_the_golden_dump():
    actual = dump_plans()
    golden = GOLDEN.read_text(encoding="utf-8")
    if actual != golden:
        ACTUAL.write_text(actual, encoding="utf-8")
        diff = difflib.unified_diff(
            golden.splitlines(), actual.splitlines(), GOLDEN.name, ACTUAL.name, lineterm="", n=1
        )
        raise AssertionError(
            f"plans differ from {GOLDEN.name}; wrote {ACTUAL.name} beside it:\n"
            + "\n".join(diff)
        )
