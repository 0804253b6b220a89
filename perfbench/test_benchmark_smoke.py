"""Smoke test of the benchmark itself (not part of tier-1; run by path:
``python -m pytest perfbench/test_benchmark_smoke.py -q``).

Drives ``run.py`` at the tiny internal scale and checks the contract the
driver relies on: ``BENCHMARK.json`` and ``spec.py`` agree, every declared
metric appears exactly once per workload with its unit, names are
well-formed, and a traced pass's span self times add up to its wall time.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny", *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_spec(declared: dict) -> None:
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == spec.PER_LAYER
    names = spec.WORKLOAD_NAMES + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(unit) for unit in spec.UNITS.values())
    assert 2 <= len(spec.WORKLOADS) <= 8 and len(spec.PER_LAYER) <= 128
    assert all(len(why) <= 200 and "\n" not in why for _, why in spec.WORKLOADS)
    assert all(0 < bound <= 0.25 for _, _, _, bound in spec.END_TO_END)
    assert ("setup_s", "s", "lower") in [m[:3] for m in spec.END_TO_END]
    # 4 + 22 runs per workload, each run_seconds plus set-up, inside the driver's cap.
    assert (4 + 22 * len(spec.WORKLOADS)) * (declared["run_seconds"] + 6) < 3420


def test_every_end_to_end_metric_once_per_workload() -> None:
    finished = run("--seconds", "0.3")
    reports = finished.stdout.split("workload ")[1:]
    assert [report.split()[0] for report in reports] == spec.WORKLOAD_NAMES
    for report in reports:
        for name, unit, _, _ in spec.END_TO_END:
            lines = re.findall(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$", report, re.M)
            assert len(lines) == 1, (name, report)
        assert "outputs ok: 0 failed" in report
    with open(os.path.join(HERE, "out", "BENCH.json"), encoding="utf-8") as handle:
        results = json.load(handle)["workloads"]
    for workload in spec.WORKLOAD_NAMES:
        result = results[workload]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert sorted(result["metrics"]) == sorted(spec.END_TO_END_NAMES)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == spec.UNITS[name] and metric["value"] > 0


@pytest.mark.parametrize("workload", ["query_uncertain", "service_mixed"])
def test_traced_pass_reports_layers_and_consistent_self_times(workload: str) -> None:
    finished = run("--workload", workload, "--trace", "1", "--seconds", "1")
    result = json.loads(finished.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == spec.PER_LAYER_NAMES
    assert result["metrics"]["obs.trace_overhead_ratio"]["value"] > 0
    with open(os.path.join(HERE, "out", f"TRACE_{workload}.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    self_seconds = sum(span["self_seconds"] for span in trace["spans"])
    assert self_seconds == pytest.approx(trace["pass_wall_seconds"], rel=0.10)
    by_id = {span["span_id"]: span for span in trace["spans"]}
    assert all(
        span["parent_id"] is None or span["parent_id"] in by_id for span in trace["spans"]
    )
