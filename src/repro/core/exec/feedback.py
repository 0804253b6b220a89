"""The self-tuning loop: fold observed execution metrics into the cost profile.

:mod:`~repro.core.planner.calibrate` fits the planner's cost constants from
synthetic microbenchmarks; this module refines them from *real* query
executions.  Each executed physical operator reports its wall time together
with its actual input/output cardinalities; plugging the actual
cardinalities into the same per-operator cost formulas the planner uses
gives the operator's work in model units, so

    ``seconds ≈ unit · constant · work_units``

holds with the machine-specific ``unit`` (seconds per model cost unit)
estimated by least squares over the whole run.  Per constant, the ratio of
observed to predicted seconds is folded into the profile by an
exponentially weighted update — repeated executions converge the constants
toward the observed operator ratios without letting one noisy run swing
them.  Updated profiles are persisted as ordinary ``repro-cost-profile``
JSON documents, so the existing
:func:`~repro.core.planner.cost.load_cost_profile` path (and the
``REPRO_COST_PROFILE`` environment variable) serves them on the next run —
that closes the loop.

Cardinality errors feed back too: :func:`record_into_catalog` stores each
operator's estimated-vs-actual output cardinality on the engine's
:class:`~repro.core.planner.catalog.StatisticsCatalog`, keyed by the
operator label, as an EWMA of observed rows.

Run ``python -m repro.core.exec.feedback --smoke`` for one end-to-end
self-tuning iteration (CI does, and asserts the updated profile
round-trips).
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..planner.calibrate import MIN_CONSTANT, CalibrationProfile
from ..planner.cost import CostModel, arity_width
from .metrics import ExecutionMetrics, OperatorMetrics

#: Default EWMA weight of one feedback iteration.
DEFAULT_ALPHA = 0.5


def observed_cost_units(record: OperatorMetrics, model: CostModel) -> Optional[Tuple[str, float]]:
    """``(primary constant, predicted cost units)`` of one executed operator.

    The formulas mirror :func:`~repro.core.planner.cost.estimate` exactly,
    but evaluated at the operator's **actual** cardinalities — cardinality
    estimation error therefore does not contaminate the constant fit.
    Returns None for scans, and for ``IndexScan``: the planner
    conservatively costs it as a full-scan select, but its runtime is
    O(matched rows), so fitting its near-zero seconds against scan-sized
    work would drag ``select_tuple`` down for every real ``Filter``.
    """
    rows_in = record.rows_in
    first = float(rows_in[0]) if rows_in else 0.0
    second = float(rows_in[1]) if len(rows_in) > 1 else 0.0
    out_width = arity_width(record.arity_out)
    if record.operator == "Filter":
        return "select_tuple", model.select_tuple * first
    if record.operator == "Project":
        in_arity = record.arity_in[0] if record.arity_in else record.arity_out
        return "project_tuple", model.project_tuple * first * arity_width(in_arity)
    if record.operator == "Rename":
        return "rename_tuple", model.rename_tuple * first
    if record.operator == "Union":
        return "union_tuple", model.union_tuple * (first + second)
    if record.operator == "Product":
        return "emit_tuple", model.emit_tuple * record.rows_out * out_width
    if record.operator == "HashJoin":
        units = (
            model.join_build * first
            + model.join_probe * second
            + model.emit_tuple * record.rows_out * out_width
        )
        return "join_build", units
    if record.operator == "IndexNestedLoopJoin":
        units = model.index_probe * first + model.emit_tuple * record.rows_out * out_width
        return "index_probe", units
    if record.operator in ("Difference", "Intersection"):
        return "difference_pair", model.difference_pair * first * max(1.0, second)
    if record.operator == "Exchange":
        # Its recorded seconds are the boundary overhead (partition + ship +
        # pool wait) left after the subtree's own merged operator times.
        return "shard_ship_tuple", model.shard_ship_tuple * first
    if record.operator == "Gather":
        return "shard_merge_tuple", model.shard_merge_tuple * first
    return None  # scans: the model charges them nothing


def _usable(records: Sequence[OperatorMetrics], model: CostModel):
    for record in records:
        spec = observed_cost_units(record, model)
        if spec is None:
            continue
        constant, units = spec
        if units > 0:
            yield constant, units, record.seconds


def fitted_unit(records: Sequence[OperatorMetrics], model: CostModel) -> Optional[float]:
    """Least-squares seconds-per-cost-unit of one run under ``model``."""
    numerator = 0.0
    denominator = 0.0
    for _, units, seconds in _usable(records, model):
        numerator += units * seconds
        denominator += units * units
    if denominator <= 0:
        return None
    unit = numerator / denominator
    return unit if unit > 0 else None


def cost_model_error(metrics: ExecutionMetrics, model: CostModel) -> float:
    """Relative L1 error of the model's per-operator time predictions.

    ``Σ |unit·predicted − observed| / Σ observed`` with the best-fitting
    global ``unit`` for this model — scale-free, so it isolates how well the
    *ratios* between the constants match reality.  Zero when the run had no
    chargeable operators.
    """
    usable = list(_usable(metrics.records, model))
    unit = fitted_unit(metrics.records, model)
    total_seconds = sum(seconds for _, _, seconds in usable)
    if unit is None or total_seconds <= 0:
        return 0.0
    absolute = sum(abs(unit * units - seconds) for _, units, seconds in usable)
    return absolute / total_seconds


#: Constants updated together (the hash join's build and probe are fitted as
#: one residual in calibration, so feedback scales them together too).
_TIED_CONSTANTS = {"join_build": ("join_build", "join_probe")}


def fold_metrics(
    metrics: ExecutionMetrics,
    model: Optional[CostModel] = None,
    alpha: float = DEFAULT_ALPHA,
) -> CostModel:
    """One feedback iteration: blend observed operator ratios into ``model``.

    For every constant with at least one observed operator, the group's
    observed seconds are compared against the model's prediction under the
    run's best-fitting global unit; the constant moves toward the observed
    ratio with weight ``alpha``.  Constants without observations are kept.
    """
    if model is None:
        model = CostModel.for_engine(metrics.engine)
    usable = list(_usable(metrics.records, model))
    unit = fitted_unit(metrics.records, model)
    if unit is None:
        return model

    predicted: Dict[str, float] = {}
    observed: Dict[str, float] = {}
    for constant, units, seconds in usable:
        predicted[constant] = predicted.get(constant, 0.0) + unit * units
        observed[constant] = observed.get(constant, 0.0) + seconds

    constants = model.constants()
    for constant, predicted_seconds in predicted.items():
        if predicted_seconds <= 0:
            continue
        ratio = observed[constant] / predicted_seconds
        scale = (1.0 - alpha) + alpha * ratio
        for name in _TIED_CONSTANTS.get(constant, (constant,)):
            constants[name] = max(constants[name] * scale, MIN_CONSTANT)
    return CostModel.from_constants(metrics.engine, constants, source="calibrated")


@dataclass
class FeedbackResult:
    """One applied feedback iteration, with its before/after model error."""

    engine: str
    error_before: float
    error_after: float
    model: CostModel
    profile: CalibrationProfile

    @property
    def improved(self) -> bool:
        return self.error_after <= self.error_before


def apply_feedback(
    metrics: ExecutionMetrics,
    alpha: float = DEFAULT_ALPHA,
    output_path: Optional[str] = None,
    install: bool = False,
    extra_metadata: Optional[Dict[str, object]] = None,
) -> FeedbackResult:
    """Fold one execution's metrics into the active cost profile.

    Builds a full profile (the updated engine plus the active models of the
    other engines, so a saved document stays complete), optionally persists
    it to ``output_path`` and/or installs it for the current process.
    """
    from ...obs.metrics import get_registry

    before = CostModel.for_engine(metrics.engine)
    updated = fold_metrics(metrics, before, alpha)
    # Surface per-constant drift: the ratio an iteration applied to each
    # constant (1.0 = the model already matched the observed run).
    registry = get_registry()
    registry.counter("repro.feedback.iterations", engine=metrics.engine).inc()
    before_constants = before.constants()
    for constant, value in updated.constants().items():
        origin = before_constants.get(constant)
        if origin:
            registry.gauge(
                "repro.feedback.constant_drift", engine=metrics.engine, constant=constant
            ).set(value / origin)
    models = {
        name: CostModel.for_engine(name)
        for name in ("database", "wsd", "uwsdt", "columnar", "sharded")
    }
    models[metrics.engine] = updated
    metadata: Dict[str, object] = {
        "self_tuned": True,
        "alpha": alpha,
        "engine": metrics.engine,
        "operators": len(metrics.records),
    }
    metadata.update(extra_metadata or {})
    profile = CalibrationProfile(models, metadata)
    if output_path is not None:
        profile.save(output_path)
    if install:
        profile.install(output_path)
    return FeedbackResult(
        engine=metrics.engine,
        error_before=cost_model_error(metrics, before),
        error_after=cost_model_error(metrics, updated),
        model=updated,
        profile=profile,
    )


def record_into_catalog(engine, metrics: ExecutionMetrics) -> None:
    """Store estimated-vs-actual output cardinalities on the engine's catalog."""
    from ..planner.catalog import catalog_for

    catalog = catalog_for(engine)
    for record in metrics.records:
        if record.estimated_rows is None:
            continue
        catalog.record_actual(
            record.label,
            record.estimated_rows,
            record.rows_out,
            key=record.semantic_key,
            relations=record.relations,
        )


# --------------------------------------------------------------------------- #
# CLI: one end-to-end self-tuning iteration (wired into CI as a smoke check)
# --------------------------------------------------------------------------- #


def _smoke_metrics(rows: int) -> List[ExecutionMetrics]:
    """Run the repeated-planning benchmark query with metrics per backend:
    the database and UWSDT row backends, plus the columnar backend over both
    engines (its metrics carry ``engine == "columnar"`` and refine the
    columnar cost model).  Every operator reports its best of three runs."""
    from ...bench.harness import census_instance
    from ...census.queries import q_four_way_join

    instance = census_instance(rows, 0.001)
    query = q_four_way_join()
    collected = []

    def observe(make_engine, **options) -> None:
        # An operator takes tens of µs here, so one collector pause inside
        # it would become a constant; fresh engines plan identically, so
        # the runs' records align and each keeps its best time, as in the
        # calibrator's microbenchmarks.
        runs = [
            query.run(make_engine(), "result", collect_metrics=True, **options).metrics
            for _ in range(3)
        ]
        for again in runs[1:]:
            for record, repeat in zip(runs[0].records, again.records):
                record.seconds = min(record.seconds, repeat.seconds)
        collected.append(runs[0])

    observe(instance.one_world_database)
    observe(instance.chased)
    observe(instance.one_world_database, backend="columnar")
    observe(instance.chased, backend="columnar")
    return collected


def shard_smoke(
    rows: int,
    workers: int,
    alpha: float = DEFAULT_ALPHA,
    output_path: Optional[str] = None,
    profile_path: Optional[str] = None,
) -> Dict[str, object]:
    """Row-vs-sharded wall clock of the 4-way census join on a UWSDT.

    Runs the single-process row backend once, then ``backend="sharded"`` at
    every worker count from 2 up to ``workers`` (each on a freshly chased
    instance), folds the sharded runs' metrics into the cost profile (that
    calibrates the ``shard_*`` constants, which is what lets
    ``backend="auto"`` consider sharding), and returns a JSON-ready
    ``repro-shard-smoke`` document with the measured speedups.
    """
    from ...bench.harness import census_instance
    from ...census.queries import q_four_way_join
    from .shard import reset_shard_pool

    query = q_four_way_join()

    def chased_engine():
        return census_instance(rows, 0.001).chased()

    started = time.perf_counter()
    query.run(chased_engine(), "result", backend="row")
    row_seconds = time.perf_counter() - started

    runs: List[Dict[str, object]] = []
    for count in range(2, max(2, workers) + 1):
        engine = chased_engine()
        started = time.perf_counter()
        result = query.run(
            engine, "result", collect_metrics=True, backend="sharded", workers=count
        )
        seconds = time.perf_counter() - started
        feedback = apply_feedback(
            result.metrics, alpha=alpha, output_path=profile_path, install=True
        )
        runs.append(
            {
                "workers": count,
                "seconds": seconds,
                "speedup": row_seconds / seconds if seconds > 0 else None,
                "cost_model_error": feedback.error_after,
            }
        )
        print(
            f"sharded workers={count}: {seconds * 1e3:.2f} ms "
            f"(row {row_seconds * 1e3:.2f} ms, speedup {row_seconds / seconds:.2f}x)"
        )
    reset_shard_pool()
    document: Dict[str, object] = {
        "format": "repro-shard-smoke",
        "rows": rows,
        "query": "q_four_way_join",
        "engine": "uwsdt",
        "row_seconds": row_seconds,
        "sharded": runs,
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print(f"wrote {output_path}")
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ..planner.calibrate import calibrate
    from ..planner.cost import load_cost_profile, parse_cost_profile

    parser = argparse.ArgumentParser(
        description="One calibrate-and-feedback round per backend: fit the "
        "cost constants from microbenchmarks, execute a metrics-enabled "
        "query on every backend, fold observed operator times into the "
        "cost profile."
    )
    parser.add_argument("--output", default="COST_PROFILE_tuned.json")
    parser.add_argument(
        "--columnar-output",
        default="COST_PROFILE_columnar.json",
        help="where to upload the calibrated+tuned profile containing the "
        "columnar model (the artifact CI publishes)",
    )
    parser.add_argument(
        "--profile", default=None, help="existing profile to start from (optional)"
    )
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="skip the microbenchmark calibration round (start from the "
        "active/reference constants)",
    )
    parser.add_argument("--rows", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    parser.add_argument("--smoke", action="store_true", help="tiny CI sizes (100 rows)")
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker counts for the sharded smoke (runs workers=2..N)",
    )
    parser.add_argument(
        "--shard-output",
        default="SHARD_smoke.json",
        help="where to write the row-vs-sharded speedup document "
        "(empty string skips the shard smoke)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        load_cost_profile(args.profile)
    elif not args.no_calibrate:
        # Calibrate every backend first so feedback refines *fitted*
        # constants (and so the columnar model is source="calibrated",
        # which is what lets backend="auto" consider it).
        calibrated = calibrate(smoke=args.smoke)
        calibrated.install()
        for name, model in sorted(calibrated.models.items()):
            print(
                f"calibrated {name}: select_tuple={model.select_tuple:.4f} "
                f"join_build={model.join_build:.4f}"
            )
    rows = 100 if args.smoke else args.rows

    # The shard smoke runs first: it calibrates the shard_* constants, and
    # the feedback loop below then writes the final profile (including the
    # now-calibrated sharded model), keeping the round-trip check below
    # aligned with the file's last writer.
    if args.shard_output:
        shard_smoke(
            rows,
            args.workers,
            alpha=args.alpha,
            output_path=args.shard_output,
            profile_path=args.output,
        )

    result = None
    for metrics in _smoke_metrics(rows):
        result = apply_feedback(
            metrics, alpha=args.alpha, output_path=args.output, install=True
        )
        print(
            f"{metrics.engine}: cost-model error "
            f"{result.error_before:.4f} -> {result.error_after:.4f} "
            f"({len(metrics.records)} operators, {metrics.total_seconds * 1e3:.2f} ms)"
        )

    with open(args.output, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    reloaded = parse_cost_profile(document)
    saved = {name: model.constants() for name, model in result.profile.models.items()}
    round_tripped = {name: model.constants() for name, model in reloaded.items()}
    if saved != round_tripped:
        print("ERROR: tuned profile did not round-trip through the JSON document")
        return 1
    print(f"wrote {args.output} (round-trip verified)")

    if args.columnar_output:
        result.profile.save(args.columnar_output)
        columnar = result.profile.models.get("columnar")
        row = result.profile.models.get("database")
        if columnar is not None and row is not None:
            print(
                f"wrote {args.columnar_output} "
                f"(columnar select_tuple {columnar.select_tuple:.4f} vs "
                f"row {row.select_tuple:.4f}, "
                f"join_build {columnar.join_build:.4f} vs {row.join_build:.4f})"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
