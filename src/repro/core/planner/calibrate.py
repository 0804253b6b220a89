"""Auto-calibration of the planner's :class:`CostModel` constants.

The hand-tuned per-engine constants of :mod:`~repro.core.planner.cost` were
estimated once from census-workload timings; this module replaces the
guesswork with a microbenchmark driver that *measures* them on the current
machine:

1. :func:`run_microbenchmarks` times each operator primitive —
   ``select`` / ``project`` / ``rename`` / ``union`` / ``product`` /
   ``equi_join`` / ``difference`` — per engine (classical relations,
   :func:`~repro.core.algebra.wsd_ops` on WSDs,
   :func:`~repro.core.algebra.uwsdt_ops` on UWSDTs) at a few input sizes,
   on synthetic relations with a small or-set density so the
   representation engines pay their real per-placeholder costs.
2. :func:`fit_cost_model` converts the timings into constants by least
   squares through the origin: each operator's cost formula (the same
   per-operator steps ``estimate()`` uses) predicts ``seconds ≈ slope ×
   work-units``, the slope is fitted over the sizes, and the slopes are
   normalized so the engine's ``select_tuple`` keeps its hand-tuned value —
   the planner only ever compares plans for one engine, so only the
   within-engine *ratios* matter.  The join is fitted in two steps: the
   ``emit`` slope comes from the product measurements, and the join's
   build+probe constant is fitted on the residual after subtracting the
   emit share.
3. :class:`CalibrationProfile` persists the fitted models as a JSON
   document that :func:`~repro.core.planner.cost.load_cost_profile` (or
   the ``REPRO_COST_PROFILE`` environment variable) installs, after which
   ``CostModel.for_engine`` — and therefore every ``Statistics.cost_model()``
   and ``Plan.explain()`` — serves calibrated constants, with the
   hand-tuned ones as fallback for engines the profile does not cover.

Run it as a module to produce a profile::

    python -m repro.core.planner.calibrate --smoke --output COST_PROFILE.json

CI runs exactly that at smoke size and uploads the profile next to
``BENCH_smoke.json``, so the constants' trajectory is tracked per run.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...relational import algebra as relational_algebra
from ...relational.predicates import AttrConst
from ...relational.relation import Relation
from ...relational.schema import RelationSchema
from ...worlds.orset import OrSet, OrSetRelation
from ..algebra import uwsdt_ops, wsd_ops
from ..uwsdt import UWSDT
from ..wsd import WSD
from .cost import (
    COST_MODELS,
    COST_PROFILE_FORMAT,
    CostModel,
    GENERIC_COST,
    arity_width,
    install_cost_profile,
    parse_cost_profile,
)

#: Engines the calibrator knows how to drive.  ``"columnar"`` times the
#: vectorized kernels of :mod:`~repro.core.exec.columnar` over column
#: batches (product stays the row path, which is what the columnar backend
#: actually executes for it).
CALIBRATION_ENGINES: Tuple[str, ...] = ("database", "wsd", "uwsdt", "columnar")

#: Input sizes for the linear operators (select/project/rename/union/join).
DEFAULT_LINEAR_SIZES: Tuple[int, ...] = (160, 320)
#: Input sizes for the quadratic product (output is n²).
DEFAULT_PRODUCT_SIZES: Tuple[int, ...] = (16, 28)
#: Input sizes for difference (pairwise component composition on WSDs).
DEFAULT_DIFFERENCE_SIZES: Tuple[int, ...] = (6, 10)

#: Smoke-size schedule (CI: a couple of seconds for all three engines).
SMOKE_LINEAR_SIZES: Tuple[int, ...] = (48, 96)
#: Engines that keep :data:`DEFAULT_LINEAR_SIZES` under ``smoke``: they run
#: them in milliseconds, and a classical or columnar select of under ≈ 150
#: rows times the generation of the predicate's code (≈ 35 µs, once), not
#: the scan whose slope anchors every other constant of the engine.
SMOKE_FULL_LINEAR_ENGINES: Tuple[str, ...] = ("database", "columnar")
SMOKE_PRODUCT_SIZES: Tuple[int, ...] = (8, 14)
SMOKE_DIFFERENCE_SIZES: Tuple[int, ...] = (4, 6)

DEFAULT_REPEATS = 3
CALIBRATION_SEED = 0xCA11B

#: Fraction of non-key fields turned into two-value or-sets, so WSD/UWSDT
#: microbenchmarks pay their genuine per-placeholder component costs.
ORSET_DENSITY = 0.05

#: Fitted constants are floored here — a sub-resolution timing must not
#: make an operator look free to the planner.
MIN_CONSTANT = 0.01

_ATTRS = ("K", "A", "B", "C")
_JOIN_ATTRS = ("K2", "A2", "B2", "C2")


@dataclass(frozen=True)
class Measurement:
    """One timed operator primitive."""

    engine: str
    operator: str
    rows_left: int
    rows_right: int
    out_rows: int
    arity_in: int
    arity_out: int
    seconds: float


# --------------------------------------------------------------------------- #
# Synthetic inputs
# --------------------------------------------------------------------------- #


def _value_rows(count: int, seed: int) -> List[Tuple[int, int, int, int]]:
    """Deterministic rows: a skewed join key ``K`` plus three value columns
    (the trailing counter keeps rows distinct under set semantics)."""
    rng = random.Random(seed)
    return [
        (index % max(2, count // 4), rng.randrange(5), rng.randrange(3), index)
        for index in range(count)
    ]


def _plain_relation(name: str, attributes: Sequence[str], count: int, seed: int) -> Relation:
    return Relation(RelationSchema(name, attributes), _value_rows(count, seed))


def _orset_relation(
    name: str, attributes: Sequence[str], count: int, seed: int, density: float = ORSET_DENSITY
) -> OrSetRelation:
    rng = random.Random(seed ^ 0xD1CE)
    relation = OrSetRelation(RelationSchema(name, attributes))
    for row in _value_rows(count, seed):
        uncertain = tuple(
            OrSet([value, value + 5]) if position in (1, 2) and rng.random() < density else value
            for position, value in enumerate(row)
        )
        relation.insert(uncertain)
    return relation


# --------------------------------------------------------------------------- #
# Timing helpers
# --------------------------------------------------------------------------- #


def _timed_pure(action: Callable[[], Any], repeats: int) -> Tuple[Any, float]:
    """Best-of-``repeats`` timing of a side-effect-free action."""
    best: Optional[float] = None
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = action()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best or 0.0


def _timed_inplace(
    base: Any, op: Callable[[Any], None], out_of: Callable[[Any], int], repeats: int
) -> Tuple[int, float]:
    """Best-of-``repeats`` timing of an in-place representation operator.

    The engine is copied outside the timed region so each repeat sees a
    fresh representation (the operators extend it in place).
    """
    best: Optional[float] = None
    out = 0
    for _ in range(max(1, repeats)):
        engine = base.copy()
        start = time.perf_counter()
        op(engine)
        elapsed = time.perf_counter() - start
        out = out_of(engine)
        best = elapsed if best is None else min(best, elapsed)
    return out, best or 0.0


# --------------------------------------------------------------------------- #
# Per-engine drivers
# --------------------------------------------------------------------------- #


def _measure_database(
    linear_sizes: Sequence[int],
    product_sizes: Sequence[int],
    difference_sizes: Sequence[int],
    repeats: int,
    seed: int,
) -> List[Measurement]:
    measurements: List[Measurement] = []
    arity = len(_ATTRS)
    predicate = AttrConst("A", "=", 1)

    def record(operator, left, right, out, arity_out, seconds):
        measurements.append(
            Measurement("database", operator, left, right, out, arity, arity_out, seconds)
        )

    for count in linear_sizes:
        left = _plain_relation("R", _ATTRS, count, seed)
        twin = _plain_relation("R2", _ATTRS, count, seed + 1)
        other = _plain_relation("S", _JOIN_ATTRS, count, seed + 2)
        result, seconds = _timed_pure(lambda: relational_algebra.select(left, predicate), repeats)
        record("select", count, 0, len(result), arity, seconds)
        result, seconds = _timed_pure(lambda: relational_algebra.project(left, ("K", "A")), repeats)
        record("project", count, 0, len(result), 2, seconds)
        result, seconds = _timed_pure(lambda: relational_algebra.rename(left, "A", "A9"), repeats)
        record("rename", count, 0, len(result), arity, seconds)
        result, seconds = _timed_pure(lambda: relational_algebra.union(left, twin), repeats)
        record("union", count, count, len(result), arity, seconds)
        result, seconds = _timed_pure(
            lambda: relational_algebra.equi_join(left, other, "K", "K2"), repeats
        )
        record("join", count, count, len(result), 2 * arity, seconds)
    for count in product_sizes:
        left = _plain_relation("R", _ATTRS, count, seed)
        other = _plain_relation("S", _JOIN_ATTRS, count, seed + 2)
        result, seconds = _timed_pure(lambda: relational_algebra.product(left, other), repeats)
        record("product", count, count, len(result), 2 * arity, seconds)
    for count in difference_sizes:
        left = _plain_relation("R", _ATTRS, count, seed)
        twin = _plain_relation("R2", _ATTRS, count, seed + 1)
        result, seconds = _timed_pure(lambda: relational_algebra.difference(left, twin), repeats)
        record("difference", count, count, len(result), arity, seconds)
    return measurements


def _measure_representation(
    engine_name: str,
    linear_sizes: Sequence[int],
    product_sizes: Sequence[int],
    difference_sizes: Sequence[int],
    repeats: int,
    seed: int,
) -> List[Measurement]:
    """Shared driver for the WSD and UWSDT in-place operators."""
    measurements: List[Measurement] = []
    arity = len(_ATTRS)
    predicate = AttrConst("A", "=", 1)
    if engine_name == "uwsdt":
        ops, build = uwsdt_ops, UWSDT.from_orset_relations

        def result_size(engine, target):
            return engine.template_size(target)

    else:
        ops, build = wsd_ops, WSD.from_orset_relations

        def result_size(engine, target):
            return len(engine.tuple_ids.get(target, ()))

    def base(count):
        return build(
            [
                _orset_relation("R", _ATTRS, count, seed),
                _orset_relation("R2", _ATTRS, count, seed + 1),
                _orset_relation("S", _JOIN_ATTRS, count, seed + 2),
            ]
        )

    def record(operator, left, right, out, arity_out, seconds):
        measurements.append(
            Measurement(engine_name, operator, left, right, out, arity, arity_out, seconds)
        )

    for count in linear_sizes:
        engine = base(count)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.select(e, "R", "T", predicate),
            lambda e: result_size(e, "T"), repeats,
        )
        record("select", count, 0, out, arity, seconds)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.project(e, "R", "T", ("K", "A")),
            lambda e: result_size(e, "T"), repeats,
        )
        record("project", count, 0, out, 2, seconds)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.rename(e, "R", "T", "A", "A9"),
            lambda e: result_size(e, "T"), repeats,
        )
        record("rename", count, 0, out, arity, seconds)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.union(e, "R", "R2", "T"),
            lambda e: result_size(e, "T"), repeats,
        )
        record("union", count, count, out, arity, seconds)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.equi_join(e, "R", "S", "K", "K2", "T"),
            lambda e: result_size(e, "T"), repeats,
        )
        record("join", count, count, out, 2 * arity, seconds)
    for count in product_sizes:
        engine = base(count)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.product(e, "R", "S", "T"),
            lambda e: result_size(e, "T"), repeats,
        )
        record("product", count, count, out, 2 * arity, seconds)
    for count in difference_sizes:
        engine = base(count)
        out, seconds = _timed_inplace(
            engine, lambda e: ops.difference(e, "R", "R2", "T"),
            lambda e: result_size(e, "T"), repeats,
        )
        record("difference", count, count, out, arity, seconds)
    return measurements


def _measure_columnar(
    linear_sizes: Sequence[int],
    product_sizes: Sequence[int],
    difference_sizes: Sequence[int],
    repeats: int,
    seed: int,
) -> List[Measurement]:
    """Time the vectorized kernels over :class:`ColumnBatch` inputs.

    The batches are built from the same synthetic rows the Database driver
    uses (batch construction happens outside the timed region — it is the
    materialize boundary's cost, not the kernels').  Product has no kernel:
    the columnar backend delegates it to the row path, so the emit slope is
    measured on the classical product, exactly the work a columnar plan
    pays there.
    """
    from ...core.exec.columnar import (
        ColumnBatch,
        difference_batch,
        filter_batch,
        hash_join_batch,
        project_batch,
        rename_batch,
        union_batch,
    )

    measurements: List[Measurement] = []
    arity = len(_ATTRS)
    predicate = AttrConst("A", "=", 1)

    def batch_of(relation: Relation) -> ColumnBatch:
        return ColumnBatch.from_rows(relation.schema.attributes, relation.rows)

    def record(operator, left, right, out, arity_out, seconds):
        measurements.append(
            Measurement("columnar", operator, left, right, out, arity, arity_out, seconds)
        )

    for count in linear_sizes:
        left = batch_of(_plain_relation("R", _ATTRS, count, seed))
        twin = batch_of(_plain_relation("R2", _ATTRS, count, seed + 1))
        other = batch_of(_plain_relation("S", _JOIN_ATTRS, count, seed + 2))
        result, seconds = _timed_pure(lambda: filter_batch(left, predicate), repeats)
        record("select", count, 0, len(result), arity, seconds)
        result, seconds = _timed_pure(lambda: project_batch(left, ("K", "A")), repeats)
        record("project", count, 0, len(result), 2, seconds)
        result, seconds = _timed_pure(lambda: rename_batch(left, "A", "A9"), repeats)
        record("rename", count, 0, len(result), arity, seconds)
        result, seconds = _timed_pure(lambda: union_batch(left, twin), repeats)
        record("union", count, count, len(result), arity, seconds)
        result, seconds = _timed_pure(
            lambda: hash_join_batch(left, other, "K", "K2"), repeats
        )
        record("join", count, count, len(result), 2 * arity, seconds)
    for count in product_sizes:
        left = _plain_relation("R", _ATTRS, count, seed)
        other = _plain_relation("S", _JOIN_ATTRS, count, seed + 2)
        result, seconds = _timed_pure(lambda: relational_algebra.product(left, other), repeats)
        record("product", count, count, len(result), 2 * arity, seconds)
    for count in difference_sizes:
        left = batch_of(_plain_relation("R", _ATTRS, count, seed))
        twin = batch_of(_plain_relation("R2", _ATTRS, count, seed + 1))
        result, seconds = _timed_pure(lambda: difference_batch(left, twin), repeats)
        record("difference", count, count, len(result), arity, seconds)
    return measurements


def run_microbenchmarks(
    engine_name: str,
    linear_sizes: Sequence[int] = DEFAULT_LINEAR_SIZES,
    product_sizes: Sequence[int] = DEFAULT_PRODUCT_SIZES,
    difference_sizes: Sequence[int] = DEFAULT_DIFFERENCE_SIZES,
    repeats: int = DEFAULT_REPEATS,
    seed: int = CALIBRATION_SEED,
) -> List[Measurement]:
    """Time every operator primitive of one engine at the given sizes."""
    if engine_name == "database":
        return _measure_database(linear_sizes, product_sizes, difference_sizes, repeats, seed)
    if engine_name == "columnar":
        return _measure_columnar(linear_sizes, product_sizes, difference_sizes, repeats, seed)
    if engine_name in ("wsd", "uwsdt"):
        return _measure_representation(
            engine_name, linear_sizes, product_sizes, difference_sizes, repeats, seed
        )
    raise ValueError(f"unknown calibration engine {engine_name!r}")


# --------------------------------------------------------------------------- #
# Least-squares fit
# --------------------------------------------------------------------------- #


def _slope(points: Sequence[Tuple[float, float]]) -> Optional[float]:
    """Least-squares slope through the origin of ``seconds ≈ slope·work``."""
    numerator = sum(work * seconds for work, seconds in points)
    denominator = sum(work * work for work, _ in points)
    if denominator <= 0:
        return None
    slope = numerator / denominator
    return slope if slope > 0 else None


def _work_units(measurement: Measurement) -> Optional[Tuple[str, float]]:
    """``(constant name, work units)`` under the cost model's formulas."""
    left, right = measurement.rows_left, measurement.rows_right
    if measurement.operator == "select":
        return "select_tuple", float(left)
    if measurement.operator == "project":
        return "project_tuple", left * arity_width(measurement.arity_in)
    if measurement.operator == "rename":
        return "rename_tuple", float(left)
    if measurement.operator == "union":
        return "union_tuple", float(left + right)
    if measurement.operator == "product":
        return "emit_tuple", left * right * arity_width(measurement.arity_out)
    if measurement.operator == "difference":
        return "difference_pair", float(left * max(1, right))
    return None  # joins are fitted separately (emit share subtracted first)


def fit_cost_model(
    engine_name: str,
    measurements: Sequence[Measurement],
    reference: Optional[CostModel] = None,
) -> CostModel:
    """Fit an engine's cost constants from its operator timings.

    Slopes are normalized so ``select_tuple`` keeps the reference (hand-tuned)
    value — within-engine ratios are what the planner compares.  Operators
    without a usable slope (no measurements, or timings below resolution)
    keep their reference constant.
    """
    reference = reference or COST_MODELS.get(engine_name, GENERIC_COST)
    groups: Dict[str, List[Tuple[float, float]]] = {}
    joins: List[Measurement] = []
    for measurement in measurements:
        if measurement.engine != engine_name:
            continue
        if measurement.operator == "join":
            joins.append(measurement)
            continue
        spec = _work_units(measurement)
        if spec is not None:
            groups.setdefault(spec[0], []).append((spec[1], measurement.seconds))

    slopes: Dict[str, Optional[float]] = {
        name: _slope(points) for name, points in groups.items()
    }
    emit_slope = slopes.get("emit_tuple")
    if joins and emit_slope is not None:
        residual_points = []
        for measurement in joins:
            emit_share = emit_slope * measurement.out_rows * arity_width(measurement.arity_out)
            residual = measurement.seconds - emit_share
            if residual > 0:
                residual_points.append(
                    (float(measurement.rows_left + measurement.rows_right), residual)
                )
        fitted_join = _slope(residual_points)
        if fitted_join is None:
            # A join faster than the engine's emit rate leaves no positive
            # residual (the columnar backend's gather-based join vs the
            # row-path emit its product delegates to).  Fit on total join
            # time instead: an upper bound that still reflects the measured
            # speed, rather than falling back to the hand-tuned guess.
            fitted_join = _slope(
                [
                    (float(m.rows_left + m.rows_right), m.seconds)
                    for m in joins
                    if m.seconds > 0
                ]
            )
        slopes["join_build"] = fitted_join

    select_slope = slopes.get("select_tuple")
    if select_slope is None:
        return reference  # nothing to anchor the unit on; keep hand-tuned
    unit = select_slope / reference.select_tuple

    def constant(name: str, fallback: float) -> float:
        slope = slopes.get(name)
        if slope is None:
            return fallback
        return max(slope / unit, MIN_CONSTANT)

    join_constant = constant("join_build", reference.join_build)
    return CostModel(
        name=engine_name,
        select_tuple=reference.select_tuple,
        project_tuple=constant("project_tuple", reference.project_tuple),
        rename_tuple=constant("rename_tuple", reference.rename_tuple),
        union_tuple=constant("union_tuple", reference.union_tuple),
        emit_tuple=constant("emit_tuple", reference.emit_tuple),
        join_build=join_constant,
        join_probe=join_constant,
        # Not microbenchmarked here; kept at the reference ratio and refined
        # at runtime by the executor's feedback loop (repro.core.exec.feedback).
        index_probe=reference.index_probe,
        difference_pair=constant("difference_pair", reference.difference_pair),
        source="calibrated",
    )


# --------------------------------------------------------------------------- #
# Profiles
# --------------------------------------------------------------------------- #


@dataclass
class CalibrationProfile:
    """Fitted per-engine cost models plus how they were obtained."""

    models: Dict[str, CostModel]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_document(self) -> Dict[str, Any]:
        return {
            "format": COST_PROFILE_FORMAT,
            "version": 1,
            "engines": {name: model.constants() for name, model in self.models.items()},
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "CalibrationProfile":
        return cls(parse_cost_profile(document), dict(document.get("metadata", {})))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationProfile":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_document(json.load(handle))

    def install(self, path: Optional[str] = None) -> None:
        """Make ``CostModel.for_engine`` serve these models."""
        install_cost_profile(self.models, path)


def calibrate(
    engines: Sequence[str] = CALIBRATION_ENGINES,
    smoke: bool = False,
    linear_sizes: Optional[Sequence[int]] = None,
    product_sizes: Optional[Sequence[int]] = None,
    difference_sizes: Optional[Sequence[int]] = None,
    repeats: int = DEFAULT_REPEATS,
    seed: int = CALIBRATION_SEED,
) -> CalibrationProfile:
    """Run the microbenchmarks and fit a profile for the given engines."""
    linear = tuple(linear_sizes or (SMOKE_LINEAR_SIZES if smoke else DEFAULT_LINEAR_SIZES))
    product = tuple(product_sizes or (SMOKE_PRODUCT_SIZES if smoke else DEFAULT_PRODUCT_SIZES))
    difference = tuple(
        difference_sizes or (SMOKE_DIFFERENCE_SIZES if smoke else DEFAULT_DIFFERENCE_SIZES)
    )
    full_linear = SMOKE_FULL_LINEAR_ENGINES if smoke and not linear_sizes else ()
    models: Dict[str, CostModel] = {}
    for engine_name in engines:
        measurements = run_microbenchmarks(
            engine_name,
            DEFAULT_LINEAR_SIZES if engine_name in full_linear else linear,
            product,
            difference,
            repeats,
            seed,
        )
        models[engine_name] = fit_cost_model(engine_name, measurements)
    metadata = {
        "engines": list(engines),
        "linear_sizes": list(linear),
        "full_linear_engines": [name for name in engines if name in full_linear],
        "product_sizes": list(product),
        "difference_sizes": list(difference),
        "repeats": repeats,
        "seed": seed,
        "smoke": bool(smoke),
    }
    return CalibrationProfile(models, metadata)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fit planner cost constants from operator microbenchmarks."
    )
    parser.add_argument("--output", default="COST_PROFILE.json", help="profile JSON path")
    parser.add_argument("--smoke", action="store_true", help="use the tiny CI size schedule")
    parser.add_argument(
        "--engines", nargs="+", default=list(CALIBRATION_ENGINES), choices=CALIBRATION_ENGINES
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--seed", type=int, default=CALIBRATION_SEED)
    args = parser.parse_args(argv)

    profile = calibrate(
        engines=args.engines, smoke=args.smoke, repeats=args.repeats, seed=args.seed
    )
    profile.save(args.output)
    print(f"wrote {args.output}")
    header = f"{'engine':<10}" + "".join(f"{name:>18}" for name in CostModel.CONSTANT_FIELDS)
    print(header)
    for engine_name, model in profile.models.items():
        row = f"{engine_name:<10}" + "".join(
            f"{getattr(model, name):>18.4f}" for name in CostModel.CONSTANT_FIELDS
        )
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
