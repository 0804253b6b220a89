"""The benchmark's workloads: inputs from a seed, one timed operation each.

Every workload is a closed loop in one process: ``setup`` builds the input
from the seed (timed as ``setup_s``), ``measure`` repeats the workload's
operation for a wall-clock budget and checks each result against the first
iteration's.  The operation is always the public call a user would make
(``chase_uwsdt``, ``Query.run``, ``Session.execute``); spans around it come
from the program's own ``repro.obs`` tracer, which hands out a shared no-op
object unless the traced pass enabled it — so the untraced pass runs the
exact user path.  All times are reference-normalised (see ``clock.py``).

Why these inputs: 10 000 census rows at 0.1 % placeholder density is the
largest size at which one set-up stays near a second in pure Python, and
0.1 % is the densest point of the paper's Fig. 26/30.  An operation is
always a whole *pass* over a fixed query list, so its time is a sum over
scans of all rows and does not hinge on one query's selectivity.  Two
operations the issue asked for are measured per layer only, because their
cost varies several-fold from seed to seed (README "sizing facts"): the
4-way census join, and the Q6 self-join on uncertain data.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.census import (
    CENSUS_RELATION,
    CensusGenerator,
    census_dependencies,
    census_query,
    q5_product_form,
    q6_self_join_product_form,
    query_names,
)
from repro.core.chase import chase_uwsdt
from repro.core.confidence import uwsdt_possible_with_confidence
from repro.core.exec import reset_shard_pool
from repro.core.uwsdt import UWSDT
from repro.obs import get_tracer
from repro.relational.database import Database
from repro.service import QueryService

import clock

#: Iterations every measured pass makes even when the budget is already
#: spent, so a median always has samples behind it.
MIN_ITERATIONS = 3

#: The service workload starts a fresh service every this many rounds, so
#: the engines' retained results (and with them memory and latency) depend
#: on the epoch length and not on how many rounds fit into the budget.
EPOCH_ROUNDS = 8
#: Round of each epoch that begins with one insert per engine.  Rounds 0 and
#: 4 of 8 are therefore cold (replan everything), the other six warm.
MUTATION_ROUND = 4

#: Tuple ids of rows the service workload inserts start above every generated id.
INSERTED_TUPLE_IDS = 1_000_000_000


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the measure of record; ``TINY`` only lets
    the smoke test drive every code path in a few seconds."""

    rows: int
    service_uw_rows: int
    density: float


FULL = Scale(rows=10_000, service_uw_rows=2_000, density=0.001)
TINY = Scale(rows=400, service_uw_rows=200, density=0.005)
SCALES = {"full": FULL, "tiny": TINY}

QueryList = List[Tuple[str, Callable[[], Any]]]

#: The paper's Fig. 29 queries Q1-Q6, in order (Q5 is its one join).
PAPER_QUERIES: QueryList = [
    (name, (lambda name=name: census_query(name))) for name in query_names()
]
#: The repository's two product-form joins: σ(A=B)∘× fused into ⋈ by the planner.
PRODUCT_JOINS: QueryList = [
    ("Q5_product", q5_product_form),
    ("Q6_self_join", q6_self_join_product_form),
]
#: One join pass: the paper's join as written, then the product forms.  With
#: the Q6 self-join alone in the pass its result size (10 900-14 600 rows
#: over seeds 1-10) set the spread; the two Q5 forms are scan-bound.
JOIN_QUERIES: QueryList = [("Q5", lambda: census_query("Q5"))] + PRODUCT_JOINS
#: The service's hot fingerprints per engine.  The UWSDT engine serves the
#: paper's six only: the Q6 self-join on uncertain data costs 2-5x more on
#: seeds that put a placeholder into a join column (README "sizing facts").
SERVICE_QUERIES: Dict[str, QueryList] = {
    "db": PAPER_QUERIES + PRODUCT_JOINS,
    "uw": PAPER_QUERIES,
}


def sha1(parts: Sequence[Any]) -> str:
    digest = hashlib.sha1()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def relation_digest(relation: Any) -> str:
    return sha1(sorted(relation.rows))


def uwsdt_result_digest(uwsdt: UWSDT, relation_name: str) -> str:
    ranked = uwsdt_possible_with_confidence(uwsdt, relation_name)
    return sha1(sorted((row, round(confidence, 9)) for row, confidence in ranked))


class CensusInput:
    """Clean and noisy census rows for one seed — the only place the seed goes."""

    def __init__(self, seed: int, rows: int, density: float) -> None:
        generator = CensusGenerator(seed=seed)
        self.clean = generator.clean_relation(rows)
        self.noisy = generator.add_noise(self.clean, density) if density > 0 else None

    def digest(self) -> str:
        noisy_rows = self.noisy.rows if self.noisy is not None else []
        return sha1([sorted(self.clean.rows), noisy_rows])

    def database(self) -> Database:
        return Database([self.clean.copy(CENSUS_RELATION)])

    def chased(self) -> UWSDT:
        uwsdt = UWSDT.from_orset_relation(self.noisy)
        chase_uwsdt(uwsdt, census_dependencies())
        uwsdt.validate()
        return uwsdt


@dataclass
class Samples:
    """What one measured pass produced."""

    #: Reference-normalised seconds per completed operation.
    latencies: List[float] = field(default_factory=list)
    raw_latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_seconds: float = 0.0
    #: SHA-1 per named result of the first iteration.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Workload-specific extras for the per-layer report.
    extras: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def record(self, normalised: float, raw: float) -> None:
        self.latencies.append(normalised)
        self.raw_latencies.append(raw)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Workload:
    """Base class: subclasses set ``name`` and implement ``setup``/``measure``."""

    name = ""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.input: Optional[CensusInput] = None
        #: Raw seconds of named set-up phases (feeds census./uwsdt. layer metrics).
        self.phases: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Samples:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup``/``measure`` started (worker pools)."""

    # -- shared plumbing --------------------------------------------------- #

    def _phase(self, name: str, action: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        value = action()
        self.phases[name] = time.perf_counter() - started
        return value

    def _generate(self, rows: int, density: float) -> CensusInput:
        return self._phase("generate", lambda: CensusInput(self.seed, rows, density))

    def closed_loop(
        self,
        seconds: float,
        prepare: Callable[[], Any],
        operation: Callable[[Any], Any],
        summarize: Callable[[Any, Any], Any],
        digests: Callable[[Any, Any], Dict[str, str]],
    ) -> Samples:
        """Repeat ``operation(prepare())`` until the budget is spent.

        Only ``operation`` is timed.  ``summarize`` must return the same
        value on every iteration (result row counts); a mismatch or an
        exception counts the operation as failed.
        """
        tracer = get_tracer()
        samples = Samples()
        reference: Any = None
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        iteration = 0

        def traced_operation(argument: Any) -> Any:
            with tracer.span("bench.op", iteration=iteration):
                return operation(argument)

        # One root span per pass: the self times of all spans then add up to
        # the pass's wall time, whatever the loop spends outside operations.
        with tracer.span("bench.pass", workload=self.name):
            while iteration < MIN_ITERATIONS or time.perf_counter() < deadline:
                with tracer.span("bench.prepare"):
                    argument = prepare()
                samples.attempted += 1
                try:
                    result, normalised, raw = clock.timed(lambda: traced_operation(argument))
                except Exception:  # a failed operation is a counted outcome
                    samples.fail(traceback.format_exc())
                    iteration += 1
                    continue
                samples.record(normalised, raw)
                summary = summarize(argument, result)
                if iteration == 0:
                    reference = summary
                    samples.digests = digests(argument, result)
                    samples.extras["summary"] = summary
                elif summary != reference:
                    samples.fail(f"iteration {iteration}: {summary!r} != first {reference!r}")
                iteration += 1
        samples.wall_seconds = time.perf_counter() - loop_start
        return samples


# --------------------------------------------------------------------------- #
# Uncertain census: the chase, then the paper's queries with confidences
# --------------------------------------------------------------------------- #


class ChaseUncertain(Workload):
    name = "chase_uncertain"

    def setup(self) -> None:
        self.input = self._generate(self.scale.rows, self.scale.density)
        # Loading is part of set-up; each iteration loads a fresh copy untimed.
        self._phase("from_orset", lambda: UWSDT.from_orset_relation(self.input.noisy))
        self.dependencies = census_dependencies()

    def measure(self, seconds: float) -> Samples:
        tracer = get_tracer()

        def operation(uwsdt: UWSDT) -> UWSDT:
            with tracer.span("core.chase.chase_uwsdt"):
                return chase_uwsdt(uwsdt, self.dependencies)

        def summarize(uwsdt: UWSDT, _result: Any) -> Any:
            return tuple(sorted(uwsdt.statistics().items()))

        def digests(uwsdt: UWSDT, _result: Any) -> Dict[str, str]:
            uwsdt.validate()
            components = sorted(
                (tuple(map(repr, c.fields)), sorted(map(repr, c.rows)))
                for c in uwsdt.components.values()
            )
            return {"chase": sha1(components)}

        return self.closed_loop(
            seconds,
            lambda: UWSDT.from_orset_relation(self.input.noisy),
            operation,
            summarize,
            digests,
        )


class QueryUncertain(Workload):
    """Q1-Q6 on a fresh copy of the chased UWSDT, then the possible tuples
    of Q4's answer with their confidences."""

    name = "query_uncertain"

    def setup(self) -> None:
        self.input = self._generate(self.scale.rows, self.scale.density)
        loaded = self._phase("from_orset", lambda: UWSDT.from_orset_relation(self.input.noisy))
        self._phase("chase", lambda: chase_uwsdt(loaded, census_dependencies()))
        loaded.validate()
        self.chased = loaded
        self.built = [(label, factory()) for label, factory in PAPER_QUERIES]

    def measure(self, seconds: float) -> Samples:
        tracer = get_tracer()

        def operation(copy: UWSDT) -> Any:
            for label, query in self.built:
                with tracer.span("query", label=label):
                    query.run(copy, label)
            with tracer.span("core.confidence.possible_with_confidence"):
                return uwsdt_possible_with_confidence(copy, "Q4")

        def summarize(copy: UWSDT, ranked: Any) -> Any:
            return tuple(len(copy.templates[label]) for label, _ in self.built) + (len(ranked),)

        def digests(copy: UWSDT, _ranked: Any) -> Dict[str, str]:
            return {label: uwsdt_result_digest(copy, label) for label, _ in self.built}

        return self.closed_loop(seconds, self.chased.copy, operation, summarize, digests)


# --------------------------------------------------------------------------- #
# One-world census: the paper's queries, then the joins per backend
# --------------------------------------------------------------------------- #


class _CertainWorkload(Workload):
    """Workloads that run queries on the one-world Database under one backend."""

    queries: QueryList = []
    backend = "row"
    workers: Optional[int] = None

    def setup(self) -> None:
        self.input = self._generate(self.scale.rows, 0.0)
        self.database = self._phase("database", self.input.database)
        self.built = [(label, factory()) for label, factory in self.queries]

    def run_pass(self, backend: str, workers: Optional[int]) -> Dict[str, Any]:
        tracer = get_tracer()
        results = {}
        for label, query in self.built:
            with tracer.span("query", label=label, backend=backend):
                results[label] = query.run(
                    self.database, label, backend=backend, workers=workers
                )
        return results

    def measure(self, seconds: float) -> Samples:
        # One untimed pass: fills the index pool and starts the worker pool,
        # which users pay once per process, not per query.
        started = time.perf_counter()
        self.run_pass(self.backend, self.workers)
        warmup = time.perf_counter() - started

        def summarize(_argument: Any, results: Dict[str, Any]) -> Any:
            return tuple(len(results[label]) for label, _ in self.built)

        def digests(_argument: Any, results: Dict[str, Any]) -> Dict[str, str]:
            return {label: relation_digest(results[label]) for label, _ in self.built}

        samples = self.closed_loop(
            seconds,
            lambda: None,
            lambda _argument: self.run_pass(self.backend, self.workers),
            summarize,
            digests,
        )
        samples.extras["warmup_seconds"] = warmup
        if self.backend != "row":
            # Results must be set-equal to the row backend's.
            samples.attempted += 1
            if digests(None, self.run_pass("row", None)) != samples.digests:
                samples.fail(f"{self.backend} results differ from the row backend's")
        return samples


class QueryCertain(_CertainWorkload):
    name = "query_certain"
    queries = PAPER_QUERIES


class JoinCertain(_CertainWorkload):
    name = "join_certain"
    queries = JOIN_QUERIES


class JoinColumnar(_CertainWorkload):
    name = "join_columnar"
    queries = JOIN_QUERIES
    backend = "columnar"


class JoinSharded2(_CertainWorkload):
    name = "join_sharded2"
    queries = JOIN_QUERIES
    backend = "sharded"
    workers = 2

    def close(self) -> None:
        reset_shard_pool()
        for child in multiprocessing.active_children():
            child.join(timeout=30)


# --------------------------------------------------------------------------- #
# Service traffic
# --------------------------------------------------------------------------- #


class ServiceMixed(Workload):
    """One operation = one *round*: every hot query of each engine once
    (``SERVICE_QUERIES``), dealt to two concurrent clients in a seeded order.
    Rounds run in epochs of ``EPOCH_ROUNDS`` on a fresh service; round
    ``MUTATION_ROUND`` of each epoch first inserts a row into each engine's R.
    Per-request warm/cold latencies are reported per layer."""

    name = "service_mixed"
    clients = 2

    def setup(self) -> None:
        self.input = self._generate(self.scale.rows, 0.0)
        self.database = self._phase("database", self.input.database)
        small = CensusInput(self.seed, self.scale.service_uw_rows, self.scale.density)
        self.uwsdt = self._phase("chased", small.chased)
        self.requests = [
            (engine, label, factory())
            for engine, queries in SERVICE_QUERIES.items()
            for label, factory in queries
        ]

    def _mutation_row(self, rng: random.Random) -> Tuple[int, ...]:
        """A fresh census row that no hot query selects, so every result
        stays comparable with the first round's while the insert still moves
        R's version key and invalidates every cached plan."""
        generator = CensusGenerator(seed=rng.randrange(1 << 30))
        values = dict(zip(generator.attributes, generator.generate_row()))
        values.update(YEARSCH=0, ENGLISH=0, MARITAL=0, FERTIL=0)
        return tuple(values[attribute] for attribute in generator.attributes)

    def fresh_service(self) -> Tuple[QueryService, Dict[str, Any]]:
        engines = {
            "db": Database([self.database.relation(CENSUS_RELATION).copy()]),
            "uw": self.uwsdt.copy(),
        }
        service = QueryService()
        for name, engine in engines.items():
            service.register_engine(name, engine)
        return service, engines

    def measure(self, seconds: float) -> Samples:
        samples = Samples()
        samples.extras.update(warm=[], cold=[], reference={}, mutations=0, rounds=0)
        rng = random.Random(self.seed)
        started = time.perf_counter()
        with get_tracer().span("bench.pass", workload=self.name):
            while samples.extras["rounds"] < MIN_ITERATIONS or time.perf_counter() < started + seconds:
                service, engines = self.fresh_service()
                asyncio.run(self._epoch(service, samples, rng, started + seconds))
                samples.extras["warm"].extend(service.stats.warm_latencies)
                samples.extras["cold"].extend(service.stats.cold_latencies)
        samples.wall_seconds = time.perf_counter() - started
        samples.extras.update(service=service, engines=engines)
        return samples

    async def _epoch(
        self, service: QueryService, samples: Samples, rng: random.Random, deadline: float
    ) -> None:
        tracer = get_tracer()
        reference: Dict[Tuple[str, str], int] = samples.extras["reference"]
        #: First answers seen this round; digested after the round's clock stops.
        first_seen: Dict[str, Callable[[], str]] = {}

        async def client(index: int, share: Sequence[Tuple[str, str, Any]]) -> None:
            session = {name: service.session(name, f"client-{index}") for name in service.engines}
            for engine_name, label, query in share:
                samples.attempted += 1
                try:
                    outcome = await session[engine_name].execute(query)
                except Exception:
                    samples.fail(traceback.format_exc())
                    continue
                engine = service.engines[engine_name]
                rows = (
                    len(outcome.value)
                    if engine_name == "db"
                    else len(engine.templates[outcome.value])
                )
                key = (engine_name, label)
                if key not in reference:
                    reference[key] = rows
                    first_seen[f"{engine_name}.{label}"] = (
                        (lambda value=outcome.value: relation_digest(value))
                        if engine_name == "db"
                        else (lambda e=engine, value=outcome.value: uwsdt_result_digest(e, value))
                    )
                elif rows != reference[key]:
                    samples.fail(f"{key}: {rows} rows != first {reference[key]}")
                # Yield so the two clients alternate instead of running back to back.
                await asyncio.sleep(0)

        async def round_(number: int) -> None:
            with tracer.span("bench.op", round=number):
                if number == MUTATION_ROUND:
                    for engine_name in service.engines:
                        samples.attempted += 1
                        samples.extras["mutations"] += 1
                        row, serial = self._mutation_row(rng), samples.extras["mutations"]
                        await service.mutate(engine_name, lambda e: _insert(e, row, serial))
                order = rng.sample(self.requests, len(self.requests))
                await asyncio.gather(
                    *(client(i, order[i :: self.clients]) for i in range(self.clients))
                )

        for number in range(EPOCH_ROUNDS):
            if samples.extras["rounds"] >= MIN_ITERATIONS and time.perf_counter() >= deadline:
                break
            samples.extras["rounds"] += 1
            failed = samples.failed
            before = clock.reference_seconds()
            started = time.perf_counter()
            await round_(number)
            raw = time.perf_counter() - started
            if samples.failed == failed:
                samples.record(clock.normalise(raw, before, clock.reference_seconds()), raw)
            while first_seen:
                name, digest = first_seen.popitem()
                samples.digests[name] = digest()


def _insert(engine: Any, row: Tuple[int, ...], serial: int) -> None:
    if isinstance(engine, Database):
        engine.relation(CENSUS_RELATION).insert(row)
    else:
        engine.add_template_tuple(CENSUS_RELATION, INSERTED_TUPLE_IDS + serial, row)


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        ChaseUncertain,
        QueryUncertain,
        QueryCertain,
        JoinCertain,
        JoinColumnar,
        JoinSharded2,
        ServiceMixed,
    )
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))]
