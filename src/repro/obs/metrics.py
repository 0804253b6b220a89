"""Process-wide metrics registry: counters and bounded histograms.

Before this module every layer reported itself differently — the planner
through module-level probes (``plan_call_count`` / ``sampling_call_count``),
the plan cache through instance attributes, the executor through
``OperatorMetrics`` lists, the service through an ad-hoc ``ServiceStats``
dataclass.  The :class:`MetricsRegistry` gives them one shared, thread-safe
vocabulary:

* :class:`Counter` — monotonically increasing event counts
  (``repro.planner.plan_calls``, ``repro.plan_cache.evictions{reason=...}``),
* :class:`Histogram` — bounded-bucket distributions with exact count / sum /
  min / max and bucket-resolution percentiles
  (``repro.exec.operator_seconds{operator=...}``,
  ``repro.service.request_seconds{cache=...}``).

Histograms are *bounded*: a fixed bucket ladder is chosen at creation time
(log-spaced latency and q-error ladders are provided), so memory per metric
is constant no matter how many observations arrive — an always-on service
must not grow its telemetry with its traffic.

Every metric is identified by a dotted name plus an optional, sorted label
set; :meth:`MetricsRegistry.snapshot` returns one JSON-ready document (the
``METRICS_smoke.json`` CI artifact) and
:meth:`MetricsRegistry.to_prometheus_text` renders the standard text
exposition format for scraping.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Log-spaced seconds ladder: 1 µs .. 100 s (wall times of operators,
#: requests and lock waits all land comfortably inside it).
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    coefficient * 10.0 ** exponent
    for exponent in range(-6, 3)
    for coefficient in (1.0, 2.5, 5.0)
)

#: Powers-of-two q-error ladder (q-error is ≥ 1 by construction).
QERROR_BUCKETS: Tuple[float, ...] = tuple(float(2 ** power) for power in range(0, 11))

#: Generic default when a caller states no ladder.
DEFAULT_BUCKETS: Tuple[float, ...] = LATENCY_BUCKETS


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """``name{k="v",...}`` — the stable key used in snapshots."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """A bounded-bucket distribution (thread-safe, constant memory).

    ``bounds`` are the inclusive upper edges of the buckets; one implicit
    overflow bucket (``+Inf``) catches everything above the ladder.
    Percentiles are resolved to the upper edge of the bucket in which the
    requested rank falls — exact enough for telemetry, and the error is
    bounded by the ladder's spacing.
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        labels: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # last = overflow
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentile(self, fraction: float) -> Optional[float]:
        """Upper bucket edge at the given rank (None when empty).

        The overflow bucket resolves to the observed maximum, so a ladder
        that turned out too short still reports something truthful.
        """
        with self._lock:
            if self._count == 0:
                return None
            rank = max(1, round(fraction * self._count))
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank:
                    if index < len(self.bounds):
                        return self.bounds[index]
                    return self._max
            return self._max

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            low, high = self._min, self._max
        document: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": low,
            "max": high,
            "buckets": [
                [bound, counts[index]] for index, bound in enumerate(self.bounds)
            ]
            + [["+Inf", counts[-1]]],
        }
        for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            document[label] = self.percentile(fraction)
        return document


class MetricsRegistry:
    """The process-wide metric namespace (get-or-create by name + labels)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Any] = {}

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels=key[1], **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {render_name(*key)!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, bounds=buckets)

    def reset(self) -> None:
        """Drop every metric (tests; a live process never resets)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Any]:
        """One consistent JSON-ready document of every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        counters: Dict[str, int] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for (name, labels), metric in sorted(metrics.items()):
            rendered = render_name(name, labels)
            if isinstance(metric, Counter):
                counters[rendered] = metric.value
            elif isinstance(metric, Histogram):
                histograms[rendered] = metric.snapshot()
        return {
            "format": "repro-metrics",
            "version": 1,
            "counters": counters,
            "histograms": histograms,
        }

    @staticmethod
    def _prometheus_name(name: str) -> str:
        return name.replace(".", "_").replace("-", "_")

    def to_prometheus_text(self) -> str:
        """The standard Prometheus text exposition format."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for (name, labels), metric in sorted(metrics.items()):
            flat = self._prometheus_name(name)
            label_text = (
                "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}" if labels else ""
            )
            if isinstance(metric, Counter):
                if seen_types.get(flat) != "counter":
                    lines.append(f"# TYPE {flat} counter")
                    seen_types[flat] = "counter"
                lines.append(f"{flat}{label_text} {metric.value}")
            elif isinstance(metric, Histogram):
                if seen_types.get(flat) != "histogram":
                    lines.append(f"# TYPE {flat} histogram")
                    seen_types[flat] = "histogram"
                snap = metric.snapshot()
                cumulative = 0
                for bound, bucket_count in snap["buckets"]:
                    cumulative += bucket_count
                    le = bound if bound == "+Inf" else repr(bound)
                    extra = ",".join(f'{k}="{v}"' for k, v in labels)
                    joined = f'le="{le}"' + ("," + extra if extra else "")
                    lines.append(f"{flat}_bucket{{{joined}}} {cumulative}")
                lines.append(f"{flat}_sum{label_text} {snap['sum']}")
                lines.append(f"{flat}_count{label_text} {snap['count']}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumented layer shares.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
