"""``repro.obs`` — the observability layer: tracing, metrics, EXPLAIN ANALYZE.

The stack spans rewrite → join-order DP → sampling → lowering → backend
execution, plus an always-on asyncio service with a plan cache.  This
package is the one place all of it reports to:

* :mod:`repro.obs.trace` — a contextvar-based hierarchical :class:`Tracer`
  with a strict no-op fast path when disabled, spans for every planning and
  execution stage (``plan`` / ``rewrite`` / ``join-dp`` / ``sampling`` /
  ``lowering`` / ``cache-lookup`` / ``execute`` plus one span per physical
  operator), and exporters for JSON-lines and the Chrome trace-event format
  (``REPRO_TRACE=<path>`` enables both the tracer and an exit-time export).
* :mod:`repro.obs.metrics` — a process-wide, thread-safe
  :class:`MetricsRegistry` of counters and bounded histograms, with
  a JSON snapshot and Prometheus-style text exposition.

``python -m repro.obs --selfcheck`` runs a traced workload end to end and
validates that the Chrome export parses and nests (wired into CI).

The human-facing artifact built on top of both is
``Query.explain_analyze(engine)`` / ``Session.explain_analyze(query)``: the
chosen physical plan annotated per node with estimated vs actual rows,
q-error, self vs cumulative time, and cache provenance.  See
``docs/observability.md``.
"""

from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    QERROR_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_name,
)
from .trace import (
    DEFAULT_TRACE_PATH,
    NOOP_SPAN,
    TRACE_ENV,
    Span,
    Tracer,
    configure_from_env,
    get_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "QERROR_BUCKETS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "render_name",
    "DEFAULT_TRACE_PATH",
    "NOOP_SPAN",
    "TRACE_ENV",
    "Span",
    "Tracer",
    "configure_from_env",
    "get_tracer",
]
