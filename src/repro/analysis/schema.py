"""Strict schema and type analysis of logical :class:`Query` trees.

The analysis answers, *before execution*, the questions the engines
otherwise answer with a ``KeyError`` (or a silently-false comparison) deep
inside an operator: does every referenced attribute exist, does a product,
join or rename repeat an attribute, are the inputs of ∪ / − / ∩
union-compatible, and does a predicate compare compatible domains.

The derivation itself — the type lattice, :class:`SchemaContext`,
:class:`AnalysisError` and the one walk over the node classes — lives in
:mod:`repro.core.algebra.schema`, where the planner and the ``Query``
combinators call it; this module is its entry point for callers outside
the runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..core.algebra.query import Query
from ..core.algebra.schema import (  # noqa: F401 - AnalysisError and the lattice re-exported
    ANY_TYPE,
    NUMBER,
    STRING,
    AnalysisError,
    InferredSchema,
    SchemaContext,
    classes_type,
    column_classes,
    join_types,
    output_schema,
    type_name,
)


def analyze(query: Query, context: Optional[SchemaContext] = None) -> Optional[InferredSchema]:
    """Strictly analyze ``query``; return its inferred output schema.

    Raises :class:`AnalysisError` on any *definite* schema or type error.
    Returns None when the output schema cannot be resolved (some base
    relation is unknown to the context) — in that case every check that
    needed the missing schema was skipped, not failed.
    """
    return output_schema(query, context if context is not None else SchemaContext())


def column_types(
    attributes: Sequence[str], rows: Iterable[Tuple[Any, ...]]
) -> Dict[str, str]:
    """Per-attribute abstract type over sampled rows (placeholders skipped)."""
    types = dict.fromkeys(attributes, ANY_TYPE)
    types.update(zip(attributes, map(classes_type, column_classes(rows))))
    return types
