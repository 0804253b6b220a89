"""Static analysis over plan trees and over the codebase itself.

The algebra on world-set decompositions is only sound when every rewrite
preserves schema and every operator respects placeholder semantics.  This
package checks those invariants statically, beside the possible-worlds
oracle that checks them at test time:

* :mod:`~repro.analysis.schema` — strict schema/type analysis of logical
  :class:`~repro.core.algebra.query.Query` trees: unknown attributes,
  duplicate attributes after a join or rename, arity/type mismatches across
  set operations and ill-typed predicates, reported with a rendered tree
  pointing at the offending node.  A thin entry point to the one derivation
  in :mod:`repro.core.algebra.schema`, which ``plan()`` and the ``Query``
  set-operation combinators call directly.
* :mod:`~repro.analysis.invariants` — the plan-invariant verifier: every
  rewrite-rule output is checked against the pre-rewrite schema (rewrites
  must be schema-preserving) and every lowered physical plan for structural
  well-formedness (Materialize/Dematerialize pairing, join key
  compatibility, index applicability, backend-kind consistency), and every
  executed operator's output for being a set.  Enabled by
  ``REPRO_VERIFY_PLANS=1``; the tier-1 suite turns it on globally.  The
  runtime reaches it only through :func:`repro.core.verify.verifier`.
* :mod:`~repro.analysis.lint` — Python-AST lint rules specific to this
  repository (``python -m repro.analysis --lint``), with a checked-in
  baseline so CI fails only on *new* violations.
"""

from __future__ import annotations

from .invariants import (
    PlanInvariantError,
    VERIFY_ENV,
    verification_enabled,
    verify_physical,
    verify_rewrite,
    verify_set_output,
)
from .schema import AnalysisError, InferredSchema, SchemaContext, analyze

__all__ = [
    "AnalysisError",
    "InferredSchema",
    "PlanInvariantError",
    "SchemaContext",
    "VERIFY_ENV",
    "analyze",
    "verification_enabled",
    "verify_physical",
    "verify_rewrite",
    "verify_set_output",
]
