"""repro — World-Set Decompositions for incomplete and probabilistic data.

A from-scratch Python reproduction of "10^(10^6) Worlds and Beyond:
Efficient Representation and Processing of Incomplete Information"
(Antova, Koch, Olteanu; ICDE 2007 / VLDB Journal).

The package is organized in layers:

* :mod:`repro.relational`  — an in-memory relational engine (the substrate
  the paper delegates to PostgreSQL),
* :mod:`repro.worlds`      — explicit world-sets, or-set relations and
  tuple-independent probabilistic databases,
* :mod:`repro.core`        — WSDs, WSDTs, UWSDTs, query evaluation,
  confidence computation, normalization and the chase,
* :mod:`repro.ctables`     — v-tables and c-tables (related formalisms),
* :mod:`repro.baselines`   — naive engines used as oracles and baselines,
* :mod:`repro.census`      — the synthetic IPUMS-like evaluation workload,
* :mod:`repro.apps`        — the application scenarios of Section 10,
* :mod:`repro.bench`       — harness utilities regenerating every table and
  figure of the evaluation section.
"""

from .core import (
    UWSDT,
    WSD,
    WSDT,
    Component,
    EqualityGeneratingDependency,
    FieldRef,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
    confidence,
    normalize_wsd,
    possible,
    possible_with_confidence,
    uwsdt_possible_with_confidence,
)
from .relational import Database, Relation, RelationSchema
from .worlds import OrSet, OrSetRelation, TupleIndependentDatabase, WorldSet

__version__ = "1.0.0"

__all__ = [
    "UWSDT",
    "WSD",
    "WSDT",
    "Component",
    "EqualityGeneratingDependency",
    "FieldRef",
    "FunctionalDependency",
    "chase_uwsdt",
    "chase_wsd",
    "confidence",
    "normalize_wsd",
    "possible",
    "possible_with_confidence",
    "uwsdt_possible_with_confidence",
    "Database",
    "Relation",
    "RelationSchema",
    "OrSet",
    "OrSetRelation",
    "TupleIndependentDatabase",
    "WorldSet",
    "__version__",
]
