"""Query evaluation on world-set decompositions.

* :mod:`repro.core.algebra.wsd_ops`   — the operators of Figure 9 on WSDs,
  the specification (run by ``evaluate_on_wsd`` only).
* :mod:`repro.core.algebra.uwsdt_ops` — the native UWSDT operators of Section 5.
* :mod:`repro.core.algebra.query`     — query ASTs, planned and executed on a
  Database or a UWSDT.
"""

from . import uwsdt_ops, wsd_ops
from .query import (
    BaseRelation,
    Difference,
    Intersection,
    Join,
    Product,
    Project,
    Query,
    Rename,
    Select,
    Union,
    evaluate_on_database,
    evaluate_on_uwsdt,
    evaluate_on_wsd,
)

__all__ = [
    "uwsdt_ops",
    "wsd_ops",
    "BaseRelation",
    "Difference",
    "Intersection",
    "Join",
    "Product",
    "Project",
    "Query",
    "Rename",
    "Select",
    "Union",
    "evaluate_on_database",
    "evaluate_on_uwsdt",
    "evaluate_on_wsd",
]
