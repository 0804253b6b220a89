"""The paper's core contribution: world-set decompositions and their algorithms.

Contents:

* :mod:`repro.core.fields`, :mod:`repro.core.component` — field identifiers
  and components (the factors of a decomposition).
* :mod:`repro.core.wsd`, :mod:`repro.core.wsdt`, :mod:`repro.core.uwsdt` —
  the three representation systems of Section 3.
* :mod:`repro.core.decompose`, :mod:`repro.core.normalize` — maximal product
  decomposition and the normalization algorithms of Section 7 / Figure 20.
* :mod:`repro.core.algebra` — query evaluation (Figure 9 and Section 5).
* :mod:`repro.core.planner` — the logical planner: rewrite rules and a cost
  model over query ASTs, shared by the two query engines (Database, UWSDT).
* :mod:`repro.core.confidence` — confidence computation and ``possible``
  (Section 6, Figures 17–19).
* :mod:`repro.core.chase` — data cleaning by chasing FDs and EGDs
  (Section 8, Figure 24).
"""

from .chase import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    chase_uwsdt,
    chase_wsd,
)
from .component import Component, compose_all
from .confidence import (
    certain,
    confidence,
    possible,
    possible_relation,
    possible_with_confidence,
    uwsdt_confidence,
    uwsdt_possible,
    uwsdt_possible_with_confidence,
)
from .decompose import decompose_component, decompose_wsd
from .fields import FieldRef
from .normalize import (
    component_size_histogram,
    compress_components,
    normalize_wsd,
    remove_invalid_tuples,
)
from .planner import Plan, Statistics, plan
from .uwsdt import TID, UWSDT
from .wsd import WSD
from .wsdt import WSDT

__all__ = [
    "EqualityGeneratingDependency",
    "FunctionalDependency",
    "chase_uwsdt",
    "chase_wsd",
    "Component",
    "compose_all",
    "certain",
    "confidence",
    "possible",
    "possible_relation",
    "possible_with_confidence",
    "uwsdt_confidence",
    "uwsdt_possible",
    "uwsdt_possible_with_confidence",
    "decompose_component",
    "decompose_wsd",
    "FieldRef",
    "component_size_histogram",
    "compress_components",
    "normalize_wsd",
    "remove_invalid_tuples",
    "Plan",
    "Statistics",
    "plan",
    "TID",
    "UWSDT",
    "WSD",
    "WSDT",
]
