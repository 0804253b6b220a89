"""The twelve census cleaning dependencies of Figure 25.

All twelve are single-tuple equality-generating dependencies: real-life
consistency rules such as "citizens born in the USA are not immigrants" or
"people who served in the second world war have done their military
service".
"""

from __future__ import annotations

from typing import List

from ..core.chase import EqualityGeneratingDependency
from ..relational.predicates import eq, ne
from .schema import CENSUS_RELATION


def census_dependencies(relation: str = CENSUS_RELATION) -> List[EqualityGeneratingDependency]:
    """The 12 EGDs of Figure 25, in the paper's order."""
    egd = EqualityGeneratingDependency
    return [
        egd(relation, [eq("CITIZEN", 0)], eq("IMMIGR", 0)),
        egd(relation, [eq("FEB55", 1)], ne("MILITARY", 4)),
        egd(relation, [eq("KOREAN", 1)], ne("MILITARY", 4)),
        egd(relation, [eq("VIETNAM", 1)], ne("MILITARY", 4)),
        egd(relation, [eq("WWII", 1)], ne("MILITARY", 4)),
        egd(relation, [eq("MARITAL", 0)], ne("RSPOUSE", 6)),
        egd(relation, [eq("MARITAL", 0)], ne("RSPOUSE", 5)),
        egd(relation, [eq("LANG1", 2)], ne("ENGLISH", 4)),
        egd(relation, [eq("RPOB", 52)], ne("CITIZEN", 0)),
        egd(relation, [eq("SCHOOL", 0)], ne("KOREAN", 1)),
        egd(relation, [eq("SCHOOL", 0)], ne("FEB55", 1)),
        egd(relation, [eq("SCHOOL", 0)], ne("WWII", 1)),
    ]
