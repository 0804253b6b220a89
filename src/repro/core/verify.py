"""The one way from the runtime into the plan verifier.

Plan verification (:mod:`repro.analysis.invariants`) is off by default in
library use and on in the test suite.  The planner, lowering, the executor
and the plan cache ask :func:`verifier` for it; with verification off the
verifier module is never imported, and a check costs one flag read.
"""

from __future__ import annotations

import os
from types import ModuleType
from typing import Optional

#: Environment variable that switches verification on (``1``/``true``/...).
VERIFY_ENV = "REPRO_VERIFY_PLANS"

_OVERRIDE: Optional[bool] = None


def set_verification(enabled: Optional[bool]) -> Optional[bool]:
    """Force verification on/off for this process (None restores the env
    variable's say); returns the previous override, for restoring."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    return previous


def verification_enabled() -> bool:
    """Whether plan verification is active (override, else ``REPRO_VERIFY_PLANS``)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    value = os.environ.get(VERIFY_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def verifier() -> Optional[ModuleType]:
    """:mod:`repro.analysis.invariants` when verification is on, else None."""
    if not verification_enabled():
        return None
    from ..analysis import invariants

    return invariants
