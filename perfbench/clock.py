"""Timing that survives a noisy sandbox: wall-clock normalised by a
reference loop run immediately before and after the timed call.

The sandbox this benchmark was sized on slows down and speeds up by a factor
of two for seconds at a time with nothing else running (medians of
consecutive 5 s blocks of one fixed operation ranged 44-98 ms).  A fixed
pure-Python loop measured next to each operation slows down with it, so the
ratio of the two is steady where neither is: over 200 s the quartile spread
of 10 s medians fell from 13 % (raw) to 3 % (normalised).  Reported times
are therefore

    raw seconds × REFERENCE_NOMINAL_SECONDS / (reference seconds around the call)

i.e. milliseconds on a machine that runs the reference loop in exactly its
nominal time.  The loop never changes, so two commits compare exactly as
their raw times would on a quiet machine; the raw medians are still reported
per layer (``bench.op_raw_p50_ms``, ``bench.reference_ms``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

#: What the reference loop takes on the sizing sandbox in its fast phases.
REFERENCE_NOMINAL_SECONDS = 0.003


def reference_seconds() -> float:
    """Time the fixed reference loop: dict stores and tuple allocation, the
    same kind of work the engine's row-at-a-time operators do."""
    started = time.perf_counter()
    table = {}
    for index in range(40_000):
        table[index % 997] = (index, index + 1)
    return time.perf_counter() - started


def normalise(raw_seconds: float, reference_before: float, reference_after: float) -> float:
    return raw_seconds * REFERENCE_NOMINAL_SECONDS / ((reference_before + reference_after) / 2)


def timed(action: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``action``; return its value, normalised seconds and raw seconds."""
    before = reference_seconds()
    started = time.perf_counter()
    value = action()
    raw = time.perf_counter() - started
    return value, normalise(raw, before, reference_seconds()), raw
