"""A clock that repeats: Python-level call events.

Wall time on a shared box drifts by more than most steps save; the number of
Python ``call`` events a piece of work makes does not move at all, so a test
can pin it.  C calls (NumPy kernels) do not count — a loop over vertices,
nodes or pairs does, once per iteration.
"""

from __future__ import annotations

import sys
from typing import Callable

__all__ = ["count_calls"]


def count_calls(fn: Callable[[], object]) -> int:
    """Python-level ``call`` events while ``fn`` runs (C calls do not count)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
