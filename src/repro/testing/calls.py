"""A clock that repeats: Python-level call events.

Wall time on a shared box drifts by more than most steps save; the number of
Python ``call`` events a piece of work makes does not move at all, so a test
can pin it.  C calls (NumPy kernels) do not count — a loop over vertices,
nodes or pairs does, once per iteration.
"""

from __future__ import annotations

import sys
from types import CodeType
from typing import Callable

__all__ = ["count_calls"]


def count_calls(fn: Callable[[], object], code: CodeType | None = None) -> int:
    """Python-level ``call`` events while ``fn`` runs (C calls do not count),
    only those of ``code`` when it is given.  A profiler that was set when
    the count began (a ``sys.setprofile`` hook, cProfile) is set again when
    it ends; it misses the events in between."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event == "call" and (code is None or frame.f_code is code)

    outer = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        if outer is None or callable(outer):
            sys.setprofile(outer)
        else:  # cProfile before 3.12 hooks in from C; its hook is its own
            outer.enable()
    return calls
