"""Span recorder that wraps the package's layer functions from outside.

The package binds many layer functions with ``from .x import f``, so a
wrapper must replace every module attribute that refers to the original
function, not only the one in the defining module.  Spans nest by call
order (the benchmark runs one worker thread), and a layer's self time is
its span's duration minus the durations of its direct child spans.

Counters that need extra work (matrix sizes, connected components) run
inside a ``trace.analysis`` span, so that time is visible and does not
inflate any layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

ANALYSIS = "trace.analysis"


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper recording a span per outermost call of fn.

        A call made while a span of the same name is innermost (a wrapped
        function calling its own wrapped helper, or recursion) is passed
        through, so ``calls`` counts operations, not nested entries.
        after(tracer, args, kwargs, result) records counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self.call(ANALYSIS, after, self, args, kwargs, out)
            return out

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return dict(out)


def install(tracer: Tracer, targets: list[tuple[str, str, str, Optional[Callable]]]) -> list[str]:
    """Wrap each (module, attribute) target in every package namespace.

    Returns the targets that were not found, so a renamed layer function
    shows up as a warning instead of silently reading zero.
    """
    package = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "idsapprox" or name.startswith("idsapprox."))
    ]
    missing = []
    for module_name, attr, span, after in targets:
        module = sys.modules.get(f"idsapprox.{module_name}")
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(span, original, after)
        for m in package:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    return missing
