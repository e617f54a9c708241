"""Spans around library calls, recorded from outside the library.

The tracer replaces a function or method at the attribute where the library
looks it up (a module global such as ``hyperblock.inference.theta_table``,
or a class attribute such as ``EMEngine.updated_u``) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Spans stay in memory until the benchmark writes them out.  ``restore``
puts every original attribute back, in reverse order of patching.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; count the exception type if it raises."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors[(name, type(exc).__name__)] += 1
            raise
        finally:
            self._close(index)

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        # no functools.wraps: reading a class's __annotations__ adds the key
        # to the class, which would leave a trace in the library
        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -----------------------------------------------------------

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time in seconds, number of spans).

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span, inner in zip(spans, child_time):
        entry = totals[span[NAME]]
        entry[0] += span[END] - span[START] - inner
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}


def durations(spans: list[list], name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def write_spans(path: str, runs: list[list[list]]) -> None:
    """Write spans as CSV: run, index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("run,index,name,start,end,parent\n")
        for run, spans in enumerate(runs):
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{run},{index},{name},{start!r},{end!r},{parent}\n")
