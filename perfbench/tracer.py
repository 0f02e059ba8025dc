"""Outside-in span tracer for the conchoidal benchmark.

The library modules bind each other's functions with ``from .x import f``,
so a function is reachable under several module namespaces (for example
``conchoidal.transform.poly_matrix_det`` and
``conchoidal.resultant.poly_matrix_det`` are the same object).  The tracer
replaces the function under every ``conchoidal.*`` namespace that binds it,
records one span per call in memory, and puts the original objects back on
``remove()``.  Nothing in ``src/`` knows about it.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

# A span is [name, start, end, parent index or -1, job name, returned not None].
NAME, START, END, PARENT, JOB, HIT = range(6)


class Tracer:
    def __init__(self, targets: List[str]):
        """``targets`` are ``"<module>.<function>"`` names inside the
        ``conchoidal`` package, e.g. ``"resultant.det_scalar"``."""
        self.targets = list(targets)
        self.spans: List[list] = []
        self.job: Optional[str] = None
        self.pass_starts: List[int] = []     # span index where each pass began
        self._paused = False
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None
                      and (name == "conchoidal" or name.startswith("conchoidal."))]
        for target in self.targets:
            modname, fname = target.rsplit(".", 1)
            original = getattr(sys.modules["conchoidal." + modname], fname)
            wrapper = self._wrap(target, original)
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def bindings(self) -> int:
        """Number of namespace bindings currently replaced."""
        return len(self._patched)

    @contextmanager
    def paused(self):
        """Calls inside the block run unrecorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, False]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            span[HIT] = result is not None
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path, first: int = 0, last: Optional[int] = None) -> None:
        """Write spans[first:last] as JSON lines (parents re-based)."""
        chunk = self.spans[first:last]
        with open(path, "w") as fh:
            for s in chunk:
                parent = s[PARENT] - first if s[PARENT] >= first else -1
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": parent, "job": s[JOB]}) + "\n")


def summarize(spans: List[list], first: int = 0,
              last: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Per span name over spans[first:last]: calls, total_s (outermost
    spans of that name only, so recursion is not counted twice), self_s
    (duration minus the time of direct child spans) and hits (calls that
    returned something other than None)."""
    last = len(spans) if last is None else last
    child_time = {}
    for s in spans[first:last]:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    out: Dict[str, Dict[str, float]] = {}
    for i in range(first, last):
        s = spans[i]
        dur = s[END] - s[START]
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0})
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(i, 0.0)
        row["hits"] += 1 if s[HIT] else 0
        if not _has_ancestor_named(spans, s, s[NAME]):
            row["total_s"] += dur
    return out


def _has_ancestor_named(spans: List[list], span: list, name: str) -> bool:
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def count_under(spans: List[list], name: str, ancestors, first: int = 0,
                last: Optional[int] = None) -> int:
    """Number of spans in spans[first:last] called ``name`` that have an
    ancestor in ``ancestors``."""
    n = 0
    for s in spans[first:last]:
        if s[NAME] != name:
            continue
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] in ancestors:
                n += 1
                break
            p = spans[p][PARENT]
    return n
