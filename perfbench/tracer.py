"""Span tracer that instruments slamobs from outside the package.

The tracer replaces module and class attributes with wrappers that record a
span per call: name, parent span, start and end (perf_counter_ns). Spans are
kept in memory in flat arrays and written out once, at the end of a run, so
the traced code pays only for two clock reads and four array appends per call.

A layer's self time is its spans' duration minus the part covered by their
direct child spans. A patch target that no longer exists (say, a kernel that
was fused away) is recorded as a span name with zero calls instead of failing.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path


class Tracer:
    """Collects nested spans from wrapped callables.

    ``clock`` returns integer nanoseconds; tests substitute a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _register(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        nid = self._register(name)
        clock = self._clock
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> bool:
        """Replace ``owner.attr`` by a traced wrapper; False if it is missing."""
        original = getattr(owner, attr, None)
        if original is None:
            self._register(name)
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))
        return True

    def unpatch(self) -> None:
        """Restore every patched attribute, latest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time and inclusive time in seconds."""
        n = len(self.start)
        child_ns = array("q", bytes(8 * n))
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for sid in range(n):
            entry = out[self.names[self.name_id[sid]]]
            dur = self.end[sid] - self.start[sid]
            entry["calls"] += 1
            entry["self_s"] += (dur - child_ns[sid]) * 1e-9
            entry["total_s"] += dur * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Write all spans as CSV: id, parent, name, start_ns, end_ns."""
        with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_id[sid]]},"
                    f"{self.start[sid]},{self.end[sid]}\n"
                )
