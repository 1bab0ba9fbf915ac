"""In-memory span tracer that wraps layer entry points of epifront.

Spans are recorded from the benchmark's side only: :meth:`Tracer.patch`
replaces a module or class attribute with a wrapper that records one span
per call, and :meth:`Tracer.restore` puts every original back.  Nothing
under ``src/`` knows about tracing.

A span is ``(sid, name, start_ns, end_ns, parent_sid, info)``.  The
parent is the innermost open span of the same thread, so spans opened in
a worker thread of ``threshold.sweep`` are roots of that thread.  ``info``
is whatever the optional ``inspect(args, kwargs, result)`` hook returned.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Tracer:
    """Records spans in memory for one traced repetition."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, inspect=None):
        """Return ``fn`` wrapped so that each call records a span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, name, start, time.perf_counter_ns(), parent, None))
                stack.pop()
                raise
            end = time.perf_counter_ns()
            stack.pop()
            info = inspect(args, kwargs, result) if inspect is not None else None
            spans.append((sid, name, start, end, parent, info))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, inspect=None) -> None:
        """Replace ``owner.attr``, defined on that module or class, by a
        traced wrapper."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, inspect))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[tuple]) -> None:
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.children: dict[int, list[tuple]] = defaultdict(list)
        self.by_id: dict[int, tuple] = {}
        for span in sorted(spans, key=lambda s: s[2]):
            self.by_name[span[1]].append(span)
            self.by_id[span[0]] = span
            if span[4] is not None:
                self.children[span[4]].append(span)

    def named(self, *names: str) -> list[tuple]:
        return [s for n in names for s in self.by_name.get(n, ())]

    def calls(self, *names: str) -> int:
        return len(self.named(*names))

    def busy_s(self, *names: str) -> float:
        """Summed duration of the outermost spans among ``names``.

        A span nested (at any depth) inside another span of the group is
        not counted again.  Spans of different threads add up, so this is
        busy time, which can exceed wall time under a thread pool.
        """
        group = set(names)
        total = 0
        for span in self.named(*names):
            if not self._inside(span, group):
                total += span[3] - span[2]
        return total * 1e-9

    def self_s(self, name: str, children: tuple[str, ...] | None = None) -> float:
        """Summed duration of ``name`` spans minus the time their direct
        children cover; ``children`` limits which child names count."""
        total = 0
        for span in self.by_name.get(name, ()):
            covered = sum(c[3] - c[2] for c in self.children.get(span[0], ())
                          if children is None or c[1] in children)
            total += span[3] - span[2] - covered
        return total * 1e-9

    def _inside(self, span: tuple, group: set[str]) -> bool:
        parent = span[4]
        while parent is not None:
            outer = self.by_id[parent]
            if outer[1] in group:
                return True
            parent = outer[4]
        return False
