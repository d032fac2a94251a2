"""In-memory span tracer and reversible wrapper installation.

Two kinds of boundary, by how often they fire:

* **coarse** (a slot, an ``advance``, a ``resolve``/``build``, a sweep
  cell, a replay phase) -- recorded as a *span*: name, start, end,
  parent span and a shared key such as ``(group, slot)``;
* **per-event** (algorithm handlers, ``plan``, sink ``record``) --
  folded into ``[calls, total, self]`` accumulators under the enclosing
  span, so a million-event run costs a few dicts, not a million spans.

Self time is a boundary's duration minus the part of it covered by
boundaries nested inside it, whichever kind they are. Every traced
repeat runs under one root span, so the self times of everything
below it sum to the traced wall exactly and the root's own self time
*is* the unattributed remainder.

Wrappers are assigned over public attributes and put back by
:meth:`Tracer.restore`; the timed repeats never see one.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

# Span record layout (a list, to keep the per-span cost low).
NAME, START, END, PARENT, KEY, CHILD_S, FOLDED = range(7)


class Tracer:
    """Collects spans and folded accumulators for one traced repeat."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        # Open boundaries, innermost last: [child_s, span_id, folded].
        # A folded boundary's frame carries the enclosing span's id
        # and dict so whatever nests inside it still finds them.
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str, key: Any = None) -> int:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        sid = len(self.spans)
        folded: Dict[str, list] = {}
        span = [name, 0.0, 0.0, parent, key, 0.0, folded]
        self.spans.append(span)
        stack.append([0.0, sid, folded])
        span[START] = self.clock()
        return sid

    def close(self, sid: int) -> None:
        end = self.clock()
        stack = self._stack
        frame = stack.pop()
        if frame[1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        span = self.spans[sid]
        span[END] = end
        span[CHILD_S] = frame[0]
        if stack:
            stack[-1][0] += end - span[START]

    @contextmanager
    def span(self, name: str, key: Any = None) -> Iterator[int]:
        sid = self.open(name, key)
        try:
            yield sid
        finally:
            self.close(sid)

    def span_wrapper(self, name: str, fn: Callable, *,
                     key_of: Optional[Callable] = None,
                     before: Optional[Callable] = None,
                     after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records one span.

        ``key_of(args, kwargs)`` names the span's shared id;
        ``before(args, kwargs)`` / ``after(args, kwargs, result)`` let
        the caller read the call's public arguments and return value
        (batch sizes, finished runs) without timing them as the
        layer's own.
        """
        open_, close, stack = self.open, self.close, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # no traced repeat in progress
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            sid = open_(name, key_of(args, kwargs) if key_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def fold_wrapper(self, name: str, fn: Callable, *,
                     after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call folds into the enclosing span's
        ``[calls, total, self]`` accumulator for ``name``."""
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            top = stack[-1]
            frame = [0.0, top[1], top[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                top[0] += elapsed
                entry = frame[2].get(name)
                if entry is None:
                    frame[2][name] = [1, elapsed, elapsed - frame[0]]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
        """Assign ``make(original)`` over ``owner.attr`` (a class's own
        method, class method or static method), remembering the raw
        original for :meth:`restore`."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch_function(self, fn: Callable,
                       make: Callable[[Callable], Callable],
                       package: str = "repro") -> None:
        """Rebind a module-level function everywhere ``package`` holds
        a reference to it (``from x import f`` copies the binding, so
        patching the defining module alone would miss its callers)."""
        wrapper = make(fn)
        prefix = package + "."
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package
                                      or module_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def patched(self) -> List[tuple]:
        return list(self._patches)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    @property
    def wall_s(self) -> float:
        """Duration of the root span (the first one opened)."""
        root = self.spans[0]
        return root[END] - root[START]

    @property
    def unattributed_s(self) -> float:
        """The root span's own self time: what no boundary claimed."""
        return self.wall_s - self.spans[0][CHILD_S]

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` over spans and folds."""
        out: Dict[str, Dict[str, float]] = {}

        def add(name: str, calls: int, total: float, own: float) -> None:
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0}
            row["calls"] += calls
            row["total_s"] += total
            row["self_s"] += own

        for span in self.spans:
            duration = span[END] - span[START]
            add(span[NAME], 1, duration, duration - span[CHILD_S])
            for name, (calls, total, own) in span[FOLDED].items():
                add(name, calls, total, own)
        return out

    def to_json(self) -> Dict[str, Any]:
        """The trace artifact: spans (with their folded accumulators)
        relative to the first span's start, plus the reduced totals."""
        origin = self.spans[0][START] if self.spans else 0.0
        return {
            "schema": "ledger-trace/v1",
            "spans": [{
                "id": sid, "name": span[NAME],
                "start": span[START] - origin,
                "end": span[END] - origin,
                "parent": span[PARENT],
                "key": list(span[KEY]) if isinstance(span[KEY], tuple)
                else span[KEY],
                "self_s": span[END] - span[START] - span[CHILD_S],
                "folded": {name: {"calls": c, "total_s": t, "self_s": s}
                           for name, (c, t, s) in span[FOLDED].items()},
            } for sid, span in enumerate(self.spans)],
            "totals": self.totals(),
        }


def all_subclasses(cls: type) -> List[type]:
    """``cls`` and every class derived from it that is imported now."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen
