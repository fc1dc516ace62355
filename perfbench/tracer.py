"""In-memory span recorder that instruments the program from the outside.

A :class:`Tracer` replaces chosen public functions of the ``repro``
package with thin wrappers that record one span per call: name, start,
end, parent span and the id of the benchmark run the span belongs to.
Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts every
original back.  Where a caller imported a function by name, the wrapper
must replace *that caller's* module attribute, because that is the name
the caller looks up at call time.

Spans nest per thread.  Self time of a span is its duration minus the
durations of its direct children, so summing self time over a layer
never counts a nested call twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class WrapPoint:
    """One name to replace: ``module`` attribute path ``attr`` (``"f"`` or
    ``"Class.method"``) gets a span called ``span``.  With ``keep`` the
    wrapper also records every call's result under the span name, for
    the layer metrics that read returned objects."""

    module: str
    attr: str
    span: str
    keep: bool = False


class Tracer:
    """Records spans and kept call results for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: span name -> [(run_id, result), ...] for ``keep`` points.
        self.kept: Dict[str, List[Tuple[str, Any]]] = {}
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        run_id = self.run_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       run_id))

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def install(self, points: List[WrapPoint]) -> None:
        for point in points:
            self._undo.append(patch(point.module, point.attr,
                                    lambda fn, p=point: self._wrapper(fn, p)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrapper(self, fn: Callable, point: WrapPoint) -> Callable:
        tracer = self
        span_name = point.span

        if point.keep:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
                with tracer._lock:
                    tracer.kept.setdefault(span_name, []).append(
                        (tracer.run_id, result))
                return result
        else:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with tracer.span(span_name):
                    return fn(*args, **kwargs)

        return wrapped


def patch(module: str, attr: str,
          wrap: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module``'s ``attr`` (``"f"`` or ``"Class.method"``) with
    ``wrap(original)``; returns the function that puts the original back."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # Patch the class that defines the method, so subclasses that
        # inherit it see the wrapper too.
        owner = next(k for k in owner.__mro__ if name in vars(k))
    # The raw attribute (not the bound/unbound lookup) so that undoing
    # restores descriptors exactly.
    original = vars(owner)[name]
    if not inspect.isfunction(original):
        raise TypeError(f"{module}.{attr} is not a plain function or "
                        f"method; cannot wrap it")
    setattr(owner, name, wrap(original))
    return lambda: setattr(owner, name, original)


class SpanView:
    """Queries over the spans of a set of run ids."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self._by_id = {s.span_id: s for s in spans}
        self._children: Dict[int, List[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self._children.setdefault(s.parent, []).append(s)

    def self_time(self, span: Span) -> float:
        return span.duration - sum(
            c.duration for c in self._children.get(span.span_id, ()))

    def _has_ancestor(self, span: Span, test: Callable[[Span], bool]) -> bool:
        parent = self._by_id.get(span.parent)
        while parent is not None:
            if test(parent):
                return True
            parent = self._by_id.get(parent.parent)
        return False

    def name_time(self, name: str) -> float:
        """Wall time inside spans called ``name`` (nested repeats once)."""
        return sum(s.duration for s in self.spans if s.name == name
                   and not self._has_ancestor(s, lambda p: p.name == name))

    def layer_time(self, layer: str) -> float:
        """Wall time inside any span of ``layer`` (nested repeats once)."""
        return sum(s.duration for s in self.spans if s.layer == layer
                   and not self._has_ancestor(s, lambda p: p.layer == layer))

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans ``name`` that ran inside a span called ``ancestor``."""
        return sum(1 for s in self.spans if s.name == name
                   and self._has_ancestor(s, lambda p: p.name == ancestor))

    def layer_self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for s in self.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + self.self_time(s)
        return totals
