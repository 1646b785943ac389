"""In-memory span tracer installed around the program's public functions.

A :class:`Tracer` replaces each traced function with a wrapper.  A *span*
wrapper records ``(id, parent, request, layer, name, start, end)`` when
the call returns; a *count* wrapper only bumps a counter, for hot inner
calls (more than ~10k per job) whose own span would distort self time.
The current span lives in a :class:`~contextvars.ContextVar`, so parents
stay correct across asyncio tasks and ``asyncio.to_thread`` hops, and all
spans of one request (one root span and its descendants) share the
root's id as their request id.

Wrappers are installed on the defining class or module and on every
loaded ``repro`` module that bound the same function object by name
(``from x import f``); :meth:`Tracer.uninstall` restores the originals.
"""

from __future__ import annotations

import collections
import contextvars
import fnmatch
import functools
import importlib
import inspect
import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[Optional[Tuple[int, int]]] = contextvars.ContextVar(
    "perfbench_span", default=None
)

CountFn = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Span:
    id: int
    parent: Optional[int]
    request: int
    layer: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One traced target.

    ``target`` is ``"module:attr"`` for a function or
    ``"module:Class.method"`` for a method; ``Class`` may be a glob
    (``*``) matching every class of the module that defines the method
    itself, and ``method`` may be a glob too.  ``layer=None`` makes a
    count-only point.  ``counts`` maps a counter name to ``None`` (one per
    call) or to ``fn(args, kwargs, result) -> amount``.
    """

    target: str
    layer: Optional[str]
    counts: Dict[str, Optional[CountFn]] = field(default_factory=dict)


class Tracer:
    """Collects spans and counts from installed wrappers."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []      # Span fields, as plain tuples
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- recording
    def take(self) -> Tuple[List[Span], Dict[str, float]]:
        """Return and clear the spans and counts recorded so far."""
        spans = [Span(*row) for row in self.spans]
        counts = dict(self.counts)
        self.spans = []
        self.counts = collections.defaultdict(float)
        return spans, counts

    # ----------------------------------------------------------- wrapping
    def wrap(self, fn: Callable, point: Point, name: str) -> Callable:
        """The wrapper for one traced function (kept lean: it runs on
        every call, and its cost lands in the callers' self time)."""
        tracer = self
        layer = point.layer
        plain = [c for c, f in point.counts.items() if f is None]
        derived = [(c, f) for c, f in point.counts.items() if f is not None]

        def bump(args, kwargs, result):
            counts = tracer.counts
            for c in plain:
                counts[c] += 1.0
            for c, f in derived:
                counts[c] += float(f(args, kwargs, result))

        if layer is None:
            if not point.counts:
                raise ValueError(f"count point {point.target} names no counter")

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                bump(args, kwargs, result)
                return result

            return counted
        if inspect.isgeneratorfunction(fn) or inspect.isasyncgenfunction(fn):
            raise TypeError(f"cannot span generator {name}")
        clock, ids, current = time.perf_counter, self._ids, _CURRENT

        def opened():
            parent = current.get()
            sid = next(ids)
            if parent is None:
                return sid, None, sid, current.set((sid, sid))
            return sid, parent[0], parent[1], current.set((sid, parent[1]))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def aspan(*args, **kwargs):
                sid, parent, request, token = opened()
                start = clock()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = clock()
                    current.reset(token)
                    tracer.spans.append((sid, parent, request, layer, name, start, end))
                if point.counts:
                    bump(args, kwargs, result)
                return result

            return aspan

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid, parent, request, token = opened()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                tracer.spans.append((sid, parent, request, layer, name, start, end))
            if point.counts:
                bump(args, kwargs, result)
            return result

        return span

    # -------------------------------------------------------- installing
    def install(self, points: Sequence[Point]) -> None:
        """Wrap every target of ``points``; undo with :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id: Dict[int, Tuple[Any, Callable]] = {}
        for point in points:
            module_name, _, qual = point.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qual:
                cls_pat, meth_pat = qual.split(".", 1)
                matched = 0
                for cls_name, cls in sorted(vars(module).items()):
                    if not (
                        inspect.isclass(cls)
                        and cls.__module__ == module.__name__
                        and fnmatch.fnmatchcase(cls_name, cls_pat)
                    ):
                        continue
                    for attr, value in sorted(vars(cls).items()):
                        if fnmatch.fnmatchcase(attr, meth_pat) and inspect.isfunction(value):
                            name = f"{cls_name}.{attr}"
                            self._patch(cls, attr, self.wrap(value, point, name))
                            matched += 1
            else:
                original = getattr(module, qual)
                wrapper = self.wrap(original, point, qual)
                self._patch(module, qual, wrapper)
                by_id[id(original)] = (original, wrapper)
                matched = 1
            if not matched:
                raise LookupError(f"trace target {point.target} matched nothing")
        # Rebind module-level functions imported by name elsewhere.
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ analysis
def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval covered by its child spans (overlapping children count
    once)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per layer."""
    spans = list(spans)
    own = self_times(spans)
    out: Dict[str, float] = collections.defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)


def write_spans(path, spans: Iterable[Span]) -> None:
    """Dump spans as tab-separated lines (id, parent, request, layer,
    name, start, end)."""
    with open(path, "w") as fh:
        fh.write("id\tparent\trequest\tlayer\tname\tstart\tend\n")
        for s in spans:
            fh.write(
                f"{s.id}\t{s.parent or 0}\t{s.request}\t{s.layer}\t{s.name}"
                f"\t{s.start!r}\t{s.end!r}\n"
            )


def read_spans(path) -> List[Span]:
    out: List[Span] = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            sid, parent, req, layer, name, start, end = line.rstrip("\n").split("\t")
            out.append(
                Span(int(sid), int(parent) or None, int(req), layer, name,
                     float(start), float(end))
            )
    return out
