"""Span tracing for the benchmark's traced run, installed from outside the program.

Each public function of the `polytope`, `invariants`, `semigroup`, `bounds`
and `cli` modules (plus the `Polytope.lattice_points` method) is wrapped so
that every call records a span: name, start, end and parent.  A plain
`from X import f` creates one binding per importing module, so every
`polynorm.*` module attribute that is the original function object is
rebound to the wrapper, and all of them are put back afterwards.

`exactmath` and `catalog` are not wrapped: `add` and `dot` run millions of
times per pass and wrapping them would swamp the trace, so both modules are
measured through their callers.

Spans of one root call (one `cli.main` operation) are reduced to per-name
self time when the root ends, so memory stays bounded on long runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

WRAPPED_MODULES = ("polytope", "invariants", "semigroup", "bounds", "cli")


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its child spans cover.

    `spans` is a list of (name, start, end, parent_index) records, with
    parent_index None for a root.  Calls are single-threaded, so children
    nest inside their parent and never overlap each other.
    """
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    for name, start, end, parent in spans:
        if parent is not None:
            out[spans[parent][0]] -= end - start
    return dict(out)


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans of wrapped calls and keeps per-name totals.

    `self_s` maps span names to accumulated self time, `total_s` to
    accumulated duration (children included), and `counts` maps counter
    names (`<span>.calls` and the derived work counts) to totals.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # Polytopes whose lattice points were already requested during the
        # current root call, keyed by id; the objects are held so an id is
        # not reused while it marks a cache fill.
        self._seen_points: dict[tuple[int, int], object] = {}

    def wrap(self, name: str, fn):
        tracer = self
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append([name, tracer.clock(), None,
                                 tracer.stack[-1] if tracer.stack else None])
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index][2] = tracer.clock()
                tracer.stack.pop()
                if not tracer.stack:
                    tracer._close_root()
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def _close_root(self):
        for name, seconds in self_times(self.spans).items():
            self.self_s[name] += seconds
        for name, start, end, _ in self.spans:
            self.total_s[name] += end - start
        self.spans.clear()
        self._seen_points.clear()


# -- counters derived from call arguments and return values --------------------


def _count_lattice_points(tracer, args, kwargs, result):
    poly = args[0]
    k = _arg(args, kwargs, 1, "k", 1)
    key = (id(poly), k)
    if key in tracer._seen_points:
        return
    tracer._seen_points[key] = poly
    candidates = math.prod(
        max(k * v[i] for v in poly.vertices) - min(k * v[i] for v in poly.vertices) + 1
        for i in range(poly.dim))
    tracer.counts["polytope.lattice_points.misses"] += 1
    tracer.counts["polytope.lattice_points.points"] += len(result)
    tracer.counts["polytope.lattice_points.candidates"] += candidates


def _count_is_k_normal(tracer, args, kwargs, result):
    tracer.counts["invariants.is_k_normal.k_sum"] += _arg(args, kwargs, 1, "k", None)


def _count_shortest_representations(tracer, args, kwargs, result):
    tracer.counts["semigroup.shortest_representations.targets"] += len(result)
    tracer.counts["semigroup.shortest_representations.certificates"] += sum(
        cert is not None for cert in result.values())


_COUNTERS = {
    "polytope.lattice_points": _count_lattice_points,
    "invariants.is_k_normal": _count_is_k_normal,
    "semigroup.shortest_representations": _count_shortest_representations,
}


# -- installing and removing the wrappers -------------------------------------


def public_functions(module):
    """Public functions defined in `module` itself (not imported into it)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class installed:
    """Context manager: wrap the traced functions and rebind every alias.

    On exit every rebound attribute gets its original object back.
    `self.rebound` lists the (owner, attribute, original) triples touched.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rebound: list[tuple[object, str, object]] = []

    def __enter__(self):
        from polynorm import polytope

        wrappers = {}
        for short in WRAPPED_MODULES:
            module = importlib.import_module(f"polynorm.{short}")
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self.tracer.wrap(f"{short}.{name}", fn))
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "polynorm" and not mod_name.startswith("polynorm."):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        self._rebind(module, attr, entry[1])
            method = polytope.Polytope.lattice_points
            self._rebind(polytope.Polytope, "lattice_points",
                         self.tracer.wrap("polytope.lattice_points", method))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _rebind(self, owner, attr, wrapper):
        self.rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        return False
