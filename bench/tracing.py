"""Spans and work counters around npoly's public functions.

The tracer lives entirely in the benchmark: it swaps npoly's public
functions (and a few named methods) for wrappers while installed, and puts
the originals back afterwards. Each call of a wrapped function records a
span (id, parent, report, name, start, end); spans are kept in compact
arrays in memory and written out when the run ends. Self time is a span's
duration minus the time covered by its child spans, so the self times of
all spans of one report add up to the report's traced time.

Hot leaves in COUNT_ONLY get a call counter and no span: their time is
charged to the calling span, which belongs to the same layer.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import cached_property, wraps
from math import comb, prod
from time import perf_counter

import arith

LAYERS = ("exactmath", "polytope", "diagonal", "decompose", "primes", "catalog", "cli")
COUNT_ONLY = frozenset({"diagonal.m_action", "primes.is_prime"})


def _box_points(args, result):
    poly = args[0]
    n = poly.dim
    verts = list(poly.support.points) + [(0,) * n]
    return prod(n * (max(p[i] for p in verts) - min(p[i] for p in verts)) + 1
                for i in range(n))


# Work counters, computed at the layer boundary from arguments and results:
# function name -> {counter name: f(args, result)}.
WORK = {
    "polytope.build": {
        "polytope.build.subsets": lambda a, r: comb(len(a[0].points), a[0].dim),
        "polytope.build.facets": lambda a, r: len(r.facets_away_from_origin),
    },
    "polytope.hodge_data": {
        "polytope.hodge_data.box_points": _box_points,
        "polytope.hodge_data.weighted_points": lambda a, r: sum(r.W.values()),
    },
    "diagonal.group": {"diagonal.group.order": lambda a, r: len(r)},
    "diagonal.orbits": {"diagonal.orbits.count": lambda a, r: len(r)},
    "diagonal.ordinary_residues": {
        "diagonal.ordinary_residues.units": lambda a, r: arith.phi(r.modulus),
    },
    "decompose.complete_collapse": {
        "decompose.complete_collapse.pieces": lambda a, r: len(r.pieces),
    },
    **{
        f"cli.render_{fmt}": {"cli.report_bytes": lambda a, r: len(r.encode())}
        for fmt in ("json", "text", "csv")
    },
}


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Installs wrappers on npoly's modules and accumulates spans and counts."""

    def __init__(self, modules: dict):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_report = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.report = -1
        self._stack: list[list] = []
        self._active: Counter = Counter()
        self._patches = list(self._targets(modules))

    # -- wrapping ----------------------------------------------------------

    def _targets(self, modules):
        """(owner, key, original, replacement) for everything to wrap."""
        wrapped = {}
        for layer in LAYERS:
            module = modules[layer]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
                    yield module, attr, fn, wrapped[fn]
        # cli.main renders through this table, not through the module names
        renderers = modules["cli"].RENDERERS
        for fmt, fn in list(renderers.items()):
            yield renderers, fmt, fn, wrapped[fn]
        poly_cls = modules["polytope"].NewtonPolyhedron
        yield poly_cls, "hodge_data", poly_cls.hodge_data, self._wrap(
            "polytope.hodge_data", poly_cls.hodge_data)
        ds_cls = modules["diagonal"].DiagonalSimplex
        from_matrix = vars(ds_cls)["from_matrix"]
        yield ds_cls, "from_matrix", from_matrix, classmethod(
            self._wrap("diagonal.from_matrix", from_matrix.__func__))
        group = vars(ds_cls)["group"]
        cached = cached_property(self._wrap("diagonal.group", group.func))
        cached.__set_name__(ds_cls, "group")
        yield ds_cls, "group", group, cached

    def _wrap(self, name, fn):
        calls = self.calls
        if name in COUNT_ONLY:
            @wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        tracer = self
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        work = WORK.get(name, {})
        stack, active = self._stack, self._active
        self_s, incl_s = self.self_s, self.incl_s

        @wraps(fn)
        def timed(*args, **kwargs):
            calls[name] += 1
            span = len(tracer.span_id)
            parent = stack[-1][0] if stack else -1
            tracer.span_id.append(span)
            tracer.span_parent.append(parent)
            tracer.span_report.append(tracer.report)
            tracer.span_name.append(name_id)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s[name] += duration - frame[1]
                if not active[name]:
                    incl_s[name] += duration
                tracer.span_start[span] = start
                tracer.span_end[span] = end
            for counter, measure in work.items():
                tracer.work[counter] += measure(args, result)
            return result

        return timed

    @contextmanager
    def installed(self, report: int):
        """Wrap npoly for the duration of one report."""
        self.report = report
        for owner, key, _, replacement in self._patches:
            _assign(owner, key, replacement)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._patches:
                _assign(owner, key, original)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Exact work counts so far: calls per function and derived counters."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **self.work}

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line; returns the span count."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\treport\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_report[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{round((self.span_start[i] - t0) * 1e9)}\t"
                    f"{round((self.span_end[i] - t0) * 1e9)}\n"
                )
        return len(self.span_id)
