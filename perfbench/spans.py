"""In-memory spans around borsuk's public functions, and the per-layer metrics.

A span records its name, start, end, parent span and request id, plus a
few counts read from the call's arguments or result. Spans are kept in
a list and written out once, after the run. Self time is a span's
duration minus the time its child spans cover.

The wrappers live here, outside ``src/``: ``Tracer.install`` replaces
every binding of each traced function in every ``borsuk`` module,
because the modules import each other's functions by name
(``from .bodies import contains_point``), so patching only the defining
module would miss most callers.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from contextlib import contextmanager

import borsuk

NAME, START, END, PARENT, REQUEST, COUNTS = range(6)


def _lp_cells(args, kwargs, result):
    c, A = args[0], args[1]
    return {"cells": len(A) * len(c)}


def _prune_counts(args, kwargs, result):
    candidates = len(set(args[0].vertices))
    if candidates == 1:  # a single point is kept without a test
        return {"candidates": 0, "removed": 0}
    return {"candidates": candidates, "removed": candidates - len(result.vertices)}


def _vertex_count(args, kwargs, result):
    return {"vertices": len(result.vertices)}


def _pair_count(args, kwargs, result):
    n = len(args[1].points)
    return {"pairs": n * (n - 1) // 2}


def _certificate_counts(args, kwargs, result):
    return {"nodes": result.nodes, "optimal": int(result.optimal)}


def _cover_counts(args, kwargs, result):
    return {"centers": len(result.centers), "witnesses": len(result.witnesses)}


# (module, function, counts read from the call) for every traced function.
TRACED = (
    ("lp", "solve_min", _lp_cells),
    ("bodies", "prune_redundant", _prune_counts),
    ("bodies", "difference_body", _vertex_count),
    ("bodies", "lift_body", None),
    ("bodies", "validate_body", None),
    ("bodies", "contains_point", None),
    ("metric", "gauge", None),
    ("metric", "set_diameter", _pair_count),
    ("partition", "borsuk_number", None),
    ("partition", "verify_partition", None),
    ("partition", "chromatic_number", _certificate_counts),
    ("partition", "doubling_check", None),
    ("covering", "greedy_cover", _cover_counts),
    ("covering", "cover_to_partition", None),
    ("generators", "gen_random_body", None),
    ("generators", "gen_random_polytope", None),
    ("generators", "gen_random_points", None),
    ("verify", "run_verify_suite", None),
    ("cli", "cli_dispatch", None),
)

REQUEST_SPAN = "request"


def borsuk_modules():
    """The package and every submodule, reached by import path.

    ``borsuk.partition`` as an attribute is the exported function of that
    name, not the submodule, so submodules are looked up by import path.
    """
    names = sorted(m.name for m in pkgutil.iter_modules(borsuk.__path__))
    return [borsuk] + [importlib.import_module(f"borsuk.{name}") for name in names]


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = None
        self._patched: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, self._request, None]
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def request(self, request_id):
        """Root span of one benchmark request; spans inside carry its id."""
        self._request = request_id
        span = self._open(REQUEST_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def install(self):
        modules = borsuk_modules()
        for module_name, func_name, counts in TRACED:
            original = getattr(importlib.import_module(f"borsuk.{module_name}"), func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class SpanIndex:
    """Totals, self times, counts and ancestry over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        self.child = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.child[s[PARENT]] += self.dur[i]
            self.by_name.setdefault(s[NAME], []).append(i)

    def _indices(self, name):
        return self.by_name.get(name, [])

    def calls(self, name):
        return len(self._indices(name))

    def total(self, name):
        return sum(self.dur[i] for i in self._indices(name))

    def self_time(self, name):
        return sum(self.dur[i] - self.child[i] for i in self._indices(name))

    def count(self, name, key):
        # a call that raised has no counts
        return sum((self.spans[i][COUNTS] or {}).get(key, 0) for i in self._indices(name))

    def under(self, name, ancestor):
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        hits = 0
        for i in self._indices(name):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            hits += p >= 0
        return hits


def _ratio(num, den):
    return num / den if den else 0.0


GENERATORS = ("generators.gen_random_body", "generators.gen_random_polytope", "generators.gen_random_points")


def layer_metrics(spans, overhead_ratio):
    """Per-layer metrics as {name: (value, unit)}."""
    ix = SpanIndex(spans)
    lp_calls = ix.calls("lp.solve_min")
    lp_self = ix.self_time("lp.solve_min")
    lp_cells = ix.count("lp.solve_min", "cells")
    prune_candidates = ix.count("bodies.prune_redundant", "candidates")
    pairs = ix.count("metric.set_diameter", "pairs")
    chrom_s = ix.total("partition.chromatic_number")
    nodes = ix.count("partition.chromatic_number", "nodes")
    chrom_calls = ix.calls("partition.chromatic_number")
    borsuk_s = ix.total("partition.borsuk_number")
    verify_s = ix.total("partition.verify_partition")
    return {
        "lp.calls": (lp_calls, "count"),
        "lp.self_s": (lp_self, "s"),
        "lp.cells": (lp_cells, "count"),
        "lp.us_per_cell": (_ratio(lp_self * 1e6, lp_cells), "us"),
        "bodies.prune_redundant.s": (ix.total("bodies.prune_redundant"), "s"),
        "bodies.prune_redundant.lp_calls": (ix.under("lp.solve_min", "bodies.prune_redundant"), "count"),
        "bodies.prune_redundant.removed_ratio": (
            _ratio(ix.count("bodies.prune_redundant", "removed"), prune_candidates),
            "ratio",
        ),
        "bodies.difference_body.s": (ix.total("bodies.difference_body"), "s"),
        "bodies.difference_body.vertices": (ix.count("bodies.difference_body", "vertices"), "count"),
        "bodies.lift_body.s": (ix.total("bodies.lift_body"), "s"),
        "bodies.validate_body.s": (ix.total("bodies.validate_body"), "s"),
        "bodies.contains_point.calls": (ix.calls("bodies.contains_point"), "count"),
        "bodies.contains_point.s": (ix.total("bodies.contains_point"), "s"),
        "metric.gauge.calls": (ix.calls("metric.gauge"), "count"),
        "metric.gauge.s": (ix.total("metric.gauge"), "s"),
        "metric.set_diameter.calls": (ix.calls("metric.set_diameter"), "count"),
        "metric.set_diameter.pairs": (pairs, "count"),
        "metric.set_diameter.s": (ix.total("metric.set_diameter"), "s"),
        "metric.cache_hit_ratio": (
            1 - _ratio(ix.under("metric.gauge", "metric.set_diameter"), pairs) if pairs else 0.0,
            "ratio",
        ),
        "partition.borsuk_number.s": (borsuk_s, "s"),
        "partition.verify_partition.s": (verify_s, "s"),
        "partition.recheck_ratio": (_ratio(verify_s, borsuk_s), "ratio"),
        "partition.chromatic_number.calls": (chrom_calls, "count"),
        "partition.chromatic_number.s": (chrom_s, "s"),
        "partition.nodes": (nodes, "count"),
        "partition.us_per_node": (_ratio(chrom_s * 1e6, nodes), "us"),
        "partition.optimal_ratio": (
            _ratio(ix.count("partition.chromatic_number", "optimal"), chrom_calls),
            "ratio",
        ),
        "partition.doubling_check.s": (ix.total("partition.doubling_check"), "s"),
        "covering.greedy_cover.s": (ix.total("covering.greedy_cover"), "s"),
        "covering.greedy_cover.lp_calls": (ix.under("lp.solve_min", "covering.greedy_cover"), "count"),
        "covering.cover_to_partition.s": (ix.total("covering.cover_to_partition"), "s"),
        "covering.centers": (ix.count("covering.greedy_cover", "centers"), "count"),
        "covering.witnesses": (ix.count("covering.greedy_cover", "witnesses"), "count"),
        "generators.s": (sum(ix.total(name) for name in GENERATORS), "s"),
        "verify.self_s": (ix.self_time("verify.run_verify_suite"), "s"),
        "cli.self_s": (ix.self_time("cli.cli_dispatch"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def layer_shares(spans):
    """Shares of traced request time, for the layer split the benchmark predicts."""
    ix = SpanIndex(spans)
    total = ix.total(REQUEST_SPAN)
    return {
        "bodies.prune_redundant.s": _ratio(ix.total("bodies.prune_redundant"), total),
        "lp.self_s": _ratio(ix.self_time("lp.solve_min"), total),
        "covering.greedy_cover.s": _ratio(ix.total("covering.greedy_cover"), total),
        "partition.chromatic_number.s": _ratio(ix.total("partition.chromatic_number"), total),
        "metric.set_diameter.s": _ratio(ix.total("metric.set_diameter"), total),
    }
