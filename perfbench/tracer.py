"""Span tracing from outside the package.

``Tracer.patch()`` replaces each traced awarebid function with a wrapper at
every module attribute that refers to it, that is at the names its callers
look up (``engine.ppf``, ``fees.estimate``, ``disclosure.revenue`` ...), and
``Tracer.unpatch()`` restores the originals.  Every wrapped call records one
span (name, start, end, parent span, op id) in flat arrays held in memory;
``write()`` saves them at the end of a run.  A span's self time is its
duration minus the durations of its direct children, which in a
single-threaded run are disjoint and nested inside it.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1
SETUP_OP = -1


def _size(x) -> int:
    return int(np.size(x))


def _mc_or_exact(args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    return "engine.exact" if getattr(config, "backend", "mc") == "exact" else "engine.mc"


def _estimate_hook(tr, idx, args, kwargs, out):
    s, p = args[0], args[1]
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    if config.backend == "exact":
        from awarebid.engine import _effective_views, exact_cap_check
        tr.count("engine.exact", "combinations",
                 (exact_cap_check(s, p) or 0) * len(_effective_views(s, p)[0]))
        return
    se = getattr(out, "se_total_revenue", None)
    tr.mc_calls.append((tr.op_id, config.seed, s.n_bidders, s.m_characteristics,
                        config.n_samples, tr.end[idx] - tr.start[idx], se))


def _kernel_hook(tr, idx, args, kwargs, out):
    rows, n = np.shape(args[0])
    tr.count("kernels.second_price_stats", "rows", rows)
    # float64 bid matrix in; first, second, credit and surplus out
    tr.count("kernels.second_price_stats", "bytes_computed", 8 * rows * (3 * n + 2))


# (span name or name function, defining module, attribute, hook)
TARGETS = (
    ("cli.parse_scenario", "awarebid.cli", "parse_scenario", None),
    ("scenario.validate", "awarebid.scenario", "validate", None),
    ("distributions.ppf", "awarebid.distributions", "ppf",
     lambda tr, i, a, k, o: tr.count("distributions.ppf", "values", _size(a[1]))),
    ("distributions.cdf", "awarebid.distributions", "cdf", None),
    ("distributions.convolve", "awarebid.distributions", "convolve", None),
    ("kernels.second_price_stats", "awarebid._kernels", "second_price_stats", _kernel_hook),
    (_mc_or_exact, "awarebid.engine", "estimate", _estimate_hook),
    ("orderstats.valuation_law", "awarebid.orderstats", "valuation_law", None),
    ("orderstats.expected_order_stat", "awarebid.orderstats", "expected_order_stat", None),
    ("orderstats.cdf", "awarebid.orderstats", "OrderStatLaw.cdf",
     lambda tr, i, a, k, o: tr.count("orderstats.cdf", "points", _size(a[1]))),
    ("orderstats.cdf_exact", "awarebid.orderstats", "OrderStatLaw.cdf_exact", None),
    ("piecewise.order_stat_rational", "awarebid.piecewise", "order_stat_rational", None),
    ("piecewise.expected_value", "awarebid.piecewise", "expected_value", None),
    ("fees.revenue", "awarebid.fees", "revenue", None),
    ("fees.entry_fees", "awarebid.fees", "entry_fees", None),
    ("fees.curse_gap", "awarebid.fees", "curse_gap", None),
    ("disclosure.optimize", "awarebid.disclosure", "optimize",
     lambda tr, i, a, k, o: tr.count("disclosure.optimize", "candidates", len(o.trace))),
    ("disclosure.check_tradeoff", "awarebid.disclosure", "check_tradeoff", None),
    ("disclosure.verify_suite", "awarebid.disclosure", "verify_suite",
     lambda tr, i, a, k, o: tr.count("disclosure.verify_suite", "claims", len(o.results))),
)


def awarebid_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "awarebid" or name.startswith("awarebid."))]


def snapshot() -> dict:
    """Identity of every attribute of every awarebid module and of the
    classes they define, to show that a run left them untouched."""
    out = {}
    for mod in awarebid_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in vars(value).items():
                    out[(mod.__name__, f"{attr}.{k}")] = id(v)
    return out


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the summed durations of its direct children."""
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.mc_calls: list = []
        self.op_id = SETUP_OP
        self.enabled = True
        self._stack: list = []
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def count(self, layer: str, counter: str, amount) -> None:
        self.counters[(layer, counter)] += amount

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, args, kwargs, hook):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, idx, args, kwargs, out)
        return out

    def _wrapper(self, name, fn, hook):
        name_of = name if callable(name) else (lambda _args, _kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name_of(args, kwargs), fn, args, kwargs, hook)
        return traced

    # -- patching ------------------------------------------------------------

    def patch(self) -> None:
        if self._patches:
            raise RuntimeError("already patched")
        modules = awarebid_modules()
        for name, modname, attr, hook in TARGETS:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if "." in attr:                      # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                orig = None if cls is None else vars(cls).get(meth)
                if orig is None:
                    continue
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(name, orig, hook))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrapper(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def unpatch(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds, inclusive seconds)}."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        selfs = self_times(self.start, self.end, self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=selfs, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        return {n: (int(calls[i]), float(self_s[i]), float(incl[i]))
                for i, n in enumerate(self.names)}

    def calls_under(self, name: str, parent: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent`` span."""
        if name not in self._ids or parent not in self._ids:
            return 0
        ids = np.asarray(self.name_id, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)[ids == self._ids[name]]
        par = par[par >= 0]
        return int(np.count_nonzero(ids[par] == self._ids[parent]))

    def draw_reuse(self) -> float:
        """Distinct (seed, draw index) pairs per op over draws generated.
        Uniforms also depend on the matrix shape, so it is part of the key."""
        widest = {}
        generated = 0
        for op, seed, n, m, draws, _dur, _se in self.mc_calls:
            key = (op, seed, n, m)
            widest[key] = max(widest.get(key, 0), draws)
            generated += draws
        return sum(widest.values()) / generated if generated else 0.0

    def mc_efficiency(self) -> float:
        """Median over MC estimates of 1 / (revenue SE^2 x estimate seconds)."""
        vals = [1.0 / (se * se * dur) for *_k, dur, se in self.mc_calls if se]
        return statistics.median(vals) if vals else 0.0

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 op=np.asarray(self.op, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end))
