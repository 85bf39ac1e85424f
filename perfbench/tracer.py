"""Spans and counters around fqidtest's layers, installed by patching.

Module functions are replaced in every ``fqidtest`` module that binds them,
so a call through ``idtest.restrict`` is seen as well as one through
``algebra.restrict``.  Methods are replaced on their class (``Field.mul``,
``Algebra.mul``), which every caller reaches whatever name it imported.
A name that no longer exists is skipped, and the metrics that need it are
left out of the output.

Calls too small to span (field and algebra arithmetic, ``CommPoly.eval``)
are only counted.  Their argument tuples are kept at a stride that doubles
whenever ``SAMPLE_CAP`` are held, so that ``call_costs`` can time the same
method in isolation on the workload's own arguments.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

SAMPLE_CAP = 2048

# (metric prefix, module, attribute) of each spanned module function
SPANNED_FUNCTIONS = (
    ("algebra.enumerate_ideals", "algebra", "enumerate_ideals"),
    ("algebra.restrict", "algebra", "restrict"),
    ("algebra.quotient", "algebra", "quotient"),
    ("freepoly.parse", "freepoly", "parse"),
    ("commpoly.symbolic_coordinates", "commpoly", "symbolic_coordinates"),
    ("bound.exhaustive_min", "bound", "exhaustive_min"),
    ("idtest.zero_probability", "idtest", "zero_probability"),
    ("idtest.dixon_verdict", "idtest", "dixon_verdict"),
    ("idtest.functional_zero_fraction", "idtest", "functional_zero_fraction"),
    ("idtest.coset_search", "idtest", "coset_identity_search"),
    ("idtest.descent", "idtest", "multilinear_descent"),
    ("idtest.block_statistics", "idtest", "block_statistics"),
    ("cli.run_corpus", "cli", "run_corpus"),
    ("cli.render", "cli", "render"),
)

# (metric prefix, module, class, method) of each spanned method
SPANNED_METHODS = (
    ("algebra.construct", "algebra", "Algebra", "__init__"),
    ("commpoly.reduce", "commpoly", "CommPoly", "reduce"),
)

# (metric prefix, module, class, method) of each counted-only method
COUNTED_METHODS = (
    ("gf.add", "gf", "Field", "add"),
    ("gf.sub", "gf", "Field", "sub"),
    ("gf.mul", "gf", "Field", "mul"),
    ("algebra.mul", "algebra", "Algebra", "mul"),
    ("commpoly.eval", "commpoly", "CommPoly", "eval"),
)


def _module(name):
    return sys.modules.get(f"fqidtest.{name}")


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "fqidtest" or n.startswith("fqidtest."))]


class Tracer:
    """Spans (name, start, end, parent, job) and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.samples = {}
        self.extra = {}
        self.installed = set()
        self.job = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, rec, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0
        kept = self.samples[name] = []
        stride = [1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = counts[name] = counts[name] + 1
            if n % stride[0] == 0:
                kept.append(args)
                if len(kept) >= SAMPLE_CAP:
                    del kept[::2]
                    stride[0] *= 2
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        for name, mod, attr in SPANNED_FUNCTIONS:
            original = getattr(_module(mod), attr, None)
            if original is None:
                continue
            wrapper = self._span(name, original, _ON_RESULT.get(name))
            for m in _package_modules():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)
            self.installed.add(name)
        for table, make in ((SPANNED_METHODS, self._span), (COUNTED_METHODS, self._counter)):
            for name, mod, cls_name, attr in table:
                cls = getattr(_module(mod), cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    continue
                self._undo.append((cls, attr, original))
                setattr(cls, attr, make(name, original))
                self.installed.add(name)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return sum(1 for rec in self.spans if rec[0] == name)


def self_times(spans):
    """Seconds per span name of each span's duration minus its children's.

    Calls run on one thread, so a span's children do not overlap and the
    part of its interval they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def _on_zero_probability(tracer, rec, args, report):
    if report.mode == "exact":
        extra = tracer.extra
        extra["tuples"] = extra.get("tuples", 0) + report.total
        extra["exact_s"] = extra.get("exact_s", 0.0) + rec[2] - rec[1]


def _on_enumerate_ideals(tracer, rec, args, ideals):
    tracer.extra["ideals"] = tracer.extra.get("ideals", 0) + len(ideals)


def _on_restrict(tracer, rec, args, result):
    tracer.extra.setdefault("restrict_args", set()).add((args[0], args[1]))


def _on_coset_search(tracer, rec, args, witnesses):
    tracer.extra["witnesses"] = tracer.extra.get("witnesses", 0) + len(witnesses)


def _on_exhaustive_min(tracer, rec, args, result):
    tracer.extra["candidates"] = tracer.extra.get("candidates", 0) + result.candidates


_ON_RESULT = {
    "idtest.zero_probability": _on_zero_probability,
    "algebra.enumerate_ideals": _on_enumerate_ideals,
    "algebra.restrict": _on_restrict,
    "idtest.coset_search": _on_coset_search,
    "bound.exhaustive_min": _on_exhaustive_min,
}


def call_costs(tracer, target_s=0.05, repeats=5):
    """Isolated ns per call of each counted method, on its sampled arguments.

    Each repeat calls the unwrapped method on the kept argument tuples
    until about ``target_s`` has passed, minus the same loop with no call;
    the median repeat is reported.
    """
    costs = {}
    for name, mod, cls_name, attr in COUNTED_METHODS:
        kept = tracer.samples.get(name)
        cls = getattr(_module(mod), cls_name, None)
        fn = cls.__dict__.get(attr) if cls is not None else None
        if not kept or fn is None:
            continue
        rounds = 1
        while True:
            start = perf_counter()
            for _ in range(rounds):
                for args in kept:
                    fn(*args)
            if perf_counter() - start >= target_s / 4:
                break
            rounds *= 2
        per_call = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(rounds):
                for args in kept:
                    fn(*args)
            mid = perf_counter()
            for _ in range(rounds):
                for args in kept:
                    pass
            end = perf_counter()
            per_call.append(((mid - start) - (end - mid)) / (rounds * len(kept)))
        per_call.sort()
        costs[name] = per_call[len(per_call) // 2] * 1e9
    return costs
