"""Span tracer for one dulac job process, installed from outside the package.

`install` replaces every public function and method of the dulac layers with
a wrapper that records one span (label, start, end, parent span) per call.
Names a module imported by value (``from .exponents import exp_compare``) are
rebound in every dulac module that holds them, so each call is seen once
whichever module makes it.  Spans are kept in flat arrays in memory and
written out by `dump` when the job ends; `summarize` turns them into per-layer
self times and call counts in the benchmark process.

A layer is a dulac module.  Its self time is the time spent in its spans
minus the time covered by their child spans, so work in private helpers,
the standard library and mpmath counts for the nearest traced caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "scalars", "exponents", "tpoly", "series", "ode", "solver",
    "gevrey", "gammafn", "semigroup", "mseries", "cli",
)

# Operators are the public interface of the value classes; the other dunders
# (dataclass __eq__, __hash__, __repr__ ...) are not traced.
OPERATORS = frozenset({
    "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__truediv__",
    "__call__", "__lt__", "__le__", "__gt__", "__ge__",
})

# Constructors that canonicalize their terms do real work; they are traced too.
CONSTRUCTORS = frozenset({"series.DulacSeries.__init__", "mseries.MSeries.__init__"})

TALLIES = (
    "series.mul_term_pairs", "series.terms_submitted", "series.terms_kept",
    "tpoly.max_degree", "solver.steps",
)


def _series_product(tallies, args, kwargs, out):
    self, other = args[0], args[1]
    if hasattr(other, "terms"):
        tallies["series.mul_term_pairs"] += len(self.terms) * len(other.terms)


def _series_init(tallies, args, kwargs, out):
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    tallies["series.terms_submitted"] += len(terms)
    tallies["series.terms_kept"] += len(args[0].terms)


def _tpoly_product(tallies, args, kwargs, out):
    degree = getattr(out, "degree", None)
    if isinstance(degree, int) and degree > tallies["tpoly.max_degree"]:
        tallies["tpoly.max_degree"] = degree


def _extend_steps(tallies, args, kwargs, out):
    tallies["solver.steps"] += len(out.history)


# Called after a traced call returns, inside the caller's span.
OBSERVERS = {
    "series.DulacSeries.__mul__": _series_product,
    "series.DulacSeries.__init__": _series_init,
    "tpoly.TPoly.__mul__": _tpoly_product,
    "solver.extend": _extend_steps,
}


class Tracer:
    """Span store for one process: parallel arrays indexed by span number."""

    def __init__(self):
        self.labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.label = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.tallies = dict.fromkeys(TALLIES, 0)

    def wrap(self, fn, label: str):
        label_id = len(self.labels)
        self.labels.append(label)
        observe = OBSERVERS.get(label)
        start, end, labels, parent, stack = self.start, self.end, self.label, self.parent, self.stack
        tallies = self.tallies
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(labels)
            labels.append(label_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(tallies, args, kwargs, out)
            return out

        return traced

    def dump(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as fh:
            for arr in (self.start, self.end, self.label, self.parent):
                arr.tofile(fh)
        meta = {"labels": self.labels, "spans": len(self.label), "tallies": self.tallies}
        (directory / "spans.json").write_text(json.dumps(meta), encoding="utf-8")


def _is_traced(qualified: str, attr: str) -> bool:
    return not attr.startswith("_") or attr in OPERATORS or qualified in CONSTRUCTORS


def _wrap_class(tracer: Tracer, cls, prefix: str, swapped: dict) -> None:
    for attr, value in list(vars(cls).items()):
        qualified = f"{prefix}.{attr}"
        if not _is_traced(qualified, attr):
            continue
        if isinstance(value, (staticmethod, classmethod)):
            setattr(cls, attr, type(value)(tracer.wrap(value.__func__, qualified)))
        elif isinstance(value, property):
            fget = tracer.wrap(value.fget, qualified)
            setattr(cls, attr, property(fget, value.fset, value.fdel, value.__doc__))
        elif inspect.isfunction(value):
            # __rmul__ = __mul__ aliases share one wrapper and one label.
            if value not in swapped:
                swapped[value] = tracer.wrap(value, qualified)
            setattr(cls, attr, swapped[value])


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every dulac layer in place."""
    swapped: dict = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dulac.{layer}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                swapped[value] = tracer.wrap(value, f"{layer}.{attr}")
                setattr(module, attr, swapped[value])
            elif inspect.isclass(value):
                _wrap_class(tracer, value, f"{layer}.{attr}", swapped)
    for name, module in list(sys.modules.items()):
        if name != "dulac" and not name.startswith("dulac."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in swapped:
                setattr(module, attr, swapped[value])


def load(directory: Path) -> dict:
    """Read the spans `dump` wrote into a directory."""
    meta = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    n = meta["spans"]
    arrays = {}
    with open(directory / "spans.bin", "rb") as fh:
        for key, code in (("start", "d"), ("end", "d"), ("label", "i"), ("parent", "i")):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    return {**meta, **arrays}


def summarize(spans: dict) -> dict:
    """Self seconds per layer, calls per label, seconds per top-level label,
    and the tallies the observers kept."""
    start, end, label, parent = spans["start"], spans["end"], spans["label"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    labels = spans["labels"]
    layer_of = [text.split(".", 1)[0] for text in labels]
    self_s: dict = {}
    calls = [0] * len(labels)
    top_s: dict = {}
    for i, lid in enumerate(label):
        layer = layer_of[lid]
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        calls[lid] += 1
        if parent[i] < 0:
            top_s[labels[lid]] = top_s.get(labels[lid], 0.0) + end[i] - start[i]
    return {
        "self_s": self_s,
        "calls": {labels[i]: c for i, c in enumerate(calls) if c},
        "top_s": top_s,
        "tallies": spans["tallies"],
    }
