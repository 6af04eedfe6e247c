"""Spans around clawforge's public callables, recorded from outside the
program: `install` replaces each listed callable, wherever a clawforge
module or class holds it, by a wrapper that opens and closes a span.

A span records its name, start, end, parent span and job id in flat arrays
kept in memory; `write_tsv` writes them out once the sweep is over.  A call
made directly inside a span of the same name (recursion, or `__sub__`
calling `__add__`) folds into the outer span, so `calls` counts outermost
entries only.  Each layer may also add size counters at its boundary."""

import functools
import importlib
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter


class SpanStore:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.current_job = 0
        self.counters = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._top_name = -1

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, sizes=None):
        """`fn` recorded as span `name`; `sizes(counters, args, result)`
        adds the layer's size counters after each outermost call."""
        nid = self.intern(name)
        counters = self.counters[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._top_name == nid:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.current_job)
            self.end.append(0.0)
            stack.append(idx)
            outer = self._top_name
            self._top_name = nid
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                self._top_name = outer
            if sizes is not None:
                sizes(counters, args, result)
            return result

        return traced

    def summary(self):
        """Per-layer totals: calls, self_s (duration minus the time direct
        child spans cover; children of one span never overlap, since the
        engine is single-threaded) and the counters, plus job wall time and
        the share of it that layer spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i in range(n):
            rec = layers[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
        for name, counters in self.counters.items():
            layers[name].update(counters)
        job_s = covered_s = 0.0
        for i in range(n):
            if self.parent[i] < 0 and self.job[i] > 0:
                job_s += self.end[i] - self.start[i]
                covered_s += child[i]
        return {"layers": dict(layers), "job_s": job_s, "covered_s": covered_s}

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\n")


# ---------------------------------------------------------------------------
# Size counters recorded at layer boundaries
# ---------------------------------------------------------------------------

def _reduce_sizes(c, args, out):
    c["terms_in"] += len(args[1].terms)
    c["terms_out"] += len(out.terms)
    c["noop"] += out is args[1]


def _substitute_sizes(c, args, out):
    c["terms_out"] += len(out.terms)


def _nullspace_sizes(c, args, out):
    matrix = args[0]
    c["rows"] += matrix.nrows
    c["cols"] += matrix.ncols
    c["rank"] += matrix.ncols - out.dimension


def _determining_sizes(c, args, out):
    det = getattr(out, "determining", out)
    rows, cols = det.shape
    c["rows"] += rows
    c["cols"] += cols


def _try_add_sizes(c, args, out):
    c["accepted"] += bool(out)


def _witness_sizes(c, args, out):
    c["ncols"] += args[0].ncols


def _trivial_sizes(c, args, out):
    c["trivial"] += bool(out.trivial)


# (module, attribute path, span name, size counters).  A layer is named
# after the module that defines it.
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("parse", "parse", "parse.parse", None),
    ("modelfile", "parse_model_text", "modelfile.parse_model_text", None),
    ("expr", "Expr.__add__", "expr.arith", None),
    ("expr", "Expr.__radd__", "expr.arith", None),
    ("expr", "Expr.__sub__", "expr.arith", None),
    ("expr", "Expr.__rsub__", "expr.arith", None),
    ("expr", "Expr.__mul__", "expr.arith", None),
    ("expr", "Expr.__rmul__", "expr.arith", None),
    ("expr", "Expr.__truediv__", "expr.arith", None),
    ("expr", "Expr.__pow__", "expr.arith", None),
    ("expr", "substitute", "expr.substitute", _substitute_sizes),
    ("expr", "pdiff", "expr.pdiff", None),
    ("expr", "collect", "expr.collect", None),
    ("calculus", "PdeSystem.reduce", "calculus.reduce", _reduce_sizes),
    ("calculus", "total_derivative", "calculus.total_derivative", None),
    ("calculus", "euler", "calculus.euler", None),
    ("lawgen", "formal_lagrangian", "lawgen.formal_lagrangian", None),
    ("lawgen", "symmetry_flux", "lawgen.symmetry_flux", None),
    ("lawgen", "mixed_method", "lawgen.mixed_method", _determining_sizes),
    ("lawgen", "multiplier_determining_system",
     "lawgen.multiplier_determining_system", _determining_sizes),
    ("linsolve", "nullspace", "linsolve.nullspace", _nullspace_sizes),
    ("linsolve", "ColumnSpace.add_column", "linsolve.colspace", None),
    ("linsolve", "ColumnSpace.member", "linsolve.colspace", None),
    ("linsolve", "IncrementalSystem.try_add", "linsolve.incremental",
     _try_add_sizes),
    ("linsolve", "IncrementalSystem.solution", "linsolve.incremental", None),
    ("lawgen", "WitnessSpace.__init__", "lawgen.witness_space",
     _witness_sizes),
    ("lawgen", "is_trivial", "lawgen.is_trivial", _trivial_sizes),
    ("lawgen", "strip_trivial", "lawgen.strip_trivial", None),
)


def install(store):
    """Wrap every callable in LAYERS.  A function is replaced in each
    clawforge module that imported it by name; a method is replaced on its
    class.  Raises KeyError or AttributeError when a listed callable is
    gone."""
    pkg = importlib.import_module("clawforge")
    modules = [pkg] + [importlib.import_module(f"clawforge.{m.name}")
                       for m in pkgutil.iter_modules(pkg.__path__)]
    for module, path, name, sizes in LAYERS:
        owner = importlib.import_module(f"clawforge.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, store.wrap(cls.__dict__[attr], name, sizes))
            continue
        original = getattr(owner, path)
        traced = store.wrap(original, name, sizes)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
