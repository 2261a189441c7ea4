"""Per-layer tracing from outside the program.

Each layer is one module of the package.  ``Tracer.install`` replaces every
public function of a layer, at every module attribute that binds it (callers
import by name, e.g. ``homology.smith_normal_form``), and the public methods
of the layer's classes (except the O(1) accessors in UNWRAPPED), with a
wrapper that records a span: layer, name, parent span, op, start and end.
Spans stay in memory; ``write`` dumps them
when the run ends.  A few wrappers also count work at the call: matrix
entries and repeated inputs of the Smith normal form, complexes and stars
built, cohomology bases built, stars per cover.  The time those counters
take is charged to the tracer, not to the layer that made the call.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "csobstruct"
LAYERS = ("cli", "manifolds", "complex_core", "snf", "homology", "cup",
          "bundle", "obstruction", "cech")
# O(1) accessors called up to ~10^5 times per op.  Wrapped, they would
# cost several times what they do; unwrapped, their time stays in the
# self time of the caller.
UNWRAPPED = {"faces", "SimplicialComplex.n_simplices",
             "SimplicialComplex.index", "Subcomplex.n_simplices",
             "Subcomplex.dim", "Subcomplex.restrict", "StarCover.star"}
COUNTERS = ("snf.entries", "snf.repeat_calls", "homology.basis_builds",
            "complex_core.complexes_built", "complex_core.stars_built",
            "cech.stars")


class Tracer:
    """Installs the wrappers and keeps the spans they record.

    Spans live in flat typed arrays, which the garbage collector never
    scans, so a long traced run does not slow the collections inside ops.
    """

    def __init__(self):
        self.names = []                    # function id -> (layer, name)
        self.fn = array("i")               # per span: function id
        self.parent = array("q")           # enclosing span, or -1
        self.op = array("q")               # op id, or -1 during set-up
        self.start = array("d")
        self.end = array("d")
        self.hook = array("d")             # counter time inside the span
        self.stack = []
        self.current_op = -1
        self.counts = defaultdict(float)   # (in set-up, counter) -> total
        self._seen = set()       # (op, matrix fingerprint) for repeat counts
        self._patches = []       # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._build()
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old, _ in reversed(self._patches):
            setattr(owner, attr, old)

    def _build(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        owners = {f"{PACKAGE}.{name}": name for name in LAYERS}
        wrapped = {}
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNWRAPPED or \
                        not inspect.isfunction(value):
                    continue
                layer = owners.get(value.__module__)
                if layer is None:
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(layer, attr, value)
                self._set(mod, attr, value, wrapped[value])
        for name, mod in modules.items():
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ \
                        and not cls.__name__.startswith("_"):
                    self._wrap_methods(name, cls)

    def _wrap_methods(self, layer, cls):
        is_dataclass = hasattr(cls, "__dataclass_fields__")
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and not is_dataclass)
            if not public or f"{cls.__name__}.{attr}" in UNWRAPPED:
                continue
            if isinstance(raw, staticmethod):
                fn = self._wrap(layer, f"{cls.__name__}.{attr}", raw.__func__)
                self._set(cls, attr, raw, staticmethod(fn))
            elif inspect.isfunction(raw):
                self._set(cls, attr, raw,
                          self._wrap(layer, f"{cls.__name__}.{attr}", raw))

    def _set(self, owner, attr, old, new):
        self._patches.append((owner, attr, old, new))

    def _wrap(self, layer, name, fn):
        hook = _HOOKS.get((layer, name))
        fid = len(self.names)
        self.names.append((layer, name))
        fns, parents, ops = self.fn, self.parent, self.op
        starts, ends, hooks, stack = self.start, self.end, self.hook, \
            self.stack
        counts_stars = layer == "cech" and name == "star_cover"

        def traced(*args, **kwargs):
            if hook is not None:
                h0 = perf_counter()
                hook(self, args)
                if stack:
                    hooks[stack[-1]] += perf_counter() - h0
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            hooks.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if counts_stars:
                self.count("cech.stars", len(result.stars))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def count(self, counter, amount=1):
        self.counts[(self.current_op < 0, counter)] += amount

    # -- reduction ---------------------------------------------------

    def layer_totals(self, in_setup):
        """Self seconds and call counts per layer, for set-up or for ops."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for p, d in zip(self.parent, dur):
            if p >= 0:
                child[p] += d
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (f, op) in enumerate(zip(self.fn, self.op)):
            if (op < 0) != in_setup:
                continue
            layer = self.names[f][0]
            self_s[layer] += dur[i] - child[i] - self.hook[i]
            calls[layer] += 1
        return self_s, calls

    def root_seconds(self):
        """Time covered by the outermost spans, per op id."""
        out = defaultdict(float)
        for p, op, s, e in zip(self.parent, self.op, self.start, self.end):
            if p < 0 and op >= 0:
                out[op] += e - s
        return out

    def write(self, path):
        """One JSON list per span: layer, name, parent span index, op
        (-1 during set-up), start and end in microseconds from the first
        span, and counter time charged to the span in microseconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            for i, f in enumerate(self.fn):
                layer, name = self.names[f]
                fh.write(json.dumps([layer, name, self.parent[i], self.op[i],
                                     round((self.start[i] - t0) * 1e6, 1),
                                     round((self.end[i] - t0) * 1e6, 1),
                                     round(self.hook[i] * 1e6, 1)]) + "\n")


def _snf_hook(tracer, args):
    m = np.asarray(args[0], dtype=object)
    tracer.count("snf.entries", m.size)
    key = (tracer.current_op, m.shape, hash(tuple(m.ravel().tolist())))
    if key in tracer._seen:
        tracer.count("snf.repeat_calls")
    tracer._seen.add(key)


_HOOKS = {
    ("snf", "smith_normal_form"): _snf_hook,
    ("homology", "cohomology_basis_real"):
        lambda t, a: t.count("homology.basis_builds"),
    ("complex_core", "SimplicialComplex.__init__"):
        lambda t, a: t.count("complex_core.complexes_built"),
    ("complex_core", "star_of_simplex"):
        lambda t, a: t.count("complex_core.stars_built"),
}
