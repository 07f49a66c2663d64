"""Span tracing of tropint's layers from outside the library.

Tracer.install() replaces every public function of each layer module
(and a few methods) by a wrapper that records one span per call:
(name, start, end, parent).  The wrapper is also put into every tropint.*
namespace that imported the function by name, so calls between modules
are seen too.  uninstall() puts every original back.

Per-vector helpers of exactmath (vec_dot alone is called 516k times in
rewrite_diagonal(3, 1)) are left unwrapped; their time counts as self
time of the calling span.  Nothing under src/ is changed.
"""

import sys
import time
import types
from array import array

LAYERS = ("exactmath", "polyhedra", "functions", "linspace", "intersect", "formats", "cli")

VECTOR_HELPERS = {
    "is_zero",
    "primitive_vector",
    "clear_denominators",
    "as_fractions",
}

# (module, class, method, span name)
METHODS = (
    ("polyhedra", "Complex", "find_cell_containing", "polyhedra.find_cell_containing"),
    ("functions", "CartierExpression", "apply", "functions.CartierExpression.apply"),
    ("intersect", "AmbientContext", "apply_diagonal", "intersect.apply_diagonal"),
    ("intersect", "AmbientContext", "verify", "intersect.verify"),
    ("linspace", "DiagonalRepresentation", "verify", "linspace.verify"),
)

# the module caches, by module; see cache_sizes()
CACHES = {
    "polyhedra": ("_CELL_POOL", "_INTERSECT_MEMO", "_NORMAL_MEMO", "_BUILD_MEMO"),
    "linspace": ("_LNK_CACHE", "_FNK_CACHE", "_REWRITE_CACHE"),
    "intersect": ("_CONTEXT_CACHE",),
}


def _module(layer):
    return sys.modules["tropint." + layer]


def _is_vector_helper(name):
    return name.startswith("vec_") or name in VECTOR_HELPERS


def public_functions(layer):
    """Names of the functions a layer module defines and exports."""
    mod = _module(layer)
    return sorted(
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == mod.__name__
        and not (layer == "exactmath" and _is_vector_helper(name))
    )


def cache_sizes():
    """Entries in each module cache; a cache the code no longer has counts 0."""
    out = {}
    for layer, names in CACHES.items():
        mod = _module(layer)
        for name in names:
            out["%s.%s" % (layer, name)] = len(getattr(mod, name, ()))
    return out


class Tracer:
    """Records spans in flat arrays; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patched = []  # (namespace, attribute, original)
        self.counters = {
            "intersect_cells.hits": 0,
            "divisor.cells_in": 0,
            "divisor.cells_out": 0,
        }

    # -- wrapping -----------------------------------------------------

    def _name_id(self, name):
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    def _observed(self, layer, name, fn):
        """Add the counters the per-layer metrics need to two functions."""
        counters = self.counters
        if (layer, name) == ("polyhedra", "intersect_cells"):
            memo = getattr(_module("polyhedra"), "_INTERSECT_MEMO", {})

            def intersect_cells(a, b):
                if (a, b) in memo:
                    counters["intersect_cells.hits"] += 1
                return fn(a, b)

            return intersect_cells
        if (layer, name) == ("functions", "divisor"):

            def divisor(phi, x, *args, **kwargs):
                counters["divisor.cells_in"] += len(x.cells)
                out = fn(phi, x, *args, **kwargs)
                counters["divisor.cells_out"] += len(out.cells)
                return out

            return divisor
        return fn

    def _patch(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        """Wrap every layer's public functions and the traced methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = _module(layer)
            for name in public_functions(layer):
                fn = getattr(mod, name)
                wrappers[id(fn)] = (
                    fn,
                    self._wrap("%s.%s" % (layer, name), self._observed(layer, name, fn)),
                )
        namespaces = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "tropint" or key.startswith("tropint."))
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                got = wrappers.get(id(obj))
                if got is not None and got[0] is obj:
                    self._patch(ns, attr, got[1])
        for layer, cls_name, method, span in METHODS:
            cls = getattr(_module(layer), cls_name, None)
            if cls is not None and method in vars(cls):  # gone: its figures read 0
                self._patch(cls, method, self._wrap(span, vars(cls)[method]))

    def uninstall(self):
        """Put every original function and method back, newest first."""
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    # -- accounting ---------------------------------------------------

    def totals(self):
        """Per span name: (calls, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; spans are properly nested, so children never overlap.
        """
        if len(self._stack) != 1:
            raise RuntimeError("totals() called while spans are open")
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            own[k] += self.span_end[i] - self.span_start[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def inclusive(self, name):
        """Seconds inside spans of `name`, counting nested ones once."""
        k = self.name_ids.get(name)
        total = 0.0
        for i in range(len(self.span_name)):
            if self.span_name[i] != k:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != k:
                p = self.span_parent[p]
            if p < 0:
                total += self.span_end[i] - self.span_start[i]
        return total

    def write(self, path):
        """Write the spans as four native arrays after a JSON header line:
        name ids (int32), parent indices (int32, -1 at the top), start and
        end times (float64, seconds on the perf_counter clock)."""
        import json

        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
