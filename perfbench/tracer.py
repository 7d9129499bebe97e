"""Spans around calls into fticalc, recorded from outside the package.

The tracer replaces each listed public callable in every fticalc module
namespace that binds it (functions), or on its class (constructors and
operators), with a wrapper that records a span: name, start, end, parent
span and job id. Spans are kept in flat arrays while the run lasts,
written out when it ends, and reduced to per-callable call counts and
self time (span duration minus the time covered by its child spans).
"""

import functools
import json
import os
import sys
import time
from array import array

# layer -> public callables; "Cls" wraps Cls.__init__, "Cls.add"/"Cls.mul"
# wrap the operator methods (every alias of the same function object).
LAYERS = {
    "chords": ["boundary_degree", "canonicalize", "four_term", "tower_reduce",
               "multi_tower_reduce", "ChordDiagram", "DiagramSum", "DiagramSum.add"],
    "links": ["alexander", "casson", "bracket_expand", "fundamental_relation",
              "blink_linking_matrix", "seifert_congruent", "FormalSum", "LaurentPoly.mul"],
    "_intlinalg": ["det", "mat_mul", "row_hnf", "int_kernel", "complete_to_unimodular",
                   "coords_in_basis"],
    "symplectic": ["realize_symmetric", "compose", "transvection",
                   "complementary_lagrangian", "Sublattice", "SpMatrix"],
    "exterior": ["MultiVector", "MultiVector.add", "wedge", "tensor_wedge", "act",
                 "quotient_mod_L", "in_span", "kernel_wedge2_generators"],
    "johnson": ["LbarElement", "lmo_delta", "lmo1_delta", "triple_commutator_tau",
                "level_generators", "filtration_containment"],
    "groupring": ["magnus", "binomial_identity_check", "TruncatedSeries.mul"],
}
OPERATORS = {"add": "__add__", "mul": "__mul__"}
# containers whose terms in and out are counted for a merge ratio, and the
# position of the terms argument of their constructor
MERGED = {"chords": "DiagramSum", "exterior": "MultiVector"}
TERMS_ARG = {"chords": 1, "exterior": 3}

LAYER_MODULES = {layer: "fticalc." + layer for layer in LAYERS}

SPAN_NAMES = ["%s.%s" % (layer, f) for layer, fs in LAYERS.items() for f in fs]


def layer_modules():
    """layer name -> the currently imported fticalc module."""
    return {layer: sys.modules[name] for layer, name in LAYER_MODULES.items()}


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.enabled = False
        self.merge = {layer: [0, 0] for layer in MERGED}  # [terms in, terms out]
        self.tower_terms_out = 0

    # -- recording -------------------------------------------------------

    def _open(self, ix):
        i = len(self.name)
        self.name.append(ix)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, ix, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                return counter(ix, fn, args, kwargs)
            i = tracer._open(ix)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def _span(self, ix, fn, args, kwargs):
        i = self._open(ix)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _counted_init(self, layer):
        """__init__ of a merged container: count input items and kept terms."""
        pos = TERMS_ARG[layer]
        add_ix = SPAN_NAMES.index("%s.%s.add" % (layer, MERGED[layer]))

        def counter(ix, fn, args, kwargs):
            args = list(args)
            terms = args[pos] if len(args) > pos else kwargs.get("terms", ())
            items = list(terms.items()) if isinstance(terms, dict) else list(terms)
            if len(args) > pos:
                args[pos] = items
            else:
                kwargs["terms"] = items
            inside_add = self.stack and self.name[self.stack[-1]] == add_ix
            self._span(ix, fn, args, kwargs)
            if not inside_add:
                self.merge[layer][0] += len(items)
                self.merge[layer][1] += len(args[0].terms)

        return counter

    def _counted_add(self, layer):
        def counter(ix, fn, args, kwargs):
            out = self._span(ix, fn, args, kwargs)
            if out is not NotImplemented:
                self.merge[layer][0] += len(args[0].terms) + len(args[1].terms)
                self.merge[layer][1] += len(out.terms)
            return out

        return counter

    def _counted_tower(self, ix, fn, args, kwargs):
        out = self._span(ix, fn, args, kwargs)
        self.tower_terms_out += len(out.terms)
        return out

    # -- installation ------------------------------------------------------

    def install(self, layers):
        """Patch the listed callables; layers maps layer name -> module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "fticalc" or name.startswith("fticalc.")) and m is not None]
        for ix, span in enumerate(SPAN_NAMES):
            layer, _, target = span.partition(".")
            cls_name, _, op = target.partition(".")
            obj = getattr(layers[layer], cls_name)
            if isinstance(obj, type):
                attr = OPERATORS[op] if op else "__init__"
                orig = obj.__dict__[attr]
                counter = None
                if layer in MERGED and cls_name == MERGED[layer]:
                    counter = self._counted_add(layer) if op else self._counted_init(layer)
                wrapped = self._wrap(ix, orig, counter)
                for name, val in list(obj.__dict__.items()):
                    if val is orig:
                        setattr(obj, name, wrapped)
            else:
                counter = self._counted_tower if span == "chords.tower_reduce" else None
                wrapped = self._wrap(ix, obj, counter)
                for mod in modules:
                    for name, val in list(vars(mod).items()):
                        if val is obj:
                            setattr(mod, name, wrapped)

    # -- reduction -----------------------------------------------------------

    def reduce(self):
        """Per-span-name [calls, self seconds], plus the counters."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        agg = {name: [0, 0.0] for name in SPAN_NAMES}
        for i in range(n):
            a = agg[SPAN_NAMES[self.name[i]]]
            a[0] += 1
            a[1] += end[i] - start[i] - child[i]
        return {
            "spans": agg,
            "merge": {layer: list(v) for layer, v in self.merge.items()},
            "tower_terms_out": self.tower_terms_out,
        }

    def write(self, path):
        """Write the raw spans: a JSON header line, then the five arrays."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": SPAN_NAMES, "count": len(self.name),
                  "arrays": ["name:H", "start:d", "end:d", "parent:i", "job:i"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent, self.job):
                arr.tofile(fh)


def merge_reduced(parts):
    """Sum reductions from several processes (traced CLI children)."""
    out = {"spans": {name: [0, 0.0] for name in SPAN_NAMES},
           "merge": {layer: [0, 0] for layer in MERGED}, "tower_terms_out": 0}
    for part in parts:
        for name, (calls, self_s) in part["spans"].items():
            out["spans"][name][0] += calls
            out["spans"][name][1] += self_s
        for layer, (a, b) in part["merge"].items():
            out["merge"][layer][0] += a
            out["merge"][layer][1] += b
        out["tower_terms_out"] += part["tower_terms_out"]
    return out
