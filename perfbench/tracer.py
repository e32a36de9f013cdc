"""Spans and counts recorded around cohh's public functions, from outside.

`Tracer.install()` replaces each target function with a wrapper in every
cohh module that binds it (so the copy `structure` gets from
`from .complexes import induced_operator` is wrapped too), and each
target method on its class.
`Tracer.restore()` puts every original binding back.  Nothing under
`src/` is edited.

Three kinds of target:
  * SPAN  - a timed span (name, start, end, parent, run id, stats);
  * COUNT - a bare call counter, for functions called millions of times;
  * PATH  - a tag: the innermost open span records which elimination
    path ran under it (layers.py counts the tags on `linalg.rref`).

Spans are kept in memory and written out by the caller at the end.
"""

import sys
import time
from collections import Counter

SPAN, COUNT, PATH = "span", "count", "path"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rref_stats(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return {"rows": m.nrows, "cols": m.ncols, "nnz": len(m.entries),
            "rank": len(result[0])}


def _rref_mod_p_stats(args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "a").shape
    return {"cells": rows * cols, "rank": int(result)}


def _induced_operator_stats(args, kwargs, result):
    return {"columns": len(_arg(args, kwargs, 4, "source").degree_of)}


def _solve_stats(args, kwargs, result):
    return {"targets": len(result)}


def _normalized_complex_stats(args, kwargs, result):
    amb = result.ambient
    return {"normalized": sum(t.total_dim() for t in result.terms),
            "ambient": sum(amb.space(s).total_dim()
                           for s in range(len(result.terms)))}


def _cobar_level_space_stats(args, kwargs, result):
    return {"basis": len(result)}


# (module, attribute path, kind, span name or path label, stats hook)
TARGETS = (
    ("cli", "parse_spec", SPAN, "cli.parse_spec", None),
    ("cli", "build_coalgebra", SPAN, "cli.build_coalgebra", None),
    ("cli", "_render", SPAN, "cli.render", None),
    ("complexes", "normalized_complex", SPAN, "complexes.normalized_complex",
     _normalized_complex_stats),
    ("complexes", "induced_operator", SPAN, "complexes.induced_operator",
     _induced_operator_stats),
    ("complexes", "HomologyTable.__init__", SPAN, "complexes.HomologyTable",
     None),
    ("_kernels", "rref_mod_p", SPAN, "kernels.rref_mod_p", _rref_mod_p_stats),
    ("linalg", "rref", SPAN, "linalg.rref", _rref_stats),
    ("linalg", "solve", SPAN, "linalg.solve", _solve_stats),
    ("linalg", "kernel_basis", SPAN, "linalg.kernel_basis", None),
    ("linalg", "homology_reps", SPAN, "linalg.homology_reps", None),
    ("linalg", "reduce_mod_span", COUNT, "linalg.reduce_mod_span", None),
    ("linalg", "_rref_modp_dense", PATH, "modp_dense", None),
    ("linalg", "_rref_fraction_dense", PATH, "q_dense", None),
    ("linalg", "_rref_sparse", PATH, "sparse", None),
    ("graded", "GradedMap.compose", SPAN, "graded.compose", None),
    ("graded", "GradedMap.matrix", SPAN, "graded.matrix", None),
    ("coalgebra", "GradedCoalgebra.iterated_comult", COUNT,
     "coalgebra.iterated_comult", None),
    ("comodule", "cobar_level_space", SPAN, "comodule.cobar_level_space",
     _cobar_level_space_stats),
    ("comodule", "cobar_differential", SPAN, "comodule.cobar_differential",
     None),
    ("structure", "sh_map", SPAN, "structure.sh_map", None),
    ("structure", "CircleStructure.class_coproduct", SPAN,
     "structure.class_coproduct", None),
    ("structure", "levelwise_comult", SPAN, "structure.levelwise_comult",
     None),
    ("structure", "AmbientProjector.project", SPAN, "structure.project", None),
    ("structure", "homology_multiplication", SPAN,
     "structure.homology_multiplication", None),
    ("spectral", "build_e2", SPAN, "spectral.build_e2", None),
    ("spectral", "e2_structure_audit", SPAN, "spectral.e2_structure_audit",
     None),
    ("spectral", "_quotient_by_products", SPAN,
     "spectral.quotient_by_products", None),
    ("spectral", "_primitive_dims", SPAN, "spectral.primitive_dims", None),
)

# Every elimination path label, reported even when its count is zero.
PATHS = tuple(t[3] for t in TARGETS if t[2] == PATH)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "stats")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.stats = {}

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.run,
                self.stats]


class Tracer:
    """Spans and counters for one process; create one per traced run."""

    def __init__(self, run_id="", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def span_wrapper(self, name, fn, stats=None):
        """fn wrapped in a span; stats(args, kwargs, result) adds to it."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.run_id)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()
            if stats is not None:
                span.stats.update(stats(args, kwargs, result))
            return result
        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        return self.span_wrapper(name, fn)(*args, **kwargs)

    def count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def path_wrapper(self, label, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._stack:
                tracer.spans[tracer._stack[-1]].stats["path"] = label
            return fn(*args, **kwargs)
        return wrapper

    def wrapper_for(self, kind, name, fn, stats=None):
        if kind == SPAN:
            return self.span_wrapper(name, fn, stats)
        if kind == COUNT:
            return self.count_wrapper(name, fn)
        return self.path_wrapper(name, fn)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, value):
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS, package="cohh"):
        """Wrap every target in every loaded module of package."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == package or n.startswith(package + "."))]
        for modname, attr, kind, name, stats in targets:
            home = sys.modules[f"{package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth,
                            self.wrapper_for(kind, name, getattr(cls, meth),
                                             stats))
                continue
            original = getattr(home, attr)
            wrapped = self.wrapper_for(kind, name, original, stats)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def restore(self):
        """Put back every binding install() replaced, newest first."""
        while self._patches:
            owner, attr, had, value = self._patches.pop()
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- export ----------------------------------------------------------

    def export(self):
        return {"spans": [s.as_row() for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans):
    """Per span, its duration minus the time its direct children cover.

    spans are rows [name, start, end, parent, run, stats]; children run
    on the same thread inside their parent, so they never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c
            for (_, start, end, _, _, _), c in zip(spans, covered)]
