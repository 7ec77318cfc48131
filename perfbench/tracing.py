"""Spans around weaklg's layer boundaries, recorded from outside the package.

Each wrapped function is rebound everywhere it is bound: in every loaded
weaklg module and on LaurentPolynomial; the workloads call the library
through module attributes.  So calls the library makes internally
(verify_entry calling constant_term_series, find_minimal_annihilator calling
find_annihilator) are caught too, without changing anything under src/.
A call made while the
innermost open span already belongs to the same layer (recursion, __sub__
calling __add__) is counted but opens no new span, so a layer's self time
is not split across copies of itself.
"""

from __future__ import annotations

import gzip
import json
import math
import sys
import time
from typing import Callable

# Layer name -> (module, attribute) pairs it wraps.  Methods are given as
# "Class.method".  The order is the report order.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("weaklg.cli", "main"),),
    "corpus.load": (("weaklg.corpus", "load_corpus"), ("weaklg.corpus", "get_entry")),
    "corpus.verify": (("weaklg.corpus", "verify_entry"),),
    "series.kernel": (("weaklg.series", "constant_term_series"),),
    "series.closed_form": (("weaklg.series", "ci_period_closed_form"),),
    "series.shift": (("weaklg.series", "shifted_series"), ("weaklg.series", "normalize_shift")),
    "polytopes.hull": (("weaklg.polytopes", "newton_polytope"),),
    "polytopes.dual": (("weaklg.polytopes", "dual_polytope"),),
    "polytopes.volume": (("weaklg.polytopes", "normalized_volume"),),
    "polytopes.semiweak": (("weaklg.polytopes", "semiweak_check"),),
    "polytopes.ehrhart": (("weaklg.polytopes", "ehrhart_counts"),),
    "annihilator.find": (("weaklg.annihilator", "find_annihilator"),),
    "expr.parse": (("weaklg.expr", "parse"),),
    "expr.to_laurent": (("weaklg.expr", "to_laurent"),),
    "expr.substitute": (("weaklg.expr", "substitute"),),
    "expr.identity": (("weaklg.expr", "random_equal"),),
    "laurent.arith": tuple(
        ("weaklg.laurent", f"LaurentPolynomial.{m}") for m in ("__mul__", "__pow__", "__add__", "__sub__")
    ),
    "constructors.build": tuple(
        ("weaklg.constructors", name)
        for name in ("grassmannian_hyperplane_system", "weighted_hypersurface_system", "hori_vafa_ci")
    ),
    "constructors.eliminate": (("weaklg.constructors", "eliminate"),),
}


def _box_points(polytope, kmax: int) -> int:
    """Box points ehrhart_counts scans for k = 1..kmax: the integer points of
    the bounding box of k*P, computed from the vertices."""
    total = 0
    for k in range(1, kmax + 1):
        size = 1
        for c in range(polytope.dim):
            coords = [v[c] for v in polytope.vertices]
            size *= max(0, math.floor(max(coords) * k) - math.ceil(min(coords) * k) + 1)
        total += size
    return total


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self) -> None:
        # span: [layer, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.item]
                spans.append(span)
                stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        """Rebind every LAYERS function wherever a loaded module binds it."""
        import weaklg.laurent
        import weaklg.polytopes

        hull = weaklg.polytopes.newton_polytope
        counters = self._counters(hull)
        modules = [m for name, m in sys.modules.items() if name == "weaklg" or name.startswith("weaklg.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                if attr.startswith("LaurentPolynomial."):
                    cls = weaklg.laurent.LaurentPolynomial
                    original = getattr(cls, attr.split(".", 1)[1])
                    wrapped = self.wrap(layer, original, counters.get(attr))
                    for name, value in list(vars(cls).items()):
                        if value is original:
                            setattr(cls, name, wrapped)
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapped = self.wrap(layer, original, counters.get(attr))
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)
        self._hull = hull
        self._hull_start = hull.cache_info()

    def _counters(self, hull) -> dict[str, Callable]:
        add = self.add

        def kernel(args, kwargs, series):
            add("series.kernel_calls", 1)
            add("series.support_in", len(args[0].terms))
            add("series.coeffs_out", len(series.coeffs))
            bits = max(abs(c).bit_length() for c in series.coeffs)
            self.counts["series.max_coeff_bits"] = max(self.counts.get("series.max_coeff_bits", 0), bits)

        def hull_count(args, kwargs, polytope):
            # Only misses run the hull; hits return the cached polytope.
            if hull.cache_info().misses != self._last_misses:
                self._last_misses = hull.cache_info().misses
                add("polytopes.hull_points_in", len(args[0].terms))
                add("polytopes.facets_out", len(polytope.facets))

        def ehrhart(args, kwargs, result):
            polytope = args[0]
            kmax = args[1] if len(args) > 1 else kwargs["kmax"]
            add("polytopes.ehrhart_box_points", _box_points(polytope, kmax))
            add("polytopes.ehrhart_lattice_points", sum(result.counts[1:]))

        def annihilator(args, kwargs, result):
            order = args[1] if len(args) > 1 else kwargs["order"]
            degree = args[2] if len(args) > 2 else kwargs["degree"]
            add("annihilator.cells", 1)
            add("annihilator.unknowns", (order + 1) * (degree + 1))

        def load(args, kwargs, result):
            add("corpus.load_calls", 1)

        def identity(args, kwargs, result):
            add("expr.identity_trials", result.trials)

        def arith(args, kwargs, result):
            add("laurent.arith_calls", 1)

        self._last_misses = hull.cache_info().misses
        return {
            "constant_term_series": kernel,
            "newton_polytope": hull_count,
            "ehrhart_counts": ehrhart,
            "find_annihilator": annihilator,
            "load_corpus": load,
            "random_equal": identity,
            **{f"LaurentPolynomial.{m}": arith for m in ("__mul__", "__pow__", "__add__", "__sub__")},
        }

    def layer_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer, and the time covered by outermost spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = {}
        covered = 0.0
        for (layer, start, end, parent, _), inner in zip(self.spans, child):
            selfs[layer] = selfs.get(layer, 0.0) + (end - start) - inner
            if parent < 0:
                covered += end - start
        return selfs, covered

    def hull_cache(self) -> tuple[int, int]:
        """(hits, misses) of newton_polytope's cache since install()."""
        now = self._hull.cache_info()
        return now.hits - self._hull_start.hits, now.misses - self._hull_start.misses

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"fields": ["layer", "start", "end", "parent", "item"], "spans": self.spans}, out)
