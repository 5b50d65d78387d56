"""Spans and counters around the public functions of each ``drtaut`` layer.

The tracer replaces functions, never classes, with timing wrappers from
the outside.  A function imported elsewhere with ``from .x import f`` is
bound under its own name in every consumer module too, so each wrapper is
installed wherever the original object is bound inside the package.  A
span's self time is its duration minus the time of the spans it calls.
Cache hits are ``cache_info()`` deltas around each call.

A target that no longer exists is listed by name in ``missing``, and the
metrics that depend on it are left out of the result, never reported as
zero.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter

# Span name -> functions (module, attribute) whose calls it times.
SPANS = {
    "graphs.enumerate": [("graphs", "enumerate_stable_graphs")],
    "graphs.canonical_key": [("graphs", "canonical_key")],
    "graphs.aut": [("graphs", "automorphism_order")],
    "graphs.canonical_decorated": [("graphs", "canonical_form_decorated")],
    "tautclass.series": [("tautclass", "series_mul"), ("tautclass", "series_exp")],
    "weightings.sums": [
        ("weightings", "edge_profile_sums"),
        ("weightings", "enumerate_weightings"),
        ("weightings", "lattice_sum"),
    ],
    "weightings.fit": [("weightings", "certified_fit")],
    "exact.interpolate": [("exact", "interpolate")],
    "pixton.class": [("pixton", "pixton_class"), ("pixton", "pixton_fixed_r")],
    "chiodo.pushforward": [("chiodo", "chiodo_pushforward")],
    "intersect.pair": [("intersect", "pair_with_psi")],
}

# Counted without a span, so their time stays with the calling span.
# ``output`` collects the terms of the classes the pipeline returns.
COUNTED = {
    "chiodo.edge_factor": [("chiodo", "edge_factor_coefficients")],
    "output": [
        ("pixton", "pixton_class"),
        ("pixton", "pixton_fixed_r"),
        ("chiodo", "chiodo_constant"),
    ],
}

# Per-layer metric -> (unit, counters it is computed from).
PER_LAYER = {
    **{
        f"{span}.{field}": (unit, [f"{span}.{field}"])
        for span in SPANS
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    "graphs.enumerate.graphs": ("count", ["graphs.enumerate.graphs"]),
    "graphs.enumerate.cache_hits": ("count", ["graphs.enumerate.cache_hits"]),
    "graphs.enumerate.yield": (
        "ratio",
        ["graphs.enumerate.graphs", "graphs.canonical_key.in_enumerate"],
    ),
    "tautclass.canon.useful": (
        "ratio",
        ["output.terms", "graphs.canonical_decorated.calls"],
    ),
    "weightings.sums.visited": ("count", ["weightings.sums.visited"]),
    "weightings.fit.retries": ("count", ["weightings.fit.retries"]),
    "weightings.fit.failures": ("count", ["weightings.fit.failures"]),
    "exact.interpolate.nodes": ("count", ["exact.interpolate.nodes"]),
    "chiodo.edge_factor.calls": ("count", ["chiodo.edge_factor.calls"]),
    "chiodo.edge_factor.cache_hits": ("count", ["chiodo.edge_factor.cache_hits"]),
    "run.cpu_s": ("s", []),
    "run.unattributed_s": ("s", []),
    "run.trace_overhead_s": ("s", []),
}

RATIOS = {"graphs.enumerate.yield", "tautclass.canon.useful"}


def weightings_visited(graph, r: int, dr, with_loops: bool) -> int:
    """Weightings an enumeration walks, computed from the graph and ``r``.

    ``enumerate_weightings`` walks every free residue, loops included;
    ``edge_profile_sums`` sums loop residues in closed form and walks the
    non-loop edges off the spanning tree only.  Zero when the global
    congruence fails mod ``r``.
    """
    if (dr.twist * (2 * graph.total_genus - 2 + graph.n_legs) - sum(dr.parts)) % r:
        return 0
    free = graph.n_edges - graph.n_vertices + 1
    if not with_loops:
        free -= sum(1 for u, v in graph.edges if u == v)
    return r**free


class Tracer:
    """Installs the wrappers and accumulates flat counters by name."""

    def __init__(self):
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        # Each frame is [span name, time spent in spans it called].
        self._stack = [["root", 0.0]]

    def install(self) -> None:
        for name, targets in SPANS.items():
            for mod, attr in targets:
                self._install(name, mod, attr, timed=True)
        for name, targets in COUNTED.items():
            for mod, attr in targets:
                self._install(name, mod, attr, timed=False)

    def _install(self, name: str, mod: str, attr: str, timed: bool) -> None:
        try:
            fn = getattr(importlib.import_module(f"drtaut.{mod}"), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"drtaut.{mod}.{attr}")
            return
        call = self._counted_call(name, mod, attr, fn)
        wrapper = self._timed(name, call) if timed else call
        for modname, module in list(sys.modules.items()):
            if modname == "drtaut" or modname.startswith("drtaut."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def _register(self, *keys: str) -> None:
        for key in keys:
            self.counts.setdefault(key, 0)

    def _timed(self, name: str, call):
        stack, counts = self._stack, self.counts
        self._register(f"{name}.self_s")

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                counts[f"{name}.self_s"] += duration - frame[1]
                stack[-1][1] += duration

        return wrapper

    def _counted_call(self, name: str, mod: str, attr: str, fn):
        """``fn`` with its call count and the counters specific to it."""
        counts, stack = self.counts, self._stack
        key = f"{name}.{{}}".format
        if name != "output":
            self._register(key("calls"))
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []

        def needs(*wanted: str) -> bool:
            if set(wanted) <= set(params):
                return True
            self.missing.append(f"drtaut.{mod}.{attr}({', '.join(wanted)})")
            return False

        def bind(args, kwargs):
            bound = dict(zip(params, args))
            bound.update(kwargs)
            return bound

        extra = None
        if name == "output":
            self._register("output.terms")

            def extra(args, kwargs, result):
                counts["output.terms"] += result.n_terms

        elif attr in ("enumerate_stable_graphs", "edge_factor_coefficients"):
            cached = hasattr(fn, "cache_info")
            if cached:
                self._register(key("cache_hits"))
            else:
                self.missing.append(f"drtaut.{mod}.{attr}.cache_info")
            if attr == "enumerate_stable_graphs":
                self._register(key("graphs"))

            def call(*args, **kwargs):
                counts[key("calls")] += 1
                if not cached:
                    result = fn(*args, **kwargs)
                    if attr == "enumerate_stable_graphs":
                        counts[key("graphs")] += len(result)
                    return result
                before = fn.cache_info()
                result = fn(*args, **kwargs)
                after = fn.cache_info()
                counts[key("cache_hits")] += after.hits - before.hits
                if attr == "enumerate_stable_graphs" and after.misses > before.misses:
                    counts[key("graphs")] += len(result)
                return result

            return call
        elif attr == "canonical_key":
            self._register("graphs.canonical_key.in_enumerate")

            def extra(args, kwargs, result):
                # stack[-1] is this call's own span; its caller sits below.
                if stack[-2][0] == "graphs.enumerate":
                    counts["graphs.canonical_key.in_enumerate"] += 1

        elif attr in ("edge_profile_sums", "enumerate_weightings"):
            if needs("graph", "r", "dr"):
                self._register(key("visited"))
                with_loops = attr == "enumerate_weightings"

                def extra(args, kwargs, result):
                    a = bind(args, kwargs)
                    counts[key("visited")] += weightings_visited(a["graph"], a["r"], a["dr"], with_loops)

        elif attr == "interpolate":
            if needs("samples"):
                self._register(key("nodes"))

                def extra(args, kwargs, result):
                    counts[key("nodes")] += len(bind(args, kwargs)["samples"])

        elif attr == "certified_fit":
            if needs("evaluate", "degree_bound", "r_min", "n_verify"):
                return self._fit_call(name, fn)

        def call(*args, **kwargs):
            if name != "output":
                counts[key("calls")] += 1
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return call

    def _fit_call(self, name: str, fn):
        """Count fits, retries (the doubled window) and failures.

        A fit evaluates at most ``degree_bound + 1 + n_verify`` moduli on
        its first window; any evaluation past that is the retry.
        """
        counts = self.counts
        signature = inspect.signature(fn)
        self._register(f"{name}.retries", f"{name}.failures")

        def call(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            evaluate = a["evaluate"]
            evaluations = [0]

            def counted(r):
                evaluations[0] += 1
                return evaluate(r)

            a["evaluate"] = counted
            first_window = a["degree_bound"] + 1 + a["n_verify"]
            try:
                poly, divisible = fn(*bound.args, **bound.kwargs)
            except ValueError:
                counts[f"{name}.failures"] += 1
                raise
            finally:
                if evaluations[0] > first_window:
                    counts[f"{name}.retries"] += 1
            if not divisible:
                counts[f"{name}.failures"] += 1
            return poly, divisible

        return call

    @property
    def spans_s(self) -> float:
        """Total duration of the top-level spans."""
        return self._stack[0][1]


def layer_metrics(counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics computable from ``counts``; the rest are absent.

    ``run.*`` metrics come from the pass itself and are added by the caller.
    """
    out: dict[str, float] = {}
    for metric, (_unit, sources) in PER_LAYER.items():
        if not sources or any(s not in counts for s in sources):
            continue
        if metric in RATIOS:
            num, den = (counts[s] for s in sources)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = counts[sources[0]]
    return out
