"""Mod-r weightings on stable graphs and exact polynomial fitting in r.

A weighting mod ``r`` assigns a residue to every half-edge so that legs
carry the prescribed values ``a_i mod r``, the two halves of every edge add
to ``0 mod r``, and the residues at each vertex ``v`` add to
``k (2 g_v - 2 + deg v) mod r``.  When the global congruence
``sum a_i = k (2g - 2 + n) mod r`` holds there are exactly ``r^b`` of them,
``b`` the first Betti number, and none otherwise.

One residue solve serves every route.  A solve plan fixes a BFS spanning
tree over the non-loop edges, solved leaves first; each non-loop edge off
it has a free residue ``x_f``, and edge ``t``'s residue is
``D_t + sum_f slopes[t][f] x_f``, each slope in ``{-1, 0, 1}``.  The
plan holds the slopes; :func:`_class_residues`, the one integer tree
solve, gives ``D`` and checks the root's congruence.  The mod-r walk
and the exact route both read this map.
One consumer walks the solutions: :func:`edge_profile_sums` sums products
of per-edge residue tables.  Pixton's graph sum, Chiodo's pushforward and
constant term, and the Chern-character route all reach the weightings
through it.

It walks the simple quotient graph, built with its plan once per graph
and cached.  Loops leave the quotient and are summed in closed form.  The
``m`` parallel edges between ``u`` and ``v`` meet the vertex congruences
only through the sum ``s`` of their residues at ``u``, so they become one
edge whose table is the cyclic convolution of theirs.  A weighting sum
then costs ``r^b'`` steps, ``b'`` the quotient's Betti number, instead of
``r^b``; the vertex targets are still those of the original graph.

Sums of polynomial observables over all weightings are polynomials in ``r``
for large ``r``.  The observables are half-edge monomials: ``(a, b)`` on
an edge is ``w^a (r - w)^b``, ``w`` in ``[0, r)`` the residue on its first
half-edge.  Pixton's edge power ``x^p``, ``x = w((r-w) mod r)``, is
``(p, p)``, and its sums are divisible by ``r^b``; Chiodo's edge factor,
a polynomial in ``w/r``, needs ``w^q``, that is ``(q, 0)``.  One r-free
route, :func:`profile_weights`, takes edge weights that are sums of
observables ``c r^{-a-b} (a, b)`` and gives each profile's sum, times
``r^{-b}``, as the integer numerators of its coefficients of ``r^{-cap}``
to ``r^0`` over one denominator.  When the quotient is a tree
(:func:`tree_profile_weights`), no residue is free and every class
residue is ``D mod r``, with ``|D|`` below :func:`default_r_min`; a
parallel class's convolution is a polynomial in its residue and ``r``.
A loop's sum ``sum_{w<r} w^a (r-w)^b`` is the class of its observable
and the unit ``(0, 0)`` at residue 0, so each sum is a product of class
polynomials, with no sampling, and each class weight is contracted once
per graph sum.  Otherwise :func:`sampled_profile_weights` makes one
:func:`certified_fit` per graph: each edge weight times a power of ``r``
is one integer table per modulus (:func:`key_tables`), and each
profile's sum is fitted on consecutive moduli and checked on fresh
ones.  Both routes give the one format, so they compare cross-multiplied
by their denominators.  No ``Fraction`` is formed from a sample; only
the coefficient a caller keeps becomes one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exact import (
    _over_common_denominator,
    bernoulli_number,
    forward_differences,
    newton_numerators,
)
from .graphs import first_betti, require_stable_type

__all__ = [
    "DRVector",
    "EdgeTerms",
    "key_tables",
    "edge_profile_sums",
    "certified_fit",
    "sampled_profile_weights",
    "tree_profile_weights",
    "profile_weights",
]


class DRVector:
    """Ramification data: a genus, integer parts ``a_i``, and a twist ``k``.

    The balanced case ``sum a_i = k (2g - 2 + n)`` is the one every
    varying-r computation needs; fixed-r operations only need the equation
    to hold mod r.  ``defect`` measures the failure of exact balance.
    Immutable: vectors compare, hash and print by ``(genus, parts, twist)``.
    """

    __slots__ = ("genus", "parts", "twist")

    def __init__(self, genus: int, parts: Sequence[int], twist: int = 0):
        object.__setattr__(self, "genus", int(genus))
        object.__setattr__(self, "parts", tuple(int(a) for a in parts))
        object.__setattr__(self, "twist", int(twist))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genus, self.parts, self.twist) == (other.genus, other.parts, other.twist)
        return NotImplemented

    def __hash__(self):
        return hash((self.genus, self.parts, self.twist))

    def __repr__(self):
        return f"DRVector(genus={self.genus!r}, parts={self.parts!r}, twist={self.twist!r})"

    def __reduce__(self):
        return DRVector, (self.genus, self.parts, self.twist)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def defect(self) -> int:
        return self.twist * (2 * self.genus - 2 + self.n) - sum(self.parts)

    @property
    def is_exact(self) -> bool:
        return self.defect == 0

    @property
    def mu(self) -> tuple[int, ...]:
        """Positive parts, sorted decreasingly."""
        return tuple(sorted((a for a in self.parts if a > 0), reverse=True))

    @property
    def nu(self) -> tuple[int, ...]:
        """Absolute values of the negative parts, sorted decreasingly."""
        return tuple(sorted((-a for a in self.parts if a < 0), reverse=True))

    @property
    def degree(self) -> int:
        """Total positive weight ``sum mu_i``."""
        return sum(self.mu)

    def require_exact(self) -> None:
        """Raise ``ValueError`` unless the type is stable, checked first, and balanced exactly."""
        require_stable_type(self.genus, self.n)
        if not self.is_exact:
            raise ValueError(
                f"parts must balance the twist exactly: defect {self.defect}"
            )

    def require_modulus(self, r: int) -> None:
        """Raise ``ValueError`` unless ``r > 0`` and the parts balance the twist mod ``r``.

        Otherwise no weighting mod ``r``, and no ``r``-th root, exists.
        """
        if r <= 0:
            raise ValueError("modulus must be positive")
        if self.defect % r:
            raise ValueError(f"no r-th roots exist: k(2g-2+n) - sum(a) is not divisible by {r}")


class _SolvePlan(NamedTuple):
    """How to solve one graph's vertex congruences, fixed before any residue.

    The plan solves over ``n_edges`` edges, whose half-edges ``2t`` and
    ``2t + 1`` come first, followed by one half-edge per leg.  ``steps``
    holds ``(child, child half-edge, other half-edges at child)`` for each
    tree edge, leaves first; ``free`` the non-loop edges off the tree;
    ``root`` the half-edges at vertex 0.
    ``excess[v]`` is ``2 g_v - 2 + deg v`` in the graph itself, whatever
    edges the plan solves over: vertex ``v``'s residues add to
    ``k excess[v] mod r``.  ``slopes[t][f]`` is the coefficient of the
    free residue of edge ``free[f]`` in edge ``t``'s residue at ``2t``.
    """

    steps: tuple[tuple[int, int, tuple[int, ...]], ...]
    free: tuple[int, ...]
    root: tuple[int, ...]
    n_edges: int
    excess: tuple[int, ...]
    slopes: tuple[tuple[int, ...], ...]


def _solve_plan(graph, edges: Sequence[tuple[int, int]]) -> _SolvePlan:
    """The plan for a BFS spanning tree over non-loop edges, rooted at vertex 0.

    ``edges`` are on the graph's vertices and legs: :func:`_quotient`
    passes one edge ``(u, v)`` per parallel class.
    """
    V = graph.n_vertices
    at: list[list[int]] = [[] for _ in range(V)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for t, (u, v) in enumerate(edges):
        at[u].append(2 * t)
        at[v].append(2 * t + 1)
        if u != v:
            adj[u].append((v, t))
            adj[v].append((u, t))
    for i, v in enumerate(graph.legs):
        at[v].append(2 * len(edges) + i)
    seen = {0}
    tree: list[tuple[int, int]] = []
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w, t in adj[v]:
            if w not in seen:
                seen.add(w)
                tree.append((t, w))
                queue.append(w)
    if len(seen) != V:
        raise ValueError("graph is not connected")
    tree_edges = {t for t, _ in tree}
    free = tuple(t for t, (u, v) in enumerate(edges) if u != v and t not in tree_edges)
    # slope[h]: the coefficients of the free residues in half-edge h's residue.
    slope = [(0,) * len(free)] * (2 * len(edges) + len(graph.legs))
    for f, t in enumerate(free):
        slope[2 * t] = tuple(int(i == f) for i in range(len(free)))
        slope[2 * t + 1] = tuple(-x for x in slope[2 * t])
    steps = []
    for t, child in reversed(tree):
        h_child = 2 * t if edges[t][0] == child else 2 * t + 1
        others = tuple(h for h in at[child] if h != h_child)
        steps.append((child, h_child, others))
        if free:  # on a tree every slope is ()
            slope[h_child] = tuple(-sum(slope[h][f] for h in others) for f in range(len(free)))
            slope[h_child ^ 1] = tuple(-x for x in slope[h_child])
    degree = [0] * V  # in the graph itself, a loop counted twice
    for v in itertools.chain(*graph.edges, graph.legs):
        degree[v] += 1
    excess = tuple(2 * g - 2 + deg for g, deg in zip(graph.genera, degree))
    slopes = tuple(slope[: 2 * len(edges) : 2])
    return _SolvePlan(tuple(steps), free, tuple(at[0]), len(edges), excess, slopes)


class _Quotient(NamedTuple):
    """A graph's simple quotient: one edge per class of parallel non-loop edges.

    ``classes[c]`` lists the edges merged into quotient edge ``c``; since
    edges are stored as sorted ``(min, max)`` pairs, each class is a run of
    equal pairs and every member has its half-edge ``2t`` at the class's
    first vertex.  ``loops`` are the graph's loop edges, which the quotient
    drops.  ``plan`` solves the quotient on the graph's vertices and legs.
    """

    classes: tuple[tuple[int, ...], ...]
    loops: tuple[int, ...]
    plan: _SolvePlan


@lru_cache(maxsize=None)
def _quotient(graph) -> _Quotient:
    classes: dict[tuple[int, int], list[int]] = {}
    loops = []
    for t, (u, v) in enumerate(graph.edges):
        if u == v:
            loops.append(t)
        else:
            classes.setdefault((u, v), []).append(t)
    return _Quotient(
        tuple(tuple(ts) for ts in classes.values()), tuple(loops), _solve_plan(graph, list(classes))
    )


def _require_type(graph, dr: DRVector) -> None:
    if graph.n_legs != dr.n:
        raise ValueError("marking count does not match the ramification vector")
    if graph.total_genus != dr.genus:
        raise ValueError("genus does not match the ramification vector")


def _class_residues(dr: DRVector, plan: _SolvePlan) -> list[int]:
    """Integers ``D_t``: edge ``t``'s residue at half-edge ``2t`` when every free residue is 0.

    The one tree solve of the vertex congruences, over the integers with
    targets ``k excess[v]`` and the parts ``a_i`` themselves.  The root's
    residues then exceed its target by ``-dr.defect``; ``ArithmeticError``
    is raised if they do not.  A tree edge has ``D_t = +-(k E_S - A_S)``
    for the excess and parts on its side ``S`` away from the root, so
    ``|D_t|`` is below :func:`default_r_min`; a free edge has 0.
    """
    values = [0] * (2 * plan.n_edges) + list(dr.parts)
    for child, h_child, others in plan.steps:
        w = dr.twist * plan.excess[child] - sum(values[h] for h in others)
        values[h_child] = w
        values[h_child ^ 1] = -w
    if sum(values[h] for h in plan.root) - dr.twist * plan.excess[0] != -dr.defect:
        raise ArithmeticError("root congruence failed after the integer tree solve")
    return values[: 2 * plan.n_edges : 2]


def _solutions(r: int, dr: DRVector, plan: _SolvePlan) -> Iterator[list[int]]:
    """Every solution whose loops carry 0: ``(D_t + sum_f slopes[t][f] x_f) mod r`` per plan edge.

    ``D`` comes from :func:`_class_residues`, the free residues ``x_f`` run
    in ``itertools.product`` order, and there is no solution unless
    ``dr.defect = 0 mod r``.  A loop adds ``0 mod r`` at its vertex, so
    these solutions hold for any loop residues.
    """
    if dr.defect % r:
        return
    residues = _class_residues(dr, plan)
    for assign in itertools.product(range(r), repeat=len(plan.free)):
        yield [(D + sum(map(mul, slope, assign))) % r for D, slope in zip(residues, plan.slopes)]


def _top(pairs: Sequence[tuple[tuple[int, int], int]]) -> int:
    """The largest observable degree ``a + b`` among an edge key's terms, 0 for none."""
    return max((a + b for (a, b), _ in pairs), default=0)


def key_tables(r: int, terms: Mapping, keys: Iterable) -> dict:
    """``{key: table}``: each edge key's weight at modulus ``r`` times ``r^top``, in integers.

    ``terms[key]`` lists pairs ``(observable, c)``, the edge weight
    ``sum c r^{-a-b} w^a (r - w)^b`` at the residue ``w`` in ``[0, r)`` on
    the edge's first half-edge (``0^0 = 1``), and ``top`` is its largest
    ``a + b`` (:func:`_top`).  Pixton's ``x^p`` is ``((p, p), 1)``.
    """
    out = {}
    for key in keys:
        top, table = _top(terms[key]), [0] * r
        for (a, b), c in terms[key]:
            c *= r ** (top - a - b)
            table = [x + c * w**a * (r - w) ** b for w, x in enumerate(table)]
        out[key] = table
    return out


class _Convolved(dict):
    """``s -> sum_x prefix[x] * last[(s - x) mod r]``, computed on first lookup.

    ``prefix`` may itself be a :class:`_Convolved`, filled as it is read.
    """

    __slots__ = ("prefix", "last")

    def __init__(self, prefix, last: Sequence):
        super().__init__()
        self.prefix = prefix
        self.last = last

    def __missing__(self, s: int):
        prefix, last = self.prefix, self.last
        value = 0
        for x in range(len(last)):
            p = prefix[x]
            if p:
                # s - x lies in (-r, r), and a negative index wraps around mod r.
                value += p * last[s - x]
        self[s] = value
        return value


def edge_profile_sums(graph, r: int, dr: DRVector, profiles: Sequence[Sequence]) -> list:
    """Sums of ``prod_e T_e[w_e]`` over all weightings, for many profiles.

    A profile holds one entry per edge: a table of ``r`` values indexed
    by the residue ``w_e`` on the edge's first half-edge ``2t``.
    :func:`key_tables` builds the tables of edge weights, such as the
    ``x_e^p`` of the graph-sum formula.

    The sum runs over the graph's simple quotient (:func:`_quotient`,
    built once per graph).  The edges of a parallel class reach the
    vertex congruences only through the sum ``s`` of their residues, so
    the class becomes one edge with the table
    ``H(s) = sum over w_1 + ... + w_m = s (mod r) of prod_i T_i(w_i)``.
    ``H`` folds the tables in one at a time.  Each partial convolution is
    keyed on the identities of its tables, so profiles that share table
    objects (as :func:`key_tables` and Chiodo's pushforward do) share
    it, and each entry is computed when first read: the walk reads ``H``
    only at the residues it visits.  A loop's residue is unconstrained,
    so it contributes the sum of its table.  All profiles share one walk
    of the quotient's solutions.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    _require_type(graph, dr)
    quotient = _quotient(graph)
    merged: dict[tuple[int, ...], Sequence] = {}  # table ids -> class table
    factors, scales = [], []
    for prof in profiles:
        pairs = []
        for c, ts in enumerate(quotient.classes):
            key: tuple[int, ...] = ()
            for table in sorted((prof[t] for t in ts), key=id):
                key += (id(table),)
                if key not in merged:
                    merged[key] = _Convolved(merged[key[:-1]], table) if len(key) > 1 else table
            pairs.append((c, merged[key]))
        factors.append(pairs)
        scales.append(prod(sum(prof[t]) for t in quotient.loops))
    partial = [0] * len(profiles)
    for residues in _solutions(r, dr, quotient.plan):
        for i, pairs in enumerate(factors):
            term = 1
            for c, table in pairs:
                term *= table[residues[c]]
            partial[i] += term
    return [total * scale for total, scale in zip(partial, scales)]


# -- certified polynomial fitting -------------------------------------


def default_r_min(dr: DRVector) -> int:
    spread = sum(abs(a) for a in dr.parts) + abs(dr.twist) * abs(2 * dr.genus - 2 + dr.n)
    return max(2, spread) + 1


def certified_fit(
    evaluate: Callable[[int], Mapping[Hashable, Fraction]],
    degree_bound: int,
    r_min: int,
    n_verify: int = 2,
    label: str = "fit",
    betti: int = 0,
):
    """Fit every key of ``evaluate(r)`` as a polynomial in ``r`` and certify it.

    ``evaluate(r)`` maps keys to rationals, a missing key meaning 0; it is
    called once per consecutive modulus from ``r_min``.  Every key is fitted
    on ``degree_bound + 1`` moduli and checked at the next ``n_verify``: the
    fit matches there exactly when the forward differences of orders
    ``degree_bound + 1`` to ``degree_bound + n_verify`` vanish, so the check
    is subtraction only, and a key seen only there fails.  On any failure
    the window doubles once.  The fit is the Newton form on the window's
    differences (:func:`~drtaut.exact.newton_numerators`).  Returns
    ``({key: (nums, den)}, divisible)``, each fit in lowest terms, and
    ``divisible`` telling whether ``r^betti`` divides every fit.  Raises
    ``ValueError`` if the doubled window fails, naming ``label`` and each
    failing key by its position ``#i`` in sorted-key order.
    """
    samples: list[Mapping[Hashable, Fraction]] = []  # samples[i] is at r_min + i
    count = degree_bound + 1
    for _ in range(2):
        samples += [evaluate(rr) for rr in range(r_min + len(samples), r_min + count + n_verify)]
        keys = sorted(set().union(*samples))
        diffs = {key: forward_differences([s.get(key, 0) for s in samples]) for key in keys}
        failed = {key for key in keys if any(diffs[key][0][count:])}
        if not failed:
            break
        count *= 2
    if failed:
        names = ", ".join(f"#{i}" for i, key in enumerate(keys) if key in failed)
        raise ValueError(
            f"insufficient degree bound for {label}: fit of degree < {count // 2} "
            f"fails verification at fresh sample moduli on {names}"
        )
    fits = {key: newton_numerators(d[:count], den, r_min) for key, (d, den) in diffs.items()}
    return fits, not any(any(nums[:betti]) for nums, _ in fits.values())


def _label(graph, label: str | None) -> str:
    return label or f"edge profiles on {graph.n_vertices}v/{graph.n_edges}e graph"


def sampled_profile_weights(
    graph,
    dr: DRVector,
    profiles: Sequence[tuple],
    terms: Mapping[Hashable, Sequence[tuple[tuple[int, int], int]]],
    cap: int,
    label: str | None = None,
) -> tuple[list[list[int]], int]:
    """:func:`tree_profile_weights` on any graph, from one certified fit.

    Each edge key is one integer table per sample modulus, ``r^top`` times
    its weight (:func:`key_tables`), so a profile's weighting sum ``S(r)``
    of products of tables is a polynomial in ``r`` of degree at most
    ``shift = sum top + b``, ``b`` the Betti number, and its weight is
    ``r^{-shift} S(r)``.  One :func:`certified_fit` fits every profile's
    ``S`` up to the largest ``shift``, sampling from :func:`default_r_min`
    and verifying at two fresh moduli.  Returns ``(weights, den)`` as
    :func:`tree_profile_weights` does, ``den`` the ``lcm`` of the fits'
    denominators; no profile gives no weights.  A graph of another type
    than ``dr`` raises ``ValueError`` before any fit; a fit that fails
    verification and a sum above degree ``shift`` are failed self-checks
    and raise ``ArithmeticError``, both naming ``label``.
    """
    _require_type(graph, dr)
    b = first_betti(graph)
    name = _label(graph, label)
    keys = {key for prof in profiles for key in prof}
    shifts = [sum(_top(terms[key]) for key in prof) + b for prof in profiles]

    def evaluate(rr):
        tables = key_tables(rr, terms, keys)
        sums = edge_profile_sums(graph, rr, dr, [[tables[k] for k in prof] for prof in profiles])
        return dict(enumerate(sums))

    try:
        fits, _ = certified_fit(evaluate, max(shifts, default=b), default_r_min(dr), label=name)
    except ValueError as exc:
        raise ArithmeticError(str(exc)) from exc
    den = lcm(*(d for _, d in fits.values()))
    weights = []
    for i, shift in enumerate(shifts):
        S, d = fits[i]
        if len(S) > shift + 1:
            raise ArithmeticError(f"{name}: sum above its degree bound")
        # r^{-shift} r^j is stored at cap - shift + j, r^0 at cap.
        padded = [0] * cap + [x * (den // d) for x in S] + [0] * (shift + 1 - len(S))
        weights.append(padded[shift:])
    return weights, den


# -- exact polynomials on tree quotients --------------------------------
#
# Polynomials are kept as integer numerators over one denominator.  In r
# alone the numerators are a list, low degree first; in several variables
# a dict from the exponents (i, j, k) of w^i s^j r^k, w a summed residue
# and s a class's residue sum.  An observable (a, b) is u^a (r - u)^b at a
# residue u in [0, r).

_ONE, _W, _S, _R = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b, c), x in f.items():
        for (d, e, h), y in g.items():
            key = (a + d, b + e, c + h)
            out[key] = out.get(key, 0) + x * y
    return {key: x for key, x in out.items() if x}


def _mul_top(f: Sequence[int], g: Sequence[int], cap: int) -> list:
    """The product of two integer polynomials, low degree first: its top ``cap + 1`` coefficients."""
    n = len(f) + len(g) - 1
    low = max(0, n - cap - 1)
    out = [0] * (n - low)
    for i, x in enumerate(f):
        if x:
            for j in range(max(0, low - i), len(g)):
                out[i + j - low] += x * g[j]
    return out


@lru_cache(maxsize=None)
def _faulhaber(k: int) -> tuple[list[int], int]:
    """``sum_{w<n} w^k = (B_{k+1}(n) - B_{k+1}) / (k+1)`` in ``n``, over one denominator."""
    return _over_common_denominator(
        [Fraction(0)]
        + [comb(k + 1, j) * bernoulli_number(j) / (k + 1) for j in reversed(range(k + 1))]
    )


def _observable(u: dict, a: int, b: int) -> dict:
    """``u^a (r - u)^b``, the table of observable ``(a, b)`` at a residue ``u`` in ``[0, r)``.

    The common power is taken of ``x = u (r - u)``, so ``(p, p)`` is ``x^p``.
    """
    r_minus_u = {_R: 1}
    for key, y in u.items():
        r_minus_u[key] = r_minus_u.get(key, 0) - y
    x = _mul(u, r_minus_u)
    out = {_ONE: 1}
    for factor, times in ((x, min(a, b)), (u, a - b), (r_minus_u, b - a)):
        for _ in range(times):
            out = _mul(out, factor)
    return out


@lru_cache(maxsize=None)
def _class_poly(observables: tuple[tuple[int, int], ...]) -> tuple[dict, int]:
    """``H(s) = sum over w_1 + ... + w_m = s (mod r) of prod_i w_i^{a_i} (r-w_i)^{b_i}``.

    A polynomial in ``(s, r)`` that holds for ``0 <= s < r``, as integer
    coefficients and their denominator, folding in one table at a time.
    With ``f`` the tables folded so far and ``g`` the next, ``(f*g)(s) =
    sum_{w=0}^{s} f(w) g(s-w) + sum_{w=s+1}^{r-1} f(w) g(s-w+r)``: both
    residues lie in ``[0, r)``, so both tables are polynomials there, and
    each sum over ``w`` is a Faulhaber sum.
    """
    *head, (a, b) = observables
    if not head:
        return _observable({_S: 1}, a, b), 1
    f, f_den = _class_poly(tuple(head))
    f = {(j, 0, k): x for (_, j, k), x in f.items()}  # f(w): its s becomes w
    below = _mul(f, _observable({_S: 1, _W: -1}, a, b))
    above = _mul(f, _observable({_S: 1, _W: -1, _R: 1}, a, b))
    den = lcm(*(_faulhaber(i)[1] for i, _, _ in [*below, *above]))
    out: dict = {}

    def add(key, x):
        out[key] = out.get(key, 0) + x

    # sum_{w=0}^{s} w^i = S_i(s) + s^i, and sum_{w=s+1}^{r-1} w^i = S_i(r) - S_i(s) - s^i.
    for (i, j, k), x in below.items():
        S, d = _faulhaber(i)
        add((0, j + i, k), x * den)
        for m, c in enumerate(S):
            add((0, j + m, k), x * c * (den // d))
    for (i, j, k), x in above.items():
        S, d = _faulhaber(i)
        add((0, j + i, k), -x * den)
        for m, c in enumerate(S):
            y = x * c * (den // d)
            add((0, j + m, k), -y)
            add((0, j, k + m), y)
    common = gcd(f_den * den, *out.values())
    return {key: x // common for key, x in out.items() if x}, f_den * den // common


@lru_cache(maxsize=None)
def _class_at(observables: tuple[tuple[int, int], ...], residue: int) -> tuple[list[int], int]:
    """The class polynomial at ``s = residue mod r``, in ``r`` for ``r > |residue|``.

    That is ``s = residue`` for ``residue >= 0`` and ``s = r + residue``
    below 0.
    """
    shift = residue < 0
    poly, den = _class_poly(observables)
    out = [0] * (1 + max((j + k for _, j, k in poly), default=0))
    for (_, j, k), x in poly.items():
        for a in range(j + 1 if shift else 1):
            out[k + a] += x * comb(j, a) * residue ** (j - a)
    return out, den


class EdgeTerms(dict):
    """One graph sum's edge weights, ``{key: ((observable, c), ...)}``, and its class weights.

    ``weights`` memoises :func:`_class_weight` by ``(entry, unit, residue,
    cap)``, all that a class weight depends on besides the terms, over
    every graph the sum passes to :func:`tree_profile_weights`.  The
    terms must not change while it lives.
    """

    __slots__ = ("weights",)

    def __init__(self, terms: Mapping):
        super().__init__(terms)
        self.weights: dict = {}


def _class_weight(
    entry: tuple, unit: tuple, residue: int, terms: Mapping, cap: int, label: str
) -> tuple[list[int], int]:
    """One class's weight for the edge keys ``entry``: its top ``cap + 1`` coefficients in ``r``.

    ``unit`` is ``((0, 0),)`` for a loop and ``()`` for a parallel class,
    and ``t`` is one less than the observables the class sums.  Each
    choice of one term ``(observable, c)`` per key, from ``terms``, adds
    ``c r^{-deg - t}`` times the class polynomial (:func:`_class_at`) of
    its observables at ``residue``, ``deg`` their total degree.  That
    polynomial has degree at most ``deg + t``, so the weight is a
    polynomial in ``1/r``; ``ArithmeticError`` naming ``label`` is raised
    if it is not.  Returns ``cap + 1`` integer numerators over one
    denominator, low degree first, the last one that of ``r^0``.
    """
    out, den = [0] * (cap + 1), 1
    for choice in itertools.product(*[terms[key] for key in entry]):
        observables, cs = zip(*choice)
        observables = tuple(sorted(unit + observables))
        poly, d = _class_at(observables, residue)
        shift = sum(map(sum, observables)) + len(observables) - 1
        if any(poly[shift + 1 :]):
            raise ArithmeticError(f"{label}: class polynomial above its degree bound")
        if den % d:
            scale = d // gcd(den, d)
            out = [x * scale for x in out]
            den *= scale
        c = prod(cs) * (den // d)
        # r^{-shift} r^j is stored at cap - shift + j, r^0 at cap.
        for j in range(max(0, shift - cap), min(len(poly), shift + 1)):
            out[cap - shift + j] += c * poly[j]
    return out, den


def tree_profile_weights(
    graph,
    dr: DRVector,
    profiles: Sequence[tuple],
    terms: Mapping[Hashable, Sequence[tuple[tuple[int, int], int]]],
    cap: int,
    label: str | None = None,
) -> tuple[list[list[int]], int] | None:
    """Sums over all weightings of products of edge weights, contracted one class at a time.

    A profile holds one key per edge, and ``terms[key]`` lists pairs
    ``(observable, c)``: the edge weight ``sum c u^a (1 - u)^b`` in
    ``u = w/r``, that is ``c r^{-a-b}`` times the observable ``(a, b)``.
    On a graph whose simple quotient is a tree every class residue is
    forced, and the sum of a product of observables is the product of the
    classes' polynomials (:func:`_class_poly`) at their residues, a loop
    being the class of its observable and the unit ``(0, 0)`` at residue
    0.  So a profile's sum is ``r^b``, ``b`` the Betti number, times the
    product of its classes' weights (:func:`_class_weight`), each built
    once per graph sum if ``terms`` is an :class:`EdgeTerms`, else once
    per call.  Each weight is a polynomial in ``1/r``, so no later factor
    raises a power of ``r``, and every product keeps only the powers
    ``r^{-cap}`` to ``r^0``.

    Returns ``(weights, den)`` or, for a graph whose quotient has a free
    residue, ``None``.  ``weights`` holds for each profile ``cap + 1``
    integers: the numerators over ``den`` of ``r^{-cap}`` up to ``r^0`` in
    ``r^{-b}`` times its sum, for every ``r`` from :func:`default_r_min`
    on.  Data that is not exactly balanced has no weightings there, so
    every weight is 0.  A class polynomial above its degree bound raises
    ``ArithmeticError`` naming ``label``.
    """
    _require_type(graph, dr)
    quotient = _quotient(graph)
    if quotient.plan.free:
        return None
    if not dr.is_exact:
        return [[0] * (cap + 1) for _ in profiles], 1
    name = _label(graph, label)
    memo = terms.weights if isinstance(terms, EdgeTerms) else {}
    classes = [((t,), ((0, 0),), 0) for t in quotient.loops]
    classes += zip(quotient.classes, itertools.repeat(()), _class_residues(dr, quotient.plan))
    weights, dens = [], []
    for prof in profiles:
        weight, den = [0] * cap + [1], 1
        for ts, unit, residue in classes:
            key = (tuple([prof[t] for t in ts]), unit, residue, cap)
            if key not in memo:
                memo[key] = _class_weight(key[0], unit, residue, terms, cap, name)
            nums, d = memo[key]
            weight = _mul_top(weight, nums, cap)
            den *= d
        weights.append(weight)
        dens.append(den)
    den = lcm(*dens)
    return [w if d == den else [x * (den // d) for x in w] for w, d in zip(weights, dens)], den


def profile_weights(
    graph,
    dr: DRVector,
    profiles: Sequence[tuple],
    terms: Mapping[Hashable, Sequence[tuple[tuple[int, int], int]]],
    cap: int,
    label: str | None = None,
) -> tuple[list[list[int]], int]:
    """The weighting sums of edge weights as polynomials in ``1/r``, on any graph.

    :func:`tree_profile_weights` when the graph's simple quotient is a
    tree, with no modulus sampled, and :func:`sampled_profile_weights`
    otherwise; both return ``(weights, den)`` in the format described there.
    """
    tree = tree_profile_weights(graph, dr, profiles, terms, cap, label)
    return sampled_profile_weights(graph, dr, profiles, terms, cap, label) if tree is None else tree
