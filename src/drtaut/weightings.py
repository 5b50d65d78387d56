"""Mod-r weightings on stable graphs and exact polynomial fitting in r.

A weighting mod ``r`` assigns a residue to every half-edge so that legs
carry the prescribed values ``a_i mod r``, the two halves of every edge add
to ``0 mod r``, and the residues at each vertex ``v`` add to
``k (2 g_v - 2 + deg v) mod r``.  When the global congruence
``sum a_i = k (2g - 2 + n) mod r`` holds there are exactly ``r^b`` of them,
``b`` the first Betti number, and none otherwise.

One engine enumerates them.  A solve plan fixes a BFS spanning tree over
the non-loop edges, the order in which its edges are solved (leaves
first) and the half-edges at each vertex.  Free non-loop residues range
over all values mod ``r``, each tree value is forced by its child
vertex's congruence, and the root's congruence is asserted as a check.
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
a polynomial in ``w/r``, needs ``w^q``, that is ``(q, 0)``.
:func:`fit_edge_profiles` finds the sums' polynomials in one of two ways.
When the quotient is a tree, every class residue is forced: an integer
tree solve gives it as ``D mod r`` with ``|D|`` below
:func:`default_r_min`, a loop's sum ``sum_{w<r} w^a (r-w)^b`` is a
Faulhaber sum, and a parallel class's convolution is a polynomial in its
residue and ``r``, so each polynomial is a product of those, with no
sampling.  Otherwise :func:`sampled_edge_profiles` makes one
:func:`certified_fit` per graph, which fits every key of a map of
rational samples on one window of consecutive moduli and checks each fit
on fresh ones by forward differences.  Either way the polynomials come
out as integer numerators over one denominator; only the coefficient a
caller keeps is formed as a ``Fraction`` (:func:`exact_edge_profiles`
wraps the exact ones as :class:`~drtaut.exact.RPoly` for comparisons).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from typing import Callable, Hashable, Iterator, Mapping, NamedTuple, Sequence

from .exact import (
    RPoly,
    _over_common_denominator,
    bernoulli_number,
    forward_differences,
    newton_rpoly,
)

__all__ = [
    "DRVector",
    "power_tables",
    "edge_profile_sums",
    "certified_fit",
    "sampled_edge_profiles",
    "exact_edge_profiles",
    "fit_edge_profiles",
]


@dataclass(frozen=True)
class DRVector:
    """Ramification data: a genus, integer parts ``a_i``, and a twist ``k``.

    The balanced case ``sum a_i = k (2g - 2 + n)`` is the one every
    varying-r computation needs; fixed-r operations only need the equation
    to hold mod r.  ``defect`` measures the failure of exact balance.
    """

    genus: int
    parts: tuple[int, ...]
    twist: int = 0

    def __init__(self, genus: int, parts: Sequence[int], twist: int = 0):
        object.__setattr__(self, "genus", int(genus))
        object.__setattr__(self, "parts", tuple(int(a) for a in parts))
        object.__setattr__(self, "twist", int(twist))

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
        if not self.is_exact:
            raise ValueError(
                f"parts must balance the twist exactly: defect {self.defect}"
            )


class _SolvePlan(NamedTuple):
    """How to solve one graph's vertex congruences, fixed before any residue.

    The plan solves over ``n_edges`` edges, whose half-edges ``2t`` and
    ``2t + 1`` come first, followed by one half-edge per leg.  ``steps``
    holds ``(child, child half-edge, other half-edges at child)`` for each
    tree edge, leaves first; ``free`` the non-loop edges off the tree;
    ``loops`` the loop edges; ``root`` the half-edges at vertex 0.
    ``excess[v]`` is ``2 g_v - 2 + deg v`` in the graph itself, whatever
    edges the plan solves over: vertex ``v``'s residues add to
    ``k excess[v] mod r``.
    """

    steps: tuple[tuple[int, int, tuple[int, ...]], ...]
    free: tuple[int, ...]
    loops: tuple[int, ...]
    root: tuple[int, ...]
    n_edges: int
    excess: tuple[int, ...]


def _solve_plan(graph, edges: Sequence[tuple[int, int]] | None = None) -> _SolvePlan:
    """The plan for a BFS spanning tree over non-loop edges, rooted at vertex 0.

    ``edges`` defaults to the graph's own; :func:`_quotient` passes one
    edge ``(u, v)`` per parallel class, on the same vertices and legs.
    """
    if edges is None:
        edges = graph.edges
    V = graph.n_vertices
    at: list[list[int]] = [[] for _ in range(V)]
    adj: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    loops = []
    for t, (u, v) in enumerate(edges):
        at[u].append(2 * t)
        at[v].append(2 * t + 1)
        if u == v:
            loops.append(t)
        else:
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
    steps = []
    for t, child in reversed(tree):
        h_child = 2 * t if edges[t][0] == child else 2 * t + 1
        steps.append((child, h_child, tuple(h for h in at[child] if h != h_child)))
    excess = tuple(2 * g - 2 + graph.vertex_degree(v) for v, g in enumerate(graph.genera))
    return _SolvePlan(tuple(steps), free, tuple(loops), tuple(at[0]), len(edges), excess)


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


def _solutions(graph, r: int, dr: DRVector, plan: _SolvePlan) -> Iterator[list[int]]:
    """Residues per plan half-edge of every solution whose loops carry 0.

    Free non-loop residues run in ``itertools.product`` order and the tree
    values are forced; the vertex targets (``plan.excess``) are those of
    ``graph``, whatever edges the plan solves over, and the global
    congruence is ``dr.defect = 0 mod r``, ``graph``'s own once
    :func:`_require_type` holds.  A loop adds ``0 mod r`` at its vertex,
    so these solutions hold for any loop residues.  The yielded list is
    reused: copy it to keep it.
    """
    if dr.defect % r:
        return
    targets = [dr.twist * e % r for e in plan.excess]
    values = [0] * (2 * plan.n_edges) + [a % r for a in dr.parts]
    for assign in itertools.product(range(r), repeat=len(plan.free)):
        for t, w in zip(plan.free, assign):
            values[2 * t] = w
            values[2 * t + 1] = (r - w) % r
        for child, h_child, others in plan.steps:
            w = (targets[child] - sum(values[h] for h in others)) % r
            values[h_child] = w
            values[h_child ^ 1] = (r - w) % r
        # Root congruence: forced by the global one; keep as a consistency check.
        root_sum = sum(values[h] for h in plan.root)
        assert root_sum % r == targets[0], "root congruence failed after tree solve"
        yield values


def power_tables(r: int, profiles: Sequence[tuple[tuple[int, int], ...]]) -> list[tuple]:
    """Half-edge observable profiles as residue tables.

    A profile holds one observable ``(a, b)`` per edge, the table
    ``w^a (r - w)^b`` at the residue ``w`` in ``[0, r)`` on the edge's
    first half-edge (``0^0 = 1``).  ``(p, p)`` is ``x^p`` with
    ``x = w((r-w) mod r)``, Pixton's edge power, and ``(q, 0)`` is ``w^q``.
    ``(0, 0)`` becomes ``None``; equal observables share one table.
    """
    wanted = {ab for prof in profiles for ab in prof if ab != (0, 0)}
    tables = {(a, b): [w**a * (r - w) ** b for w in range(r)] for a, b in wanted}
    return [tuple(tables.get(ab) for ab in prof) for prof in profiles]


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

    A profile holds one entry per edge: ``None`` for the factor 1, or a
    table of ``r`` values indexed by the residue ``w_e`` on the edge's
    first half-edge ``2t``.  :func:`power_tables` builds the tables of
    half-edge observables, such as the ``x_e^p`` of the graph-sum formula.

    The sum runs over the graph's simple quotient (:func:`_quotient`,
    built once per graph).  The edges of a parallel class reach the
    vertex congruences only through the sum ``s`` of their residues, so
    the class becomes one edge with the table
    ``H(s) = sum over w_1 + ... + w_m = s (mod r) of prod_i T_i(w_i)``.
    ``H`` folds the tables in one at a time.  Each partial convolution is
    keyed on the identities of its tables, so profiles that share table
    objects (as :func:`power_tables` and Chiodo's pushforward do) share
    it, and each entry is computed when first read: the walk reads ``H``
    only at the residues it visits.  A ``None`` entry absorbs the class
    congruence, making ``H`` the constant ``r^(#None - 1)`` times the sums
    of the other tables.  A loop's residue is unconstrained, so it
    contributes the sum of its table, or ``r`` for ``None``.  All profiles
    share one walk of the quotient's solutions.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    _require_type(graph, dr)
    quotient = _quotient(graph)
    merged: dict[tuple[int, ...], Sequence] = {}  # table ids -> class table
    factors = []
    scales = []
    for prof in profiles:
        scale = 1
        for t in quotient.loops:
            scale *= r if prof[t] is None else sum(prof[t])
        pairs = []
        for c, ts in enumerate(quotient.classes):
            tables = sorted((prof[t] for t in ts if prof[t] is not None), key=id)
            if len(tables) < len(ts):
                scale *= r ** (len(ts) - len(tables) - 1) * prod(sum(T) for T in tables)
                continue
            key: tuple[int, ...] = ()
            for table in tables:
                key += (id(table),)
                if key not in merged:
                    merged[key] = _Convolved(merged[key[:-1]], table) if len(key) > 1 else table
            pairs.append((2 * c, merged[key]))
        factors.append(pairs)
        scales.append(scale)
    partial = [0] * len(profiles)
    for values in _solutions(graph, r, dr, quotient.plan):
        for i, pairs in enumerate(factors):
            term = 1
            for h, table in pairs:
                term *= table[values[h]]
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
    differences (:func:`~drtaut.exact.newton_rpoly`).  Returns
    ``({key: RPoly}, divisible)``, ``divisible`` telling whether ``r^betti``
    divides every fit.  Raises ``ValueError`` if the doubled window fails,
    naming ``label`` and each failing key by its position ``#i`` in
    sorted-key order.
    """
    samples: list[Mapping[Hashable, Fraction]] = []  # samples[i] is at r_min + i
    count = degree_bound + 1
    for _ in range(2):
        samples += [evaluate(rr) for rr in range(r_min + len(samples), r_min + count + n_verify)]
        keys = sorted(set().union(*samples))
        diffs = {key: forward_differences([s.get(key, 0) for s in samples]) for key in keys}
        failed = {key for key in keys if any(diffs[key][count:])}
        if not failed:
            break
        count *= 2
    if failed:
        names = ", ".join(f"#{i}" for i, key in enumerate(keys) if key in failed)
        raise ValueError(
            f"insufficient degree bound for {label}: fit of degree < {count // 2} "
            f"fails verification at fresh sample moduli on {names}"
        )
    fits = {key: newton_rpoly(diffs[key][:count], r_min) for key in keys}
    return fits, all(fit.divisible_by(betti) for fit in fits.values())


def sampled_edge_profiles(
    graph,
    dr: DRVector,
    profiles: Sequence[tuple[tuple[int, int], ...]],
    label: str | None = None,
) -> list[RPoly]:
    """Certified fits of all observable sums ``sum_w prod_e w_e^{a_e} (r-w_e)^{b_e}``.

    One :func:`certified_fit` per graph enumerates each sample modulus once
    for all profiles (:func:`power_tables`).  The degree bound is the
    largest observable degree ``sum_e (a_e + b_e)`` plus the Betti number,
    sampling starts at :func:`default_r_min`, and two fresh moduli verify
    the fits.  Returns one polynomial per profile; a fit that fails
    verification raises ``ValueError``.
    """
    b = graph.n_edges - graph.n_vertices + 1
    bound = max((sum(map(sum, prof)) for prof in profiles), default=0) + b
    name = label or f"edge profiles on {graph.n_vertices}v/{graph.n_edges}e graph"
    fits, _ = certified_fit(
        lambda rr: dict(enumerate(edge_profile_sums(graph, rr, dr, power_tables(rr, profiles)))),
        bound, default_r_min(dr), label=name,
    )
    return [fits[i] for i in range(len(profiles))]


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


def _mul_r(f: Sequence, g: Sequence) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
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
def _loop_poly(a: int, b: int) -> tuple[list[int], int]:
    """``sum_{w<r} w^a (r-w)^b`` in ``r``, by Faulhaber; ``(0, 0)`` gives ``r``."""
    den = lcm(*(_faulhaber(a + j)[1] for j in range(b + 1)))
    out = [0] * (a + b + 2)
    for j in range(b + 1):
        # w^a (r - w)^b = sum_j C(b, j) (-1)^j w^{a+j} r^{b-j}
        S, d = _faulhaber(a + j)
        for m, c in enumerate(S):
            out[m + b - j] += (-1) ** j * comb(b, j) * c * (den // d)
    return out, den


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


def _class_residues(dr: DRVector, plan: _SolvePlan) -> list[int]:
    """Integers ``D_c``, each class's residue sum being ``D_c mod r``.

    The plan's tree solve run over the integers, with the vertex targets
    ``k excess[v]`` and the parts ``a_i`` themselves.  For exactly balanced
    data the root congruence then holds exactly.  ``D_c = A_S - k E_S`` for
    the parts and excess on one side ``S`` of the class, so ``|D_c|`` is
    below :func:`default_r_min`.
    """
    values = [0] * (2 * plan.n_edges) + list(dr.parts)
    for child, h_child, others in plan.steps:
        w = dr.twist * plan.excess[child] - sum(values[h] for h in others)
        values[h_child] = w
        values[h_child ^ 1] = -w
    assert sum(values[h] for h in plan.root) == dr.twist * plan.excess[0], (
        "root congruence failed after the integer tree solve"
    )
    return values[: 2 * plan.n_edges : 2]


def fit_edge_profiles(
    graph,
    dr: DRVector,
    profiles: Sequence[tuple[tuple[int, int], ...]],
    label: str | None = None,
) -> list[tuple[list[int], int]]:
    """The observable sums ``sum_w prod_e w_e^{a_e} (r-w_e)^{b_e}`` as polynomials in ``r``.

    Each polynomial is integer numerators over one denominator: a pair
    ``(nums, den)``, one per profile, the sum being
    ``sum_j nums[j] r^j / den``; ``r^b`` divides it when no ``nums[j]``
    with ``j < b`` is nonzero.  When the graph's simple quotient is a tree
    every class residue is forced, and the polynomial is the one the sum
    equals for every ``r`` from :func:`default_r_min` on, with no modulus
    sampled: the product of each loop's Faulhaber sum and each parallel
    class's convolved polynomial (:func:`_class_poly`) at its residue.
    Data that is not exactly balanced has no weightings there, so every
    polynomial is 0.  Otherwise the polynomials are the certified fits of
    :func:`sampled_edge_profiles`, over their common denominator.
    """
    _require_type(graph, dr)
    quotient = _quotient(graph)
    if quotient.plan.free:
        fits = sampled_edge_profiles(graph, dr, profiles, label)
        return [_over_common_denominator(poly.coeffs) for poly in fits]
    if not dr.is_exact:
        return [([0], 1) for _ in profiles]
    residues = _class_residues(dr, quotient.plan)
    out = []
    for prof in profiles:
        factors = [_loop_poly(*prof[t]) for t in quotient.loops]
        factors += [
            _class_at(tuple(sorted(prof[t] for t in ts)), residue)
            for ts, residue in zip(quotient.classes, residues)
        ]
        poly, den = [1], 1
        for f, f_den in factors:
            poly = _mul_r(poly, f)
            den *= f_den
        out.append((poly, den))
    return out


def exact_edge_profiles(
    graph, dr: DRVector, profiles: Sequence[tuple[tuple[int, int], ...]]
) -> list[RPoly] | None:
    """The exact polynomials of :func:`fit_edge_profiles` as :class:`~drtaut.exact.RPoly`.

    Only for a graph whose simple quotient is a tree (no free residue);
    returns ``None`` otherwise, sampling nothing.  For
    :func:`~drtaut.pixton.verify_polynomiality` and the tests, which
    compare it with :func:`sampled_edge_profiles`.
    """
    _require_type(graph, dr)
    if _quotient(graph).plan.free:
        return None
    polys = fit_edge_profiles(graph, dr, profiles)
    return [RPoly([Fraction(x, den) for x in nums]) for nums, den in polys]
