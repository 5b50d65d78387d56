"""Slow reference implementations kept as test oracles.

``canonical_data`` searches every vertex order compatible with the vertex
colors for the least edge encoding, building each vertex's color by a
scan of all legs; the library builds the colors in one pass and takes the
one order of all-singleton color blocks directly, and for a decorated
graph whose plain ``(genus, markings)`` colors do not tie it finds that
order once for all the terms of the graph passed in a row.  ``automorphism_order``
counts the vertex permutations within color blocks that preserve edge
multiplicities; the library counts the vertex orders that reach a graph's
least labelling during the scan that finds it.  ``degenerations`` builds
every child through the public ``StableGraph`` constructor, which sorts
and normalizes it again; the library builds each child from parts already
normalized, and only those whose new edge tops an edge invariant.  ``walk``
is the exhaustive degeneration walk: it keys every child of every graph
it finds and drops each child with any bridge side in the key, where the
library keys only the children its canonical augmentation keeps and
tests only the new edge's side; it takes each representative from the
library's least-labelling scan, a plain search of every vertex order,
and its ``|Aut|`` from ``automorphism_order``.  The pixton and Chiodo oracles below divide by this
``automorphism_order``.

``enumerate_weightings`` lists every weighting through the library's
residue solve on the unreduced graph, rebuilding each half-edge tuple
from the one residue per edge the solve gives, so brute-force checks of
the solve go through it.  The direct ``edge_profile_sums`` runs the same
solve and multiplies one table entry per edge and weighting; the library
merges parallel edges into one convolved edge first.  ``zero_bridge``
finds each bridge's side by a reachability walk and its forced residue
``k E_S - A_S`` from the side's excess and parts; ``residue_zero_bridge``
reads the bridges and their residues off the solve's affine residue map.
The library decides neither per graph: it prunes its enumeration at the
first graph with a bridge side in a key of the sides of residue 0.  The
per-weighting ``chiodo_pushforward`` multiplies whole decoration series
once per weighting; the library sums per-edge residue tables over the
weightings first, and the two are compared term by term.  ``loop_poly`` sums a
loop's observable ``w^a (r-w)^b`` by its own Faulhaber loop; the library
reads it as the parallel class of the observable and the unit ``(0, 0)``.
``edge_factor_coefficients`` expands Chiodo's edge factor as ``-sum_p s^{p-1} Z^p / p!`` with a
two-variable product; the library divides a product of two one-variable
exponentials by ``s``.  ``series_exp_by_powers`` sums ``x^p / p!``,
raising ``x`` to each power by ``series_mul``, a product capped at a
degree that checks the degree of every pair; the library's
``series_exp`` builds one degree at a time in integers, by
``E_n = sum_k k X_k ((n-1)!/(n-k)!) D^{k-1} E_{n-k}`` for
``E_n = n! D^n e_n`` and ``x = X/D``.  ``_exp_coefficients`` runs the
``Fraction`` recurrence ``n e_n = sum_k k a_k e_{n-k}`` in one variable
on ``RPoly`` coefficients; with ``_bernoulli_weight``,
``_edge_factor_polys`` and ``_leg_vertex_weights`` it is the ``RPoly``
route of Chiodo's Bernoulli weights and edge factor, which the library
builds as integer numerators over one denominator.
``leg_vertex_series`` multiplies one exponential
per leg and per vertex of whole monomials, ``(legs, edges, kappa)``; the
library exponentiates their sum once, atom by atom, on monomials
``(legs, kappa)`` grouped by degree, which ``lift`` reads as whole
monomials and ``graded`` groups back.  The
per-weighting pushforward builds its leg and vertex series that way, and
so do ``pixton_fixed_r`` and ``pixton_class``, which build one decorated
template series per edge-exponent profile, one ``series_mul`` per edge,
and emit every template on its own, each term through the public
``DecoratedGraph`` constructor (``emit_scaled``); the library expands all
of a graph's weighted edge monomials at once, in integers, multiplies
them by the exponential in one product and divides each total once.  ``chiodo_constant`` builds the whole canonical class at
every sample modulus and fits each canonical decorated graph; the library
fixes no modulus, builds each graph's monomials as Laurent polynomials in
``r`` from the exact observable sums, and canonicalises only their
constant terms.  ``chiodo_constant_series`` keeps each graph's weights
as ``RPoly`` objects in ``1/r``, builds its exponential by
``leg_vertex_series`` of the ``RPoly`` weights, so it runs no library
exponential, and multiplies whole ``RPoly`` coefficients before it reads
the constant term; the library contracts
integer numerators over one denominator and forms only that coefficient,
as a dot product.  ``series_degree_part`` keeps one degree of a series:
after a full truncated ``series_mul`` it gives what ``series_degree_mul``
multiplies into that degree alone, the product the library's
``series_edge_mul`` is checked against.  ``interpolate``
is exact Lagrange interpolation on any distinct nodes, and
``certified_fit`` fits through it and checks each fit by Horner's rule at
the check moduli; the library reads both the fit and the check off the
forward differences of the samples.  ``dvv_correlator`` runs the DVV
recursion on every correlator past the seeds and sums each split over
every genus; the library strips ``tau_0`` and ``tau_1`` by the string and
dilaton equations first and visits only the split genus the dimension
fixes.  ``pair_with_psi_unindexed`` integrates every term of a class, each
by ``term_integral``, which walks the term's edges and legs for every
monomial, in ``Fraction`` arithmetic; the library visits only the terms
grouped under the vertex degrees a monomial brings, in integers, and
reads each vertex's integral from the class's value table.

``RPoly`` is a polynomial with ``Fraction`` coefficients that also adds,
multiplies and composes; the library has no such class, and every
polynomial it computes, ``exact.interpolate``'s fits among them, is
integer numerators over one denominator.  The oracles read those pairs
as ``RPoly`` objects through ``rpoly``.  ``sampled_sums``
fits the observable sums on sampled moduli on every graph, so
``pixton_class`` and ``chiodo_constant_series`` never read the library's
tree route, which contracts them in closed form.  ``alpha_class`` and
``beta_class`` are the genus-2 stratum classes the Hodge class checks
compare with; no library code builds them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod
from typing import Callable, Hashable, Mapping, Sequence

from drtaut.chiodo import _graph_series
from drtaut.chiodo import chiodo_pushforward as class_pushforward
from drtaut.exact import bernoulli_number, bernoulli_poly
from drtaut.graphs import StableGraph, _least_labelling, enumerate_stable_graphs, first_betti
from drtaut.intersect import double_factorial, integrate_vertex
from drtaut.tautclass import DecoratedGraph, TautClass, series_edge_mul
from drtaut.weightings import (
    DRVector,
    _class_residues,
    _faulhaber,
    _quotient,
    _require_type,
    _solutions,
    _solve_plan,
    certified_fit as library_certified_fit,
    default_r_min,
    edge_profile_sums as quotient_profile_sums,
)


class RPoly:
    """A polynomial in ``r`` with ``Fraction`` coefficients, low degree first.

    A ring with the rationals as constants, and ``p(q)`` composes two
    polynomials by Horner's rule: the slow routes here compute with it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs or [Fraction(0)])

    @staticmethod
    def _coefficients(x) -> tuple | None:
        if isinstance(x, RPoly):
            return x.coeffs
        return (x,) if isinstance(x, (int, Fraction)) else None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __neg__(self) -> "RPoly":
        return RPoly([-c for c in self.coeffs])

    def __add__(self, other):
        b = RPoly._coefficients(other)
        if b is None:
            return NotImplemented
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        b = RPoly._coefficients(other)
        if b is None:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "RPoly":
        return RPoly([Fraction(x) / c for x in self.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if any(self.coeffs) else -1

    def __call__(self, r) -> Fraction:
        """Evaluate at ``r``, a rational or a polynomial, by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def coefficient(self, j: int) -> Fraction:
        return self.coeffs[j] if j < len(self.coeffs) else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def divisible_by(self, b: int) -> bool:
        """True when ``r^b`` divides this polynomial."""
        return not any(self.coeffs[:b])

    def shift_down(self, b: int) -> "RPoly":
        """Divide by ``r^b``; requires the first ``b`` coefficients to vanish."""
        if not self.divisible_by(b):
            raise ValueError(f"polynomial is not divisible by r^{b}")
        return RPoly(self.coeffs[b:])

    def __eq__(self, other) -> bool:
        b = RPoly._coefficients(other)
        if b is None:
            return NotImplemented
        return self.coeffs == b

    def __hash__(self):
        # A constant hashes as the rational it equals.
        return hash(self.coeffs if len(self.coeffs) > 1 else self.coeffs[0])

    def __repr__(self) -> str:
        return f"RPoly({list(self.coeffs)!r})"


def rpoly(fit: tuple[Sequence[int], int]) -> RPoly:
    """A polynomial ``(nums, den)`` of the library's fits as an :class:`RPoly`."""
    nums, den = fit
    return RPoly([Fraction(x, den) for x in nums])


def power_tables(r: int, profiles: Sequence[tuple[tuple[int, int], ...]]) -> list[tuple]:
    """Half-edge observable profiles as residue tables.

    A profile holds one observable ``(a, b)`` per edge, the table
    ``w^a (r - w)^b`` at the residue ``w`` in ``[0, r)`` on the edge's
    first half-edge (``0^0 = 1``).  ``(p, p)`` is ``x^p`` with
    ``x = w((r-w) mod r)``, Pixton's edge power, and ``(q, 0)`` is ``w^q``.
    ``(0, 0)`` is the all-ones table; equal observables share one table.
    """
    wanted = {ab for prof in profiles for ab in prof}
    tables = {(a, b): [w**a * (r - w) ** b for w in range(r)] for a, b in wanted}
    return [tuple(tables[ab] for ab in prof) for prof in profiles]


def sampled_sums(graph, dr: DRVector, observables: Sequence[tuple]) -> list[RPoly]:
    """Each observable profile's weighting sum as an :class:`RPoly` in ``r``, from sampled moduli.

    One :func:`~drtaut.weightings.certified_fit` of the library's
    quotient sums, with the degree bound and first modulus of its sampled
    route; neither the tree route nor the route's assembly into weights
    is read.
    """
    bound = max((sum(map(sum, obs)) for obs in observables), default=0) + first_betti(graph)
    fits, _ = library_certified_fit(
        lambda r: dict(enumerate(quotient_profile_sums(graph, r, dr, power_tables(r, observables)))),
        bound,
        default_r_min(dr),
    )
    return [rpoly(fits[i]) for i in range(len(observables))]


def alpha_class() -> TautClass:
    """Genus-2 double-loop stratum class: one-eighth of its pushforward."""
    graph = StableGraph([0], [(0, 0), (0, 0)])
    return TautClass(2, 0, [(DecoratedGraph(graph), Fraction(1, 8))])


def beta_class() -> TautClass:
    """Genus-2 loop stratum with one psi: pushforward of psi on a loop half."""
    graph = StableGraph([1], [(0, 0)])
    dg = DecoratedGraph(graph, (), [(1, 0)], ())
    return TautClass(2, 0, [(dg, Fraction(1))])


def canonical_data(genera, edges, legs, leg_psi, edge_psi, kappa):
    """``(genera, records, legs, leg_psi, kappa)`` of the least relabeling.

    Minimizes the sorted edge records ``(u, v, psi_u, psi_v)`` over every
    vertex order compatible with the colors (genus, markings with their
    psi exponents, kappa multiset).
    """
    V = len(genera)
    colors = []
    for v in range(V):
        marks = tuple((i + 1, leg_psi[i]) for i, w in enumerate(legs) if w == v)
        colors.append((genera[v], marks, kappa[v]))

    order = sorted(range(V), key=lambda v: colors[v])
    blocks: list[list[int]] = []
    for v in order:
        if blocks and colors[blocks[-1][0]] == colors[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])

    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = [0] * V
        slot = 0
        for block in perms:
            for v in block:
                pos[v] = slot
                slot += 1
        records = []
        for t, (u, v) in enumerate(edges):
            pu, pv = edge_psi[t]
            nu, nv = pos[u], pos[v]
            if nu < nv:
                rec = (nu, nv, pu, pv)
            elif nu > nv:
                rec = (nv, nu, pv, pu)
            else:
                lo, hi = sorted((pu, pv))
                rec = (nu, nv, lo, hi)
            records.append(rec)
        cand = tuple(sorted(records))
        if best is None or cand < best[0]:
            best = (cand, tuple(pos))

    records, pos = best
    inv = [0] * V
    for old, new in enumerate(pos):
        inv[new] = old
    new_genera = tuple(genera[inv[p]] for p in range(V))
    new_kappa = tuple(kappa[inv[p]] for p in range(V))
    new_legs = tuple(pos[v] for v in legs)
    return new_genera, records, new_legs, leg_psi, new_kappa


def canonical_key(graph: StableGraph) -> bytes:
    """The plain canonical key, through :func:`canonical_data` with zero decorations."""
    zero_pairs = tuple((0, 0) for _ in graph.edges)
    zero_legs = tuple(0 for _ in graph.legs)
    kappa = tuple(() for _ in graph.genera)
    g2, records, legs2, _, _ = canonical_data(graph.genera, graph.edges, graph.legs, zero_legs, zero_pairs, kappa)
    plain = tuple((a, b) for a, b, _, _ in records)
    return repr((g2, plain, legs2)).encode()


def canonical_form_decorated(graph: StableGraph, leg_psi, edge_psi, kappa):
    """The decorated canonical form, through :func:`canonical_data`."""
    kappa = tuple(tuple(sorted(k)) for k in kappa)
    new_genera, records, new_legs, new_leg_psi, new_kappa = canonical_data(
        graph.genera, graph.edges, graph.legs, leg_psi, edge_psi, kappa
    )
    new_graph = StableGraph(new_genera, [(a, b) for a, b, _, _ in records], new_legs)
    new_edge_psi = tuple((pu, pv) for _, _, pu, pv in records)
    key = repr((new_genera, records, new_legs, new_leg_psi, new_kappa)).encode()
    return new_graph, new_leg_psi, new_edge_psi, new_kappa, key


def automorphism_order(graph: StableGraph) -> int:
    """``|Aut|``: vertex permutations within color blocks that keep every
    edge multiplicity, times ``prod_e m_e!`` and ``2`` per loop."""
    V = graph.n_vertices
    mult: dict[tuple[int, int], int] = {}
    for u, v in graph.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1

    colors = [(graph.genera[v], graph.vertex_markings(v)) for v in range(V)]
    blocks: dict[tuple, list[int]] = {}
    for v in range(V):
        blocks.setdefault(colors[v], []).append(v)

    def adjacency_ok(pos: dict[int, int]) -> bool:
        for (u, v), m in mult.items():
            nu, nv = pos[u], pos[v]
            if nu > nv:
                nu, nv = nv, nu
            if mult.get((nu, nv), 0) != m:
                return False
        return True

    n_perm = 0
    items = sorted(blocks.values())
    for perms in itertools.product(*(itertools.permutations(b) for b in items)):
        pos: dict[int, int] = {}
        for block, image in zip(items, perms):
            for v, w in zip(block, image):
                pos[v] = w
        if adjacency_ok(pos):
            n_perm += 1

    lifts = 1
    for (u, v), m in mult.items():
        lifts *= factorial(m)
        if u == v:
            lifts *= 2**m
    return n_perm * lifts


def degenerations(graph: StableGraph):
    """Stable graphs with one edge more that contract back to ``graph``, with that new edge.

    A vertex of positive genus trades one genus for a loop, or a vertex
    ``v`` splits into ``v`` and a new vertex ``w``, sharing its genus,
    legs, neighbour edges (by count) and loops (kept, opened into ``v - w``
    or moved to ``w``) with both sides stable; of two mirror-image splits
    the one whose ``w`` side is not the larger is kept.
    """
    w = graph.n_vertices
    for v, gv in enumerate(graph.genera):
        if gv > 0:
            genera = graph.genera[:v] + (gv - 1,) + graph.genera[v + 1 :]
            yield StableGraph(genera, graph.edges + ((v, v),), graph.legs), (v, v)

        rest: list[tuple[int, int]] = []
        nbr: dict[int, int] = {}
        loops = 0
        for a, b in graph.edges:
            if a == b == v:
                loops += 1
            elif v in (a, b):
                u = b if a == v else a
                nbr[u] = nbr.get(u, 0) + 1
            else:
                rest.append((a, b))
        others = sorted(nbr)
        marks = [i for i, x in enumerate(graph.legs) if x == v]
        loop_splits = [(k, loops - k - m, m) for k in range(loops + 1) for m in range(loops - k + 1)]
        non_loop = sum(nbr.values()) + len(marks)

        for gw, (kept, opened, moved), *split in itertools.product(
            range(gv + 1),
            loop_splits,
            *(range(nbr[u] + 1) for u in others),
            *([(0, 1)] * len(marks)),
        ):
            side_w = (gw, moved, *split)
            side_v = (
                gv - gw,
                kept,
                *(nbr[u] - k for u, k in zip(others, split)),
                *(1 - bit for bit in split[len(others) :]),
            )
            if side_w > side_v:
                continue
            to_w = sum(split)
            if 2 * gw - 1 + 2 * moved + opened + to_w <= 0:
                continue
            if 2 * (gv - gw) - 1 + 2 * kept + opened + non_loop - to_w <= 0:
                continue
            edges = rest + [(v, v)] * kept + [(v, w)] * (opened + 1) + [(w, w)] * moved
            for u, k in zip(others, split):
                edges += [(u, v)] * (nbr[u] - k) + [(u, w)] * k
            legs = list(graph.legs)
            for i, bit in zip(marks, split[len(others) :]):
                if bit:
                    legs[i] = w
            genera = graph.genera[:v] + (gv - gw,) + graph.genera[v + 1 :] + (gw,)
            yield StableGraph(genera, edges, legs), (v, w)


def walk(g: int, n: int, cap: int, zero_sides: frozenset = frozenset()) -> tuple[StableGraph, ...]:
    """The classes of type ``(g, n)`` to ``cap`` edges, with no bridge side in ``zero_sides``.

    Each level keys every child of every graph found at the level before
    and keeps one per new key.  The classes come sorted by key, each as
    its least ``(edges, genera, legs)`` labelling, with ``_aut`` set to
    :func:`automorphism_order`.
    """
    level = [StableGraph((g,), (), (0,) * n)]
    found = {canonical_key(graph): graph for graph in level}
    for _ in range(cap):
        children = [child for graph in level for child, _ in degenerations(graph)]
        level = []
        for child in children:
            if any(child.bridge_side(t) in zero_sides for t in range(child.n_edges)):
                continue
            key = canonical_key(child)
            if key not in found:
                found[key] = child
                level.append(child)
    representatives = []
    for key in sorted(found):
        graph = _least_labelling(found[key])[0]
        object.__setattr__(graph, "_aut", automorphism_order(graph))
        representatives.append(graph)
    return tuple(representatives)


@lru_cache(maxsize=None)
def _bern_coeff(m: int, x: Fraction) -> Fraction:
    """(-1)^{m-1} B_{m+1}(x) / (m(m+1)), Chiodo's exponent weight at a rational point."""
    return Fraction((-1) ** (m - 1)) * bernoulli_poly(m + 1, x) / (m * (m + 1))


def enumerate_weightings(graph, r: int, dr: DRVector) -> tuple[tuple[int, ...], ...]:
    """All weightings mod ``r`` on ``graph`` for the given ramification data.

    Each weighting is a tuple of residues, one per half-edge in layout
    order.  There are ``r^b`` of them when the global congruence holds,
    none otherwise.  Loop edges and edges off a spanning tree range freely;
    the tree values are forced by the vertex congruences.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    _require_type(graph, dr)
    plan = _solve_plan(graph, graph.edges)
    solutions = [half_edge_values(residues, r, dr) for residues in _solutions(r, dr, plan)]
    loops = [t for t, (u, v) in enumerate(graph.edges) if u == v]
    out = []
    for assign in itertools.product(range(r), repeat=len(loops)):
        for solution in solutions:
            values = list(solution)
            for t, w in zip(loops, assign):
                values[2 * t] = w
                values[2 * t + 1] = (r - w) % r
            out.append(tuple(values))
    return tuple(out)


def half_edge_values(residues: Sequence[int], r: int, dr: DRVector) -> tuple[int, ...]:
    """One residue per half-edge in layout order, from one per edge at its half-edge ``2t``."""
    values = []
    for w in residues:
        values += [w, (r - w) % r]
    return tuple(values) + tuple(a % r for a in dr.parts)


def edge_profile_sums(graph, r: int, dr: DRVector, profiles: Sequence[Sequence]) -> list:
    """Sums of ``prod_e T_e[w_e]`` over all weightings, for many profiles.

    A profile holds one entry per edge: a table of ``r`` values indexed
    by the residue ``w_e`` on the edge's first half-edge ``2t``.  All
    profiles share one enumeration; a loop's residue is unconstrained, so
    it contributes the sum of its table.  :func:`power_tables` builds the
    ``x_e^p`` tables of the graph-sum formula.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    if graph.n_legs != dr.n:
        raise ValueError("marking count does not match the ramification vector")
    plan = _solve_plan(graph, graph.edges)
    loops = [t for t, (u, v) in enumerate(graph.edges) if u == v]
    factors = [
        [(2 * t, table) for t, table in enumerate(prof) if t not in loops]
        for prof in profiles
    ]
    partial = [0] * len(profiles)
    for residues in _solutions(r, dr, plan):
        values = half_edge_values(residues, r, dr)
        for i, pairs in enumerate(factors):
            term = 1
            for h, table in pairs:
                term *= table[values[h]]
            partial[i] += term
    out = []
    for total, prof in zip(partial, profiles):
        for t in loops:
            total *= sum(prof[t])
        out.append(total)
    return out


@lru_cache(maxsize=None)
def loop_poly(a: int, b: int) -> tuple[list[int], int]:
    """``sum_{w<r} w^a (r-w)^b`` in ``r``, by Faulhaber; ``(0, 0)`` gives ``r``."""
    den = lcm(*(_faulhaber(a + j)[1] for j in range(b + 1)))
    out = [0] * (a + b + 2)
    for j in range(b + 1):
        # w^a (r - w)^b = sum_j C(b, j) (-1)^j w^{a+j} r^{b-j}
        S, d = _faulhaber(a + j)
        for m, c in enumerate(S):
            out[m + b - j] += (-1) ** j * comb(b, j) * c * (den // d)
    return out, den


def _pair_mul(a: dict, b: dict, cap: int) -> dict:
    """Product of polynomials in two variables, truncated past total degree cap."""
    out: dict[tuple[int, int], Fraction] = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j > cap:
                continue
            key = (i, j)
            c = out.get(key, Fraction(0)) + c1 * c2
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def edge_factor_coefficients(r: int, w: int, cap: int) -> tuple:
    """Edge factor as coefficients of psi^i psi'^j, total degree <= cap.

    With s = psi + psi' and Z = sum_m (-1)^{m-1} B_{m+1}(w/r)/(m(m+1))
    . sum_{i+j=m-1} psi^i (-psi')^j, the factor (1 - e^{sZ})/s expands
    as -sum_{p>=1} s^{p-1} Z^p / p!.  Returned as a tuple of
    ((i, j), coefficient) pairs sorted by exponent.
    """
    Z: dict[tuple[int, int], Fraction] = {}
    for m in range(1, cap + 2):
        cm = _bern_coeff(m, Fraction(w % r, r))
        if not cm:
            continue
        for i in range(m):
            j = m - 1 - i
            if i + j > cap:
                continue
            key = (i, j)
            c = Z.get(key, Fraction(0)) + cm * Fraction((-1) ** j)
            if c:
                Z[key] = c
            elif key in Z:
                del Z[key]
    out: dict[tuple[int, int], Fraction] = {}
    power = {(0, 0): Fraction(1)}
    s = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    s_power = {(0, 0): Fraction(1)}
    for p in range(1, cap + 2):
        power = _pair_mul(power, Z, cap)
        if p > 1:
            s_power = _pair_mul(s_power, s, cap)
        term = _pair_mul(power, s_power, cap)
        scale = Fraction(-1, factorial(p))
        for key, c in term.items():
            cc = out.get(key, Fraction(0)) + scale * c
            if cc:
                out[key] = cc
            elif key in out:
                del out[key]
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _bernoulli_weight(m: int) -> RPoly:
    """``(-1)^{m-1} B_{m+1}(x) / (m(m+1))``, the recurring exponent weight, in ``x``."""
    scale = Fraction((-1) ** (m - 1), m * (m + 1))
    return RPoly([scale * comb(m + 1, i) * bernoulli_number(m + 1 - i) for i in range(m + 2)])


def _exp_coefficients(a: list, cap: int) -> list:
    """Coefficients of ``exp(sum_m a[m] x^m)`` up to ``x^cap``; ``a[0]`` is unused.

    From ``E' = A' E``: ``n e_n = sum_{k=1}^n k a_k e_{n-k}``.
    """
    e = [Fraction(1)]
    for n in range(1, cap + 1):
        e.append(sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e


@lru_cache(maxsize=None)
def _edge_factor_polys(cap: int) -> tuple:
    """Edge factor coefficients of psi^i psi'^j as polynomials in ``u = w/r``.

    With ``A(x) = sum_m (-1)^{m-1} B_{m+1}(u) x^m / (m(m+1))`` the
    exponent of the factor is ``A(psi) - A(-psi')``, so with
    ``s = psi + psi'`` the factor is
    ``(1 - e^{A(psi)} e^{-A(-psi')}) / s``: a product of two one-variable
    exponentials, divided by s one total degree n at a time through
    ``q_{n-1-k,k} = p_{n-k,k} - q_{n-k,k-1}``, where p is the numerator.
    The recurrence runs on polynomials in ``u``, so one table serves every
    modulus and residue.  Returned as a tuple of ((i, j), polynomial)
    pairs with ``i + j <= cap``, sorted by exponent.
    """
    A = [RPoly([0])] + [_bernoulli_weight(m) for m in range(1, cap + 2)]
    left = _exp_coefficients(A, cap + 1)
    right = _exp_coefficients([(-1) ** (m + 1) * c for m, c in enumerate(A)], cap + 1)
    out = []
    for n in range(1, cap + 2):
        q = 0
        for k in range(n):
            q = -left[n - k] * right[k] - q
            if q:
                out.append(((n - 1 - k, k), q))
    return tuple(sorted(out))


def _leg_vertex_weights(legs: list, kappa, cap: int) -> tuple[list, list]:
    """The leg and vertex weights of degrees 1 to cap, as ``series_exp`` takes them.

    Leg ``i`` weighs ``psi_i^m`` by the Bernoulli weight at ``legs[i]``
    and each vertex weighs ``kappa_m`` by minus the weight at ``kappa``;
    the points are rationals or polynomials.
    """
    weights = [_bernoulli_weight(m) for m in range(1, cap + 1)]
    return [[B(x) for B in weights] for x in legs], [-B(kappa) for B in weights]


# A whole monomial is (leg psi exponents, edge psi exponent pairs, kappa
# multisets); a series maps whole monomials to coefficients.


def series_unit(graph: StableGraph) -> dict:
    mono = (
        tuple(0 for _ in graph.legs),
        tuple((0, 0) for _ in graph.edges),
        tuple(() for _ in graph.genera),
    )
    return {mono: Fraction(1)}


def monomial_degree(mono: tuple) -> int:
    legs, edges, kappa = mono
    return sum(legs) + sum(a + b for a, b in edges) + sum(m for k in kappa for m in k)


def _monomial_mul(m1: tuple, m2: tuple) -> tuple:
    l1, e1, k1 = m1
    l2, e2, k2 = m2
    legs = tuple(a + b for a, b in zip(l1, l2))
    edges = tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(e1, e2))
    kappa = tuple(tuple(sorted(x + y)) for x, y in zip(k1, k2))
    return legs, edges, kappa


def psi_leg_monomial(graph: StableGraph, i: int, e: int = 1) -> tuple:
    legs = tuple(e if j == i else 0 for j in range(graph.n_legs))
    return legs, tuple((0, 0) for _ in graph.edges), tuple(() for _ in graph.genera)


def kappa_monomial(graph: StableGraph, v: int, m: int) -> tuple:
    kappa = tuple((m,) if w == v else () for w in range(graph.n_vertices))
    return tuple(0 for _ in graph.legs), tuple((0, 0) for _ in graph.edges), kappa


def lift(L: dict, graph: StableGraph) -> dict:
    """A vertex and leg series by degree, as ``series_exp`` returns it, as whole monomials of ``graph``."""
    edges = tuple((0, 0) for _ in graph.edges)
    return {(legs, edges, kappa): c for monos in L.values() for legs, kappa, c in monos}


def graded(series: dict) -> dict:
    """A series with no edge psi grouped by degree as ``series_exp`` returns it: the inverse of :func:`lift`."""
    out: dict = {}
    for mono, c in series.items():
        legs, _, kappa = mono
        out.setdefault(monomial_degree(mono), []).append((legs, kappa, c))
    return out


def series_degree_mul(a: dict, b: dict, d: int) -> dict:
    """The degree-``d`` part of ``a * b``.

    ``b`` is grouped by degree once, and each monomial of ``a`` meets only
    the monomials of ``b`` of the complementary degree.
    """
    by_degree: dict = {}
    for m2, c2 in b.items():
        by_degree.setdefault(monomial_degree(m2), []).append((m2, c2))
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in by_degree.get(d - monomial_degree(m1), ()):
            m = _monomial_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def series_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        d1 = monomial_degree(m1)
        for m2, c2 in b.items():
            if d1 + monomial_degree(m2) > cap:
                continue
            m = _monomial_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def series_exp_by_powers(x: dict, graph: StableGraph, cap: int) -> dict:
    """Exponential of a series with no constant term, truncated at ``cap``: ``sum_p x^p / p!``."""
    if any(monomial_degree(m) == 0 for m in x):
        raise ValueError("exponent series must have no degree-0 part")
    out = series_unit(graph)
    power = series_unit(graph)
    for p in range(1, cap + 1):
        power = series_mul(power, x, cap)
        if not power:
            break
        inv = Fraction(1, factorial(p))
        for m, c in power.items():
            out[m] = out.get(m, Fraction(0)) + inv * c
    return {m: c for m, c in out.items() if c != 0}


def leg_vertex_series(graph, leg_weights, kappa_weights, cap: int) -> dict:
    """Truncated product of one exponential per leg and one per vertex.

    ``leg_weights[i][m - 1]`` weighs ``psi_i^m`` and ``kappa_weights[m - 1]``
    weighs ``kappa_m`` at each vertex.
    """
    out = series_unit(graph)
    for i, weights in enumerate(leg_weights):
        x = {psi_leg_monomial(graph, i, m): c for m, c in enumerate(weights[:cap], 1) if c}
        out = series_mul(out, series_exp_by_powers(x, graph, cap), cap)
    for v in range(graph.n_vertices):
        x = {kappa_monomial(graph, v, m): c for m, c in enumerate(kappa_weights[:cap], 1) if c}
        out = series_mul(out, series_exp_by_powers(x, graph, cap), cap)
    return out


def series_degree_part(x: dict, d: int) -> dict:
    """The monomials of ``x`` of degree ``d``."""
    return {m: c for m, c in x.items() if monomial_degree(m) == d}


def emit_scaled(acc: list, graph, x: dict, scalar: Fraction) -> None:
    """Append ``scalar`` times each monomial of ``x`` on ``graph`` to ``acc``, through the public constructor."""
    for (legs, edges, kappa), c in x.items():
        acc.append((DecoratedGraph(graph, legs, edges, kappa), scalar * c))


def psi_edge_monomial(graph, t: int, e1: int, e2: int) -> tuple:
    """The monomial ``psi_h^e1 psi_h'^e2`` on the halves of edge ``t``."""
    edges = tuple((e1, e2) if s == t else (0, 0) for s in range(graph.n_edges))
    return (tuple(0 for _ in graph.legs), edges, tuple(() for _ in graph.genera))


def series_edge_power(graph, t: int, m: int, c: Fraction) -> dict:
    """``c (psi_h + psi_h')^m`` on the halves of edge ``t``, expanded."""
    return {psi_edge_monomial(graph, t, i, m - i): c * comb(m, i) for i in range(m + 1)}


def pixton_templates(graph, dr: DRVector, d: int) -> list:
    """Per-profile decorated series of Pixton's graph sum, of exact degree ``d - n_edges``.

    One series per edge-exponent profile ``m``: the product over the edges
    of ``(-1)^{m_e} s_e^{m_e} / (m_e+1)!``, built one ``series_mul`` per
    edge, times the degree ``d - n_edges - |m|`` part of the leg and
    vertex exponentials.  Profiles whose series is empty are left out.
    """
    cap = d - graph.n_edges
    L = leg_vertex_series(graph, [(a * a,) for a in dr.parts], (-dr.twist**2,), cap)
    out = []
    for prof in itertools.product(range(cap + 1), repeat=graph.n_edges):
        if sum(prof) <= cap:
            edges = series_unit(graph)
            for t, m in enumerate(prof):
                power = series_edge_power(graph, t, m, Fraction((-1) ** m, factorial(m + 1)))
                edges = series_mul(edges, power, sum(prof))
            template = series_mul(edges, series_degree_part(L, cap - sum(prof)), cap)
            if template:
                out.append((prof, template))
    return out


def zero_bridge(graph: StableGraph, dr: DRVector, r: int) -> bool:
    """Whether a bridge of ``graph`` has residue 0 mod ``r`` (exactly 0 for ``r = 0``).

    The residues at a vertex ``v`` add to ``k (2 g_v - 2 + deg v)`` and the
    two halves of any other edge cancel, so on side ``S`` a bridge's half
    carries the forced residue ``k E_S - A_S``, with ``E_S`` the sum of
    ``2 g_v - 2 + deg v`` and ``A_S`` that of the parts on ``S``.  When it
    is 0 the bridge has ``x = w (r - w) = 0`` on every weighting, and the
    graph contributes nothing.
    """
    for t in range(graph.n_edges):
        side = graph.edge_side(t)
        if side is None:
            continue
        excess = sum(2 * graph.genera[v] - 2 + graph.vertex_degree(v) for v in side)
        residue = dr.twist * excess - sum(a for a, v in zip(dr.parts, graph.legs) if v in side)
        if (residue % r if r else residue) == 0:
            return True
    return False


def residue_zero_bridge(graph: StableGraph, dr: DRVector, r: int) -> bool:
    """:func:`zero_bridge` read off the residue map of the solve.

    A bridge is a quotient edge of one graph edge with no slope, so its
    residue is its ``D`` (``_class_residues``) on every weighting.
    """
    classes, _, plan = _quotient(graph)
    return any(
        len(ts) == 1 and not any(slope) and (D % r if r else D) == 0
        for ts, slope, D in zip(classes, plan.slopes, _class_residues(dr, plan))
    )


def pixton_fixed_r(dr: DRVector, d: int, r: int) -> TautClass:
    """Pixton's degree-d class at modulus ``r``, one template emitted per profile.

    Every graph is kept, separating edges on zero data included, and each
    template is weighted by its sum over the weightings (the direct
    :func:`edge_profile_sums`) over ``|Aut| r^b``.
    """
    acc: list = []
    for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=d):
        templates = pixton_templates(graph, dr, d)
        powers = [tuple((m + 1, m + 1) for m in prof) for prof, _ in templates]
        sums = edge_profile_sums(graph, r, dr, power_tables(r, powers))
        scale = automorphism_order(graph) * r ** first_betti(graph)
        for (_, template), s in zip(templates, sums):
            emit_scaled(acc, graph, template, Fraction(s, scale))
    return TautClass(dr.genus, dr.n, acc)


def pixton_class(dr: DRVector, d: int) -> TautClass:
    """Pixton's r-free degree-d class, one template emitted per profile.

    Each template is weighted by the ``r^b`` coefficient of its weighting
    sum, fitted on sampled moduli (:func:`sampled_sums`) on every graph,
    over ``|Aut|``; a sum not divisible by ``r^b`` fails.
    """
    acc: list = []
    for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=d):
        templates = pixton_templates(graph, dr, d)
        powers = [tuple((m + 1, m + 1) for m in prof) for prof, _ in templates]
        b, aut = first_betti(graph), automorphism_order(graph)
        for (_, template), poly in zip(templates, sampled_sums(graph, dr, powers)):
            assert poly.divisible_by(b), (graph, poly)
            emit_scaled(acc, graph, template, Fraction(poly.coefficient(b), aut))
    return TautClass(dr.genus, dr.n, acc)


def chiodo_leg_vertex_series(graph, dr: DRVector, r: int, cap: int) -> dict:
    """Chiodo's Bernoulli exponentials on the legs and vertices, one at a time."""
    degrees = range(1, cap + 1)
    legs = [[_bern_coeff(m, Fraction(a % r, r)) for m in degrees] for a in dr.parts]
    kappa = [-_bern_coeff(m, Fraction(dr.twist, r)) for m in degrees]
    return leg_vertex_series(graph, legs, kappa, cap)


def chiodo_pushforward(dr: DRVector, d: int, r: int, cap: int | None = None) -> TautClass:
    """Degree-d part of the pushed-forward total Chern class at modulus r.

    ``cap`` sets the truncation order of the exponentials (default d);
    any cap >= d yields the same degree-d output, which the test suite
    uses as a truncation-independence check.
    """
    g, n = dr.genus, dr.n
    if r <= 0:
        raise ValueError("modulus must be positive")
    if d < 0:
        raise ValueError("degree must be non-negative")
    if (dr.twist * (2 * g - 2 + n) - sum(dr.parts)) % r != 0:
        raise ValueError(
            f"no r-th roots exist: k(2g-2+n) - sum(a) is not divisible by {r}"
        )
    if cap is None:
        cap = d
    if cap < d:
        raise ValueError("truncation order below requested degree")
    acc: list = []
    for graph in enumerate_stable_graphs(g, n, max_edges=min(d, cap)):
        n_edges = graph.n_edges
        budget = cap - n_edges
        b = first_betti(graph)
        aut = automorphism_order(graph)
        scalar = Fraction(r) ** (2 * g - 1 - b) / aut
        static = chiodo_leg_vertex_series(graph, dr, r, budget)
        for values in enumerate_weightings(graph, r, dr):
            series = static
            for t in range(n_edges):
                pairs = edge_factor_coefficients(r, values[2 * t], budget)
                factor = {
                    psi_edge_monomial(graph, t, i, j): c for (i, j), c in pairs
                }
                series = series_mul(series, factor, budget)
            sliced = series_degree_part(series, d - n_edges)
            if sliced:
                emit_scaled(acc, graph, sliced, scalar)
    return TautClass(g, n, acc)


def chiodo_constant(dr: DRVector, d: int) -> TautClass:
    """The r-constant term of Chiodo's scaled pushforward, fitted class by class.

    Every sample modulus builds the whole canonical class of the library's
    :func:`~drtaut.chiodo.chiodo_pushforward`, and each canonical decorated
    graph's coefficient is fitted by the Lagrange :func:`certified_fit`,
    with the same degree bound and moduli as the library.
    """
    dr.require_exact()
    g = dr.genus
    bound = max(0, 2 * d + 2 * g - 1)
    scale_exp = 2 * d - 2 * g + 1
    graphs: dict = {}

    def evaluate(r: int) -> dict:
        scale = Fraction(r) ** scale_exp
        out = {}
        for key, (dg, coeff) in class_pushforward(dr, d, r).terms.items():
            graphs.setdefault(key, dg)
            out[key] = coeff * scale
        return out

    fits, _ = certified_fit(evaluate, bound, default_r_min(dr))
    return TautClass(g, dr.n, ((graphs[key], poly.constant_term) for key, poly in fits.items()))


def chiodo_constant_series(dr: DRVector, d: int):
    """Each graph's terms of Chiodo's constant term, through :class:`RPoly` weights.

    Yields ``(graph, {monomial: coefficient})`` over the library's graphs
    and profiles (:func:`~drtaut.chiodo._graph_series`).  Each profile's
    weight is one :class:`RPoly` in ``v = 1/r``, summed from the edge
    factors' rational coefficients and the observable sums as
    :class:`RPoly` objects, fitted on sampled moduli on every graph.  The
    edge factors are this module's :func:`_edge_factor_polys` and the
    vertex and leg exponential is :func:`leg_vertex_series` of the
    :class:`RPoly` weights of :func:`_leg_vertex_weights`, one exponential
    per leg and per vertex, so no library exponential is run; it is
    grouped by degree as :func:`series_edge_mul` takes it.  One
    :func:`series_edge_mul` with :class:`RPoly` coefficients multiplies
    the weights by that exponential, and each monomial keeps its
    ``v^{2d}`` coefficient over ``|Aut|``.
    """
    dr.require_exact()
    polys = dict(_edge_factor_polys(d))
    top = 2 * d
    points = [RPoly([int(a < 0), a]) for a in dr.parts]
    legs, kappa = _leg_vertex_weights(points, RPoly([0, dr.twist]), d)

    def exponential(graph, budget):
        return graded(leg_vertex_series(graph, legs, kappa, budget)), 1

    def monomials(prof):
        supports = ([q for q, c in enumerate(polys[key].coeffs) if c] for key in prof)
        return itertools.product(*supports)

    for _, graph, b, aut, (L, _), profiles in _graph_series(dr, d, exponential):
        wanted = list({qs: None for prof in profiles for qs in monomials(prof)})
        observables = [tuple((q, 0) for q in qs) for qs in wanted]
        sums = dict(zip(wanted, sampled_sums(graph, dr, observables)))
        weights = {}
        for prof in profiles:
            weight = RPoly([0])
            for qs in monomials(prof):
                # r^{2d-b} r^{-|q|} S(r): its r^j term is v^{shift - j}.
                shift, S = sum(qs) + b, sums[qs]
                assert S.degree <= shift, (graph, qs)
                c = prod(polys[key].coeffs[q] for key, q in zip(prof, qs))
                in_v = [S.coefficient(shift - e) if e <= shift else 0 for e in range(top + 1)]
                weight += c * RPoly(in_v)
            if weight:
                weights[prof] = weight
        series = series_edge_mul(L, graph, weights, d)
        yield graph, {m: c / aut for m, poly in series.items() if (c := poly.coefficient(top))}


@lru_cache(maxsize=128)
def _lagrange_basis(nodes: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient rows of the Lagrange basis on distinct ``nodes``.

    Row ``i`` holds, low degree first, the coefficients of
    ``prod_{j != i} (X - x_j) / (x_i - x_j)``, the polynomial that is 1 at
    ``x_i`` and 0 at every other node.
    """
    rows = []
    for i, xi in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1 :]
        num = [Fraction(1)]  # prod_{j != i} (X - x_j), built by convolution
        for xj in others:
            num = [a - xj * b for a, b in zip([0, *num], [*num, 0])]
        denom = prod(xi - xj for xj in others)
        rows.append(tuple(c / denom for c in num))
    return tuple(rows)


def interpolate(samples: Sequence[tuple]) -> RPoly:
    """Exact Lagrange interpolation through rational ``(node, value)`` samples.

    Nodes must be distinct; a repeated node raises ``ValueError``.  For
    instance the samples ``(5, 4), (6, 35/6), (7, 8)`` fit the polynomial
    ``(r^2 - 1)/6``.  With the basis cached per node window, a fit costs
    ``O(n^2)`` products.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in samples]
    if not pts:
        raise ValueError("interpolation needs at least one sample")
    nodes = tuple(x for x, _ in pts)
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    terms = [(y, row) for (_, y), row in zip(pts, _lagrange_basis(nodes)) if y]
    return RPoly([sum((y * row[t] for y, row in terms), Fraction(0)) for t in range(len(nodes))])


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
    called once per modulus.  Every key is fitted on ``degree_bound + 1``
    moduli from ``r_min`` and checked at the next ``n_verify``, where a key
    seen only there fails; on any failure the window doubles once.  Returns
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
        window = list(enumerate(samples[:count], r_min))
        check = list(enumerate(samples[count:], r_min + count))
        fits = {key: interpolate([(rr, s.get(key, 0)) for rr, s in window]) for key in keys}
        failed = {key for key in keys if any(fits[key](rr) != s.get(key, 0) for rr, s in check)}
        if not failed:
            break
        count *= 2
    if failed:
        names = ", ".join(f"#{i}" for i, key in enumerate(keys) if key in failed)
        raise ValueError(
            f"insufficient degree bound for {label}: fit of degree < {count // 2} "
            f"fails verification at fresh sample moduli on {names}"
        )
    return fits, all(fit.divisible_by(betti) for fit in fits.values())


@lru_cache(maxsize=None)
def dvv_correlator(g: int, ds: tuple[int, ...]) -> Fraction:
    """``<tau_{d_1} ... tau_{d_n}>_g`` for sorted ``ds`` by DVV alone.

    Past the seeds ``<tau_0^3>_0 = 1`` and ``<tau_1>_1 = 1/24``, the largest
    insertion ``tau_{k+1}`` is always removed by the DVV recursion, even
    when a ``tau_0`` or ``tau_1`` is present.
    """
    n = len(ds)
    if g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    k = ds[-1] - 1
    rest = ds[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        shifted = tuple(sorted(rest[:j] + rest[j + 1 :] + (k + dj,)))
        total += Fraction(
            double_factorial(2 * (k + dj) + 1), double_factorial(2 * dj - 1)
        ) * dvv_correlator(g, shifted)
    for a in range(k):
        b = k - 1 - a
        w = Fraction(double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2)
        total += w * dvv_correlator(g - 1, tuple(sorted(rest + (a, b))))
        for g1 in range(g + 1):
            for m in range(len(rest) + 1):
                for picked in itertools.combinations(range(len(rest)), m):
                    chosen = set(picked)
                    left = tuple(sorted([rest[i] for i in picked] + [a]))
                    right = tuple(
                        sorted([rest[i] for i in range(len(rest)) if i not in chosen] + [b])
                    )
                    total += w * dvv_correlator(g1, left) * dvv_correlator(g - g1, right)
    return total / double_factorial(2 * k + 3)


def term_integral(dec: DecoratedGraph, exponents: Sequence[int]) -> Fraction:
    """One term's integral against ``prod psi_i^{b_i}``, a product over vertices.

    Every vertex gathers the exponents on its edge halves and on its legs,
    the legs' shifted by the monomial, and is integrated on its own.
    """
    graph = dec.graph
    at: list[list[int]] = [[] for _ in graph.genera]
    for (u, v), (a, b) in zip(graph.edges, dec.edge_psi):
        at[u].append(a)
        at[v].append(b)
    for v, e, x in zip(graph.legs, dec.leg_psi, exponents):
        at[v].append(e + x)
    value = Fraction(1)
    for g, psis, kappa in zip(graph.genera, at, dec.kappa):
        value *= integrate_vertex(g, len(psis), psis, kappa)
    return value


def pair_with_psi_unindexed(T: TautClass, exponents: Sequence[int]) -> Fraction:
    """``T`` paired with ``prod psi_i^{b_i}``, integrating every term."""
    exps = tuple(exponents)
    total = Fraction(0)
    for dec, coeff in T.items():
        total += coeff * term_integral(dec, exps)
    return total
