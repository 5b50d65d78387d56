"""Slow reference implementations kept as test oracles.

``enumerate_weightings`` lists every weighting through the library's tree
solve, so brute-force checks of the solve go through it.  The direct
``edge_profile_sums`` runs the same solve on the unreduced graph and
multiplies one table entry per edge and weighting; the library merges
parallel edges into one convolved edge first.  The per-weighting
``chiodo_pushforward`` multiplies whole decoration series once per
weighting; the library sums per-edge residue tables over the weightings
first, and the two are compared term by term.  ``edge_factor_coefficients``
expands Chiodo's edge factor as ``-sum_p s^{p-1} Z^p / p!`` with a
two-variable product; the library divides a product of two one-variable
exponentials by ``s``.  ``leg_vertex_series`` multiplies one exponential
per leg and per vertex; the library exponentiates their sum once.  The
per-weighting pushforward builds its leg and vertex series that way, and
so do ``pixton_fixed_r`` and ``pixton_class``, which build one decorated
template series per edge-exponent profile, one ``series_mul`` per edge,
and emit every template on its own; the library expands all of a graph's
weighted edge monomials at once and multiplies them by the exponential
in one product.  ``chiodo_constant`` builds the whole canonical class at
every sample modulus and fits each canonical decorated graph; the library
fixes no modulus, builds each graph's monomials as Laurent polynomials in
``r`` from the exact observable sums, and canonicalises only their
constant terms.  ``chiodo_constant_series`` keeps each graph's weights
as ``RPoly`` objects in ``1/r`` and multiplies whole ``RPoly``
coefficients before it reads the constant term; the library contracts
integer numerators over one denominator and forms only that coefficient,
as a dot product.  ``series_degree_part`` keeps one degree of a series:
after a full truncated ``series_mul`` it gives what the library's
``series_degree_mul`` multiplies into that degree alone.  ``interpolate``
is exact Lagrange interpolation on any distinct nodes, and
``certified_fit`` fits through it and checks each fit by Horner's rule at
the check moduli; the library reads both the fit and the check off the
forward differences of the samples.  ``dvv_correlator`` runs the DVV
recursion on every correlator past the seeds; the library strips ``tau_0``
and ``tau_1`` by the string and dilaton equations first.
``pair_with_psi_unindexed`` integrates every term of a class; the library
visits only the terms grouped under the vertex degrees a monomial brings.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Callable, Hashable, Mapping, Sequence

from drtaut.chiodo import _edge_factor_polys, _edge_monomials, _graph_series, _leg_vertex_weights
from drtaut.chiodo import chiodo_pushforward as class_pushforward
from drtaut.exact import RPoly, bernoulli_poly
from drtaut.graphs import automorphism_order, enumerate_stable_graphs, first_betti
from drtaut.intersect import _term_integral, double_factorial
from drtaut.tautclass import (
    TautClass,
    emit_series,
    kappa_monomial,
    monomial_degree,
    psi_leg_monomial,
    series_degree_mul,
    series_exp,
    series_mul,
    series_unit,
    series_vertex_leg_exp,
)
from drtaut.weightings import (
    DRVector,
    _require_type,
    _solutions,
    _solve_plan,
    default_r_min,
    exact_edge_profiles,
    power_tables,
    sampled_edge_profiles,
)


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
    plan = _solve_plan(graph)
    solutions = [tuple(values) for values in _solutions(graph, r, dr, plan)]
    out = []
    for assign in itertools.product(range(r), repeat=len(plan.loops)):
        for solution in solutions:
            values = list(solution)
            for t, w in zip(plan.loops, assign):
                values[2 * t] = w
                values[2 * t + 1] = (r - w) % r
            out.append(tuple(values))
    return tuple(out)


def edge_profile_sums(graph, r: int, dr: DRVector, profiles: Sequence[Sequence]) -> list:
    """Sums of ``prod_e T_e[w_e]`` over all weightings, for many profiles.

    A profile holds one entry per edge: ``None`` for the factor 1, or a
    table of ``r`` values indexed by the residue ``w_e`` on the edge's
    first half-edge ``2t``.  All profiles share one enumeration; a loop's
    residue is unconstrained, so it contributes the sum of its table, or
    ``r`` for ``None``.  :func:`power_tables` builds the ``x_e^p`` tables
    of the graph-sum formula.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    if graph.n_legs != dr.n:
        raise ValueError("marking count does not match the ramification vector")
    plan = _solve_plan(graph)
    loops = plan.loops
    factors = [
        [(2 * t, table) for t, table in enumerate(prof) if table is not None and t not in loops]
        for prof in profiles
    ]
    partial = [0] * len(profiles)
    for values in _solutions(graph, r, dr, plan):
        for i, pairs in enumerate(factors):
            term = 1
            for h, table in pairs:
                term *= table[values[h]]
            partial[i] += term
    out = []
    for total, prof in zip(partial, profiles):
        for t in loops:
            total *= r if prof[t] is None else sum(prof[t])
        out.append(total)
    return out


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


def leg_vertex_series(graph, leg_weights, kappa_weights, cap: int) -> dict:
    """Truncated product of one exponential per leg and one per vertex.

    ``leg_weights[i][m - 1]`` weighs ``psi_i^m`` and ``kappa_weights[m - 1]``
    weighs ``kappa_m`` at each vertex.
    """
    out = series_unit(graph)
    for i, weights in enumerate(leg_weights):
        x = {psi_leg_monomial(graph, i, m): c for m, c in enumerate(weights[:cap], 1) if c}
        out = series_mul(out, series_exp(x, graph, cap), cap)
    for v in range(graph.n_vertices):
        x = {kappa_monomial(graph, v, m): c for m, c in enumerate(kappa_weights[:cap], 1) if c}
        out = series_mul(out, series_exp(x, graph, cap), cap)
    return out


def series_degree_part(x: dict, d: int) -> dict:
    """The monomials of ``x`` of degree ``d``."""
    return {m: c for m, c in x.items() if monomial_degree(m) == d}


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
            emit_series(acc, graph, template, Fraction(s, scale))
    return TautClass(dr.genus, dr.n, acc)


def pixton_class(dr: DRVector, d: int) -> TautClass:
    """Pixton's r-free degree-d class, one template emitted per profile.

    Each template is weighted by the ``r^b`` coefficient of its weighting
    sum, an :class:`RPoly`, over ``|Aut|``; a sum not divisible by ``r^b``
    fails.
    """
    acc: list = []
    for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=d):
        templates = pixton_templates(graph, dr, d)
        powers = [tuple((m + 1, m + 1) for m in prof) for prof, _ in templates]
        b, aut = first_betti(graph), automorphism_order(graph)
        fits = exact_edge_profiles(graph, dr, powers) or sampled_edge_profiles(graph, dr, powers)
        for (_, template), poly in zip(templates, fits):
            assert poly.divisible_by(b), (graph, poly)
            emit_series(acc, graph, template, Fraction(poly.coefficient(b), aut))
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
                emit_series(acc, graph, sliced, scalar)
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
    :class:`RPoly` objects (exact on tree quotients, sampled otherwise); one
    :func:`series_degree_mul` with :class:`RPoly` coefficients multiplies
    the weights by the vertex and leg exponential, and each monomial keeps
    its ``v^{2d}`` coefficient over ``|Aut|``.
    """
    dr.require_exact()
    polys = dict(_edge_factor_polys(d))
    top = 2 * d
    points = [RPoly([int(a < 0), a]) for a in dr.parts]
    legs, kappa = _leg_vertex_weights(points, RPoly([0, dr.twist]), d)

    def exponential(graph, budget):
        return series_vertex_leg_exp(graph, legs, kappa, budget)

    def monomials(prof):
        supports = ([q for q, c in enumerate(polys[key].coeffs) if c] for key in prof)
        return itertools.product(*supports)

    def edge_weights(_, graph, profiles):
        b = first_betti(graph)
        wanted = list({qs: None for prof in profiles for qs in monomials(prof)})
        observables = [tuple((q, 0) for q in qs) for qs in wanted]
        fits = exact_edge_profiles(graph, dr, observables)
        sums = dict(zip(wanted, fits or sampled_edge_profiles(graph, dr, observables)))
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
        return weights

    for graph, _, aut, L, weights in _graph_series(dr, d, d, exponential, edge_weights):
        series = series_degree_mul(L, _edge_monomials(graph, weights), d - graph.n_edges)
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


def pair_with_psi_unindexed(T: TautClass, exponents: Sequence[int]) -> Fraction:
    """``T`` paired with ``prod psi_i^{b_i}``, integrating every term."""
    exps = tuple(exponents)
    total = Fraction(0)
    for dec, coeff in T.items():
        total += coeff * _term_integral(dec, exps)
    return total
