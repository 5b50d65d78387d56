"""Chern classes of the derived pushforward of an r-th root bundle.

For a genus, a twist k, and integer parts a_1, ..., a_n with
``k(2g - 2 + n) - sum a_i = 0 mod r``, the moduli space of r-th tensor
roots of ``omega_log^k(-sum a_i x_i)`` maps down to the moduli of stable
curves with degree ``r^{2g-1}``.  The pushforward of the total Chern
class of minus the derived pushforward of the universal root is a graph
sum whose coefficients are Bernoulli polynomials evaluated at residues
over r:

* each vertex contributes ``exp(-sum_m (-1)^{m-1} B_{m+1}(k/r) kappa_m
  / (m(m+1)))``;
* the leg with part a_i contributes the same exponential with
  ``B_{m+1}(abar_i / r)`` on ``psi^m``, with abar_i the residue of a_i;
* an edge with half-edge weights (w, r - w) contributes
  ``(1 - exp(sum_m (-1)^{m-1} B_{m+1}(w/r)/(m(m+1))
  [psi^m - (-psi')^m])) / (psi + psi')``,
  a power series in the two psi classes.  With
  ``A(x) = sum_m (-1)^{m-1} B_{m+1}(w/r) x^m / (m(m+1))`` the exponent is
  ``A(psi) - A(-psi')``, so the factor is
  ``(1 - e^{A(psi)} e^{-A(-psi')}) / (psi + psi')``: two one-variable
  exponentials and one division by ``psi + psi'``;
* the graph is weighted by ``r^{2g - 1 - h1(Gamma)} / |Aut(Gamma)|`` and
  the sum runs over all k-weightings mod r.

The reflection ``B_{m+1}(w/r) = (-1)^{m+1} B_{m+1}((r-w)/r)`` makes the
edge factor independent of which half carries w; this symmetry is
exposed for testing through :func:`edge_factor_coefficients`.

Scaled by ``r^{2d - 2g + 1}``, the degree-d part is a polynomial in r
whose constant term agrees with ``2^{-d}`` times the r-free degree-d
class of the weighting graph sum -- the cross-formula identity checked
by :func:`verify_samefreeterm`.  The constant term is built exactly,
with no modulus fixed: every Bernoulli weight is a polynomial in ``w/r``
or in ``1/r``, so each graph's terms are Laurent polynomials in r whose
weighting sums, of edge factors that are sums of observables ``w^q``,
come from the one r-free weighting route, ``profile_weights``: each
class weight contracted once per graph sum on tree quotients, and
otherwise one certified fit per graph of one sum per profile.  They
stay integer numerators over one denominator; only the kept coefficient
is formed, and only the constant terms become decorated graphs.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb

from .exact import RPoly, bernoulli_number, bernoulli_poly
from .graphs import StableGraph, automorphism_order, enumerate_stable_graphs, require_stable_type
from .pixton import pixton_class
from .tautclass import (
    DecoratedGraph,
    TautClass,
    _Numerators,
    emit_series,
    graph_sum_data,
    series_edge_mul,
    series_vertex_leg_exp,
    trivial_class,
)
from .weightings import DRVector, EdgeTerms, edge_profile_sums, profile_weights

__all__ = [
    "edge_factor_coefficients",
    "chiodo_pushforward",
    "chiodo_constant",
    "verify_samefreeterm",
    "chern_route_class",
]


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


@lru_cache(maxsize=None)
def edge_factor_coefficients(r: int, w: int, cap: int) -> tuple:
    """Edge factor as coefficients of psi^i psi'^j, total degree <= cap.

    The polynomials of :func:`_edge_factor_polys` at ``u = (w mod r)/r``,
    returned as a tuple of ((i, j), coefficient) pairs sorted by exponent,
    zero coefficients left out.
    """
    u = Fraction(w % r, r)
    return tuple((key, c) for key, poly in _edge_factor_polys(cap) if (c := poly(u)))


def _leg_vertex_weights(legs: list, kappa, cap: int) -> tuple[list, list]:
    """The leg and vertex weights of degrees 1 to cap, as ``series_vertex_leg_exp`` takes them.

    Leg ``i`` weighs ``psi_i^m`` by the Bernoulli weight at ``legs[i]``
    and each vertex weighs ``kappa_m`` by minus the weight at ``kappa``;
    the points are rationals or polynomials.
    """
    weights = [_bernoulli_weight(m) for m in range(1, cap + 1)]
    return [[B(x) for B in weights] for x in legs], [-B(kappa) for B in weights]


def _vertex_leg_series(graph: StableGraph, dr: DRVector, r: int, cap: int) -> dict:
    """Product of all vertex and leg exponentials at modulus r, truncated at degree cap."""
    points = [Fraction(a % r, r) for a in dr.parts]
    return series_vertex_leg_exp(graph, *_leg_vertex_weights(points, Fraction(dr.twist, r), cap), cap)


def _require_roots(dr: DRVector, r: int) -> None:
    if r <= 0:
        raise ValueError("modulus must be positive")
    if dr.defect % r:
        raise ValueError(f"no r-th roots exist: k(2g-2+n) - sum(a) is not divisible by {r}")


def _graph_series(dr: DRVector, d: int, exponential):
    """:func:`~drtaut.tautclass.graph_sum_data` for the degree-d sum, with ``exponential``.

    A profile has one edge factor pair ``(i, j)`` of :func:`_edge_factor_polys`
    per edge, of degree ``i + j`` (truncation changes no coefficient).
    """
    edge_keys = {key: sum(key) for key, _ in _edge_factor_polys(d)}
    return graph_sum_data(dr.genus, dr.n, d, exponential, edge_keys)


def chiodo_pushforward(dr: DRVector, d: int, r: int) -> TautClass:
    """Degree-d part of the pushed-forward total Chern class at modulus r.

    Emits every graph of :func:`_graph_series`: its edge monomials times
    the exponential, one :func:`~drtaut.tautclass.series_edge_mul` into
    degree d, weighted by ``r^{2g-1-b_1} / |Aut|``.  The edge factors are
    tabulated once per modulus up to degree d, and one
    :func:`edge_profile_sums` call per graph sums every profile's product
    of tables over the weightings.  Every series is truncated at the
    degree it has to reach, which changes no degree-d coefficient.
    """
    _require_roots(dr, r)
    factors = [dict(edge_factor_coefficients(r, w, d)) for w in range(r)]
    tables = {key: [f.get(key, 0) for f in factors] for key, _ in _edge_factor_polys(d)}

    def exponential(graph, budget):
        return _vertex_leg_series(graph, dr, r, budget)

    acc: list = []
    for _, graph, b, aut, L, profiles in _graph_series(dr, d, exponential):
        sums = edge_profile_sums(graph, r, dr, [[tables[p] for p in prof] for prof in profiles])
        weights = {prof: s for prof, s in zip(profiles, sums) if s}
        scale = aut / Fraction(r) ** (2 * dr.genus - 1 - b)
        emit_series(acc, graph, series_edge_mul(L, graph, weights, d), scale)
    return TautClass(dr.genus, dr.n, acc)


def _dot(xs, ys) -> int:
    return sum(map(operator.mul, xs, ys))


def _constant_series(dr: DRVector, d: int):
    """Each graph's terms of :func:`chiodo_constant`, before canonicalisation.

    Yields ``(graph, {monomial: total}, scale)``, in the order of
    :func:`_graph_series`: each coefficient is an integer total over the
    graph's integer scale, the zero ones left out.
    """
    dr.require_exact()
    # Every edge factor over one denominator, so that a profile's is over its power.
    factors = _Numerators(dict(_edge_factor_polys(d)))
    terms = EdgeTerms({key: [((q, 0), c) for q, c in enumerate(nums) if c] for key, nums in factors.items()})
    top = 2 * d
    label = f"chiodo constant (g={dr.genus},n={dr.n},k={dr.twist},d={d})"
    points = [RPoly([int(a < 0), a]) for a in dr.parts]
    legs, kappa = _leg_vertex_weights(points, RPoly([0, dr.twist]), d)

    def exponential(graph, budget):
        return _Numerators(series_vertex_leg_exp(graph, legs, kappa, budget))

    for idx, graph, _, aut, L, profiles in _graph_series(dr, d, exponential):
        name = f"{label} graph#{idx}"
        # r^{2d-b} times a profile's sum, kept from r^0 to r^{2d}: a dot
        # product with the exponential's numerators from v^0 up is the
        # v^{2d} coefficient.
        polys, den = profile_weights(graph, dr, profiles, terms, top, name)
        weights = {prof: w for prof, w in zip(profiles, polys) if any(w)}
        scale = den * factors.den**graph.n_edges * L.den * aut
        yield graph, series_edge_mul(L, graph, weights, d, _dot), scale


def chiodo_constant(dr: DRVector, d: int) -> TautClass:
    """Constant term in r of ``r^{2d-2g+1}`` times the degree-d pushforward.

    Exactly balanced data is required, so that every large modulus admits
    r-th roots.  Each graph's terms are exact Laurent polynomials in r,
    built with no modulus fixed:

    * an edge factor coefficient is a polynomial in ``u = w/r``
      (:func:`_edge_factor_polys`), each power ``u^q`` the observable
      ``(q, 0)`` over ``r^q``.  One
      :func:`~drtaut.weightings.profile_weights` call per graph gives
      every profile's weight as a polynomial in ``1/r``: on a tree
      quotient each class weight is contracted once per graph sum, and
      otherwise each profile is fitted in one certified fit;
    * the leg and vertex weights ``B_{m+1}(abar_i/r)`` and ``B_{m+1}(k/r)``
      are polynomials in ``v = 1/r``, with ``abar_i/r = 1 + a_i v`` for
      ``a_i < 0`` once r exceeds every ``|a_i|``.

    With the graph's weight ``r^{2g-1-b_1} / |Aut|`` a term is
    ``r^{2d-b_1} / |Aut|`` times a polynomial in ``v``; its constant term in
    r is the ``v^{2d}`` coefficient of that polynomial over ``|Aut|``.
    Everything is kept as integer numerators over one denominator, and
    only the kept coefficient is formed: the edge factors and the sums
    contract into integer weight vectors, from ``r^0`` to ``r^{2d}``, over
    one scale per graph, the exponential is put over one denominator once
    per vertex and edge count, and each monomial's ``v^{2d}`` coefficient
    is an integer dot product.  The one integer emit that Pixton's sums
    share (:func:`~drtaut.tautclass.emit_series`) divides it once by the
    scale, that denominator and ``|Aut|``, and relabels the graph's terms
    through one vertex order.  The terms merge under isomorphism as any
    class does.
    """
    acc: list = []
    for graph, totals, scale in _constant_series(dr, d):
        emit_series(acc, graph, totals, scale)
    return TautClass(dr.genus, dr.n, acc)


def verify_samefreeterm(dr: DRVector, d: int) -> tuple[bool, str]:
    """Check the two degree-d constant terms agree; report any difference.

    The scaled Chern-class constant term must coincide with ``2^{-d}``
    times the r-free weighting graph sum.  Returns ``(ok, report)``
    where the report lists coefficient differences term by term when
    the check fails (and is empty otherwise).
    """
    left = chiodo_constant(dr, d)
    right = pixton_class(dr, d)._scale_in_place(Fraction(1, 2**d))
    ok = left.formal_equal(right)
    return ok, ("" if ok else left.diff_report(right))


def chern_route_class(dr: DRVector, d: int, r: int) -> TautClass:
    """Degrees 0 and 1 of the pushforward via the Chern-character route.

    An independent assembly used only for cross-checking: the total
    Chern class of minus a complex is exp(sum (-1)^m (m-1)! ch_m), so
    the degree-1 part is -ch_1 -- the kappa and psi summands with their
    Bernoulli weights, plus one boundary term per one-edge graph, summing
    ``r . B_2(w/r)/2 . r^{sum_v (2 g_v - 1)} / |Aut|`` over its weightings
    in one :func:`edge_profile_sums` call
    (the ordering of the two branches at the node accounts for a factor
    2 against the half in the character formula).  Degrees above 1 would
    need products of pushforward terms, which the formal class algebra
    deliberately does not define.
    """
    g, n = dr.genus, dr.n
    require_stable_type(g, n)
    if d not in (0, 1):
        raise ValueError("chern route implemented for degrees 0 and 1 only")
    _require_roots(dr, r)
    smooth = trivial_class(g, n).scale(Fraction(r) ** (2 * g - 1))
    if d == 0:
        return smooth
    acc: list = []
    base = smooth.items()[0][0].graph
    kappa_coeff = -bernoulli_poly(2, Fraction(dr.twist, r)) / 2
    if kappa_coeff:
        acc.append(
            (DecoratedGraph(base, kappa=((1,),)), kappa_coeff * Fraction(r) ** (2 * g - 1))
        )
    for i, a in enumerate(dr.parts):
        leg_coeff = bernoulli_poly(2, Fraction(a % r, r)) / 2
        if leg_coeff:
            leg_psi = tuple(1 if j == i else 0 for j in range(n))
            acc.append(
                (DecoratedGraph(base, leg_psi=leg_psi), leg_coeff * Fraction(r) ** (2 * g - 1))
            )
    b2 = [bernoulli_poly(2, Fraction(w, r)) for w in range(r)]
    for graph in enumerate_stable_graphs(g, n, max_edges=1):
        if graph.n_edges != 1:
            continue
        [total] = edge_profile_sums(graph, r, dr, [(b2,)])
        vertex_power = sum(2 * gv - 1 for gv in graph.genera)
        coeff = -Fraction(r) * total / 2 * Fraction(r) ** vertex_power
        acc.append((DecoratedGraph(graph), coeff / automorphism_order(graph)))
    return TautClass(g, n, acc)
