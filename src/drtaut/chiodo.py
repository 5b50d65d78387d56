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
by :func:`verify_samefreeterm`.  Every Bernoulli weight is in integers,
``(-1)^{m-1} B_{m+1}(x)/(m(m+1))`` one integer list in x over one
denominator, read at ``x = w/r`` on edges, ``abar_i/r`` on legs (in the
constant term ``[a_i < 0] + a_i/r``) and ``k/r`` on vertices, and every
exponential runs the one integer recurrence of
:func:`~drtaut.tautclass.series_exp`.  The constant term fixes no
modulus: each graph's terms are Laurent polynomials in r whose weighting
sums come from ``profile_weights``, and only the kept coefficient is
formed as a rational.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .exact import bernoulli_number, bernoulli_poly
from .graphs import StableGraph, automorphism_order, enumerate_stable_graphs, require_stable_type
from .pixton import pixton_class
from .tautclass import (
    DecoratedGraph,
    TautClass,
    _poly_fma,
    emit_series,
    graph_sum_data,
    psi_leg_monomial,
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
def _bernoulli_weights(cap: int) -> tuple[tuple, int]:
    """``(-1)^{m-1} B_{m+1}(x) / (m(m+1))`` for ``m <= cap``: integer lists in x over one denominator."""
    rows = []
    for m in range(1, cap + 1):
        scale = Fraction((-1) ** (m - 1), m * (m + 1))
        rows.append([scale * comb(m + 1, i) * bernoulli_number(m + 1 - i) for i in range(m + 2)])
    den = lcm(*(c.denominator for row in rows for c in row))
    return tuple([int(c * den) for c in row] for row in rows), den


def _weights_at(s: int, t: int, cap: int) -> list:
    """The numerators of :func:`_bernoulli_weights` at ``x = s + t v``, as integer lists in ``v``.

    The ``v^j`` coefficient of ``sum_i c_i x^i`` is ``t^j sum_{i >= j} c_i C(i, j) s^{i-j}``.
    """
    rows, _ = _bernoulli_weights(cap)
    return [
        [t**j * sum(c * comb(i, j) * s ** (i - j) for i, c in enumerate(row[j:], j)) for j in range(len(row))]
        for row in rows
    ]


def _at(nums: list, p: int, r: int) -> int:
    """``r^e`` times the polynomial ``nums`` at ``p / r``, ``e`` its length less one: an integer."""
    return sum(c * p**i * r ** (len(nums) - 1 - i) for i, c in enumerate(nums))


@lru_cache(maxsize=None)
def _edge_factor_polys(cap: int) -> tuple[tuple, int]:
    """Edge factor coefficients of psi^i psi'^j as integer lists in ``u = w/r`` over one denominator.

    With ``A(x) = sum_m (-1)^{m-1} B_{m+1}(u) x^m / (m(m+1))`` and
    ``s = psi + psi'`` the factor is ``(1 - e^{A(psi)} e^{-A(-psi')}) / s``:
    two one-variable exponentials, each one leg's
    :func:`~drtaut.tautclass.series_exp`, multiplied and divided by s one
    total degree n at a time through ``q_{n-1-k,k} = p_{n-k,k} - q_{n-k,k-1}``,
    p the numerator.  One table serves every modulus and residue: the
    ((i, j), numerators) pairs with ``i + j <= cap``, sorted, and the
    denominator, in lowest terms.
    """
    rows, den = _bernoulli_weights(cap + 1)
    graph, sides = StableGraph([1], [], [0]), []
    for weights in (rows, [row if m % 2 else [-c for c in row] for m, row in enumerate(rows, 1)]):
        series, den_side = series_vertex_leg_exp(graph, [weights], [], den, cap + 1, [1])
        sides.append([series.get(psi_leg_monomial(graph, 0, n), []) for n in range(cap + 2)])
    (left, right), out = sides, []
    for n in range(1, cap + 2):
        q: list = []
        for k in range(n):
            q = [-c for c in _poly_fma(q[:], left[n - k], right[k])]
            if any(q):
                out.append(((n - 1 - k, k), q))
    common = gcd(den_side**2, *(c for _, q in out for c in q))
    return tuple(sorted((key, [c // common for c in q]) for key, q in out)), den_side**2 // common


@lru_cache(maxsize=None)
def edge_factor_coefficients(r: int, w: int, cap: int) -> tuple:
    """Edge factor as coefficients of psi^i psi'^j, total degree <= cap.

    The polynomials of :func:`_edge_factor_polys` at ``u = (w mod r)/r``,
    returned as a tuple of ((i, j), coefficient) pairs sorted by exponent,
    zero coefficients left out.
    """
    polys, den = _edge_factor_polys(cap)
    values = ((key, _at(nums, w % r, r), r ** (len(nums) - 1)) for key, nums in polys)
    return tuple((key, Fraction(c, den * scale)) for key, c, scale in values if c)


def _exponential(dr: DRVector, d: int, r: int = 0):
    """The vertex and leg exponential of a degree-d sum, as :func:`_graph_series` takes it.

    Leg ``i`` weighs ``psi_i^m`` by the Bernoulli weight at its point and
    each vertex weighs ``kappa_m`` by minus the weight at ``k / r``.  With
    no modulus (``r = 0``) a leg's point is ``[a_i < 0] + a_i / r``, which
    is ``abar_i / r`` once r exceeds every ``|a_i|``, and the weights are
    integer lists in ``v = 1/r``; at a modulus r it is ``abar_i / r``, and
    the weights are integers over ``r^{d+1}`` more.
    """
    rows, den = _bernoulli_weights(d)
    if r:
        points = [a % r for a in dr.parts] + [dr.twist]
        *legs, kappa = [[_at(row, x, r) * r ** (d - m) for m, row in enumerate(rows, 1)] for x in points]
        kappa, den, one = [-c for c in kappa], den * r ** (d + 1), 1
    else:
        # The shift [a_i < 0] changes no constant term in r, but with it the
        # weights read at v = 1/r are the fixed-r weights for every
        # r > |a_i|, so the whole polynomial in r is right, not only its
        # constant term.
        *legs, kappa = [_weights_at(int(a < 0), a, d) for a in dr.parts] + [_weights_at(0, dr.twist, d)]
        kappa, one = [[-c for c in row] for row in kappa], [1]
    return lambda graph, budget: series_vertex_leg_exp(graph, legs, kappa, den, budget, one)


def _require_degree(dr: DRVector, d: int) -> None:
    """Reject an unstable type, then a negative degree, as ``graph_sum_data`` does, before any table."""
    require_stable_type(dr.genus, dr.n)
    if d < 0:
        raise ValueError("degree must be non-negative")


def _graph_series(dr: DRVector, d: int, exponential):
    """:func:`~drtaut.tautclass.graph_sum_data` for the degree-d sum, with ``exponential``.

    A profile has one edge factor pair ``(i, j)`` of :func:`_edge_factor_polys`
    per edge, of degree ``i + j`` (truncation changes no coefficient).
    """
    edge_keys = {key: sum(key) for key, _ in _edge_factor_polys(d)[0]}
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
    dr.require_modulus(r)
    _require_degree(dr, d)
    factors = [dict(edge_factor_coefficients(r, w, d)) for w in range(r)]
    tables = {key: [f.get(key, 0) for f in factors] for key, _ in _edge_factor_polys(d)[0]}
    acc: list = []
    for _, graph, b, aut, (L, den), profiles in _graph_series(dr, d, _exponential(dr, d, r)):
        sums = edge_profile_sums(graph, r, dr, [[tables[p] for p in prof] for prof in profiles])
        weights = {prof: s for prof, s in zip(profiles, sums) if s}
        scale = aut * den / Fraction(r) ** (2 * dr.genus - 1 - b)
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
    _require_degree(dr, d)
    # Every edge factor over one denominator, so that a profile's is over its power.
    factors, factor_den = _edge_factor_polys(d)
    terms = EdgeTerms({key: [((q, 0), c) for q, c in enumerate(nums) if c] for key, nums in factors})
    top = 2 * d
    label = f"chiodo constant (g={dr.genus},n={dr.n},k={dr.twist},d={d})"
    for idx, graph, _, aut, (L, L_den), profiles in _graph_series(dr, d, _exponential(dr, d)):
        name = f"{label} graph#{idx}"
        # r^{2d-b} times a profile's sum, kept from r^0 to r^{2d}: a dot
        # product with the exponential's numerators from v^0 up is the
        # v^{2d} coefficient.
        polys, den = profile_weights(graph, dr, profiles, terms, top, name)
        weights = {prof: w for prof, w in zip(profiles, polys) if any(w)}
        scale = den * factor_den**graph.n_edges * L_den * aut
        yield graph, series_edge_mul(L, graph, weights, d, _dot), scale


def chiodo_constant(dr: DRVector, d: int) -> TautClass:
    """Constant term in r of ``r^{2d-2g+1}`` times the degree-d pushforward.

    Exactly balanced data is required, so that every large modulus admits
    r-th roots.  Each graph's terms are exact Laurent polynomials in r,
    built with no modulus fixed:

    * an edge factor coefficient is a polynomial in ``u = w/r``, integer
      numerators over one denominator (:func:`_edge_factor_polys`), each
      power ``u^q`` the observable ``(q, 0)`` over ``r^q``.  One
      :func:`~drtaut.weightings.profile_weights` call per graph gives
      every profile's weight as a polynomial in ``1/r``: on a tree
      quotient each class weight is contracted once per graph sum, and
      otherwise each profile is fitted in one certified fit;
    * the leg and vertex weights ``B_{m+1}(abar_i/r)`` and ``B_{m+1}(k/r)``
      are integer lists in ``v = 1/r`` over one denominator, with
      ``abar_i/r = 1 + a_i v`` for ``a_i < 0`` once r exceeds every
      ``|a_i|`` (:func:`_exponential`).

    With the graph's weight ``r^{2g-1-b_1} / |Aut|`` a term is
    ``r^{2d-b_1} / |Aut|`` times a polynomial in ``v``; its constant term in
    r is the ``v^{2d}`` coefficient of that polynomial over ``|Aut|``.
    Only that coefficient is formed: the edge factors and the sums
    contract into integer weight vectors, from ``r^0`` to ``r^{2d}``, over
    one scale per graph, the exponential is one integer
    :func:`~drtaut.tautclass.series_exp` per vertex and edge count, and
    each monomial's ``v^{2d}`` coefficient is an integer dot product.  The one integer emit that Pixton's sums
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
    dr.require_modulus(r)
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
