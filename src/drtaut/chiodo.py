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
by :func:`verify_samefreeterm`.  The constant terms come from the same
certified scalar fit as the weighting sums, made on each graph's
monomials before canonicalisation, keyed by the graph's position in the
enumeration; only the fitted constant terms become decorated graphs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exact import bernoulli_poly
from .graphs import (
    StableGraph,
    automorphism_order,
    enumerate_stable_graphs,
    first_betti,
    require_stable_type,
)
from .pixton import pixton_class
from .tautclass import (
    DecoratedGraph,
    TautClass,
    emit_series,
    series_degree_mul,
    series_vertex_leg_exp,
    trivial_class,
)
from .weightings import (
    DRVector,
    certified_fit,
    default_r_min,
    edge_profile_sums,
)

__all__ = [
    "edge_factor_coefficients",
    "chiodo_pushforward",
    "chiodo_constant",
    "verify_samefreeterm",
    "chern_route_class",
]


@lru_cache(maxsize=None)
def _bern_coeff(m: int, x: Fraction) -> Fraction:
    """(-1)^{m-1} B_{m+1}(x) / (m(m+1)), the recurring exponent weight."""
    return Fraction((-1) ** (m - 1)) * bernoulli_poly(m + 1, x) / (m * (m + 1))


def _exp_coefficients(a: list, cap: int) -> list:
    """Coefficients of ``exp(sum_m a[m] x^m)`` up to ``x^cap``; ``a[0]`` is unused.

    From ``E' = A' E``: ``n e_n = sum_{k=1}^n k a_k e_{n-k}``.
    """
    e = [Fraction(1)]
    for n in range(1, cap + 1):
        e.append(sum(k * a[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e


@lru_cache(maxsize=None)
def edge_factor_coefficients(r: int, w: int, cap: int) -> tuple:
    """Edge factor as coefficients of psi^i psi'^j, total degree <= cap.

    With ``A(x) = sum_m (-1)^{m-1} B_{m+1}(w/r) x^m / (m(m+1))`` the
    exponent of the factor is ``A(psi) - A(-psi')``, so with
    ``s = psi + psi'`` the factor is
    ``(1 - e^{A(psi)} e^{-A(-psi')}) / s``: a product of two one-variable
    exponentials, divided by s one total degree n at a time through
    ``q_{n-1-k,k} = p_{n-k,k} - q_{n-k,k-1}``, where p is the numerator.
    Returned as a tuple of ((i, j), coefficient) pairs sorted by exponent.
    """
    A = [Fraction(0)] + [_bern_coeff(m, Fraction(w % r, r)) for m in range(1, cap + 2)]
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


def _vertex_leg_series(graph: StableGraph, dr: DRVector, r: int, cap: int) -> dict:
    """Product of all vertex and leg exponentials, truncated at degree cap."""
    degrees = range(1, cap + 1)
    legs = [[_bern_coeff(m, Fraction(a % r, r)) for m in degrees] for a in dr.parts]
    kappa = [-_bern_coeff(m, Fraction(dr.twist, r)) for m in degrees]
    return series_vertex_leg_exp(graph, legs, kappa, cap)


def _require_roots(dr: DRVector, r: int) -> None:
    if r <= 0:
        raise ValueError("modulus must be positive")
    if dr.defect % r:
        raise ValueError(f"no r-th roots exist: k(2g-2+n) - sum(a) is not divisible by {r}")


def _graphs(dr: DRVector, d: int, cap: int) -> list:
    """``(graph, 2g - 1 - b_1, |Aut|)`` for every graph of the degree-d sum.

    The degree is checked before the type, so a negative degree is
    reported as such on any type.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if cap < d:
        raise ValueError("truncation order below requested degree")
    return [
        (graph, 2 * dr.genus - 1 - first_betti(graph), automorphism_order(graph))
        for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=d)
    ]


def _graph_series(dr: DRVector, d: int, r: int, cap: int, graphs: list):
    """Each graph's degree ``d - n_edges`` series at modulus r, with its weight.

    Yields ``(graph, series, r^{2g-1-b_1} / |Aut|)`` for each entry of
    :func:`_graphs`.  The edge factors are tabulated once per modulus at
    the full cap; a graph keeps the pairs ``(i, j)`` within its budget
    ``cap - n_edges``, since truncation changes no coefficient.  One
    :func:`edge_profile_sums` call sums every choice of one pair per edge
    over the weightings; those sums are the edge monomials of one series,
    multiplied by the vertex and leg exponentials into degree
    ``d - n_edges`` only.  The exponentials depend on a graph only through
    its vertex count, leg placement and edge count, so each is built once.
    """
    factors = [dict(edge_factor_coefficients(r, w, cap)) for w in range(r)]
    tables = {key: [f.get(key, 0) for f in factors] for key in sorted(set().union(*factors))}
    exponentials: dict = {}
    for graph, r_exp, aut in graphs:
        n_edges = graph.n_edges
        budget = cap - n_edges
        keys = [key for key in tables if sum(key) <= budget]
        profiles = [
            prof
            for prof in itertools.product(keys, repeat=n_edges)
            if sum(i + j for i, j in prof) <= budget
        ]
        sums = edge_profile_sums(graph, r, dr, [[tables[p] for p in prof] for prof in profiles])
        legs, kappa = (0,) * dr.n, ((),) * graph.n_vertices
        edges = {(legs, prof, kappa): s for prof, s in zip(profiles, sums) if s}
        shape = (graph.n_vertices, graph.legs, n_edges)
        if shape not in exponentials:
            exponentials[shape] = _vertex_leg_series(graph, dr, r, budget)
        series = series_degree_mul(exponentials[shape], edges, d - n_edges)
        yield graph, series, Fraction(r) ** r_exp / aut


def chiodo_pushforward(dr: DRVector, d: int, r: int, cap: int | None = None) -> TautClass:
    """Degree-d part of the pushed-forward total Chern class at modulus r.

    Emits every graph's series from :func:`_graph_series`.  ``cap`` sets
    the truncation order of the exponentials (default d); any cap >= d
    yields the same degree-d output, which the test suite uses as a
    truncation-independence check.
    """
    _require_roots(dr, r)
    cap = d if cap is None else cap
    acc: list = []
    for graph, series, scalar in _graph_series(dr, d, r, cap, _graphs(dr, d, cap)):
        emit_series(acc, graph, series, scalar)
    return TautClass(dr.genus, dr.n, acc)


def chiodo_constant(dr: DRVector, d: int) -> TautClass:
    """Constant term in r of ``r^{2d-2g+1}`` times the degree-d pushforward.

    Exactly balanced data is required so that every sampled modulus
    admits r-th roots.  Each coefficient, keyed by its graph's position
    in the enumeration and its monomial before canonicalisation, is a
    scalar fit through the same certified interpolation protocol as the
    weighting sums (degree bound 2d + (2g-1), two verification nodes, one
    doubling retry).  Only the fitted constant terms become decorated
    graphs; they merge under isomorphism as any class does, and the
    constant term of a sum is the sum of the constant terms.
    """
    dr.require_exact()
    g = dr.genus
    graphs = _graphs(dr, d, d)
    bound = max(0, 2 * d + 2 * g - 1)
    scale_exp = 2 * d - 2 * g + 1

    def evaluate(r: int) -> dict[tuple, Fraction]:
        scale = Fraction(r) ** scale_exp
        out = {}
        for idx, (_, series, scalar) in enumerate(_graph_series(dr, d, r, d, graphs)):
            scalar *= scale
            for mono, c in series.items():
                out[idx, mono] = c * scalar
        return out

    label = f"chiodo constant (g={g},n={dr.n},k={dr.twist},d={d})"
    fits, _ = certified_fit(evaluate, bound, default_r_min(dr), label=label, betti=0)
    terms = ((graphs[idx][0], mono, poly.constant_term) for (idx, mono), poly in fits.items())
    return TautClass(g, dr.n, ((DecoratedGraph(graph, *mono), c) for graph, mono, c in terms))


def verify_samefreeterm(dr: DRVector, d: int) -> tuple[bool, str]:
    """Check the two degree-d constant terms agree; report any difference.

    The scaled Chern-class constant term must coincide with ``2^{-d}``
    times the r-free weighting graph sum.  Returns ``(ok, report)``
    where the report lists coefficient differences term by term when
    the check fails (and is empty otherwise).
    """
    left = chiodo_constant(dr, d)
    right = pixton_class(dr, d).scale(Fraction(1, 2**d))
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
