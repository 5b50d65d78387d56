"""Graph-sum tautological classes and double ramification cycles.

The degree-d class for ramification data ``(g, A, k)`` is assembled as a
sum over stable graphs with at most d edges.  Each graph contributes, for
every weighting mod r,

* ``exp(a_i^2 psi)`` on each leg,
* ``exp(-k^2 kappa_1)`` at each vertex,
* per edge, with ``x = w(h) w(h')`` the product of the residues on its two
  halves and ``s = psi_h + psi_{h'}``, the factor
  ``sum_m (-1)^m x^{m+1} s^m / (m+1)!``,

weighted by ``1 / (|Aut| r^b)``.  Only the edge factors depend on the
weighting, so each graph is assembled once: the weighting sum of
``prod_e x_e^{m_e+1}`` weights the edge monomials of each exponent profile
``m``, and one series product with the vertex and leg exponential gives
the graph's terms.  At fixed r the weight is that sum over ``|Aut| r^b``;
the r-free class takes its constant term in r, the sum being a
polynomial in r divisible by ``r^b``.
:func:`~drtaut.weightings.fit_edge_profiles` gives that polynomial
exactly: in closed form when the graph's simple quotient is a tree, and
by a certified fit on sampled moduli otherwise.  ``DR_g(A) = 2^{-g}``
times the degree-g class, and the Hodge class expression is
``lambda_g = (-1)^g DR_g(0, ..., 0)``.

Genus 0 and genus 1 admit closed forms with no weighting enumeration at
all (trees have a unique weighting whose edge products have constant term
``-a_I^2`` for side sum ``a_I``); these serve as independent oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Sequence

from .graphs import (
    StableGraph,
    automorphism_order,
    enumerate_stable_graphs,
    first_betti,
    require_stable_type,
)
from .tautclass import (
    DecoratedGraph,
    TautClass,
    delta0,
    delta_I,
    emit_series,
    monomial_degree,
    series_degree_mul,
    series_vertex_leg_exp,
)
from .weightings import (
    DRVector,
    edge_profile_sums,
    exact_edge_profiles,
    fit_edge_profiles,
    power_tables,
    sampled_edge_profiles,
)

__all__ = [
    "pixton_fixed_r",
    "pixton_class",
    "verify_polynomiality",
    "dr_cycle",
    "lambda_expression",
    "genus0_closed",
    "genus1_closed",
]


def _vertex_leg_series(graph: StableGraph, dr: DRVector, cap: int) -> dict:
    """``exp(sum_i a_i^2 psi_i - k^2 sum_v kappa_1(v))``, truncated at ``cap``."""
    return series_vertex_leg_exp(graph, [(a * a,) for a in dr.parts], (-dr.twist**2,), cap)


@lru_cache(maxsize=None)
def _edge_power(m: int) -> tuple:
    """``(-1)^m (psi_h + psi_h')^m / (m+1)!`` as ``((i, m - i), coefficient)`` pairs."""
    sign = (-1) ** m
    return tuple(((i, m - i), Fraction(sign * comb(m, i), factorial(m + 1))) for i in range(m + 1))


def _emit_graph(acc: list, graph: StableGraph, L: dict, d: int, weights: dict) -> None:
    """Emit one graph's degree-d terms, its edge profiles weighted by ``weights``.

    ``weights`` maps edge-exponent profiles ``m`` to rationals ``w_m``; the
    edge series ``sum_m w_m prod_e (-1)^{m_e} s_e^{m_e} / (m_e+1)!``, with
    ``s_e = psi_h + psi_h'``, is expanded straight into edge monomials and
    multiplied once by the vertex and leg exponential ``L``, into degree
    ``d - n_edges`` only.
    """
    cap = d - graph.n_edges
    legs, kappa = (0,) * graph.n_legs, ((),) * graph.n_vertices
    edges = {}
    for m, w in weights.items():
        if w:
            for choice in itertools.product(*map(_edge_power, m)):
                pairs = tuple(pair for pair, _ in choice)
                edges[legs, pairs, kappa] = w * prod(c for _, c in choice)
    emit_series(acc, graph, series_degree_mul(L, edges, cap), Fraction(1))


def _skip_for_zero_data(graph: StableGraph, dr: DRVector) -> bool:
    # With k = 0 and all parts zero every bridge carries residue 0, so any
    # graph with a separating edge contributes nothing in any degree.
    if dr.twist != 0 or any(dr.parts):
        return False
    return bool(graph.bridges())


def _graph_templates(dr: DRVector, d: int):
    """The per-graph data the graph sums share, for each graph with profiles.

    Yields a label naming the data and the graph's index in the
    enumeration, the graph, its Betti number, ``|Aut|``, the vertex and
    leg exponential ``L`` truncated at ``cap = d - n_edges``, and the edge
    exponent profiles ``m`` for which ``L`` has degree ``cap - |m|`` terms.
    The type ``(g, n)`` is checked before the degree, since a negative
    genus makes the degree ``g`` of a DR cycle negative too.
    """
    require_stable_type(dr.genus, dr.n)
    if d < 0:
        raise ValueError("degree must be non-negative")
    for idx, graph in enumerate(enumerate_stable_graphs(dr.genus, dr.n, max_edges=d)):
        if _skip_for_zero_data(graph, dr):
            continue
        cap = d - graph.n_edges
        L = _vertex_leg_series(graph, dr, cap)
        degrees = {monomial_degree(mono) for mono in L}
        profiles = [
            m
            for m in itertools.product(range(cap + 1), repeat=graph.n_edges)
            if cap - sum(m) in degrees
        ]
        if profiles:
            label = f"P(g={dr.genus},n={dr.n},k={dr.twist},d={d}) graph#{idx}"
            yield label, graph, first_betti(graph), automorphism_order(graph), L, profiles


def _powers(profiles: list) -> list:
    """The ``x^{m+1}`` observables ``(m+1, m+1)`` of edge-exponent profiles ``m``."""
    return [tuple((k + 1, k + 1) for k in m) for m in profiles]


def pixton_fixed_r(dr: DRVector, d: int, r: int) -> TautClass:
    """The degree-d graph-sum class at a fixed modulus r.

    Requires the mod-r admissibility ``sum a_i = k (2g - 2 + n) mod r``;
    the weighting set is empty otherwise and the class would be trivially
    zero, which is rejected as a usage error.  Example: for
    ``g = 1, k = 0, A = (0), d = 1, r = 5`` the loop-graph coefficient is 2.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    if dr.defect % r:
        raise ValueError(f"no weightings mod {r}: admissibility fails")
    acc: list = []
    for _, graph, b, aut, L, profiles in _graph_templates(dr, d):
        sums = edge_profile_sums(graph, r, dr, power_tables(r, _powers(profiles)))
        weights = {m: Fraction(s, aut * r**b) for m, s in zip(profiles, sums)}
        _emit_graph(acc, graph, L, d, weights)
    return TautClass(dr.genus, dr.n, acc)


def pixton_class(dr: DRVector, d: int) -> TautClass:
    """The r-free degree-d class: constant term in r of the graph sum.

    For each stable graph and edge-power profile the weighting sum is
    found as a polynomial in r (:func:`~drtaut.weightings.fit_edge_profiles`),
    integer numerators over one denominator.  It is checked divisible by
    ``r^b``, and its coefficient of ``r^b`` enters the class, read as one
    numerator over the denominator times ``|Aut|``.  Requires exactly
    balanced ramification data so that every large modulus is admissible.
    """
    dr.require_exact()
    acc: list = []
    for label, graph, b, aut, L, profiles in _graph_templates(dr, d):
        fits = fit_edge_profiles(graph, dr, _powers(profiles), label=label)
        weights = {}
        for m, (nums, den) in zip(profiles, fits):
            if any(nums[:b]):
                raise ValueError(f"weighting sum not divisible by r^{b} on {label} profile {m}")
            if len(nums) > b:
                weights[m] = Fraction(nums[b], den * aut)
        _emit_graph(acc, graph, L, d, weights)
    return TautClass(dr.genus, dr.n, acc)


def verify_polynomiality(dr: DRVector, d: int) -> tuple[int, list[str]]:
    """Certify every fit behind the r-free degree-d class; list the bad ones.

    Makes the sampled fits (:func:`~drtaut.weightings.sampled_edge_profiles`)
    of every graph and profile of :func:`pixton_class`, and returns
    ``(fits, bad)``: how many were made, and a line naming the graph's
    label and the profile of each fit not divisible by ``r^b``.  On every
    graph whose simple quotient is a tree, each fit is also compared with
    the exact polynomial (:func:`~drtaut.weightings.exact_edge_profiles`).
    A fit that fails verification raises ``ArithmeticError`` with the
    message of :func:`~drtaut.weightings.certified_fit`; so does, when no
    fit is bad, a fit that differs from its exact polynomial, naming each
    such graph and profile.  Data that is not exactly balanced, an unstable
    type or a negative degree raise ``ValueError`` before any fit.
    """
    dr.require_exact()
    fits, bad, differ = 0, [], []
    for label, graph, b, _, _, profiles in _graph_templates(dr, d):
        powers = _powers(profiles)
        try:
            sampled = sampled_edge_profiles(graph, dr, powers, label=label)
        except ValueError as exc:
            raise ArithmeticError(str(exc)) from exc
        exact = exact_edge_profiles(graph, dr, powers) or sampled
        fits += len(sampled)
        for m, poly, expected in zip(profiles, sampled, exact):
            if not poly.divisible_by(b):
                bad.append(f"{label} profile {m}: not divisible by r^{b}")
            elif poly != expected:
                differ.append(f"{label} profile {m}")
    if differ and not bad:
        raise ArithmeticError(f"sampled and exact polynomials differ on {', '.join(differ)}")
    return fits, bad


def dr_cycle(dr: DRVector) -> TautClass:
    """Double ramification cycle ``2^{-g}`` times the degree-g class.

    Only untwisted (``k = 0``), exactly balanced data is accepted.
    """
    if dr.twist != 0:
        raise ValueError("the cycle is defined for untwisted data (k = 0)")
    dr.require_exact()
    return pixton_class(dr, dr.genus).scale(Fraction(1, 2**dr.genus))


def lambda_expression(g: int, n: int = 0) -> TautClass:
    """Hodge class expression ``(-1)^g`` times the cycle for the zero vector."""
    require_stable_type(g, n)
    return dr_cycle(DRVector(g, (0,) * n)).scale(Fraction((-1) ** g))


# -- closed-form oracles ----------------------------------------------


def genus0_closed(A: Sequence[int], d: int) -> TautClass:
    """Genus-0 degree-d class by the direct tree sum.

    Trees have a unique weighting: an edge splitting the markings into
    ``I | I^c`` carries residues ``-+ a_I mod r``, so its edge series has
    the closed coefficients ``-(a_I^2)^{m+1}/(m+1)!`` with no r anywhere.
    No weighting enumeration or interpolation is involved.
    """
    A = tuple(int(a) for a in A)
    n = len(A)
    if n < 3:
        raise ValueError("genus 0 needs at least three markings")
    if sum(A) != 0:
        raise ValueError("parts must sum to zero")
    acc: list = []
    for graph in enumerate_stable_graphs(0, n, max_edges=d):
        cap = d - graph.n_edges
        a2 = [sum(A[i - 1] for i in graph.edge_side_markings(t)) ** 2 for t in range(graph.n_edges)]
        weights = {
            m: prod((-x) ** (k + 1) for x, k in zip(a2, m))
            for m in itertools.product(range(cap + 1), repeat=graph.n_edges)
            if sum(m) <= cap
        }
        _emit_graph(acc, graph, _vertex_leg_series(graph, DRVector(0, A), cap), d, weights)
    return TautClass(0, n, acc)


def genus1_closed(A: Sequence[int]) -> TautClass:
    """Genus-1 degree-1 class in divisor form.

    ``sum a_i^2 psi_i - sum_{|I| >= 2} a_I^2 delta_I - (1/6) delta_0``
    with ``a_I`` the sum over the rational-tail markings ``I``.
    """
    A = tuple(int(a) for a in A)
    n = len(A)
    if n < 1:
        raise ValueError("genus 1 needs at least one marking")
    if sum(A) != 0:
        raise ValueError("parts must sum to zero")
    out = TautClass(1, n)
    base = StableGraph([1], [], [0] * n)
    for i, a in enumerate(A):
        if a != 0:
            dg = DecoratedGraph(base, tuple(1 if j == i else 0 for j in range(n)))
            out = out + TautClass(1, n, [(dg, Fraction(a * a))])
    for size in range(2, n + 1):
        for I in itertools.combinations(range(1, n + 1), size):
            a_I = sum(A[i - 1] for i in I)
            if a_I != 0:
                out = out - delta_I(n, I).scale(Fraction(a_I * a_I))
    out = out - delta0(n).scale(Fraction(1, 6))
    return out
