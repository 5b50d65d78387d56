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
the graph's terms.  The product runs on integers, the edge powers over
``(d+1)!``, the weights over one denominator and the exponential over its
own, so each term's coefficient is one ``Fraction``, formed in the emit
Chiodo's constant term shares (:func:`~drtaut.tautclass.emit_series`).
A graph with a bridge whose residue, forced by the
data, is 0 has ``x = 0`` on that bridge at every weighting, so it adds
nothing.  That residue depends only on the bridge's sides, and a
degeneration keeps every bridge with its sides, so the enumeration is
pruned at the first such graph (:func:`_zero_sides`); the sum never
sees one.
At fixed r the weight is that sum over ``|Aut| r^b``; the r-free class
takes its constant term in r, the sum being a polynomial in r divisible
by ``r^b``.  :func:`~drtaut.weightings.profile_weights` gives that
polynomial exactly, times a power of ``1/r``: in closed form when the
graph's simple quotient is a tree, and by a certified fit on sampled
moduli otherwise.  ``DR_g(A) = 2^{-g}``
times the degree-g class, and the Hodge class expression is
``lambda_g = (-1)^g DR_g(0, ..., 0)``; both scale the class just built
in place.

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

from .graphs import StableGraph, enumerate_stable_graphs, require_stable_type
from .tautclass import (
    DecoratedGraph,
    TautClass,
    delta0,
    delta_I,
    emit_series,
    graph_sum_data,
    series_edge_mul,
    series_vertex_leg_exp,
)
from .weightings import (
    DRVector,
    EdgeTerms,
    edge_profile_sums,
    key_tables,
    profile_weights,
    sampled_profile_weights,
    tree_profile_weights,
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


def _vertex_leg_series(graph: StableGraph, dr: DRVector, cap: int) -> tuple[dict, int]:
    """``exp(sum_i a_i^2 psi_i - k^2 sum_v kappa_1(v))``, truncated at ``cap``, over one denominator."""
    return series_vertex_leg_exp(graph, [(a * a,) for a in dr.parts], (-dr.twist**2,), 1, cap)


@lru_cache(maxsize=None)
def _edge_power(m: int, d: int) -> tuple:
    """``(-1)^m (psi_h + psi_h')^m / (m+1)!`` as ``((i, m - i), numerator)`` pairs over ``(d+1)!``."""
    top = factorial(d + 1) // factorial(m + 1)
    return tuple(((i, m - i), (-1) ** m * comb(m, i) * top) for i in range(m + 1))


def _emit_graph(acc: list, graph: StableGraph, L: tuple, d: int, weights: dict, den: int) -> None:
    """Emit one graph's degree-d terms, its edge profiles weighted by ``weights`` over ``den``.

    ``weights`` maps edge-exponent profiles ``m`` to integers ``w_m``; the
    edge series ``sum_m w_m prod_e (-1)^{m_e} s_e^{m_e} / (m_e+1)!``, with
    ``s_e = psi_h + psi_h'``, is expanded straight into edge monomials with
    integer weights over ``den (d+1)!^E`` and multiplied once by the vertex
    and leg exponential ``L``, numerators over one denominator
    (:func:`~drtaut.tautclass.series_edge_mul`).
    """
    series, L_den = L
    edges = {}
    for m, w in weights.items():
        if w:
            for choice in itertools.product(*(_edge_power(k, d) for k in m)):
                edges[tuple(pair for pair, _ in choice)] = w * prod(c for _, c in choice)
    scale = den * factorial(d + 1) ** graph.n_edges * L_den
    emit_series(acc, graph, series_edge_mul(series, graph, edges, d), scale)


def _zero_sides(dr: DRVector, r: int) -> frozenset:
    """The bridge sides ``(h, S)`` of residue 0 mod ``r`` (exactly 0 for ``r = 0``).

    On every weighting, a bridge's half on the side of arithmetic genus
    ``h`` and markings ``S`` carries the residue ``k (2h - 1 + |S|) - A_S``
    forced by the vertex congruences, ``A_S`` the sum of the parts on
    ``S``.  For admissible data the other side's residue is its negative,
    so the key holds both sides of each zero bridge.  Every ``(a, -a)``
    with ``a != 0`` gives one key, so their sums share one enumeration.
    """
    sides = []
    for size in range(dr.n + 1):
        for S in itertools.combinations(range(1, dr.n + 1), size):
            A_S = sum(dr.parts[i - 1] for i in S)
            for h in range(dr.genus + 1):
                residue = dr.twist * (2 * h - 1 + size) - A_S
                if (residue % r if r else residue) == 0:
                    sides.append((h, S))
    return frozenset(sides)


def _graph_templates(dr: DRVector, d: int, r: int | None = None):
    """:func:`~drtaut.tautclass.graph_sum_data` for the degree-d sum, with fit labels.

    Yields ``(label, graph, b_1, |Aut|, L, profiles)``: the label names the
    data and the graph's index among the graphs yielded, ``L`` is the
    vertex and leg exponential (:func:`_vertex_leg_series`), numerators
    over one denominator, and the
    profiles are edge exponent tuples ``m``, of degree ``|m|``.  Given a
    modulus ``r`` (0 for the r-free sum), the graphs with a bridge of
    residue 0 there are left out of the enumeration (:func:`_zero_sides`);
    ``None`` keeps every graph.  At ``d = 0`` the one graph has no bridge,
    so no key is built: it would go through all ``2^n`` marking sets.
    """
    edge_keys = {m: m for m in range(d + 1)}
    zero_sides = frozenset() if r is None or d == 0 else _zero_sides(dr, r)

    def exponential(graph, cap):
        return _vertex_leg_series(graph, dr, cap)

    for idx, graph, *data in graph_sum_data(dr.genus, dr.n, d, exponential, edge_keys, zero_sides):
        yield f"P(g={dr.genus},n={dr.n},k={dr.twist},d={d}) graph#{idx}", graph, *data


def _x_powers(d: int) -> dict:
    """Edge weights ``x^{m+1} / r^{2m+2}``, the observable ``(m+1, m+1)``, by exponent ``m``."""
    return {m: (((m + 1, m + 1), 1),) for m in range(d + 1)}


def pixton_fixed_r(dr: DRVector, d: int, r: int) -> TautClass:
    """The degree-d graph-sum class at a fixed modulus r.

    Requires the mod-r admissibility ``sum a_i = k (2g - 2 + n) mod r``;
    the weighting set is empty otherwise and the class would be trivially
    zero, which is rejected as a usage error.  Example: for
    ``g = 1, k = 0, A = (0), d = 1, r = 5`` the loop-graph coefficient is 2.
    """
    dr.require_modulus(r)
    tables = key_tables(r, _x_powers(d), range(d + 1))
    acc: list = []
    for _, graph, b, aut, L, profiles in _graph_templates(dr, d, r):
        sums = edge_profile_sums(graph, r, dr, [[tables[k] for k in m] for m in profiles])
        _emit_graph(acc, graph, L, d, dict(zip(profiles, sums)), aut * r**b)
    return TautClass(dr.genus, dr.n, acc)


def pixton_class(dr: DRVector, d: int) -> TautClass:
    """The r-free degree-d class: constant term in r of the graph sum.

    For each stable graph and edge-power profile the weighting sum is
    found as a polynomial in r (:func:`~drtaut.weightings.profile_weights`),
    integer numerators over one denominator.  It is checked divisible by
    ``r^b``, a self-check that raises ``ArithmeticError`` naming the
    graph's label and the profile, and its coefficient of ``r^b`` enters
    the class, read as one numerator over the denominator times ``|Aut|``.
    Requires a stable type and exactly balanced ramification data, so that
    every large modulus is admissible.
    """
    dr.require_exact()
    terms = EdgeTerms(_x_powers(d))
    acc: list = []
    for label, graph, b, aut, L, profiles in _graph_templates(dr, d, 0):
        polys, den = profile_weights(graph, dr, profiles, terms, 2 * d + b, label)
        weights = {}
        for m, poly in zip(profiles, polys):
            low = 2 * (d - sum(m) - len(m))  # the sum's r^j is at low + j
            if any(poly[low : low + b]):
                raise ArithmeticError(f"weighting sum not divisible by r^{b} on {label} profile {m}")
            weights[m] = poly[low + b]
        _emit_graph(acc, graph, L, d, weights, den * aut)
    return TautClass(dr.genus, dr.n, acc)


def verify_polynomiality(dr: DRVector, d: int) -> tuple[int, list[str]]:
    """Certify every fit behind the r-free degree-d class; list the bad ones.

    Runs the sampled route (:func:`~drtaut.weightings.sampled_profile_weights`)
    on every graph and profile of :func:`pixton_class`, on the graphs it
    enumerates (none with a bridge of residue 0, :func:`_graph_templates`),
    and returns ``(fits, bad)``: how many profiles were fitted, and a line
    naming the graph's label and the profile of each sum not divisible by
    ``r^b``.  On every graph whose simple quotient is a tree, each weight
    is also compared with the tree route's
    (:func:`~drtaut.weightings.tree_profile_weights`), cross-multiplied by
    the two denominators.  A fit that fails verification raises
    ``ArithmeticError`` with the message of
    :func:`~drtaut.weightings.certified_fit`; so does, when no sum is bad,
    a weight that differs between the routes, naming each such graph and
    profile.  An unstable type, then data that is not exactly balanced,
    then a negative degree raise ``ValueError`` before any fit.
    """
    dr.require_exact()
    terms = EdgeTerms(_x_powers(d))
    fits, bad, differ = 0, [], []
    for label, graph, b, _, _, profiles in _graph_templates(dr, d, 0):
        cap = 2 * d + b
        sampled, den = sampled_profile_weights(graph, dr, profiles, terms, cap, label)
        tree = tree_profile_weights(graph, dr, profiles, terms, cap, label)
        tree_weights, tree_den = tree or (sampled, den)
        fits += len(profiles)
        for m, poly, tree in zip(profiles, sampled, tree_weights):
            low = 2 * (d - sum(m) - len(m))
            if any(poly[low : low + b]):
                bad.append(f"{label} profile {m}: not divisible by r^{b}")
            elif [x * tree_den for x in poly] != [x * den for x in tree]:
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
    return pixton_class(dr, dr.genus)._scale_in_place(Fraction(1, 2**dr.genus))


def lambda_expression(g: int, n: int = 0) -> TautClass:
    """Hodge class expression ``(-1)^g`` times the cycle for the zero vector."""
    require_stable_type(g, n)
    return pixton_class(DRVector(g, (0,) * n), g)._scale_in_place(Fraction((-1) ** g, 2**g))


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
        L = _vertex_leg_series(graph, DRVector(0, A), cap)
        _emit_graph(acc, graph, L, d, weights, 1)
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
