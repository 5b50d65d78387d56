"""Slow reference implementations kept as test oracles.

``enumerate_weightings`` lists every weighting through the library's tree
solve, so brute-force checks of the solve go through it.  The direct
``edge_profile_sums`` runs the same solve on the unreduced graph and
multiplies one table entry per edge and weighting; the library merges
parallel edges into one convolved edge first.  The per-weighting
``chiodo_pushforward`` multiplies whole decoration series once per
weighting; the library sums per-edge residue tables over the weightings
first, and the two are compared term by term.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from drtaut.chiodo import _vertex_leg_series, edge_factor_coefficients
from drtaut.graphs import automorphism_order, enumerate_stable_graphs, first_betti
from drtaut.pixton import _emit
from drtaut.tautclass import TautClass, psi_edge_monomial, series_degree_part, series_mul
from drtaut.weightings import DRVector, _solutions, _solve_plan


def enumerate_weightings(graph, r: int, dr: DRVector) -> tuple[tuple[int, ...], ...]:
    """All weightings mod ``r`` on ``graph`` for the given ramification data.

    Each weighting is a tuple of residues, one per half-edge in layout
    order.  There are ``r^b`` of them when the global congruence holds,
    none otherwise.  Loop edges and edges off a spanning tree range freely;
    the tree values are forced by the vertex congruences.
    """
    if r <= 0:
        raise ValueError("modulus must be positive")
    if graph.n_legs != dr.n:
        raise ValueError("marking count does not match the ramification vector")
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
        static = _vertex_leg_series(graph, dr, r, budget)
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
                _emit(acc, graph, sliced, scalar)
    return TautClass(g, n, acc)
