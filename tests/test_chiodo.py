"""Tests for the r-th root Chern class pushforward and its constant term."""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from drtaut import chiodo, graphs, tautclass, weightings
from drtaut.chiodo import (
    _edge_factor_polys,
    chern_route_class,
    chiodo_constant,
    chiodo_pushforward,
    edge_factor_coefficients,
    verify_samefreeterm,
)
from drtaut.exact import bernoulli_poly
from drtaut.graphs import StableGraph, enumerate_stable_graphs
from drtaut.pixton import pixton_class
from drtaut.tautclass import DecoratedGraph, TautClass, delta0, trivial_class
from drtaut.weightings import DRVector

from oracles import RPoly
from oracles import chiodo_constant as whole_class_constant
from oracles import chiodo_constant_series as rpoly_constant_series
from oracles import chiodo_pushforward as per_weighting_pushforward
from oracles import chiodo_leg_vertex_series, lift
from oracles import edge_factor_coefficients as pair_product_edge_factor

F = Fraction


def psi_term(g: int, n: int, i: int, coeff: Fraction) -> tuple:
    graph = StableGraph([g], [], [0] * n)
    leg_psi = [0] * n
    leg_psi[i - 1] = 1
    return (DecoratedGraph(graph, leg_psi), coeff)


def test_degree_zero_is_r_power_times_trivial():
    cases = [(1, 1, 0, (0,)), (2, 1, 0, (0,)), (1, 2, 1, (1, 1)), (2, 2, 3, (2, 4))]
    for (g, n, k, a) in cases:
        dr = DRVector(g, a, k)
        for r in (2, 3, 5):
            if (k * (2 * g - 2 + n) - sum(a)) % r != 0:
                continue
            got = chiodo_pushforward(dr, 0, r)
            assert got == trivial_class(g, n).scale(F(r) ** (2 * g - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data(), st.integers(0, 3))
def test_edge_factor_half_swap_symmetry(r, data, cap):
    """Swapping the two halves of an edge matches replacing w by r - w."""
    w = data.draw(st.integers(0, r - 1))
    forward = dict(edge_factor_coefficients(r, w, cap))
    backward = dict(edge_factor_coefficients(r, (r - w) % r, cap))
    assert set(forward) == {(j, i) for (i, j) in backward}
    for (i, j), c in forward.items():
        assert backward[(j, i)] == c


def test_edge_factor_matches_pair_product_oracle():
    """Two one-variable exponentials divided by s equal the Z^p s^{p-1} sum."""
    for r in range(1, 10):
        for w in range(r):
            for cap in range(7):
                assert edge_factor_coefficients(r, w, cap) == pair_product_edge_factor(r, w, cap)


def edge_factor_rpolys(cap: int) -> dict:
    """The integer edge factor numerators of ``cap``, each over the denominator, as an ``RPoly`` in ``u``."""
    polys, den = _edge_factor_polys(cap)
    return {key: RPoly([F(c, den) for c in nums]) for key, nums in polys}


def test_edge_factor_polynomials_match_pair_product_oracle():
    """The u-polynomials at u = w/r are the oracle's edge factor, for r <= 9.

    Those points are more than any polynomial's degree, 2(i + j + 1), so
    they determine it.  A smaller cap keeps the pairs within it unchanged.
    """
    full = edge_factor_rpolys(6)
    assert all(poly.degree <= 2 * (i + j + 1) < 28 for (i, j), poly in full.items())
    for cap in range(7):
        polys = edge_factor_rpolys(cap)
        assert [key for key, _ in _edge_factor_polys(cap)[0]] == sorted(polys)
        assert polys == {key: full[key] for key in full if sum(key) <= cap}
        for r in range(1, 10):
            for w in range(r):
                values = {key: poly(F(w, r)) for key, poly in polys.items()}
                want = dict(pair_product_edge_factor(r, w, cap))
                assert {key: c for key, c in values.items() if c} == want


@pytest.mark.parametrize("cap", range(7))
def test_integer_edge_factor_matches_rpoly_oracle(cap):
    """Integer numerators over one denominator in lowest terms, equal to the RPoly route's polynomials."""
    polys, den = _edge_factor_polys(cap)
    assert all(type(c) is int for _, nums in polys for c in nums) and type(den) is int
    assert math.gcd(den, *(c for _, nums in polys for c in nums)) == 1
    assert tuple(edge_factor_rpolys(cap).items()) == oracles._edge_factor_polys(cap)


def test_constant_term_builds_no_edge_factor_table(monkeypatch):
    """The exact route tabulates no edge factor and samples only free residues."""

    def forbidden(*args, **kwargs):
        raise AssertionError("an edge factor table was built")

    sampled = []
    real = weightings.edge_profile_sums

    def spy(graph, r, dr, profiles):
        sampled.append(graph)
        return real(graph, r, dr, profiles)

    monkeypatch.setattr(chiodo, "edge_factor_coefficients", forbidden)
    monkeypatch.setattr(weightings, "edge_profile_sums", spy)
    dr = DRVector(2, (1, -1))
    got = chiodo_constant(dr, 3)
    assert sampled and all(weightings._quotient(graph).plan.free for graph in sampled)
    assert got == pixton_class(dr, 3).scale(F(1, 8))


@pytest.mark.parametrize("route", ["constant", "pushforward", "pixton"])
def test_class_routes_run_the_one_exponential(monkeypatch, route):
    """Each class route reaches ``tautclass.series_exp``.

    The benchmark's ``tautclass.series`` span binds that name, so a route
    that went round it would read 0 there.  The spy replaces the function
    wherever a module of the package binds it, as the span's wrapper does.
    The caches of the edge factor and the Bernoulli weights are cleared, so
    their cold build runs too.
    """
    calls = []
    real = tautclass.series_exp

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drtaut" and vars(module).get("series_exp") is real:
            monkeypatch.setattr(module, "series_exp", spy)
    chiodo._edge_factor_polys.cache_clear()
    chiodo._bernoulli_weights.cache_clear()
    dr = DRVector(2, (1, -1))
    build = {
        "constant": lambda: chiodo_constant(dr, 3),
        "pushforward": lambda: chiodo_pushforward(dr, 2, 3),
        "pixton": lambda: pixton_class(dr, 2),
    }[route]
    assert not build().is_zero()
    assert calls


def test_samefreeterm_orders_each_graph_once(monkeypatch):
    """Both constant terms relabel the same enumerated graphs, each through one vertex order.

    The graph keeps its order, so the Pixton sum that follows Chiodo's
    reuses the order the Chiodo sum found on each graph object.
    """
    ordered, relabelled = [], []
    order, form = graphs._vertex_order, tautclass.canonical_form_decorated

    def spy_order(graph):
        ordered.append(graph)
        return order(graph)

    def spy_form(graph, *decorations):
        relabelled.append(graph)
        return form(graph, *decorations)

    monkeypatch.setattr(graphs, "_vertex_order", spy_order)
    monkeypatch.setattr(tautclass, "canonical_form_decorated", spy_form)
    ok, _ = verify_samefreeterm(DRVector(2, (1, -1)), 3)
    assert ok and relabelled
    assert len({id(graph) for graph in ordered}) == len(ordered)
    assert all(graph._order is not None for graph in relabelled)


def test_vertex_leg_series_matches_product_of_exponentials():
    """Exponentiating all Bernoulli weights at once equals one exponential each."""
    for dr in (DRVector(1, (1, 3), 2), DRVector(2, (0,)), DRVector(2, (3,), 1)):
        for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=1):
            for r in (2, 3, 5):
                want = chiodo_leg_vertex_series(graph, dr, r, 4)
                series, den = chiodo._exponential(dr, 4, r)(graph, 4)
                assert {m: F(c, den) for m, c in lift(series, graph).items()} == want


@pytest.mark.parametrize("a", [a for a in range(-5, 6) if a])
def test_shifted_leg_weights_are_the_fixed_modulus_weights(a):
    """A leg's weights in ``v = 1/r``, read at each ``r > |a|``, are its weights at modulus r.

    With no modulus the leg's point is ``[a < 0] + a v``; row m, of degree
    ``m + 1`` in v, read at ``1/r`` and times ``r^{m+1}``, is the integer
    :func:`chiodo._at` gives at the residue ``a mod r``.  Without the shift
    a negative part would read ``a / r``, not ``1 + a / r``.  So the
    constant term's whole exponential, read at ``1/r``, is the one at
    modulus r, on parts ``(a, -a)`` and twists 0 and 1.
    """
    graphs = [StableGraph([1], [], [0, 0]), StableGraph([0, 1], [(0, 1)], [0, 0])]
    for d in range(5):
        rows, _ = chiodo._bernoulli_weights(d)
        shifted = chiodo._weights_at(int(a < 0), a, d)
        assert len(shifted) == len(rows) == d
        for r in range(abs(a) + 1, abs(a) + 5):
            for m, (row_v, row) in enumerate(zip(shifted, rows), 1):
                at_r = sum(c * r ** (m + 1 - j) for j, c in enumerate(row_v))
                assert at_r == chiodo._at(row, a % r, r), (d, r, m)
        for dr, graph in itertools.product([DRVector(1, (a, -a)), DRVector(1, (a, -a), 1)], graphs):
            series, den = chiodo._exponential(dr, d)(graph, d)
            for r in range(abs(a) + 1, abs(a) + 5):
                fixed, fixed_den = chiodo._exponential(dr, d, r)(graph, d)
                read = {m: sum(F(c, r**j) for j, c in enumerate(cs)) / den for m, cs in lift(series, graph).items()}
                want = {m: F(c, fixed_den) for m, c in lift(fixed, graph).items() if c}
                assert {m: c for m, c in read.items() if c} == want


def test_edge_factor_constant_term():
    """At psi = psi' = 0 the factor is -B_2(w/r)/2."""
    for r in (2, 3, 4, 5):
        for w in range(r):
            table = dict(edge_factor_coefficients(r, w, 2))
            expect = -bernoulli_poly(2, F(w, r)) / 2
            assert table.get((0, 0), F(0)) == expect
    # r=2, w=1: B_2(1/2) = -1/12, so the constant term is 1/24.
    assert dict(edge_factor_coefficients(2, 1, 0))[(0, 0)] == F(1, 24)


CROSS_CASES = [
    (0, 3, 0, (0, 0, 0)),
    (0, 4, 0, (1, 1, -1, -1)),
    (1, 1, 0, (0,)),
    (1, 1, 1, (1,)),
    (1, 2, 0, (1, -1)),
    (1, 2, 1, (0, 0)),
    (2, 1, 0, (0,)),
    (2, 1, 1, (2,)),
    (2, 2, 2, (1, 3)),
]


def test_cross_route_agreement():
    """Graph-sum route vs Chern-character route in degrees 0 and 1, r <= 5."""
    checked = 0
    for (g, n, k, a) in CROSS_CASES:
        dr = DRVector(g, a, k)
        for r in (2, 3, 4, 5):
            if (k * (2 * g - 2 + n) - sum(a)) % r != 0:
                continue
            for d in (0, 1):
                assert chiodo_pushforward(dr, d, r) == chern_route_class(dr, d, r)
                checked += 1
    assert checked >= 40


def test_cross_route_twisted_case():
    dr = DRVector(1, (1,), 1)
    assert chiodo_pushforward(dr, 1, 3) == chern_route_class(dr, 1, 3)


ORACLE_CASES = [
    (DRVector(0, (1, 1, -1, -1)), 2, None),
    (DRVector(1, (1, -1)), 3, None),
    (DRVector(1, (1,), 1), 2, 3),
    (DRVector(1, (1, 3), 2), 2, 4),
    (DRVector(2, (0,)), 3, None),
    (DRVector(2, (3,), 1), 2, 3),
    (DRVector(2, (1, -1)), 3, None),
]


def test_pushforward_matches_per_weighting_oracle():
    """Summing residue tables per graph equals summing series per weighting.

    The oracle truncates its series at the listed order, or at d for ``None``.
    """
    checked = 0
    for dr, d, cap in ORACLE_CASES:
        for r in (2, 3, 4, 5):
            if dr.defect % r:
                continue
            want = per_weighting_pushforward(dr, d, r, cap)
            assert chiodo_pushforward(dr, d, r).items() == want.items()
            checked += 1
    assert checked >= 20


def test_chern_route_degree_validation():
    with pytest.raises(ValueError):
        chern_route_class(DRVector(1, (0,), 0), 2, 3)


def test_chern_route_rejects_zero_modulus():
    with pytest.raises(ValueError, match="modulus must be positive"):
        chern_route_class(DRVector(1, (0,), 0), 1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: pixton_class(DRVector(1, ()), 1),
        lambda: chiodo_pushforward(DRVector(1, ()), 1, 3),
        lambda: chiodo_constant(DRVector(1, ()), 1),
        lambda: chern_route_class(DRVector(1, ()), 1, 3),
        lambda: chern_route_class(DRVector(-1, (1, -1)), 0, 3),
    ],
    ids=["pixton", "pushforward", "constant", "chern-1-0", "chern-negative-genus"],
)
def test_unstable_type_rejected(build):
    # (1, 0) has 2g - 2 + n = 0, so no stable curves, though 3g - 3 + n = 0.
    with pytest.raises(ValueError, match="stable"):
        build()


def test_congruence_error():
    with pytest.raises(ValueError, match="no r-th roots exist"):
        chiodo_pushforward(DRVector(1, (1,), 0), 1, 2)
    with pytest.raises(ValueError, match="no r-th roots exist"):
        chern_route_class(DRVector(1, (1,), 0), 1, 2)


def test_pushforward_validation():
    dr = DRVector(1, (0,), 0)
    with pytest.raises(ValueError):
        chiodo_pushforward(dr, 1, 0)
    with pytest.raises(ValueError):
        chiodo_pushforward(dr, -1, 2)


def test_parts_reduced_mod_r():
    """Only the residues of the parts matter at fixed modulus."""
    a = chiodo_pushforward(DRVector(1, (3, -1), 0), 1, 2)
    b = chiodo_pushforward(DRVector(1, (1, 1), 0), 1, 2)
    assert a == b


def test_truncation_independence():
    """The per-weighting oracle truncated at any order from d gives the library's output."""
    cases = [
        (DRVector(1, (0,), 0), 1, 3),
        (DRVector(1, (1, -1), 0), 2, 3),
        (DRVector(2, (0,), 0), 2, 2),
        (DRVector(1, (1,), 1), 1, 4),
    ]
    for dr, d, r in cases:
        base = chiodo_pushforward(dr, d, r)
        for cap in range(d, d + 3):
            assert per_weighting_pushforward(dr, d, r, cap) == base, (dr, d, r, cap)


def test_constant_term_examples():
    # Genus 1, parts (1, -1): half of psi_1 + psi_2 - (1/6) delta_0.
    got = chiodo_constant(DRVector(1, (1, -1), 0), 1)
    want = TautClass(
        1,
        2,
        [psi_term(1, 2, 1, F(1, 2)), psi_term(1, 2, 2, F(1, 2))],
    ) + delta0(2).scale(F(-1, 12))
    assert got == want

    # Degree 0 on the three-pointed rational curve: the trivial class.
    assert chiodo_constant(DRVector(0, (0, 0, 0), 0), 0) == trivial_class(0, 3)

    # Genus 1, one marking, zero part: -(1/24) times the one-loop graph.
    loop = StableGraph([0], [(0, 0)], [0])
    want = TautClass(1, 1, [(DecoratedGraph(loop), F(-1, 24))])
    got = chiodo_constant(DRVector(1, (0,), 0), 1)
    assert got == want
    assert got == pixton_class(DRVector(1, (0,), 0), 1).scale(F(1, 2))


# Keyed by genus and twist k: one exactly balanced vector with parts in
# -3..3 for each stable n <= 3; with no markings only k = 0 balances.  The
# twist -1 entries, which turn k v and 1 + a v with a < 0 into numerators,
# cover fewer n and come last, so the other entries keep their test ids.
CONSTANT_GRID = {
    (0, 0): [(2, -1, -1)],
    (0, 1): [(3, -1, -1)],
    (1, 0): [(0,), (3, -3), (3, -1, -2)],
    (1, 1): [(1,), (3, -1), (2, 2, -1)],
    (2, 0): [(), (0,), (1, -1), (2, -1, -1)],
    (2, 1): [(3,), (3, 1), (3, 3, -1)],
    (1, -1): [(-1,), (-3, 1)],
    (2, -1): [(-3, -1)],
}


@pytest.mark.parametrize(
    "g, k, parts",
    [(g, k, a) for (g, k), vectors in CONSTANT_GRID.items() for a in vectors],
)
def test_constant_term_matches_whole_class_oracle(g, k, parts):
    """Fitting each graph's monomials equals fitting the canonical class."""
    dr = DRVector(g, parts, k)
    for d in range(4):
        assert chiodo_constant(dr, d).items() == whole_class_constant(dr, d).items()


@pytest.mark.parametrize(
    "g, k, parts",
    [
        (2, -1, (-3, -1)),
        (2, 0, (1, -1)),
        (2, 1, (3, 1)),
        (2, 2, (6,)),
        (1, -1, (-3, -1, 1)),
        (1, 0, (2, -1, -1)),
        (1, 1, (3, 1, -1)),
        (1, 2, (3, 2, 1)),
    ],
)
def test_constant_series_matches_rpoly_oracle(g, k, parts):
    """Integer totals over one scale give every graph's terms, Fraction for Fraction.

    Exactly balanced vectors with up to two and with three markings, for
    each twist k in -1..2, in every degree up to 4.  Each vector's graphs
    with terms have loops, parallel classes and free residues, and in
    genus 2 a tree quotient with both a loop and a parallel class.
    """
    dr = DRVector(g, parts, k)
    seen = {"loops": 0, "classes": 0, "both": 0 if g > 1 else 1, "free": 0}
    for d in range(5):
        ours = list(chiodo._constant_series(dr, d))
        want = list(rpoly_constant_series(dr, d))
        assert [graph for graph, _, _ in ours] == [graph for graph, _ in want]
        for (graph, totals, scale), (_, expected) in zip(ours, want):
            assert {mono: Fraction(t, scale) for mono, t in totals.items()} == expected, (graph, d)
            assert all(type(t) is int for t in [scale, *totals.values()])
            if totals:
                quotient = weightings._quotient(graph)
                loops = bool(quotient.loops)
                classes = any(len(ts) > 1 for ts in quotient.classes)
                seen["loops"] += loops
                seen["classes"] += classes
                seen["both"] += loops and classes and not quotient.plan.free
                seen["free"] += bool(quotient.plan.free)
    assert all(seen.values()), seen


def test_class_polynomial_above_its_bound_raises(monkeypatch):
    # One degree above the class's own bound, |q| + (observables - 1), is
    # caught in that class and named by the graph, on Chiodo's weights and
    # on one-observable keys alike.
    real = weightings._class_at

    def raised(observables, residue):
        nums, den = real(observables, residue)
        bound = sum(map(sum, observables)) + len(observables) - 1
        return nums + [0] * (bound + 1 - len(nums)) + [1], den

    monkeypatch.setattr(weightings, "_class_at", raised)
    with pytest.raises(
        ArithmeticError,
        match=r"^chiodo constant \(g=2,n=2,k=0,d=2\) graph#\d+: class polynomial above its degree bound$",
    ):
        chiodo_constant(DRVector(2, (1, -1)), 2)
    bridge = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
    with pytest.raises(ArithmeticError, match="^edge profiles on 2v/1e graph: class polynomial"):
        weightings.profile_weights(bridge, DRVector(1, (2, 1, -3)), [(2,)], {2: (((2, 0), 1),)}, 2)


def test_constant_term_validation_order():
    # The degree is checked before anything is enumerated or fitted, and
    # the type before any modulus is sampled.
    with pytest.raises(ValueError, match="^degree must be non-negative$"):
        chiodo_constant(DRVector(2, (1, -1)), -1)
    with pytest.raises(ValueError, match="no stable curves"):
        chiodo_constant(DRVector(0, (1, -1)), 1)


def test_constant_term_requires_exact_balance():
    with pytest.raises(ValueError):
        chiodo_constant(DRVector(1, (1, -1), 1), 1)


def test_samefreeterm_battery():
    cases = [
        (0, (0, 0, 0), 1),
        (1, (0,), 1),
        (1, (1, -1), 2),
        (2, (0,), 2),
    ]
    for g, a, d in cases:
        ok, report = verify_samefreeterm(DRVector(g, a, 0), d)
        assert ok, report
        assert report == ""


def test_diff_report_names_perturbed_term():
    """A deliberate coefficient perturbation is reported term by term."""
    dr = DRVector(1, (0,), 0)
    left = chiodo_constant(dr, 1)
    loop = StableGraph([0], [(0, 0)], [0])
    bump = TautClass(1, 1, [(DecoratedGraph(loop), F(1, 1000))])
    right = pixton_class(dr, 1).scale(F(1, 2)) + bump
    assert not left.formal_equal(right)
    report = left.diff_report(right)
    assert "loop" in report
    assert "-1/24" in report
