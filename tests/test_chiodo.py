"""Tests for the r-th root Chern class pushforward and its constant term."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drtaut import chiodo, weightings
from drtaut.chiodo import (
    _edge_factor_polys,
    _vertex_leg_series,
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

from oracles import chiodo_constant as whole_class_constant
from oracles import chiodo_constant_series as rpoly_constant_series
from oracles import chiodo_pushforward as per_weighting_pushforward
from oracles import chiodo_leg_vertex_series
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


def test_edge_factor_polynomials_match_pair_product_oracle():
    """The u-polynomials at u = w/r are the oracle's edge factor, for r <= 9.

    Those points are more than any polynomial's degree, 2(i + j + 1), so
    they determine it.  A smaller cap keeps the pairs within it unchanged.
    """
    full = dict(_edge_factor_polys(6))
    assert all(poly.degree <= 2 * (i + j + 1) < 28 for (i, j), poly in full.items())
    for cap in range(7):
        polys = _edge_factor_polys(cap)
        assert polys == tuple((key, full[key]) for key, _ in polys)
        assert {key for key, _ in polys} == {key for key in full if sum(key) <= cap}
        for r in range(1, 10):
            for w in range(r):
                values = {key: poly(F(w, r)) for key, poly in polys}
                want = dict(pair_product_edge_factor(r, w, cap))
                assert {key: c for key, c in values.items() if c} == want


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


def test_vertex_leg_series_matches_product_of_exponentials():
    """Exponentiating all Bernoulli weights at once equals one exponential each."""
    for dr in (DRVector(1, (1, 3), 2), DRVector(2, (0,)), DRVector(2, (3,), 1)):
        for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=1):
            for r in (2, 3, 5):
                want = chiodo_leg_vertex_series(graph, dr, r, 4)
                assert _vertex_leg_series(graph, dr, r, 4) == want


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
    """Summing residue tables per graph equals summing series per weighting."""
    checked = 0
    for dr, d, cap in ORACLE_CASES:
        for r in (2, 3, 4, 5):
            if dr.defect % r:
                continue
            want = per_weighting_pushforward(dr, d, r, cap)
            assert chiodo_pushforward(dr, d, r, cap).items() == want.items()
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
    with pytest.raises(ValueError):
        chiodo_pushforward(dr, 2, 3, cap=1)


def test_parts_reduced_mod_r():
    """Only the residues of the parts matter at fixed modulus."""
    a = chiodo_pushforward(DRVector(1, (3, -1), 0), 1, 2)
    b = chiodo_pushforward(DRVector(1, (1, 1), 0), 1, 2)
    assert a == b


def test_truncation_independence():
    """Raising the truncation order never changes lower-degree output."""
    cases = [
        (DRVector(1, (0,), 0), 1, 3),
        (DRVector(1, (1, -1), 0), 2, 3),
        (DRVector(2, (0,), 0), 2, 2),
        (DRVector(1, (1,), 1), 1, 4),
    ]
    for dr, d, r in cases:
        base = chiodo_pushforward(dr, d, r)
        assert chiodo_pushforward(dr, d, r, cap=d + 1) == base
        assert chiodo_pushforward(dr, d, r, cap=d + 2) == base


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
    "g, k, parts", [(2, -1, (-3, -1)), (2, 0, (1, -1)), (2, 1, (3, 1)), (2, 2, (6,))]
)
def test_constant_series_matches_rpoly_oracle(g, k, parts):
    """Integer numerators give every graph's terms, Fraction for Fraction.

    One exactly balanced vector per twist k in -1..2, in every degree up
    to 4; the graphs with terms have loops, parallel classes and free
    residues.
    """
    dr = DRVector(g, parts, k)
    seen = {"loops": 0, "classes": 0, "free": 0}
    for d in range(5):
        ours = list(chiodo._constant_series(dr, d))
        want = list(rpoly_constant_series(dr, d))
        assert [graph for graph, _ in ours] == [graph for graph, _ in want]
        for (graph, got), (_, expected) in zip(ours, want):
            assert got == expected, (graph, d)
            assert all(type(c) is Fraction for c in got.values())
            if got:
                quotient = weightings._quotient(graph)
                seen["loops"] += bool(quotient.loops)
                seen["classes"] += any(len(ts) > 1 for ts in quotient.classes)
                seen["free"] += bool(quotient.plan.free)
    assert all(seen.values()), seen


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
