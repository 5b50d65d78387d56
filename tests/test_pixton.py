from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from drtaut import pixton
from drtaut.graphs import StableGraph, enumerate_stable_graphs
from drtaut.tautclass import (
    DecoratedGraph,
    alpha_class,
    beta_class,
    delta0,
    monomial_degree,
)
from drtaut.pixton import (
    _emit_graph,
    _graph_templates,
    _vertex_leg_series,
    dr_cycle,
    genus0_closed,
    genus1_closed,
    lambda_expression,
    pixton_class,
    pixton_fixed_r,
    verify_polynomiality,
)
from drtaut.weightings import DRVector

import oracles
from oracles import leg_vertex_series, psi_edge_monomial, series_degree_part, series_edge_power

F = Fraction

LOOP_G0 = DecoratedGraph(StableGraph([0], [(0, 0)], [0]))
LOOP_G0_2 = DecoratedGraph(StableGraph([0], [(0, 0)], [0, 0]))


def psi_term(g, n, i):
    return DecoratedGraph(
        StableGraph([g], [], [0] * n), tuple(1 if j == i else 0 for j in range(n))
    )


class TestFixedR:
    def test_contract_example(self):
        # g = 1, k = 0, A = (0), d = 1, r = 5: loop coefficient 2.
        cls = pixton_fixed_r(DRVector(1, (0,)), 1, 5)
        assert cls.coefficient(LOOP_G0) == 2
        assert cls.coefficient(psi_term(1, 1, 0)) == 0

    def test_r_one_admits_everything(self):
        cls = pixton_fixed_r(DRVector(1, (3,), twist=1), 1, 1)
        assert not cls.is_zero()

    def test_inadmissible_modulus_rejected(self):
        with pytest.raises(ValueError, match="admissibility"):
            pixton_fixed_r(DRVector(1, (1,)), 1, 3)

    def test_matches_constant_term_route_pointwise(self):
        # The fixed-r class evaluated on the loop graph follows (r^2-1)/12.
        for r in (2, 3, 7):
            cls = pixton_fixed_r(DRVector(1, (0,)), 1, r)
            assert cls.coefficient(LOOP_G0) == F(r * r - 1, 12)


class TestDecorationSeries:
    CASES = [
        DRVector(1, (0,), 0),
        DRVector(1, (3, -1), 1),
        DRVector(2, (2, -1, -1), 0),
        DRVector(2, (3, 1), 1),
        DRVector(2, (1,), 2),
    ]

    def graphs(self, dr):
        graphs = enumerate_stable_graphs(dr.genus, dr.n, max_edges=2)
        assert any(u == v for g in graphs for u, v in g.edges)
        return graphs

    def test_vertex_leg_series_matches_product_of_exponentials(self):
        for dr in self.CASES:
            for graph in self.graphs(dr):
                for cap in range(4):
                    legs = [(a * a,) for a in dr.parts]
                    want = leg_vertex_series(graph, legs, (-dr.twist**2,), cap)
                    assert _vertex_leg_series(graph, dr, cap) == want

    def test_templates_have_exact_degree(self):
        # Every profile m is one for which L has a monomial of degree
        # cap - |m|, and every term the graph emits has degree d.
        checked = 0
        for dr in self.CASES:
            for d in range(4):
                for _, graph, _, _, L, profiles in _graph_templates(dr, d):
                    cap = d - graph.n_edges
                    assert profiles == [
                        m
                        for m in itertools.product(range(cap + 1), repeat=graph.n_edges)
                        if series_degree_part(L, cap - sum(m))
                    ]
                    acc: list = []
                    _emit_graph(acc, graph, L, d, {m: F(1) for m in profiles})
                    assert acc and all(dg.degree == d for dg, _ in acc)
                    checked += len(acc)
        assert checked > 100


def grid(g):
    """Balanced data of genus g with n <= 3 and k in {-1, 0, 1}, and every d <= g + 1.

    Only k = 0 balances n = 0.
    """
    for n in range(4):
        for k in (-1, 0, 1):
            if 2 * g - 2 + n > 0 and (n or not k):
                rest = (2, -1)[: max(n - 1, 0)]
                parts = (k * (2 * g - 2 + n) - sum(rest),) + rest if n else ()
                for d in range(g + 2):
                    yield DRVector(g, parts, k), d


class TestTemplateOracle:
    """The per-graph assembly against one template series per profile."""

    def test_edge_monomial_degrees(self):
        g = StableGraph([1], [(0, 0)])
        mono = psi_edge_monomial(g, 0, 2, 1)
        assert monomial_degree(mono) == 3
        part = series_degree_part({mono: F(1)}, 3)
        assert part == {mono: F(1)}

    def test_edge_power_is_binomial(self):
        g = StableGraph([0, 1], [(0, 0), (0, 1)], [0])
        power = series_edge_power(g, 1, 3, F(-2, 3))
        assert power == {psi_edge_monomial(g, 1, i, 3 - i): F(-2, 3) * c
                         for i, c in enumerate((1, 3, 3, 1))}

    @pytest.mark.parametrize("g", range(4))
    def test_class_matches_templates(self, g):
        for dr, d in grid(g):
            got, want = pixton_class(dr, d), oracles.pixton_class(dr, d)
            assert got == want, (dr, d, got.diff_report(want))

    @pytest.mark.parametrize("g", range(4))
    def test_fixed_r_matches_templates(self, g):
        # Each case at one of the moduli 3, 5 and 7 in turn.
        for i, (dr, d) in enumerate(grid(g)):
            r = (3, 5, 7)[i % 3]
            got, want = pixton_fixed_r(dr, d, r), oracles.pixton_fixed_r(dr, d, r)
            assert got == want, (dr, d, r, got.diff_report(want))


class TestConstantTerm:
    def test_genus1_zero_vector(self):
        cls = pixton_class(DRVector(1, (0,)), 1)
        assert cls.coefficient(LOOP_G0) == F(-1, 12)
        assert cls.coefficient(psi_term(1, 1, 0)) == 0

    def test_genus1_delta0_coefficient_is_constant(self):
        # In the divisor basis the delta_0 coefficient is -1/6 for every A;
        # on the raw loop term that is -1/6 * 1/2 = -1/12.
        for A in [(0,), (1, -1), (2, -2), (3, 1, -4)]:
            cls = pixton_class(DRVector(1, A), 1)
            loop = DecoratedGraph(StableGraph([0], [(0, 0)], [0] * len(A)))
            assert cls.coefficient(loop) == F(-1, 12)

    def test_homogeneous(self):
        cls = pixton_class(DRVector(1, (1, -1)), 2)
        assert cls.degrees() <= {2}

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="defect"):
            pixton_class(DRVector(1, (1,)), 1)

    def test_fit_not_divisible_by_r_power_rejected(self, monkeypatch):
        # A unit r^1 term added to every fit: the r^b coefficient it changes
        # on graphs with b = 1 is read, and only a graph with b = 2, the
        # two-loop graph's, fails divisibility.
        real = pixton.fit_edge_profiles

        def shifted(graph, dr, profiles, label=None):
            fits = real(graph, dr, profiles, label)
            return [([nums[0], nums[1] + den, *nums[2:]], den) for nums, den in fits]

        monkeypatch.setattr(pixton, "fit_edge_profiles", shifted)
        message = (
            r"^weighting sum not divisible by r\^2 on P\(g=2,n=0,k=0,d=2\) graph#\d+ "
            r"profile \(0, 0\)$"
        )
        with pytest.raises(ValueError, match=message):
            pixton_class(DRVector(2, ()), 2)

    def test_verify_polynomiality_counts_every_profile(self):
        # One fit per graph and edge profile of the class.
        dr = DRVector(2, (1, -1))
        count = sum(len(profiles) for *_, profiles in _graph_templates(dr, 2))
        assert verify_polynomiality(dr, 2) == (count, [])
        assert count == 22

    def test_verify_polynomiality_rejects_bad_input_before_fitting(self):
        with pytest.raises(ValueError, match="defect"):
            verify_polynomiality(DRVector(1, (1,)), 1)
        with pytest.raises(ValueError, match="stable"):
            verify_polynomiality(DRVector(1, ()), 1)
        with pytest.raises(ValueError, match="non-negative"):
            verify_polynomiality(DRVector(1, (1, -1)), -1)

    def test_genus2_intermediate_constants(self):
        # The two-loop coefficient 1/36 and loop-psi coefficient 1/60.
        cls = pixton_class(DRVector(2, ()), 2)
        assert cls == alpha_class().scale(F(1, 36)) + beta_class().scale(F(1, 60))


class TestDRCycle:
    def test_contract_example_ab(self):
        # dr --g 1 --a 1,-1: psi coefficients 1/2, loop coefficient -1/24.
        cls = dr_cycle(DRVector(1, (1, -1)))
        assert cls.coefficient(psi_term(1, 2, 0)) == F(1, 2)
        assert cls.coefficient(psi_term(1, 2, 1)) == F(1, 2)
        assert cls.coefficient(LOOP_G0_2) == F(-1, 24)

    def test_twisted_rejected(self):
        with pytest.raises(ValueError, match="untwisted"):
            dr_cycle(DRVector(1, (1,), twist=1))

    def test_genus0_is_fundamental(self):
        cls = dr_cycle(DRVector(0, (1, 2, -3)))
        from drtaut.tautclass import trivial_class

        assert cls == trivial_class(0, 3)


class TestLambda:
    def test_lambda1(self):
        cls = lambda_expression(1, 1)
        assert cls == delta0(1).scale(F(1, 12))
        assert cls.coefficient(LOOP_G0) == F(1, 24)

    def test_lambda2(self):
        cls = lambda_expression(2)
        assert cls == alpha_class().scale(F(1, 144)) + beta_class().scale(F(1, 240))

    def test_no_separating_edges(self):
        for g, n in [(2, 0), (2, 1)]:
            cls = lambda_expression(g, n)
            for dg, _ in cls.items():
                assert not dg.graph.bridges()

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            lambda_expression(0, 2)
        with pytest.raises(ValueError):
            lambda_expression(1)
        with pytest.raises(ValueError, match="stable"):
            lambda_expression(2, -1)


class TestClosedForms:
    def test_genus0_degree1_split_form(self):
        A = (2, -1, 3, -4)
        cls = genus0_closed(A, 1)
        # psi terms carry a_i^2.
        for i, a in enumerate(A):
            assert cls.coefficient(psi_term(0, 4, i)) == a * a
        # The split {1,2 | 3,4} has side sum 1, so coefficient -1.
        split = DecoratedGraph(StableGraph([0, 0], [(0, 1)], [0, 0, 1, 1]))
        assert cls.coefficient(split) == -1

    def test_genus0_oracle_agreement(self):
        cases = [
            ((1, -1, 2, -2), 1),
            ((1, -1, 2, -2), 2),
            ((3, -1, -2), 1),
            ((1, 1, 1, -3, 0), 2),
        ]
        for A, d in cases:
            direct = genus0_closed(A, d)
            fitted = pixton_class(DRVector(0, A), d)
            assert fitted.formal_equal(direct), fitted.diff_report(direct)

    def test_genus1_oracle_agreement(self):
        for A in [(0,), (1, -1), (2, -1, -1), (0, 0, 0)]:
            direct = genus1_closed(A)
            fitted = pixton_class(DRVector(1, A), 1)
            assert fitted.formal_equal(direct), fitted.diff_report(direct)

    def test_genus0_degree_cap_independence(self):
        # Degree-d output is unaffected by how far anything else truncates:
        # recomputing at higher degree and slicing changes nothing.
        A = (1, -1, 2, -2)
        d2 = genus0_closed(A, 2)
        assert d2.degree_part(2) == d2

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            genus0_closed((1, -1), 1)
        with pytest.raises(ValueError):
            genus0_closed((1, 1, 1), 1)
        with pytest.raises(ValueError):
            genus1_closed((2, -1))
