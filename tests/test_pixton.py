from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest

from drtaut import graphs, pixton, tautclass, weightings
from drtaut.chiodo import chiodo_constant
from drtaut.graphs import StableGraph, enumerate_stable_graphs
from drtaut.intersect import complementary_psi_monomials, pair_with_psi
from drtaut.tautclass import DecoratedGraph, TautClass, delta0
from drtaut.pixton import (
    _emit_graph,
    _graph_templates,
    _vertex_leg_series,
    _x_powers,
    dr_cycle,
    genus0_closed,
    genus1_closed,
    lambda_expression,
    pixton_class,
    pixton_fixed_r,
    verify_polynomiality,
)
from drtaut.weightings import (
    DRVector,
    edge_profile_sums,
    profile_weights,
    sampled_profile_weights,
)

import oracles
from oracles import (
    alpha_class,
    beta_class,
    leg_vertex_series,
    lift,
    monomial_degree,
    power_tables,
    psi_edge_monomial,
    residue_zero_bridge,
    series_degree_part,
    series_edge_power,
    zero_bridge,
)

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
        with pytest.raises(ValueError, match="no r-th roots exist"):
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
                    series, den = _vertex_leg_series(graph, dr, cap)
                    assert {m: Fraction(c, den) for m, c in lift(series, graph).items()} == want

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
                        if series_degree_part(lift(L[0], graph), cap - sum(m))
                    ]
                    acc: list = []
                    _emit_graph(acc, graph, L, d, dict.fromkeys(profiles, 1), 1)
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


class TestZeroBridge:
    """Graphs with a bridge of residue 0 carry zero weight on every profile."""

    def test_r_free_weights_vanish(self):
        skipped = 0
        for g in range(4):
            for dr, d in grid(g):
                for label, graph, b, *_, profiles in _graph_templates(dr, d):
                    if zero_bridge(graph, dr, 0):
                        polys, _ = profile_weights(graph, dr, profiles, _x_powers(d), 2 * d + b, label)
                        assert not any(map(any, polys)), label
                        skipped += 1
        assert skipped > 0

    @pytest.mark.parametrize(
        "dr, d, r",
        [
            (DRVector(2, (2, 3)), 2, 5),
            (DRVector(2, (6, 1), 1), 2, 3),
            (DRVector(1, (5, -1)), 2, 4),
            (DRVector(2, (1, 1)), 2, 2),
            (DRVector(1, (2, 2, -1), 1), 2, 3),
            (DRVector(2, (2, -1, -1)), 2, 7),
        ],
    )
    def test_fixed_r_weights_vanish(self, dr, d, r):
        # Admissible mod r, and for all but the last not exactly balanced.
        assert dr.defect % r == 0
        skipped = 0
        for _, graph, *_, profiles in _graph_templates(dr, d):
            if zero_bridge(graph, dr, r):
                powers = [tuple((k + 1, k + 1) for k in m) for m in profiles]
                sums = edge_profile_sums(graph, r, dr, power_tables(r, powers))
                assert not any(sums), graph
                skipped += 1
        assert skipped > 0
        assert pixton_fixed_r(dr, d, r) == oracles.pixton_fixed_r(dr, d, r)

    @pytest.mark.parametrize(
        "dr, d, count", [(DRVector(2, (1, -1)), 2, 11), (DRVector(3, (2, -1, -1)), 3, 317)]
    )
    def test_sampled_fits_vanish(self, dr, d, count):
        # verify_polynomiality skips these graphs as pixton_class does; their
        # sampled fits are certified here instead, each one zero.
        fits = 0
        for label, graph, b, *_, profiles in _graph_templates(dr, d):
            if zero_bridge(graph, dr, 0):
                cap = 2 * d + b
                sampled = sampled_profile_weights(graph, dr, profiles, _x_powers(d), cap, label)
                assert sampled == ([[0] * (cap + 1)] * len(profiles), 1), label
                fits += len(profiles)
        assert fits == count

    def test_dr_cycle_skips(self):
        dr = DRVector(3, (2, -1, -1))
        graphs = enumerate_stable_graphs(3, 3, max_edges=3)
        assert sum(zero_bridge(graph, dr, 0) for graph in graphs) == 237
        assert len(graphs) == 457

    def test_pruned_walk_matches_oracles(self):
        # On all data with |a_i| <= 3 (<= 1 at n = 5) and k in {0, 1, 2}, at
        # every admissible modulus in {0, 2, 3, 5}, the walk pruned on the
        # key of (dr, r) keeps exactly the graphs on which both oracles find
        # no bridge of residue 0, with the same representatives and |Aut|,
        # and so does a pruned call that filters the cached full walk.
        walks = {}
        seen = {"pruned": 0, "full": 0}
        for g, n in [(2, 0), (3, 0), (2, 2), (1, 3), (0, 5), (3, 1)]:
            full = enumerate_stable_graphs(g, n)
            bound = 1 if n == 5 else 3
            for parts in itertools.product(range(-bound, bound + 1), repeat=n):
                for k in (0, 1, 2):
                    dr = DRVector(g, parts, k)
                    for r in (0, 2, 3, 5):
                        if dr.defect % r if r else dr.defect:
                            continue
                        key = pixton._zero_sides(dr, r)
                        if (g, n, key) not in walks:
                            walk = graphs._walk(g, n, 3 * g - 3 + n, key)
                            assert enumerate_stable_graphs(g, n, None, key) == walk
                            walks[g, n, key] = walk
                        kept = tuple(G for G in full if not zero_bridge(G, dr, r))
                        assert kept == tuple(G for G in full if not residue_zero_bridge(G, dr, r))
                        walk = walks[g, n, key]
                        assert walk == kept, (dr, r)
                        assert [G._aut for G in walk] == [G._aut for G in kept], (dr, r)
                        seen["pruned" if len(kept) < len(full) else "full"] += 1
        assert all(seen.values()), seen

    def test_a_minus_a_share_one_key(self):
        keys = {pixton._zero_sides(DRVector(2, (a, -a)), 0) for a in range(1, 9)}
        assert len(keys) == 1

    @pytest.mark.parametrize(
        "dr, d, r",
        [
            (DRVector(2, (3, 1, 1), 1), 3, None),
            (DRVector(2, (3, 1, 1), 1), 4, None),
            # A bridge with the markings on one side has D = 4: not 0, but 0 mod 4.
            (DRVector(2, (4, -4)), 2, 4),
        ],
    )
    def test_pruned_class_bytes(self, monkeypatch, dr, d, r):
        def class_json():
            cls = pixton_class(dr, d) if r is None else pixton_fixed_r(dr, d, r)
            return json.dumps(cls.to_json(), indent=2, sort_keys=True)

        pruned = class_json()
        monkeypatch.setattr(pixton, "_zero_sides", lambda dr, r: frozenset())
        assert class_json() == pruned

    def test_fixed_r_prunes_bridges_zero_mod_r(self):
        dr = DRVector(2, (4, -4))
        exact, mod_4 = pixton._zero_sides(dr, 0), pixton._zero_sides(dr, 4)
        assert exact < mod_4
        assert len(enumerate_stable_graphs(2, 2, 2, mod_4)) < len(enumerate_stable_graphs(2, 2, 2, exact))

    def test_dr_cycle_caches_plans_of_kept_graphs_only(self):
        # No quotient plan is built for a graph the sum does not keep.
        dr = DRVector(3, (2, -1, -1))
        weightings._quotient.cache_clear()
        dr_cycle(dr)
        plans = weightings._quotient.cache_info().currsize
        assert plans == sum(1 for _ in _graph_templates(dr, 3, 0)) == 220

    def test_pruned_walk_keys_no_dropped_child(self, monkeypatch):
        # The walk tests a child's new edge before its canonical key, so it
        # keys no graph with a bridge of residue 0, and keeps a child only
        # through a top edge: 220 keys for the 220 graphs of
        # dr_cycle(3, (2,-1,-1))'s pruned walk to 3 edges, and 458 for the
        # 457 of the full walk.
        dr = DRVector(3, (2, -1, -1))
        keyed = []
        real = graphs.canonical_key

        def spy(graph):
            keyed.append(graph)
            return real(graph)

        monkeypatch.setattr(graphs, "canonical_key", spy)
        assert len(graphs._walk(3, 3, 3, pixton._zero_sides(dr, 0))) == 220
        assert not any(zero_bridge(graph, dr, 0) for graph in keyed)
        pruned = len(keyed)
        keyed.clear()
        assert len(graphs._walk(3, 3, 3, frozenset())) == 457
        assert (pruned, len(keyed)) == (220, 458)

    def test_pixton_class_filters_a_cached_full_walk(self, monkeypatch):
        # After chiodo_constant has walked every graph of the type and cap,
        # pixton_class filters that walk and degenerates no graph again.
        dr, d = DRVector(2, (1, -1)), 3
        calls = []
        real = graphs._degenerations

        def counted(graph):
            calls.append(graph)
            return real(graph)

        def fresh():
            enumerate_stable_graphs.cache_clear()
            graphs._full_walks.clear()
            calls.clear()

        monkeypatch.setattr(graphs, "_degenerations", counted)
        fresh()
        pixton_class(dr, d)
        pruned = len(calls)
        fresh()
        chiodo_constant(dr, d)
        assert len(calls) > pruned > 0
        calls.clear()
        pixton_class(dr, d)
        assert calls == []


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
        # A unit r^1 term added to every weighting sum: the r^b coefficient
        # it changes on graphs with b = 1 is read, and only a graph with
        # b = 2, the two-loop graph's, fails divisibility.  A profile m's
        # sum has degree 2 (|m| + E) + b, and its r^j coefficient is stored
        # at cap - 2 (|m| + E) - b + j.
        real = pixton.profile_weights

        def shifted(graph, dr, profiles, terms, cap, label=None):
            weights, den = real(graph, dr, profiles, terms, cap, label)
            b = graph.n_edges - graph.n_vertices + 1
            for m, w in zip(profiles, weights):
                w[cap - 2 * (sum(m) + len(m)) - b + 1] += den
            return weights, den

        monkeypatch.setattr(pixton, "profile_weights", shifted)
        message = (
            r"^weighting sum not divisible by r\^2 on P\(g=2,n=0,k=0,d=2\) graph#\d+ "
            r"profile \(0, 0\)$"
        )
        with pytest.raises(ArithmeticError, match=message):
            pixton_class(DRVector(2, ()), 2)

    def test_verify_polynomiality_counts_every_profile(self):
        # One fit per graph and edge profile of the class: the graphs with a
        # bridge of residue 0 are skipped, as pixton_class skips them.
        dr = DRVector(2, (1, -1))
        count = sum(
            len(profiles)
            for _, graph, *_, profiles in _graph_templates(dr, 2)
            if not zero_bridge(graph, dr, 0)
        )
        assert verify_polynomiality(dr, 2) == (count, [])
        assert count == 11

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

    def test_genus0_many_markings_builds_no_key(self, monkeypatch):
        # At degree 0 the one graph has no bridge: no key over the 2^20
        # marking sets is built.
        from drtaut.tautclass import trivial_class

        def no_key(dr, r):
            raise AssertionError("zero-sides key built at degree 0")

        dr = DRVector(0, (1,) * 10 + (-1,) * 10)
        monkeypatch.setattr(pixton, "_zero_sides", no_key)
        assert dr_cycle(dr) == trivial_class(0, 20)
        assert pixton_class(DRVector(1, (1,) * 10 + (-1,) * 10), 0) == trivial_class(1, 20)


class TestEmit:
    def test_one_vertex_order_per_emitted_graph(self, monkeypatch):
        # A graph keeps its vertex order, so the order is found at most once
        # per graph object (the enumeration's graphs may carry it from an
        # earlier sum), while every term still goes through the canonical form.
        counts = {"forms": 0, "graphs": 0}
        ordered, emitted = [], []
        order, form, emit = graphs._vertex_order, tautclass.canonical_form_decorated, pixton.emit_series

        def count_order(graph):
            ordered.append(graph)
            return order(graph)

        def count_form(*args):
            counts["forms"] += 1
            return form(*args)

        def count_emit(acc, graph, totals, scale):
            counts["graphs"] += bool(totals)
            emitted.append(graph)
            emit(acc, graph, totals, scale)

        monkeypatch.setattr(graphs, "_vertex_order", count_order)
        monkeypatch.setattr(tautclass, "canonical_form_decorated", count_form)
        monkeypatch.setattr(pixton, "emit_series", count_emit)
        dr_cycle(DRVector(3, (2, -1, -1)))
        assert counts == {"forms": 639, "graphs": 220}
        assert len({id(graph) for graph in ordered}) == len(ordered) <= 220
        assert all(graph._order is not None for graph in emitted)


class TestNormalisation:
    """The cycle and the Hodge class are normalised in place, and equal the scaled class."""

    @pytest.mark.parametrize(
        "dr",
        [DRVector(1, (1, -1)), DRVector(2, (2, -1, -1)), DRVector(3, (1, -1)), DRVector(4, ()), DRVector(4, (1, -1))],
    )
    def test_dr_cycle_is_the_scaled_class(self, dr):
        assert dr_cycle(dr) == pixton_class(dr, dr.genus).scale(F(1, 2**dr.genus))

    @pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 1)])
    def test_lambda_is_the_signed_cycle(self, g, n):
        dr = DRVector(g, (0,) * n)
        cycle = pixton_class(dr, g).scale(F(1, 2**g))
        assert lambda_expression(g, n) == cycle.scale(F((-1) ** g))

    def test_scale_leaves_its_source(self):
        cls = pixton_class(DRVector(2, (2, -1, -1)), 2)
        before = dict(cls.terms)
        assert cls.scale(F(2)) == cls + cls
        assert cls.scale(0) == TautClass(2, 3) and cls.scale(0).is_zero()
        assert cls.terms == before

    def test_in_place_clears_the_pair_index(self):
        cls = pixton_class(DRVector(2, (2, -1, -1)), 2)
        m = next(m for m in complementary_psi_monomials(2, 3, 2) if pair_with_psi(cls, m))
        value = pair_with_psi(cls, m)
        assert cls._pair_index is not None
        assert cls._scale_in_place(F(-3, 4)) is cls
        assert cls._pair_index is None
        assert pair_with_psi(cls, m) == F(-3, 4) * value


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
