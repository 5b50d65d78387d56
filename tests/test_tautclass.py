from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from drtaut import chiodo, pixton
from drtaut.graphs import StableGraph, automorphism_order, enumerate_stable_graphs, first_betti
from drtaut.tautclass import (
    DecoratedGraph,
    TautClass,
    delta0,
    delta_I,
    graph_sum_data,
    kappa_monomial,
    monomial_degree,
    psi_leg_monomial,
    series_edge_mul,
    series_exp,
    series_unit,
    trivial_class,
)
from drtaut.weightings import DRVector

from oracles import (
    RPoly,
    alpha_class,
    beta_class,
    leg_vertex_series,
    series_degree_mul,
    series_degree_part,
    series_exp_by_powers,
    series_mul,
)

F = Fraction

LOOP_G1 = StableGraph([1], [(0, 0)])
BANANA = StableGraph([1, 1], [(0, 1), (0, 1)])


class TestDecoratedGraph:
    def test_loop_half_swap_is_isomorphic(self):
        a = DecoratedGraph(LOOP_G1, (), [(2, 0)], ())
        b = DecoratedGraph(LOOP_G1, (), [(0, 2)], ())
        assert a == b
        assert a.key == b.key

    def test_parallel_edge_swap_is_isomorphic(self):
        a = DecoratedGraph(BANANA, (), [(1, 0), (0, 0)], ())
        b = DecoratedGraph(BANANA, (), [(0, 0), (1, 0)], ())
        assert a == b

    def test_vertex_relabel_is_isomorphic(self):
        g1 = StableGraph([0, 2], [(0, 1)], [0, 0])
        g2 = StableGraph([2, 0], [(0, 1)], [1, 1])
        a = DecoratedGraph(g1, (1, 0), [(0, 3)], [(), (2,)])
        b = DecoratedGraph(g2, (1, 0), [(3, 0)], [(2,), ()])
        assert a == b

    def test_distinct_sides_distinguished(self):
        g = StableGraph([1, 2], [(0, 1)])
        a = DecoratedGraph(g, (), [(1, 0)], ())
        b = DecoratedGraph(g, (), [(0, 1)], ())
        assert a != b

    def test_degree(self):
        dg = DecoratedGraph(
            StableGraph([1, 1], [(0, 1)], [0]), (2,), [(1, 0)], [(1,), (3,)]
        )
        assert dg.degree == 1 + 2 + 1 + 1 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DecoratedGraph(LOOP_G1, (), [(-1, 0)], ())
        with pytest.raises(ValueError):
            DecoratedGraph(LOOP_G1, (), [(0, 0)], [(0,)])
        with pytest.raises(ValueError):
            DecoratedGraph(LOOP_G1, (1,), [(0, 0)], ())


class TestTautClass:
    def test_merging_isomorphic_terms(self):
        a = DecoratedGraph(LOOP_G1, (), [(1, 0)], ())
        b = DecoratedGraph(LOOP_G1, (), [(0, 1)], ())
        cls = TautClass(2, 0, [(a, F(1, 3)), (b, F(1, 6))])
        assert cls.n_terms == 1
        assert cls.coefficient(a) == F(1, 2)

    def test_zero_terms_dropped(self):
        a = DecoratedGraph(LOOP_G1, (), [(1, 0)], ())
        cls = TautClass(2, 0, [(a, F(1)), (a, F(-1))])
        assert cls.is_zero()
        assert cls.n_terms == 0

    def test_add_scale_subtract(self):
        t = trivial_class(1, 1)
        d = delta0(1)
        s = t.add(d.scale(F(-1, 6)))
        assert s.coefficient(next(iter(d.terms.values()))[0]) == F(-1, 12)
        back = s + F(1, 6) * d
        assert back == t
        assert (s - s).is_zero()

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            trivial_class(1, 1).add(trivial_class(2, 1))

    def test_degree_part(self):
        t = trivial_class(1, 1) + delta0(1)
        assert t.degree_part(0) == trivial_class(1, 1)
        assert t.degree_part(1) == delta0(1)
        assert t.degrees() == {0, 1}

    def test_formal_equal_and_diff(self):
        a = delta0(2)
        b = delta0(2).scale(F(2))
        assert a.formal_equal(a)
        assert not a.formal_equal(b)
        report = a.diff_report(b)
        assert "1/2 vs 1" in report
        assert a.diff_report(a) == "classes agree on all terms"


class TestConstructors:
    def test_delta0(self):
        d = delta0(1)
        assert d.g == 1 and d.n == 1
        [(dg, c)] = d.items()
        assert c == F(1, 2)
        assert dg.graph.genera == (0,)
        assert dg.graph.edges == ((0, 0),)

    def test_delta_I(self):
        d = delta_I(3, [1, 3])
        [(dg, c)] = d.items()
        assert c == 1
        tail = [v for v in range(2) if dg.graph.genera[v] == 0][0]
        assert dg.graph.vertex_markings(tail) == (1, 3)
        with pytest.raises(ValueError):
            delta_I(3, [2])

    def test_alpha_beta(self):
        [(dga, ca)] = alpha_class().items()
        assert ca == F(1, 8)
        assert dga.graph.edges == ((0, 0), (0, 0))
        [(dgb, cb)] = beta_class().items()
        assert cb == 1
        assert sum(sum(p) for p in dgb.edge_psi) == 1


class TestRendering:
    def test_loop_term_line(self):
        cls = delta0(1).scale(F(-1, 6))
        assert cls.text() == "-1/12 * G[g0; loop(h0,h1); leg1] psi{} kappa{}"

    def test_decorated_line(self):
        dg = DecoratedGraph(LOOP_G1, (), [(0, 1)], [(1,)])
        cls = TautClass(2, 0, [(dg, F(5))])
        assert cls.text() == "5 * G[g1; loop(h0,h1)] psi{h1:1} kappa{v0:[1]}"

    def test_zero(self):
        assert TautClass(1, 1).text() == "0"


class TestJson:
    def round_trip(self, cls: TautClass) -> TautClass:
        return TautClass.from_json(cls.to_json())

    def test_round_trip_simple(self):
        for cls in [trivial_class(2, 1), delta0(2), alpha_class(), beta_class()]:
            again = self.round_trip(cls)
            assert again == cls

    def test_round_trip_decorated(self):
        dg = DecoratedGraph(
            StableGraph([1, 1], [(0, 1)], [0]), (2,), [(1, 0)], [(), (1, 2)]
        )
        cls = TautClass(2, 1, [(dg, F(-7, 3))])
        assert self.round_trip(cls) == cls

    def test_version_checked(self):
        data = trivial_class(1, 1).to_json()
        data["version"] = "tautclass/99"
        with pytest.raises(ValueError):
            TautClass.from_json(data)

    def test_invalid_graph_rejected(self):
        data = delta0(1).to_json()
        data["terms"][0]["graph"]["vertices"][0]["genus"] = 5
        with pytest.raises(ValueError, match="genus"):
            TautClass.from_json(data)

    @staticmethod
    def relabelled(term: dict, rng: random.Random) -> dict:
        """``term`` under new half-edge ids, flipped edges and shuffled records."""
        graph = term["graph"]
        ids = [h for rec in graph["vertices"] for h in rec["half_edges"]]
        new_id = dict(zip(ids, rng.sample(range(10 * len(ids) + 10), len(ids))))
        order = rng.sample(range(len(graph["vertices"])), len(graph["vertices"]))
        vertices = []
        for v in order:
            half_edges = [new_id[h] for h in graph["vertices"][v]["half_edges"]]
            rng.shuffle(half_edges)
            vertices.append({"genus": graph["vertices"][v]["genus"], "half_edges": half_edges})
        edges = [[new_id[h] for h in rng.sample(pair, 2)] for pair in graph["edges"]]
        legs = [
            {"half_edge": new_id[rec["half_edge"]], "marking": rec["marking"]} for rec in graph["legs"]
        ]
        rng.shuffle(edges)
        rng.shuffle(legs)
        return {
            "coeff": term["coeff"],
            "graph": {
                "version": graph["version"], "vertices": vertices, "edges": edges, "legs": legs
            },
            "psi": {str(new_id[int(h)]): e for h, e in term["psi"].items()},
            "kappa": {str(order.index(int(v))): k for v, k in term["kappa"].items()},
        }

    @pytest.mark.parametrize(
        "build",
        [
            partial(pixton.pixton_class, DRVector(2, (3, 1, 1), 1), 3),
            partial(pixton.dr_cycle, DRVector(2, (2, -1, -1))),
            partial(pixton.pixton_class, DRVector(1, (3, -1), 1), 2),
        ],
        ids=["pixton-2-311-d3", "dr-2-2-1-1", "pixton-1-3-1-d2"],
    )
    def test_relabelled_terms_read_back(self, build):
        # Loops, parallel edges, psi on edge halves and legs, and kappa all
        # occur in these classes; any consistent ids must give the same class.
        cls = build()
        data = cls.to_json()
        for seed in range(3):
            rng = random.Random(seed)
            data["terms"] = [self.relabelled(term, rng) for term in cls.to_json()["terms"]]
            assert TautClass.from_json(data) == cls


def over(series: dict, den: int) -> dict:
    """Numerators over ``den`` as rationals, or as ``RPoly`` objects for integer lists."""
    return {
        m: RPoly([F(x, den) for x in c]) if isinstance(c, list) else F(c, den) for m, c in series.items()
    }


class TestSeries:
    def test_exp_of_leg_psi(self):
        g = StableGraph([1], [], [0])
        x = {psi_leg_monomial(g, 0): 3}
        e, den = series_exp(x, 1, g, 4)
        for mono, c in e.items():
            d = monomial_degree(mono)
            assert F(c, den) == F(3) ** d / F(
                [1, 1, 2, 6, 24][d]
            )

    def test_mul_truncates(self):
        g = StableGraph([1], [], [0])
        x = {psi_leg_monomial(g, 0): F(1)}
        prod = series_mul(x, x, 1)
        assert prod == {}

    def test_kappa_merge(self):
        g = StableGraph([2], [])
        a = {kappa_monomial(g, 0, 1): F(2)}
        b = {kappa_monomial(g, 0, 2): F(5)}
        prod = series_mul(a, b, 5)
        [(mono, c)] = prod.items()
        assert c == 10
        assert mono[2] == ((1, 2),)

    # Monomials on a graph with two legs, two edges and two vertices.
    _exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
    _kappa = st.lists(st.integers(1, 2), max_size=2).map(lambda k: tuple(sorted(k)))
    _monomial = st.tuples(_exponents, st.tuples(_exponents, _exponents), st.tuples(_kappa, _kappa))
    _series = st.dictionaries(_monomial, st.integers(-3, 3).map(F), max_size=8)

    @settings(max_examples=100, deadline=None)
    @given(_series, _series, st.integers(0, 8))
    def test_degree_mul_is_degree_part_of_product(self, a, b, d):
        # The oracle product that the edge product is checked against.
        assert series_degree_mul(a, b, d) == series_degree_part(series_mul(a, b, d), d)

    # The same monomials without degree 0, with integer or integer-list
    # numerators, zeros among them.
    _exponent = _monomial.filter(lambda m: monomial_degree(m) > 0)
    _small = st.integers(-3, 3)
    _exp_series = st.one_of(
        st.tuples(st.dictionaries(_exponent, _small, max_size=5), st.just(1)),
        st.tuples(st.dictionaries(_exponent, st.lists(_small, min_size=1, max_size=3), max_size=5), st.just([1])),
    )

    @settings(max_examples=150, deadline=None)
    @given(_exp_series, st.integers(1, 4), st.integers(0, 6))
    def test_exp_matches_powers(self, x_one, den, cap):
        x, one = x_one
        graph = StableGraph([0, 0], [(0, 1), (0, 1)], [0, 1])
        got, got_den = series_exp(x, den, graph, cap, one)
        want = series_exp_by_powers(over(x, den), graph, cap)
        assert _nonzero(over(got, got_den)) == _nonzero(want)
        for c in got.values():
            assert all(type(e) is int for e in (c if isinstance(c, list) else [c]))

    def test_exp_rejects_constant_term(self):
        g = StableGraph([1], [], [0])
        with pytest.raises(ValueError, match="degree-0"):
            series_exp({series_unit(g).popitem()[0]: 1}, 1, g, 2)

    def test_exp_matches_one_variable_recurrence(self):
        # The oracle's _exp_coefficients runs the RPoly recurrence in one
        # variable; a one-leg series in psi with integer lists is that case.
        g, cap = StableGraph([1], [], [0]), 6
        rows, den = chiodo._bernoulli_weights(cap)
        x = {psi_leg_monomial(g, 0, m): row for m, row in enumerate(rows, 1)}
        weights = [oracles._bernoulli_weight(m) for m in range(1, cap + 1)]
        coefficients = oracles._exp_coefficients([RPoly([0])] + weights, cap)
        want = {psi_leg_monomial(g, 0, n): c for n, c in enumerate(coefficients)}
        assert _nonzero(over(*series_exp(x, den, g, cap, [1]))) == _nonzero(want)

    @pytest.mark.parametrize("cap", range(5))
    def test_exp_of_chiodo_weights_matches_oracle(self, cap):
        # Parts of both signs, twists -2..2, in the constant term and at
        # moduli below and above the parts: the integer exponential against
        # one RPoly exponential per leg and vertex of the oracle's weights,
        # on one and on two vertices.
        graphs = [StableGraph([1], [], [0, 0, 0]), StableGraph([0, 1], [(0, 1)], [0, 0, 1])]
        for k in range(-2, 3):
            dr = DRVector(1, (3 * k + 3, -2, -1), k)
            points = [RPoly([int(a < 0), a]) for a in dr.parts]
            legs, kappa = oracles._leg_vertex_weights(points, RPoly([0, k]), cap)
            for graph in graphs:
                got = over(*chiodo._exponential(dr, cap)(graph, cap))
                assert _nonzero(got) == _nonzero(leg_vertex_series(graph, legs, kappa, cap)), (dr, graph)
                for r in (2, 3, 5, 7):
                    fixed = over(*chiodo._exponential(dr, cap, r)(graph, cap))
                    points = [F(a % r, r) for a in dr.parts]
                    legs_r, kappa_r = oracles._leg_vertex_weights(points, F(k, r), cap)
                    assert fixed == leg_vertex_series(graph, legs_r, kappa_r, cap), (dr, graph, r)

    @pytest.mark.parametrize("cap", range(6))
    def test_exp_of_pixton_weights_matches_oracle(self, cap):
        # Pixton's a_i^2 psi_i and -k^2 kappa_1, with zero and nonzero parts.
        for dr in (DRVector(2, (0, 0)), DRVector(2, (3, -1, -2)), DRVector(1, (3, 1), 1), DRVector(1, (2, 0), -1)):
            for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=2):
                want = leg_vertex_series(graph, [(F(a * a),) for a in dr.parts], (F(-dr.twist**2),), cap)
                assert over(*pixton._vertex_leg_series(graph, dr, cap)) == want, (dr, graph)

    @pytest.mark.parametrize("dr", [DRVector(2, (3, 1), 1), DRVector(1, (2, -1, -1))])
    def test_edge_mul_is_the_degree_product(self, dr):
        # The edge monomials, lifted to whole ones, times the vertex and leg
        # exponential by series_degree_mul; some edge weights are 0.
        for graph in enumerate_stable_graphs(dr.genus, dr.n, max_edges=3):
            cap = 3 - graph.n_edges
            L, _ = pixton._vertex_leg_series(graph, dr, cap)
            pairs = itertools.product(itertools.product(range(3), repeat=2), repeat=graph.n_edges)
            edges = {p: F(i % 4, 3) for i, p in enumerate(pairs)}
            lifted = {((0,) * graph.n_legs, p, ((),) * graph.n_vertices): c for p, c in edges.items()}
            assert series_edge_mul(L, graph, edges, 3) == series_degree_mul(L, lifted, cap), graph

    def test_unit(self):
        g = StableGraph([1, 1], [(0, 1)], [0])
        u = series_unit(g)
        [(mono, c)] = u.items()
        assert c == 1 and monomial_degree(mono) == 0


def _nonzero(series: dict) -> dict:
    """``series`` without zero coefficients, each read as a coefficient tuple: a number as a constant."""
    return {m: getattr(c, "coeffs", (c,)) for m, c in series.items() if c}


def pixton_profiles(graph, L, d):
    """Pixton's per-graph selection: exponents m with a degree ``cap - |m|`` monomial in L."""
    cap = d - graph.n_edges
    degrees = {monomial_degree(mono) for mono in L}
    return [
        m for m in itertools.product(range(cap + 1), repeat=graph.n_edges) if cap - sum(m) in degrees
    ]


def chiodo_profiles(graph, L, d):
    """Chiodo's per-graph selection: edge factor pairs within the budget that L completes."""
    part = d - graph.n_edges
    keys = [key for key, _ in chiodo._edge_factor_polys(d)[0] if sum(key) <= part]
    degrees = {part - monomial_degree(mono) for mono in L}
    return [
        prof
        for prof in itertools.product(keys, repeat=graph.n_edges)
        if sum(i + j for i, j in prof) in degrees
    ]


class TestGraphSumData:
    """One exponential and one profile list per vertex and edge count serve every graph of it."""

    def check(self, dr, d, data, exponential, select) -> tuple[int, int, int]:
        """Graphs, shapes and graphs yielded, once every graph with at most d edges is checked.

        A yielded graph carries the L built from itself, though it was
        built from the first graph of its vertex and edge count, and the
        profiles of the old per-graph selection; a graph left out has none.
        """
        yielded = {idx: rest for idx, *rest in data}
        kept = len(yielded)
        graphs = enumerate_stable_graphs(dr.genus, dr.n, max_edges=d)
        for idx, graph in enumerate(graphs):
            L = exponential(graph, d - graph.n_edges)
            profiles = select(graph, L[0])
            if idx in yielded:
                aut, b = automorphism_order(graph), first_betti(graph)
                got = yielded.pop(idx)
                assert got == [graph, b, aut, L, profiles], (dr, d, idx)
            else:
                assert profiles == [], (dr, d, idx)
        assert not yielded
        shapes = {(graph.n_vertices, graph.n_edges) for graph in graphs}
        return len(graphs), len(shapes), kept

    def check_pixton(self, dr, d) -> tuple[int, int, int]:
        def exponential(graph, cap):
            return pixton._vertex_leg_series(graph, dr, cap)

        data = (
            (int(label.rsplit("#", 1)[1]), *rest) for label, *rest in pixton._graph_templates(dr, d)
        )
        return self.check(dr, d, data, exponential, partial(pixton_profiles, d=d))

    @pytest.mark.parametrize(
        "dr",
        [
            DRVector(3, ()),
            DRVector(2, (0, 0)),
            DRVector(2, (2, -1, -1)),
            DRVector(2, (3, 1), 1),
            DRVector(2, (-3, -1), -1),
            DRVector(1, (3, -1, -2), 0),
        ],
    )
    def test_pixton(self, dr):
        graphs, shapes, _ = map(sum, zip(*(self.check_pixton(dr, d) for d in range(4))))
        assert graphs > shapes

    def test_pixton_leaves_out_graphs_without_profiles(self):
        # With zero data L is 1, so a graph with no edges has no profile in
        # positive degree.
        graphs, _, kept = self.check_pixton(DRVector(3, ()), 2)
        assert 0 < kept < graphs

    @pytest.mark.parametrize(
        "dr", [DRVector(2, (1, -1)), DRVector(2, (3, 1), 1), DRVector(2, (-3, -1), -1)]
    )
    def test_chiodo(self, dr):
        # The fixed-r exponential at two moduli, as chiodo_pushforward
        # builds it, and the one of the constant term, in integer lists.
        routes = [chiodo._exponential(dr, 3), chiodo._exponential(dr, 3, 4), chiodo._exponential(dr, 3, 2)]
        counts = []
        for d in range(4):
            for exponential in routes:
                data = chiodo._graph_series(dr, d, exponential)
                select = partial(chiodo_profiles, d=d)
                counts.append(self.check(dr, d, data, exponential, select))
        graphs, shapes, _ = map(sum, zip(*counts))
        assert graphs > shapes

    @pytest.mark.parametrize(
        "dr, d",
        [
            (DRVector(4, (1, -1)), 4),
            (DRVector(4, ()), 4),
            (DRVector(3, (2, -1, -1)), 3),
            (DRVector(2, (3, -1, -1, -1)), 2),
        ],
    )
    def test_one_exponential_per_vertex_and_edge_count(self, dr, d):
        # Pixton's exponential, and Chiodo's at a fixed modulus and in the
        # constant term, each built once per (n_vertices, n_edges).
        graphs = enumerate_stable_graphs(dr.genus, dr.n, max_edges=d)
        counts = {(graph.n_vertices, graph.n_edges) for graph in graphs}
        pixton_keys = {m: m for m in range(d + 1)}
        routes = [
            (
                lambda exp: graph_sum_data(dr.genus, dr.n, d, exp, pixton_keys),
                lambda graph, budget: pixton._vertex_leg_series(graph, dr, budget),
            ),
            (
                lambda exp: chiodo._graph_series(dr, d, exp),
                chiodo._exponential(dr, d, 5),
            ),
            (
                lambda exp: chiodo._graph_series(dr, d, exp),
                chiodo._exponential(dr, d),
            ),
        ]
        for data, build in routes:
            calls = []

            def exponential(graph, budget):
                calls.append((graph.n_vertices, graph.n_edges))
                return build(graph, budget)

            for _ in data(exponential):
                pass
            assert len(calls) == len(counts) and set(calls) == counts
        assert len(graphs) > len(counts)
