from __future__ import annotations

import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drtaut import weightings
from drtaut.exact import forward_differences, interpolate, newton_numerators
from drtaut.graphs import StableGraph, enumerate_stable_graphs, first_betti
from drtaut.chiodo import _edge_factor_polys, chiodo_constant
from drtaut.weightings import (
    DRVector,
    EdgeTerms,
    certified_fit,
    default_r_min,
    edge_profile_sums,
    profile_weights,
    sampled_profile_weights,
    tree_profile_weights,
)
from drtaut.pixton import _graph_templates, _x_powers, dr_cycle

from oracles import RPoly
from oracles import certified_fit as oracle_certified_fit
from oracles import edge_profile_sums as direct_profile_sums
from oracles import enumerate_weightings
from oracles import interpolate as lagrange_interpolate
from oracles import loop_poly as oracle_loop_poly
from oracles import power_tables
from oracles import residue_zero_bridge, rpoly
from oracles import zero_bridge as oracle_zero_bridge

F = Fraction

LOOP_G1 = StableGraph([1], [(0, 0)])
TWO_LOOPS = StableGraph([0], [(0, 0), (0, 0)])
BANANA2_G1G1 = StableGraph([1, 1], [(0, 1), (0, 1)])
BANANA3_G0G1 = StableGraph([0, 1], [(0, 1), (0, 1), (0, 1)])
# The simple quotient of a triangle is a cycle: one free residue.
TRIANGLE = StableGraph([0, 0, 0], [(0, 1), (0, 2), (1, 2)], [0, 1, 2])
# Two triangles sharing the edge (1, 2): two free residues.
THETA = StableGraph([0, 0, 0, 0], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], [0, 3])
# Chiodo-style edge keys: weights sum c (w/r)^q, the observables (q, 0),
# with several q per key; the largest q of a key is its top.
MULTI_TERMS = {
    "B2": (((0, 0), 1), ((1, 0), -6), ((2, 0), 6)),
    "cubic": (((1, 0), 1), ((3, 0), -4)),
    "square": (((2, 0), 3),),
    "u": (((0, 0), 1), ((1, 0), -2)),
}


def xp(*powers):
    """Pixton's edge powers ``x^p`` as the half-edge observables ``(p, p)``."""
    return tuple((p, p) for p in powers)


def rpolys(fits):
    """The fits of :func:`certified_fit` as RPolys, by key."""
    return {key: rpoly(fit) for key, fit in fits.items()}


def identity_terms(profiles):
    """Each observable of the profiles as its own edge key, with coefficient 1."""
    return {ab: ((ab, 1),) for prof in profiles for ab in prof}


def route_polys(route, graph, dr, profiles, label=None):
    """A weights route's observable sums as RPolys in ``r``, or ``None`` where the route gives none.

    A profile of degree ``deg`` sums to ``r^{deg + b}`` times its weight,
    so its ``r^j`` coefficient is stored at ``j + cap - deg - b``; every
    entry below ``r^0`` of the sum must be zero.
    """
    b = first_betti(graph)
    degrees = [sum(map(sum, prof)) + b for prof in profiles]
    cap = max(degrees, default=0)
    result = route(graph, dr, profiles, identity_terms(profiles), cap, label)
    if result is None:
        return None
    weights, den = result
    assert all(len(w) == cap + 1 and not any(w[: cap - top]) for w, top in zip(weights, degrees))
    return [RPoly([F(x, den) for x in w[cap - top :]]) for w, top in zip(weights, degrees)]


def fitted(graph, dr, profiles, label=None):
    """The observable sums of :func:`profile_weights` as RPolys in ``r``."""
    return route_polys(profile_weights, graph, dr, profiles, label)


def multi_term_profiles(graph):
    """Profiles of :data:`MULTI_TERMS` keys that mix them across the edges,
    and the all-``cubic`` profile, of the largest top."""
    keys = sorted(MULTI_TERMS)
    mixed = [
        tuple(keys[(j + t * t) % len(keys)] for t in range(graph.n_edges)) for j in range(len(keys))
    ]
    return mixed + [("cubic",) * graph.n_edges]


def same_weights(left, right):
    """Whether two ``(weights, den)`` results agree entry for entry, cross-multiplied."""
    (lw, ld), (rw, rd) = left, right
    return len(lw) == len(rw) and all(
        [x * rd for x in a] == [y * ld for y in b] for a, b in zip(lw, rw)
    )


def brute_weightings(graph, r, dr):
    """Filter every per-edge assignment by all vertex congruences."""
    n_e = graph.n_edges
    legs = [a % r for a in dr.parts]
    found = set()
    for assign in itertools.product(range(r), repeat=n_e):
        values = [0] * graph.n_half_edges
        for t, w in enumerate(assign):
            values[2 * t] = w
            values[2 * t + 1] = (r - w) % r
        for i, a in enumerate(legs):
            values[2 * n_e + i] = a
        ok = True
        for v in range(graph.n_vertices):
            total = sum(
                values[h]
                for h in range(graph.n_half_edges)
                if graph.half_edge_vertex(h) == v
            )
            target = dr.twist * (2 * graph.genera[v] - 2 + graph.vertex_degree(v))
            if (total - target) % r != 0:
                ok = False
                break
        if ok:
            found.add(tuple(values))
    return found


def brute_profile_sum(graph, r, dr, profile):
    """``sum_w prod_e (w(h) w(h'))^{p_e}`` over the brute-force weightings."""
    total = 0
    for values in brute_weightings(graph, r, dr):
        term = 1
        for t, p in enumerate(profile):
            term *= (values[2 * t] * values[2 * t + 1]) ** p
        total += term
    return total


def brute_table_sum(graph, r, dr, tables):
    """``sum_w prod_e T_e[w(2t)]`` over the brute-force weightings."""
    return sum(
        math.prod(table[values[2 * t]] for t, table in enumerate(tables))
        for values in brute_weightings(graph, r, dr)
    )


class TestDRVector:
    def test_accessors(self):
        dr = DRVector(1, (3, -1, -2))
        assert dr.n == 3
        assert dr.is_exact
        assert dr.mu == (3,)
        assert dr.nu == (2, 1)
        assert dr.degree == 3

    def test_twisted_defect(self):
        dr = DRVector(1, (1,), twist=1)
        # k (2g - 2 + n) = 1, parts sum to 1: balanced.
        assert dr.is_exact
        off = DRVector(1, (2,), twist=1)
        assert off.defect == -1
        with pytest.raises(ValueError):
            off.require_exact()

    def test_fields_are_frozen(self):
        dr = DRVector(2, (1, -1))
        for name in ("genus", "parts", "twist"):
            with pytest.raises(AttributeError):
                setattr(dr, name, 0)
        assert dr.genus == 2

    def test_equality_hash_and_repr(self):
        dr = DRVector(2, [1, -1])
        assert dr == DRVector(2, (1, -1), 0)
        assert dr != DRVector(2, (1, -1), 1)
        assert dr != (2, (1, -1), 0)
        assert hash(dr) == hash((2, (1, -1), 0))
        assert repr(dr) == "DRVector(genus=2, parts=(1, -1), twist=0)"
        assert pickle.loads(pickle.dumps(dr)) == dr


class TestEnumerate:
    def test_cardinality_is_r_to_betti(self):
        dr0 = DRVector(2, ())
        for graph in enumerate_stable_graphs(2, 0):
            for r in (1, 2, 3, 5):
                ws = enumerate_weightings(graph, r, dr0)
                assert len(ws) == r ** first_betti(graph)

    def test_congruence_failure_gives_none(self):
        # sum a_i = 1 not divisible by r = 3 (k = 0).
        graph = StableGraph([1], [], [0])
        dr = DRVector(1, (1,))
        assert enumerate_weightings(graph, 3, dr) == ()
        assert len(enumerate_weightings(graph, 2, DRVector(1, (2,)))) == 1

    def test_vertex_and_edge_congruences_hold(self):
        dr = DRVector(3, (3, -1), twist=1)  # k(2g-2+n) = 6 > 2 = sum: mod-2 ok
        graph = StableGraph([1, 1], [(0, 1), (0, 1)], [0, 1])
        for r in (2,):
            for wt in enumerate_weightings(graph, r, dr):
                for t in range(graph.n_edges):
                    h1, h2 = graph.edge_half_edges(t)
                    assert (wt[h1] + wt[h2]) % r == 0
                for i, a in enumerate(dr.parts):
                    assert wt[graph.leg_half_edge(i + 1)] == a % r
                for v in range(graph.n_vertices):
                    total = sum(
                        wt[h]
                        for h in range(graph.n_half_edges)
                        if graph.half_edge_vertex(h) == v
                    )
                    target = dr.twist * (2 * graph.genera[v] - 2 + graph.vertex_degree(v))
                    assert (total - target) % r == 0

    def test_matches_brute_force(self):
        cases = [
            (LOOP_G1, DRVector(2, ()), 4),
            (TWO_LOOPS, DRVector(2, ()), 3),
            (BANANA2_G1G1, DRVector(3, ()), 4),
            (BANANA3_G0G1, DRVector(3, ()), 3),
            (StableGraph([0, 1], [(0, 1)], [0, 0]), DRVector(1, (2, -2)), 5),
            (StableGraph([1, 0], [(0, 1), (1, 1)], [1]), DRVector(2, (1,), twist=1), 3),
        ]
        for graph, dr, r in cases:
            ours = enumerate_weightings(graph, r, dr)
            assert len(set(ours)) == len(ours)
            assert set(ours) == brute_weightings(graph, r, dr)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_random(self, data):
        pool = [g for g in enumerate_stable_graphs(2, 1) if g.n_edges <= 3]
        graph = data.draw(st.sampled_from(pool))
        r = data.draw(st.integers(min_value=1, max_value=4))
        a1 = data.draw(st.integers(min_value=-3, max_value=3))
        k = data.draw(st.integers(min_value=0, max_value=2))
        dr = DRVector(2, (a1,), twist=k)
        ours = set(enumerate_weightings(graph, r, dr))
        assert ours == brute_weightings(graph, r, dr)


class TestLatticeSums:
    """Edge-profile sums over the weighting lattice against brute force."""

    def test_loop_moment(self):
        dr = DRVector(2, ())
        for r in (2, 3, 7):
            [val] = edge_profile_sums(LOOP_G1, r, dr, power_tables(r, [xp(1)]))
            assert val == r * (r * r - 1) // 6
            assert val == brute_profile_sum(LOOP_G1, r, dr, (1,))

    def test_profile_sums_match_brute_force(self):
        # Powers of x = w (r - w) are symmetric under w <-> r - w; the other
        # tables are not, so a table read from the wrong half-edge shows.
        cases = [
            (BANANA2_G1G1, DRVector(3, ()), (2, 5)),
            (BANANA2_G1G1, DRVector(3, (), twist=1), (2, 4)),
            (BANANA3_G0G1, DRVector(3, ()), (2, 5)),
            (TWO_LOOPS, DRVector(2, ()), (2, 5)),
            (StableGraph([0, 1], [(0, 1)], [0, 0]), DRVector(1, (2, -2)), (5,)),
            (StableGraph([0, 1], [(0, 1), (0, 1)], [0]), DRVector(2, (3,), twist=1), (3, 5)),
            (StableGraph([1, 0], [(0, 1), (1, 1)], [1]), DRVector(2, (1,), twist=1), (2, 3)),
            (StableGraph([1, 0], [(0, 1), (1, 1)], [1]), DRVector(2, (3,), twist=1), (3, 4)),
        ]
        for graph, dr, rs in cases:
            profiles = [
                tuple(p) for p in itertools.product((0, 1, 2), repeat=graph.n_edges)
            ]
            for r in rs:
                sums = edge_profile_sums(graph, r, dr, power_tables(r, [xp(*p) for p in profiles]))
                assert sums == [brute_profile_sum(graph, r, dr, p) for p in profiles]
                tables = [[1] * r, [w * w + 1 for w in range(r)], [w**3 + 2 * w + 3 for w in range(r)]]
                chosen = [[tables[p] for p in prof] for prof in profiles]
                sums = edge_profile_sums(graph, r, dr, chosen)
                assert sums == [brute_table_sum(graph, r, dr, t) for t in chosen]

    def test_profile_sums_congruence_failure(self):
        graph = StableGraph([1], [(0, 0)], [0])
        dr = DRVector(2, (1,))
        assert edge_profile_sums(graph, 5, dr, power_tables(5, [xp(1)])) == [0]

    @pytest.mark.parametrize(
        "r, genus, parts, message",
        [
            (0, 1, (1, -1), "modulus"),
            (-3, 1, (1, -1), "modulus"),
            (5, 1, (1, -1, 0), "marking count"),
            (5, 1, (2, -1, -1, 0), "marking count"),
            (5, 2, (1, -1), "genus"),
        ],
        ids=["r-zero", "r-negative", "three-parts", "four-parts", "genus-two"],
    )
    def test_rejects_bad_input(self, r, genus, parts, message):
        graph = StableGraph([0], [(0, 0)], [0, 0])
        with pytest.raises(ValueError, match=message):
            edge_profile_sums(graph, r, DRVector(genus, parts), [([1] * r,)])
        if r > 0:
            with pytest.raises(ValueError, match=message):
                fitted(graph, DRVector(genus, parts), [xp(1)])


def balanced_parts(g, n, k):
    """Parts summing to ``k (2g - 2 + n)``; for ``n = 0`` only ``k = 0`` balances."""
    rest = [1, -1, 2, 0, -2][: max(n - 1, 0)]
    return tuple([k * (2 * g - 2 + n) - sum(rest)] + rest) if n else ()


class TestQuotient:
    """The quotient sum against the direct per-weighting sum on the unreduced graph."""

    TYPES = [(2, 0), (2, 1), (3, 0), (1, 2), (2, 2), (0, 5)]

    @staticmethod
    def table_pool(r):
        # The unit table, shared power tables, tables not symmetric under
        # w <-> r - w, and Fraction tables.
        x1, x2 = power_tables(r, [xp(1, 2)])[0]
        return [
            [1] * r,
            x1,
            x2,
            [w * w + 1 for w in range(r)],
            [w**3 + 2 * w + 3 for w in range(r)],
            [F(w, r) - F(1, 3) for w in range(r)],
            [F(w * w - 2, 5) for w in range(r)],
        ]

    @staticmethod
    def profiles(pool, n_edges):
        # Uniform profiles and two rotations, so the edges of one parallel
        # class carry equal tables and also different ones.
        P = len(pool)
        out = []
        for j in range(P):
            out.append([pool[j]] * n_edges)
            out.append([pool[(j + t) % P] for t in range(n_edges)])
            out.append([pool[(j + t * t + 2 * t) % P] for t in range(n_edges)])
        return out

    def test_matches_direct_sum(self):
        graphs = [
            (g, n, graph)
            for g, n in self.TYPES
            for graph in enumerate_stable_graphs(g, n, max_edges=4)
        ]
        non_loops = [[(u, v) for u, v in graph.edges if u != v] for _, _, graph in graphs]
        assert any(
            len(edges) < graph.n_edges and len(set(edges)) < len(edges)
            for (_, _, graph), edges in zip(graphs, non_loops)
        ), "no graph with a loop next to a parallel class"
        for g, n, graph in graphs:
            for k in (0, 1, 2):
                dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                for r in (2, 3, 5, 7):
                    profiles = self.profiles(self.table_pool(r), graph.n_edges)
                    assert edge_profile_sums(graph, r, dr, profiles) == direct_profile_sums(
                        graph, r, dr, profiles
                    ), (graph, dr, r)

    def test_quotient_structure(self):
        graph = StableGraph([1, 0, 0], [(0, 1), (0, 1), (1, 1), (1, 2), (1, 2), (1, 2)])
        quotient = weightings._quotient(graph)
        assert quotient.classes == ((0, 1), (3, 4, 5))
        assert quotient.loops == (2,)
        assert quotient.plan.n_edges == 2 and quotient.plan.free == ()

    def test_zero_bridge_matches_side_rule(self):
        # The bridges are the quotient edges of one graph edge with no slope,
        # every stored slope is +-1, and the rule that reads their residues
        # off the plan agrees with the side-by-side oracle on all data with
        # |a_i| <= 3 (|a_i| <= 1 at n = 5, where |a_i| <= 3 makes 1.4
        # million cases and takes half a minute) at every admissible modulus.
        seen = {"zero": 0, "nonzero": 0, "parallel": 0}
        for g, n in [(2, 0), (3, 0), (2, 2), (1, 3), (0, 5), (3, 1)]:
            bound = 1 if n == 5 else 3
            for graph in enumerate_stable_graphs(g, n):
                quotient = weightings._quotient(graph)
                slopes = quotient.plan.slopes
                assert {
                    ts[0] for ts, slope in zip(quotient.classes, slopes)
                    if len(ts) == 1 and not any(slope)
                } == graph.bridges(), graph
                assert {abs(x) for slope in slopes for x in slope} <= {0, 1}, graph
                assert all(1 in map(abs, slopes[t]) for t in quotient.plan.free), graph
                seen["parallel"] += any(len(ts) > 1 for ts in quotient.classes)
                for parts in itertools.product(range(-bound, bound + 1), repeat=n):
                    for k in (0, 1, 2):
                        dr = DRVector(g, parts, k)
                        for r in (0, 2, 3, 5):
                            if dr.defect % r if r else dr.defect:
                                continue
                            got = residue_zero_bridge(graph, dr, r)
                            assert got == oracle_zero_bridge(graph, dr, r), (graph, dr, r)
                            seen["zero" if got else "nonzero"] += 1
        assert all(seen.values()), seen

    def test_plan_built_once_per_graph(self, monkeypatch):
        built = []
        real = weightings._solve_plan

        def spy(graph, edges=None):
            built.append(graph)
            return real(graph, edges)

        monkeypatch.setattr(weightings, "_solve_plan", spy)
        weightings._quotient.cache_clear()
        seen = []
        real_sums = weightings.edge_profile_sums

        def count_moduli(graph, r, dr, profiles):
            seen.append(r)
            return real_sums(graph, r, dr, profiles)

        monkeypatch.setattr(weightings, "edge_profile_sums", count_moduli)
        fitted(TRIANGLE, DRVector(1, (0, 0, 0)), [xp(1, 1, 1), xp(2, 0, 1)])
        fitted(TRIANGLE, DRVector(1, (0, 0, 0)), [xp(1, 2, 0)])
        assert len(seen) > 10
        assert built == [TRIANGLE]


class TestFitting:
    def test_loop_fit(self):
        [fit] = fitted(LOOP_G1, DRVector(2, ()), [xp(1)])
        assert fit == RPoly([F(0), F(-1, 6), F(0), F(1, 6)])
        assert fit.divisible_by(1)
        assert fit.shift_down(1).constant_term == F(-1, 6)

    def test_two_loop_fit(self):
        [fit] = fitted(TWO_LOOPS, DRVector(2, ()), [xp(1, 1)])
        assert fit.divisible_by(2)
        assert fit.shift_down(2).constant_term == F(1, 36)

    def test_quartic_loop_moment(self):
        [fit] = fitted(LOOP_G1, DRVector(2, ()), [xp(2)])
        assert fit.divisible_by(1)
        # sum_w (w(r-w))^2 = r^5/30 - r^3/6*... : its r-linear part is B_4.
        assert fit.shift_down(1).constant_term == F(-1, 30)

    def test_nonzero_parts_fit(self):
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        dr = DRVector(1, (2, 1, -3))
        [fit] = fitted(graph, dr, [xp(1)])
        # Bridge weight is the side sum 3, so x = 3 (r - 3) for large r.
        assert fit.divisible_by(0)  # betti 0: trivially divisible
        assert fit == RPoly([F(-9), F(3)])

    def test_default_sampling(self, monkeypatch):
        # Bound 2 * 2 + b = 5 from the (1, 1, 0) profile, first modulus
        # default_r_min, two verification moduli: eight moduli, each summed
        # once for both profiles.  With zero parts every edge of the
        # triangle carries x(w) for one free w, so the sums are those of a
        # loop with exponents 1 and 2.
        dr = DRVector(1, (0, 0, 0))
        seen = []
        real = weightings.edge_profile_sums

        def spy(graph, r, dr, profiles):
            seen.append(r)
            return real(graph, r, dr, profiles)

        monkeypatch.setattr(weightings, "edge_profile_sums", spy)
        fits = fitted(TRIANGLE, dr, [xp(1, 0, 0), xp(1, 1, 0)])
        start = default_r_min(dr)
        assert seen == list(range(start, start + 8))
        assert [fit.shift_down(1).constant_term for fit in fits] == [F(-1, 6), F(-1, 30)]

    def test_tree_quotient_samples_nothing(self, monkeypatch):
        dr = DRVector(3, ())
        profiles = [xp(1, 1, 1), xp(2, 0, 1), xp(0, 0, 0)]
        sampled = route_polys(sampled_profile_weights, BANANA3_G0G1, dr, profiles)

        def forbidden(*args, **kwargs):
            raise AssertionError("a tree quotient was sampled")

        monkeypatch.setattr(weightings, "edge_profile_sums", forbidden)
        monkeypatch.setattr(weightings, "certified_fit", forbidden)
        fits = fitted(BANANA3_G0G1, dr, profiles)
        assert fits == sampled
        assert all(fit.divisible_by(2) for fit in fits)

    def test_insufficient_degree_bound(self):
        with pytest.raises(ValueError, match="insufficient degree bound"):
            certified_fit(
                lambda r: {0: F(r) ** 9},
                degree_bound=1,
                r_min=2,
                label="deliberate underfit",
            )

    def test_retry_recovers_from_small_bound(self):
        # Degree 3 data with bound 1: the doubled window has 4 nodes and fits.
        fits, _ = certified_fit(
            lambda r: {0: F(r) ** 3}, degree_bound=1, r_min=2, label="retry case"
        )
        assert rpolys(fits) == {0: RPoly([F(0), F(0), F(0), F(1)])}

    def test_absent_key_is_zero(self):
        # (r - 6)(r - 7) is left out where it vanishes, at r = 6 and 7 of
        # the window 5..7, as classes drop zero terms; it still fits.
        def ev(r):
            out = {"r": F(r)}
            if (r - 6) * (r - 7):
                out["q"] = F((r - 6) * (r - 7))
            return out

        fits, divisible = certified_fit(ev, degree_bound=2, r_min=5)
        assert rpolys(fits) == {"q": RPoly([F(42), F(-13), F(1)]), "r": RPoly([F(0), F(1)])}
        assert divisible

    def test_key_only_at_verification_modulus_raises(self):
        # Bound 2 from r_min 5: window 5..7, checks 8, 9; the doubled window
        # 5..10 fits the spike at 8, which the checks at 11, 12 reject.
        def ev(r):
            out = {0: F(r)}
            if r == 8:
                out[1] = F(1)
            return out

        with pytest.raises(ValueError, match="spike: .* moduli on #1$"):
            certified_fit(ev, degree_bound=2, r_min=5, label="spike")

    def test_explicit_sampling(self):
        dr = DRVector(2, ())
        seen = []

        def ev(r):
            seen.append(r)
            [val] = edge_profile_sums(LOOP_G1, r, dr, power_tables(r, [xp(1)]))
            return {0: F(val)}

        fits, _ = certified_fit(ev, degree_bound=4, r_min=11)
        assert rpolys(fits) == {0: RPoly([F(0), F(-1, 6), F(0), F(1, 6)])}
        assert seen == list(range(11, 18))


class TestExactProfiles:
    """The tree route against the sampled route, and the exact polynomials it gives."""

    TYPES = [(2, 0), (3, 0), (2, 2), (1, 3)]

    @staticmethod
    def tree_graphs(g, n):
        return [
            graph
            for graph in enumerate_stable_graphs(g, n)
            if not weightings._quotient(graph).plan.free
        ]

    @staticmethod
    def check_routes(graph, dr, profiles, terms, cap, checked):
        """Both routes' weights agree entry for entry; count what the data exercised."""
        tree = tree_profile_weights(graph, dr, profiles, terms, cap)
        assert same_weights(tree, sampled_profile_weights(graph, dr, profiles, terms, cap)), (
            graph,
            dr,
        )
        if dr.is_exact:
            quotient = weightings._quotient(graph)
            checked["negative"] += any(D < 0 for D in weightings._class_residues(dr, quotient.plan))
            checked["classes"] += any(len(ts) > 1 for ts in quotient.classes)
            checked["loops"] += bool(quotient.loops)
            checked["nonzero"] += any(map(any, tree[0]))

    def test_matches_sampled_fit(self):
        # Pixton's one-term keys (m+1, m+1) on every tree-quotient graph, at
        # cap 2d + b for d = E + 2: every profile with |m| <= 2.  With n = 0
        # only k = 0 balances; the unbalanced data has no weightings at any
        # sampled r, and both routes give 0.
        checked = dict.fromkeys(["classes", "loops", "negative", "nonzero"], 0)
        for g, n in self.TYPES:
            for graph in self.tree_graphs(g, n):
                E = graph.n_edges
                d = E + 2
                profiles = [m for m in itertools.product(range(3), repeat=E) if sum(m) <= 2]
                for k in (-1, 0, 1, 2):
                    dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                    cap = 2 * d + first_betti(graph)
                    self.check_routes(graph, dr, profiles, _x_powers(d), cap, checked)
        assert all(checked.values()), checked

    def test_half_edge_monomials_match_sampled_fit(self):
        # Chiodo's multi-term keys: the edge factor coefficients of degree
        # at most 1, polynomials in u = w/r over one denominator, summed
        # from the observables w^q, (q, 0), at Chiodo's cap 2d for
        # d = E + 1.  Unlike x^p they are not symmetric under w <-> r - w,
        # so a residue read at the wrong end of an edge or class shows, and
        # the cap cuts off the lowest powers of 1/r of the larger sums.
        factors, _ = _edge_factor_polys(1)
        terms = {key: [((q, 0), c) for q, c in enumerate(nums) if c] for key, nums in factors}
        assert max(len(t) for t in terms.values()) > 1
        checked = dict.fromkeys(["classes", "loops", "negative", "nonzero"], 0)
        for g, n in self.TYPES:
            for graph in self.tree_graphs(g, n):
                E = graph.n_edges
                profiles = [
                    prof
                    for prof in itertools.product(sorted(terms), repeat=E)
                    if sum(map(sum, prof)) <= 1
                ]
                for k in (-1, 0, 1, 2):
                    dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                    self.check_routes(graph, dr, profiles, terms, 2 * (E + 1), checked)
        assert all(checked.values()), checked

    @pytest.mark.parametrize(
        "graph, dr, free",
        [
            (TRIANGLE, DRVector(1, (2, 1, -3)), 1),
            (TRIANGLE, DRVector(1, (2, 1, 0), 1), 1),
            (THETA, DRVector(2, (1, -1)), 2),
            (THETA, DRVector(2, (3, 1), 1), 2),
        ],
        ids=["one-free", "one-free-twisted", "two-free", "two-free-twisted"],
    )
    def test_sampled_route_matches_brute_force(self, graph, dr, free):
        # Where only the sampled route runs: its polynomials against the
        # sums over every listed weighting, at moduli past its window.
        assert len(weightings._quotient(graph).plan.free) == free
        observables = [(1, 0), (0, 2), (2, 1), (1, 1), (0, 0)]
        profiles = [
            tuple(observables[(j + t * t) % len(observables)] for t in range(graph.n_edges))
            for j in range(len(observables))
        ]
        polys = route_polys(sampled_profile_weights, graph, dr, profiles)
        for r in (default_r_min(dr) + 20, default_r_min(dr) + 23):
            for prof, poly in zip(profiles, polys):
                want = sum(
                    math.prod(w[2 * t] ** a * (r - w[2 * t]) ** b for t, (a, b) in enumerate(prof))
                    for w in enumerate_weightings(graph, r, dr)
                )
                assert poly(r) == want, (graph, dr, prof, r)
        # Chiodo-style multi-term keys: each weight, read at r, against
        # r^{-b} times the sum of the products of the edge weights themselves.
        b = first_betti(graph)
        cap = 3 * graph.n_edges + b
        profiles = multi_term_profiles(graph)
        weights, den = sampled_profile_weights(graph, dr, profiles, MULTI_TERMS, cap)
        for r in (default_r_min(dr) + 20, default_r_min(dr) + 23):
            for prof, weight in zip(profiles, weights):
                got = sum(F(x, den * r ** (cap - i)) for i, x in enumerate(weight))
                want = sum(
                    math.prod(
                        sum(c * F(w[2 * t], r) ** q for (q, _), c in MULTI_TERMS[key])
                        for t, key in enumerate(prof)
                    )
                    for w in enumerate_weightings(graph, r, dr)
                )
                assert got == want / r**b, (graph, dr, prof, r)

    def test_one_fit_key_per_profile(self, monkeypatch):
        # One certified fit per graph, of one key per profile, however many
        # products of observables its multi-term keys reach, at the degree
        # bound sum(top) + b of the all-cubic profile.
        made = []
        real = weightings.certified_fit

        def spy(evaluate, degree_bound, *args, **kwargs):
            samples = []
            made.append((degree_bound, samples))

            def recorded(r):
                samples.append(evaluate(r))
                return samples[-1]

            return real(recorded, degree_bound, *args, **kwargs)

        monkeypatch.setattr(weightings, "certified_fit", spy)
        for graph, dr in [(TRIANGLE, DRVector(1, (2, 1, 0), 1)), (THETA, DRVector(2, (1, -1)))]:
            made.clear()
            profiles = multi_term_profiles(graph)
            sampled_profile_weights(graph, dr, profiles, MULTI_TERMS, 20)
            [(bound, samples)] = made
            assert bound == 3 * graph.n_edges + first_betti(graph)
            assert samples and all(set(sample) == set(range(len(profiles))) for sample in samples)

    def test_no_profiles_give_no_weights(self):
        for graph, dr in [(TRIANGLE, DRVector(1, (1, 1, -2))), (BANANA3_G0G1, DRVector(3, ()))]:
            assert profile_weights(graph, dr, [], {}, 4) == ([], 1)
            assert sampled_profile_weights(graph, dr, [], {}, 4) == ([], 1)

    def test_shared_memo_matches_per_call(self):
        # One memo of class weights shared by every tree graph, twist and
        # cap, as a graph sum shares it, gives the weights a plain mapping
        # contracts afresh on each call: Pixton's x^{m+1} at cap 2d + b for
        # d = E + 2, and Chiodo's multi-term (q, 0) keys of degree at most
        # 1 at cap 2(E + 1), and both at cap 1, which cuts off the lower
        # powers of 1/r.  The residues differ by twist and the caps by graph
        # and call, so a memo key missing either shows.
        factors, _ = _edge_factor_polys(1)
        chiodo = {key: [((q, 0), c) for q, c in enumerate(nums) if c] for key, nums in factors}
        shared = {"pixton": EdgeTerms(_x_powers(8)), "chiodo": EdgeTerms(chiodo)}
        for g, n in [(3, 0), (2, 2), (1, 3)]:
            for graph in self.tree_graphs(g, n):
                E, b = graph.n_edges, first_betti(graph)
                powers = [m for m in itertools.product(range(3), repeat=E) if sum(m) <= 2]
                pairs = itertools.product(sorted(chiodo), repeat=E)
                cases = [
                    ("pixton", powers, 2 * E + 4 + b),
                    ("chiodo", [p for p in pairs if sum(map(sum, p)) <= 1], 2 * E + 2),
                ]
                for k in (-1, 0, 1, 2):
                    dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                    for name, profiles, top in cases:
                        for cap in (1, top):
                            got = tree_profile_weights(graph, dr, profiles, shared[name], cap)
                            terms = dict(shared[name])
                            fresh = tree_profile_weights(graph, dr, profiles, terms, cap)
                            assert got == fresh, (graph, dr, name, cap)
        assert all(memo.weights for memo in shared.values())

    def test_class_weights_contracted_once_per_sum(self, monkeypatch):
        # Each distinct (entry, unit, residue, cap) is contracted once per
        # graph sum, however many of its graphs share it.
        calls = []
        real = weightings._class_weight

        def spy(entry, unit, residue, terms, cap, label):
            calls.append((entry, unit, residue, cap))
            return real(entry, unit, residue, terms, cap, label)

        monkeypatch.setattr(weightings, "_class_weight", spy)
        dr_cycle(DRVector(3, (2, -1, -1)))
        assert len(calls) == len(set(calls)) == 55
        calls.clear()
        chiodo_constant(DRVector(2, (1, -1)), 3)
        assert len(calls) == len(set(calls)) == 38

    def test_half_edge_monomial_single_edge(self):
        # One bridge: the residue at its first half-edge is D mod r, so
        # w^2 is D^2 for D >= 0 and (r + D)^2 below 0.
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        [poly] = route_polys(tree_profile_weights, graph, DRVector(1, (2, 1, -3)), [((2, 0),)])
        [mirror] = route_polys(tree_profile_weights, graph, DRVector(1, (-2, -1, 3)), [((2, 0),)])
        assert {poly, mirror} == {RPoly([F(9)]), RPoly([F(9), F(-6), F(1)])}

    def test_loop_is_class_with_unit(self):
        # A loop's sum over w < r of w^a (r-w)^b is the class of (a, b) and
        # the unit observable at residue 0.
        for a, b in itertools.product(range(7), repeat=2):
            nums, den = weightings._class_at(((0, 0), (a, b)), 0)
            want, want_den = oracle_loop_poly(a, b)
            assert RPoly([F(x, den) for x in nums]) == RPoly([F(x, want_den) for x in want])

    @pytest.mark.parametrize(
        "solve",
        [
            lambda graph, dr, plan: next(weightings._solutions(5, dr, plan)),
            lambda graph, dr, plan: weightings._class_residues(dr, plan),
        ],
        ids=["modular", "integer"],
    )
    def test_root_congruence_failure_raises(self, solve):
        # An excess altered at the root makes the tree solve's values miss
        # the root's target; the check is no assert, so it holds under -O.
        graph = StableGraph([0, 1], [(0, 1)], [0, 0])
        dr = DRVector(1, (1, 1), 1)
        plan = weightings._quotient(graph).plan
        solve(graph, dr, plan)
        with pytest.raises(ArithmeticError, match="root congruence"):
            solve(graph, dr, plan._replace(excess=(plan.excess[0] + 1, *plan.excess[1:])))

    def test_free_residue_gives_none(self):
        profiles = [xp(1, 1, 1)]
        dr = DRVector(1, (1, 1, -2))
        assert tree_profile_weights(TRIANGLE, dr, profiles, identity_terms(profiles), 7) is None

    def test_single_edge(self):
        # One bridge with residue sum D = -3 or 3: x = |D| r - D^2 for r > |D|.
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        for parts in ((2, 1, -3), (-2, -1, 3)):
            [poly] = route_polys(tree_profile_weights, graph, DRVector(1, parts), [xp(2)])
            assert poly == RPoly([F(81), F(-54), F(9)])

    def test_marking_count(self):
        with pytest.raises(ValueError, match="marking count"):
            route_polys(tree_profile_weights, LOOP_G1, DRVector(1, (1, -1)), [xp(1)])


def lowest_terms(fit):
    """Whether ``(nums, den)`` is in lowest terms: ``gcd(den, *nums) == 1``,
    ``den > 0`` and no trailing zero numerator, zero being ``([0], 1)``."""
    nums, den = fit
    if not any(nums):
        return fit == ([0], 1)
    return den > 0 and nums[-1] != 0 and math.gcd(den, *nums) == 1


class TestFormat:
    """The fits and the Newton helper give reduced numerators, and both routes one weights format."""

    def test_routes(self, monkeypatch):
        # Every graph of the degree-2 and degree-3 sums, zero-residue bridges
        # included, so that zero sums and sums with a denominator both occur:
        # every fit the sampled route makes is reduced, both routes give
        # cap + 1 numerators per profile over a positive denominator, and
        # they agree cross-multiplied.
        made = []
        real = weightings.certified_fit

        def spy(*args, **kwargs):
            fits, divisible = real(*args, **kwargs)
            made.extend(fits.values())
            return fits, divisible

        monkeypatch.setattr(weightings, "certified_fit", spy)
        seen = {"zero": 0, "den": 0, "exact": 0}
        for dr, d in [
            (DRVector(2, (1, -1)), 2),
            (DRVector(2, (3, 1), 1), 2),
            (DRVector(1, (2, -1, -1)), 3),
        ]:
            for _, graph, b, *_, profiles in _graph_templates(dr, d):
                cap = 2 * d + b
                sampled = sampled_profile_weights(graph, dr, profiles, _x_powers(d), cap)
                tree = tree_profile_weights(graph, dr, profiles, _x_powers(d), cap)
                for weights, den in filter(None, [sampled, tree]):
                    assert den > 0 and all(len(w) == cap + 1 for w in weights), (graph, dr)
                if tree is not None:
                    assert same_weights(sampled, tree), (graph, dr)
                    seen["exact"] += 1
        for fit in made:
            assert lowest_terms(fit), fit
            seen["zero"] += fit == ([0], 1)
            seen["den"] += fit[1] > 1
        assert all(seen.values()), seen

    def test_unbalanced_exact_is_zero(self):
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        dr = DRVector(1, (2, 1, -2))
        profiles = [xp(1), xp(2)]
        zero = ([[0] * 5] * 2, 1)
        assert profile_weights(graph, dr, profiles, identity_terms(profiles), 4) == zero
        assert sampled_profile_weights(graph, dr, profiles, identity_terms(profiles), 4) == zero

    def test_certified_fit(self):
        # (r^2 + r)/2 has a common factor to cancel, the zero key is
        # ([0], 1), and the linear key lies well below the bound.
        def ev(r):
            return {"half": F(r * r + r, 2), "zero": 0, "linear": 4 * r + 6}

        fits, divisible = certified_fit(ev, degree_bound=4, r_min=3, betti=1)
        assert fits == {"half": ([0, 1, 1], 2), "zero": ([0], 1), "linear": ([6, 4], 1)}
        assert not divisible

    @given(
        st.integers(0, 4),
        st.integers(1, 6),
        st.sampled_from([st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)]).flatmap(
            lambda values: st.lists(values, max_size=5)
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_interpolate_is_the_fit_pair(self, bound, r_min, coeffs):
        # interpolate and certified_fit give one pair, in lowest terms, on
        # the same samples: a polynomial up to the bound, zero among them.
        coeffs = coeffs[: bound + 1]

        def ev(r):
            return {0: sum(c * r**j for j, c in enumerate(coeffs))}

        fits, _ = certified_fit(ev, degree_bound=bound, r_min=r_min)
        fit = interpolate([(r, ev(r)[0]) for r in range(r_min, r_min + bound + 1)])
        assert fit == fits[0]
        assert lowest_terms(fit)
        assert rpoly(fit) == RPoly(coeffs)

    def test_newton_numerators(self):
        # 2 + 4 r + 2 C(r, 2) = r^2 + 3r + 2, over (3 - 1)! = 2 before reducing.
        assert newton_numerators([2, 4, 2], 1, 0) == ([2, 3, 1], 1)
        assert newton_numerators([0, 0, 0], 5, 4) == ([0], 1)
        assert newton_numerators([3, 0, 0, 0], 6, 1) == ([1], 2)

    @given(
        st.integers(-5, 20),
        st.lists(st.fractions(-9, 9, max_denominator=6), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_newton_numerators_reduced(self, x0, values):
        fit = newton_numerators(*forward_differences(values), x0)
        assert lowest_terms(fit)
        assert rpoly(fit) == lagrange_interpolate(list(enumerate(values, x0)))

    def test_sampled_fit_below_its_bound(self):
        # The triangle's bound is 7, from the (2, 2, 2) profile plus b = 1;
        # the w^1 sum has degree 2, and the (0, 0, 0) sum (r) degree 1.  A
        # fit padded with zeros to its window would read as a sum above its
        # degree bound in the sampled route.
        dr = DRVector(1, (0, 0, 0))
        profiles = [((2, 0), (2, 0), (2, 0)), ((1, 0), (0, 0), (0, 0)), ((0, 0),) * 3]
        big, w, unit = route_polys(sampled_profile_weights, TRIANGLE, dr, profiles)
        assert (w, unit) == (RPoly([0, F(-1, 2), F(1, 2)]), RPoly([0, 1]))
        assert big.degree == 7


def rpoly_fit(evaluate, **kwargs):
    """:func:`certified_fit` with its fits as RPolys, as the Lagrange oracle returns them."""
    fits, divisible = certified_fit(evaluate, **kwargs)
    return rpolys(fits), divisible


def run_fit(fit, evaluate, **kwargs):
    """A fit's result (or its error message, which names the failing keys)
    and the moduli evaluated."""
    calls = []

    def counted(r):
        calls.append(r)
        return evaluate(r)

    try:
        outcome = fit(counted, **kwargs)
    except ValueError as exc:
        outcome = str(exc)
    return outcome, calls


def sample_map(r_min, keys):
    """``evaluate`` for fits: each key is a polynomial in ``r`` (low degree
    first) plus spikes at some sample positions, left out at others."""

    def evaluate(r):
        i = r - r_min
        out = {}
        for key, (coeffs, spikes, absent) in keys.items():
            if i not in absent:
                out[key] = sum(c * r**j for j, c in enumerate(coeffs)) + spikes.get(i, 0)
        return out

    return evaluate


@st.composite
def fit_cases(draw):
    bound = draw(st.integers(0, 4))
    n_verify = draw(st.integers(1, 3))
    values = draw(
        st.sampled_from([st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)])
    )
    span = 2 * (bound + 1) + n_verify  # every modulus the doubled window reads
    positions = st.integers(0, span - 1)
    # Up to past the bound, and past the doubled window; key 0 may be spiked
    # at one modulus or left out at some.
    degree = draw(st.integers(0, 2 * bound + 2))
    kind = draw(st.sampled_from(["polynomial", "spike", "absent"]))
    keys = {
        key: (draw(st.lists(values, max_size=degree + 1)), {}, set())
        for key in range(draw(st.integers(1, 3)))
    }
    if kind == "spike":
        keys[0][1][draw(positions)] = draw(values.filter(bool))
    if kind == "absent":
        keys[0][2].update(draw(st.sets(positions, min_size=1, max_size=3)))
    kwargs = dict(
        degree_bound=bound,
        r_min=draw(st.integers(1, 12)),
        n_verify=n_verify,
        betti=draw(st.integers(0, 2)),
        label="oracle case",
    )
    return keys, kwargs


class TestFitOracle:
    """The difference fit against the Lagrange fit with Horner checks."""

    @given(fit_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_lagrange_fit(self, case):
        keys, kwargs = case
        evaluate = sample_map(kwargs["r_min"], keys)
        assert run_fit(rpoly_fit, evaluate, **kwargs) == run_fit(
            oracle_certified_fit, evaluate, **kwargs
        )

    @pytest.mark.parametrize("bound", [0, 1, 3])
    @pytest.mark.parametrize("spike", [1, F(-2, 3)])
    def test_spike_at_every_modulus(self, bound, spike):
        # Each window position, each check modulus and each modulus of the
        # doubled window, on integer and Fraction polynomials of the bound.
        n_verify = 2
        for coeffs in (list(range(1, bound + 2)), [F(1, k) for k in range(1, bound + 2)]):
            for pos in range(2 * (bound + 1) + n_verify):
                keys = {0: (coeffs, {pos: spike}, set()), 1: (coeffs, {}, set())}
                kwargs = dict(degree_bound=bound, r_min=4, n_verify=n_verify, label="spike")
                evaluate = sample_map(4, keys)
                ours = run_fit(rpoly_fit, evaluate, **kwargs)
                assert ours == run_fit(oracle_certified_fit, evaluate, **kwargs)

    def test_fit_above_the_degree_bound(self):
        # A cubic fitted from a bound of 1 fails its first window and fits on
        # the window doubled once.
        fits, _ = certified_fit(lambda r: {0: r**3, 1: F(r, 7)}, degree_bound=1, r_min=3)
        assert rpolys(fits) == {0: RPoly([0, 0, 0, 1]), 1: RPoly([0, F(1, 7)])}
