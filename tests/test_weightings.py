from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drtaut import weightings
from drtaut.exact import RPoly
from drtaut.graphs import StableGraph, enumerate_stable_graphs, first_betti
from drtaut.weightings import (
    DRVector,
    certified_fit,
    default_r_min,
    edge_profile_sums,
    exact_edge_profiles,
    fit_edge_profiles,
    power_tables,
    sampled_edge_profiles,
)
from drtaut.pixton import _graph_templates, _powers

from oracles import certified_fit as oracle_certified_fit
from oracles import edge_profile_sums as direct_profile_sums
from oracles import enumerate_weightings

F = Fraction

LOOP_G1 = StableGraph([1], [(0, 0)])
TWO_LOOPS = StableGraph([0], [(0, 0), (0, 0)])
BANANA2_G1G1 = StableGraph([1, 1], [(0, 1), (0, 1)])
BANANA3_G0G1 = StableGraph([0, 1], [(0, 1), (0, 1), (0, 1)])
# The simple quotient of a triangle is a cycle: one free residue.
TRIANGLE = StableGraph([0, 0, 0], [(0, 1), (0, 2), (1, 2)], [0, 1, 2])


def xp(*powers):
    """Pixton's edge powers ``x^p`` as the half-edge observables ``(p, p)``."""
    return tuple((p, p) for p in powers)


def rpoly(fit):
    """A fit of :func:`fit_edge_profiles`, numerators over a denominator, as an RPoly."""
    nums, den = fit
    return RPoly([F(x, den) for x in nums])


def divisible_fit(fit, b):
    """Whether ``r^b`` divides a fit of :func:`fit_edge_profiles`."""
    return not any(fit[0][:b])


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
    """``sum_w prod_e T_e[w(2t)]`` over the brute-force weightings, ``None`` being 1."""
    return sum(
        math.prod(table[values[2 * t]] for t, table in enumerate(tables) if table is not None)
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
                tables = [None, [w * w + 1 for w in range(r)], [w**3 + 2 * w + 3 for w in range(r)]]
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
            edge_profile_sums(graph, r, DRVector(genus, parts), [(None,)])
        if r > 0:
            with pytest.raises(ValueError, match=message):
                exact_edge_profiles(graph, DRVector(genus, parts), [xp(1)])


def balanced_parts(g, n, k):
    """Parts summing to ``k (2g - 2 + n)``; for ``n = 0`` only ``k = 0`` balances."""
    rest = [1, -1, 2, 0, -2][: max(n - 1, 0)]
    return tuple([k * (2 * g - 2 + n) - sum(rest)] + rest) if n else ()


class TestQuotient:
    """The quotient sum against the direct per-weighting sum on the unreduced graph."""

    TYPES = [(2, 0), (2, 1), (3, 0), (1, 2), (2, 2), (0, 5)]

    @staticmethod
    def table_pool(r):
        # None, shared power tables, tables not symmetric under w <-> r - w,
        # and Fraction tables.
        x1, x2 = power_tables(r, [xp(1, 2)])[0]
        return [
            None,
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
        fit_edge_profiles(TRIANGLE, DRVector(1, (0, 0, 0)), [xp(1, 1, 1), xp(2, 0, 1)])
        fit_edge_profiles(TRIANGLE, DRVector(1, (0, 0, 0)), [xp(1, 2, 0)])
        assert len(seen) > 10
        assert built == [TRIANGLE]


class TestFitting:
    def test_loop_fit(self):
        [fit] = fit_edge_profiles(LOOP_G1, DRVector(2, ()), [xp(1)])
        assert rpoly(fit) == RPoly([F(0), F(-1, 6), F(0), F(1, 6)])
        assert divisible_fit(fit, 1)
        assert rpoly(fit).shift_down(1).constant_term == F(-1, 6)

    def test_two_loop_fit(self):
        [fit] = fit_edge_profiles(TWO_LOOPS, DRVector(2, ()), [xp(1, 1)])
        assert divisible_fit(fit, 2)
        assert rpoly(fit).shift_down(2).constant_term == F(1, 36)

    def test_quartic_loop_moment(self):
        [fit] = fit_edge_profiles(LOOP_G1, DRVector(2, ()), [xp(2)])
        assert divisible_fit(fit, 1)
        # sum_w (w(r-w))^2 = r^5/30 - r^3/6*... : its r-linear part is B_4.
        assert rpoly(fit).shift_down(1).constant_term == F(-1, 30)

    def test_nonzero_parts_fit(self):
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        dr = DRVector(1, (2, 1, -3))
        [fit] = fit_edge_profiles(graph, dr, [xp(1)])
        # Bridge weight is the side sum 3, so x = 3 (r - 3) for large r.
        assert divisible_fit(fit, 0)  # betti 0: trivially divisible
        assert rpoly(fit) == RPoly([F(-9), F(3)])

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
        fits = fit_edge_profiles(TRIANGLE, dr, [xp(1, 0, 0), xp(1, 1, 0)])
        start = default_r_min(dr)
        assert seen == list(range(start, start + 8))
        assert [rpoly(fit).shift_down(1).constant_term for fit in fits] == [F(-1, 6), F(-1, 30)]

    def test_tree_quotient_samples_nothing(self, monkeypatch):
        dr = DRVector(3, ())
        profiles = [xp(1, 1, 1), xp(2, 0, 1), xp(0, 0, 0)]
        sampled = sampled_edge_profiles(BANANA3_G0G1, dr, profiles)

        def forbidden(*args, **kwargs):
            raise AssertionError("a tree quotient was sampled")

        monkeypatch.setattr(weightings, "edge_profile_sums", forbidden)
        monkeypatch.setattr(weightings, "certified_fit", forbidden)
        fits = fit_edge_profiles(BANANA3_G0G1, dr, profiles)
        assert [rpoly(fit) for fit in fits] == sampled
        assert all(divisible_fit(fit, 2) for fit in fits)

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
        assert fits == {0: RPoly([F(0), F(0), F(0), F(1)])}

    def test_absent_key_is_zero(self):
        # (r - 6)(r - 7) is left out where it vanishes, at r = 6 and 7 of
        # the window 5..7, as classes drop zero terms; it still fits.
        def ev(r):
            out = {"r": F(r)}
            if (r - 6) * (r - 7):
                out["q"] = F((r - 6) * (r - 7))
            return out

        fits, divisible = certified_fit(ev, degree_bound=2, r_min=5)
        assert fits == {"q": RPoly([F(42), F(-13), F(1)]), "r": RPoly([F(0), F(1)])}
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
        assert fits == {0: RPoly([F(0), F(-1, 6), F(0), F(1, 6)])}
        assert seen == list(range(11, 18))


class TestExactProfiles:
    """Exact polynomials on tree quotients against the sampled fits."""

    TYPES = [(2, 2), (3, 0), (3, 1), (1, 4)]

    def test_matches_sampled_fit(self):
        # The profiles pixton asks for in degrees up to 3, and every profile
        # of exponents up to 2 with a 0 among them.  With n = 0 only k = 0
        # balances; the unbalanced data has no weightings at any sampled r.
        checked = {"classes": 0, "negative": 0}
        for g, n in self.TYPES:
            for k in (-1, 0, 1, 2):
                dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                asked: dict = {}
                for d in range(4):
                    for _, graph, *_, profiles in _graph_templates(dr, d):
                        asked.setdefault(graph, set()).update(_powers(profiles))
                for graph in enumerate_stable_graphs(g, n, max_edges=3):
                    quotient = weightings._quotient(graph)
                    if quotient.plan.free:
                        continue
                    profiles = asked.get(graph, set()) | {
                        xp(*p) for p in itertools.product(range(3), repeat=graph.n_edges) if 0 in p
                    }
                    profiles = sorted(profiles)
                    exact = exact_edge_profiles(graph, dr, profiles)
                    assert exact == sampled_edge_profiles(graph, dr, profiles), (graph, dr)
                    if dr.is_exact:
                        residues = weightings._class_residues(dr, quotient.plan)
                        checked["negative"] += any(D < 0 for D in residues)
                        checked["classes"] += any(len(ts) > 1 for ts in quotient.classes)
        assert checked["negative"] and checked["classes"]

    def test_half_edge_monomials_match_sampled_fit(self):
        # Chiodo's observables w^q, (q, 0), with every q_e in 0..3; unlike
        # x^p they are not symmetric under w <-> r - w, so a residue read
        # at the wrong end of an edge or class shows.
        checked = {"classes": 0, "loops": 0, "negative": 0}
        for g, n in self.TYPES:
            for k in (-1, 0, 1, 2):
                dr = DRVector(g, balanced_parts(g, n, k), twist=k)
                for graph in enumerate_stable_graphs(g, n, max_edges=3):
                    quotient = weightings._quotient(graph)
                    if quotient.plan.free:
                        continue
                    profiles = [
                        tuple((q, 0) for q in qs)
                        for qs in itertools.product(range(4), repeat=graph.n_edges)
                    ]
                    exact = exact_edge_profiles(graph, dr, profiles)
                    assert exact == sampled_edge_profiles(graph, dr, profiles), (graph, dr)
                    if dr.is_exact:
                        residues = weightings._class_residues(dr, quotient.plan)
                        checked["negative"] += any(D < 0 for D in residues)
                        checked["classes"] += any(len(ts) > 1 for ts in quotient.classes)
                        checked["loops"] += bool(quotient.loops)
        assert all(checked.values()), checked

    def test_half_edge_monomial_single_edge(self):
        # One bridge: the residue at its first half-edge is D mod r, so
        # w^2 is D^2 for D >= 0 and (r + D)^2 below 0.
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        [poly] = exact_edge_profiles(graph, DRVector(1, (2, 1, -3)), [((2, 0),)])
        [mirror] = exact_edge_profiles(graph, DRVector(1, (-2, -1, 3)), [((2, 0),)])
        assert {poly, mirror} == {RPoly([F(9)]), RPoly([F(9), F(-6), F(1)])}

    def test_free_residue_gives_none(self):
        assert exact_edge_profiles(TRIANGLE, DRVector(1, (1, 1, -2)), [xp(1, 1, 1)]) is None

    def test_single_edge(self):
        # One bridge with residue sum D = -3 or 3: x = |D| r - D^2 for r > |D|.
        graph = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        for parts in ((2, 1, -3), (-2, -1, 3)):
            [poly] = exact_edge_profiles(graph, DRVector(1, parts), [xp(2)])
            assert poly == RPoly([F(81), F(-54), F(9)])

    def test_marking_count(self):
        with pytest.raises(ValueError, match="marking count"):
            exact_edge_profiles(LOOP_G1, DRVector(1, (1, -1)), [xp(1)])


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
        assert run_fit(certified_fit, evaluate, **kwargs) == run_fit(
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
                ours = run_fit(certified_fit, evaluate, **kwargs)
                assert ours == run_fit(oracle_certified_fit, evaluate, **kwargs)

    def test_no_polynomial_evaluated(self, monkeypatch):
        def forbidden(self, r):
            raise AssertionError("an RPoly was evaluated")

        monkeypatch.setattr(RPoly, "__call__", forbidden)
        fits, _ = certified_fit(lambda r: {0: r**3, 1: F(r, 7)}, degree_bound=1, r_min=3)
        assert fits == {0: RPoly([0, 0, 0, 1]), 1: RPoly([0, F(1, 7)])}
