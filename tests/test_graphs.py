from __future__ import annotations

import itertools
import json
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from drtaut import graphs, pixton
from drtaut.graphs import (
    StableGraph,
    _degenerations,
    automorphism_order,
    canonical_form_decorated,
    canonical_key,
    enumerate_stable_graphs,
    first_betti,
    graph_from_json,
    graph_to_json,
    validate,
)
from drtaut.weightings import DRVector


def relabel(graph: StableGraph, perm: list[int]) -> StableGraph:
    genera = [0] * graph.n_vertices
    for v, gv in enumerate(graph.genera):
        genera[perm[v]] = gv
    edges = [(perm[u], perm[v]) for u, v in graph.edges]
    legs = [perm[v] for v in graph.legs]
    return StableGraph(genera, edges, legs)


def brute_force_aut(graph: StableGraph) -> int:
    """Count half-edge permutations commuting with the gluing involution,
    fixing legs, and inducing a genus-preserving vertex bijection."""
    E2 = 2 * graph.n_edges
    count = 0
    for perm in itertools.permutations(range(E2)):
        sigma = list(perm) + list(range(E2, graph.n_half_edges))
        if any(sigma[h ^ 1] != sigma[h] ^ 1 for h in range(E2)):
            continue
        vmap: dict[int, int] = {}
        ok = True
        for h in range(graph.n_half_edges):
            src = graph.half_edge_vertex(h)
            dst = graph.half_edge_vertex(sigma[h])
            if vmap.setdefault(src, dst) != dst:
                ok = False
                break
        if not ok or len(set(vmap.values())) != len(vmap):
            continue
        if all(graph.genera[v] == graph.genera[w] for v, w in vmap.items()):
            count += 1
    return count


LOOP_G1 = StableGraph([1], [(0, 0)])
TWO_LOOPS = StableGraph([0], [(0, 0), (0, 0)])
BANANA2_G1G1 = StableGraph([1, 1], [(0, 1), (0, 1)])
BANANA3_G0G0 = StableGraph([0, 0], [(0, 1), (0, 1), (0, 1)])
DUMBBELL = StableGraph([0, 0], [(0, 0), (0, 1), (1, 1)])


class TestLayout:
    def test_half_edges(self):
        g = StableGraph([1, 0], [(0, 1), (1, 1)], [1, 1, 0])
        assert g.n_half_edges == 7
        assert g.half_edge_vertex(0) == 0 and g.half_edge_vertex(1) == 1
        assert g.half_edge_vertex(2) == 1 and g.half_edge_vertex(3) == 1
        assert g.leg_half_edge(3) == 6
        assert g.vertex_markings(1) == (1, 2)
        assert g.vertex_degree(1) == 5

    def test_edges_normalized(self):
        g = StableGraph([0, 1], [(1, 0)])
        assert g.edges == ((0, 1),)


class TestValidate:
    def test_ok(self):
        assert validate(StableGraph([1], [(0, 0)], [0]), 2, 1) is None
        assert validate(StableGraph([2], [], []), 2, 0) is None

    def test_structure(self):
        bad = StableGraph([0], [(0, 1)])
        assert validate(bad, 1, 0).startswith("structure")

    def test_leg_count(self):
        g = StableGraph([2], [], [0])
        assert validate(g, 2, 0).startswith("legs")

    def test_connected(self):
        g = StableGraph([1, 1], [(0, 0), (1, 1)])
        assert validate(g, 3, 0).startswith("connected")

    def test_stability(self):
        g = StableGraph([1, 0], [(0, 1)])
        assert validate(g, 1, 0).startswith("stability")

    def test_genus(self):
        g = StableGraph([1], [(0, 0)])
        assert validate(g, 3, 0).startswith("genus")


class TestEnumerate:
    def test_counts_from_contract(self):
        assert len(enumerate_stable_graphs(0, 4)) == 4
        assert len(enumerate_stable_graphs(1, 1)) == 2
        assert len(enumerate_stable_graphs(2, 0)) == 7

    def test_all_validate(self):
        for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (2, 1)]:
            for graph in enumerate_stable_graphs(g, n):
                assert validate(graph, g, n) is None

    def test_max_edges_filters(self):
        all_graphs = enumerate_stable_graphs(2, 0)
        one_edge = enumerate_stable_graphs(2, 0, max_edges=1)
        assert {canonical_key(g) for g in one_edge} == {
            canonical_key(g) for g in all_graphs if g.n_edges <= 1
        }

    def test_deterministic_and_sorted(self):
        a = enumerate_stable_graphs(2, 1)
        b = enumerate_stable_graphs(2, 1)
        assert a == b
        keys = [canonical_key(g) for g in a]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        graphs = enumerate_stable_graphs(2, 1)
        keys = {canonical_key(g) for g in graphs}
        assert len(keys) == len(graphs)


class TestCanonicalKey:
    def test_relabel_invariance_examples(self):
        g = StableGraph([1, 0, 2], [(0, 1), (1, 2), (1, 2)], [1])
        for perm in itertools.permutations(range(3)):
            assert canonical_key(relabel(g, list(perm))) == canonical_key(g)

    def test_distinguishes_leg_placement(self):
        a = StableGraph([1, 1], [(0, 1)], [0, 0])
        b = StableGraph([1, 1], [(0, 1)], [0, 1])
        assert canonical_key(a) != canonical_key(b)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance_random(self, data):
        pool = []
        for g, n in [(1, 2), (2, 0), (0, 5), (2, 1)]:
            pool.extend(enumerate_stable_graphs(g, n))
        graph = data.draw(st.sampled_from(pool))
        perm = data.draw(st.permutations(list(range(graph.n_vertices))))
        assert canonical_key(relabel(graph, list(perm))) == canonical_key(graph)


class TestAutomorphisms:
    def test_known_orders(self):
        assert automorphism_order(StableGraph([2], [])) == 1
        assert automorphism_order(LOOP_G1) == 2
        assert automorphism_order(TWO_LOOPS) == 8
        assert automorphism_order(BANANA2_G1G1) == 4
        assert automorphism_order(BANANA3_G0G0) == 12
        assert automorphism_order(DUMBBELL) == 8

    def test_legs_pin_vertices(self):
        g = StableGraph([1, 1], [(0, 1), (0, 1)], [0])
        assert automorphism_order(g) == 2

    def test_against_brute_force(self):
        cases = [
            LOOP_G1,
            TWO_LOOPS,
            BANANA2_G1G1,
            BANANA3_G0G0,
            DUMBBELL,
            StableGraph([1, 1], [(0, 1), (0, 1)], [0]),
            StableGraph([0, 1], [(0, 0), (0, 1)], [1]),
            StableGraph([1, 1, 1], [(0, 1), (0, 2), (1, 2)]),
        ]
        for graph in cases:
            assert automorphism_order(graph) == brute_force_aut(graph)

    def test_relabel_invariance(self):
        rng = random.Random(7)
        for graph in enumerate_stable_graphs(2, 1):
            perm = list(range(graph.n_vertices))
            rng.shuffle(perm)
            assert automorphism_order(relabel(graph, perm)) == automorphism_order(graph)


class TestTopology:
    def test_first_betti(self):
        assert first_betti(StableGraph([2], [])) == 0
        assert first_betti(TWO_LOOPS) == 2
        assert first_betti(BANANA3_G0G0) == 2
        assert first_betti(DUMBBELL) == 2

    def test_bridges(self):
        assert DUMBBELL.bridges() == {1}
        assert BANANA2_G1G1.bridges() == set()
        assert LOOP_G1.bridges() == set()
        chain = StableGraph([1, 1, 1], [(0, 1), (1, 2)])
        assert chain.bridges() == {0, 1}

    def test_side_markings(self):
        g = StableGraph([0, 1], [(0, 1)], [0, 0, 1])
        assert g.edge_side_markings(0) == (1, 2)
        assert BANANA2_G1G1.edge_side_markings(0) is None


class TestJson:
    def test_round_trip(self):
        for g, n in [(1, 2), (2, 0), (0, 4)]:
            for graph in enumerate_stable_graphs(g, n):
                again = graph_from_json(graph_to_json(graph))
                assert again == graph
                assert canonical_key(again) == canonical_key(graph)

    def test_relabeled_ids(self):
        data = {
            "version": "stablegraph/1",
            "vertices": [
                {"genus": 1, "half_edges": [10, 11]},
                {"genus": 0, "half_edges": [12, 13, 14, 15]},
            ],
            "edges": [[10, 12], [11, 13], [14, 15]],
            "legs": [],
        }
        graph = graph_from_json(data)
        expect = StableGraph([1, 0], [(0, 1), (0, 1), (1, 1)])
        assert canonical_key(graph) == canonical_key(expect)


class TestRecord:
    def test_fields_are_frozen(self):
        g = StableGraph([1, 0], [(1, 0)], [1])
        for name in ("genera", "edges", "legs"):
            with pytest.raises(AttributeError):
                setattr(g, name, ())
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g.genera == (1, 0)

    def test_equality_hash_and_repr(self):
        g = StableGraph([1, 0], [(1, 0)], [1])
        assert g == StableGraph((1, 0), [(0, 1)], (1,))
        assert g != StableGraph([0, 1], [(0, 1)], [1])
        assert g != (g.genera, g.edges, g.legs)
        assert hash(g) == hash(((1, 0), ((0, 1),), (1,)))
        assert repr(g) == "StableGraph(genera=(1, 0), edges=((0, 1),), legs=(1,))"
        assert pickle.loads(pickle.dumps(g)) == g

    def test_enumerated_graphs_equal_rebuilt_ones(self):
        for graph in enumerate_stable_graphs(1, 2):
            again = StableGraph(graph.genera, graph.edges, graph.legs)
            assert again == graph and hash(again) == hash(graph)


# Every stable type with 2g - 2 + n <= 5: (0, 7), (1, 5), (2, 3) and (3, 1) at the top.
ORACLE_TYPES = [(g, n) for g in range(4) for n in range(8) if 0 < 2 * g - 2 + n <= 5]


def contract(graph: StableGraph, edge: tuple[int, int]) -> StableGraph:
    """``graph`` with one copy of ``edge`` contracted: a loop adds a genus, else ``v`` merges into ``u``."""
    u, v = edge
    edges = list(graph.edges)
    edges.remove(edge)
    genera = list(graph.genera)
    if u == v:
        genera[u] += 1
        return StableGraph(genera, edges, graph.legs)
    genera[u] += genera.pop(v)
    new = [u if x == v else x - (x > v) for x in range(graph.n_vertices)]
    return StableGraph(genera, [(new[a], new[b]) for a, b in edges], [new[x] for x in graph.legs])


def top_edges(graph: StableGraph) -> set[tuple[int, int]]:
    """The edges of the largest invariant: loop, multiplicity, sorted end colours (genus, degree, markings)."""

    def colour(v):
        return graph.genera[v], graph.vertex_degree(v), graph.vertex_markings(v)

    invariant = {
        (u, v): (u == v, graph.edges.count((u, v)), tuple(sorted((colour(u), colour(v)))))
        for u, v in graph.edges
    }
    top = max(invariant.values())
    return {edge for edge, value in invariant.items() if value == top}


def shuffled(graph: StableGraph, rng: random.Random) -> StableGraph:
    perm = list(range(graph.n_vertices))
    rng.shuffle(perm)
    return relabel(graph, perm)


# Directed decorated canonical forms: (graph, leg_psi, edge_psi, kappa).
DECORATED_CASES = {
    # Two unmarked genus-0 vertices tie in plain colour; kappa splits them.
    "kappa_splits_tie": (BANANA3_G0G0, (), ((0, 0),) * 3, ((1,), ())),
    "kappa_splits_tie_other_way": (BANANA3_G0G0, (), ((1, 0), (0, 0), (0, 2)), ((), (1, 1))),
    # A tie beside a leg with psi: kappa or the edge psi split the unmarked pair.
    "leg_psi_beside_tie": (
        StableGraph([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [2]),
        (2,),
        ((0, 0), (0, 0), (1, 0), (0, 0)),
        ((), (2,), ()),
    ),
    "edge_psi_splits_tie": (
        StableGraph([0, 0, 0], [(0, 1), (0, 1), (0, 2), (1, 2)], [2]),
        (1,),
        ((0, 1), (0, 0), (0, 0), (0, 3)),
        ((), (), (1,)),
    ),
    # Loops with unequal psi halves, with and without a tie.
    "loop_halves": (StableGraph([0, 1], [(0, 0), (0, 1)], [0]), (1,), ((3, 1), (0, 2)), ((), (1,))),
    "loop_halves_swapped": (StableGraph([0, 1], [(0, 0), (0, 1)], [0]), (1,), ((1, 3), (0, 2)), ((), (1,))),
    "two_loops": (TWO_LOOPS, (), ((2, 0), (1, 3)), ((1,),)),
    "dumbbell_loops": (DUMBBELL, (), ((2, 0), (0, 1), (0, 1)), ((), ())),
    # Parallel edges whose ends the relabelling swaps, psi pairs both ways round.
    "parallel_both_orientations": (
        StableGraph([1, 0], [(0, 1), (0, 1)], [1, 1]),
        (0, 1),
        ((1, 0), (0, 1)),
        ((1,), ()),
    ),
    "parallel_both_orientations_swapped": (
        StableGraph([1, 0], [(0, 1), (0, 1)], [1, 1]),
        (0, 1),
        ((0, 1), (1, 0)),
        ((1,), ()),
    ),
    "parallel_unequal": (BANANA2_G1G1, (), ((2, 0), (0, 1)), ((), (1,))),
}


class TestDecoratedCanonicalForm:
    """Directed decorated canonical forms against the oracle's search."""

    @pytest.mark.parametrize("name", list(DECORATED_CASES))
    def test_matches_oracle(self, name):
        # Each case twice in a row on one graph, then on every relabelling:
        # a graph's terms share its vertex order, and a relabelled graph
        # finds its own.
        graph, leg_psi, edge_psi, kappa = DECORATED_CASES[name]
        want = oracles.canonical_form_decorated(graph, leg_psi, edge_psi, kappa)
        for _ in range(2):
            assert canonical_form_decorated(graph, leg_psi, edge_psi, kappa) == want
        for perm in itertools.permutations(range(graph.n_vertices)):
            other = relabel(graph, list(perm))
            # relabel sorts the edges, so their psi pairs follow them.
            pairs = sorted(
                (tuple(sorted((perm[u], perm[v]))), p if perm[u] <= perm[v] else p[::-1], t)
                for t, ((u, v), p) in enumerate(zip(graph.edges, edge_psi))
            )
            psi = tuple(p for _, p, _ in pairs)
            moved = [()] * graph.n_vertices
            for v, k in enumerate(kappa):
                moved[perm[v]] = k
            got = canonical_form_decorated(other, leg_psi, psi, tuple(moved))
            assert got == oracles.canonical_form_decorated(other, leg_psi, psi, tuple(moved)), perm
            assert got[4] == want[4], perm

    def test_swapped_halves_share_a_key(self):
        for name in ["loop_halves", "parallel_both_orientations"]:
            a = canonical_form_decorated(*DECORATED_CASES[name])
            b = canonical_form_decorated(*DECORATED_CASES[f"{name}_swapped"])
            assert a == b, name

    def test_no_edges_key_holds_a_tuple(self):
        graph = StableGraph([2], [], [0, 0])
        got = canonical_form_decorated(graph, (1, 0), (), ((1,),))
        assert got == oracles.canonical_form_decorated(graph, (1, 0), (), ((1,),))
        assert got[4] == repr(((2,), (), (0, 0), (1, 0), ((1,),))).encode()


class TestAgainstOracles:
    """The graph layer against the search and split of ``tests/oracles.py``."""

    @pytest.mark.parametrize("g, n", ORACLE_TYPES)
    def test_automorphism_order(self, g, n):
        rng = random.Random(f"aut {g} {n}")
        for graph in enumerate_stable_graphs(g, n):
            want = oracles.automorphism_order(graph)
            assert automorphism_order(graph) == want, graph
            assert automorphism_order(shuffled(graph, rng)) == want, graph

    @pytest.mark.parametrize("g, n", ORACLE_TYPES)
    def test_canonical_forms(self, g, n):
        rng = random.Random(f"canonical {g} {n}")
        for graph in enumerate_stable_graphs(g, n):
            other = shuffled(graph, rng)
            assert canonical_key(other) == oracles.canonical_key(other) == canonical_key(graph)
            leg_psi = tuple(rng.randrange(3) for _ in other.legs)
            edge_psi = tuple((rng.randrange(3), rng.randrange(3)) for _ in other.edges)
            kappa = tuple(tuple(sorted(rng.randrange(1, 3) for _ in range(rng.randrange(3)))) for _ in other.genera)
            got = canonical_form_decorated(other, leg_psi, edge_psi, kappa)
            assert got == oracles.canonical_form_decorated(other, leg_psi, edge_psi, kappa), other

    @pytest.mark.parametrize("g, n", [(2, 2), (3, 1), (4, 0)])
    def test_decorations_that_order_vertices(self, g, n):
        # Only unmarked vertices of one genus tie, so leg psi never moves a
        # vertex: it changes neither the relabelled graph nor the edge psi
        # and kappa.  Distinct kappa on every vertex splits every tie, the
        # way the oracle's search over all orders does.
        rng = random.Random(f"ordering decorations {g} {n}")
        for graph in enumerate_stable_graphs(g, n):
            other = shuffled(graph, rng)
            edge_psi = tuple((rng.randrange(3), rng.randrange(3)) for _ in other.edges)
            kappa = tuple((m,) for m in rng.sample(range(1, other.n_vertices + 1), other.n_vertices))
            got = canonical_form_decorated(other, (0,) * n, edge_psi, kappa)
            assert got == oracles.canonical_form_decorated(other, (0,) * n, edge_psi, kappa), other
            leg_psi = tuple(rng.randrange(1, 4) for _ in other.legs)
            moved = canonical_form_decorated(other, leg_psi, edge_psi, kappa)
            assert (moved[0], moved[2], moved[3]) == (got[0], got[2], got[3]), other

    @pytest.mark.parametrize("g, n", ORACLE_TYPES)
    def test_degenerations(self, g, n):
        # The library builds exactly the oracle's children whose new edge
        # tops the invariant, each with that edge, which contracts it back
        # to the parent.
        rng = random.Random(f"degenerations {g} {n}")
        for graph in enumerate_stable_graphs(g, n):
            for parent in (graph, shuffled(graph, rng)):
                children = list(_degenerations(parent))
                got = Counter(child for child, _ in children)
                want = Counter(child for child, edge in oracles.degenerations(parent) if edge in top_edges(child))
                assert got == want, parent
                for child, edge in children:
                    assert edge in top_edges(child), (parent, child)
                    assert canonical_key(contract(child, edge)) == canonical_key(parent), (parent, child)

    @pytest.mark.parametrize("g, n", [(0, 6), (1, 4), (2, 2), (3, 0)])
    def test_graph_to_json(self, g, n):
        for graph in enumerate_stable_graphs(g, n):
            want = {
                "version": "stablegraph/1",
                "vertices": [
                    {
                        "genus": graph.genera[v],
                        "half_edges": [h for h in range(graph.n_half_edges) if graph.half_edge_vertex(h) == v],
                    }
                    for v in range(graph.n_vertices)
                ],
                "edges": [list(graph.edge_half_edges(t)) for t in range(graph.n_edges)],
                "legs": [
                    {"half_edge": graph.leg_half_edge(i + 1), "marking": i + 1}
                    for i in range(graph.n_legs)
                ],
            }
            got = graph_to_json(graph)
            assert json.dumps(got) == json.dumps(want), graph


class TestWalk:
    """The walk by canonical augmentation against the exhaustive walk of ``oracles.walk``."""

    @pytest.mark.parametrize("g, n", [(4, 0), (0, 7), (2, 3), (3, 2), (1, 5)])
    def test_full_walk(self, g, n):
        got = enumerate_stable_graphs(g, n)
        want = oracles.walk(g, n, 3 * g - 3 + n)
        assert got == want
        assert [graph._aut for graph in got] == [graph._aut for graph in want]

    @pytest.mark.parametrize("g, parts", [(3, (2, -1, -1)), (2, (3, -1, -1, -1)), (4, (1, -1))])
    def test_pruned_walk(self, g, parts):
        # Pruned as the DR cycle's sum is, to its cap of g edges.
        key = pixton._zero_sides(DRVector(g, parts), 0)
        got = enumerate_stable_graphs(g, len(parts), g, key)
        want = oracles.walk(g, len(parts), g, key)
        assert got == want
        assert [graph._aut for graph in got] == [graph._aut for graph in want]

    @pytest.mark.parametrize("g, n, classes", [(4, 0, 379), (3, 2, 1355), (2, 3, 555), (0, 7, 2752)])
    def test_keys_about_once_per_class(self, monkeypatch, g, n, classes):
        # oracles.walk, which keys every child, makes 1239, 4802, 1523 and
        # 8597 keys here.
        keyed = []
        real = graphs.canonical_key

        def spy(graph):
            keyed.append(graph)
            return real(graph)

        monkeypatch.setattr(graphs, "canonical_key", spy)
        assert len(graphs._walk(g, n, 3 * g - 3 + n, frozenset())) == classes
        assert len(keyed) <= 1.2 * classes
