"""Stable-graph enumeration against independent oracles.

``scan_stable_graphs`` is the original enumerator, kept as a reference: it
scans every labelled graph (edge shape, genus composition, leg placement)
in lexicographic order and keeps the first labelling of each isomorphism
class.  The library enumerates by degeneration and must return the same
tuple, representatives and order included.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from drtaut.graphs import StableGraph, canonical_key, enumerate_stable_graphs, validate


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _connected_shape(V: int, shape: tuple[tuple[int, int], ...]) -> bool:
    if V == 1:
        return True
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in shape:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(V)}) == 1


def scan_stable_graphs(g: int, n: int, max_edges: int | None = None) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type ``(g, n)``.

    ``max_edges`` caps the edge count; by default all graphs appear, up to
    the dimension bound ``3g - 3 + n`` edges.  The result is deterministic,
    sorted by canonical key.  Examples: ``(0, 4)`` has 4 graphs with at most
    one edge, ``(1, 1)`` has 2, ``(2, 0)`` has 7.
    """
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"no stable curves of type (g, n) = ({g}, {n})")
    cap = 3 * g - 3 + n
    if max_edges is not None:
        cap = min(cap, max_edges)
    found: dict[bytes, StableGraph] = {}
    for E in range(cap + 1):
        for V in range(1, E + 2):
            b = E - V + 1
            if b < 0 or b > g:
                continue
            gsum = g - b
            pairs = [(u, v) for u in range(V) for v in range(u, V)]
            for shape in itertools.combinations_with_replacement(pairs, E):
                if not _connected_shape(V, shape):
                    continue
                degrees = [0] * V
                for u, v in shape:
                    degrees[u] += 1
                    degrees[v] += 1
                for genera in _compositions(gsum, V):
                    for legs in itertools.product(range(V), repeat=n):
                        stable = True
                        for v in range(V):
                            deg = degrees[v] + sum(1 for w in legs if w == v)
                            if 2 * genera[v] - 2 + deg <= 0:
                                stable = False
                                break
                        if not stable:
                            continue
                        graph = StableGraph(genera, shape, legs)
                        key = canonical_key(graph)
                        if key not in found:
                            found[key] = graph
    return tuple(found[k] for k in sorted(found))


@pytest.mark.parametrize(
    "g, n",
    [(0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)],
)
def test_matches_scan_oracle(g, n):
    assert enumerate_stable_graphs(g, n, 4) == scan_stable_graphs(g, n, 4)


@pytest.mark.parametrize(
    "g, n, count",
    [(2, 0, 7), (3, 0, 42), (4, 0, 379), (0, 4, 4), (0, 5, 26), (0, 6, 236), (0, 7, 2752)],
)
def test_literature_counts(g, n, count):
    graphs = enumerate_stable_graphs(g, n)
    assert len(graphs) == count
    assert all(validate(graph, g, n) is None for graph in graphs)


@pytest.mark.parametrize("g, n", [(1, 0), (0, 2), (-1, 5), (2, -1)])
def test_unstable_type_rejected(g, n):
    with pytest.raises(ValueError, match="stable"):
        enumerate_stable_graphs(g, n)


@pytest.mark.parametrize("g, n", [(2, 2), (3, 0), (0, 6), (1, 4), (2, 1)])
def test_topology_matches_union_find(g, n):
    # Edge t = (u, v) is a bridge when the other edges leave the graph
    # disconnected; then the leg at w is on u's side exactly when an edge
    # (w, v) would join the two sides.
    for graph in enumerate_stable_graphs(g, n):
        V = graph.n_vertices
        assert graph.is_connected()
        bridges = set()
        for t, (u, v) in enumerate(graph.edges):
            rest = graph.edges[:t] + graph.edges[t + 1 :]
            cut = StableGraph(graph.genera, rest, graph.legs)
            assert cut.is_connected() == _connected_shape(V, rest)
            if _connected_shape(V, rest):
                assert graph.edge_side_markings(t) is None
                continue
            bridges.add(t)
            side = tuple(
                i + 1 for i, w in enumerate(graph.legs) if _connected_shape(V, rest + ((w, v),))
            )
            assert graph.edge_side_markings(t) == side
        assert graph.bridges() == bridges


def test_negative_edge_cap_rejected():
    with pytest.raises(ValueError, match="edge cap"):
        enumerate_stable_graphs(2, 0, -1)


def test_enumeration_is_cached():
    # Repeated graph sums over one type reuse the cached enumeration.
    assert enumerate_stable_graphs(2, 1, 2) is enumerate_stable_graphs(2, 1, 2)
