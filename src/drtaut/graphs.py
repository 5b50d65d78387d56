"""Stable graphs: construction, validation, canonical form, enumeration.

A stable graph of type ``(g, n)`` records the combinatorics of a nodal
curve: vertices carry genera, edges are unordered pairs of half-edges glued
at nodes, and ``n`` numbered legs mark the vertices.  The class below keeps
a normalized presentation:

* ``genera[v]`` is the genus of vertex ``v``;
* ``edges`` is a sorted tuple of vertex pairs ``(u, v)`` with ``u <= v``,
  one entry per edge (loops as ``(v, v)``, parallel edges repeated);
* ``legs[i]`` is the vertex carrying marking ``i + 1``.

Half-edges are indexed deterministically from this data: edge ``t`` owns
half-edges ``2t`` (at ``edges[t][0]``) and ``2t + 1`` (at ``edges[t][1]``),
and marking ``i + 1`` is half-edge ``2 * n_edges + i``.  All decorated
bookkeeping elsewhere in the package refers to these indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

__all__ = [
    "StableGraph",
    "validate",
    "canonical_key",
    "canonical_form_decorated",
    "automorphism_order",
    "first_betti",
    "require_stable_type",
    "enumerate_stable_graphs",
    "graph_to_json",
    "graph_from_json",
]


@dataclass(frozen=True)
class StableGraph:
    genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]

    def __init__(self, genera: Sequence[int], edges: Sequence[Sequence[int]], legs: Sequence[int] = ()):
        norm_edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        object.__setattr__(self, "genera", tuple(int(x) for x in genera))
        object.__setattr__(self, "edges", norm_edges)
        object.__setattr__(self, "legs", tuple(int(v) for v in legs))

    # -- basic counts -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @property
    def n_half_edges(self) -> int:
        """Total half-edge count, legs included."""
        return 2 * self.n_edges + self.n_legs

    # -- half-edge layout ---------------------------------------------

    def half_edge_vertex(self, h: int) -> int:
        """Vertex carrying half-edge ``h``."""
        if h < 2 * self.n_edges:
            return self.edges[h // 2][h % 2]
        return self.legs[h - 2 * self.n_edges]

    def involution(self, h: int) -> int:
        """The partner half-edge at the same node; legs are fixed points."""
        if h < 2 * self.n_edges:
            return h ^ 1
        return h

    def is_leg(self, h: int) -> bool:
        return h >= 2 * self.n_edges

    def marking_of(self, h: int) -> int:
        """Marking number (1-based) of a leg half-edge."""
        if not self.is_leg(h):
            raise ValueError(f"half-edge {h} is not a leg")
        return h - 2 * self.n_edges + 1

    def leg_half_edge(self, marking: int) -> int:
        return 2 * self.n_edges + marking - 1

    def edge_half_edges(self, t: int) -> tuple[int, int]:
        return 2 * t, 2 * t + 1

    def vertex_half_edges(self, v: int) -> tuple[int, ...]:
        return tuple(h for h in range(self.n_half_edges) if self.half_edge_vertex(h) == v)

    def vertex_markings(self, v: int) -> tuple[int, ...]:
        return tuple(i + 1 for i, w in enumerate(self.legs) if w == v)

    def vertex_degree(self, v: int) -> int:
        """Number of half-edges (legs included) at vertex ``v``."""
        deg = sum(1 for u, w in self.edges for x in (u, w) if x == v)
        return deg + sum(1 for w in self.legs if w == v)

    # -- topology -----------------------------------------------------

    @property
    def total_genus(self) -> int:
        return sum(self.genera) + first_betti(self)

    def _reachable(self, u: int, t: int | None = None) -> set[int]:
        """Vertices reachable from ``u`` along edges other than edge ``t``."""
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for s, (a, b) in enumerate(self.edges):
                if s != t and x in (a, b):
                    y = b if x == a else a
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return seen

    def is_connected(self) -> bool:
        return self.n_vertices > 0 and len(self._reachable(0)) == self.n_vertices

    def bridges(self) -> set[int]:
        """Indices of edges whose removal disconnects the graph.

        Loops and parallel edges are never bridges.
        """
        return {t for t, (u, v) in enumerate(self.edges) if v not in self._reachable(u, t)}

    def edge_side_markings(self, t: int) -> tuple[int, ...] | None:
        """Markings on the ``edges[t][0]`` side of a bridge, else ``None``."""
        u, v = self.edges[t]
        side = self._reachable(u, t)
        if v in side:
            return None
        return tuple(i + 1 for i, w in enumerate(self.legs) if w in side)

    # -- canonical form -----------------------------------------------

    def canonical_key(self) -> bytes:
        return canonical_key(self)

    def __lt__(self, other: "StableGraph") -> bool:
        return self.canonical_key() < other.canonical_key()


def first_betti(graph: StableGraph) -> int:
    """First Betti number ``#edges - #vertices + 1`` of a connected graph."""
    return graph.n_edges - graph.n_vertices + 1


def validate(graph: StableGraph, g: int, n: int) -> str | None:
    """Check a graph against ambient ``(g, n)``.

    Returns ``None`` when everything holds, otherwise the name of the first
    violated condition followed by a short reason.  Conditions, in order:
    ``structure`` (indices in range), ``legs`` (marking count), ``connected``,
    ``stability`` (every vertex has ``2g_v - 2 + deg_v > 0``), ``genus``
    (vertex genera plus loop count add to ``g``).
    """
    V = graph.n_vertices
    if V == 0:
        return "structure: graph has no vertices"
    for u, v in graph.edges:
        if not (0 <= u < V and 0 <= v < V):
            return f"structure: edge endpoint ({u}, {v}) out of range"
    for i, v in enumerate(graph.legs):
        if not (0 <= v < V):
            return f"structure: leg {i + 1} attached to missing vertex {v}"
    if any(gv < 0 for gv in graph.genera):
        return "structure: negative vertex genus"
    if graph.n_legs != n:
        return f"legs: expected {n} markings, found {graph.n_legs}"
    if not graph.is_connected():
        return "connected: graph is not connected"
    for v in range(V):
        if 2 * graph.genera[v] - 2 + graph.vertex_degree(v) <= 0:
            return f"stability: vertex {v} has 2g - 2 + deg <= 0"
    if graph.total_genus != g:
        return f"genus: vertex genera and loops add to {graph.total_genus}, expected {g}"
    return None


# -- canonical relabeling ---------------------------------------------
#
# The canonical form minimizes the edge encoding over all vertex orders
# compatible with the vertex invariants.  Decorations ride along: a vertex
# color bundles genus, markings with their psi exponents, and the kappa
# multiset; every edge record carries the psi exponents of its two halves.


def _canonical_data(
    genera: tuple[int, ...],
    edges: tuple[tuple[int, int], ...],
    legs: tuple[int, ...],
    leg_psi: tuple[int, ...],
    edge_psi: tuple[tuple[int, int], ...],
    kappa: tuple[tuple[int, ...], ...],
):
    V = len(genera)
    colors = []
    for v in range(V):
        marks = tuple(
            (i + 1, leg_psi[i]) for i, w in enumerate(legs) if w == v
        )
        colors.append((genera[v], marks, kappa[v]))

    order = sorted(range(V), key=lambda v: colors[v])
    blocks: list[list[int]] = []
    for v in order:
        if blocks and colors[blocks[-1][0]] == colors[v]:
            blocks[-1].append(v)
        else:
            blocks.append([v])

    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = [0] * V
        slot = 0
        for block in perms:
            for v in block:
                pos[v] = slot
                slot += 1
        records = []
        for t, (u, v) in enumerate(edges):
            pu, pv = edge_psi[t]
            nu, nv = pos[u], pos[v]
            if nu < nv:
                rec = (nu, nv, pu, pv)
            elif nu > nv:
                rec = (nv, nu, pv, pu)
            else:
                lo, hi = sorted((pu, pv))
                rec = (nu, nv, lo, hi)
            records.append(rec)
        cand = tuple(sorted(records))
        if best is None or cand < best[0]:
            best = (cand, tuple(pos))

    records, pos = best
    inv = [0] * V
    for old, new in enumerate(pos):
        inv[new] = old
    new_genera = tuple(genera[inv[p]] for p in range(V))
    new_kappa = tuple(kappa[inv[p]] for p in range(V))
    new_legs = tuple(pos[v] for v in legs)
    return new_genera, records, new_legs, leg_psi, new_kappa


def canonical_key(graph: StableGraph) -> bytes:
    """Deterministic byte string identifying the isomorphism class."""
    zero_pairs = tuple((0, 0) for _ in graph.edges)
    zero_legs = tuple(0 for _ in graph.legs)
    kappa = tuple(() for _ in graph.genera)
    data = _canonical_data(graph.genera, graph.edges, graph.legs, zero_legs, zero_pairs, kappa)
    g2, records, legs2, _, _ = data
    plain = tuple((a, b) for a, b, _, _ in records)
    return repr((g2, plain, legs2)).encode()


def canonical_form_decorated(
    graph: StableGraph,
    leg_psi: tuple[int, ...],
    edge_psi: tuple[tuple[int, int], ...],
    kappa: tuple[tuple[int, ...], ...],
):
    """Relabel a decorated graph into canonical form.

    ``leg_psi[i]`` is the psi exponent on marking ``i + 1``; ``edge_psi[t]``
    the exponents on the two halves of edge ``t`` in layout order; ``kappa[v]``
    a sorted tuple of kappa indices at vertex ``v``.  Returns the relabeled
    ``(graph, leg_psi, edge_psi, kappa, key)`` with decorations re-expressed
    in the new graph's layout.
    """
    kappa = tuple(tuple(sorted(k)) for k in kappa)
    new_genera, records, new_legs, new_leg_psi, new_kappa = _canonical_data(
        graph.genera, graph.edges, graph.legs, leg_psi, edge_psi, kappa
    )
    pairs = [(a, b) for a, b, _, _ in records]
    new_graph = StableGraph(new_genera, pairs, new_legs)
    # StableGraph sorts its edge list; records are already sorted with the
    # same comparison on the leading pair, and equal pairs stay grouped, so
    # psi pairs can be read off in order.  Within a group of parallel edges
    # the records themselves are sorted, fixing the order of psi pairs.
    new_edge_psi = tuple((pu, pv) for _, _, pu, pv in records)
    key = repr((new_genera, records, new_legs, new_leg_psi, new_kappa)).encode()
    return new_graph, new_leg_psi, new_edge_psi, new_kappa, key


def automorphism_order(graph: StableGraph) -> int:
    """Order of the automorphism group of the stable graph.

    Counts pairs of compatible vertex and half-edge permutations fixing the
    genera and every leg: each adjacency-preserving vertex symmetry lifts in
    ``prod_e m_e!`` ways over parallel classes, times ``2`` per loop.
    """
    V = graph.n_vertices
    mult: dict[tuple[int, int], int] = {}
    for u, v in graph.edges:
        mult[(u, v)] = mult.get((u, v), 0) + 1

    colors = [
        (graph.genera[v], graph.vertex_markings(v)) for v in range(V)
    ]
    blocks: dict[tuple, list[int]] = {}
    for v in range(V):
        blocks.setdefault(colors[v], []).append(v)

    def adjacency_ok(pos: dict[int, int]) -> bool:
        for (u, v), m in mult.items():
            nu, nv = pos[u], pos[v]
            if nu > nv:
                nu, nv = nv, nu
            if mult.get((nu, nv), 0) != m:
                return False
        return True

    n_perm = 0
    items = sorted(blocks.values())
    for perms in itertools.product(*(itertools.permutations(b) for b in items)):
        pos: dict[int, int] = {}
        for block, image in zip(items, perms):
            for v, w in zip(block, image):
                pos[v] = w
        if adjacency_ok(pos):
            n_perm += 1

    lifts = 1
    for (u, v), m in mult.items():
        lifts *= factorial(m)
        if u == v:
            lifts *= 2 ** m
    return n_perm * lifts


# -- enumeration ------------------------------------------------------


def _degenerations(graph: StableGraph) -> Iterator[StableGraph]:
    """Stable graphs with one edge more that contract back to ``graph``.

    Either a vertex of positive genus trades one genus for a new loop, or
    a vertex ``v`` splits into ``v`` and a new last vertex ``w`` joined by
    a new edge.  A split distributes the genus of ``v``, its legs, its
    edges to each neighbour (by count, as parallel edges are
    interchangeable) and its loops, each of which stays at ``v``, opens
    into an edge ``v - w`` or moves to ``w``; both sides must stay stable.
    Of two splits that are mirror images under swapping ``v`` and ``w``
    only one is produced.
    """
    w = graph.n_vertices
    for v, gv in enumerate(graph.genera):
        if gv > 0:
            genera = graph.genera[:v] + (gv - 1,) + graph.genera[v + 1 :]
            yield StableGraph(genera, graph.edges + ((v, v),), graph.legs)

        rest: list[tuple[int, int]] = []
        nbr: dict[int, int] = {}
        loops = 0
        for a, b in graph.edges:
            if a == b == v:
                loops += 1
            elif v in (a, b):
                u = b if a == v else a
                nbr[u] = nbr.get(u, 0) + 1
            else:
                rest.append((a, b))
        others = sorted(nbr)
        marks = [i for i, x in enumerate(graph.legs) if x == v]
        # (kept at v, opened into v - w, moved to w)
        loop_splits = [(k, loops - k - m, m) for k in range(loops + 1) for m in range(loops - k + 1)]
        non_loop = sum(nbr.values()) + len(marks)

        # ``split`` holds the edges to each neighbour moved to ``w``, then
        # a 1 for each leg moved to ``w``.
        for gw, (kept, opened, moved), *split in itertools.product(
            range(gv + 1),
            loop_splits,
            *(range(nbr[u] + 1) for u in others),
            *([(0, 1)] * len(marks)),
        ):
            side_w = (gw, moved, *split)
            side_v = (
                gv - gw,
                kept,
                *(nbr[u] - k for u, k in zip(others, split)),
                *(1 - bit for bit in split[len(others) :]),
            )
            if side_w > side_v:
                continue
            to_w = sum(split)
            if 2 * gw - 1 + 2 * moved + opened + to_w <= 0:
                continue
            if 2 * (gv - gw) - 1 + 2 * kept + opened + non_loop - to_w <= 0:
                continue
            edges = rest + [(v, v)] * kept + [(v, w)] * (opened + 1) + [(w, w)] * moved
            for u, k in zip(others, split):
                edges += [(u, v)] * (nbr[u] - k) + [(u, w)] * k
            legs = list(graph.legs)
            for i, bit in zip(marks, split[len(others) :]):
                if bit:
                    legs[i] = w
            genera = graph.genera[:v] + (gv - gw,) + graph.genera[v + 1 :] + (gw,)
            yield StableGraph(genera, edges, legs)


def _least_labelling(graph: StableGraph) -> StableGraph:
    """The relabeling of ``graph`` with the least ``(edges, genera, legs)``.

    Tuples compare lexicographically over all vertex permutations.  This
    fixes the representative of each isomorphism class independently of
    the route that found it, so serialized output stays byte-identical.
    """
    V = graph.n_vertices
    best = None
    for perm in itertools.permutations(range(V)):
        edges = tuple(
            sorted((perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u]) for u, v in graph.edges)
        )
        if best is not None and edges > best[0]:
            continue
        genera = [0] * V
        for v, gv in enumerate(graph.genera):
            genera[perm[v]] = gv
        cand = (edges, tuple(genera), tuple(perm[v] for v in graph.legs))
        if best is None or cand < best:
            best = cand
    edges, genera, legs = best
    return StableGraph(genera, edges, legs)


def require_stable_type(g: int, n: int) -> None:
    """Raise ``ValueError`` when ``(g, n)`` is no type of stable curves."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"no stable curves of type (g, n) = ({g}, {n})")


@lru_cache(maxsize=None)
def enumerate_stable_graphs(g: int, n: int, max_edges: int | None = None) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type ``(g, n)``.

    ``max_edges`` caps the edge count and must be non-negative; by default
    all graphs appear, up to the dimension bound ``3g - 3 + n`` edges.

    Graphs are generated by degeneration, one edge level at a time, from
    the one-vertex graph: every graph with ``E`` edges arises from one
    with ``E - 1`` edges by adding a loop at a vertex of positive genus or
    by splitting a vertex in two, because contracting any edge of a stable
    graph leaves a stable graph.  Each level is deduplicated by canonical
    key.

    The result is deterministic and sorted by canonical key.  Each class
    is represented by its labelling with the lexicographically least
    ``(edges, genera, legs)`` (see ``_least_labelling``).  Examples:
    ``(0, 4)`` has 4 graphs with at most one edge, ``(1, 1)`` has 2,
    ``(2, 0)`` has 7.
    """
    require_stable_type(g, n)
    if max_edges is not None and max_edges < 0:
        raise ValueError(f"edge cap max_edges must be non-negative, got {max_edges}")
    cap = 3 * g - 3 + n
    if max_edges is not None:
        cap = min(cap, max_edges)
    level = [StableGraph((g,), (), (0,) * n)]
    found = {canonical_key(graph): graph for graph in level}
    for _ in range(cap):
        children = dict.fromkeys(child for graph in level for child in _degenerations(graph))
        level = []
        for child in children:
            key = canonical_key(child)
            if key not in found:
                found[key] = child
                level.append(child)
    return tuple(_least_labelling(found[key]) for key in sorted(found))


# -- serialization ----------------------------------------------------

SCHEMA_GRAPH = "stablegraph/1"


def graph_to_json(graph: StableGraph) -> dict:
    """Plain-dict form of a graph, stable under round-trip."""
    return {
        "version": SCHEMA_GRAPH,
        "vertices": [
            {"genus": graph.genera[v], "half_edges": list(graph.vertex_half_edges(v))}
            for v in range(graph.n_vertices)
        ],
        "edges": [list(graph.edge_half_edges(t)) for t in range(graph.n_edges)],
        "legs": [
            {"half_edge": graph.leg_half_edge(i + 1), "marking": i + 1}
            for i in range(graph.n_legs)
        ],
    }


def _json_value(value, kind: type, field: str):
    """``value`` if of JSON type ``kind`` (a bool is no int); else ValueError naming ``field``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{field}: expected {kind.__name__}, got {value!r}")
    return value


def graph_from_json(data: dict) -> StableGraph:
    """Rebuild a graph from its dict form (any consistent half-edge ids)."""
    if not isinstance(data, dict):
        raise ValueError("graph: expected a JSON object")
    if data.get("version") != SCHEMA_GRAPH:
        raise ValueError(f"unsupported graph schema: {data.get('version')!r}")
    for key in ("vertices", "edges", "legs"):
        if key not in data:
            raise ValueError(f"graph: missing field {key!r}")
    owner: dict[int, int] = {}
    genera = []
    for v, rec in enumerate(_json_value(data["vertices"], list, "vertices")):
        _json_value(rec, dict, "vertices")
        genera.append(_json_value(rec.get("genus"), int, "genus"))
        for h in _json_value(rec.get("half_edges"), list, "half_edges"):
            if _json_value(h, int, "half_edges") in owner:
                raise ValueError(f"half-edge {h} listed twice")
            owner[h] = v

    used: set[int] = set()

    def vertex_of(h, field: str) -> int:
        if _json_value(h, int, field) not in owner:
            raise ValueError(f"{field}: half-edge {h} is not listed at any vertex")
        if h in used:
            raise ValueError(f"{field}: half-edge {h} is used twice")
        used.add(h)
        return owner[h]

    pairs = [_json_value(pair, list, "edges") for pair in _json_value(data["edges"], list, "edges")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("edges: expected pairs of half-edges")
    edges = [(vertex_of(h1, "edges"), vertex_of(h2, "edges")) for h1, h2 in pairs]
    legs_by_marking: dict[int, int] = {}
    for rec in _json_value(data["legs"], list, "legs"):
        _json_value(rec, dict, "legs")
        marking = _json_value(rec.get("marking"), int, "marking")
        if marking in legs_by_marking:
            raise ValueError(f"marking: {marking} appears twice")
        legs_by_marking[marking] = vertex_of(rec.get("half_edge"), "legs")
    if len(used) != len(owner):
        raise ValueError(f"half_edges: half-edge {min(set(owner) - used)} is not used")
    n = len(legs_by_marking)
    if sorted(legs_by_marking) != list(range(1, n + 1)):
        raise ValueError("markings must be 1..n")
    legs = [legs_by_marking[i + 1] for i in range(n)]
    return StableGraph(genera, edges, legs)
