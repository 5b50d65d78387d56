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

One search, within blocks of tied vertex colours, is behind both the
plain key and the decorated canonical form (see the comment above
``_records``); the terms of one graph passed in a row share what its
vertex order fixes.  Each enumerated class keeps its least ``(edges,
genera, legs)`` labelling, which fixes the output bytes, and its
``|Aut|``, counted in the same scan.
The enumeration keeps a child only through a top edge, one of largest
invariant (canonical augmentation, McKay 1998), so it keys each class
about once.  An optional key of bridge sides prunes it at each child
whose new edge is a bridge with such a side.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

_new = object.__new__
_set = object.__setattr__

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


class StableGraph:
    """An immutable stable graph in the normalized presentation above.

    Graphs compare, hash and print by ``(genera, edges, legs)``; fields
    cannot be assigned.  The hidden ``_aut`` slot holds ``|Aut|`` for the
    graphs the enumeration returns and is ``None`` otherwise.
    """

    __slots__ = ("genera", "edges", "legs", "_aut")

    def __init__(self, genera: Sequence[int], edges: Sequence[Sequence[int]], legs: Sequence[int] = ()):
        _fill(
            self,
            tuple(int(x) for x in genera),
            tuple(sorted((min(u, v), max(u, v)) for u, v in edges)),
            tuple(int(v) for v in legs),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.genera, self.edges, self.legs) == (other.genera, other.edges, other.legs)
        return NotImplemented

    def __hash__(self):
        return hash((self.genera, self.edges, self.legs))

    def __repr__(self):
        return f"StableGraph(genera={self.genera!r}, edges={self.edges!r}, legs={self.legs!r})"

    def __reduce__(self):
        return StableGraph, (self.genera, self.edges, self.legs)

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

    def leg_half_edge(self, marking: int) -> int:
        return 2 * self.n_edges + marking - 1

    def edge_half_edges(self, t: int) -> tuple[int, int]:
        return 2 * t, 2 * t + 1

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

    def edge_side(self, t: int) -> set[int] | None:
        """Vertices on the ``edges[t][0]`` side of a bridge, else ``None``."""
        u, v = self.edges[t]
        side = self._reachable(u, t)
        return None if v in side else side

    def bridge_side(self, t: int) -> tuple[int, tuple[int, ...]] | None:
        """``(h, S)`` of the ``edges[t][0]`` side of a bridge, else ``None``.

        ``h`` is the side's arithmetic genus (vertex genera plus first Betti
        number) and ``S`` its sorted markings.
        """
        side = self.edge_side(t)
        if side is None:
            return None
        inner = sum(u in side for u, _ in self.edges) - 1  # edges within the side, less t
        h = sum(self.genera[v] for v in side) + inner - len(side) + 1
        return h, tuple(i + 1 for i, w in enumerate(self.legs) if w in side)

    def edge_side_markings(self, t: int) -> tuple[int, ...] | None:
        """Markings on the ``edges[t][0]`` side of a bridge, else ``None``."""
        side = self.bridge_side(t)
        return None if side is None else side[1]


def _fill(graph: StableGraph, genera, edges, legs) -> None:
    _set(graph, "genera", genera)
    _set(graph, "edges", edges)
    _set(graph, "legs", legs)
    _set(graph, "_aut", None)


def _graph(genera: tuple[int, ...], edges: tuple[tuple[int, int], ...], legs: tuple[int, ...]) -> StableGraph:
    """A graph from parts already normalized: int tuples, edges sorted with ``u <= v``."""
    graph = _new(StableGraph)
    _fill(graph, genera, edges, legs)
    return graph


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
# A vertex's colour is its plain colour ``(genus, markings)``, then its
# kappa multiset.  Each marking sits on one vertex, so a vertex with a
# marking has a colour no other vertex has: only unmarked vertices of one
# genus can tie.  So leg psi never moves a vertex, and kappa decides only
# among tied vertices.  One search relabels every graph, plain or
# decorated: ``_plain_order`` sorts the vertices by plain colour once per
# graph, and ``_canonical_data`` sorts each tied run by kappa and keeps,
# over the orders within blocks of equal kappa, the least sorted edge
# records ``(a, b, psi_a, psi_b)``, which ``_records`` alone normalises.
# Without a tie the plain order is the only one.


def _records(ends: list[tuple[int, int]], edge_psi: tuple[tuple[int, int], ...]) -> tuple:
    """The sorted records of edges with these new ``ends``: ``a <= b``, a loop's halves sorted."""
    records = [
        (a, b, pa, pb) if a < b or (a == b and pa <= pb) else (b, a, pb, pa)
        for (a, b), (pa, pb) in zip(ends, edge_psi)
    ]
    records.sort()
    return tuple(records)


def _plain_order(graph: StableGraph):
    """The vertices of ``graph`` sorted by plain colour, and what that fixes.

    Returns ``(order, genera, legs, ends, colors)``: the order, the genera
    and legs relabelled by it, which no tie changes, the slots of each
    edge's ends, and, when two slots tie, the plain colour of each slot,
    else ``None``.
    """
    genera, legs = graph.genera, graph.legs
    marks: list[list[int]] = [[] for _ in genera]
    for i, v in enumerate(legs):
        marks[v].append(i)
    colors = list(zip(genera, map(tuple, marks)))
    order = sorted(range(len(genera)), key=colors.__getitem__)
    pos = [0] * len(order)
    for slot, v in enumerate(order):
        pos[v] = slot
    colors.sort()
    new_genera, new_legs = tuple(map(genera.__getitem__, order)), tuple(map(pos.__getitem__, legs))
    ends = [(pos[u], pos[v]) for u, v in graph.edges]
    return order, new_genera, new_legs, ends, colors if len(set(colors)) < len(colors) else None


def _canonical_data(plan, edge_psi: tuple[tuple[int, int], ...], kappa: tuple[tuple[int, ...], ...]):
    """The sorted edge records and the kappa of the least relabelling under ``plan`` (``_plain_order``)."""
    order, _, _, ends, colors = plan
    kappa = tuple([kappa[v] for v in order])
    if colors is None:
        return _records(ends, edge_psi), kappa
    full = list(zip(colors, kappa))
    seq = sorted(range(len(order)), key=full.__getitem__)
    blocks = [list(block) for _, block in itertools.groupby(seq, full.__getitem__)]
    best = None
    pos = [0] * len(order)
    for perm in itertools.product(*map(itertools.permutations, blocks)):
        for slot, s in enumerate(itertools.chain.from_iterable(perm)):
            pos[s] = slot
        records = _records([(pos[a], pos[b]) for a, b in ends], edge_psi)
        if best is None or records < best:
            best = records
    return best, tuple([kappa[s] for s in seq])


def canonical_key(graph: StableGraph) -> bytes:
    """Deterministic byte string identifying the isomorphism class."""
    plan = _plain_order(graph)
    records, _ = _canonical_data(plan, ((0, 0),) * len(graph.edges), ((),) * len(graph.genera))
    return repr((plan[1], tuple([(a, b) for a, b, _, _ in records]), plan[2])).encode()


def _vertex_order(graph: StableGraph):
    """What every relabelling of ``graph`` shares: ``(plan, new_graph)``.

    ``plan`` is its :func:`_plain_order`; without a tie, ``new_graph`` is
    the graph relabelled by that order (``graph`` itself when the order
    moves no vertex), else ``None``.
    """
    plan = _plain_order(graph)
    if plan[4] is not None:
        return plan, None
    if plan[0] == list(range(graph.n_vertices)):
        return plan, graph
    plain = tuple([(a, b) for a, b, _, _ in _records(plan[3], ((0, 0),) * graph.n_edges)])
    return plan, _graph(plan[1], plain, plan[2])


# The graph last relabelled and its _vertex_order.  A graph sum passes the
# terms of one graph in a row, so one entry serves them all; the entry holds
# the graph itself, so the identity test never meets a reused id.
_last_order: list = [None, None]


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
    in the new graph's layout; markings keep their numbers, so ``leg_psi``
    is returned as it is.
    """
    if graph is not _last_order[0]:
        _last_order[:] = graph, _vertex_order(graph)
    plan, new_graph = _last_order[1]
    records, new_kappa = _canonical_data(plan, edge_psi, kappa)
    if new_graph is None:
        new_graph = _graph(plan[1], tuple([(a, b) for a, b, _, _ in records]), plan[2])
    key = repr((plan[1], records, plan[2], leg_psi, new_kappa)).encode()
    return new_graph, leg_psi, tuple([(pa, pb) for _, _, pa, pb in records]), new_kappa, key


def automorphism_order(graph: StableGraph) -> int:
    """Order of the automorphism group of the stable graph.

    Counts pairs of compatible vertex and half-edge permutations fixing the
    genera and every leg: each vertex symmetry lifts in ``prod_e m_e!``
    ways over parallel classes, times ``2`` per loop.  The graphs of
    :func:`enumerate_stable_graphs` carry the order found while their
    least labelling was chosen; any other graph runs the same scan.
    """
    if graph._aut is not None:
        return graph._aut
    return _least_labelling(graph)[1] * _lifts(graph.edges)


def _lifts(edges: tuple[tuple[int, int], ...]) -> int:
    """Half-edge symmetries over the identity on vertices, for sorted ``edges``."""
    lifts = 1
    for (u, v), group in itertools.groupby(edges):
        m = sum(1 for _ in group)
        lifts *= factorial(m) << (m if u == v else 0)
    return lifts


# -- enumeration ------------------------------------------------------


@lru_cache(maxsize=None)
def _shares(mults: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
    """Ways to move ``k_c <= m_c`` of each class ``c`` of ``mults`` to a new vertex.

    Each way is ``(k, sum(k), mirrored)``, where ``mirrored`` tells whether
    ``k`` exceeds what stays, ``m - k``, in lexicographic order.
    """
    shares = []
    for k in itertools.product(*(range(m + 1) for m in mults)):
        stays = tuple(m - x for m, x in zip(mults, k))
        shares.append((k, sum(k), k > stays))
    return tuple(shares)


def _tops(genera, edges: tuple[tuple[int, int], ...], legs, new: tuple[int, int]) -> bool:
    """Whether edge ``new`` has the largest invariant among the edges of the graph.

    An edge's invariant is, in order: loop or not, its multiplicity, the
    sorted pair of its end colours ``(genus, degree, markings)``.  Markings
    are labelled, so every isomorphism keeps it.
    """
    colours = [[gv, 0, []] for gv in genera]
    for a, b in edges:
        colours[a][1] += 1
        colours[b][1] += 1
    for i, v in enumerate(legs):
        colours[v][1] += 1
        colours[v][2].append(i)
    top = mine = None
    for (a, b), group in itertools.groupby(edges):
        ca, cb = colours[a], colours[b]
        inv = (a == b, sum(1 for _ in group), (ca, cb) if ca <= cb else (cb, ca))
        if (a, b) == new:
            mine = inv
        if top is None or inv > top:
            top = inv
    return mine == top


def _degenerations(graph: StableGraph) -> Iterator[tuple[StableGraph, tuple[int, int]]]:
    """Stable graphs with one edge more that contract back to ``graph``, with that new edge.

    Either a vertex of positive genus trades one genus for a new loop
    ``(v, v)``, or a vertex ``v`` splits into ``v`` and a new last vertex
    ``w`` joined by a new edge ``(v, w)``.  A split distributes the genus
    of ``v``, its legs and its edges to each neighbour (by count, as
    parallel edges are interchangeable) and opens its loops into edges
    ``v - w``; both sides must stay stable.
    Only children whose new edge tops the invariant of :func:`_tops` are
    produced.  Loops rank first there, so a split is skipped outright when
    another vertex has a loop, and no split keeps a loop at ``v`` or moves
    one to ``w``.
    Of two splits that are mirror images under swapping ``v`` and ``w``
    only one is produced: the one whose ``w`` side, read as (genus, edges
    moved to each neighbour, legs moved), is not the larger.
    """
    genera, edges, legs = graph.genera, graph.edges, graph.legs
    w = len(genera)
    loop_at = {a for a, b in edges if a == b}
    for v, gv in enumerate(genera):
        head, tail = genera[:v], genera[v + 1 :]
        if gv > 0:
            new_genera, new_edges = head + (gv - 1,) + tail, tuple(sorted(edges + ((v, v),)))
            if _tops(new_genera, new_edges, legs, (v, v)):
                yield _graph(new_genera, new_edges, legs), (v, v)

        if loop_at - {v}:
            continue  # every split would keep that loop
        rest: list[tuple[int, int]] = []
        nbr: dict[int, int] = {}
        loops = 0
        for e in edges:
            a, b = e
            if a == v:
                if b == v:
                    loops += 1
                else:
                    nbr[b] = nbr.get(b, 0) + 1
            elif b == v:
                nbr[a] = nbr.get(a, 0) + 1
            else:
                rest.append(e)
        # The classes shared between v and w: the edges to each neighbour,
        # then each leg on its own.
        others = [(nbr[u], (u, v) if u < v else (v, u), (u, w)) for u in sorted(nbr)]
        marks = [i for i, x in enumerate(legs) if x == v]
        shares = _shares(tuple(m for m, _, _ in others) + (1,) * len(marks))
        non_loop = sum(nbr.values()) + len(marks)
        n_others = len(others)
        base = rest + [(v, w)] * (loops + 1)

        for gw in range(gv // 2 + 1):
            new_genera = head + (gv - gw,) + tail + (gw,)
            # The w side may not be the larger of the two; the shares
            # decide only on a tie in genus.
            check_mirror = 2 * gw == gv
            # Both sides stable, 2 g - 2 + deg > 0, with ``total`` of the
            # shared classes moved to w.
            lo = 2 - 2 * gw - loops
            hi = 2 * (gv - gw) + loops + non_loop - 2
            for split, total, mirrored in shares:
                if total < lo or total > hi or (check_mirror and mirrored):
                    continue
                new_edges = list(base)
                for (m, vu, uw), k in zip(others, split):
                    new_edges += [vu] * (m - k) + [uw] * k
                new_legs = legs
                if any(split[n_others:]):
                    new_legs = list(legs)
                    for i, bit in zip(marks, split[n_others:]):
                        if bit:
                            new_legs[i] = w
                    new_legs = tuple(new_legs)
                new_edges.sort()
                new_edges = tuple(new_edges)
                if _tops(new_genera, new_edges, new_legs, (v, w)):
                    yield _graph(new_genera, new_edges, new_legs), (v, w)


def _least_labelling(graph: StableGraph) -> tuple[StableGraph, int]:
    """The relabeling of ``graph`` with the least ``(edges, genera, legs)``,
    and the number of vertex orders that reach it.

    Tuples compare lexicographically over all vertex permutations.  This
    fixes the representative of each isomorphism class independently of
    the route that found it, so serialized output stays byte-identical.
    The orders reaching the least labelling form one coset of the vertex
    symmetries fixing genera, legs and edge multiplicities, so their count
    is the order of that group.
    """
    genera, edges, legs = graph.genera, graph.edges, graph.legs
    V = len(genera)
    best, count = None, 0
    for perm in itertools.permutations(range(V)):
        new_edges = []
        for u, v in edges:
            a, b = perm[u], perm[v]
            new_edges.append((a, b) if a <= b else (b, a))
        new_edges.sort()
        if best is not None and new_edges > best[0]:
            continue
        new_genera = [0] * V
        for v, gv in enumerate(genera):
            new_genera[perm[v]] = gv
        cand = (new_edges, new_genera, [perm[v] for v in legs])
        if best is None or cand < best:
            best, count = cand, 1
        elif cand == best:
            count += 1
    new_edges, new_genera, new_legs = best
    return _graph(tuple(new_genera), tuple(new_edges), tuple(new_legs)), count


def require_stable_type(g: int, n: int) -> None:
    """Raise ``ValueError`` when ``(g, n)`` is no type of stable curves."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise ValueError(f"no stable curves of type (g, n) = ({g}, {n})")


def _zero_bridge(graph: StableGraph, zero_sides: frozenset) -> bool:
    """Whether a bridge of ``graph`` has its side ``(h, S)`` in ``zero_sides`` (see ``bridge_side``)."""
    return any(graph.bridge_side(t) in zero_sides for t in range(graph.n_edges))


def _walk(g: int, n: int, cap: int, zero_sides: frozenset) -> tuple[StableGraph, ...]:
    """The degeneration walk to ``cap`` edges, dropping children with a bridge side in ``zero_sides``."""
    level = [StableGraph((g,), (), (0,) * n)]
    found = {canonical_key(graph): graph for graph in level}
    for _ in range(cap):
        # The top-edge test runs in _degenerations: this dict keeps one new
        # edge per labelled child, and a test here would drop a child whose
        # last edge is not a top one though another edge reaching it is.
        children = {child: edge for graph in level for child, edge in _degenerations(graph)}
        level = []
        for child, edge in children.items():
            # Only the new edge can be such a bridge: a kept parent's bridges keep their sides.
            if zero_sides and child.bridge_side(child.edges.index(edge)) in zero_sides:
                continue
            key = canonical_key(child)
            if key not in found:
                found[key] = child
                level.append(child)
    representatives = []
    for key in sorted(found):
        graph, orders = _least_labelling(found[key])
        _set(graph, "_aut", orders * _lifts(graph.edges))
        representatives.append(graph)
    return tuple(representatives)


# Full walks by ``(g, n, cap)``, however they were asked for: a pruned
# call filters one found here instead of walking a second time.  An r-spin
# check sums Chiodo's class (full walk) and then Pixton's (pruned) on the
# same type and cap; a second walk costs it about 4% of its time.
_full_walks: dict[tuple[int, int, int], tuple[StableGraph, ...]] = {}


@lru_cache(maxsize=None)
def enumerate_stable_graphs(
    g: int, n: int, max_edges: int | None = None, zero_sides: frozenset = frozenset()
) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type ``(g, n)``.

    ``max_edges`` caps the edge count and must be non-negative; by default
    all graphs appear, up to the dimension bound ``3g - 3 + n`` edges.

    Graphs are generated by degeneration, one edge level at a time, from
    the one-vertex graph: every graph with ``E`` edges arises from one
    with ``E - 1`` edges by adding a loop at a vertex of positive genus or
    by splitting a vertex in two, because contracting any edge of a stable
    graph leaves a stable graph.  A child is kept only when its new edge
    has the largest invariant among its edges (see ``_tops``), before
    its canonical key dedupes the level.  No class is lost: contracting
    a top edge of a class gives a class found at the level before, and
    degenerating its representative at the merged vertex rebuilds the
    class with the new edge on that top edge.

    ``zero_sides`` prunes the walk: a graph is left out, and not
    degenerated, when a bridge's ``edges[t][0]`` side ``(h, S)``
    (:meth:`StableGraph.bridge_side`) is in the key, which so lists both
    sides of each bridge it prunes.  No other graph is lost, since a
    degeneration keeps every bridge with the arithmetic genus and
    markings of both its sides: a graph without such a bridge is reached
    only through graphs without one, such as its contraction at a top
    edge.  A cached full walk of the same type
    and cap is filtered instead of walked again.

    The result is deterministic and sorted by canonical key.  Each class
    is represented by its labelling with the lexicographically least
    ``(edges, genera, legs)`` (see ``_least_labelling``); the scan that
    finds it also counts the graph's automorphisms, which
    :func:`automorphism_order` reads.  Examples: ``(0, 4)`` has 4 graphs
    with at most one edge, ``(1, 1)`` has 2, ``(2, 0)`` has 7.
    """
    require_stable_type(g, n)
    if max_edges is not None and max_edges < 0:
        raise ValueError(f"edge cap max_edges must be non-negative, got {max_edges}")
    cap = 3 * g - 3 + n
    if max_edges is not None:
        cap = min(cap, max_edges)
    graphs = _full_walks.get((g, n, cap))
    if graphs is None:
        graphs = _walk(g, n, cap, zero_sides)
        if not zero_sides:
            _full_walks[g, n, cap] = graphs
    elif zero_sides:
        graphs = tuple(graph for graph in graphs if not _zero_bridge(graph, zero_sides))
    return graphs


# -- serialization ----------------------------------------------------

SCHEMA_GRAPH = "stablegraph/1"


def graph_to_json(graph: StableGraph) -> dict:
    """Plain-dict form of a graph, stable under round-trip."""
    half_edges: list[list[int]] = [[] for _ in graph.genera]
    for t, (u, v) in enumerate(graph.edges):
        half_edges[u].append(2 * t)
        half_edges[v].append(2 * t + 1)
    E2 = 2 * graph.n_edges
    for i, v in enumerate(graph.legs):
        half_edges[v].append(E2 + i)
    return {
        "version": SCHEMA_GRAPH,
        "vertices": [{"genus": gv, "half_edges": hs} for gv, hs in zip(graph.genera, half_edges)],
        "edges": [[2 * t, 2 * t + 1] for t in range(graph.n_edges)],
        "legs": [{"half_edge": E2 + i, "marking": i + 1} for i in range(graph.n_legs)],
    }


def _json_value(value, kind: type, field: str):
    """``value`` if of JSON type ``kind`` (a bool is no int); else ValueError naming ``field``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{field}: expected {kind.__name__}, got {value!r}")
    return value


def graph_from_json(data: dict) -> StableGraph:
    """Rebuild a graph from its dict form (any consistent half-edge ids)."""
    return _read_graph_json(data)[0]


def _read_graph_json(data: dict) -> tuple[StableGraph, list[tuple[int, int]], list[int]]:
    """``(graph, edge_ids, leg_ids)``: the graph of ``data`` and its JSON half-edge ids.

    ``edge_ids[t]`` are the ids of the graph's half-edges ``2t, 2t + 1`` and
    ``leg_ids[i]`` the id of the leg of marking ``i + 1``.
    """
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
    halves = []
    for h1, h2 in pairs:
        u, v = vertex_of(h1, "edges"), vertex_of(h2, "edges")
        halves.append(((u, v), (h1, h2)) if u <= v else ((v, u), (h2, h1)))
    halves.sort(key=lambda half: half[0])
    leg_of: dict[int, tuple[int, int]] = {}
    for rec in _json_value(data["legs"], list, "legs"):
        _json_value(rec, dict, "legs")
        marking = _json_value(rec.get("marking"), int, "marking")
        if marking in leg_of:
            raise ValueError(f"marking: {marking} appears twice")
        h = rec.get("half_edge")
        leg_of[marking] = (vertex_of(h, "legs"), h)
    if len(used) != len(owner):
        raise ValueError(f"half_edges: half-edge {min(set(owner) - used)} is not used")
    n = len(leg_of)
    if sorted(leg_of) != list(range(1, n + 1)):
        raise ValueError("markings must be 1..n")
    legs = [leg_of[i + 1] for i in range(n)]
    graph = _graph(tuple(genera), tuple(e for e, _ in halves), tuple(v for v, _ in legs))
    return graph, [ids for _, ids in halves], [h for _, h in legs]
