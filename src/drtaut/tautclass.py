"""Formal tautological classes: rational sums of decorated stable graphs.

A decorated graph is a stable graph together with psi exponents on its
half-edges and a kappa multiset at each vertex; it stands for the
pushforward to the ambient moduli space of the corresponding monomial on
the stratum indexed by the graph.  A :class:`TautClass` is a finite formal
sum of such terms with exact rational coefficients, merged under decorated
graph isomorphism.

Equality here is *formal*: two classes are equal exactly when their
canonical term maps agree coefficient by coefficient.  Formal equality is
sufficient for every identity this package verifies, but it is a finer
relation than equality in the tautological ring, where pushforwards of
distinct decorated graphs can satisfy additional linear relations.  A
formal mismatch therefore does not by itself certify that two classes
differ as cohomology classes.

Every graph sum walks :func:`graph_sum_data`, which yields each graph a
degree-``d`` sum visits with its edge profiles and its vertex-and-leg
exponential, built once per vertex and edge count.  A graph's terms are
one :func:`series_edge_mul` of its weighted edge monomials by that
exponential, in integers, emitted by :func:`emit_series`; the one
exponential of the library, :func:`series_exp`, runs one integer
recurrence on integers or on integer lists in ``1/r``.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from .graphs import (
    StableGraph,
    _json_value,
    _read_graph_json,
    automorphism_order,
    canonical_form_decorated,
    enumerate_stable_graphs,
    first_betti,
    graph_to_json,
    require_stable_type,
    validate,
)
from .exact import rat_from_str, rat_to_str

_new = object.__new__

__all__ = [
    "DecoratedGraph",
    "TautClass",
    "trivial_class",
    "delta0",
    "delta_I",
    "SCHEMA_TAUTCLASS",
]

SCHEMA_TAUTCLASS = "tautclass/1"


class DecoratedGraph:
    """A stable graph with psi exponents and kappa decorations.

    ``leg_psi[i]`` is the exponent on marking ``i + 1``; ``edge_psi[t]`` the
    pair of exponents on the halves of edge ``t`` (layout order); and
    ``kappa[v]`` a sorted tuple of kappa indices at vertex ``v``, one entry
    ``m`` per factor of kappa_m.  Instances are stored in canonical form.
    """

    __slots__ = ("graph", "leg_psi", "edge_psi", "kappa", "key")

    def __init__(
        self,
        graph: StableGraph,
        leg_psi: Iterable[int] = (),
        edge_psi: Iterable[tuple[int, int]] = (),
        kappa: Iterable[Iterable[int]] = (),
    ):
        leg_psi = tuple(leg_psi) or tuple(0 for _ in graph.legs)
        edge_psi = tuple(tuple(p) for p in edge_psi) or tuple((0, 0) for _ in graph.edges)
        kappa = tuple(tuple(sorted(k)) for k in kappa) or tuple(() for _ in graph.genera)
        if len(leg_psi) != graph.n_legs:
            raise ValueError("one psi exponent per leg required")
        if len(edge_psi) != graph.n_edges:
            raise ValueError("one psi pair per edge required")
        if len(kappa) != graph.n_vertices:
            raise ValueError("one kappa multiset per vertex required")
        if any(e < 0 for e in leg_psi) or any(e < 0 for p in edge_psi for e in p):
            raise ValueError("psi exponents must be non-negative")
        if any(m < 1 for k in kappa for m in k):
            raise ValueError("kappa indices must be >= 1")
        self.graph, self.leg_psi, self.edge_psi, self.kappa, self.key = canonical_form_decorated(
            graph, leg_psi, edge_psi, kappa
        )

    @classmethod
    def _from_series(cls, graph: StableGraph, leg_psi, edge_psi, kappa) -> "DecoratedGraph":
        """A series monomial's term: its tuples are valid decorations of ``graph`` already."""
        dg = _new(cls)
        dg.graph, dg.leg_psi, dg.edge_psi, dg.kappa, dg.key = canonical_form_decorated(
            graph, leg_psi, edge_psi, kappa
        )
        return dg

    @property
    def degree(self) -> int:
        """Cohomological degree: edges plus psi exponents plus kappa weight."""
        return (
            self.graph.n_edges
            + sum(self.leg_psi)
            + sum(a + b for a, b in self.edge_psi)
            + sum(m for k in self.kappa for m in k)
        )

    def psi_by_half_edge(self) -> dict[int, int]:
        """Nonzero psi exponents keyed by half-edge index."""
        out: dict[int, int] = {}
        for t, (a, b) in enumerate(self.edge_psi):
            h1, h2 = self.graph.edge_half_edges(t)
            if a:
                out[h1] = a
            if b:
                out[h2] = b
        for i, e in enumerate(self.leg_psi):
            if e:
                out[self.graph.leg_half_edge(i + 1)] = e
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DecoratedGraph) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"DecoratedGraph(key={self.key!r})"


def _render_term(dg: DecoratedGraph) -> str:
    g = dg.graph
    multi = g.n_vertices > 1

    def at(v: int) -> str:
        return f"@v{v}" if multi else ""

    genera = ",".join(f"g{gv}" for gv in g.genera)
    edge_bits = []
    for t, (u, v) in enumerate(g.edges):
        h1, h2 = g.edge_half_edges(t)
        if u == v:
            edge_bits.append(f"loop(h{h1},h{h2}){at(u)}")
        else:
            edge_bits.append(f"edge(h{h1}{at(u)},h{h2}{at(v)})")
    leg_bits = [f"leg{i + 1}{at(v)}" for i, v in enumerate(g.legs)]
    sections = [genera]
    if edge_bits:
        sections.append(" ".join(edge_bits))
    if leg_bits:
        sections.append(" ".join(leg_bits))
    psi = dg.psi_by_half_edge()
    psi_txt = ",".join(f"h{h}:{e}" for h, e in sorted(psi.items()))
    kap_txt = ",".join(
        f"v{v}:[{','.join(str(m) for m in k)}]" for v, k in enumerate(dg.kappa) if k
    )
    return f"G[{'; '.join(sections)}] psi{{{psi_txt}}} kappa{{{kap_txt}}}"


class TautClass:
    """A formal rational combination of decorated stable graphs.

    Terms are merged under decorated-graph isomorphism, so equality of two
    classes (``formal_equal`` or ``==``) means equality term by term in the
    canonical presentation.  See the module docstring for the relation to
    equality in the tautological ring: formal equality is what all the
    identity checks in this package assert, and it never relies on ring
    relations between distinct graph pushforwards.
    """

    __slots__ = ("g", "n", "terms", "_pair_index")

    def __init__(self, g: int, n: int, terms: Iterable[tuple[DecoratedGraph, Fraction]] = ()):
        self.g = g
        self.n = n
        self.terms: dict[bytes, tuple[DecoratedGraph, Fraction]] = {}
        # The terms grouped for pairing, built by drtaut.intersect on the
        # first pairing; every change to the terms clears it.
        self._pair_index = None
        for dg, coeff in terms:
            self._accumulate(dg, coeff if coeff.__class__ is Fraction else Fraction(coeff))

    def _accumulate(self, dg: DecoratedGraph, coeff: Fraction) -> None:
        if coeff == 0:
            return
        self._pair_index = None
        prev = self.terms.get(dg.key)
        total = coeff if prev is None else prev[1] + coeff
        if total == 0:
            self.terms.pop(dg.key, None)
        else:
            self.terms[dg.key] = (dg, total)

    # -- queries ------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, dg: DecoratedGraph) -> Fraction:
        entry = self.terms.get(dg.key)
        return entry[1] if entry else Fraction(0)

    def items(self) -> list[tuple[DecoratedGraph, Fraction]]:
        return [self.terms[k] for k in sorted(self.terms)]

    def degrees(self) -> set[int]:
        return {dg.degree for dg, _ in self.terms.values()}

    def degree_part(self, d: int) -> "TautClass":
        return TautClass(
            self.g, self.n, ((dg, c) for dg, c in self.terms.values() if dg.degree == d)
        )

    # -- arithmetic ---------------------------------------------------

    def _check_ambient(self, other: "TautClass") -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError(
                f"ambient mismatch: ({self.g}, {self.n}) vs ({other.g}, {other.n})"
            )

    def add(self, other: "TautClass") -> "TautClass":
        self._check_ambient(other)
        out = TautClass(self.g, self.n, self.terms.values())
        for dg, c in other.terms.values():
            out._accumulate(dg, c)
        return out

    def scale(self, c: Fraction) -> "TautClass":
        c = Fraction(c)
        out = TautClass(self.g, self.n)
        if c:
            out.terms = {key: (dg, c * v) for key, (dg, v) in self.terms.items()}
        return out

    def _scale_in_place(self, c: Fraction) -> "TautClass":
        """Multiply every coefficient by the nonzero ``c`` and return the class itself.

        For a class no caller holds yet, so that normalising it builds no copy.
        """
        self._pair_index = None
        terms = self.terms
        for key, (dg, v) in terms.items():
            terms[key] = dg, c * v
        return self

    def __add__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return self.add(other.scale(Fraction(-1)))

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(Fraction(c))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, TautClass):
            return NotImplemented
        return (self.g, self.n) == (other.g, other.n) and {
            k: v[1] for k, v in self.terms.items()
        } == {k: v[1] for k, v in other.terms.items()}

    def __hash__(self):
        return hash((self.g, self.n, tuple(sorted((k, v[1]) for k, v in self.terms.items()))))

    def formal_equal(self, other: "TautClass") -> bool:
        """Termwise equality of canonical presentations (see class docstring)."""
        return self == other

    def diff_report(self, other: "TautClass") -> str:
        """Human-readable comparison of two classes, term by term."""
        lines = []
        keys = sorted(set(self.terms) | set(other.terms))
        for k in keys:
            a = self.terms.get(k)
            b = other.terms.get(k)
            if a and b and a[1] == b[1]:
                continue
            dg = (a or b)[0]
            ca = a[1] if a else Fraction(0)
            cb = b[1] if b else Fraction(0)
            lines.append(
                f"  {rat_to_str(ca)} vs {rat_to_str(cb)} on {_render_term(dg)}"
            )
        if not lines:
            return "classes agree on all terms"
        return "term mismatches:\n" + "\n".join(lines)

    # -- output -------------------------------------------------------

    def text(self) -> str:
        """One line per term: coefficient, graph, decorations."""
        if not self.terms:
            return "0"
        entries = sorted(
            self.terms.values(), key=lambda t: (t[0].degree, t[0].key)
        )
        return "\n".join(f"{rat_to_str(c)} * {_render_term(dg)}" for dg, c in entries)

    def to_json(self) -> dict:
        terms = []
        for dg, c in self.items():
            terms.append(
                {
                    "coeff": rat_to_str(c),
                    "graph": graph_to_json(dg.graph),
                    "psi": {str(h): e for h, e in sorted(dg.psi_by_half_edge().items())},
                    "kappa": {
                        str(v): list(k) for v, k in enumerate(dg.kappa) if k
                    },
                }
            )
        return {
            "version": SCHEMA_TAUTCLASS,
            "ambient": {"g": self.g, "n": self.n},
            "terms": terms,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TautClass":
        """Read a class from its dict form; ``ValueError`` names what is wrong.

        Each term's graph is read once by the graph reader, which also gives
        the JSON id of every edge half and leg in the rebuilt layout, so the
        term's ``psi`` keys map straight onto them.
        """
        if not isinstance(data, dict):
            raise ValueError("class: expected a JSON object")
        if data.get("version") != SCHEMA_TAUTCLASS:
            raise ValueError(f"unsupported class schema: {data.get('version')!r}")
        ambient = data.get("ambient")
        if not (isinstance(ambient, dict) and "g" in ambient and "n" in ambient):
            raise ValueError("ambient: expected an object with fields 'g' and 'n'")
        if "terms" not in data:
            raise ValueError("class: missing field 'terms'")
        g = _json_value(ambient["g"], int, "ambient.g")
        n = _json_value(ambient["n"], int, "ambient.n")
        require_stable_type(g, n)
        out = cls(g, n)
        for rec in _json_value(data["terms"], list, "terms"):
            graph, edge_ids, leg_ids = _read_graph_json(_json_value(rec, dict, "terms").get("graph"))
            err = validate(graph, g, n)
            if err is not None:
                raise ValueError(f"invalid term graph: {err}")
            psi = {
                _json_id(h, "psi"): _json_value(e, int, "psi")
                for h, e in _json_value(rec.get("psi", {}), dict, "psi").items()
            }
            edge_psi = [(psi.pop(h1, 0), psi.pop(h2, 0)) for h1, h2 in edge_ids]
            leg_psi = [psi.pop(h, 0) for h in leg_ids]
            if psi:
                raise ValueError(f"psi exponents on unknown half-edges: {sorted(psi)}")
            kappa = [() for _ in range(graph.n_vertices)]
            for key, k in _json_value(rec.get("kappa", {}), dict, "kappa").items():
                v = _json_id(key, "kappa")
                if v >= graph.n_vertices:
                    raise ValueError(f"kappa: vertex {v} is not in the graph")
                indices = _json_value(k, list, "kappa")
                kappa[v] = tuple(_json_value(m, int, "kappa") for m in indices)
            dg = DecoratedGraph(graph, leg_psi, edge_psi, kappa)
            out._accumulate(dg, rat_from_str(_json_value(rec.get("coeff"), str, "coeff")))
        return out


def _json_id(key: str, field: str) -> int:
    """A JSON key's half-edge or vertex id, in plain decimal only: ``"00"`` would alias ``"0"``."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise ValueError(f"{field}: key {key!r} is not a non-negative integer in plain decimal form")
    return int(key)


# -- named constructors -----------------------------------------------


def trivial_class(g: int, n: int) -> TautClass:
    """The fundamental class: coefficient 1 on the one-vertex graph."""
    graph = StableGraph([g], [], [0] * n)
    return TautClass(g, n, [(DecoratedGraph(graph), Fraction(1))])


def delta0(n: int) -> TautClass:
    """Irreducible boundary divisor of the genus-1 space: half the loop graph."""
    graph = StableGraph([0], [(0, 0)], [0] * n)
    return TautClass(1, n, [(DecoratedGraph(graph), Fraction(1, 2))])


def delta_I(n: int, I: Iterable[int]) -> TautClass:
    """Genus-1 boundary divisor with the markings of ``I`` on a rational tail."""
    I = sorted(set(I))
    if len(I) < 2:
        raise ValueError("a rational tail needs at least two markings")
    if any(i < 1 or i > n for i in I):
        raise ValueError("markings out of range")
    legs = [0 if (i + 1) in I else 1 for i in range(n)]
    graph = StableGraph([0, 1], [(0, 1)], legs)
    return TautClass(1, n, [(DecoratedGraph(graph), Fraction(1))])


# -- truncated decoration series --------------------------------------
#
# Working space for building class contributions graph by graph.  A
# monomial is (leg psi exponents, edge psi exponent pairs, kappa multisets);
# a series maps monomials to coefficients, truncated above a degree cap.
# Edges contribute no degree here: series degree is psi plus kappa weight
# only, the edge count being fixed by the host graph.  Every graph sum walks
# ``graph_sum_data`` and builds each graph once, in integers: its edge
# monomials carry integer weights over one scale per graph, the vertex and
# leg exponential is built once per vertex and edge count by the one
# integer recurrence of ``series_exp``, as numerators over one denominator
# (integers, or integer lists for Chiodo's polynomials in ``1/r``), and one
# ``series_edge_mul`` multiplies them into the one degree it needs.
# ``emit_series`` then divides each monomial once and relabels it through
# the graph's one vertex order (``canonical_form_decorated``).

Monomial = tuple


def series_unit(graph: StableGraph) -> dict:
    mono = (
        tuple(0 for _ in graph.legs),
        tuple((0, 0) for _ in graph.edges),
        tuple(() for _ in graph.genera),
    )
    return {mono: Fraction(1)}


def monomial_degree(mono: Monomial) -> int:
    legs, edges, kappa = mono
    return sum(legs) + sum(a + b for a, b in edges) + sum(m for k in kappa for m in k)


class GradedSeries(dict):
    """A series that also lists its monomials by degree.

    Built from ``(degree, {monomial: coefficient})`` levels;
    ``by_degree[k]`` holds ``(legs, kappa, coefficient)`` for each
    monomial of the nonempty level ``k``, in its order, which is all
    :func:`series_edge_mul` reads of a vertex and leg series (it has no
    edge psi).  :func:`series_exp` returns one, so that no product reads a
    monomial's degree.
    """

    __slots__ = ("by_degree",)

    def __init__(self, levels):
        super().__init__()
        self.by_degree: dict = {}
        for degree, level in levels:
            if level:
                self.update(level)
                self.by_degree[degree] = [(legs, kappa, c) for (legs, _, kappa), c in level.items()]


def _monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    l1, e1, k1 = m1
    l2, e2, k2 = m2
    legs = tuple(a + b for a, b in zip(l1, l2))
    edges = tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(e1, e2))
    kappa = tuple(tuple(sorted(x + y)) for x, y in zip(k1, k2))
    return legs, edges, kappa


def _poly_fma(acc: list, a: list, b: list) -> list:
    """``acc + a b`` for integer lists, polynomials low degree first, added into ``acc``."""
    acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[i + j] += x * y
    return acc


def series_exp(x: dict, den: int, graph: StableGraph, cap: int, one=1) -> tuple[dict, int]:
    """Exponential of ``x / den``, a series with no constant term, truncated at ``cap``.

    The coefficients of ``x`` are integers, or integer lists, low degree
    first, for polynomials in one variable; ``one`` is ``1`` or ``[1]``
    accordingly.  Returns numerators of the same kind, as a
    :class:`GradedSeries`, over one denominator, ``cap! den^cap``.  Built
    one degree at a time from ``E' = X' E`` in integers: with ``X_k`` the
    degree-``k`` part of ``x`` and ``E_n = n! den^n e_n`` that of the
    exponential, ``E_0 = 1`` and
    ``E_n = sum_{k=1}^n k X_k ((n-1)!/(n-k)!) den^{k-1} E_{n-k}``.
    """
    polys = one.__class__ is list
    if polys:
        fma, zero, nonzero, scale = _poly_fma, list, any, lambda s, c: [s * e for e in c]
    else:
        fma, zero, nonzero, scale = lambda acc, a, b: acc + a * b, int, bool, operator.mul
    terms = [(monomial_degree(m), m, c) for m, c in x.items()]
    if any(k == 0 for k, _, _ in terms):
        raise ValueError("exponent series must have no degree-0 part")
    levels = [{series_unit(graph).popitem()[0]: one}]
    for n in range(1, cap + 1):
        level: dict = {}
        for k, m1, c1 in terms:
            if k <= n and nonzero(c1):
                c1 = scale(k * factorial(n - 1) // factorial(n - k) * den ** (k - 1), c1)
                for m2, c2 in levels[n - k].items():
                    m = _monomial_mul(m1, m2)
                    level[m] = fma(level.get(m) or zero(), c1, c2)
        levels.append({m: c for m, c in level.items() if nonzero(c)})
    lifts = [factorial(cap) // factorial(n) * den ** (cap - n) for n in range(cap + 1)]
    graded = GradedSeries(
        (n, {m: scale(lift, c) for m, c in level.items()}) for n, (lift, level) in enumerate(zip(lifts, levels))
    )
    return graded, lifts[0]


def series_vertex_leg_exp(graph: StableGraph, leg_weights, kappa_weights, den: int, cap: int, one=1):
    """``exp`` of all leg and vertex weights over ``den`` at once, truncated at ``cap``.

    ``leg_weights[i][m - 1]`` is the numerator of the coefficient of
    ``psi_i^m`` on leg ``i`` and ``kappa_weights[m - 1]`` that of
    ``kappa_m`` at every vertex; numerators and ``one`` are as
    :func:`series_exp` takes them, and so is the pair returned.
    """
    x: dict = {}
    for m, c in enumerate(kappa_weights[:cap], 1):
        x.update((kappa_monomial(graph, v, m), c) for v in range(graph.n_vertices))
    for i, weights in enumerate(leg_weights):
        x.update((psi_leg_monomial(graph, i, m), c) for m, c in enumerate(weights[:cap], 1))
    return series_exp(x, den, graph, cap, one)


def graph_sum_data(
    g: int, n: int, d: int, exponential: Callable, edge_keys: dict, zero_sides: frozenset = frozenset()
):
    """The per-graph data of a degree-``d`` graph sum over the stable graphs of type ``(g, n)``.

    Yields ``(index, graph, b_1, |Aut|, L, profiles)`` in enumeration
    order for each graph with at most ``d`` edges that has a profile.
    ``L`` is ``exponential(graph, d - n_edges)``, the vertex and leg
    exponential truncated at the degree the edges leave, as a series of
    numerators grouped by degree (a :class:`GradedSeries`) and their
    denominator, as :func:`series_exp` returns them.  ``edge_keys``
    maps each per-edge key to its degree; ``profiles`` are the tuples of
    one key per edge, in ``itertools.product`` order, whose degrees leave
    a degree that ``L`` has a monomial of.  ``exponential`` must depend on
    a graph only through its vertex and edge counts, as a series does
    whose leg monomials record psi exponents by marking, wherever the leg
    sits; so ``L`` and the profiles are built once per such count.

    ``zero_sides`` is the pruning key of
    :func:`~drtaut.graphs.enumerate_stable_graphs`, for a sum that
    vanishes on a graph with a bridge side ``(h, S)`` in it (Pixton's:
    such a bridge's forced residue is 0).  A degeneration keeps every
    bridge with its sides, so the walk stops at the first such graph and
    loses none the sum keeps; ``index`` counts the graphs it yields.  The
    type is checked before the degree, since a negative genus makes the
    degree ``g`` of a DR cycle negative too.
    """
    require_stable_type(g, n)
    if d < 0:
        raise ValueError("degree must be non-negative")
    shapes: dict = {}
    for index, graph in enumerate(enumerate_stable_graphs(g, n, max_edges=d, zero_sides=zero_sides)):
        shape = (graph.n_vertices, graph.n_edges)
        if shape not in shapes:
            part = d - graph.n_edges
            L = exponential(graph, part)
            wanted = {part - degree for degree in L[0].by_degree}
            keys = [key for key, degree in edge_keys.items() if degree <= part]
            profiles = [
                prof
                for prof in itertools.product(keys, repeat=graph.n_edges)
                if sum(map(edge_keys.get, prof)) in wanted
            ]
            shapes[shape] = L, profiles
        L, profiles = shapes[shape]
        if profiles:
            yield index, graph, first_betti(graph), automorphism_order(graph), L, profiles


def series_edge_mul(
    L: GradedSeries, graph: StableGraph, edges: dict, d: int, times: Callable = operator.mul
) -> dict:
    """The degree-``d`` terms of ``graph`` in ``L`` times its edge monomials.

    ``edges`` maps tuples of psi exponent pairs, one pair per edge, to
    coefficients.  ``L`` is a vertex and leg series, with no edge psi, so
    the product of one of its monomials by an edge monomial of the
    complementary degree only sets the edge pairs, and no two products
    share a monomial.  ``times`` gives the product of two coefficients (the
    default multiplies them; a caller whose coefficients are vectors can
    keep one number of each product), and zero products are left out.
    """
    by_degree: dict = {}
    for pairs, c in edges.items():
        by_degree.setdefault(sum(a + b for a, b in pairs), []).append((pairs, c))
    part, out = d - graph.n_edges, {}
    for degree, monos in L.by_degree.items():
        if fits := by_degree.get(part - degree):
            for legs, kappa, c1 in monos:
                for pairs, c2 in fits:
                    if c := times(c1, c2):
                        out[legs, pairs, kappa] = c
    return out


def emit_series(acc: list, graph: StableGraph, totals: dict, scale) -> None:
    """Append each monomial of ``totals`` on ``graph`` to ``acc`` as a term, its total over ``scale``.

    A graph sum in integers passes integer totals over one integer scale
    per graph, so each coefficient is one ``Fraction`` division.
    """
    new = DecoratedGraph._from_series
    acc.extend((new(graph, *mono), Fraction(total, scale)) for mono, total in totals.items())


def psi_leg_monomial(graph: StableGraph, i: int, e: int = 1) -> Monomial:
    legs = tuple(e if j == i else 0 for j in range(graph.n_legs))
    return (
        legs,
        tuple((0, 0) for _ in graph.edges),
        tuple(() for _ in graph.genera),
    )


def kappa_monomial(graph: StableGraph, v: int, m: int) -> Monomial:
    kappa = tuple((m,) if w == v else () for w in range(graph.n_vertices))
    return (
        tuple(0 for _ in graph.legs),
        tuple((0, 0) for _ in graph.edges),
        kappa,
    )
