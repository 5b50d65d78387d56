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
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable

from .graphs import (
    StableGraph,
    _json_value,
    canonical_form_decorated,
    graph_from_json,
    graph_to_json,
    require_stable_type,
    validate,
)
from .exact import rat_from_str, rat_to_str

__all__ = [
    "DecoratedGraph",
    "TautClass",
    "trivial_class",
    "delta0",
    "delta_I",
    "alpha_class",
    "beta_class",
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
        cg, clp, cep, ck, key = canonical_form_decorated(graph, leg_psi, edge_psi, kappa)
        self.graph = cg
        self.leg_psi = clp
        self.edge_psi = cep
        self.kappa = ck
        self.key = key

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
            self._accumulate(dg, Fraction(coeff))

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
        return TautClass(self.g, self.n, ((dg, c * v) for dg, v in self.terms.values()))

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
            graph_data = _json_value(rec, dict, "terms").get("graph")
            graph = graph_from_json(graph_data)
            err = validate(graph, g, n)
            if err is not None:
                raise ValueError(f"invalid term graph: {err}")
            # Map original half-edge ids to the rebuilt layout.
            owner = {}
            for v, vrec in enumerate(graph_data["vertices"]):
                for h in vrec["half_edges"]:
                    owner[h] = v
            psi_orig = {
                int(h): _json_value(e, int, "psi")
                for h, e in _json_value(rec.get("psi", {}), dict, "psi").items()
            }
            # Edge list in the rebuilt graph is sorted; recover which edge
            # each original pair became by matching sorted vertex pairs with
            # psi decorations carried along.
            decorated_pairs = []
            for h1, h2 in graph_data["edges"]:
                u, v = owner[h1], owner[h2]
                p1, p2 = psi_orig.pop(h1, 0), psi_orig.pop(h2, 0)
                if (u, v) > (v, u):
                    u, v, p1, p2 = v, u, p2, p1
                decorated_pairs.append(((u, v), (p1, p2)))
            decorated_pairs.sort(key=lambda x: (x[0], x[1]))
            edge_psi = [p for _, p in decorated_pairs]
            leg_psi = [0] * n
            for rec_leg in graph_data["legs"]:
                leg_psi[rec_leg["marking"] - 1] = psi_orig.pop(rec_leg["half_edge"], 0)
            if psi_orig:
                raise ValueError(f"psi exponents on unknown half-edges: {sorted(psi_orig)}")
            kappa = [() for _ in range(graph.n_vertices)]
            for v, k in _json_value(rec.get("kappa", {}), dict, "kappa").items():
                if not 0 <= int(v) < graph.n_vertices:
                    raise ValueError(f"kappa: vertex {v} is not in the graph")
                exponents = _json_value(k, list, "kappa")
                kappa[int(v)] = tuple(_json_value(e, int, "kappa") for e in exponents)
            dg = DecoratedGraph(graph, leg_psi, edge_psi, kappa)
            out._accumulate(dg, rat_from_str(_json_value(rec.get("coeff"), str, "coeff")))
        return out


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


def alpha_class() -> TautClass:
    """Genus-2 double-loop stratum class: one-eighth of its pushforward."""
    graph = StableGraph([0], [(0, 0), (0, 0)])
    return TautClass(2, 0, [(DecoratedGraph(graph), Fraction(1, 8))])


def beta_class() -> TautClass:
    """Genus-2 loop stratum with one psi: pushforward of psi on a loop half."""
    graph = StableGraph([1], [(0, 0)])
    dg = DecoratedGraph(graph, (), [(1, 0)], ())
    return TautClass(2, 0, [(dg, Fraction(1))])


# -- truncated decoration series --------------------------------------
#
# Working space for building class contributions graph by graph.  A
# monomial is (leg psi exponents, edge psi exponent pairs, kappa multisets);
# a series maps monomials to rational coefficients, truncated above a
# degree cap.  Edges contribute no degree here: series degree is psi plus
# kappa weight only, the edge count being fixed by the host graph.  A graph
# sum builds each graph once: one ``series_degree_mul`` of its weighted edge
# monomials by ``series_vertex_leg_exp`` into the one degree it needs, then
# ``emit_series``.

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


def _monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    l1, e1, k1 = m1
    l2, e2, k2 = m2
    legs = tuple(a + b for a, b in zip(l1, l2))
    edges = tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(e1, e2))
    kappa = tuple(tuple(sorted(x + y)) for x, y in zip(k1, k2))
    return legs, edges, kappa


def series_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        d1 = monomial_degree(m1)
        for m2, c2 in b.items():
            if d1 + monomial_degree(m2) > cap:
                continue
            m = _monomial_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def series_degree_mul(a: dict, b: dict, d: int, times: Callable = operator.mul) -> dict:
    """The degree-``d`` part of ``a * b``.

    ``b`` is grouped by degree once, and each monomial of ``a`` meets only
    the monomials of ``b`` of the complementary degree.  ``times`` gives
    the product of two coefficients; the default multiplies them, and a
    caller whose coefficients are vectors can keep one number of each
    product instead.
    """
    by_degree: dict = {}
    for m2, c2 in b.items():
        by_degree.setdefault(monomial_degree(m2), []).append((m2, c2))
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in by_degree.get(d - monomial_degree(m1), ()):
            m = _monomial_mul(m1, m2)
            out[m] = out.get(m, 0) + times(c1, c2)
    return {m: c for m, c in out.items() if c != 0}


def series_exp(x: dict, graph: StableGraph, cap: int) -> dict:
    """Exponential of a series with no constant term, truncated at ``cap``."""
    if any(monomial_degree(m) == 0 for m in x):
        raise ValueError("exponent series must have no degree-0 part")
    out = series_unit(graph)
    power = series_unit(graph)
    for p in range(1, cap + 1):
        power = series_mul(power, x, cap)
        if not power:
            break
        inv = Fraction(1, factorial(p))
        for m, c in power.items():
            out[m] = out.get(m, Fraction(0)) + inv * c
    return {m: c for m, c in out.items() if c != 0}


def series_vertex_leg_exp(graph: StableGraph, leg_weights, kappa_weights, cap: int) -> dict:
    """``exp`` of all leg and vertex weights at once, truncated at ``cap``.

    ``leg_weights[i][m - 1]`` is the coefficient of ``psi_i^m`` on leg ``i``
    and ``kappa_weights[m - 1]`` that of ``kappa_m`` at every vertex.
    """
    x: dict = {}
    for m, c in enumerate(kappa_weights[:cap], 1):
        if c:
            for v in range(graph.n_vertices):
                x[kappa_monomial(graph, v, m)] = c
    for i, weights in enumerate(leg_weights):
        for m, c in enumerate(weights[:cap], 1):
            if c:
                x[psi_leg_monomial(graph, i, m)] = c
    return series_exp(x, graph, cap)


def emit_series(acc: list, graph: StableGraph, x: dict, scalar: Fraction) -> None:
    """Append ``scalar`` times each monomial of ``x`` on ``graph`` to ``acc`` as a term."""
    for (legs, edges, kappa), c in x.items():
        acc.append((DecoratedGraph(graph, legs, edges, kappa), scalar * c))


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
