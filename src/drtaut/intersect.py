"""Numeric pairing engine for formal tautological classes.

This module turns the formal decorated-graph sums of :mod:`drtaut.tautclass`
into rational numbers by integrating against monomials in the cotangent
classes at the markings.  The ingredients are classical:

* psi-class intersection numbers (Witten correlators) on the moduli of
  stable curves, from the two seed values ``<tau_0^3>_0 = 1`` and
  ``<tau_1>_1 = 1/24``: the string equation strips a ``tau_0``, then the
  dilaton equation a ``tau_1``, and only a correlator whose exponents are
  all at least 2 goes through the KdV / Virasoro recursion of
  Dijkgraaf-Verlinde-Verlinde;
* reduction of kappa decorations to psi classes at extra markings via the
  forgetful pushforward relation ``kappa_b = pi_*(psi^{b+1})``;
* Faber's socle formula for the Hodge pairings
  ``int psi_1^p psi_2^q lambda_g lambda_{g-1}`` on the two-pointed space,
  which lets the lambda-class applications be evaluated without ever
  representing a lambda class as a graph sum.

A pairing such as :func:`pair_with_psi` treats each decorated graph as the
pushforward of a product of vertex moduli: every half-edge (edge end or
marking) is a marked point of its vertex space, the integral factors over
vertices, and no automorphism corrections are applied beyond those already
stored in the class coefficients.  A term pairs to zero unless, at every
vertex, the monomial's exponents on the legs there make up exactly the
psi degree the vertex still lacks; so each class keeps, built on its first
pairing, its terms grouped by where the legs sit and what each vertex
lacks, and a monomial visits only the one group it can meet.  The index
holds each coefficient as an integer numerator and denominator, with the
integrals of the vertices that carry no leg folded in, and numbers each
distinct vertex with legs once; one value table per class maps such a
vertex and the exponents a monomial brings it to its integral, so a
pairing is integer products of table lookups, and one ``Fraction`` at the
end.

The higher-level verification routines (:func:`vanishing_probe`,
:func:`hodge_triple`, :func:`dr_ab_integral`, :func:`psi_sum_lambda`)
each compute a quantity by two independent routes and raise
``ArithmeticError`` if the routes disagree, the Hodge routines through
the one comparison :func:`_agree`, so a passing call is itself a
consistency proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd
from operator import add
from typing import Iterable, Sequence

from .exact import bernoulli_number, interpolate
from .graphs import require_stable_type
from .pixton import pixton_class
from .tautclass import TautClass
from .weightings import DRVector

__all__ = [
    "double_factorial",
    "witten_correlator",
    "integrate_vertex",
    "pair_with_psi",
    "complementary_psi_monomials",
    "vanishing_probe",
    "socle_integral",
    "psi_sum_lambda",
    "hodge_triple",
    "dr_ab_integral",
]


def double_factorial(j: int) -> int:
    """(j)!! for odd j >= -1, with (-1)!! = 1."""
    if j < -1 or j % 2 == 0:
        raise ValueError(f"odd argument >= -1 required, got {j}")
    out = 1
    while j > 1:
        out *= j
        j -= 2
    return out


# -- Witten correlators -----------------------------------------------
#
# <tau_{d_1} ... tau_{d_n}>_g = int_{Mbar_{g,n}} psi_1^{d_1} ... psi_n^{d_n}
# is nonzero only when sum d_i = 3g - 3 + n.  Past the two seeds, an
# insertion tau_0 is removed by the string equation
#
#   <tau_0 prod_j tau_{d_j}>_g = sum_j <tau_{d_j - 1} prod_{i!=j} tau_{d_i}>_g,
#
# an insertion tau_1 by the dilaton equation
#
#   <tau_1 prod_{j=1}^{m} tau_{d_j}>_g = (2g - 2 + m) <prod_j tau_{d_j}>_g,
#
# and when every index is at least 2 the DVV recursion removes the largest
# insertion tau_{k+1}:
#
#   (2k+3)!! <tau_{k+1} prod_j tau_{d_j}>_g
#     = sum_j ((2(k+d_j)+1)!! / (2d_j-1)!!) <tau_{k+d_j} prod_{i!=j}>_g
#     + 1/2 sum_{a+b=k-1} (2a+1)!! (2b+1)!! (
#           <tau_a tau_b prod_j>_{g-1}
#         + sum over genus splits and ordered marking splits of
#           <tau_a ...>_{g'} <tau_b ...>_{g''} )
#
# In a split, the dimension fixes the genus: the left factor <tau_a S>_{g'}
# is 0 unless sum(left) = 3g' - 3 + |left|, so only
# g' = (sum(left) + 3 - |left|) / 3 is visited, and only when it is an
# integer in [0, g]; the right factor is then in its dimension at g - g'.
#
# The seeds are exactly the stable types whose string or dilaton reduction
# would be unstable, so the two equations apply to everything else.


@lru_cache(maxsize=None)
def _correlator(g: int, ds: tuple[int, ...]) -> Fraction:
    n = len(ds)
    if g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if sum(ds) != 3 * g - 3 + n:
        return Fraction(0)
    if g == 0 and n == 3:
        return Fraction(1)
    if g == 1 and n == 1:
        return Fraction(1, 24)
    # ds is sorted ascending, so ds[0] is the smallest exponent.
    rest = ds[1:]
    if ds[0] == 0:
        # Lowering the first entry of a run of equal values keeps rest
        # sorted; the run's other entries give the same correlator.
        total = Fraction(0)
        for j, dj in enumerate(rest):
            if dj and (j == 0 or rest[j - 1] != dj):
                total += rest.count(dj) * _correlator(g, rest[:j] + (dj - 1,) + rest[j + 1 :])
        return total
    if ds[0] == 1:
        return (2 * g - 3 + n) * _correlator(g, rest)
    k = ds[-1] - 1
    rest = ds[:-1]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        shifted = tuple(sorted(rest[:j] + rest[j + 1 :] + (k + dj,)))
        total += Fraction(
            double_factorial(2 * (k + dj) + 1), double_factorial(2 * dj - 1)
        ) * _correlator(g, shifted)
    for a in range(k):
        b = k - 1 - a
        w = Fraction(double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2)
        total += w * _correlator(g - 1, tuple(sorted(rest + (a, b))))
        for m in range(len(rest) + 1):
            for picked in combinations(range(len(rest)), m):
                left = [rest[i] for i in picked] + [a]
                g1, off = divmod(sum(left) + 3 - len(left), 3)
                if off or not 0 <= g1 <= g:
                    continue
                left.sort()
                chosen = set(picked)
                right = [rest[i] for i in range(len(rest)) if i not in chosen]
                right.append(b)
                right.sort()
                total += w * _correlator(g1, tuple(left)) * _correlator(g - g1, tuple(right))
    return total / double_factorial(2 * k + 3)


def witten_correlator(g: int, exponents: Iterable[int]) -> Fraction:
    """The psi intersection number <tau_{d_1} ... tau_{d_n}>_g.

    Returns 0 when the exponents miss the dimension 3g - 3 + n or the
    pair (g, n) is unstable.
    """
    ds = tuple(int(d) for d in exponents)
    if any(d < 0 for d in ds):
        raise ValueError("psi exponents must be non-negative")
    if g < 0:
        raise ValueError("genus must be non-negative")
    return _correlator(g, tuple(sorted(ds)))


# -- kappa reduction --------------------------------------------------
#
# Pushing forward along the map forgetting one extra marking turns a
# kappa_b factor into psi^{b+1} at the new point, at the price of
# correction terms: pulled back, kappa_b becomes kappa_b - psi^b at the
# extra point.  Peeling one kappa factor at a time gives
#
#   int prod psi^p . kappa_{b_1} ... kappa_{b_m}
#     = sum_{S subset {1..m-1}} (-1)^{|S|}
#       int_{n+1} prod psi^p . psi_{n+1}^{b_m + 1 + sum_{j in S} b_j}
#                 prod_{j not in S} kappa_{b_j}
#
# which terminates in pure correlators.


@lru_cache(maxsize=None)
def _vertex_integral(g: int, psis: tuple[int, ...], kappas: tuple[int, ...]) -> tuple[int, int]:
    """The integral of sorted ``psis`` and ``kappas`` over ``Mbar_{g,n}``, as ``(numerator, denominator)``."""
    n = len(psis)
    if sum(psis) + sum(kappas) != 3 * g - 3 + n:
        return 0, 1
    if not kappas:
        value = _correlator(g, psis)
    else:
        peeled = kappas[-1]
        rest = kappas[:-1]
        value = Fraction(0)
        for m in range(len(rest) + 1):
            for picked in combinations(range(len(rest)), m):
                chosen = set(picked)
                exponent = peeled + 1 + sum(rest[i] for i in picked)
                kept = tuple(rest[i] for i in range(len(rest)) if i not in chosen)
                num, den = _vertex_integral(g, tuple(sorted(psis + (exponent,))), kept)
                value += Fraction((-1) ** m * num, den)
    return value.numerator, value.denominator


def integrate_vertex(
    g: int,
    n: int,
    psi_exponents: Sequence[int],
    kappa_indices: Iterable[int] = (),
) -> Fraction:
    """int_{Mbar_{g,n}} psi_1^{p_1} ... psi_n^{p_n} kappa_{b_1} ... kappa_{b_m}.

    Zero when the total degree misses dim Mbar_{g,n} = 3g - 3 + n.
    """
    ps = tuple(int(p) for p in psi_exponents)
    ks = tuple(sorted(int(b) for b in kappa_indices))
    if len(ps) != n:
        raise ValueError(f"expected {n} psi exponents, got {len(ps)}")
    if any(p < 0 for p in ps):
        raise ValueError("psi exponents must be non-negative")
    if any(b < 1 for b in ks):
        raise ValueError("kappa indices must be >= 1")
    require_stable_type(g, n)
    return Fraction(*_vertex_integral(g, tuple(sorted(ps)), ks))


# -- pairing decorated-graph classes against psi monomials ------------


def _pairing_index(T: TautClass) -> tuple:
    """``T``'s terms grouped for pairing, with a value table for its vertices with legs.

    Returns ``(groups, vertices, table)``.  ``groups`` is
    ``{legs_at: {needs: [term]}}``: the vertices with legs are numbered by
    their first leg, ``legs_at[k]`` lists the markings at vertex ``k``
    (marking ``i + 1`` as ``i``), and ``needs[k]`` is the psi degree they
    must bring for vertex ``k`` to meet its dimension.  A ``term`` is
    ``(numerator, denominator, ids)``, its coefficient in lowest terms and
    ``ids[k]`` the number of vertex ``k`` in ``vertices``, which lists
    each distinct genus, sorted edge-half exponents, kappa and leg psi
    exponents (those of ``legs_at[k]``) once.  ``table`` is the class's
    one value table, ``{brought: {id: (numerator, denominator)}}``: the
    integral of vertex ``id`` when a monomial brings it the exponents
    ``brought`` at its legs.  It starts empty, and :func:`pair_with_psi`
    fills each entry on first use.

    A vertex with no legs integrates to the same number on every
    monomial, so that integral is folded into the term's coefficient in
    integers, and a term it makes 0 is left out, as is a term whose needs
    are negative somewhere: it never pairs to anything nonzero.  Terms
    that agree on all but the coefficient are merged by cross-multiplying,
    with one ``gcd`` per merged entry at the end.  The index is built on
    the first pairing and kept on ``T`` until its terms change.
    """
    if T._pair_index is None:
        numbering: dict = {}  # legs -> (vertices with legs, legs_at)
        vertex_ids: dict = {}
        merged: dict = {}
        for dec, coeff in T.terms.values():
            graph = dec.graph
            legs = graph.legs
            if legs not in numbering:
                hosts = tuple(dict.fromkeys(legs))
                numbering[legs] = hosts, tuple(tuple(i for i, u in enumerate(legs) if u == v) for v in hosts)
            hosts, legs_at = numbering[legs]
            needs = [3 * g - 3 - sum(kappa) for g, kappa in zip(graph.genera, dec.kappa)]
            at: list[list[int]] = [[] for _ in graph.genera]
            for (u, v), (a, b) in zip(graph.edges, dec.edge_psi):
                needs[u] += 1 - a
                needs[v] += 1 - b
                at[u].append(a)
                at[v].append(b)
            for v, e in zip(legs, dec.leg_psi):
                needs[v] += 1 - e
            if min(needs) < 0:
                continue
            num, den = coeff.numerator, coeff.denominator
            for v, (g, halves, kappa) in enumerate(zip(graph.genera, at, dec.kappa)):
                if v not in hosts:
                    a, b = _vertex_integral(g, tuple(sorted(halves)), kappa)
                    num *= a
                    den *= b
            if num:
                ids = []
                for v, ls in zip(hosts, legs_at):
                    vertex = graph.genera[v], tuple(sorted(at[v])), dec.kappa[v], tuple([dec.leg_psi[i] for i in ls])
                    ids.append(vertex_ids.setdefault(vertex, len(vertex_ids)))
                key = (legs_at, tuple([needs[v] for v in hosts]), tuple(ids))
                prev = merged.get(key)
                if prev is None:
                    merged[key] = num, den
                elif prev[1] == den:
                    merged[key] = prev[0] + num, den
                else:
                    merged[key] = prev[0] * den + num * prev[1], prev[1] * den
        groups: dict = {}
        for (legs_at, needs, ids), (num, den) in merged.items():
            if num:
                common = gcd(num, den)
                groups.setdefault(legs_at, {}).setdefault(needs, []).append((num // common, den // common, ids))
        T._pair_index = groups, list(vertex_ids), {}
    return T._pair_index


def pair_with_psi(T: TautClass, exponents: Sequence[int] = ()) -> Fraction:
    """Integrate a formal class against prod_i psi_i^{b_i} over Mbar_{g,n}.

    Each decorated graph is integrated over the product of its vertex
    moduli: a psi class at marking i restricts to the psi class at the
    corresponding point of its vertex, decorations stay where they are,
    and the coefficients of ``T`` already carry all automorphism and
    pushforward normalization.  The vertices with no legs are integrated
    once, in the pairing index (:func:`_pairing_index`).  Only the terms
    whose every vertex the monomial brings to its dimension are
    integrated, each vertex with legs on its edge-half exponents and
    ``leg_psi[i] + b_i`` at its markings ``i``.  A vertex's integral is
    read from the class's value table, keyed by the exponents the monomial
    brings and the vertex, and computed on the first read, so every term
    and monomial that meets the vertex with the same exponents shares it.
    A term's value is its integer numerator and denominator times those of
    its vertices.  The sum is kept as an integer numerator over one
    running denominator, which a term over the same denominator adds to
    directly, and is one ``Fraction`` at the end, so the result is exact.
    """
    exps = tuple(int(b) for b in exponents)
    if len(exps) != T.n:
        raise ValueError(f"expected {T.n} psi exponents, got {len(exps)}")
    if any(b < 0 for b in exps):
        raise ValueError("psi exponents must be non-negative")
    groups, vertices, table = _pairing_index(T)
    total, scale = 0, 1  # the sum is total / scale
    for legs_at, by_needs in groups.items():
        at = [tuple([exps[i] for i in legs]) for legs in legs_at]
        terms = by_needs.get(tuple(map(sum, at)))
        if not terms:
            continue
        columns = [table.setdefault(brought, {}) for brought in at]
        for num, den, ids in terms:
            for vid, column, brought in zip(ids, columns, at):
                value = column.get(vid)
                if value is None:
                    g, halves, kappa, leg_psi = vertices[vid]
                    psis = [*halves, *map(add, leg_psi, brought)]
                    psis.sort()
                    value = column[vid] = _vertex_integral(g, tuple(psis), kappa)
                a, b = value
                num *= a
                den *= b
            if num:
                if den == scale:
                    total += num
                else:
                    common = gcd(scale, den)
                    total = total * (den // common) + num * (scale // common)
                    scale *= den // common
    return Fraction(total, scale)


def complementary_psi_monomials(g: int, n: int, d: int) -> list[tuple[int, ...]]:
    """All psi exponent tuples of total degree 3g - 3 + n - d, or [] if negative."""
    remaining = 3 * g - 3 + n - d
    if remaining < 0:
        return []

    def spread(total: int, slots: int) -> list[tuple[int, ...]]:
        if slots == 0:
            return [()] if total == 0 else []
        return [
            (lead,) + tail
            for lead in range(total, -1, -1)
            for tail in spread(total - lead, slots - 1)
        ]

    return spread(remaining, n)


def vanishing_probe(
    dr: DRVector,
    d: int,
    exponent_sets: Iterable[Sequence[int]] | None = None,
) -> list[Fraction]:
    """Pair the degree-d class against complementary psi monomials.

    For degree d above the genus the class vanishes, so every returned
    pairing must be the exact rational zero.  The probe computes the
    pairings; asserting them zero is the caller's (or the test suite's)
    job, keeping failures visible.  The type is checked first, then that
    ``genus < d <= dim Mbar_{g,n}``, before any class is built: above the
    dimension no monomial exists, and the vanishing would be vacuous.
    """
    g, n = dr.genus, dr.n
    require_stable_type(g, n)
    if d > 3 * g - 3 + n:
        raise ValueError(f"degree d={d} exceeds dim Mbar_{{{g},{n}}} = {3 * g - 3 + n}: nothing to pair")
    if d <= g:
        raise ValueError(f"vanishing holds for degree > genus; got d={d}, g={g}")
    cls = pixton_class(dr, d)
    if exponent_sets is None:
        sets = complementary_psi_monomials(g, n, d)
    else:
        sets = [tuple(int(b) for b in s) for s in exponent_sets]
    return [pair_with_psi(cls, s) for s in sets]


# -- Hodge pairings via the socle formula -----------------------------


def _require_genus(g: int) -> None:
    """The closed forms below hold for genus at least 1."""
    if g < 1:
        raise ValueError("genus must be at least 1")


def _agree(what: str, where: str, route: Fraction, closed: Fraction) -> Fraction:
    """``closed``, once ``route`` equals it; ``ArithmeticError`` naming both otherwise."""
    if route != closed:
        raise ArithmeticError(f"{what} routes disagree at {where}: {route} vs {closed}")
    return closed


def socle_integral(g: int, p: int, q: int) -> Fraction:
    """int_{Mbar_{g,2}} psi_1^p psi_2^q lambda_g lambda_{g-1} for p + q = g.

    Faber's socle formula:
        (-1)^{g+1} B_{2g} / (2^{2g} g (2p-1)!! (2q-1)!!).
    Valid for g >= 1 including p or q equal to zero.
    """
    _require_genus(g)
    if p < 0 or q < 0 or p + q != g:
        raise ValueError(f"need p + q = {g} with p, q >= 0, got ({p}, {q})")
    sign = Fraction((-1) ** (g + 1))
    return (
        sign
        * bernoulli_number(2 * g)
        / (2 ** (2 * g) * g * double_factorial(2 * p - 1) * double_factorial(2 * q - 1))
    )


def psi_sum_lambda(g: int) -> Fraction:
    """int_{Mbar_{g,2}} (psi_1 + psi_2)^g lambda_g lambda_{g-1}, two ways.

    Route (a) expands the binomial and sums socle integrals; route (b) is
    the closed form (-1)^{g+1} (B_{2g} / 2g) / (2g-1)!!.  The binomial
    route passes through the Pascal-triangle identity
        sum_{p+q=g} 1 / (p! (2p-1)!! q! (2q-1)!!) = 2^{3g-1} / (2g)!
    which is asserted along the way.  ArithmeticError on any mismatch.
    """
    _require_genus(g)
    binomial_route = Fraction(0)
    pascal_sum = Fraction(0)
    for p in range(g + 1):
        q = g - p
        binomial_route += Fraction(
            factorial(g), factorial(p) * factorial(q)
        ) * socle_integral(g, p, q)
        pascal_sum += Fraction(
            1,
            factorial(p)
            * double_factorial(2 * p - 1)
            * factorial(q)
            * double_factorial(2 * q - 1),
        )
    if pascal_sum != Fraction(2 ** (3 * g - 1), factorial(2 * g)):
        raise ArithmeticError(
            f"even binomial identity failed at g={g}: {pascal_sum}"
        )
    closed_route = (
        Fraction((-1) ** (g + 1))
        * bernoulli_number(2 * g)
        / (2 * g)
        / double_factorial(2 * g - 1)
    )
    return _agree("psi-sum", f"g={g}", binomial_route, closed_route)


def _power_sum_linear_coefficient(m: int) -> Fraction:
    """Coefficient of r in the polynomial r -> sum_{a=0}^{r-1} a^m.

    Extracted by exact interpolation of the power sum, the same fitting
    machinery used for the weighting sums; it equals B_m.  The fit is the
    pair ``(nums, den)`` of :func:`~drtaut.exact.interpolate`, and the
    power sum vanishes at ``r = 0``, so a fit with a nonzero constant term
    raises ``ArithmeticError``.
    """
    samples = []
    total = 0
    for r in range(1, m + 3):
        total += (r - 1) ** m
        samples.append((Fraction(r), Fraction(total)))
    nums, den = interpolate(samples)
    if nums[0]:
        raise ArithmeticError(
            f"power sum of exponent {m} fits a nonzero constant term {Fraction(nums[0], den)}"
        )
    return Fraction(nums[1], den)


def hodge_triple(g: int) -> Fraction:
    """int over Mbar_{g+1} of lambda_{g+1} lambda_g lambda_{g-1}, two ways.

    Route (a): the closed form
        -(1/2) (1/(2g)!) (B_{2g}/2g) (B_{2g+2}/(2g+2)).
    Route (b): the one-loop graph evaluation: the r-free part of
    (1/2r) sum_{a<r} a^{2g+2} / (2^{g+1} (g+1)!) times the psi-sum
    pairing, with the Bernoulli number B_{2g+2} extracted from the power
    sum by interpolation.  ArithmeticError on mismatch.
    """
    _require_genus(g)
    closed = (
        Fraction(-1, 2)
        / factorial(2 * g)
        * bernoulli_number(2 * g)
        / (2 * g)
        * bernoulli_number(2 * g + 2)
        / (2 * g + 2)
    )
    extracted = _power_sum_linear_coefficient(2 * g + 2)
    graph_route = (
        Fraction((-1) ** g)
        * (extracted / 2)
        / (2 ** (g + 1) * factorial(g + 1))
        * psi_sum_lambda(g)
    )
    return _agree("triple-product", f"g={g}", graph_route, closed)


def dr_ab_integral(g: int, a: int) -> Fraction:
    """lambda_g lambda_{g-1} paired against the cycle for (a, -a), two ways.

    Route (a): the closed form (-1)^{g+1} a^{2g}/(2g)! . B_{2g}/2g.
    Route (b): only the smooth one-vertex term survives against
    lambda_g lambda_{g-1}; its edge-free contribution is
    a^{2g} / (2^g g!) times the psi-sum pairing.  ArithmeticError on
    mismatch.
    """
    _require_genus(g)
    closed = (
        Fraction((-1) ** (g + 1))
        * Fraction(a ** (2 * g), factorial(2 * g))
        * bernoulli_number(2 * g)
        / (2 * g)
    )
    vertex_route = Fraction(a ** (2 * g), 2**g * factorial(g)) * psi_sum_lambda(g)
    return _agree("cycle-pairing", f"(g={g}, a={a})", vertex_route, closed)
