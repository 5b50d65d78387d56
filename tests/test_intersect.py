"""Tests for the numeric pairing engine.

The correlator recursion and the kappa reduction are validated against
independent closed forms before they are trusted anywhere else:

* the DVV-only recursion of ``tests/oracles.py``, on every exponent
  vector with g <= 4, n <= 6 and dimension at most 14;
* genus 0: <tau_{d_1} ... tau_{d_n}>_0 = (n-3)! / prod d_i!;
* the string and dilaton equations, on the oracle's values (the library
  applies them itself, so checking them on its own values would be
  circular);
* the one-point tower <tau_{3g-2}>_g = 1 / (24^g g!);
* hand-expanded kappa integrals (1/24, 1, 5, 61, 3, 1/24);
* the set-partition closed form of the kappa reduction.

The Hodge-type operations are pinned to Bernoulli closed forms, and the
lambda expressions produced by the graph-sum pipeline are paired against
psi powers and compared with the classical one-pointed Hodge integrals
    int lambda_g psi^{2g-2} = (2^{2g-1} - 1)/2^{2g-1} . |B_{2g}|/(2g)!,
an end-to-end check that is independent of every table in the package.
Whole DR cycles are paired against ``psi_j^{2g-3+n}`` and compared with
the closed form of Buryak, Shadrin, Spitz and Zvonkine (arXiv 1211.5273),
and the indexed pairing is compared with the oracle that integrates
every term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from drtaut import intersect
from drtaut.exact import interpolate
from drtaut.intersect import (
    complementary_psi_monomials,
    double_factorial,
    dr_ab_integral,
    hodge_triple,
    integrate_vertex,
    pair_with_psi,
    psi_sum_lambda,
    socle_integral,
    vanishing_probe,
    witten_correlator,
)
from drtaut.pixton import dr_cycle, genus0_closed, lambda_expression, pixton_class
from drtaut.tautclass import TautClass, delta0, delta_I
from drtaut.weightings import DRVector
from oracles import dvv_correlator, pair_with_psi_unindexed, rpoly


def F(a, b=1):
    return Fraction(a, b)


def factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def sorted_tuples(total: int, slots: int):
    """Non-decreasing exponent tuples with the given sum."""
    for combo in combinations_with_replacement(range(total + 1), slots):
        if sum(combo) == total:
            yield combo


# -- double factorial -------------------------------------------------


def test_double_factorial_values():
    assert [double_factorial(j) for j in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]


def test_double_factorial_rejects_even_and_small():
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-3)


# -- Witten correlators -----------------------------------------------


def test_correlator_seed_values():
    assert witten_correlator(0, (0, 0, 0)) == 1
    assert witten_correlator(1, (1,)) == F(1, 24)


def test_correlator_dimension_and_stability_gates():
    assert witten_correlator(0, (1, 0, 0)) == 0
    assert witten_correlator(1, (0,)) == 0
    assert witten_correlator(0, (0, 0)) == 0


@pytest.mark.parametrize("g, n", [(1, 0), (0, 2), (-1, 4)])
def test_integrate_vertex_rejects_unstable_type(g, n):
    with pytest.raises(ValueError, match="stable"):
        integrate_vertex(g, n, (0,) * n)


def test_correlator_rejects_negative_exponents():
    with pytest.raises(ValueError):
        witten_correlator(0, (2, -1, 0))


def test_correlator_matches_dvv_oracle(monkeypatch):
    # The library strips tau_0 and tau_1 by the string and dilaton
    # equations before DVV; the oracle runs DVV on everything.  The
    # library's split sum visits only the left genus the dimension fixes,
    # so, from a cold cache, every correlator the recursion asks for is
    # stable and in its dimension; the oracle sums over every split genus.
    calls = []
    cached = intersect._correlator
    cached.cache_clear()

    def recorded(g, ds):
        calls.append((g, ds))
        return cached(g, ds)

    monkeypatch.setattr(intersect, "_correlator", recorded)
    checked = 0
    for g in range(0, 6):
        for n in range(1, 7):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or dim > 14:
                continue
            for ds in sorted_tuples(dim, n):
                assert witten_correlator(g, ds) == dvv_correlator(g, ds), (g, ds)
                checked += 1
    assert checked == 382
    assert calls
    for g, ds in calls:
        assert g >= 0 and 2 * g - 2 + len(ds) > 0 and sum(ds) == 3 * g - 3 + len(ds), (g, ds)


def test_correlator_genus0_closed_form():
    # <tau_{d_1} ... tau_{d_n}>_0 = (n-3)! / prod d_i! when sum d_i = n-3.
    for n in range(3, 8):
        for ds in sorted_tuples(n - 3, n):
            expected = F(factorial(n - 3))
            for d in ds:
                expected /= factorial(d)
            assert witten_correlator(0, ds) == expected, (n, ds)


def test_string_equation():
    # <tau_0 prod tau_{d_i}>_g = sum_j <... tau_{d_j - 1} ...>_g on all
    # stable types with dim at most 6.
    checked = 0
    for g in range(0, 4):
        for n in range(1, 7):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 6 or 2 * g - 2 + n <= 0:
                continue
            for ds in sorted_tuples(dim, n):
                left = dvv_correlator(g, (0,) + ds)
                right = Fraction(0)
                for j in range(n):
                    if ds[j] >= 1:
                        right += dvv_correlator(
                            g, tuple(sorted(ds[:j] + (ds[j] - 1,) + ds[j + 1 :]))
                        )
                assert left == right, (g, ds)
                checked += 1
    assert checked > 40


def test_dilaton_equation():
    for g in range(0, 4):
        for n in range(1, 7):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > 6 or 2 * g - 2 + n <= 0:
                continue
            for ds in sorted_tuples(dim, n):
                left = dvv_correlator(g, tuple(sorted((1,) + ds)))
                assert left == (2 * g - 2 + n) * dvv_correlator(g, ds), (g, ds)


def test_correlator_one_point_tower():
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    for g in range(1, 5):
        assert witten_correlator(g, (3 * g - 2,)) == F(1, 24**g * factorial(g))


def test_correlator_known_small_values():
    assert witten_correlator(0, (2, 0, 0, 0, 0)) == 1
    assert witten_correlator(0, (1, 1, 0, 0, 0)) == 2
    assert witten_correlator(1, (0, 2)) == F(1, 24)
    assert witten_correlator(1, (1, 1)) == F(1, 24)
    assert witten_correlator(2, (2, 3)) == F(29, 5760)


# -- kappa reduction --------------------------------------------------


def test_kappa_known_values():
    assert integrate_vertex(1, 1, (0,), (1,)) == F(1, 24)
    assert integrate_vertex(0, 4, (0,) * 4, (1,)) == 1
    assert integrate_vertex(0, 5, (0,) * 5, (1, 1)) == 5
    assert integrate_vertex(0, 6, (0,) * 6, (1, 1, 1)) == 61
    assert integrate_vertex(0, 5, (1, 0, 0, 0, 0), (1,)) == 3
    assert integrate_vertex(1, 2, (0, 0), (2,)) == F(1, 24)


def test_kappa_dimension_gate():
    assert integrate_vertex(0, 4, (0,) * 4, (2,)) == 0
    assert integrate_vertex(1, 1, (1,), (1,)) == 0


def test_kappa_validation():
    with pytest.raises(ValueError):
        integrate_vertex(0, 4, (0, 0, 0), (1,))
    with pytest.raises(ValueError):
        integrate_vertex(0, 4, (0, 0, 0, 0), (0,))
    with pytest.raises(ValueError):
        integrate_vertex(0, 2, (0, 0), ())


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def test_kappa_set_partition_closed_form():
    # Peeling kappa factors one at a time is equivalent to the closed
    # form: sum over set partitions of the kappa indices, each block B
    # becoming tau_{(sum B) + 1} at its own extra marking, with sign
    # (-1)^{k - #blocks} and no multiplicities.
    cases = [
        (0, 4, (0, 0, 0, 0), (1,)),
        (0, 5, (0, 0, 0, 0, 0), (1, 1)),
        (0, 6, (0, 0, 0, 0, 0, 0), (1, 1, 1)),
        (0, 6, (1, 0, 0, 0, 0, 0), (1, 2)),
        (1, 2, (0, 0), (1, 1)),
        (1, 1, (0,), (1,)),
        (1, 3, (0, 0, 0), (1, 2)),
        (2, 1, (1,), (1, 1, 1)),
        (2, 2, (0, 2), (1, 2)),
    ]
    for g, n, psis, kappas in cases:
        direct = integrate_vertex(g, n, psis, kappas)
        total = Fraction(0)
        for parts in set_partitions(list(kappas)):
            extra = tuple(sum(block) + 1 for block in parts)
            sign = (-1) ** (len(kappas) - len(parts))
            total += sign * witten_correlator(g, psis + extra)
        assert direct == total, (g, n, psis, kappas)


# -- pairing classes with psi monomials -------------------------------


def test_pair_boundary_classes():
    # delta_0 on the one-pointed torus integrates to 1/2; the raw
    # pushforward of the point class (twice delta_0) to 1.
    d0 = delta0(1)
    assert pair_with_psi(d0, [0]) == F(1, 2)
    assert pair_with_psi(2 * d0, [0]) == 1


def test_pair_dr_cycle_zero_vector():
    # The cycle for (0) on the torus equals -lambda_1, so its integral
    # against nothing is -1/24.
    assert pair_with_psi(dr_cycle(DRVector(1, (0,))), [0]) == F(-1, 24)


def test_pair_genus0_degree1_vanishing():
    cls = pixton_class(DRVector(0, (1, 1, -1, -1)), 1)
    assert pair_with_psi(cls, [0, 0, 0, 0]) == 0


def test_pair_linearity():
    x = delta0(2)
    y = delta_I(2, (1, 2))
    exps = [1, 0]
    combo = 3 * x + F(-7, 2) * y
    assert pair_with_psi(combo, exps) == 3 * pair_with_psi(x, exps) + F(-7, 2) * pair_with_psi(y, exps)


def test_pair_symmetry_under_relabeling():
    base = (2, 1, -3)
    exps = (1, 0, 0)
    reference = pair_with_psi(genus0_closed(base, 1), exps)
    for perm in permutations(range(3)):
        a = tuple(base[i] for i in perm)
        b = tuple(exps[i] for i in perm)
        assert pair_with_psi(genus0_closed(a, 1), b) == reference


def test_pair_validation():
    cls = delta0(1)
    with pytest.raises(ValueError):
        pair_with_psi(cls, [])
    with pytest.raises(ValueError):
        pair_with_psi(cls, [-1])


def _all_complementary(cls):
    return [m for d in sorted(cls.degrees()) for m in complementary_psi_monomials(cls.g, cls.n, d)]


def _mixed_degree_class():
    return pixton_class(DRVector(2, (2, 1, -3)), 2) + pixton_class(DRVector(2, (2, 1, -3)), 3)


def _twisted_class():
    # Twisted data brings kappa decorations into the class.
    return pixton_class(DRVector(2, (3, 1), 1), 2)


PAIRING_CASES = {
    "dr_cycle": lambda: dr_cycle(DRVector(2, (2, 1, -3))),
    "add": lambda: dr_cycle(DRVector(2, (1, -1))) + _twisted_class(),
    "scale": lambda: F(-5, 3) * dr_cycle(DRVector(2, (2, 1, -3))),
    "degree_part": lambda: _mixed_degree_class().degree_part(2),
    "mixed_degrees": _mixed_degree_class,
    "from_json": lambda: TautClass.from_json(_twisted_class().to_json()),
    "lambda": lambda: lambda_expression(2, 1),
    "legless_dr": lambda: dr_cycle(DRVector(3, (2, -1, -1))),
    "legless_lambda": lambda: lambda_expression(3, 1),
    # Kappa on vertices that carry legs, three markings.
    "twisted_three_point": lambda: pixton_class(DRVector(2, (3, 1, 1), 1), 2),
    "genus0_six_point": lambda: genus0_closed((3, 2, 1, -1, -2, -3), 2),
}


@pytest.mark.parametrize("name", list(PAIRING_CASES))
def test_pair_matches_unindexed_oracle(name):
    cls = PAIRING_CASES[name]()
    monomials = _all_complementary(cls)
    assert monomials
    for exps in monomials:
        assert pair_with_psi(cls, exps) == pair_with_psi_unindexed(cls, exps), exps


@pytest.mark.parametrize("name", ["legless_dr", "legless_lambda"])
def test_legless_cases_have_legless_vertices(name):
    # The pairing index folds these vertices into the coefficients.
    cls = PAIRING_CASES[name]()
    assert any(len(set(dec.graph.legs)) < dec.graph.n_vertices for dec, _ in cls.items())


def test_twisted_case_has_kappa_at_vertices_with_legs():
    cls = PAIRING_CASES["twisted_three_point"]()
    assert any(dec.kappa[v] for dec, _ in cls.items() for v in set(dec.graph.legs))


def test_pair_reads_the_vertex_tables(monkeypatch):
    # A second pairing with the same monomials reads every vertex integral
    # from the class's tables, so it needs no integral at all.
    cls = dr_cycle(DRVector(3, (2, -1, -1)))
    monomials = complementary_psi_monomials(3, 3, 3)
    assert len(monomials) == 28
    first = [pair_with_psi(cls, m) for m in monomials]
    assert first == [pair_with_psi_unindexed(cls, m) for m in monomials]

    def fail(*args):
        raise AssertionError(f"vertex integral {args} not read from the table")

    monkeypatch.setattr(intersect, "_vertex_integral", fail)
    assert [pair_with_psi(cls, m) for m in monomials] == first


def test_pair_index_not_stale():
    # Pairing T builds its index; T + U and a T changed in place must not
    # read it.
    T = dr_cycle(DRVector(2, (1, -1)))
    U = _twisted_class()
    monomials = _all_complementary(T)
    first = [pair_with_psi(T, m) for m in monomials]
    assert first == [pair_with_psi_unindexed(T, m) for m in monomials]
    total = T + U
    assert [pair_with_psi(total, m) for m in monomials] == [
        pair_with_psi_unindexed(total, m) for m in monomials
    ]
    for dec, coeff in U.items():
        T._accumulate(dec, coeff)
    assert T == total
    assert [pair_with_psi(T, m) for m in monomials] == [
        pair_with_psi_unindexed(total, m) for m in monomials
    ]


def _bssz_coefficient(g, A, j):
    """[z^{2g}] prod_{i != j} S(a_i z) / S(z) with S(z) = sinh(z/2) / (z/2)."""

    def S(a):
        # Even coefficients only: S(a z) = sum_k (a z / 2)^{2k} / (2k + 1)!.
        return [F(a ** (2 * k), 4**k * factorial(2 * k + 1)) for k in range(g + 1)]

    def mul(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(g + 1)]

    num = [F(1)] + [F(0)] * g
    for i, a in enumerate(A):
        if i != j:
            num = mul(num, S(a))
    inv = [F(1)] + [F(0)] * g  # 1 / S(z), S having constant term 1
    s = S(1)
    for k in range(1, g + 1):
        inv[k] = -sum(s[i] * inv[k - i] for i in range(1, k + 1))
    return mul(num, inv)[g]


@pytest.mark.parametrize(
    "g, A, last",
    [
        (1, (1, -1), F(0)),
        (2, (2, -1, -1), F(1, 120)),
        (3, (2, -1, -1), F(1, 5040)),
        (2, (1, 1, -1, -1), F(1, 360)),
        (2, (0, 0), F(7, 5760)),
        (2, (3, -1, -1, -1), F(7, 120)),
        (3, (3, -3), F(1, 1080)),
        (2, (2, 2, -1, -3), F(2, 45)),
        (3, (2, 1, -1, -2), F(41, 64512)),
    ],
)
def test_dr_cycle_against_bssz(g, A, last):
    # Buryak-Shadrin-Spitz-Zvonkine: int DR_g(A) psi_j^{2g-3+n}
    # = [z^{2g}] prod_{i != j} S(a_i z) / S(z), at every marking j.
    cls = dr_cycle(DRVector(g, A))
    n = len(A)
    assert _bssz_coefficient(g, A, n - 1) == last
    for j in range(n):
        exps = [0] * n
        exps[j] = 2 * g - 3 + n
        assert pair_with_psi(cls, exps) == _bssz_coefficient(g, A, j), j


def test_lambda_psi_tower():
    # int_{Mbar_{g,1}} lambda_g psi^{2g-2} = (2^{2g-1}-1)/2^{2g-1} . |B_{2g}|/(2g)!
    # evaluated end to end through the graph-sum pipeline and the
    # correlator engine.  Classical values: 1/24, 7/5760, 31/967680, and
    # at genus 5 (511/512) . (5/66)/10! = 73/3503554560.
    expected = {1: F(1, 24), 2: F(7, 5760), 3: F(31, 967680), 5: F(73, 3503554560)}
    for g, value in expected.items():
        cls = lambda_expression(g, 1)
        assert pair_with_psi(cls, [2 * g - 2]) == value


def test_lambda4_psi_pairing():
    # Genus 4: (127/128) . (1/30)/8! = 127/154828800.  This pairing is
    # the independent certificate for the genus-4 lambda expression.
    cls = lambda_expression(4, 1)
    assert pair_with_psi(cls, [6]) == F(127, 154828800)


# -- vanishing probes -------------------------------------------------


def test_complementary_monomials():
    assert complementary_psi_monomials(0, 4, 1) == [(0, 0, 0, 0)]
    assert complementary_psi_monomials(1, 2, 2) == [(0, 0)]
    mons = complementary_psi_monomials(1, 2, 1)
    assert set(mons) == {(1, 0), (0, 1)}
    assert complementary_psi_monomials(0, 3, 1) == []


def test_vanishing_probe_cases():
    assert vanishing_probe(DRVector(0, (1, 1, -1, -1)), 1) == [F(0)]
    assert vanishing_probe(DRVector(1, (1, -1)), 2) == [F(0)]
    assert vanishing_probe(DRVector(2, (0,)), 3) == [F(0)]


def test_vanishing_probe_explicit_sets():
    values = vanishing_probe(DRVector(1, (1, -1)), 2, exponent_sets=[(1, 0)])
    assert values == [F(0)]


def test_vanishing_probe_requires_degree_above_genus():
    with pytest.raises(ValueError):
        vanishing_probe(DRVector(1, (1, -1)), 1)


@pytest.mark.parametrize(
    "dr, d, message",
    [
        (DRVector(1, (1, -1)), 9, "exceeds dim Mbar_{1,2} = 2"),
        (DRVector(0, (1, -1)), 1, "no stable curves of type (g, n) = (0, 2)"),
        (DRVector(-1, (1,)), 1, "no stable curves of type (g, n) = (-1, 1)"),
    ],
    ids=["above-dimension", "genus-0", "negative-genus"],
)
def test_vanishing_probe_checks_its_window_before_any_class(monkeypatch, dr, d, message):
    # Above dim Mbar_{g,n} no monomial exists, so the probe would return []
    # and report a vacuous vanishing; the type is checked before the
    # degree, whose bound is negative on these unstable types.
    def build(*args, **kwargs):
        raise AssertionError("a class was built")

    monkeypatch.setattr(intersect, "pixton_class", build)
    with pytest.raises(ValueError, match=re.escape(message)):
        vanishing_probe(dr, d)


# -- Hodge pairings ---------------------------------------------------


def test_socle_values():
    assert socle_integral(1, 1, 0) == F(1, 24)
    assert socle_integral(1, 0, 1) == F(1, 24)
    assert socle_integral(2, 1, 1) == F(1, 960)
    assert socle_integral(3, 3, 0) == F(1, 120960)


def test_socle_validation():
    with pytest.raises(ValueError):
        socle_integral(2, 2, 1)
    with pytest.raises(ValueError):
        socle_integral(0, 0, 0)


def test_psi_sum_lambda_values():
    # (B_2/2)/1!!, -(B_4/4)/3!!, (B_6/6)/5!! with 5!! = 15: the genus-3
    # value is (1/252)/15 = 1/3780.  Each call checks the binomial route
    # against the closed form internally.
    assert psi_sum_lambda(1) == F(1, 12)
    assert psi_sum_lambda(2) == F(1, 360)
    assert psi_sum_lambda(3) == F(1, 3780)


def test_hodge_triple_values():
    assert hodge_triple(1) == F(1, 5760)
    assert hodge_triple(2) == F(1, 1451520)
    assert hodge_triple(3) == F(1, 87091200)


def test_dr_ab_values():
    for a in (1, 2, 3):
        assert dr_ab_integral(1, a) == F(a**2, 24)
        assert dr_ab_integral(2, a) == F(a**4, 2880)


def test_dr_ab_even_polynomial():
    # The pairing is an even polynomial in a of degree exactly 2g: fit
    # from a = 0..2g+2 and confirm two held-out evaluations.
    for g in (1, 2):
        samples = [
            (Fraction(a), dr_ab_integral(g, a)) for a in range(0, 2 * g + 3)
        ]
        poly = rpoly(interpolate(samples))
        assert poly.degree == 2 * g
        assert all(
            poly.coefficient(j) == 0 for j in range(1, 2 * g + 1, 2)
        )
        for held_out in (2 * g + 3, 2 * g + 4):
            assert poly(Fraction(held_out)) == dr_ab_integral(g, held_out)
