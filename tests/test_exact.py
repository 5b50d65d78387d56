from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drtaut.exact import (
    bernoulli_number,
    bernoulli_poly,
    forward_differences,
    interpolate,
    newton_numerators,
    rat_from_str,
    rat_to_str,
)

from oracles import interpolate as lagrange_interpolate
from oracles import RPoly, rpoly

F = Fraction


class TestBernoulliNumbers:
    def test_small_values(self):
        expected = {
            0: F(1),
            1: F(-1, 2),
            2: F(1, 6),
            3: F(0),
            4: F(-1, 30),
            5: F(0),
            6: F(1, 42),
            8: F(-1, 30),
            10: F(5, 66),
            12: F(-691, 2730),
        }
        for m, val in expected.items():
            assert bernoulli_number(m) == val

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    @given(st.integers(min_value=3, max_value=41).filter(lambda m: m % 2 == 1))
    def test_odd_vanish(self, m):
        assert bernoulli_number(m) == 0


class TestBernoulliPolynomials:
    def test_b2_closed_form(self):
        # B_2(x) = x^2 - x + 1/6
        for x in [F(0), F(1), F(1, 2), F(2, 7), F(-3, 5)]:
            assert bernoulli_poly(2, x) == x * x - x + F(1, 6)

    def test_b3_at_half(self):
        assert bernoulli_poly(3, F(1, 2)) == 0

    def test_value_at_zero_is_bernoulli_number(self):
        for m in range(12):
            assert bernoulli_poly(m, F(0)) == bernoulli_number(m)

    def test_value_at_one(self):
        # B_m(1) = B_m for m != 1, and B_1(1) = +1/2.
        assert bernoulli_poly(1, F(1)) == F(1, 2)
        for m in [0, 2, 3, 4, 5, 6, 7, 8]:
            if m != 1:
                assert bernoulli_poly(m, F(1)) == bernoulli_number(m)

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, m, w, r):
        # B_m(1 - x) = (-1)^m B_m(x)
        x = F(w, r)
        assert bernoulli_poly(m, 1 - x) == (-1) ** m * bernoulli_poly(m, x)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_multiplication_theorem(self, m, r):
        # sum_{w<r} B_m(w/r) = r^{1-m} B_m
        total = sum(bernoulli_poly(m, F(w, r)) for w in range(r))
        assert total == F(1, r ** (m - 1)) * bernoulli_number(m)

    def test_power_sum_linear_coefficient(self):
        # sum_{a<r} a^m = (B_{m+1}(r) - B_{m+1})/(m+1); its linear
        # coefficient in r is B_m, the fact the extraction pipeline rests on.
        for m in range(1, 8):
            samples = []
            for r in range(1, m + 4):
                samples.append((r, F(sum(a**m for a in range(r)))))
            poly = rpoly(interpolate(samples))
            assert poly.coefficient(0) == 0
            assert poly.coefficient(1) == bernoulli_number(m)


class TestRPoly:
    def test_normalization_and_degree(self):
        p = RPoly([F(1), F(0), F(0)])
        assert p.degree == 0
        assert RPoly([F(0)]).degree == -1

    def test_eval_and_terms(self):
        p = RPoly([F(-1, 6), F(0), F(1, 6)])
        assert p(5) == 4
        assert p(7) == 8
        assert p.constant_term == F(-1, 6)
        assert p.coefficient(2) == F(1, 6)
        assert p.coefficient(9) == 0

    def test_divisibility_and_shift(self):
        p = RPoly([F(0), F(0), F(3), F(1)])
        assert p.divisible_by(2)
        assert not p.divisible_by(3)
        q = p.shift_down(2)
        assert q == RPoly([F(3), F(1)])
        with pytest.raises(ValueError):
            p.shift_down(3)


class TestInterpolate:
    def test_spec_example(self):
        fit = interpolate([(5, F(4)), (6, F(35, 6)), (7, F(8))])
        assert fit == ([-1, 0, 1], 6)
        assert rpoly(fit) == RPoly([F(-1, 6), F(0), F(1, 6)])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            interpolate([(3, F(1)), (3, F(2))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            interpolate([])

    @pytest.mark.parametrize(
        "nodes", [(1, 3), (2, 3, 5), (F(1, 2), F(3, 2)), (0, 1, 1, 2)]
    )
    def test_non_consecutive_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="consecutive"):
            interpolate([(x, F(x)) for x in nodes])

    def test_integral_fraction_nodes_in_any_order(self):
        samples = [(F(7), F(8)), (F(5), F(4)), (F(6), F(35, 6))]
        assert interpolate(samples) == ([-1, 0, 1], 6)

    def test_differences_and_newton_form(self):
        # r^2 at 3, 4, 5, 6: differences 9, 7, 2, 0.
        diffs, den = forward_differences([9, 16, 25, 36])
        assert (diffs, den) == ([9, 7, 2, 0], 1)
        assert rpoly(newton_numerators(diffs, den, 3)) == RPoly([F(0), F(0), F(1)])

    @given(
        st.integers(-20, 20),
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=8),
            min_size=1,
            max_size=7,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_lagrange(self, x0, values, rng):
        samples = [(x0 + i, y) for i, y in enumerate(values)]
        expected = lagrange_interpolate(samples)
        rng.shuffle(samples)
        assert rpoly(interpolate(samples)) == expected

    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=8),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, coeffs):
        p = RPoly(coeffs)
        nodes = range(2, 2 + len(coeffs))
        q = rpoly(interpolate([(r, p(r)) for r in nodes]))
        assert q == p


class TestRationalStrings:
    @given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, x):
        assert rat_from_str(rat_to_str(x)) == x

    def test_integer_form(self):
        assert rat_to_str(F(4, 2)) == "2"
        assert rat_from_str("-7/3") == F(-7, 3)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            rat_from_str("1/0")
