"""Truncated power-series arithmetic."""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeot.errors import InexactDivision, NonSquareConstantTerm, NonUnitDivisor, OrderExceeded
from treeot.series import Series

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def series_of(values, order=None):
    return Series(values, order=order)


class TestBasics:
    def test_geometric_inverse(self):
        geo = 1 / Series([1, -1], order=8)
        assert geo.coefficients == (Fraction(1),) * 9

    def test_coefficient_bounds(self):
        s = Series([1, 2, 3])
        with pytest.raises(OrderExceeded):
            s[5]

    def test_division_requires_unit(self):
        with pytest.raises(NonUnitDivisor):
            Series([1, 0], order=1) / Series([0, 1], order=1)


class TestDivideByY:
    """A divisor that starts at y^v: the dividend must start there too, both
    drop y^v, and the quotient ends v orders earlier."""

    def test_shared_power_cancels(self):
        dividend, divisor = Series([0, 1, 2], order=4), Series([0, 2, 1], order=4)
        quotient = dividend / divisor
        assert quotient.order == 3
        # (1 + 2y) / (2 + y)
        assert quotient.coefficients == (Fraction(1, 2), Fraction(3, 4), Fraction(-3, 8),
                                         Fraction(3, 16))
        # y^4 of quotient * divisor reads quotient[0..3] only, so a zero pad is exact.
        assert Series(quotient.coefficients, order=4) * divisor == dividend

    def test_scaled_quotient_stays_on_integers(self):
        # (2 + y/3) / (1 + 2y/3) = 2 - y + 2/3 y^2 - 4/9 y^3, integers over 3^k.
        dividend = Series.scaled([0, 2, Fraction(1, 3)], 3, 4)
        divisor = Series.scaled([0, 1, Fraction(2, 3)], 3, 4)
        quotient = dividend / divisor
        assert quotient.base == 3 and quotient.order == 3
        assert quotient == Series(dividend.coefficients) / Series(divisor.coefficients)
        assert quotient.coefficients == (2, -1, Fraction(2, 3), Fraction(-4, 9))
        assert Series(quotient.coefficients, order=4) * divisor == dividend

    def test_scaled_quotient_the_base_cannot_clear_raises(self):
        # The quotient's constant term is 1/2, which no power of the base clears.
        with pytest.raises(InexactDivision):
            Series.scaled([0, 1, 2], 2, 4) / Series.scaled([0, 2, 1], 2, 4)

    def test_dividend_below_the_divisors_power_raises(self):
        with pytest.raises(NonUnitDivisor):
            Series([0, 1, 2], order=4) / Series([0, 0, 1], order=4)
        with pytest.raises(NonUnitDivisor):
            Series.scaled([0, 1], 2, 4) / Series.scaled([0, 0, 1], 2, 4)

    def test_zero_divisor_raises(self):
        with pytest.raises(NonUnitDivisor):
            Series([1, 2], order=3) / Series([0], order=3)
        with pytest.raises(NonUnitDivisor):
            Series([0], order=3) / Series([0], order=3)
        with pytest.raises(NonUnitDivisor):
            Series.scaled([0], 2, 3) / Series.scaled([0], 2, 3)


class TestSqrt:
    def test_perfect_square_polynomial(self):
        assert Series([1, 2, 1], order=5).sqrt() == Series([1, 1], order=5)

    def test_binomial_series_oracle(self):
        # sqrt(1 + y) coefficients against the closed binomial values
        # C(2n, n) (-1)^(n+1) / (4^n (2n - 1)).
        order = 10
        root = Series([1, 1], order=order).sqrt()
        for n in range(order + 1):
            expected = Fraction(comb(2 * n, n) * (-1) ** (n + 1), 4 ** n * (2 * n - 1))
            assert root[n] == expected

    def test_walk_discriminant_example(self):
        # ((q+1)/2)^2 - q y^2 at q = 2: constant 3/2, y^2 coefficient -2/3.
        root = Series([Fraction(9, 4), 0, -2], order=4).sqrt()
        assert root[0] == Fraction(3, 2)
        assert root[1] == 0
        assert root[2] == Fraction(-2, 3)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareConstantTerm):
            Series([2, 1], order=3).sqrt()

    def test_zero_constant_rejected(self):
        with pytest.raises(NonUnitDivisor):
            Series([0, 1], order=3).sqrt()


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=8),
       st.lists(small_rationals, min_size=1, max_size=8))
def test_multiply_then_divide_roundtrip(a, b):
    order = 9
    f = Series(a, order=order)
    g = Series(b, order=order)
    if not g.coefficients[0]:
        g = g + 1
    assert (f * g) / g == f


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=8))
def test_square_then_sqrt_roundtrip(a):
    order = 9
    f = Series(a, order=order)
    if f.coefficients[0] <= 0:
        f = f + (1 - f.coefficients[0])
    assert (f * f).sqrt() == f


def convolution_root(a):
    """The square root by f_k = (a_k - sum_{0<i<k} f_i f_(k-i)) / (2 f_0): an
    independent quadratic-time oracle for the recurrence in ``Series.sqrt``."""
    out = [Fraction(isqrt(a[0].numerator), isqrt(a[0].denominator))]
    for k in range(1, len(a)):
        acc = a[k] - sum(out[i] * out[k - i] for i in range(1, k))
        out.append(acc / (2 * out[0]))
    return tuple(out)


square_constants = st.builds(lambda n, d: Fraction(n * n, d * d), st.integers(1, 7),
                             st.integers(1, 7))


@settings(max_examples=80, deadline=None)
@given(square_constants, st.lists(small_rationals, max_size=14), st.integers(0, 16))
def test_root_recurrence_matches_convolution(a0, rest, order):
    radicand = Series([a0, *rest], order=order)
    assert radicand.sqrt().coefficients == convolution_root(radicand.coefficients)


@pytest.mark.parametrize("alpha,q", [(Fraction(1, 3), 3), (Fraction(9, 10), 2),
                                     (Fraction(0), 7)])
def test_walk_discriminant_root_at_order_200(alpha, q):
    # Delta = 4D = (q+1)^2 (1 - alpha y)^2 - 4q (1-alpha)^2 y^2, over Fractions and
    # over the walk base S = den(alpha)(q+1).
    order = 200
    disc = [(q + 1) ** 2, -2 * alpha * (q + 1) ** 2,
            alpha ** 2 * (q + 1) ** 2 - 4 * q * (1 - alpha) ** 2]
    base = alpha.denominator * (q + 1)
    exact, scaled = Series(disc, order=order), Series.scaled(disc, base, order)
    exact_root, scaled_root = exact.sqrt(), scaled.sqrt()
    assert scaled_root.base == base
    assert scaled_root * scaled_root == exact
    assert scaled_root == exact_root
    assert exact_root * exact_root == exact


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=6),
       st.lists(small_rationals, min_size=1, max_size=6),
       st.lists(small_rationals, min_size=1, max_size=6))
def test_ring_axioms(a, b, c):
    order = 7
    f, g, h = (Series(v, order=order) for v in (a, b, c))
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f + g) + h == f + (g + h)


class TestScaled:
    """Integer series over a base: coefficient k is num[k] / base**k."""

    def test_walk_discriminant_root_needs_the_walk_base(self):
        # 4D for alpha = 0, q = 3 is 16 - 12 y^2. Over base 4 = den(alpha)(q+1)
        # its root has integer numerators; over base 1 the y^2 step, -12 / 8,
        # is not an integer and must raise rather than round.
        q, order = 3, 12
        disc = [(q + 1) ** 2, 0, -4 * q]
        root = Series.scaled(disc, q + 1, order).sqrt()
        assert root == Series(disc, order=order).sqrt()
        with pytest.raises(InexactDivision):
            Series.scaled(disc, 1, order).sqrt()
        assert Series.scaled(disc, 1, 1).sqrt() == Series([q + 1, 0], order=1)
        with pytest.raises(InexactDivision):
            Series.scaled(disc, 1, 2).sqrt()

    def test_inexact_quotient_raises(self):
        one, two_plus_y = Series.scaled([1], 1, 4), Series.scaled([2, 1], 1, 4)
        with pytest.raises(InexactDivision):
            one / two_plus_y
        half_step = [1, Fraction(-1, 2)]
        exact = Series.scaled([1], 2, 4) / Series.scaled(half_step, 2, 4)
        assert exact.base == 2
        assert exact == 1 / Series(half_step, order=4)

    def test_coefficients_the_base_cannot_clear_are_refused(self):
        with pytest.raises(InexactDivision):
            Series.scaled([1, Fraction(1, 3)], 2, 3)

    def test_mixed_bases_fall_back_to_fractions(self):
        f = Series.scaled([1, Fraction(1, 2)], 2, 5)
        g = Series.scaled([1, Fraction(1, 3)], 3, 5)
        assert (f * f).base == 2
        assert f * g == Series([1, Fraction(1, 2)], order=5) * Series([1, Fraction(1, 3)], order=5)
        assert (f * g).base is None
        assert f.base is None  # reading its coefficients left f with the Fractions only
