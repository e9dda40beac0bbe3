"""Linear asymptotics of the transport distance, and the growth of the walk's
return masses.

For each family the distance between the two centered copies grows like
A*n + B + o(1); A and B are explicit rationals in (alpha, d, q). The six
coefficients satisfy a strict ordering chain. The growth of the walk's
return-mass coefficients is also quantified, with its algebraic constants
kept as exact rational enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt
from operator import mul
from typing import Callable, NamedTuple

from .errors import InvalidParams
from .rational import RationalLike
from .regular import PairGeometry, _check_alpha, _check_q

#: Default (alpha, d, q) grid of the coefficient chain, for the
#: ``inequalities`` suite and ``treeot verify-ineq``.
INEQUALITY_GRID = {"alpha": (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)),
                   "d": tuple(range(1, 7)), "q": tuple(range(2, 11))}


class LinearAsymptotic(NamedTuple):
    """Slope/intercept pair of the large-n distance, exact rationals."""

    A: Fraction
    B: Fraction
    exact_for_large_n: bool = False

    def at(self, n: int) -> Fraction:
        return self.A * n + self.B


def _coefficients(q: int, d: int) -> tuple[int, int, int, int, int, int]:
    """The integers the six coefficients share, for a checked ``PairGeometry(q,
    d)``: the slope numerator s over P = q^floor(d/2), q^e = q^(1 -
    ceil(d/2) + floor(d/2)) (q for even d, 1 for odd d), floor(d/2),
    ceil(d/2), and the intercepts' common denominator D = (q+1)^2 (q-1) P."""
    geometry = PairGeometry(q, d)
    delta, delta_p = geometry.delta, geometry.delta_prime
    power = q ** delta
    return (geometry.slope_numerator, power, q if delta == delta_p else 1, delta, delta_p,
            (q + 1) ** 2 * (q - 1) * power)


def srw_AB(alpha: RationalLike, d: int, q: int) -> LinearAsymptotic:
    """Walk-family coefficients. The intercept does not depend on alpha."""
    alpha = _check_alpha(alpha)
    s, power, q_e, delta, delta_p, den = _coefficients(q, d)
    a = Fraction(2 * (alpha.denominator - alpha.numerator) * s * (q - 1),
                 alpha.denominator * (q + 1) ** 2 * power)
    b = Fraction(d * den + 2 * (q - 1) * ((q + 1) * (delta + delta_p * q_e) + q - q_e), den)
    return LinearAsymptotic(a, b)


def sphere_AB(d: int, q: int) -> LinearAsymptotic:
    """Sphere-family coefficients; the affine law is exact once n >= d."""
    s, power, q_e, delta, delta_p, den = _coefficients(q, d)
    a = Fraction(2 * s, (q + 1) * power)
    b = Fraction(d * den + (q + 1) * (-4 * q * power + 2 * (delta_p * (q - 1) + 1) * q_e
                                      + 2 * (delta * (q - 1) + q)), den)
    return LinearAsymptotic(a, b, exact_for_large_n=True)


def ball_AB(d: int, q: int) -> LinearAsymptotic:
    """Ball-family coefficients (same slope as spheres, smaller intercept)."""
    s, power, q_e, delta, delta_p, den = _coefficients(q, d)
    a = Fraction(2 * s, (q + 1) * power)
    b = Fraction(d * den + (q + 1) * ((-6 * q - 2) * power + 2 * (delta_p * (q - 1) + 2) * q_e
                                      + 2 * (delta * (q - 1) + q + 1)), den)
    return LinearAsymptotic(a, b)


def ball_d1_exact(q: int, n: int) -> Fraction:
    """Exact ball distance for adjacent centers: (q-1)(2n+1)/(q+1-2q^-n)."""
    _check_q(q)
    if n < 0:
        raise InvalidParams(f"radius must be >= 0, got {n}")
    return Fraction(q - 1) * (2 * n + 1) / (q + 1 - 2 * Fraction(q) ** -n)


def h_values(alpha: RationalLike, q: int) -> tuple[Fraction, Fraction, Fraction]:
    """Pole data ``(h1, h1_prime, h)`` of the x = q series evaluations at y = 1.

    Coefficient asymptotics follow: the x-derivative evaluation grows like
    h1 * n + (h1 - h1_prime) and the plain evaluation tends to h.
    """
    alpha = _check_alpha(alpha)
    _check_q(q)
    h1 = (1 - alpha) * Fraction(q - 1, (q + 1) ** 2)
    h1_prime = h1 - Fraction(2 * q, (q - 1) * (q + 1) ** 2)
    return h1, h1_prime, Fraction(q, q + 1)


def verify_inequalities(alpha: RationalLike, d: int, q: int) -> dict:
    """Check 0 < A_srw < A_sphere = A_ball < 2 and B_srw > B_sphere > B_ball >= 1/3,
    plus the slope identity A_srw (q+1) = (1-alpha)(q-1) A_sphere and the
    closed forms of the two intercept gaps, as one JSON record: the cell, the
    six coefficients as strings, the two chains, whether B_ball meets its 1/3
    floor, and ``passed``, which needs both chains, the slope identity, both
    gaps, and B_ball = 1/3 exactly at (d, q) = (1, 2)."""
    alpha = _check_alpha(alpha)
    srw = srw_AB(alpha, d, q)
    sph = sphere_AB(d, q)
    bal = ball_AB(d, q)
    chain_a = 0 < srw.A < sph.A == bal.A < 2
    chain_b = srw.B > sph.B > bal.B >= Fraction(1, 3)
    witnesses = (srw.A * (q + 1) == (1 - alpha) * (q - 1) * sph.A
                 and (srw.B - sph.B) * (q * q - 1) == 2 * q * sph.A
                 and (sph.B - bal.B) * (q - 1) == sph.A)
    at_floor = bal.B == Fraction(1, 3)
    return {"alpha": str(alpha), "d": d, "q": q,
            "A_srw": str(srw.A), "A_sphere": str(sph.A), "A_ball": str(bal.A),
            "B_srw": str(srw.B), "B_sphere": str(sph.B), "B_ball": str(bal.B),
            "chain_a": chain_a, "chain_b": chain_b, "ball_floor_equality": at_floor,
            "passed": chain_a and chain_b and witnesses and at_floor == ((d, q) == (1, 2))}


#: Significant bits kept on each endpoint of an enclosure (60 decimal digits).
#: The growth constants are held to a width under 10^-50, about 2^-166. Each
#: rounding moves an endpoint below 2^(e+1) by less than one grid step of
#: 2^(e - INTERVAL_BITS), so a constant below 2^16 that went through a dozen
#: roundings stays narrower than 2^-180 < 10^-54.
INTERVAL_BITS = 200

#: An interval [lo, hi] of exact rationals.
Enclosure = tuple[Fraction, Fraction]


def _step(exponent: int) -> Fraction:
    """The grid step for values below 2^(exponent + 1)."""
    return Fraction(2) ** (exponent - INTERVAL_BITS)


def _exponent(x: Fraction) -> int:
    """e with 2^(e-1) < x < 2^(e+1), for x > 0."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _outward(lo: Fraction, hi: Fraction) -> Enclosure:
    """[lo, hi] widened to the grid points around it, at the step of hi > 0, so
    that endpoint sizes stay bounded however many operations follow."""
    step = _step(_exponent(hi))
    return floor(lo / step) * step, ceil(hi / step) * step


def _image(f: Callable[..., Fraction], *boxes: Enclosure) -> Enclosure:
    """Enclosure of f over the box, for f nondecreasing in every argument: f at
    the low corner and at the high corner, rounded outward."""
    return _outward(f(*(lo for lo, _ in boxes)), f(*(hi for _, hi in boxes)))


def _sqrt(x: Enclosure) -> Enclosure:
    """Square roots of positive endpoints by math.isqrt on integers scaled by the
    output step s: floor(sqrt(lo) / s) = isqrt(floor(lo / s^2)), and
    ceil(sqrt(hi) / s) <= isqrt(ceil(hi / s^2) - 1) + 1."""
    lo, hi = x
    step = _step(_exponent(hi) // 2)
    square = step * step
    return isqrt(floor(lo / square)) * step, (isqrt(ceil(hi / square) - 1) + 1) * step


def _power(x: Enclosure, n: int) -> Enclosure:
    """x^n for n >= 1 by repeated squaring, rounded outward after every product."""
    result = x
    for bit in bin(n)[3:]:
        result = _image(mul, result, result)
        if bit == "1":
            result = _image(mul, result, x)
    return result


def _pi() -> Enclosure:
    """pi = 16 arctan(1/5) - 4 arctan(1/239) (Machin), each arctan summed as its
    alternating series in integers over 2^bits. Each term is floored, so it is
    off by less than 1; the sum stops at the first term whose power floors to
    0, so the omitted tail, at most that term, is below 1 as well."""
    bits = INTERVAL_BITS + 16
    total = slack = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k = (1 << bits) // x, 1  # power = floor(2^bits / x^k)
        while power:
            total += weight * (power // k if k % 4 == 1 else -(power // k))
            slack += abs(weight)
            power //= x * x
            k += 2
        slack += abs(weight)
    return _outward(Fraction(total - slack, 1 << bits), Fraction(total + slack, 1 << bits))


class GammaAsymptotic(NamedTuple):
    """Leading growth of the walk's return-mass coefficients.

    The n-th coefficient behaves like constant * base^n * n^(-3/2); for the
    non-lazy walk only even steps return, and the even-step subsequence obeys
    the same shape in the half index. ``growth_base`` and ``leading_constant``
    are enclosures: (lo, hi) pairs of Fractions around the algebraic value,
    with lo <= value <= hi and hi - lo under 10^-50 of the value.
    """

    period: int
    growth_base: Enclosure
    leading_constant: Enclosure

    def leading_term(self, n: int) -> Enclosure:
        """Enclosure of the leading term at coefficient index n >= 1."""
        if self.period == 2:
            if n % 2:
                return Fraction(0), Fraction(0)
            if n < 2:
                raise InvalidParams("leading term needs index >= 2 for the even-step form")
            n //= 2
        elif n < 1:
            raise InvalidParams("leading term needs index >= 1")
        return _image(lambda c, b, r: c * b * r / n, self.leading_constant,
                      _power(self.growth_base, n), _sqrt((Fraction(1, n),) * 2))


def interval_mid(x: Enclosure) -> Fraction:
    """Midpoint of an enclosure."""
    lo, hi = x
    return (lo + hi) / 2


def gamma_asymptotic(alpha: RationalLike, q: int) -> GammaAsymptotic:
    """Certified growth data for the return-mass coefficients.

    alpha > 0: base (alpha (q+1) + (1-alpha) 2 sqrt(q)) / (q+1) and constant
    ((alpha/(1-alpha))(q+1) + 2 sqrt(q))^(3/2) (q+1) q^(1/4)
    / ((q-1)^2 sqrt(4 pi)). alpha = 0: even-index base 4q/(q+1)^2 with
    constant q(q+1) / (sqrt(pi) (q-1)^2). Each is increasing in the square
    roots and decreasing in pi, so its endpoints come from theirs.
    """
    alpha = _check_alpha(alpha)
    _check_q(q)
    lo, hi = _sqrt(_pi())
    inverse_root_pi = _outward(1 / hi, 1 / lo)
    if alpha == 0:
        base = Fraction(4 * q, (q + 1) ** 2)
        constant = _image(lambda r: Fraction(q * (q + 1), (q - 1) ** 2) * r, inverse_root_pi)
        return GammaAsymptotic(period=2, growth_base=(base, base), leading_constant=constant)
    root_q = _sqrt((Fraction(q),) * 2)
    base = _image(lambda r: (alpha * (q + 1) + (1 - alpha) * 2 * r) / (q + 1), root_q)
    t = _image(lambda r: alpha / (1 - alpha) * (q + 1) + 2 * r, root_q)
    constant = _image(lambda t, root_t, fourth_root_q, r:
                      t * root_t * (q + 1) * fourth_root_q * r / (2 * (q - 1) ** 2),
                      t, _sqrt(t), _sqrt(root_q), inverse_root_pi)
    return GammaAsymptotic(period=1, growth_base=base, leading_constant=constant)
