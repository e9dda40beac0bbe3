"""Linear asymptotics of the transport distance and derived statistics.

For each family the distance between the two centered copies grows like
A*n + B + o(1); A and B are explicit rationals in (alpha, d, q). The six
coefficients satisfy a strict ordering chain, the four walk statistics of
the regular tree are specializations of A, and the n-scale curvature is an
affine repackaging of the distance. The growth of the walk's return-mass
coefficients is also quantified, with its algebraic constants kept as exact
rational enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, isqrt
from operator import mul
from typing import Callable, Optional

from .errors import InvalidParams
from .families import bundle_from_table, srw_g_table, w1_via_genfun, _check_alpha
from .rational import RationalLike, _qpow
from .regular import PairGeometry, _check_q


@dataclass(frozen=True)
class LinearAsymptotic:
    """Slope/intercept pair of the large-n distance, exact rationals."""

    family: str
    alpha: Optional[Fraction]
    d: int
    q: int
    A: Fraction
    B: Fraction
    exact_for_large_n: bool = False

    def at(self, n: int) -> Fraction:
        return self.A * n + self.B


def _common_factor(geometry: PairGeometry) -> Fraction:
    """q + 1 - q^(1-ceil(d/2)) - q^(-floor(d/2)): shared by all three slopes
    and by the intercept gaps; at least q - 1 > 0."""
    q = geometry.q
    return q + 1 - _qpow(q, 1 - geometry.delta_prime) - _qpow(q, -geometry.delta)


def srw_AB(alpha: RationalLike, d: int, q: int) -> LinearAsymptotic:
    """Walk-family coefficients. The intercept does not depend on alpha."""
    alpha = _check_alpha(alpha)
    geometry = PairGeometry(q, d)
    delta, delta_p = geometry.delta, geometry.delta_prime
    a = 2 * (1 - alpha) * _common_factor(geometry) * Fraction(q - 1, (q + 1) ** 2)
    b = (Fraction(d)
         + Fraction(2, q + 1) * (delta * _qpow(q, -delta) + delta_p * _qpow(q, 1 - delta_p))
         + Fraction(2, (q + 1) ** 2) * (_qpow(q, 1 - delta) - _qpow(q, 1 - delta_p)))
    return LinearAsymptotic("srw", alpha, d, q, a, b)


def sphere_AB(d: int, q: int) -> LinearAsymptotic:
    """Sphere-family coefficients; the affine law is exact once n >= d."""
    geometry = PairGeometry(q, d)
    delta, delta_p = geometry.delta, geometry.delta_prime
    a = 2 * _common_factor(geometry) / (q + 1)
    b = Fraction(d) + Fraction(
        -4 * q
        + 2 * (delta_p * (q - 1) + 1) * _qpow(q, 1 - delta_p)
        + 2 * (delta * (q - 1) + q) * _qpow(q, -delta),
        1) / (q * q - 1)
    return LinearAsymptotic("sphere", None, d, q, a, b, exact_for_large_n=True)


def ball_AB(d: int, q: int) -> LinearAsymptotic:
    """Ball-family coefficients (same slope as spheres, smaller intercept)."""
    geometry = PairGeometry(q, d)
    delta, delta_p = geometry.delta, geometry.delta_prime
    a = 2 * _common_factor(geometry) / (q + 1)
    b = Fraction(d) + Fraction(
        -6 * q - 2
        + 2 * (delta_p * (q - 1) + 2) * _qpow(q, 1 - delta_p)
        + 2 * (delta * (q - 1) + q + 1) * _qpow(q, -delta),
        1) / (q * q - 1)
    return LinearAsymptotic("ball", None, d, q, a, b)


def ball_d1_exact(q: int, n: int) -> Fraction:
    """Exact ball distance for adjacent centers: (q-1)(2n+1)/(q+1-2q^-n)."""
    _check_q(q)
    if n < 0:
        raise InvalidParams(f"radius must be >= 0, got {n}")
    return Fraction(q - 1) * (2 * n + 1) / (q + 1 - 2 * _qpow(q, -n))


@dataclass(frozen=True)
class HValues:
    """Pole data of the x = q series evaluations at y = 1.

    Coefficient asymptotics follow: the x-derivative evaluation grows like
    h1_at_1 * n + (h1_at_1 - h1_prime_at_1) and the plain evaluation tends
    to h_at_1.
    """

    h1_at_1: Fraction
    h1_prime_at_1: Fraction
    h_at_1: Fraction


def h_values(alpha: RationalLike, q: int) -> HValues:
    alpha = _check_alpha(alpha)
    _check_q(q)
    h1 = (1 - alpha) * Fraction(q - 1, (q + 1) ** 2)
    h1_prime = h1 - Fraction(2 * q, (q - 1) * (q + 1) ** 2)
    return HValues(h1_at_1=h1, h1_prime_at_1=h1_prime, h_at_1=Fraction(q, q + 1))


@dataclass(frozen=True)
class InequalityReport:
    """Exact comparisons between the six coefficients at one parameter point."""

    alpha: Fraction
    d: int
    q: int
    a_srw: Fraction
    a_sphere: Fraction
    a_ball: Fraction
    b_srw: Fraction
    b_sphere: Fraction
    b_ball: Fraction
    chain_a: bool
    chain_b: bool
    ball_floor_equality: bool
    gap_srw_sphere: Fraction
    gap_sphere_ball: Fraction
    witnesses_match: bool

    @property
    def passed(self) -> bool:
        return self.chain_a and self.chain_b and self.witnesses_match

    def as_dict(self) -> dict:
        return {
            "alpha": str(self.alpha), "d": self.d, "q": self.q,
            "A_srw": str(self.a_srw), "A_sphere": str(self.a_sphere),
            "A_ball": str(self.a_ball), "B_srw": str(self.b_srw),
            "B_sphere": str(self.b_sphere), "B_ball": str(self.b_ball),
            "chain_a": self.chain_a, "chain_b": self.chain_b,
            "ball_floor_equality": self.ball_floor_equality,
            "passed": self.passed,
        }


def verify_inequalities(alpha: RationalLike, d: int, q: int) -> InequalityReport:
    """Check 0 < A_srw < A_sphere = A_ball < 2 and B_srw > B_sphere > B_ball >= 1/3,
    plus the closed forms of the two intercept gaps."""
    alpha = _check_alpha(alpha)
    geometry = PairGeometry(q, d)
    srw = srw_AB(alpha, d, q)
    sph = sphere_AB(d, q)
    bal = ball_AB(d, q)
    common = _common_factor(geometry)
    gap_bs = Fraction(4 * q, (q + 1) ** 2 * (q - 1)) * common
    gap_sb = Fraction(2, q * q - 1) * common
    chain_a = 0 < srw.A < sph.A == bal.A < 2
    chain_b = srw.B > sph.B > bal.B >= Fraction(1, 3)
    witnesses = (srw.B - sph.B == gap_bs) and (sph.B - bal.B == gap_sb)
    return InequalityReport(
        alpha=alpha, d=d, q=q,
        a_srw=srw.A, a_sphere=sph.A, a_ball=bal.A,
        b_srw=srw.B, b_sphere=sph.B, b_ball=bal.B,
        chain_a=chain_a, chain_b=chain_b,
        ball_floor_equality=(bal.B == Fraction(1, 3)),
        gap_srw_sphere=gap_bs, gap_sphere_ball=gap_sb,
        witnesses_match=witnesses,
    )


@dataclass(frozen=True)
class ChiValues:
    """The four sup/inf limsup/liminf statistics of W1/n over vertex pairs,
    for lazy walks on the regular tree."""

    up_up: Fraction
    up_down: Fraction
    down_up: Fraction
    down_down: Fraction


def chi_tree(alpha: RationalLike, q: int) -> ChiValues:
    """Closed values on the regular tree: the sup pair is the d -> infinity
    limit of the walk slope, the inf pair its value at d = 1."""
    alpha = _check_alpha(alpha)
    _check_q(q)
    up = 2 * (1 - alpha) * Fraction(q - 1, q + 1)
    down = 2 * (1 - alpha) * Fraction(q - 1, q + 1) ** 2
    return ChiValues(up_up=up, up_down=up, down_up=down, down_down=down)


@dataclass(frozen=True)
class CurvatureValue:
    """n-scale curvature 1 - W1/d: exact, plus its linear-asymptote companion."""

    exact: Fraction
    linear: Fraction


def kappa_curvature(alpha: RationalLike, d: int, q: int, n: int) -> CurvatureValue:
    """Curvature of the lazy walk at scale n, from the exact distance."""
    alpha = _check_alpha(alpha)
    geometry = PairGeometry(q, d)
    if n < 0:
        raise InvalidParams(f"time step must be >= 0, got {n}")
    # Order floor(d/2) guarantees enough distance rows for the weights.
    bundle = bundle_from_table(srw_g_table(alpha, q, max(n, geometry.delta)))
    w1 = w1_via_genfun(bundle, geometry, n)
    asym = srw_AB(alpha, d, q)
    return CurvatureValue(exact=1 - Fraction(w1, d), linear=1 - asym.at(n) / d)


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


@dataclass(frozen=True)
class GammaAsymptotic:
    """Leading growth of the walk's return-mass coefficients.

    The n-th coefficient behaves like constant * base^n * n^(-3/2); for the
    non-lazy walk only even steps return, and the even-step subsequence obeys
    the same shape in the half index. ``growth_base`` and ``leading_constant``
    are enclosures: (lo, hi) pairs of Fractions around the algebraic value,
    with lo <= value <= hi and hi - lo under 10^-50 of the value.
    """

    alpha: Fraction
    q: int
    period: int
    power: Fraction
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


def interval_contains(x: Enclosure, value) -> bool:
    """True iff ``value`` lies inside the enclosure ``x`` (endpoints included)."""
    lo, hi = x
    return lo <= value <= hi


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
        return GammaAsymptotic(alpha=alpha, q=q, period=2, power=Fraction(-3, 2),
                               growth_base=(base, base), leading_constant=constant)
    root_q = _sqrt((Fraction(q),) * 2)
    base = _image(lambda r: (alpha * (q + 1) + (1 - alpha) * 2 * r) / (q + 1), root_q)
    t = _image(lambda r: alpha / (1 - alpha) * (q + 1) + 2 * r, root_q)
    constant = _image(lambda t, root_t, fourth_root_q, r:
                      t * root_t * (q + 1) * fourth_root_q * r / (2 * (q - 1) ** 2),
                      t, _sqrt(t), _sqrt(root_q), inverse_root_pi)
    return GammaAsymptotic(alpha=alpha, q=q, period=1, power=Fraction(-3, 2),
                           growth_base=base, leading_constant=constant)
