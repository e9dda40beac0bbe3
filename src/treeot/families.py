"""Mass tables and generating functions for the three measure families.

The table g(l, n) records the mass a family puts at distance l from its
center at time n: lazy simple random walks (parameter alpha in [0, 1)),
uniform spheres of radius n, and uniform balls of radius n. Each family
yields a bundle of univariate series - the x = q evaluation of the bivariate
mass generating function, its x-derivative at x = q, and the distance-l rows
themselves - from which the transport distance between the X- and Y-centered
copies at time n is a single exact linear combination of coefficients.

For the random-walk family the table satisfies a three-term column
recurrence; the equivalent closed form is

    gamma(y) = q / ((q-1)/2 * (1-alpha*y) + sqrt(D)),
    D = ((q+1)/2)^2 (1-alpha*y)^2 - q (1-alpha)^2 y^2,

with G(x, y) a geometric extension of gamma in x. Both routes are
implemented; their agreement (and the defining functional equation) is
checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import InvalidAlpha, InvalidParams, OrderExceeded
from .rational import RationalLike, _frac, _qpow
from .regular import PairGeometry, RadialProfile
from .series import Series

#: Default truncation order; enough for time steps up to ~60.
DEFAULT_ORDER = 64


def _check_family_params(q: int, order: int) -> None:
    if q < 2:
        raise InvalidParams(f"branching number q must be >= 2, got {q}")
    if order < 0:
        raise InvalidParams(f"truncation order must be >= 0, got {order}")


def _check_alpha(alpha: RationalLike) -> Fraction:
    # Floats are refused: exactness is end-to-end, so the caller must say
    # which rational they mean.
    if isinstance(alpha, float):
        raise InvalidAlpha(f"laziness must be an exact rational, got float {alpha!r}")
    alpha = _frac(alpha)
    if not 0 <= alpha < 1:
        raise InvalidAlpha(f"laziness must lie in [0, 1), got {alpha}")
    return alpha


@dataclass(frozen=True)
class GTable:
    """Exact masses g(l, n) for 0 <= l, n <= order (zero above the diagonal
    for the families built here)."""

    q: int
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def value(self, ell: int, n: int) -> Fraction:
        return self.rows[ell][n]

    def column(self, n: int) -> tuple[Fraction, ...]:
        return tuple(row[n] for row in self.rows)

    def column_profile(self, n: int) -> RadialProfile:
        """The time-n column as a radial profile."""
        return RadialProfile(self.column(n))

    def column_mass(self, n: int) -> Fraction:
        """Total mass of the time-n measure under sphere-size weights."""
        total = self.rows[0][n]
        for ell in range(1, self.order + 1):
            g = self.rows[ell][n]
            if g:
                total += (self.q + 1) * self.q ** (ell - 1) * g
        return total

    def row_series(self, ell: int) -> Series:
        return Series(self.rows[ell])


def _srw_scaled_columns(num: int, den: int, q: int, order: int) -> Iterator[list[int]]:
    """Integer columns f(l, n) = (den*(q+1))^n * g(l, n) for the walk family,
    for n = 0..order; entries l = 0..order + 1, the last one always zero.

    Column step: f(0, n+1) = num*(q+1)*f(0, n) + (den-num)*(q+1)*f(1, n) and
    f(l, n+1) = num*(q+1)*f(l, n) + q*(den-num)*f(l+1, n) + (den-num)*f(l-1, n).
    Only the current and the next column are alive inside the generator.
    """
    a_step = num * (q + 1)
    move = den - num
    col = [0] * (order + 2)
    col[0] = 1
    yield col
    for _ in range(order):
        nxt = [0] * (order + 2)
        nxt[0] = a_step * col[0] + move * (q + 1) * col[1]
        for ell in range(1, order + 1):
            nxt[ell] = a_step * col[ell] + q * move * col[ell + 1] + move * col[ell - 1]
        col = nxt
        yield col


def srw_g_table(alpha: RationalLike, q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Lazy-walk mass table from the three-term recurrence, exact rationals."""
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    num, den = alpha.numerator, alpha.denominator
    columns = list(_srw_scaled_columns(num, den, q, order))
    base = den * (q + 1)
    scales = [base ** n for n in range(order + 1)]
    rows = tuple(
        tuple(Fraction(columns[n][ell], scales[n]) for n in range(order + 1))
        for ell in range(order + 1)
    )
    return GTable(q=q, rows=rows)


def srw_return_sequence(alpha: RationalLike, q: int,
                        order: int = DEFAULT_ORDER) -> tuple[list[int], int]:
    """Scaled return masses: integers c_n with g(0, n) = c_n / base^n.

    Cheaper than the full table for large orders; only two columns are alive
    at a time.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    num, den = alpha.numerator, alpha.denominator
    returns = [col[0] for col in _srw_scaled_columns(num, den, q, order)]
    return returns, den * (q + 1)


def sphere_g_table(q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Uniform-sphere masses: 1 at the origin for n = 0, (q+1)^-1 q^(1-n) on
    the diagonal l = n >= 1, zero elsewhere."""
    _check_family_params(q, order)
    zero = Fraction(0)
    rows = []
    for ell in range(order + 1):
        row = [zero] * (order + 1)
        if ell == 0:
            row[0] = Fraction(1)
        else:
            row[ell] = Fraction(1, (q + 1) * q ** (ell - 1))
        rows.append(tuple(row))
    return GTable(q=q, rows=tuple(rows))


def ball_g_table(q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Uniform-ball masses: (q-1)/(q^(n+1)+q^n-2) for l <= n, zero above."""
    _check_family_params(q, order)
    zero = Fraction(0)
    level = [Fraction(q - 1, q ** (n + 1) + q ** n - 2) for n in range(order + 1)]
    rows = tuple(
        tuple(level[n] if ell <= n else zero for n in range(order + 1))
        for ell in range(order + 1)
    )
    return GTable(q=q, rows=rows)


@dataclass(frozen=True)
class GFBundle:
    """Series inputs for the coefficient-extraction distance formula.

    ``g_at_q``: n -> sum_l g(l, n) q^l; ``g1_at_q``: n -> sum_l l g(l, n)
    q^(l-1); ``gammas[i]``: n -> g(i, n).
    """

    q: int
    g_at_q: Series
    g1_at_q: Series
    gammas: tuple[Series, ...]

    @property
    def order(self) -> int:
        return self.g_at_q.order


def bundle_from_table(table: GTable) -> GFBundle:
    """Evaluate the bundle directly from a mass table (the ground truth)."""
    q = table.q
    order = table.order
    g_at_q = []
    g1_at_q = []
    for n in range(order + 1):
        col = table.column(n)
        g_at_q.append(sum((col[ell] * q ** ell for ell in range(order + 1)), Fraction(0)))
        g1_at_q.append(sum((ell * col[ell] * _qpow(q, ell - 1) for ell in range(1, order + 1)),
                           Fraction(0)))
    gammas = tuple(table.row_series(ell) for ell in range(order + 1))
    return GFBundle(q=q, g_at_q=Series(g_at_q), g1_at_q=Series(g1_at_q), gammas=gammas)


def _srw_phi_parts(alpha: Fraction, q: int, order: int):
    """Shared building blocks of the walk closed form at truncation ``order``."""
    one_minus_ay = Series([1, -alpha], order=order)
    y2 = Series.monomial(2, order)
    disc = (Fraction((q + 1) ** 2, 4) * one_minus_ay * one_minus_ay
            - q * (1 - alpha) ** 2 * y2)
    root = disc.sqrt()  # constant term (q+1)/2, all coefficients rational
    phi1 = Fraction(q - 1, 2) * one_minus_ay + root
    phi2 = Fraction(q + 1, 2) * one_minus_ay + root
    return phi1, phi2


def srw_closed_form(alpha: RationalLike, q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Walk-family bundle from the algebraic closed form (series square root).

    ``gammas`` holds only the return series gamma = gamma_0; higher rows come
    from :func:`srw_closed_form_rows` or the table route.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    phi1, phi2 = _srw_phi_parts(alpha, q, order)
    gamma = Fraction(q) / phi1
    # phi3 at x = q: phi2 - (1-alpha) q y
    phi3_at_q = phi2 - Series.monomial(1, order, (1 - alpha) * q)
    g_at_q = phi2 * gamma / phi3_at_q
    g1_at_q = ((1 - alpha) * g_at_q / phi3_at_q).shifted(1)
    return GFBundle(q=q, g_at_q=g_at_q, g1_at_q=g1_at_q, gammas=(gamma,))


def srw_closed_form_rows(alpha: RationalLike, q: int, order: int, count: int) -> list[Series]:
    """First ``count`` distance rows of the closed form.

    The bivariate function is geometric in x with ratio (1-alpha) y / phi2,
    so row l equals gamma times the l-th power of that ratio.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    phi1, phi2 = _srw_phi_parts(alpha, q, order)
    gamma = Fraction(q) / phi1
    ratio = Series.monomial(1, order, 1 - alpha) / phi2
    rows = [gamma]
    for _ in range(count - 1):
        rows.append(rows[-1] * ratio)
    return rows


def sphere_gf(q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Sphere-family bundle from its closed coefficient values.

    Coefficient of y^n in the x = q evaluation is 1 for n = 0 and q/(q+1)
    for n >= 1; in the x-derivative it is n/(q+1). Row i is supported at
    n = i only.
    """
    _check_family_params(q, order)
    g_at_q = Series([Fraction(1)] + [Fraction(q, q + 1)] * order)
    g1_at_q = Series([Fraction(n, q + 1) for n in range(order + 1)])
    gammas = []
    for i in range(order + 1):
        value = Fraction(1) if i == 0 else Fraction(1, (q + 1) * q ** (i - 1))
        gammas.append(Series.monomial(i, order, value))
    return GFBundle(q=q, g_at_q=g_at_q, g1_at_q=g1_at_q, gammas=tuple(gammas))


def ball_gf(q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Ball-family bundle, evaluated termwise from the flat level masses."""
    _check_family_params(q, order)
    return bundle_from_table(ball_g_table(q, order))


def functional_equation_residuals(rows: Sequence[Series], gamma: Series,
                                  alpha: RationalLike, q: int) -> list[Series]:
    """Residual series, per x-degree, of the defining walk-family identity.

    With C_l(y) the distance-l row, the identity q*x = ((q+1)(x - alpha*x*y)
    - q(1-alpha)y - (1-alpha)x^2 y) G + (-x + alpha*x*y + q(1-alpha)y) gamma
    splits over powers of x into one univariate identity per degree; a valid
    (rows, gamma) pair makes every residual vanish identically.
    """
    alpha = _check_alpha(alpha)
    order = gamma.order
    one_minus_ay = Series([1, -alpha], order=order)
    y = Series.monomial(1, order)
    zero = Series.zero(order)

    residuals = []
    for k in range(len(rows)):
        acc = zero
        if k >= 1:
            acc = acc + (q + 1) * one_minus_ay * rows[k - 1]
        acc = acc - q * (1 - alpha) * y * rows[k]
        if k >= 2:
            acc = acc - (1 - alpha) * y * rows[k - 2]
        if k == 0:
            acc = acc + q * (1 - alpha) * y * gamma
        elif k == 1:
            acc = acc - one_minus_ay * gamma
            acc = acc - Series.constant(q, order)
        residuals.append(acc)
    return residuals


def check_functional_equation(source: GTable | Sequence[Series], alpha: RationalLike,
                              q: int, gamma: Series | None = None) -> bool:
    """True iff the walk-family identity holds for the given rows.

    ``source`` may be a mass table (rows and gamma read off it) or an explicit
    row list, e.g. from :func:`srw_closed_form_rows`.
    """
    if isinstance(source, GTable):
        rows: Sequence[Series] = [source.row_series(ell) for ell in range(source.order + 1)]
    else:
        rows = list(source)
    if gamma is None:
        gamma = rows[0]
    return all(res.is_zero() for res in functional_equation_residuals(rows, gamma, alpha, q))


def w1_via_genfun(bundle: GFBundle, geometry: PairGeometry, n: int) -> Fraction:
    """Transport distance at time n as a linear combination of coefficients.

    The weights depend only on (q, d): one for the x-derivative evaluation,
    one for the x = q evaluation, a -d/q correction on the return row, and
    one weight per row i = 0..floor(d/2).
    """
    q, d = geometry.q, geometry.d
    if bundle.q != q:
        raise InvalidParams(f"bundle built for q={bundle.q}, geometry has q={q}")
    if n > bundle.order:
        raise OrderExceeded(f"time step {n} beyond truncation order {bundle.order}")
    delta, delta_p = geometry.delta, geometry.delta_prime
    if len(bundle.gammas) <= delta:
        raise InvalidParams(
            f"bundle carries {len(bundle.gammas)} distance rows, need {delta + 1} for d={d}")

    c_g1 = 2 * q + 2 - 2 * _qpow(q, 1 - delta_p) - 2 * _qpow(q, -delta)
    c_g = (Fraction(d) + Fraction(d, q) - Fraction(4, q - 1)
           + 2 * delta_p * _qpow(q, -delta_p) + Fraction(2, q - 1) * _qpow(q, -delta_p)
           + 2 * delta * _qpow(q, -1 - delta) + Fraction(2, q - 1) * _qpow(q, -delta))

    total = c_g1 * bundle.g1_at_q[n] + c_g * bundle.g_at_q[n]
    total -= Fraction(d, q) * bundle.gammas[0][n]
    for i in range(delta + 1):
        w_i = (Fraction(4, q - 1)
               + (2 * i - 2 * delta_p - Fraction(2, q - 1)) * _qpow(q, i - delta_p)
               + (Fraction(2 * i, q) - Fraction(2 * delta, q) - Fraction(2, q - 1))
               * _qpow(q, i - delta))
        gamma_i = bundle.gammas[i][n]
        if gamma_i:
            total += w_i * gamma_i
    return total


def srw_profile(alpha: RationalLike, q: int, n: int) -> RadialProfile:
    """Time-n walk distribution as a radial profile."""
    return srw_g_table(alpha, q, n).column_profile(n)
