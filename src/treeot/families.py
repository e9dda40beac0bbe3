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

The closed form runs in time linear in the order: with L = 1 - alpha y,
Delta = 4D, R = sqrt(Delta) (a square root of a quadratic), P = (q+1) L,
M = P - 2 (1-alpha) q y and E = 2 (y-1) (1 + (1-2 alpha) y), each walk series
is (a - b R) / c for polynomials a, b and c, so every step is a product with
or a quotient by a polynomial:

    gamma    = ((q-1) L - R) / E,
    G(q, y)  = (P + R) ((q-1) L - R) (M - R) / (E (M^2 - Delta)),
    G_x(q, y) = G(q, y) (M - R) / (2 q (q+1) (y-1)).

They rest on two polynomial identities,

    (q-1)^2 L^2 - Delta = 4 q (y-1) (1 + (1-2 alpha) y),
    M^2 - Delta = 4 q (q+1) (1-alpha) y (y-1).

All three are divided by multiples of c = E (M^2 - Delta), gamma as
((q-1) L - R) (M^2 - Delta) / c. Series division cancels the factor y of
c, so each is built at one order more than it keeps.

With S = den(alpha) (q+1), every walk series is an integer series in t = S y,
so both routes run on integers over S^n; a Fraction is formed only when a
coefficient is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence

from .errors import InvalidAlpha, InvalidParams, OrderExceeded
from .rational import RationalLike, _frac, _over_scale, _qpow
from .regular import PairGeometry, RadialProfile, _check_q, ball_size, sphere_size
from .series import Series

#: Default truncation order; enough for time steps up to ~60.
DEFAULT_ORDER = 64


def _check_family_params(q: int, order: int) -> None:
    _check_q(q)
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
    """Exact masses g(l, n) = columns[n][l] / scales[n] for 0 <= l, n <= order
    (zero above the diagonal for the families built here): integer columns,
    each over its own scale, read as reduced Fractions."""

    q: int
    columns: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.scales) - 1

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(map(Fraction, row, self.scales)) for row in zip(*self.columns))

    def column_profile(self, n: int) -> RadialProfile:
        """The time-n column as a radial profile; raises :class:`InvalidParams`
        for n outside 0..order."""
        if not 0 <= n <= self.order:
            raise InvalidParams(f"time step {n} outside the table's 0..{self.order}")
        return RadialProfile(self.columns[n], self.scales[n])


def _srw_scaled_columns(alpha: RationalLike, q: int,
                        order: int) -> tuple[Iterator[list[int]], int]:
    """The walk's integer columns f(l, n) = S^n g(l, n) for n = 0..order, with
    entries l = 0..order + 1 (the last one always zero), and S = den*(q+1).

    Column step, alpha = num/den: f(0, n+1) = num*(q+1)*f(0, n) +
    (den-num)*(q+1)*f(1, n) and f(l, n+1) = num*(q+1)*f(l, n) +
    q*(den-num)*f(l+1, n) + (den-num)*f(l-1, n), computed for l <= n+1 only,
    since f(l, n+1) = 0 above. Only the current and the next column are alive
    inside the generator.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    num, den = alpha.numerator, alpha.denominator
    a_step, move = num * (q + 1), den - num

    def columns() -> Iterator[list[int]]:
        col = [1] + [0] * (order + 1)
        yield col
        for n in range(order):
            nxt = [a_step * col[0] + move * (q + 1) * col[1]] + [0] * (order + 1)
            for ell in range(1, n + 2):
                nxt[ell] = a_step * col[ell] + q * move * col[ell + 1] + move * col[ell - 1]
            col = nxt
            yield col

    return columns(), den * (q + 1)


def srw_g_table(alpha: RationalLike, q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Lazy-walk mass table from the three-term recurrence: column n is the
    integer column f(., n) over S^n."""
    columns, base = _srw_scaled_columns(alpha, q, order)
    return GTable(q, tuple(tuple(col[:-1]) for col in columns),
                  tuple(base ** n for n in range(order + 1)))


def sphere_g_table(q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Uniform-sphere masses: 1 at the origin for n = 0, (q+1)^-1 q^(1-n) on
    the diagonal l = n >= 1, zero elsewhere."""
    _check_family_params(q, order)
    columns = tuple((0,) * n + (1,) + (0,) * (order - n) for n in range(order + 1))
    return GTable(q, columns, tuple(sphere_size(q, n) for n in range(order + 1)))


def ball_g_table(q: int, order: int = DEFAULT_ORDER) -> GTable:
    """Uniform-ball masses: (q-1)/(q^(n+1)+q^n-2) for l <= n, zero above."""
    _check_family_params(q, order)
    columns = tuple((1,) * (n + 1) + (0,) * (order - n) for n in range(order + 1))
    return GTable(q, columns, tuple(ball_size(q, n) for n in range(order + 1)))


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
    """Evaluate the bundle directly from a mass table (the ground truth): one
    integer Horner pass per column gives the column's polynomial and its
    derivative at q, each over the column's scale."""
    q = table.q
    g_num, g1_num = [], []
    for col in table.columns:
        value = slope = 0
        for x in reversed(col):
            slope = slope * q + value
            value = value * q + x
        g_num.append(value)
        g1_num.append(slope)
    gammas = tuple(Series.over(row, table.scales) for row in zip(*table.columns))
    return GFBundle(q=q, g_at_q=Series.over(g_num, table.scales),
                    g1_at_q=Series.over(g1_num, table.scales), gammas=gammas)


def _walk(alpha: Fraction, q: int, order: int) -> tuple:
    """The builder poly(c0, c1, ...) of c0 + c1 y + ..., L, M, Delta, R, the
    common divisor c = E (M^2 - Delta), and gamma = ((q-1) L - R) (M^2 -
    Delta) / c. All are integer series over S built at order + 1; c starts
    at y, so gamma and every other quotient by c end at ``order``."""
    base = alpha.denominator * (q + 1)

    def poly(*coeffs: RationalLike) -> Series:
        return Series.scaled(coeffs, base, order + 1)

    line = poly(1, -alpha)
    # (q+1)^2 L^2 - 4 q (1-alpha)^2 y^2, and M = (q+1) L - 2 (1-alpha) q y
    disc = poly((q + 1) ** 2, -2 * alpha * (q + 1) ** 2,
                (alpha * (q + 1)) ** 2 - 4 * q * (1 - alpha) ** 2)
    mix = poly(q + 1, -alpha * (q + 1) - 2 * (1 - alpha) * q)
    root = disc.sqrt()
    cut = mix * mix - disc
    divisor = poly(-2, 4 * alpha, 2 - 4 * alpha) * cut  # E = 2 (y-1) (1 + (1-2 alpha) y)
    gamma = (line * (q - 1) - root) * cut / divisor
    return poly, line, mix, disc, root, divisor, gamma


def srw_return_sequence(alpha: RationalLike, q: int,
                        order: int = DEFAULT_ORDER) -> tuple[list[int], int]:
    """Scaled return masses: integers c_n with g(0, n) = c_n / base^n.

    Read from the closed form of gamma, in time linear in the order; the
    table route gives the same integers in quadratic time.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    *_, gamma = _walk(alpha, q, order)
    return gamma._num, gamma.base  # fresh from an integer quotient, so unread


def srw_closed_form(alpha: RationalLike, q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Walk-family bundle from the algebraic closed form (module docstring),
    in time linear in the order.

    G(q, .) = (P + R) gamma / (M + R) and G_x(q, .) = 2 (1-alpha) y G(q, .) /
    (M + R) become (a - b R) / c on multiplying by the conjugates (q-1) L - R
    and M - R. ``gammas`` holds only the return series gamma = gamma_0;
    higher rows come from the table route.
    """
    alpha = _check_alpha(alpha)
    _check_family_params(q, order)
    poly, line, mix, disc, root, divisor, gamma = _walk(alpha, q, order)

    def conjugate(a: Series, b: Series) -> tuple[Series, Series]:
        # (a - b R)(M - R) = (a M + b Delta) - (a + b M) R
        return a * mix + b * disc, a + b * mix

    # (P + R)((q-1) L - R) = (q^2 - 1) L^2 - Delta - 2 L R
    g_a, g_b = conjugate(line * line * (q * q - 1) - disc, line * 2)
    g1_a, g1_b = conjugate(g_a, g_b)
    # c 2 q (q+1) (y-1), where 2 q (q+1) (y-1) = (M^2 - Delta) / (2 (1-alpha) y)
    g1_divisor = divisor * poly(-1, 1) * (2 * q * (q + 1))
    return GFBundle(q=q, g_at_q=(g_a - g_b * root) / divisor,
                    g1_at_q=(g1_a - g1_b * root) / g1_divisor, gammas=(gamma,))


def sphere_gf(q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Sphere-family bundle, evaluated termwise from the one-shell masses.

    Coefficient of y^n in the x = q evaluation is 1 for n = 0 and q/(q+1)
    for n >= 1; in the x-derivative it is n/(q+1). Row i is supported at
    n = i only.
    """
    return bundle_from_table(sphere_g_table(q, order))


def ball_gf(q: int, order: int = DEFAULT_ORDER) -> GFBundle:
    """Ball-family bundle, evaluated termwise from the flat level masses."""
    return bundle_from_table(ball_g_table(q, order))


def check_functional_equation(rows: GTable | Sequence[Sequence[RationalLike]],
                              alpha: RationalLike, q: int) -> bool:
    """True iff the defining walk-family identity holds for the given rows.

    ``rows[l][n]`` is the y^n coefficient of the distance-l row C_l, e.g.
    ``table.rows``; gamma is the first row. A :class:`GTable` may stand in
    for its rows, and its integer columns are then read as they are. The
    identity q*x = ((q+1)(x - alpha*x*y) - q(1-alpha)y - (1-alpha)x^2 y) G +
    (-x + alpha*x*y + q(1-alpha)y) gamma, G = sum_l C_l x^l, leaves at x^k y^n
    the residual (q+1)(C_{k-1}[n] - alpha C_{k-1}[n-1]) - q(1-alpha) C_k[n-1]
    - (1-alpha) C_{k-2}[n-1], less gamma[n] - alpha gamma[n-1] + q[n = 0] at
    k = 1; at k = 0 it cancels for any rows. Raises :class:`ValueError` for
    empty or ragged rows.

    The residuals are integers. Rational rows are put over one scale per
    time n, the lcm of that column's denominators, under the charge cap
    (:func:`rational._over_scale`): a column over it raises :class:`TooLarge`
    before any entry is scaled. The residual at y^n, which reads columns n
    and n - 1, is scaled by den(alpha) and the lcm of their two scales: a
    power of S for the walk table.
    """
    alpha = _check_alpha(alpha)
    if isinstance(rows, GTable):
        columns, scales = rows.columns, rows.scales
    else:
        width = len(rows[0]) if rows else 0
        if not width or any(len(row) != width for row in rows):
            raise ValueError("rows must be nonempty and of one length")
        columns, scales = [], []
        for col in zip(*(map(_frac, row) for row in rows)):
            scale, nums = _over_scale(col)
            columns.append(nums)
            scales.append(scale)
    a, den = alpha.numerator, alpha.denominator
    count = len(columns[0])
    prev, prev_scale = (0,) * count, 1  # column n - 1, zero before time 0
    for n, (col, scale) in enumerate(zip(columns, scales)):
        shared = gcd(scale, prev_scale)
        now = den * (prev_scale // shared)  # den * lcm / scale, on column n
        back = scale // shared  # lcm / prev_scale, on column n - 1, times a or den - a
        for k in range(1, count):
            low = prev[k - 2] if k > 1 else 0
            residual = ((q + 1) * (now * col[k - 1] - a * back * prev[k - 1])
                        - (den - a) * back * (q * prev[k] + low))
            if k == 1:
                residual -= now * col[0] - a * back * prev[0] + (q * den * scale if n == 0 else 0)
            if residual:
                return False
        prev, prev_scale = col, scale
    return True


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

    c_g1 = 2 * geometry.slope_factor
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
        total += w_i * bundle.gammas[i][n]
    return total


def srw_profile(alpha: RationalLike, q: int, n: int) -> RadialProfile:
    """Time-n walk distribution as a radial profile: the last column of the
    recurrence, over S^n; raises :class:`InvalidParams` for a negative n."""
    if n < 0:
        raise InvalidParams(f"walk time step must be >= 0, got {n}")
    columns, base = _srw_scaled_columns(alpha, q, n)
    for col in columns:
        pass
    return RadialProfile(col[:-1], base ** n)
