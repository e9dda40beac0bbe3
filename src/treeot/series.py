"""Truncated univariate formal power series with exact coefficients.

A ``Series`` holds coefficients a_0 .. a_N and supports ring arithmetic,
division, square root when the constant term permits, and
coefficient extraction. Everything is exact up to the truncation order. A
divisor that starts at y^v needs a dividend that starts there too; both drop
y^v, and the quotient ends at order N - v. A series from
:meth:`Series.scaled` holds integers num[k] / base**k (a series in t = base *
y): two over one base compute on the numerators alone, each division by a
leading coefficient must be exact (:func:`_exact`), and a first read of the
coefficients leaves only the Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import isqrt
from operator import add, mul, truediv
from typing import Callable, Iterable, Sequence

from .errors import InexactDivision, NonSquareConstantTerm, NonUnitDivisor, OrderExceeded
from .rational import RationalLike, _frac


def _exact(value: int, divisor: int) -> int:
    """value / divisor, which must be an integer; never rounds."""
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise InexactDivision(f"an integer-scaled series step left a remainder modulo "
                              f"{divisor}: the base does not clear the denominators")
    return quotient


def _product(a: Sequence, b: Sequence) -> list:
    """Coefficients of the truncated product of two equal-length sequences."""
    n = len(a)
    out = [0] * n
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                if i + j >= n:
                    break
                out[i + j] += ai * bj
    return out


def _quotient(a: Sequence, b: Sequence, divide: Callable) -> list:
    """Coefficients of a / b. If b starts at y^v, a must vanish below y^v
    too: both drop y^v, and the quotient ends at order N - v. Each step
    divides by b[v] through ``divide``, and costs one term per nonzero b[i]."""
    v = next((i for i, bi in enumerate(b) if bi), None)
    if v is None:
        raise NonUnitDivisor("series division by the zero series")
    if any(a[:v]):
        raise NonUnitDivisor(f"the divisor starts at y^{v}, so the dividend must vanish below it")
    lead = b[v]
    terms = [(i - v, bi) for i, bi in enumerate(b) if i > v and bi]
    out: list = []
    for k, acc in enumerate(a[v:]):
        for i, bi in terms:
            if i > k:
                break
            acc -= bi * out[k - i]
        out.append(divide(acc, lead))
    return out


def _root(a: Sequence, divide: Callable) -> list:
    """Coefficients of the square root f of a, whose constant term must be a
    positive rational square. From 2 a f' = a' f, 2 m a_0 f_m is the sum of
    (3i - 2m) a_i f_(m-i) over the nonzero a_i with 1 <= i <= m: one term per
    nonzero a_i, so linear in the order for a polynomial a. Each step divides
    by 2 m a_0 through ``divide``."""
    a0 = a[0]
    if not a0:
        raise NonUnitDivisor("series square root needs a nonzero constant term")
    if a0 < 0:
        raise NonSquareConstantTerm(f"constant term {a0} is negative")
    pn, pd = isqrt(a0.numerator), isqrt(a0.denominator)
    if pn * pn != a0.numerator or pd * pd != a0.denominator:
        raise NonSquareConstantTerm(f"constant term {a0} is not a rational square")
    out = [pn if pd == 1 else Fraction(pn, pd)]
    terms = [(i, ai) for i, ai in enumerate(a) if i and ai]
    for m in range(1, len(a)):
        acc = 0
        for i, ai in terms:
            if i > m:
                break
            acc += (3 * i - 2 * m) * ai * out[m - i]
        out.append(divide(acc, 2 * m * a0))
    return out


class Series:
    __slots__ = ("_coeffs", "_num", "_den", "base")

    def __init__(self, coeffs: Iterable[RationalLike], order: int | None = None):
        vals = [_frac(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            vals = vals[: order + 1] + [Fraction(0)] * (order + 1 - len(vals))
        elif not vals:
            raise ValueError("a series needs at least a constant term")
        self._coeffs: tuple[Fraction, ...] | None = tuple(vals)
        self._num = self._den = self.base = None

    @classmethod
    def over(cls, num: Sequence[int], den: Sequence[int], base: int | None = None) -> "Series":
        """Coefficient k is the integer ratio num[k] / den[k], formed as a
        reduced Fraction on the first read; ``base`` marks den[k] = base**k."""
        series = cls.__new__(cls)
        series._coeffs, series._num, series._den, series.base = None, list(num), den, base
        return series

    @classmethod
    def scaled(cls, coeffs: Iterable[RationalLike], base: int, order: int) -> "Series":
        """The series of ``coeffs``, zero-padded to ``order``, held as integers
        over base**k; raises :class:`InexactDivision` where base**k does not
        clear the denominator of coefficient k."""
        coeffs = list(coeffs)
        vals = cls(coeffs, order=order).coefficients[: len(coeffs)]
        powers = list(accumulate(repeat(base, order), mul, initial=1))
        num = [_exact(c.numerator * p, c.denominator) for c, p in zip(vals, powers)]
        return cls.over(num + [0] * (order + 1 - len(num)), powers, base)

    @property
    def order(self) -> int:
        return len(self._num if self._coeffs is None else self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(map(Fraction, self._num, self._den))
            self._num = self._den = self.base = None
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n > self.order:
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return self.coefficients[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coefficients[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def _wrap(self, coeffs: Sequence[RationalLike]) -> "Series":
        return Series(coeffs, order=self.order)

    def _on_ints(self, num: Iterable[int]) -> "Series":
        return Series.over(num, self._den, self.base)

    def _same_base(self, other: "Series") -> bool:
        """Check the orders match; True when both hold integers over one base."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return self.base is not None and self.base == other.base

    def __add__(self, other: "Series | RationalLike") -> "Series":
        if isinstance(other, Series):
            if self._same_base(other):
                return self._on_ints(map(add, self._num, other._num))
            return self._wrap(list(map(add, self.coefficients, other.coefficients)))
        vals = list(self.coefficients)
        vals[0] += _frac(other)
        return self._wrap(vals)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return self * -1

    def __sub__(self, other: "Series | RationalLike") -> "Series":
        return self + (-other if isinstance(other, Series) else -_frac(other))

    def __rsub__(self, other: RationalLike) -> "Series":
        return (-self) + _frac(other)

    def __mul__(self, other: "Series | RationalLike") -> "Series":
        if not isinstance(other, Series):
            if self.base is not None and type(other) is int:
                return self._on_ints(other * a for a in self._num)
            c = _frac(other)
            return self._wrap([c * a for a in self.coefficients])
        if self._same_base(other):
            return self._on_ints(_product(self._num, other._num))
        return self._wrap(_product(self.coefficients, other.coefficients))

    __rmul__ = __mul__

    def __truediv__(self, other: "Series | RationalLike") -> "Series":
        if not isinstance(other, Series):
            return self * (1 / _frac(other))
        if self._same_base(other):
            num = _quotient(self._num, other._num, _exact)
            return Series.over(num, self._den[:len(num)], self.base)
        return Series(_quotient(self.coefficients, other.coefficients, truediv))

    def __rtruediv__(self, other: RationalLike) -> "Series":
        return Series([other], order=self.order) / self

    def sqrt(self) -> "Series":
        """Square root with positive rational constant term, exact to order."""
        if self.base is not None:
            return self._on_ints(_root(self._num, _exact))
        return self._wrap(_root(self.coefficients, truediv))
