"""Truncated univariate formal power series with exact rational coefficients.

A ``Series`` holds coefficients a_0 .. a_N and supports ring arithmetic,
division and square root when the constant term permits, differentiation,
and coefficient extraction. Everything is exact up to the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .errors import NonSquareConstantTerm, NonUnitDivisor, OrderExceeded
from .rational import RationalLike, _frac


class Series:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike], order: int | None = None):
        vals = [_frac(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            vals = vals[: order + 1] + [Fraction(0)] * (order + 1 - len(vals))
        elif not vals:
            raise ValueError("a series needs at least a constant term")
        self._coeffs = tuple(vals)

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "Series":
        return cls([_frac(value)], order=order)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: RationalLike = 1) -> "Series":
        vals = [Fraction(0)] * (order + 1)
        if degree <= order:
            vals[degree] = _frac(coeff)
        return cls(vals)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n > self.order:
            raise OrderExceeded(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficient(n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def _wrap(self, coeffs: Sequence[Fraction]) -> "Series":
        return Series(coeffs, order=self.order)

    def __add__(self, other: "Series | RationalLike") -> "Series":
        if isinstance(other, Series):
            self._check_order(other)
            return self._wrap([a + b for a, b in zip(self._coeffs, other._coeffs)])
        vals = list(self._coeffs)
        vals[0] += _frac(other)
        return self._wrap(vals)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return self._wrap([-a for a in self._coeffs])

    def __sub__(self, other: "Series | RationalLike") -> "Series":
        return self + (-other if isinstance(other, Series) else -_frac(other))

    def __rsub__(self, other: RationalLike) -> "Series":
        return (-self) + _frac(other)

    def __mul__(self, other: "Series | RationalLike") -> "Series":
        if not isinstance(other, Series):
            c = _frac(other)
            return self._wrap([c * a for a in self._coeffs])
        self._check_order(other)
        n = self.order
        a, b = self._coeffs, other._coeffs
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return self._wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "Series | RationalLike") -> "Series":
        if not isinstance(other, Series):
            c = _frac(other)
            if not c:
                raise ZeroDivisionError("division of a series by zero")
            return self._wrap([a / c for a in self._coeffs])
        self._check_order(other)
        if not other._coeffs[0]:
            raise NonUnitDivisor("series division needs a nonzero constant term")
        n = self.order
        a, b = self._coeffs, other._coeffs
        b0 = b[0]
        out = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            acc = a[k]
            for i in range(1, k + 1):
                if b[i]:
                    acc -= b[i] * out[k - i]
            out[k] = acc / b0
        return self._wrap(out)

    def __rtruediv__(self, other: RationalLike) -> "Series":
        return Series.constant(other, self.order) / self

    def inverse(self) -> "Series":
        return Series.constant(1, self.order) / self

    def sqrt(self) -> "Series":
        """Square root with positive rational constant term, exact to order."""
        a0 = self._coeffs[0]
        if not a0:
            raise NonUnitDivisor("series square root needs a nonzero constant term")
        if a0 < 0:
            raise NonSquareConstantTerm(f"constant term {a0} is negative")
        pn, pd = isqrt(a0.numerator), isqrt(a0.denominator)
        if pn * pn != a0.numerator or pd * pd != a0.denominator:
            raise NonSquareConstantTerm(f"constant term {a0} is not a rational square")
        n = self.order
        c = [Fraction(0)] * (n + 1)
        c[0] = Fraction(pn, pd)
        twice_c0 = 2 * c[0]
        for k in range(1, n + 1):
            acc = self._coeffs[k]
            for i in range(1, k):
                if c[i] and c[k - i]:
                    acc -= c[i] * c[k - i]
            c[k] = acc / twice_c0
        return self._wrap(c)

    def derivative(self) -> "Series":
        """Formal derivative, truncated at the same order (top coefficient 0)."""
        vals = [k * self._coeffs[k] for k in range(1, self.order + 1)]
        return Series(vals, order=self.order)

    def shifted(self, k: int = 1) -> "Series":
        """Multiplication by y^k at fixed truncation order."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        return Series([Fraction(0)] * k + list(self._coeffs), order=self.order)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def _check_order(self, other: "Series") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
