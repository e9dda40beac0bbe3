"""Parsing and rendering of exact rationals.

Rationals cross the package boundary as strings like ``"3/4"`` or ``"5"`` so
that JSON and CSV artifacts stay lossless; decimal output is a rendering only.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

RationalLike = Fraction | int | str


def _frac(value: RationalLike) -> Fraction:
    """A Fraction as is; anything else under the rules of :func:`parse_rational`."""
    return value if isinstance(value, Fraction) else parse_rational(value)


def _qpow(q: int, e: int) -> Fraction:
    """q**e as an exact rational, allowing negative exponents."""
    return Fraction(q) ** e


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (or ints/Fractions) into a Fraction.

    Decimal strings such as ``"0.5"`` are read exactly. Raises
    :class:`ValueError` naming the value for anything else (floats and bools
    included), for a string with an exponent (``"1e3"``: its expansion has no
    bound), and for a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"cannot interpret {value!r} as an exact rational; "
                         f"give an int or a \"p/q\" string")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"exponent notation in {value!r} is refused; "
                         f"give an int or a \"p/q\" string")
    try:
        return Fraction(value.strip() if isinstance(value, str) else value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def format_rational(value: Fraction) -> str:
    """Lossless string form, ``"p/q"`` or ``"p"`` for integers."""
    return str(Fraction(value))


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering with the given number of significant digits."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        rendered = Decimal(value.numerator) / Decimal(value.denominator)
    return str(rendered)
