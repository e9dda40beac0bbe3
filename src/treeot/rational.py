"""Parsing and rendering of exact rationals.

Rationals cross the package boundary as strings like ``"3/4"`` or ``"5"`` so
that JSON and CSV artifacts stay lossless; decimal output is a rendering only.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from typing import Iterable

RationalLike = Fraction | int | str


def _frac(value: RationalLike) -> Fraction:
    """A Fraction as is; anything else under the rules of :func:`parse_rational`."""
    return value if isinstance(value, Fraction) else parse_rational(value)


def _over_lcm(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """The numerators of ``values`` over L, the lcm of their denominators, and L."""
    fracs = [_frac(x) for x in values]
    scale = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs], scale


def _qpow(q: int, e: int) -> Fraction:
    """q**e as an exact rational, allowing negative exponents."""
    return Fraction(q) ** e


def _shown(value: object) -> str:
    """``repr(value)`` for a message, cut to about 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:30]}... ({len(text)} characters)"


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (or ints/Fractions) into a Fraction.

    Decimal strings such as ``"0.5"`` are read exactly. Raises
    :class:`ValueError` naming the value (cut to 40 characters) for anything
    else (floats and bools included), for a string with an exponent
    (``"1e3"``: its expansion has no bound), for a run of digits longer than
    Python's integer-string limit, and for a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"cannot interpret {_shown(value)} as an exact rational; "
                         f"give an int or a \"p/q\" string")
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation in {_shown(value)} is refused; "
                             f"give an int or a \"p/q\" string")
        limit = sys.get_int_max_str_digits()
        if 0 < limit < len(value):  # only then can a run of digits pass the limit
            longest = max(map(len, re.findall(r"\d+", value)), default=0)
            if longest > limit:
                raise ValueError(f"{_shown(value)} holds a {longest}-digit integer, over "
                                 f"the {limit}-digit limit")
    try:
        return Fraction(value.strip() if isinstance(value, str) else value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(value)}") from None
    except ValueError:
        raise ValueError(f"cannot interpret {_shown(value)} as an exact rational; "
                         f"give an int or a \"p/q\" string") from None


def format_rational(value: Fraction) -> str:
    """Lossless string form, ``"p/q"`` or ``"p"`` for integers."""
    return str(Fraction(value))


def decimal_string(value: Fraction) -> str:
    """Decimal rendering with 12 significant digits."""
    value = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = 12
        rendered = Decimal(value.numerator) / Decimal(value.denominator)
    return str(rendered)
