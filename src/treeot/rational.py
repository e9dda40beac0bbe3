"""Parsing and rendering of exact rationals.

Rationals cross the package boundary as strings like ``"3/4"`` or ``"5"`` so
that JSON and CSV artifacts stay lossless; decimal output is a rendering only.
"""

from __future__ import annotations

import re
import sys
from decimal import Context, Decimal
from fractions import Fraction
from math import lcm, log10
from typing import Iterable

from .errors import TooLarge

RationalLike = Fraction | int | str

#: Budget for integers held over one common denominator L: bits(L) times the
#: number of values held over L (about 128 MiB of digits). Larger sets raise
#: :class:`TooLarge`.
MAX_CHARGE_BITS = 2 ** 30

#: The context of :func:`decimal_string`, built once: 12 significant digits,
#: every other setting the default one.
_TWELVE_DIGITS = Context(prec=12)


def _frac(value: RationalLike) -> Fraction:
    """A Fraction as is; anything else under the rules of :func:`parse_rational`."""
    return value if isinstance(value, Fraction) else parse_rational(value)


def _common_scale(denominators: Iterable[int], count: int) -> int:
    """L, the lcm of ``denominators``, grown one at a time; raises :class:`TooLarge`
    as soon as ``count`` integers over L would pass :data:`MAX_CHARGE_BITS`."""
    scale = 1
    for d in denominators:
        scale = lcm(scale, d)
        if scale.bit_length() * count > MAX_CHARGE_BITS:
            raise TooLarge(f"a common denominator of {scale.bit_length()} bits over {count} "
                           f"values exceeds the {MAX_CHARGE_BITS}-bit charge cap")
    return scale


def _over_scale(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """``(scale, nums)``: the rationals ``values`` as integers ``nums[k]`` over
    their common scale. The scale grows under the charge cap
    (:func:`_common_scale`), over the denominators in first-seen order so that
    the point where the cap refuses does not hang on set order, and a set over
    the cap is refused before any value is scaled."""
    values = list(values)
    denominators = dict.fromkeys(x.denominator for x in values)
    scale = _common_scale(denominators, len(values))
    factor = {q: scale // q for q in denominators}
    return scale, [x.numerator * factor[x.denominator] for x in values]


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


def _digits(n: int) -> int:
    """The number of decimal digits of ``n`` != 0, counted without rendering it."""
    n = abs(n)
    low = int((n.bit_length() - 1) * log10(2))  # floor(log10 n), give or take one
    power = 10 ** low
    while power > n:
        power //= 10
        low -= 1
    while power * 10 <= n:
        power *= 10
        low += 1
    return low + 1


def format_rational(value: Fraction) -> str:
    """Lossless string form, ``"p/q"`` or ``"p"`` for integers. Raises
    :class:`TooLarge`, naming the digit count, when the numerator or the
    denominator has more digits than Python's integer-string limit."""
    if type(value) is not Fraction:  # Fraction(value) would copy even a Fraction
        value = Fraction(value)
    limit = sys.get_int_max_str_digits()
    for part, name in ((value.numerator, "numerator"), (value.denominator, "denominator")):
        # Under 3 * limit bits a part has under 0.91 * limit digits: no count needed.
        if limit and part.bit_length() > 3 * limit:
            digits = _digits(part)
            if digits > limit:
                raise TooLarge(f"the exact value has a {digits}-digit {name}, over the "
                               f"{limit}-digit limit on printed integers")
    return str(value)


def decimal_string(value: Fraction) -> str:
    """Decimal rendering with 12 significant digits."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return str(_TWELVE_DIGITS.divide(Decimal(value.numerator), Decimal(value.denominator)))
