"""Exact arithmetic helpers.

Money and prices are carried as fractions.Fraction so settlement identities
hold exactly; energy is carried as integer milli-MWh ticks.  Rounding happens
only at serialization boundaries (report CSVs round to cents).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from bessarb.errors import MalformedRow

TICKS_PER_MWH = 1000


def parse_decimal(text: str, *, line: int = 0) -> Fraction:
    """Parse a decimal string exactly; raises MalformedRow on failure."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise MalformedRow(line, f"not a decimal number: {text!r}") from None


def mwh_to_ticks(value: Fraction | str | int | float) -> int:
    """Convert MWh to integer milli-MWh ticks; the value must be exact."""
    frac = value if isinstance(value, Fraction) else Fraction(str(value))
    ticks = frac * TICKS_PER_MWH
    if ticks.denominator != 1:
        raise ValueError(f"{value} MWh is not a whole number of milli-MWh")
    return int(ticks)


def ticks_to_mwh(ticks: int) -> Fraction:
    return Fraction(ticks, TICKS_PER_MWH)


def scale_to_integers(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(numerators, L): each value times L, L the lcm of their denominators.

    Values scaled by one positive L compare, add and subtract exactly as
    the fractions do, so hot loops can run on plain integers.
    """
    lcm = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (lcm // v.denominator) for v in values), lcm


def pinball_sum(a: int, b: int, actual: Iterable[int], predicted: Iterable[int]) -> int:
    """b * S times the summed pinball loss at quantile level a/b.

    `actual` and `predicted` are paired integers over one positive scale S.
    An actual above its prediction costs a per unit, one below costs b - a.
    """
    under = over = 0
    for y, z in zip(actual, predicted):
        if y >= z:
            under += y - z
        else:
            over += z - y
    return a * under + (b - a) * over


def to_cents(value: Fraction) -> int:
    """Round an exact euro amount to integer cents (half-even)."""
    return round(value * 100)


def format_decimal(value: Fraction) -> str:
    """Shortest exact decimal string; raises if the value is not decimal."""
    num, den = value.numerator, value.denominator
    scale = 0
    d = den
    for p in (2, 5):
        while d % p == 0:
            d //= p
            scale += 1
    if d != 1:
        raise ValueError(f"{value!r} has no exact decimal representation")
    scaled = num * 10**scale // den
    text = f"{abs(scaled):0{scale + 1}d}"
    if scale:
        text = f"{text[:-scale]}.{text[-scale:]}".rstrip("0").rstrip(".")
    return f"-{text}" if scaled < 0 else text


def format_money(value: Fraction) -> str:
    """Fixed two-decimal euro string, rounding half-even to cents."""
    cents = to_cents(value)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"
