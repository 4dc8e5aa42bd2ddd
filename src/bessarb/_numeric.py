"""Exact arithmetic helpers.

Prices are carried as integers over one positive scale per series: a CSV
cell is read straight into an integer numerator over a power of ten, and
hot loops (strategy scans, settlement, the DP bound) add and compare those
integers.  Energy is carried as integer milli-MWh ticks.  A sweep keeps its
cash as integers up to the printed cent: `format_cents` rounds num/den
half-even to cents.  Strategies hand settlement integer legs, so a sweep
builds no order price.  A Fraction is built only for a value a caller
reads back: SettleResult.cash, each BacktestReport field, and the
TradeOrder.expected_price of a schedule that the public strategies or
backtest return.  Rounding happens only at serialization boundaries.

Writers print n/scale by a decimal plan worked out once per scale
(decimal_formatter): the part of the scale coprime to 10, the multiplier
that brings the rest up to 10**k, and k.  A plan lives as long as the
writer call that made it; nothing caches plans between calls, so a
long-lived process pays for each file as a one-shot run does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from bessarb.errors import ConfigError, MalformedRow

TICKS_PER_MWH = 1000

# Bound on the text of a number in an option, a battery file or a CSV cell:
# within it, a value lies under 10**300, so it converts to a float and prints.
MAX_DIGITS = 100
MAX_EXPONENT = 200

_PLAIN = r"-?\d+(?:\.\d+)?"
_PLAIN_DECIMAL = re.compile(_PLAIN, re.ASCII)
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def parse_ratio(text: str, *, line: int = 0) -> tuple[int, int]:
    """(n, d), d > 0, with n/d exactly the decimal text; MalformedRow on failure.

    Plain decimals, -?digits[.digits], are read by int() as their digits
    over 10**k, k the digits after the point.  Any other text is read by
    parse_number(text.strip()), so it parses or fails as Fraction does
    within the bound, and text beyond it fails before Fraction runs.
    """
    try:
        if _PLAIN_DECIMAL.fullmatch(text):
            whole, _, part = text.partition(".")
            return int(whole + part), 10 ** len(part)  # ValueError past int's limit
        return parse_number(text.strip()).as_integer_ratio()
    except ConfigError as exc:
        raise MalformedRow(line, f"{exc}: {text!r}") from None
    except (ValueError, ZeroDivisionError):
        raise MalformedRow(line, f"not a decimal number: {text!r}") from None


def parse_number(text: str) -> Fraction:
    """Fraction(text), failing as that does, for text within the bound:
    at most MAX_DIGITS digits and an exponent of at most MAX_EXPONENT either
    way.  Text beyond it is a ConfigError, before Fraction can spend seconds
    building a number that nothing prints."""
    exponent = _EXPONENT.search(text)
    if (sum(map(str.isdecimal, text)) > MAX_DIGITS
            or exponent and abs(int(exponent[1])) > MAX_EXPONENT):
        raise ConfigError(f"a number takes at most {MAX_DIGITS} digits"
                          f" and an exponent of at most {MAX_EXPONENT} either way")
    return Fraction(text)


def parse_decimal(text: str, *, line: int = 0) -> Fraction:
    """Parse a decimal string exactly; raises MalformedRow on failure."""
    return Fraction(*parse_ratio(text, line=line))


def exact(value) -> Fraction:
    """A Fraction as it is; any other value read as Fraction reads its text."""
    return value if isinstance(value, Fraction) else Fraction(str(value))


def mwh_to_ticks(value: Fraction | str | int | float) -> int:
    """Convert MWh to integer milli-MWh ticks; the value must be exact."""
    ticks = exact(value) * TICKS_PER_MWH
    if ticks.denominator != 1:
        raise ValueError(f"{value} MWh is not a whole number of milli-MWh")
    return int(ticks)


def ticks_to_mwh(ticks: int) -> Fraction:
    return Fraction(ticks, TICKS_PER_MWH)


def scale_ratios(ratios: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """(numerators, L): each n/d of `ratios` times L, L the lcm of the d.

    Values scaled by one positive L compare, add and subtract exactly as
    the fractions do, so hot loops can run on plain integers.
    """
    lcm = math.lcm(*(d for _, d in ratios))
    return tuple(n * (lcm // d) for n, d in ratios), lcm


def lowest_scale(scaled: Iterable[int], scale: int) -> tuple[tuple[int, ...], int]:
    """The values n/scale, over the least positive scale that keeps them whole."""
    if scale <= 0:
        raise ValueError(f"scale {scale} is not positive")
    scaled = tuple(scaled)
    g = math.gcd(scale, *scaled)
    if g == 1:
        return scaled, scale
    return tuple(n // g for n in scaled), scale // g


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


def format_decimal(value: Fraction) -> str:
    """Shortest exact decimal string; raises if the value is not decimal."""
    return format_ratio(*value.as_integer_ratio())


def exact_text(value: Fraction) -> str:
    """format_decimal's text, or the fraction's (`1/3`) when it has none."""
    try:
        return format_decimal(value)
    except ValueError:
        return str(value)


def decimal_formatter(den: int) -> Callable[[int], str]:
    """format_ratio(·, den), with den's decimal plan worked out once.

    The plan is (c, m, k): c is den's part coprime to 10, and m brings the
    rest, 2**a * 5**b, up to 10**k, k = max(a, b).  num/den has a decimal
    form exactly when c divides num; it is then num // c * m over 10**k,
    printed to k places and stripped of trailing zeros.  So each value
    costs one divmod, one multiply and one format.
    """
    if den <= 0:
        raise ValueError(f"denominator {den} is not positive")
    twos = (den & -den).bit_length() - 1
    c, fives = den >> twos, 0
    while c % 5 == 0:
        c //= 5
        fives += 1
    k = max(twos, fives)
    m = 2 ** (k - twos) * 5 ** (k - fives)
    spec = f"0{k + 1}d"

    def fmt(num: int) -> str:
        q, r = divmod(num, c)
        if r:
            g = math.gcd(num, den)
            raise ValueError(f"{num // g}/{den // g} has no exact decimal representation")
        v = q * m
        if not k:
            return str(v)
        text = format(-v if v < 0 else v, spec)
        text = f"{text[:-k]}.{text[-k:]}".rstrip("0").rstrip(".")
        return f"-{text}" if v < 0 else text

    return fmt


def format_ratio(num: int, den: int) -> str:
    """format_decimal of num/den, den > 0, without building a Fraction."""
    return decimal_formatter(den)(num)


def format_cents(num: int, den: int) -> str:
    """Two-decimal euro string of num/den, den > 0, rounded half-even to cents."""
    cents, rest = divmod(num * 100, den)
    cents += 2 * rest > den or 2 * rest == den and cents & 1
    whole, part = divmod(abs(cents), 100)
    return f"{'-' * (cents < 0)}{whole}.{part:02d}"


def format_money(value: Fraction) -> str:
    """format_cents of an exact euro amount."""
    return format_cents(*value.as_integer_ratio())
