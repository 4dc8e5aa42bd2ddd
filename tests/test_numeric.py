"""Exact arithmetic helpers: parsing, tick conversion, money formatting."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bessarb._numeric import (
    MAX_DIGITS,
    MAX_EXPONENT,
    TICKS_PER_MWH,
    decimal_formatter,
    format_cents,
    format_decimal,
    format_money,
    format_ratio,
    mwh_to_ticks,
    parse_decimal,
    parse_number,
    parse_ratio,
    scale_ratios,
    ticks_to_mwh,
)
from bessarb.errors import ConfigError, MalformedRow

from conftest import texts


def _within_bound(text: str) -> bool:
    """At most MAX_DIGITS digits and an exponent of at most MAX_EXPONENT."""
    exponent = re.search(r"[eE]([-+]?\d+)", text.replace("_", ""))
    return (sum(map(str.isdecimal, text)) <= MAX_DIGITS
            and not (exponent and abs(int(exponent[1])) > MAX_EXPONENT))


class TestParseDecimal:
    def test_plain_decimal(self):
        assert parse_decimal("42.17") == Fraction("42.17")

    def test_signed_and_whitespace(self):
        assert parse_decimal("  -3.5 ") == Fraction("-3.5")

    def test_integer(self):
        assert parse_decimal("7") == Fraction(7)

    def test_garbage_raises_with_line(self):
        with pytest.raises(MalformedRow) as err:
            parse_decimal("12,5", line=9)
        assert "9" in str(err.value)

    def test_empty_raises(self):
        with pytest.raises(MalformedRow):
            parse_decimal("")

    @given(texts)
    @settings(max_examples=400)
    def test_matches_fraction_of_the_stripped_text(self, text):
        # within the bound, parse_decimal and parse_ratio accept exactly what
        # Fraction accepts
        assume(_within_bound(text))
        try:
            want = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(MalformedRow):
                parse_decimal(text)
            with pytest.raises(MalformedRow):
                parse_ratio(text)
            return
        assert parse_decimal(text) == want
        num, den = parse_ratio(text)
        assert den > 0 and Fraction(num, den) == want

    @given(st.from_regex(r"-?[0-9]+(\.[0-9]+)?", fullmatch=True))
    def test_plain_decimal_reads_as_digits_over_a_power_of_ten(self, text):
        digits = text.partition(".")[2]
        assert parse_ratio(text) == (int(text.replace(".", "")), 10 ** len(digits))

    @pytest.mark.parametrize(
        "text,ratio",
        [("-12.50", (-1250, 100)), ("007", (7, 1)), (" 1.5 ", (3, 2)),
         ("+5", (5, 1)), (".5", (1, 2)), ("5.", (5, 1)), ("1e3", (1000, 1)),
         ("1/3", (1, 3)), ("\u0663.\u0665", (7, 2))],
    )
    def test_ratio_examples(self, text, ratio):
        assert parse_ratio(text) == ratio

    @pytest.mark.parametrize(
        "text",
        [f"1e{MAX_EXPONENT + 1}", f" 1e-{MAX_EXPONENT + 1}", "1e10000000",
         "+" + "1" * (MAX_DIGITS + 1), "1" * MAX_DIGITS + "e1",
         "1/" + "1" * MAX_DIGITS, "1" * 5000],
    )
    def test_beyond_the_bound_is_a_malformed_row(self, text):
        # checked before Fraction runs; a plain decimal is read by int(), and
        # past int's digit limit it fails as a row too
        with pytest.raises(MalformedRow, match="^line 7: "):
            parse_ratio(text, line=7)

    def test_plain_decimals_are_not_bounded(self):
        text = "-" + "9" * (2 * MAX_DIGITS) + "." + "5" * MAX_DIGITS
        assert Fraction(*parse_ratio(text)) == Fraction(text)


class TestParseNumber:
    @given(texts)
    @settings(max_examples=400)
    def test_matches_fraction_within_the_bound(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                parse_number(text)
            return
        assert parse_number(text) == want

    @pytest.mark.parametrize(
        "text",
        ["9" * MAX_DIGITS, "-" + "9" * (MAX_DIGITS - 3) + f"e{MAX_EXPONENT}",
         f"1e-{MAX_EXPONENT}", f"0.5E+{MAX_EXPONENT}", "1/" + "3" * (MAX_DIGITS - 1)],
    )
    def test_every_value_within_the_bound_prints(self, text):
        value = parse_number(text)
        assert value == Fraction(text)
        float(value)
        format_money(value * 10**6)
        format_money(1 / value)

    @pytest.mark.parametrize(
        "text",
        ["1" * (MAX_DIGITS + 1), f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}",
         "1e5000", "1e10000000", "1e-10000000", "0." + "0" * MAX_DIGITS + "1",
         "1/" + "1" * MAX_DIGITS, "1e1_000"],
    )
    def test_beyond_the_bound_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match=f"at most {MAX_DIGITS} digits"):
            parse_number(text)


class TestTicks:
    def test_whole_mwh(self):
        assert mwh_to_ticks("1") == TICKS_PER_MWH

    def test_milli_mwh_is_one_tick(self):
        assert mwh_to_ticks("0.001") == 1

    def test_sub_tick_rejected(self):
        with pytest.raises(ValueError):
            mwh_to_ticks("0.0005")

    def test_ticks_to_mwh(self):
        assert ticks_to_mwh(1500) == Fraction(3, 2)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip(self, ticks):
        assert mwh_to_ticks(ticks_to_mwh(ticks)) == ticks


# Euro amounts as (num, den): any sign and size, and exact half cents put in
# terms up to 10**15 times too large.
cash_ratios = st.one_of(
    st.tuples(st.integers(-10**40, 10**40), st.integers(1, 10**30)),
    st.builds(lambda k, m: ((2 * k + 1) * m, 200 * m),
              st.integers(-10**12, 10**12), st.integers(1, 10**15)),
)


class TestCents:
    @given(cash_ratios)
    @settings(max_examples=400)
    def test_format_cents_matches_a_fraction_formatter(self, ratio):
        cents = round(Fraction(*ratio) * 100)
        sign = "-" if cents < 0 else ""
        want = f"{sign}{abs(cents) // 100}.{abs(cents) % 100:02d}"
        assert format_cents(*ratio) == want == format_money(Fraction(*ratio))

    def test_exact_cents(self):
        assert format_cents(1234, 100) == "12.34"

    def test_half_even_down(self):
        # 12.5 cents rounds to the even 12
        assert format_cents(125, 1000) == "0.12"

    def test_half_even_up(self):
        assert format_cents(135, 1000) == "0.14"

    def test_negative(self):
        assert format_cents(-101, 100) == "-1.01"


class TestFormatDecimal:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(3), "3"),
            (Fraction("1.500"), "1.5"),
            (Fraction("-0.25"), "-0.25"),
            (Fraction("0.001"), "0.001"),
            (Fraction(0), "0"),
        ],
    )
    def test_shortest_form(self, value, text):
        assert format_decimal(value) == text

    def test_non_decimal_rejected(self):
        with pytest.raises(ValueError):
            format_decimal(Fraction(1, 3))

    @pytest.mark.parametrize(
        "num,den,text",
        [(250, 1000, "0.25"), (-30, 3, "-10"), (6, 30, "0.2"), (0, 7, "0"),
         (1234, 100, "12.34")],
    )
    def test_ratio_in_any_terms(self, num, den, text):
        assert format_ratio(num, den) == text == format_decimal(Fraction(num, den))

    def test_non_decimal_ratio_rejected(self):
        with pytest.raises(ValueError):
            format_ratio(3, 9)

    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=0, max_value=9),
    )
    def test_parse_inverts_format(self, units, scale):
        value = Fraction(units, 10**scale)
        assert parse_decimal(format_decimal(value)) == value


def _reduce_then_count(num: int, den: int) -> str:
    """format_ratio's first algorithm: reduce num/den, count den's factors
    of 2 and 5, and print num * 10**count // den to that many places."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    scale, d = 0, den
    for p in (2, 5):
        while d % p == 0:
            d //= p
            scale += 1
    if d != 1:
        raise ValueError(f"{num}/{den} has no exact decimal representation")
    scaled = num * 10**scale // den
    text = f"{abs(scaled):0{scale + 1}d}"
    if scale:
        text = f"{text[:-scale]}.{text[-scale:]}".rstrip("0").rstrip(".")
    return f"-{text}" if scaled < 0 else text


def _outcome(fmt, num: int, den: int):
    """The text, or the ValueError's message."""
    try:
        return fmt(num, den)
    except ValueError as exc:
        return ValueError, str(exc)


class TestDecimalPlan:
    """format_ratio and decimal_formatter against _reduce_then_count."""

    @given(
        st.one_of(st.integers(-10**100, 10**100), st.sampled_from([0, -1, 1])),
        st.integers(0, 14),
        st.integers(0, 14),
        st.sampled_from([1, 1, 3, 7, 9, 11, 21, 49, 10**9 + 7]),
        st.booleans(),
    )
    @example(-(10**100) + 1, 3, 0, 1, False)
    @example(10**100, 0, 7, 21, True)
    @example(0, 0, 0, 3, False)
    def test_plan_matches_the_reduce_then_count_oracle(self, num, twos, fives, odd, multiple):
        den = 2**twos * 5**fives * odd
        if multiple:  # odd divides num, so num/den has a decimal form
            num *= odd
        want = _outcome(_reduce_then_count, num, den)
        assert _outcome(format_ratio, num, den) == want
        assert _outcome(lambda n, d: decimal_formatter(d)(n), num, den) == want

    @given(st.integers(-10**100, 10**100), st.integers(1, 10**30))
    def test_any_denominator_matches_the_oracle(self, num, den):
        assert _outcome(format_ratio, num, den) == _outcome(_reduce_then_count, num, den)

    def test_error_names_the_reduced_ratio(self):
        with pytest.raises(ValueError, match=r"^1/3 has no exact decimal representation$"):
            format_ratio(6, 18)
        with pytest.raises(ValueError, match=r"^-7/30 has no exact"):
            decimal_formatter(60)(-14)

    @pytest.mark.parametrize("den", [0, -1, -10])
    def test_denominator_must_be_positive(self, den):
        with pytest.raises(ValueError):
            decimal_formatter(den)

    def test_one_plan_serves_every_numerator(self):
        fmt = decimal_formatter(40)  # 40 = 2**3 * 5: k = 3, multiplier 25
        assert [fmt(n) for n in (0, 1, -2, 40, 400, -41)] == [
            "0", "0.025", "-0.05", "1", "10", "-1.025"]


class TestFormatMoney:
    def test_two_decimals_always(self):
        assert format_money(Fraction(2)) == "2.00"

    def test_rounds_to_cents(self):
        assert format_money(Fraction("1234.567")) == "1234.57"

    def test_negative(self):
        assert format_money(Fraction("-43.0204")) == "-43.02"

    def test_exact_repeating_fraction(self):
        # 1460/49 is the buy-10 sell-50 unit settlement
        assert format_money(Fraction(1460, 49)) == "29.80"


class TestScaleToIntegers:
    @given(st.lists(st.fractions(max_denominator=1000), max_size=12))
    def test_integers_are_values_times_the_lcm(self, values):
        scaled, lcm = scale_ratios([v.as_integer_ratio() for v in values])
        assert lcm >= 1
        assert all(lcm % v.denominator == 0 for v in values)
        assert [Fraction(n, lcm) for n in scaled] == values

    def test_mixed_denominators(self):
        values = [Fraction("0.5"), Fraction("-1.25"), Fraction(3)]
        assert scale_ratios([v.as_integer_ratio() for v in values]) == ((2, -5, 12), 4)

    def test_empty(self):
        assert scale_ratios([]) == ((), 1)
