"""Exact arithmetic helpers: parsing, tick conversion, money formatting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bessarb._numeric import (
    TICKS_PER_MWH,
    format_decimal,
    format_money,
    mwh_to_ticks,
    parse_decimal,
    scale_to_integers,
    ticks_to_mwh,
    to_cents,
)
from bessarb.errors import MalformedRow


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


class TestCents:
    def test_exact_cents(self):
        assert to_cents(Fraction("12.34")) == 1234

    def test_half_even_down(self):
        # 12.5 cents rounds to the even 12
        assert to_cents(Fraction("0.125")) == 12

    def test_half_even_up(self):
        assert to_cents(Fraction("0.135")) == 14

    def test_negative(self):
        assert to_cents(Fraction("-1.01")) == -101


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

    @given(
        st.integers(min_value=-10**12, max_value=10**12),
        st.integers(min_value=0, max_value=9),
    )
    def test_parse_inverts_format(self, units, scale):
        value = Fraction(units, 10**scale)
        assert parse_decimal(format_decimal(value)) == value


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
        scaled, lcm = scale_to_integers(values)
        assert lcm >= 1
        assert all(lcm % v.denominator == 0 for v in values)
        assert [Fraction(n, lcm) for n in scaled] == values

    def test_mixed_denominators(self):
        values = [Fraction("0.5"), Fraction("-1.25"), Fraction(3)]
        assert scale_to_integers(values) == ((2, -5, 12), 4)

    def test_empty(self):
        assert scale_to_integers([]) == ((), 1)
