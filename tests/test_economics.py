"""Multi-year return projections and the built-in asset catalog."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessarb.economics import (
    DEFAULT_ANNUAL_FEES,
    DEGRADATION_RATE,
    MAINTENANCE_ESCALATION,
    EconScenario,
    annual_return_curve,
    annualize_backtest_revenue,
    breakeven_year,
    degradation_steps,
    implied_base_revenue,
    load_catalog,
    maintenance_factor,
    revenue_factor,
    scenario_for,
)
from bessarb.errors import ConfigError, MissingRevenueSource, ZeroSpan

from conftest import frac


def closed_form_cumulative(scenario: EconScenario, year: int) -> Fraction:
    """Direct formula for the curve value, to cross-check the recursion.

    Only yearly linear degradation has a tractable closed form.
    """
    assert scenario.degradation_kind == "linear"
    assert scenario.degradation_period_years == 1
    y = year
    g, m = scenario.base_revenue, scenario.base_maintenance
    revenue = g * y - g * DEGRADATION_RATE * y * (y - 1) / 2
    e = MAINTENANCE_ESCALATION
    if scenario.maintenance_kind == "compound":
        maint = m * ((1 + e) ** y - 1) / e
    else:
        maint = m * y + m * e * y * (y - 1) / 2
    return -scenario.capex + revenue - maint - scenario.annual_fees * y


def scenario(**kw):
    base = dict(capex="1000000", base_revenue="150000", base_maintenance="10000")
    base.update(kw)
    return EconScenario(**base)


class TestEconScenario:
    def test_money_fields_coerce_to_fractions(self):
        s = scenario(capex=1671000, base_revenue="188116.00")
        assert s.capex == Fraction(1671000)
        assert s.base_revenue == Fraction(188116)
        assert s.annual_fees == Fraction(18294)

    @pytest.mark.parametrize(
        "kw",
        [
            {"years": 0},
            {"degradation_period_years": 0},
            {"degradation_kind": "quadratic"},
            {"maintenance_kind": "stepped"},
        ],
    )
    def test_rejects_bad_inputs(self, kw):
        with pytest.raises(ConfigError):
            scenario(**kw)


class TestDegradationSteps:
    def test_yearly_steps(self):
        s = scenario()
        assert [degradation_steps(s, y) for y in (1, 2, 3, 4)] == [0, 1, 2, 3]

    def test_two_year_steps(self):
        s = scenario(degradation_period_years=2)
        assert [degradation_steps(s, y) for y in range(1, 7)] == [0, 1, 1, 2, 2, 3]


class TestFactors:
    def test_first_year_is_undegraded(self):
        for kind in ("linear", "loss_compound"):
            assert revenue_factor(scenario(degradation_kind=kind), 1) == 1

    def test_linear_decay(self):
        s = scenario()
        assert revenue_factor(s, 2) == 1 - frac("0.0155")
        assert revenue_factor(s, 4) == 1 - 3 * frac("0.0155")

    def test_compounding_capacity_loss(self):
        s = scenario(degradation_kind="loss_compound")
        assert revenue_factor(s, 2) == 2 - (1 + frac("0.0155"))
        assert revenue_factor(s, 3) == 2 - (1 + frac("0.0155")) ** 2

    def test_compound_loss_decays_faster_after_first_step(self):
        lin = scenario()
        cmp_ = scenario(degradation_kind="loss_compound")
        assert revenue_factor(cmp_, 2) == revenue_factor(lin, 2)
        for year in range(3, 16):
            assert revenue_factor(cmp_, year) < revenue_factor(lin, year)

    def test_maintenance_escalation(self):
        s = scenario()
        assert maintenance_factor(s, 1) == 1
        assert maintenance_factor(s, 3) == (1 + frac("0.02")) ** 2
        lin = scenario(maintenance_kind="linear")
        assert maintenance_factor(lin, 3) == 1 + 2 * frac("0.02")


class TestReturnCurve:
    def test_shape_and_year_zero(self):
        curve = annual_return_curve(scenario(years=15))
        assert len(curve) == 16
        assert curve[0] == -1000000

    def test_first_step_has_no_degradation(self):
        curve = annual_return_curve(scenario())
        assert curve[1] - curve[0] == 150000 - 10000 - DEFAULT_ANNUAL_FEES

    @pytest.mark.parametrize("maintenance_kind", ["compound", "linear"])
    def test_closed_form_matches_recursion(self, maintenance_kind):
        s = scenario(maintenance_kind=maintenance_kind)
        curve = annual_return_curve(s)
        for year, value in enumerate(curve):
            assert closed_form_cumulative(s, year) == value

    @given(
        st.integers(min_value=0, max_value=3_000_000),
        st.integers(min_value=0, max_value=400_000),
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=40)
    def test_closed_form_property(self, capex, revenue, maint, years):
        s = scenario(
            capex=capex, base_revenue=revenue, base_maintenance=maint, years=years
        )
        assert closed_form_cumulative(s, years) == annual_return_curve(s)[-1]


class TestBreakeven:
    def test_first_non_negative_index(self):
        assert breakeven_year([-5, -1, 0, 3]) == 2
        assert breakeven_year([-5, 2, -1]) == 1
        assert breakeven_year([-5, -4, -3]) is None

    def test_zero_revenue_never_breaks_even(self):
        curve = annual_return_curve(scenario(base_revenue=0))
        assert breakeven_year(curve) is None


class TestImpliedBaseRevenue:
    def test_backs_out_first_year_step(self):
        curve = annual_return_curve(scenario())
        implied = implied_base_revenue(curve, 10000)
        assert implied == 150000

    def test_needs_two_points(self):
        with pytest.raises(MissingRevenueSource):
            implied_base_revenue([Fraction(-5)], 0)


class TestAnnualize:
    def test_scales_to_365_days(self):
        assert annualize_backtest_revenue(100, 73) == 500
        assert annualize_backtest_revenue("10.50", "365") == frac("10.50")

    @pytest.mark.parametrize("days", [0, -3])
    def test_rejects_empty_span(self, days):
        with pytest.raises(ZeroSpan):
            annualize_backtest_revenue(100, days)


class TestCatalog:
    def test_entries_and_hardware(self):
        cat = load_catalog()
        assert sorted(cat) == ["A", "B", "C", "D"]
        assert cat["A"].capacity_mwh == 3
        assert cat["B"].capacity_mwh == frac("3.9")
        assert cat["C"].capacity_mwh == 10
        assert cat["D"].capacity_mwh == frac("38.5")
        for entry in cat.values():
            assert entry.charge_eff == frac("0.95")
            assert entry.discharge_eff == frac("0.95")
            assert entry.annual_fees == 18294
            assert len(entry.reference_curve) == 16

    def test_battery_spec_projection(self):
        cat = load_catalog()
        spec = cat["B"].to_battery_spec()
        assert spec.capacity == 3900
        assert spec.ramp == 1950
        assert spec.min_charge == 0
        spec_d = cat["D"].to_battery_spec()
        assert spec_d.capacity == 38500
        assert spec_d.ramp == 19250

    def test_implied_revenues(self):
        cat = load_catalog()
        implied = {
            key: implied_base_revenue(
                cat[key].reference_curve,
                cat[key].base_maintenance,
                cat[key].annual_fees,
            )
            for key in ("A", "B", "D")
        }
        assert implied["A"] == frac("188116.00")
        assert implied["B"] == frac("193575.96")
        assert implied["D"] == frac("2393981.89")

    @pytest.mark.parametrize("key,breakeven", [("A", 12), ("B", 11), ("D", 7)])
    def test_projection_tracks_reference_curve(self, key, breakeven):
        entry = load_catalog()[key]
        curve = annual_return_curve(scenario_for(entry))
        assert len(curve) == len(entry.reference_curve)
        for ours, reference in zip(curve, entry.reference_curve):
            assert abs(ours - reference) <= 1500
        assert breakeven_year(curve) == breakeven
        assert breakeven_year(entry.reference_curve) == breakeven

    def test_unfitted_asset_serves_its_curve_verbatim(self):
        entry = load_catalog()["C"]
        with pytest.raises(ConfigError):
            scenario_for(entry)
        assert breakeven_year(entry.reference_curve) == 11
        assert entry.reference_curve[0] == -4850000
        assert entry.reference_curve[-1] == 1870967

    def test_scenario_for_explicit_revenue(self):
        s = scenario_for(load_catalog()["A"], base_revenue="50000")
        assert s.base_revenue == 50000
