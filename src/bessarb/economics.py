"""Multi-year investment economics for a traded storage asset.

Cumulative return over the asset's life: sunk purchase cost, then each year
adds trading revenue shrunk by cycle degradation and subtracts maintenance
and market registration fees.  All arithmetic is exact; rounding happens
only when figures are printed.

Degradation profiles differ by asset and are fitted per catalog entry:
revenue either falls linearly with accumulated degradation steps or follows
a compounding capacity-loss curve, stepping every one or two years, while
maintenance either escalates by compounding or grows linearly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Sequence

from bessarb._numeric import exact
from bessarb._record import Record
from bessarb.battery import BatterySpec
from bessarb.errors import ConfigError, MissingRevenueSource, ZeroSpan

DEGRADATION_RATE = Fraction("0.0155")
MAINTENANCE_ESCALATION = Fraction("0.02")
DEFAULT_ANNUAL_FEES = Fraction(18294)
DEFAULT_YEARS = 15

DEGRADATION_KINDS = ("linear", "loss_compound")
MAINTENANCE_KINDS = ("compound", "linear")


class EconScenario(Record):
    """Inputs for one cumulative-return projection."""

    __slots__ = ("capex", "base_revenue", "base_maintenance", "annual_fees", "years",
                 "degradation_kind", "degradation_period_years", "maintenance_kind")

    def __init__(self, capex: Fraction, base_revenue: Fraction, base_maintenance: Fraction,
                 annual_fees: Fraction = DEFAULT_ANNUAL_FEES, years: int = DEFAULT_YEARS,
                 degradation_kind: str = "linear", degradation_period_years: int = 1,
                 maintenance_kind: str = "compound") -> None:
        money = tuple(map(exact, (capex, base_revenue, base_maintenance, annual_fees)))
        if years < 1:
            raise ConfigError("projection needs at least one year")
        if degradation_period_years < 1:
            raise ConfigError("degradation period must be at least one year")
        if degradation_kind not in DEGRADATION_KINDS:
            raise ConfigError(f"unknown degradation kind {degradation_kind!r}")
        if maintenance_kind not in MAINTENANCE_KINDS:
            raise ConfigError(f"unknown maintenance kind {maintenance_kind!r}")
        self._set(*money, years, degradation_kind, degradation_period_years, maintenance_kind)


def degradation_steps(scenario: EconScenario, year: int) -> int:
    """Completed degradation periods before `year` (year 1 has none)."""
    return -((1 - year) // scenario.degradation_period_years)


def revenue_factor(scenario: EconScenario, year: int) -> Fraction:
    k = degradation_steps(scenario, year)
    if scenario.degradation_kind == "linear":
        return 1 - DEGRADATION_RATE * k
    # capacity loss compounds, so the retained share is 1 - ((1+d)^k - 1)
    return 2 - (1 + DEGRADATION_RATE) ** k


def maintenance_factor(scenario: EconScenario, year: int) -> Fraction:
    if scenario.maintenance_kind == "compound":
        return (1 + MAINTENANCE_ESCALATION) ** (year - 1)
    return 1 + MAINTENANCE_ESCALATION * (year - 1)


def annual_return_curve(scenario: EconScenario) -> list[Fraction]:
    """Cumulative net position at the end of each year, year 0 first."""
    cum = -scenario.capex
    out = [cum]
    for year in range(1, scenario.years + 1):
        cum += scenario.base_revenue * revenue_factor(scenario, year)
        cum -= scenario.base_maintenance * maintenance_factor(scenario, year)
        cum -= scenario.annual_fees
        out.append(cum)
    return out


def breakeven_year(curve: Sequence[Fraction]) -> int | None:
    """First year whose cumulative position is non-negative, if any."""
    for year, value in enumerate(curve):
        if value >= 0:
            return year
    return None


def implied_base_revenue(
    curve: Sequence[Fraction],
    base_maintenance,
    annual_fees=DEFAULT_ANNUAL_FEES,
) -> Fraction:
    """Back out first-year revenue from the first step of a return curve.

    Year one carries no degradation and no escalation, so the step from
    year 0 to year 1 is revenue minus maintenance minus fees.
    """
    if len(curve) < 2:
        raise MissingRevenueSource("need at least years 0 and 1 to imply revenue")
    step = exact(curve[1]) - exact(curve[0])
    return step + exact(base_maintenance) + exact(annual_fees)


def annualize_backtest_revenue(total_cash, span_days) -> Fraction:
    """Scale a backtest's total profit to a 365-day year."""
    days = exact(span_days)
    if days <= 0:
        raise ZeroSpan("backtest span must cover at least part of a day")
    return exact(total_cash) * 365 / days


# --- asset catalog ----------------------------------------------------------

class CatalogBattery(Record):
    __slots__ = ("key", "label", "capacity_mwh", "max_discharge_mwh_per_hour", "charge_eff",
                 "discharge_eff", "capex", "base_maintenance", "annual_fees",
                 "degradation_kind", "degradation_period_years", "maintenance_kind",
                 "reference_curve")

    def __init__(self, key: str, label: str, capacity_mwh: Fraction,
                 max_discharge_mwh_per_hour: Fraction, charge_eff: Fraction,
                 discharge_eff: Fraction, capex: Fraction, base_maintenance: Fraction,
                 annual_fees: Fraction, degradation_kind: str | None,
                 degradation_period_years: int | None, maintenance_kind: str | None,
                 reference_curve: tuple[Fraction, ...]) -> None:
        self._set(key, label, capacity_mwh, max_discharge_mwh_per_hour, charge_eff,
                  discharge_eff, capex, base_maintenance, annual_fees, degradation_kind,
                  degradation_period_years, maintenance_kind, reference_curve)

    def to_battery_spec(self) -> BatterySpec:
        """Hourly-market battery bounds for this asset, floor at empty."""
        return BatterySpec.from_mwh(
            self.capacity_mwh,
            self.max_discharge_mwh_per_hour,
            "0",
            charge_eff=self.charge_eff,
            discharge_eff=self.discharge_eff,
        )


def load_catalog() -> dict[str, CatalogBattery]:
    """Built-in reference assets with fitted cost profiles."""
    text = resources.files("bessarb").joinpath("data/catalog.json").read_text()
    doc = json.loads(text)
    out = {}
    for key, entry in doc.items():
        out[key] = CatalogBattery(
            key=key,
            label=entry["label"],
            capacity_mwh=Fraction(entry["capacity_mwh"]),
            max_discharge_mwh_per_hour=Fraction(entry["max_discharge_mwh_per_hour"]),
            charge_eff=Fraction(entry["charge_eff"]),
            discharge_eff=Fraction(entry["discharge_eff"]),
            capex=Fraction(entry["capex_eur"]),
            base_maintenance=Fraction(entry["annual_maintenance_eur"]),
            annual_fees=Fraction(entry["annual_fees_eur"]),
            degradation_kind=entry["degradation_kind"],
            degradation_period_years=entry["degradation_period_years"],
            maintenance_kind=entry["maintenance_kind"],
            reference_curve=tuple(
                Fraction(v) for v in entry["reference_curve_eur"]
            ),
        )
    return out


def scenario_for(
    battery: CatalogBattery,
    base_revenue=None,
    years: int = DEFAULT_YEARS,
) -> EconScenario:
    """Projection scenario for a catalog asset.

    Revenue defaults to the value implied by the asset's reference curve.
    Assets without a fitted degradation profile cannot be projected; their
    reference curve is still available verbatim.
    """
    if battery.degradation_kind is None or battery.maintenance_kind is None:
        raise ConfigError(
            f"asset {battery.key!r} has no fitted cost profile; "
            "use its reference curve directly"
        )
    if base_revenue is None:
        revenue = implied_base_revenue(
            battery.reference_curve, battery.base_maintenance, battery.annual_fees
        )
    else:
        revenue = exact(base_revenue)
    return EconScenario(
        capex=battery.capex,
        base_revenue=revenue,
        base_maintenance=battery.base_maintenance,
        annual_fees=battery.annual_fees,
        years=years,
        degradation_kind=battery.degradation_kind,
        degradation_period_years=battery.degradation_period_years,
        maintenance_kind=battery.maintenance_kind,
    )
