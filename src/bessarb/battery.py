"""Battery model: spec, state, clipped trades and schedule replay.

Energy is held as integer milli-MWh ticks so clip comparisons are exact.
Efficiencies affect cash flows only, never the stored energy, so a buy of
x ticks raises the charge by exactly x ticks.

A run starts from its spec's initial_charge.  A caller that starts a run
elsewhere, say where the last run ended, passes
`dataclasses.replace(spec, initial_charge=ticks)`, range-checked like any
spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from bessarb._numeric import (
    TICKS_PER_MWH,
    exact,
    exact_text,
    format_decimal,
    mwh_to_ticks,
    parse_number,
    ticks_to_mwh,
)
from bessarb.errors import (
    CapacityViolation,
    ConfigError,
    FloorViolation,
    RampViolation,
)

_JSON_KEYS = (
    "capacity_mwh",
    "ramp_mwh_per_period",
    "min_charge_mwh",
    "charge_eff",
    "discharge_eff",
    "initial_charge_mwh",
)


@dataclass(frozen=True, slots=True)
class BatterySpec:
    """Physical battery parameters, energy quantities in milli-MWh ticks.

    initial_charge is where every run on the spec starts.
    """

    capacity: int
    ramp: int
    min_charge: int
    initial_charge: int
    charge_eff: Fraction
    discharge_eff: Fraction

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        if self.ramp <= 0:
            raise ConfigError("ramp must be positive")
        if not 0 <= self.min_charge <= self.capacity:
            raise ConfigError("min_charge must lie in [0, capacity]")
        if not self.min_charge <= self.initial_charge <= self.capacity:
            raise ConfigError("initial_charge must lie in [min_charge, capacity]")
        for name in ("charge_eff", "discharge_eff"):
            eff = getattr(self, name)
            if not 0 < eff <= 1:
                raise ConfigError(f"{name} must lie in (0, 1]")

    @classmethod
    def from_mwh(
        cls,
        capacity_mwh,
        ramp_mwh_per_period,
        min_charge_mwh=0,
        charge_eff="0.98",
        discharge_eff="0.8",
        initial_charge_mwh=None,
    ) -> "BatterySpec":
        min_ticks = mwh_to_ticks(min_charge_mwh)
        if initial_charge_mwh is None:
            initial_ticks = min_ticks  # default: start at the floor
        else:
            initial_ticks = mwh_to_ticks(initial_charge_mwh)
        return cls(
            capacity=mwh_to_ticks(capacity_mwh),
            ramp=mwh_to_ticks(ramp_mwh_per_period),
            min_charge=min_ticks,
            initial_charge=initial_ticks,
            charge_eff=exact(charge_eff),
            discharge_eff=exact(discharge_eff),
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "BatterySpec":
        unknown = set(doc) - set(_JSON_KEYS)
        if unknown:
            raise ConfigError(f"unknown battery spec keys: {sorted(unknown)}")
        missing = {k for k in _JSON_KEYS[:2] if k not in doc}
        if missing:
            raise ConfigError(f"battery spec missing keys: {sorted(missing)}")
        return cls.from_mwh(
            **{k: _spec_number(k, doc[k]) for k in _JSON_KEYS if k in doc}
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "BatterySpec":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid battery spec JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("battery spec JSON must be an object")
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """The spec as from_dict reads it: each value as decimal text, or as
        exact fraction text (`"1/3"`) when it has no decimal form."""
        return {
            "capacity_mwh": format_decimal(ticks_to_mwh(self.capacity)),
            "ramp_mwh_per_period": format_decimal(ticks_to_mwh(self.ramp)),
            "min_charge_mwh": format_decimal(ticks_to_mwh(self.min_charge)),
            "charge_eff": exact_text(self.charge_eff),
            "discharge_eff": exact_text(self.discharge_eff),
            "initial_charge_mwh": format_decimal(ticks_to_mwh(self.initial_charge)),
        }

    def cash_weights(self) -> tuple[int, int, int]:
        """(w_buy, w_sell, den): integer weights of one leg's cash.

        With charge_eff = cn/cd and discharge_eff = dn/dd, a leg of x ticks
        at price p/S earns w_sell*p*x / (S*den) when sold and costs
        w_buy*p*x / (S*den) when bought, where w_sell = dn*cn,
        w_buy = cd*dd and den = 1000*dd*cn (1000 ticks per MWh).  So legs
        at prices over one scale add, compare and sign as integers.
        """
        cn, cd = self.charge_eff.as_integer_ratio()
        dn, dd = self.discharge_eff.as_integer_ratio()
        return cd * dd, dn * cn, TICKS_PER_MWH * dd * cn

    def digest(self) -> str:
        """sha256 over the canonical JSON form, for schedule provenance."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _spec_number(key: str, value) -> Fraction:
    """A battery spec JSON value as an exact number; else a ConfigError naming the key.

    Energies must also be whole milli-MWh.  JSON null, booleans, lists and
    objects print as Python text that no number parses, so they fail too.
    """
    try:
        number = parse_number(str(value))
        if not key.endswith("_eff"):
            mwh_to_ticks(number)
    except (ValueError, ArithmeticError, ConfigError) as exc:
        raise ConfigError(f"battery spec {key} = {value!r}: {exc}") from None
    return number


def unit_trading_spec() -> BatterySpec:
    """1 MWh battery, full-swing ramp, 80%/98% discharge/charge efficiency."""
    return BatterySpec.from_mwh("1", "1", "0", charge_eff="0.98", discharge_eff="0.8")


@dataclass(frozen=True, slots=True)
class BatteryState:
    """Stored energy in ticks."""

    charge: int


def apply_trade(state: BatteryState, spec: BatterySpec, signed_ticks: int) -> BatteryState:
    """Apply a signed trade (+buy/-sell); raises the named violated bound."""
    if abs(signed_ticks) > spec.ramp:
        raise RampViolation(f"|{signed_ticks}| ticks exceeds ramp {spec.ramp}")
    charge = state.charge + signed_ticks
    if charge > spec.capacity:
        raise CapacityViolation(f"charge {charge} exceeds capacity {spec.capacity}")
    if charge < spec.min_charge:
        raise FloorViolation(f"charge {charge} below floor {spec.min_charge}")
    return BatteryState(charge)


def replay(trades: Iterable[tuple[int, int]], spec: BatterySpec) -> BatteryState:
    """Replay (instant, signed_ticks) trades in wall-clock order from the
    spec's initial charge.

    Raises Ramp/Capacity/FloorViolation if any step breaks a bound.  Ties on
    the instant keep the given order.
    """
    state = BatteryState(spec.initial_charge)
    for _, signed in sorted(trades, key=lambda t: t[0]):
        state = apply_trade(state, spec, signed)
    return state


class ChargeTimeline:
    """Committed charge trajectory over a fixed slot grid.

    Mutable builder used while constructing schedules: volumes are clipped
    against the whole committed future so the finished schedule replays
    cleanly in wall-clock order.  soc(i) is the charge after slot i's trade.
    A commit updates the charge of every later slot, so each headroom query
    is one min or max over a slice of the stored path.  Every slot starts at
    the spec's initial charge.
    """

    def __init__(self, spec: BatterySpec, n_slots: int):
        self.spec = spec
        self.n_slots = n_slots
        self._path = [spec.initial_charge] * n_slots

    def path(self) -> list[int]:
        """A copy of the charge per slot.  Only tests and the benchmark's
        tracer, bench/tracing.py, call it, so it can go once the tracer stops."""
        return list(self._path)

    def max_buy_between(self, slot: int, end: int) -> int:
        """Buy headroom at `slot` whose effect is undone before `end`."""
        segment = self._path[slot:end] if end > slot else self._path[slot:slot + 1]
        return min(self.spec.ramp, self.spec.capacity - max(segment))

    def max_buy_from(self, slot: int) -> int:
        """Buy headroom at `slot` that persists to the horizon end."""
        return min(self.spec.ramp, self.spec.capacity - max(self._path[slot:]))

    def max_sell_from(self, slot: int) -> int:
        """Sell volume available at `slot` against the committed future."""
        return min(self.spec.ramp, min(self._path[slot:]) - self.spec.min_charge)

    def commit(self, slot: int, signed_ticks: int) -> None:
        path = self._path
        for i in range(slot, self.n_slots):
            path[i] += signed_ticks
