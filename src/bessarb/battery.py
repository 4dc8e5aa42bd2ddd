"""Battery model: spec, state, clipped trades and schedule replay.

Energy is held as integer milli-MWh ticks so clip comparisons are exact.
Efficiencies affect cash flows only, never the stored energy, so a buy of
x ticks raises the charge by exactly x ticks.

A run starts from its spec's initial_charge.  A caller that starts a run
elsewhere, say where the last run ended, passes
`spec.replace(initial_charge=ticks)`, range-checked like any spec.
"""

from __future__ import annotations

import json
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
from bessarb._record import Record
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


class BatterySpec(Record, derived=("_weights",)):
    """Physical battery parameters, energy quantities in milli-MWh ticks.

    initial_charge is where every run on the spec starts.  _weights holds
    cash_weights, worked out from the efficiencies when the spec is built:
    derived, so it takes no part in equality, hashing, repr, to_dict or
    digest.
    """

    __slots__ = ("capacity", "ramp", "min_charge", "initial_charge",
                 "charge_eff", "discharge_eff", "_weights")

    def __init__(self, capacity: int, ramp: int, min_charge: int, initial_charge: int,
                 charge_eff: Fraction, discharge_eff: Fraction) -> None:
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        if ramp <= 0:
            raise ConfigError("ramp must be positive")
        if not 0 <= min_charge <= capacity:
            raise ConfigError("min_charge must lie in [0, capacity]")
        if not min_charge <= initial_charge <= capacity:
            raise ConfigError("initial_charge must lie in [min_charge, capacity]")
        for name, eff in (("charge_eff", charge_eff), ("discharge_eff", discharge_eff)):
            if not 0 < eff <= 1:
                raise ConfigError(f"{name} must lie in (0, 1]")
        cn, cd = charge_eff.as_integer_ratio()
        dn, dd = discharge_eff.as_integer_ratio()
        self._set(capacity, ramp, min_charge, initial_charge, charge_eff, discharge_eff,
                  (cd * dd, dn * cn, TICKS_PER_MWH * dd * cn))

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
        at prices over one scale add, compare and sign as integers.  They
        are worked out once per spec, when it is built.
        """
        return self._weights

    def digest(self) -> str:
        """sha256 over the canonical JSON form, for schedule provenance."""
        import hashlib

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


class BatteryState(Record):
    """Stored energy in ticks."""

    __slots__ = ("charge",)

    def __init__(self, charge: int) -> None:
        self._set(charge)


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
    """The charge per slot of a run before any trade: every slot at the
    spec's initial charge.

    path() gives it as a plain list, path[i] being the charge after slot
    i's trade, for strategies._execute_pair to size pairs against and
    commit them to.
    """

    def __init__(self, spec: BatterySpec, n_slots: int):
        self._path = [spec.initial_charge] * n_slots

    def path(self) -> list[int]:
        """A copy of the charge per slot, for the caller to commit to."""
        return list(self._path)
