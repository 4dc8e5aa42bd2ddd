"""Every record class of the package: value semantics, immutability, pickling.

A record (bessarb._record.Record) compares, hashes and prints by its
fields; its derived slots, worked out by its constructor, take no part in
any of them.  Each class below is built twice from equal fields by its
factory in RECORDS, and the suite fails when a record class has none.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from bessarb._record import Record
from bessarb.battery import BatterySpec, BatteryState, unit_trading_spec
from bessarb.economics import CatalogBattery, EconScenario, load_catalog
from bessarb.errors import ConfigError
from bessarb.evaluation import BacktestReport, PinballReport, SettleResult
from bessarb.forecasting import FeatureMatrix, WalkForwardPlan, WalkForwardResult
from bessarb.market import (
    BASE_EPOCH,
    Horizon,
    MarketKind,
    PriceSeries,
    QuantileForecast,
    TradingWindow,
    build_dual_horizon,
)
from bessarb.strategies import CandidatePair, QuantilePair, Schedule, TradeOrder
from conftest import make_forecast, make_prices, make_window


def _features():
    # a fresh array on every call: two matrices compare their cells, not
    # the identity of one shared array
    return np.array([[1.0, 0.5], [2.0, -0.5]])


def _forecast():
    # crossed rows, so the repaired columns differ from the raw ones
    return make_forecast({"0.1": [9, 3], "0.9": [11, 1]}, market=MarketKind.DAM)


def _schedule():
    orders = (TradeOrder(1, "buy", 500, Fraction(10)), TradeOrder(2, "sell", 500, Fraction(30)))
    return Schedule(make_window(MarketKind.DAM), "TS1", QuantilePair("0.5", "0.5"), orders)


RECORDS = {
    BatterySpec: lambda: BatterySpec.from_mwh("2", "1", charge_eff="0.9", discharge_eff="0.95"),
    BatteryState: lambda: BatteryState(500),
    TradingWindow: lambda: TradingWindow(MarketKind.DAM, BASE_EPOCH, 24),
    PriceSeries: lambda: make_prices([10, "20.5", 30]),
    QuantileForecast: _forecast,
    Horizon: lambda: build_dual_horizon(make_window(MarketKind.DAM), make_window(MarketKind.BM)),
    QuantilePair: lambda: QuantilePair("0.1", "0.9"),
    TradeOrder: lambda: TradeOrder(3, "buy", 1000, Fraction(41, 2)),
    Schedule: _schedule,
    CandidatePair: lambda: CandidatePair.of(unit_trading_spec(), 2, 5, Fraction(10), Fraction(50)),
    SettleResult: lambda: SettleResult(Fraction(7, 3), 500),
    PinballReport: lambda: PinballReport({Fraction(1, 2): Fraction(3)}, Fraction(3), 24),
    BacktestReport: lambda: BacktestReport(
        "DAM", "TS3", "0.5-0.5", Fraction(1), Fraction(2), Fraction(3), Fraction(4), 1,
        (Fraction(1),)),
    EconScenario: lambda: EconScenario("1000", "200", "50"),
    CatalogBattery: lambda: load_catalog()["A"],
    FeatureMatrix: lambda: FeatureMatrix(
        MarketKind.DAM, (BASE_EPOCH, BASE_EPOCH + 3600), ("x", "y"), _features(), (1, 2), 1),
    WalkForwardPlan: lambda: WalkForwardPlan(86400, 3600, 3600, 86400),
    WalkForwardResult: lambda: WalkForwardResult((_forecast(),), ((BASE_EPOCH, 3),)),
}
DERIVED = {
    BatterySpec: ("_weights",),
    QuantileForecast: ("_repaired",),
    Horizon: ("events", "instants"),
}
# A dict or an array field makes a record unhashable, as it made the
# dataclass it replaced.
UNHASHABLE = {PinballReport, FeatureMatrix}
classes = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _values(record) -> list:
    """Every slot's value, fields and derived, with an array as nested lists."""
    values = [getattr(record, name) for name in type(record).__slots__]
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in values]


def test_every_record_class_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)


@classes
def test_equal_fields_give_equal_records(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != object() and a.replace() == a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@classes
def test_derived_slots_take_no_part(cls):
    assert tuple(n for n in cls.__slots__ if n not in cls._fields) == DERIVED.get(cls, ())
    a, b = RECORDS[cls](), RECORDS[cls]()
    for name in DERIVED.get(cls, ()):
        object.__setattr__(b, name, object())
        assert f"{name}=" not in repr(a)
    assert a == b and repr(a) == repr(b)
    assert repr(a).startswith(f"{cls.__name__}(") and all(
        f"{name}=" in repr(a) for name in cls._fields)
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)


@classes
def test_attributes_cannot_be_assigned_or_deleted(cls):
    record = RECORDS[cls]()
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == _values(RECORDS[cls]())


@classes
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_keeps_fields_and_derived_values(cls, protocol):
    # a sweep lane gets its payload as a pickle where processes spawn
    record = RECORDS[cls]()
    if cls is QuantileForecast:
        record.repaired_curve(record.levels[0])  # fills the derived columns
    restored = pickle.loads(pickle.dumps(record, protocol))
    assert type(restored) is cls and _values(restored) == _values(record)
    assert restored == record


def test_feature_matrices_differing_in_one_cell_differ():
    matrix = RECORDS[FeatureMatrix]()
    for cell in np.ndindex(matrix.features.shape):
        features = matrix.features.copy()
        features[cell] += 1
        other = matrix.replace(features=features)
        assert matrix != other and not matrix == other
    # a NaN cell compares equal to itself, as a shared float does in a tuple
    nan = matrix.features.copy()
    nan[0, 0] = np.nan
    assert matrix.replace(features=nan) == matrix.replace(features=nan.copy())
    assert matrix != matrix.replace(features=nan)


def test_records_of_two_classes_differ():
    pair = QuantilePair("0.1", "0.9")
    settled = SettleResult(pair.sell_level, pair.buy_level)
    assert settled != pair and pair != settled


def test_repr_names_the_fields_in_order():
    assert repr(TradingWindow(MarketKind.DAM, 0, 24)) == (
        "TradingWindow(market=<MarketKind.DAM: 'DAM'>, start_epoch_s=0, period_count=24)"
    )


def test_replace_runs_the_constructor():
    spec = RECORDS[BatterySpec]()
    with pytest.raises(ConfigError, match="initial_charge"):
        spec.replace(initial_charge=spec.capacity + 1)
    third = spec.replace(charge_eff=Fraction(1, 3))
    assert third.charge_eff == Fraction(1, 3) and third.capacity == spec.capacity
    assert third.cash_weights() == BatterySpec.from_mwh(
        "2", "1", charge_eff=Fraction(1, 3), discharge_eff="0.95").cash_weights()
    assert third.cash_weights() != spec.cash_weights()
    with pytest.raises(TypeError):
        spec.replace(_weights=(1, 1, 1))
    with pytest.raises(TypeError):
        spec.replace(nosuch=1)
