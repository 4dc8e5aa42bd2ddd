"""Battery spec validation, clipped trades, replay and the charge path.

A charge path is what ChargeTimeline.path() returns: the charge after each
slot's trade, a plain list that strategies._execute_pair sizes each pair
against and commits it to.
"""

import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bessarb.battery import (
    BatterySpec,
    BatteryState,
    ChargeTimeline,
    apply_trade,
    replay,
    unit_trading_spec,
)
from bessarb.errors import (
    CapacityViolation,
    ConfigError,
    FloorViolation,
    RampViolation,
)
from bessarb.strategies import _execute_pair


class _RebuildTimeline:
    """Reference timeline: per-slot deltas, path rebuilt on every query."""

    def __init__(self, spec, n_slots, initial):
        self.spec, self.initial = spec, initial
        self._deltas = [0] * n_slots

    def path(self):
        out, charge = [], self.initial
        for delta in self._deltas:
            charge += delta
            out.append(charge)
        return out

    def max_buy_between(self, slot, end):
        path = self.path()
        segment = path[slot:end] if end > slot else path[slot:slot + 1]
        return min(self.spec.ramp, self.spec.capacity - max(segment))

    def max_buy_from(self, slot):
        return min(self.spec.ramp, self.spec.capacity - max(self.path()[slot:]))

    def max_sell_from(self, slot):
        return min(self.spec.ramp, min(self.path()[slot:]) - self.spec.min_charge)

    def commit(self, slot, signed_ticks):
        self._deltas[slot] += signed_ticks

    def execute_pair(self, i_buy, i_sell, allow_stock_buys):
        """The leg-sizing rule as it ran on a timeline's queries and commits."""
        if i_buy < i_sell:
            x_buy = self.max_buy_between(i_buy, i_sell)
            self.commit(i_buy, x_buy)
            x_sell = self.max_sell_from(i_sell)
            self.commit(i_sell, -x_sell)
            return x_buy, x_sell
        x_sell = self.max_sell_from(i_sell)
        if x_sell == 0 and not allow_stock_buys:
            return 0, 0
        self.commit(i_sell, -x_sell)
        x_buy = self.max_buy_from(i_buy)
        self.commit(i_buy, x_buy)
        return x_buy, x_sell


def _path(spec, n_slots):
    return ChargeTimeline(spec, n_slots).path()


class TestBatterySpec:
    def test_unit_spec_values(self):
        spec = unit_trading_spec()
        assert spec.capacity == 1000
        assert spec.ramp == 1000
        assert spec.min_charge == 0
        assert spec.initial_charge == 0
        assert spec.charge_eff == Fraction("0.98")
        assert spec.discharge_eff == Fraction("0.8")

    def test_initial_defaults_to_floor(self):
        spec = BatterySpec.from_mwh("10", "2", min_charge_mwh="1")
        assert spec.initial_charge == spec.min_charge == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity_mwh="0", ramp_mwh_per_period="1"),
            dict(capacity_mwh="1", ramp_mwh_per_period="0"),
            dict(capacity_mwh="1", ramp_mwh_per_period="1", min_charge_mwh="2"),
            dict(capacity_mwh="1", ramp_mwh_per_period="1", initial_charge_mwh="2"),
            dict(capacity_mwh="1", ramp_mwh_per_period="1", charge_eff="0"),
            dict(capacity_mwh="1", ramp_mwh_per_period="1", discharge_eff="1.2"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BatterySpec.from_mwh(**kwargs)

    def test_from_dict_requires_capacity_and_ramp(self):
        with pytest.raises(ConfigError) as err:
            BatterySpec.from_dict({"capacity_mwh": "1"})
        assert "ramp" in str(err.value)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            BatterySpec.from_dict(
                {"capacity_mwh": "1", "ramp_mwh_per_period": "1", "color": "red"}
            )
        assert "color" in str(err.value)

    def test_json_file_round_trip(self, tmp_path):
        spec = BatterySpec.from_mwh("3.9", "1.95", charge_eff="0.95",
                                    discharge_eff="0.95")
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert BatterySpec.from_json_file(path) == spec

    def test_bad_json_raises_config_error(self, tmp_path):
        path = tmp_path / "battery.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            BatterySpec.from_json_file(path)

    def test_json_array_rejected(self, tmp_path):
        path = tmp_path / "battery.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            BatterySpec.from_json_file(path)

    @pytest.mark.parametrize(
        "key, value",
        [("capacity_mwh", "1e10000000"), ("ramp_mwh_per_period", "1e-10000000"),
         ("charge_eff", "0." + "9" * 200), ("min_charge_mwh", 10**150)],
    )
    def test_number_beyond_the_bound_is_config_error(self, tmp_path, key, value):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"capacity_mwh": "2", "ramp_mwh_per_period": "1",
                                    key: value}))
        with pytest.raises(ConfigError, match=f"battery spec {key} = .*at most"):
            BatterySpec.from_json_file(path)

    def test_efficiency_without_a_decimal_form_round_trips(self, tmp_path):
        spec = BatterySpec.from_mwh("2", "1", charge_eff="1/3", discharge_eff="0.9")
        doc = spec.to_dict()
        assert (doc["charge_eff"], doc["discharge_eff"]) == ("1/3", "0.9")
        assert BatterySpec.from_dict(doc) == spec
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(doc))
        assert BatterySpec.from_json_file(path) == spec
        near = BatterySpec.from_mwh("2", "1", charge_eff="0.3333", discharge_eff="0.9")
        assert len(spec.digest()) == 64 and spec.digest() != near.digest()
        # decimal values print as they always did, so their digests stay put
        assert unit_trading_spec().to_dict() == {
            "capacity_mwh": "1", "ramp_mwh_per_period": "1", "min_charge_mwh": "0",
            "charge_eff": "0.98", "discharge_eff": "0.8", "initial_charge_mwh": "0",
        }
        assert unit_trading_spec().digest() == (
            "5b5c39a4bb8fb4b1f4303077580072c71c420bae740a476cea8e0d8b3d99ff8f"
        )

    def test_digest_is_stable_and_distinct(self):
        a = unit_trading_spec()
        b = BatterySpec.from_mwh("2", "1")
        assert a.digest() == unit_trading_spec().digest()
        assert a.digest() != b.digest()
        assert len(a.digest()) == 64


# efficiencies n/d in (0, 1], 1 and values with no decimal form among them
efficiencies = st.integers(1, 60).flatmap(
    lambda d: st.integers(1, d).map(lambda n: Fraction(n, d))
)


def _bat(charge_eff, discharge_eff):
    """The CI's bat.json battery with the given efficiencies."""
    return BatterySpec.from_mwh("2", "0.5", "0.5", charge_eff=charge_eff,
                                discharge_eff=discharge_eff, initial_charge_mwh="1")


class TestCashWeights:
    """The spec works out its cash weights once, when it is built; they are
    derived from the efficiencies and are no part of what the spec is."""

    @given(efficiencies, efficiencies)
    @example(Fraction(1), Fraction(1))
    @example(Fraction(1, 3), Fraction(2, 3))
    def test_weights_are_the_efficiencies_integer_ratios(self, charge_eff, discharge_eff):
        spec = _bat(charge_eff, discharge_eff)
        cn, cd = charge_eff.as_integer_ratio()
        dn, dd = discharge_eff.as_integer_ratio()
        assert spec.cash_weights() == (cd * dd, dn * cn, 1000 * dd * cn)

    @given(efficiencies, efficiencies, efficiencies)
    @example(Fraction(1), Fraction(1, 3), Fraction(1, 3))
    def test_replaced_efficiency_gets_fresh_weights(self, charge_eff, discharge_eff, other):
        spec = _bat(charge_eff, discharge_eff)
        assert spec.replace(charge_eff=other).cash_weights() == \
            _bat(other, discharge_eff).cash_weights()
        assert spec.replace(discharge_eff=other).cash_weights() == \
            _bat(charge_eff, other).cash_weights()

    @given(efficiencies, efficiencies, st.integers(500, 2000))
    def test_start_and_pickle_keep_the_weights(self, charge_eff, discharge_eff, start):
        spec = _bat(charge_eff, discharge_eff)
        assert spec.replace(initial_charge=start).cash_weights() == spec.cash_weights()
        # a spawned sweep lane gets its spec as a pickle
        assert pickle.loads(pickle.dumps(spec)).cash_weights() == spec.cash_weights()

    @given(efficiencies, efficiencies)
    def test_identity_ignores_the_weights(self, charge_eff, discharge_eff):
        spec = _bat(charge_eff, discharge_eff)
        skewed = _bat(charge_eff, discharge_eff)
        object.__setattr__(skewed, "_weights", (0, 0, 0))
        assert skewed == spec and hash(skewed) == hash(spec)
        assert repr(skewed) == repr(spec)
        assert skewed.to_dict() == spec.to_dict() and skewed.digest() == spec.digest()

    def test_digests_stay_put(self):
        assert unit_trading_spec().digest() == (
            "5b5c39a4bb8fb4b1f4303077580072c71c420bae740a476cea8e0d8b3d99ff8f"
        )
        bat = BatterySpec.from_dict({"capacity_mwh": "2", "ramp_mwh_per_period": "0.5",
                                     "min_charge_mwh": "0.5", "initial_charge_mwh": "1"})
        assert bat.digest() == (
            "b142dbc60e0e1b88ece6c96536f10e66f035164ee67b755e18d9d597db9e90bd"
        )


class TestTradeBounds:
    """Each leg _execute_pair sizes is clipped to the ramp, the capacity and
    the floor: a buy-first pair at slots (0, 1), a sell-first one at (1, 0)."""

    def test_max_buy_clips_to_headroom(self):
        spec = BatterySpec.from_mwh("3", "2").replace(initial_charge=2500)
        assert _execute_pair(_path(spec, 2), 0, 1, spec, False) == (500, 2000)

    def test_max_buy_clips_to_ramp(self):
        spec = BatterySpec.from_mwh("3", "2")
        assert _execute_pair(_path(spec, 2), 0, 1, spec, False) == (2000, 2000)

    def test_max_sell_respects_floor(self):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="1")
        above = spec.replace(initial_charge=1500)
        assert _execute_pair(_path(above, 2), 1, 0, above, False) == (2000, 500)
        # at the floor a sell-first pair sells nothing, and buys only as stock
        assert _execute_pair(_path(spec, 2), 1, 0, spec, False) == (0, 0)
        assert _execute_pair(_path(spec, 2), 1, 0, spec, True) == (2000, 0)

    def test_apply_trade_moves_charge(self):
        spec = unit_trading_spec()
        state = apply_trade(BatteryState(0), spec, 700)
        assert state.charge == 700
        assert apply_trade(state, spec, -700).charge == 0

    def test_ramp_violation(self):
        spec = unit_trading_spec()
        with pytest.raises(RampViolation):
            apply_trade(BatteryState(0), spec, 1001)

    def test_capacity_violation(self):
        spec = unit_trading_spec()
        with pytest.raises(CapacityViolation):
            apply_trade(BatteryState(500), spec, 600)

    def test_floor_violation(self):
        spec = BatterySpec.from_mwh("2", "1", min_charge_mwh="0.5")
        with pytest.raises(FloorViolation):
            apply_trade(BatteryState(600), spec, -200)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_admissible_iff_within_all_bounds(self, charge, signed):
        spec = unit_trading_spec()
        fine = abs(signed) <= spec.ramp and 0 <= charge + signed <= spec.capacity
        if fine:
            assert apply_trade(BatteryState(charge), spec, signed).charge == charge + signed
        else:
            with pytest.raises((RampViolation, CapacityViolation, FloorViolation)):
                apply_trade(BatteryState(charge), spec, signed)


class TestReplay:
    def test_orders_by_instant(self):
        spec = unit_trading_spec()
        # given out of order; sorted replay buys before it sells
        final = replay([(5, -1000), (2, 1000)], spec)
        assert final.charge == 0

    def test_unsorted_infeasible_sequence_raises(self):
        spec = unit_trading_spec()
        with pytest.raises(FloorViolation):
            replay([(5, 1000), (2, -1000)], spec)

    def test_starts_from_given_state(self):
        spec = BatterySpec.from_mwh("2", "1").replace(initial_charge=1500)
        final = replay([(0, -1000)], spec)
        assert final.charge == 500

    def test_empty_is_initial(self):
        spec = unit_trading_spec()
        assert replay([], spec) == BatteryState(spec.initial_charge)


class TestChargeTimeline:
    """_execute_pair on a charge path started by ChargeTimeline."""

    def test_empty_timeline_matches_scalar_bounds(self):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="1",
                                    initial_charge_mwh="1.5")
        assert _path(spec, 6) == [1500] * 6
        # from 1.5 MWh: buy up to the 3 MWh capacity, sell down to the 1 MWh floor
        path = _path(spec, 6)
        assert _execute_pair(path, 2, 5, spec, False) == (1500, 2000)
        assert path == [1500, 1500, 3000, 3000, 3000, 1000]
        path = _path(spec, 6)
        assert _execute_pair(path, 5, 0, spec, False) == (2000, 500)
        assert path == [1000] * 5 + [3000]

    def test_path_accumulates_commits(self):
        spec = unit_trading_spec()
        path = _path(spec, 4)
        assert _execute_pair(path, 1, 3, spec, False) == (1000, 1000)
        assert path == [0, 1000, 1000, 0]
        # the pair's buy holds the battery full until its sell: no room between
        assert _execute_pair(path, 2, 3, spec, False) == (0, 0)
        assert path == [0, 1000, 1000, 0]

    def test_buy_between_ignores_committed_future_after_end(self):
        spec = unit_trading_spec()
        path = _path(spec, 6)
        # a stock buy at slot 4 holds the battery full from slot 4
        assert _execute_pair(path, 4, 1, spec, True) == (1000, 0)
        assert path == [0, 0, 0, 0, 1000, 1000]
        # a buy undone before slot 4 still has full headroom ...
        assert _execute_pair(list(path), 0, 3, spec, False) == (1000, 1000)
        # ... a persistent one does not
        assert _execute_pair(list(path), 3, 0, spec, True) == (0, 0)

    def test_sell_from_clips_to_future_minimum(self):
        spec = unit_trading_spec().replace(initial_charge=1000)
        path = _path(spec, 6)
        path[3:] = [0, 0, 0]  # a committed sell at slot 3
        # anything sold at slot 0 would drive slot 3's sell below the floor
        assert _execute_pair(list(path), 1, 0, spec, False) == (0, 0)
        assert _execute_pair(list(path), 5, 4, spec, False) == (0, 0)

    def test_initial_override(self):
        spec = BatterySpec.from_mwh("2", "1").replace(initial_charge=2000)
        assert _execute_pair(_path(spec, 3), 0, 1, spec, False) == (0, 1000)
        assert _execute_pair(_path(spec, 3), 1, 0, spec, False) == (1000, 1000)

    @given(st.data())
    def test_matches_path_rebuild_oracle(self, data):
        """Every pair sizes and commits as on the rebuild-per-query timeline."""
        spec = BatterySpec.from_mwh("3", "1", min_charge_mwh="0.5")
        n = data.draw(st.integers(min_value=2, max_value=10))
        initial = data.draw(st.integers(min_value=spec.min_charge, max_value=spec.capacity))
        spec = spec.replace(initial_charge=initial)
        path = _path(spec, n)
        ref = _RebuildTimeline(spec, n, initial)
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            i_buy, i_sell = data.draw(st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2,
                unique=True,
            ))
            allow = data.draw(st.booleans())
            got = _execute_pair(path, i_buy, i_sell, spec, allow)
            assert got == ref.execute_pair(i_buy, i_sell, allow)
            assert path == ref.path()

    @given(st.data())
    def test_pairwise_commits_always_replay(self, data):
        """Pairs in either order, each sized by _execute_pair, stay feasible."""
        spec = BatterySpec.from_mwh("3", "1")
        n = 12
        path = _path(spec, n)
        free = list(range(n))
        legs = []
        allow = data.draw(st.booleans())
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            if len(free) < 2:
                break
            i, j = data.draw(st.lists(st.sampled_from(free), min_size=2, max_size=2,
                                      unique=True))
            x_buy, x_sell = _execute_pair(path, i, j, spec, allow)
            legs += [(i, x_buy), (j, -x_sell)]
            free.remove(i)
            free.remove(j)
        before = [spec.initial_charge] + path[:-1]
        assert sorted(s for s, x in legs if x) == [
            s for s, (a, b) in enumerate(zip(before, path)) if b != a
        ]
        final = replay(legs, spec)  # raises on any bound violation
        assert final.charge == path[-1]
