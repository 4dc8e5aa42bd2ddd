"""Battery spec validation, clipped trades, replay and the charge timeline."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
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

    def charge_before(self, slot):
        return self.initial + sum(self._deltas[:slot])

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


def charge_before(tl, slot):
    """Charge of a timeline before slot's trade."""
    return tl.path()[slot - 1] if slot > 0 else tl.spec.initial_charge


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


class TestTradeBounds:
    def test_max_buy_clips_to_headroom(self):
        spec = replace(BatterySpec.from_mwh("3", "2"), initial_charge=2500)
        assert ChargeTimeline(spec, 1).max_buy_from(0) == 500

    def test_max_buy_clips_to_ramp(self):
        spec = BatterySpec.from_mwh("3", "2")
        assert ChargeTimeline(spec, 1).max_buy_from(0) == 2000

    def test_max_sell_respects_floor(self):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="1")
        assert ChargeTimeline(replace(spec, initial_charge=1500), 1).max_sell_from(0) == 500
        assert ChargeTimeline(spec, 1).max_sell_from(0) == 0

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
        spec = replace(BatterySpec.from_mwh("2", "1"), initial_charge=1500)
        final = replay([(0, -1000)], spec)
        assert final.charge == 500

    def test_empty_is_initial(self):
        spec = unit_trading_spec()
        assert replay([], spec) == BatteryState(spec.initial_charge)


class TestChargeTimeline:
    def test_empty_timeline_matches_scalar_bounds(self):
        spec = BatterySpec.from_mwh("3", "2", min_charge_mwh="1",
                                    initial_charge_mwh="1.5")
        tl = ChargeTimeline(spec, 6)
        # from 1.5 MWh: buy up to the 3 MWh capacity, sell down to the 1 MWh floor
        assert tl.max_buy_from(0) == 1500
        assert tl.max_sell_from(0) == 500
        assert tl.max_buy_between(2, 5) == 1500

    def test_path_accumulates_commits(self):
        spec = unit_trading_spec()
        tl = ChargeTimeline(spec, 4)
        tl.commit(1, 1000)
        tl.commit(3, -1000)
        assert tl.path() == [0, 1000, 1000, 0]
        assert charge_before(tl, 1) == 0
        assert charge_before(tl, 2) == 1000

    def test_buy_between_ignores_committed_future_after_end(self):
        spec = unit_trading_spec()
        tl = ChargeTimeline(spec, 6)
        tl.commit(4, 1000)  # a later buy holds the battery full from slot 4
        # a buy undone before slot 4 still has full headroom
        assert tl.max_buy_between(0, 3) == 1000
        # a persistent buy does not
        assert tl.max_buy_from(0) == 0

    def test_sell_from_clips_to_future_minimum(self):
        spec = replace(unit_trading_spec(), initial_charge=1000)
        tl = ChargeTimeline(spec, 6)
        tl.commit(3, -1000)
        # anything sold at slot 0 would drive slot 3's sell below the floor
        assert tl.max_sell_from(0) == 0
        assert tl.max_sell_from(4) == 0

    def test_initial_override(self):
        spec = replace(BatterySpec.from_mwh("2", "1"), initial_charge=2000)
        tl = ChargeTimeline(spec, 3)
        assert tl.max_buy_from(0) == 0
        assert tl.max_sell_from(0) == 1000

    @given(st.data())
    def test_matches_path_rebuild_oracle(self, data):
        """Every query agrees with the rebuild-per-query timeline."""
        spec = BatterySpec.from_mwh("3", "1", min_charge_mwh="0.5")
        n = data.draw(st.integers(min_value=1, max_value=10))
        initial = data.draw(st.integers(min_value=spec.min_charge, max_value=spec.capacity))
        tl = ChargeTimeline(replace(spec, initial_charge=initial), n)
        ref = _RebuildTimeline(spec, n, initial)
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            slot = data.draw(st.integers(min_value=0, max_value=n - 1))
            ticks = data.draw(st.integers(min_value=-spec.ramp, max_value=spec.ramp))
            tl.commit(slot, ticks)
            ref.commit(slot, ticks)
            assert tl.path() == ref.path()
            for i in range(n):
                assert charge_before(tl, i) == ref.charge_before(i)
                assert tl.max_buy_from(i) == ref.max_buy_from(i)
                assert tl.max_sell_from(i) == ref.max_sell_from(i)
                for end in range(n + 1):
                    assert tl.max_buy_between(i, end) == ref.max_buy_between(i, end)
        assert charge_before(tl, n) == ref.charge_before(n)

    @given(st.data())
    def test_pairwise_commits_always_replay(self, data):
        """Ordered buy/sell pairs clipped by the timeline stay feasible."""
        spec = BatterySpec.from_mwh("3", "1")
        n = 12
        tl = ChargeTimeline(spec, n)
        free = list(range(n))
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            if len(free) < 2:
                break
            i = data.draw(st.sampled_from(free[:-1]))
            later = [s for s in free if s > i]
            j = data.draw(st.sampled_from(later))
            x_buy = tl.max_buy_between(i, j)
            tl.commit(i, x_buy)
            x_sell = tl.max_sell_from(j)
            tl.commit(j, -x_sell)
            free.remove(i)
            free.remove(j)
        path = tl.path()
        before = [spec.initial_charge] + path[:-1]
        trades = [(s, b - a) for s, (a, b) in enumerate(zip(before, path)) if b != a]
        final = replay(trades, spec)  # raises on any bound violation
        assert spec.min_charge <= final.charge <= spec.capacity
