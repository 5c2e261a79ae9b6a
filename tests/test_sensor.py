"""Firmware model: quantizer, change gate, and the sleep/active automaton."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickroutes.errors import SequencingError, ValidationError
from quickroutes.features import axis_sets
from quickroutes.sensor import (
    Mode,
    RawSample,
    SensorConfig,
    SensorState,
    change_gate,
    g_to_counts,
    step,
)

CFG = SensorConfig()


def counts_to_g(counts, cfg):
    """A count in g, as the feature path converts transmitted counts."""
    return float(axis_sets(np.array([[counts, 0, 0]], dtype=np.int64), cfg)[0, 0])


def make_stream(segments, dt=0.02, t0=0.0):
    """Raw samples from (n_samples, (x, y, z)) runs at a fixed rate."""
    out = []
    t = t0
    for n, counts in segments:
        for _ in range(n):
            out.append(RawSample(t, *counts))
            t = round(t + dt, 6)
    return out


def drive(state, raws, cfg=CFG):
    emissions = []
    for raw in raws:
        state, emitted = step(state, raw, cfg)
        if emitted:
            emissions.append(emitted)
    return state, emissions


class TestQuantizer:
    def test_full_scale_is_127(self):
        assert counts_to_g(127, CFG) == 2.0
        assert counts_to_g(-127, CFG) == -2.0

    def test_zero(self):
        assert counts_to_g(0, CFG) == 0.0

    def test_threshold_is_roughly_240_mg(self):
        # 15 counts at ~16 mg per count
        value = counts_to_g(15, CFG)
        assert value == pytest.approx(15 * 2 / 127)
        assert abs(value - 0.240) < 0.005

    def test_out_of_range_counts_rejected(self):
        with pytest.raises(ValidationError, match="counts 128 outside"):
            counts_to_g(128, CFG)
        with pytest.raises(ValidationError, match="counts -128 outside"):
            counts_to_g(-128, CFG)

    def test_inverse_endpoints_and_saturation(self):
        assert g_to_counts(2.0, CFG) == 127
        assert g_to_counts(3.5, CFG) == 127
        assert g_to_counts(-3.5, CFG) == -127
        assert g_to_counts(0.24, CFG) == 15  # round(15.24)

    def test_rounding_half_away_from_zero(self):
        half = CFG.resolution_g / 2
        assert g_to_counts(half, CFG) == 1
        assert g_to_counts(-half, CFG) == -1

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    def test_round_trip_within_half_resolution(self, accel):
        back = counts_to_g(g_to_counts(accel, CFG), CFG)
        assert abs(back - accel) <= CFG.resolution_g / 2 + 1e-12


class TestChangeGate:
    def test_threshold_reached_on_one_axis(self):
        assert change_gate((0, 0, 0), (15, 0, 0), CFG)

    def test_below_threshold_on_all_axes(self):
        assert not change_gate((0, 0, 0), (14, 14, 14), CFG)

    def test_no_baseline_always_sends(self):
        assert change_gate(None, (1, 0, 0), CFG)

    def test_negative_changes_count(self):
        assert change_gate((10, 0, 0), (-5, 0, 0), CFG)


REST = (0, 0, 63)


def rested(position=1):
    return SensorState(position, last_sent=REST)


class TestAutomaton:
    def test_sleep_filters_small_changes(self):
        state, emitted = step(rested(), RawSample(0.0, 2, 1, 63), CFG)
        assert state.mode is Mode.SLEEP
        assert emitted == []
        assert state.window_buffer == ()

    def test_sleep_wakes_on_threshold(self):
        state, emitted = step(rested(), RawSample(0.0, 40, 0, 63), CFG)
        assert state.mode is Mode.ACTIVE
        assert emitted == []
        assert len(state.window_buffer) == 1

    def test_active_returns_to_sleep_and_flushes(self):
        # 3 gate-passing windows: two emitted as a batch, one held back
        stream = make_stream(
            [(8, (40, 0, 63)), (8, (80, 0, 63)), (1150, REST)]
        )
        state, emissions = drive(rested(), stream)
        assert state.mode is Mode.SLEEP
        assert state.pending_batch == ()
        assert state.window_buffer == ()
        # batch of exactly group_size, then the flush of the held-back event
        assert [len(e) for e in emissions] == [2, 1]
        flushed = emissions[-1][0]
        assert flushed.counts == REST

    def test_flush_happens_after_grace_plus_sleep_timeout(self):
        stream = make_stream([(8, (40, 0, 63)), (8, (80, 0, 63)), (1150, REST)])
        state, emissions = drive(rested(), stream)
        first_rest_avg_t = stream[16 + 7].t  # first all-rest window end
        flushed = emissions[-1][0]
        # rest value was queued at the first rest window; transmitted at sleep,
        # i.e. not before grace + timeout have both elapsed
        assert flushed.t == pytest.approx(first_rest_avg_t)
        assert state.last_raw_t > flushed.t + CFG.inactive_grace_s + CFG.sleep_after_s

    def test_events_are_averages_of_their_windows(self):
        stream = make_stream(
            [(8, (40, 10, 63)), (4, (41, 11, 64)), (4, (43, 15, 70)), (1150, REST)]
        )
        state, emissions = drive(rested(), stream)
        events = [e for batch in emissions for e in batch]
        assert events
        by_t = {raw.t: i for i, raw in enumerate(stream)}
        for event in events:
            end = by_t[event.t]
            window = stream[end - 7 : end + 1]
            for axis, got in zip(("x_counts", "y_counts", "z_counts"), event.counts):
                mean = sum(getattr(r, axis) for r in window) / 8
                expected = int(math.floor(abs(mean) + 0.5)) * (1 if mean >= 0 else -1)
                assert got == expected

    def test_window_of_one_averages_the_wake_sample_with_the_next(self):
        # the wake sample opens a window but cannot close it, so at
        # averaging_window=1 the first window after a wake holds 2 samples
        cfg = SensorConfig(averaging_window=1, group_size=1)
        state, woke = step(rested(), RawSample(0.00, 40, 0, 63), cfg)
        assert state.mode is Mode.ACTIVE and woke == []
        state, first = step(state, RawSample(0.02, 61, 0, 63), cfg)
        state, second = step(state, RawSample(0.04, 90, 0, 63), cfg)
        assert [(e.t, e.counts) for e in first] == [(0.02, (51, 0, 63))]  # 50.5 rounds away
        assert [(e.t, e.counts) for e in second] == [(0.04, (90, 0, 63))]

    def test_batching_cadence(self):
        # a long wiggle: every emission before the final flush is a full batch
        wiggle = []
        for k in range(40):
            wiggle.append((8, (40 + 17 * (k % 3), -30 + 16 * (k % 2), 63)))
        wiggle.append((1150, REST))
        state, emissions = drive(rested(), make_stream(wiggle))
        assert state.mode is Mode.SLEEP
        for batch in emissions[:-1]:
            assert len(batch) == CFG.group_size
        assert 1 <= len(emissions[-1]) <= CFG.group_size

    def test_gate_soundness_between_consecutive_events(self):
        wiggle = []
        for k in range(40):
            wiggle.append((8, (40 + 17 * (k % 3), -30 + 16 * (k % 2), 63)))
        wiggle.append((1150, REST))
        _, emissions = drive(rested(), make_stream(wiggle))
        events = [e for batch in emissions for e in batch]
        assert len(events) > 5
        for prev, cur in zip(events, events[1:]):
            change = max(abs(c - p) for c, p in zip(cur.counts, prev.counts))
            assert change >= CFG.change_threshold_counts

    def test_event_timestamps_strictly_increase(self):
        wiggle = [(8, (40 + 17 * (k % 3), 0, 63)) for k in range(20)]
        wiggle.append((1150, REST))
        _, emissions = drive(rested(), make_stream(wiggle))
        events = [e for batch in emissions for e in batch]
        assert all(a.t < b.t for a, b in zip(events, events[1:]))

    def test_liveness_sustained_burst_emits_quickly(self):
        # threshold-exceeding input sustained for two windows emits one batch
        stream = make_stream([(8, (40, 0, 63)), (8, (80, 0, 63))])
        _, emissions = drive(rested(), stream)
        events = [e for batch in emissions for e in batch]
        assert len(events) >= 1
        window_span = CFG.averaging_window / CFG.active_rate_hz
        assert events[0].t <= stream[0].t + CFG.group_size * window_span

    def test_non_monotonic_raw_rejected(self):
        state, _ = step(rested(), RawSample(1.0, 40, 0, 63), CFG)
        with pytest.raises(SequencingError):
            step(state, RawSample(0.5, 40, 0, 63), CFG)

    def test_virgin_sensor_wakes_on_first_sample(self):
        state, _ = step(SensorState(1), RawSample(0.0, 0, 0, 63), CFG)
        assert state.mode is Mode.ACTIVE

    def test_sleep_buffers_empty_invariant(self, small_sim):
        # exercised indirectly: simulation ends asleep with nothing queued
        assert small_sim.streams  # all positions simulated


class TestConfig:
    def test_resolution(self):
        assert CFG.resolution_g == pytest.approx(2 / 127)

    def test_invalid_configs_rejected(self):
        from quickroutes.errors import ConfigError

        with pytest.raises(ConfigError):
            SensorConfig(full_scale_g=0)
        with pytest.raises(ConfigError):
            SensorConfig(sleep_rate_hz=50, active_rate_hz=10)
        with pytest.raises(ConfigError):
            SensorConfig(averaging_window=0)
        with pytest.raises(ConfigError):
            SensorConfig(group_size=0)
        for kwargs in (dict(sleep_rate_hz=0.0), dict(sleep_rate_hz=-1.0),
                       dict(sleep_after_s=-1.0), dict(inactive_grace_s=-0.1),
                       dict(change_threshold_counts=-1)):
            with pytest.raises(ConfigError):
                SensorConfig(**kwargs)
        with pytest.raises(ConfigError, match="change_threshold_counts must be >= 0"):
            SensorConfig(change_threshold_counts=-5)
        # a gate of 0 counts passes every sample: legal, the sensor never sleeps
        assert SensorConfig(change_threshold_counts=0).change_threshold_counts == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", [f.name for f in fields(SensorConfig) if isinstance(f.default, float)]
    )
    def test_non_finite_configs_rejected(self, key, bad):
        # range checks such as sleep_after_s < 0 are false for NaN
        from quickroutes.errors import ConfigError

        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            SensorConfig(**{key: bad})
