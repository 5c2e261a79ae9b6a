"""Line simulator: the array kernel against the step-driven spec, determinism,
ground truth, energy proxies and route validation."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns
from quickroutes import sensor, simulate
from quickroutes.errors import ConfigError
from quickroutes.ingest import EventColumns, LineConfig, segment_climbs, write_events
from quickroutes.sensor import (
    Mode,
    RawSample,
    SensorConfig,
    SensorState,
    g_to_counts,
    step,
)
from quickroutes.simulate import (
    BURST_DIRECTION,
    RouteProfile,
    RouteSpec,
    _Burst,
    _plan_bursts,
    _Swing,
    _ticks_before,
    simulate_line,
)

LINE5 = LineConfig(ie=5)


class _NoiseStream:
    """Per-axis Gaussian draws, one row per visited tick, in 4096-row blocks."""

    def __init__(self, rng, sigma):
        self._rng = rng
        self._sigma = sigma
        self._buf = np.empty((0, 3))
        self._i = 0

    def next3(self):
        if self._sigma == 0.0:
            return np.zeros(3)
        if self._i >= len(self._buf):
            self._buf = self._rng.normal(0.0, self._sigma, size=(4096, 3))
            self._i = 0
        row = self._buf[self._i]
        self._i += 1
        return row


def reference_swing(bursts, t, first_burst):
    """Burst excitation at time ``t`` and the updated first unfinished burst."""
    n_bursts = len(bursts)
    while first_burst < n_bursts and t > bursts[first_burst].t_end:
        first_burst += 1
    swing = 0.0
    j = first_burst
    while j < n_bursts and bursts[j].t0 <= t:
        b = bursts[j]
        if t <= b.t_end:
            dt = t - b.t0
            swing += b.amp * math.exp(-dt / b.tau) * math.sin(2.0 * math.pi * b.freq * dt)
        j += 1
    return swing, first_burst


def reference_run(position, bursts, profile, cfg, t_end, seed, on_step=None):
    """One position driven through ``sensor.step`` tick by tick.

    The reference the kernel must match: (events, radio batches, seconds
    awake), where a radio batch is a step that emitted events and a tick
    is awake when the step left the sensor active. ``on_step(before, raw,
    after)`` sees every step's states, for tests that check a scenario
    occurs.
    """
    rng = np.random.default_rng([seed, 1000 + position])
    noise = _NoiseStream(rng, profile.noise_g)
    rest = profile.rest_g
    rest_counts = tuple(g_to_counts(v, cfg) for v in rest)
    state = SensorState(position, last_sent=rest_counts)

    sleep_ticks = max(1, round(cfg.active_rate_hz / cfg.sleep_rate_hz))
    dir_x, dir_y, dir_z = BURST_DIRECTION
    events = []
    batches = awake_ticks = 0
    tick = 0
    first_burst = 0
    while True:
        t = tick / cfg.active_rate_hz
        if t > t_end:
            break
        swing, first_burst = reference_swing(bursts, t, first_burst)
        n = noise.next3()
        raw = RawSample(
            t,
            g_to_counts(rest[0] + dir_x * swing + n[0], cfg),
            g_to_counts(rest[1] + dir_y * swing + n[1], cfg),
            g_to_counts(rest[2] + dir_z * swing + n[2], cfg),
        )
        before = state
        state, emitted = step(state, raw, cfg)
        if on_step is not None:
            on_step(before, raw, state)
        events.extend(emitted)
        batches += bool(emitted)
        if state.mode is Mode.ACTIVE:
            awake_ticks += 1
            tick += 1
        else:
            tick += sleep_ticks
    return events, batches, awake_ticks / cfg.active_rate_hz


def wire_bytes(events):
    buf = io.StringIO()
    write_events(buf, events)
    return buf.getvalue()


def assert_matches_reference(line, profile, seed, cfg, positions=None, on_step=None):
    sim = simulate_line(line, profile, seed, cfg)
    _, bursts = _plan_bursts(line, profile, np.random.default_rng([seed, 0]))
    positions = list(positions or line.positions)
    expected = []
    for p in positions:
        events, batches, awake_s = reference_run(
            p, bursts[p], profile, cfg, sim.end_time, seed, on_step
        )
        assert sim.streams[p] == columns(events), f"position {p}"
        assert sim.radio_batches[p] == batches, f"position {p}"
        assert sim.awake_s[p] == awake_s, f"position {p}"
        expected.extend(events)
    got = EventColumns.concat(sim.streams[p] for p in positions)
    assert wire_bytes(got) == wire_bytes(columns(expected))


def short_route(name, amp, freq_hz=2.5):
    """A five-quickdraw route a few seconds long, so reference runs stay cheap."""
    return RouteSpec(
        name=name,
        clip_times=(1.0, 2.5, 4.0, 5.5, 7.0),
        amplitudes=(amp, amp, 0.0, amp, amp),
        durations=(1.5, 2.0, 1.0, 2.5, 1.5),
        freq_hz=freq_hz,
    )


ROUTES = {"a": short_route("a", 0.9), "b": short_route("b", 0.5, freq_hz=1.5)}

CONFIGS = [
    SensorConfig(sleep_after_s=3.0),
    SensorConfig(group_size=1, averaging_window=1, inactive_grace_s=0.2, sleep_after_s=1.5),
    SensorConfig(
        group_size=3, sleep_rate_hz=11.0, active_rate_hz=48.0, change_threshold_counts=6,
        averaging_window=5, sleep_after_s=2.0,
    ),
    SensorConfig(output_bits=6, full_scale_g=1.0, averaging_window=3, sleep_after_s=2.5),
    # every raw reading saturates: counts far beyond the int64 range before clipping
    SensorConfig(full_scale_g=1e-20, sleep_after_s=2.0),
]


class TestKernelMatchesStep:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cfg=st.sampled_from(CONFIGS),
        climbs=st.lists(st.sampled_from(sorted(ROUTES)), min_size=1, max_size=3),
        # below the 8.5 s a route lasts, bursts of successive climbs overlap
        spacing=st.sampled_from([3.0, 6.0, 20.0]),
        noise_g=st.sampled_from([0.0, 0.02, 0.08]),
        clip_jitter_s=st.sampled_from([0.3, 2.0]),
    )
    def test_events_and_energy_proxies(self, seed, cfg, climbs, spacing, noise_g, clip_jitter_s):
        profile = RouteProfile(
            routes=ROUTES,
            climbs=climbs,
            climb_spacing_s=spacing,
            start_s=2.0,
            noise_g=noise_g,
            clip_jitter_s=clip_jitter_s,
        )
        assert_matches_reference(LINE5, profile, seed, cfg)

    def test_saturating_config_without_warning(self):
        profile = RouteProfile(routes=ROUTES, climbs=["a", "b"], climb_spacing_s=6.0, start_s=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_matches_reference(LINE5, profile, 0, CONFIGS[-1])

    def test_swing_bit_equal_to_scalar_walk(self):
        # overlapping, out-of-order bursts; numpy's exp differs from math.exp
        # in the last bit often enough to fail this, if rarely the event bytes
        profile = RouteProfile(
            routes=ROUTES, climbs=["a", "b", "a", "b"], climb_spacing_s=3.0,
            start_s=2.0, clip_jitter_s=2.0,
        )
        _, bursts = _plan_bursts(LINE5, profile, np.random.default_rng([5, 0]))
        n_ticks = _ticks_before(30.0, 50.0, inclusive=True)
        assert n_ticks == 1501  # every tick up to and including t = 30 s
        for blist in bursts.values():
            first, want = 0, []
            for tick in range(n_ticks):
                swing, first = reference_swing(blist, tick / 50.0, first)
                want.append(swing)
            swing = _Swing(blist, 50.0)
            assert swing.at(np.arange(n_ticks)).tolist() == want
            # any ascending subset, as the kernel visits them chunk by chunk
            for start, stride in ((0, 7), (333, 1), (901, 13), (1500, 1)):
                ticks = np.arange(start, n_ticks, stride)
                assert swing.at(ticks).tolist() == [want[t] for t in ticks.tolist()]

    def test_swing_at_burst_edges_on_ticks(self):
        # starts and ends exactly on ticks, a burst of one tick, one between
        # two ticks, and one inside another that ends before it
        bursts = [
            _Burst(t0=1.0, amp=0.5, tau=0.4, freq=2.3, t_end=2.0),
            _Burst(t0=1.5, amp=0.3, tau=0.2, freq=3.0, t_end=1.8),
            _Burst(t0=2.0, amp=0.7, tau=0.5, freq=2.0, t_end=2.02),
            _Burst(t0=2.49, amp=0.7, tau=0.5, freq=2.0, t_end=2.5),
            _Burst(t0=3.001, amp=0.9, tau=0.5, freq=2.0, t_end=3.009),
            _Burst(t0=3.5, amp=0.2, tau=0.3, freq=1.0, t_end=4.0),
        ]
        first, want = 0, []
        for tick in range(250):
            swing, first = reference_swing(bursts, tick / 50.0, first)
            want.append(swing)
        assert want[100] != 0.0 and want[125] != 0.0  # t = 2.0 and the one-tick burst
        assert _Swing(bursts, 50.0).at(np.arange(250)).tolist() == want

    @pytest.mark.parametrize("rate", [50.0, 100.0, 3.0, 0.7])
    def test_ticks_before_equals_searchsorted(self, rate):
        t = np.arange(4000) / rate
        rng = np.random.default_rng(int(rate * 10))
        probes = np.concatenate((t[:200], np.nextafter(t[:200], -1.0), np.nextafter(t[:200], 9e9),
                                 rng.uniform(-1.0, t[-1] - 10.0, size=200)))
        for probe in probes.tolist():
            assert _ticks_before(probe, rate) == np.searchsorted(t, probe)
            assert _ticks_before(probe, rate, inclusive=True) == np.searchsorted(t, probe, "right")

    def test_noise_beyond_one_draw_block(self):
        # a long quiet start: more than 4096 samples, so the reference
        # draws its noise in several blocks, and the kernel in others
        profile = RouteProfile(routes=ROUTES, climbs=["a"], start_s=450.0)
        assert_matches_reference(LINE5, profile, 3, SensorConfig(), positions=[1, 5])

    def test_noise_only_wakes_in_quiet_stretches(self):
        # sigma is about 7.6 counts: single sleep samples often open the
        # 15-count gate, 8-sample averages rarely do
        profile = RouteProfile(routes=ROUTES, climbs=["a"], start_s=40.0, noise_g=0.12)
        cfg = SensorConfig(sleep_after_s=2.0)
        assert_matches_reference(LINE5, profile, 4, cfg)
        # without noise wakes a position is awake for at most one burst and
        # 2.8 s after it; the line runs for about 80 s
        sim = simulate_line(LINE5, profile, 4, cfg)
        assert all(awake > 20.0 for awake in sim.awake_s.values())

    def test_gate_always_open(self):
        # a 0-count gate: the first sample wakes, every window is an event
        cfg = SensorConfig(change_threshold_counts=0, sleep_after_s=2.0)
        profile = RouteProfile(routes=ROUTES, climbs=["a", "b"], climb_spacing_s=6.0, start_s=2.0)
        assert_matches_reference(LINE5, profile, 2, cfg)
        # awake from tick 0 through the last tick, which lies within 1/50 s past the end
        sim = simulate_line(LINE5, profile, 2, cfg)
        assert all(sim.end_time < awake <= sim.end_time + 0.02 for awake in sim.awake_s.values())

    def test_quiet_stretches_longer_than_one_pass(self):
        # climbs 900 s apart: about 9000 sleep samples between them, several
        # passes of at most 4096 noise rows each
        profile = RouteProfile(routes=ROUTES, climbs=["a", "b"], climb_spacing_s=900.0, start_s=500.0)
        assert_matches_reference(LINE5, profile, 6, SensorConfig(sleep_after_s=2.0), positions=[2, 4])

    @pytest.mark.parametrize("sleep_after_s", [2.0, 0.0])
    def test_clock_bounds_met_with_equality(self, sleep_after_s):
        # window ends on multiples of 1/8 s, so t - below_since meets the
        # grace and t - inactive_since meets sleep_after exactly; at 0 s the
        # window that meets the grace is the one that sleeps
        cfg = SensorConfig(
            active_rate_hz=32.0, sleep_rate_hz=8.0, averaging_window=4,
            inactive_grace_s=0.5, sleep_after_s=sleep_after_s,
        )
        profile = RouteProfile(routes=ROUTES, climbs=["a", "b"], climb_spacing_s=20.0, start_s=2.0)
        assert_matches_reference(LINE5, profile, 8, cfg)

    def test_conftest_line(self, small_line, small_profile):
        assert_matches_reference(small_line, small_profile, 7, SensorConfig(), positions=[4])

    def test_gate_opens_where_the_clocks_would_sleep(self):
        # step tests the gate first: a window that opens it transmits, even
        # on the window where the inactivity clocks would have reached
        # sleep_after_s, and the sensor stays awake
        cfg = SensorConfig(averaging_window=2, inactive_grace_s=0.1, sleep_after_s=0.2)
        profile = RouteProfile(routes=ROUTES, climbs=["a"], start_s=2.0, noise_g=0.12)

        def observe(before, raw, after):
            if before.mode is not Mode.ACTIVE or after.last_event_t != raw.t:
                return  # not a window that transmitted
            below = before.below_threshold_since
            below = raw.t if below is None else below
            inactive = before.inactive_since
            if inactive is None and raw.t - below > cfg.inactive_grace_s:
                inactive = below + cfg.inactive_grace_s
            if inactive is not None and raw.t - inactive >= cfg.sleep_after_s:
                hits.append(raw.t)

        hits = []
        assert_matches_reference(LINE5, profile, 0, cfg, on_step=observe)
        assert len(hits) > 5

    def test_awake_through_the_line_end(self):
        # single-sample windows of heavy noise keep the gate opening, so no
        # position sleeps again: the awake stretch spans many array chunks,
        # the last one cut short by the line's end, and a batch still held
        # back when the line ends is never transmitted
        cfg = SensorConfig(group_size=3, averaging_window=1, sleep_after_s=2.0)
        profile = RouteProfile(routes=ROUTES, climbs=["b"], start_s=2.0, noise_g=0.12)

        def observe(before, raw, after):
            last[before.position] = after

        last = {}
        assert_matches_reference(LINE5, profile, 9, cfg, on_step=observe)
        assert all(state.mode is Mode.ACTIVE for state in last.values())
        assert any(state.pending_batch for state in last.values())
        sim = simulate_line(LINE5, profile, 9, cfg)
        assert all(awake > sim.end_time - 5.0 for awake in sim.awake_s.values())

    def test_round_half_away_equals_sensor_elementwise(self):
        edges = [
            0.5, 1.5, 126.5, 127.5, 0.0, 0.49999999999999994,
            2.0**52 - 0.5, np.nextafter(2.0**52, 0.0), 2.0**52, 2.0**52 + 1.0, 2.0**53,
            5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        ]
        x = np.array(edges + [-v for v in edges])  # -0.0 among them
        got = simulate._round_half_away(x)
        assert got.dtype == np.int64
        assert got.tolist() == [sensor._round_half_away(v) for v in x.tolist()]


class TestSimulateLine:
    PROFILE = RouteProfile(routes=ROUTES, climbs=["a", "b", "a"], climb_spacing_s=60.0)

    def test_same_seed_same_bytes(self):
        first = simulate_line(LINE5, self.PROFILE, seed=11)
        again = simulate_line(LINE5, self.PROFILE, seed=11)
        assert wire_bytes(first.all_events()) == wire_bytes(again.all_events())

    def test_different_seed_different_bytes(self):
        a = simulate_line(LINE5, self.PROFILE, seed=11)
        b = simulate_line(LINE5, self.PROFILE, seed=12)
        assert wire_bytes(a.all_events()) != wire_bytes(b.all_events())

    def test_truth_is_what_segmentation_recovers(self, small_sim, small_line):
        records = segment_climbs(small_sim.streams, small_line, gap_s=120.0)
        assert len(records) == len(small_sim.truth)
        for rec, truth in zip(records, small_sim.truth):
            assert truth.clip_times == rec.clip_times

    def test_truth_is_first_event_per_climb(self):
        # climbs closer together than a route is long: streams interleave
        profile = RouteProfile(routes=ROUTES, climbs=["a", "b", "a", "b"], climb_spacing_s=4.0)
        sim = simulate_line(LINE5, profile, seed=5, cfg=CONFIGS[0])
        starts = [c.start_s for c in sim.truth]
        edges = [-math.inf] + [0.5 * (a + b) for a, b in zip(starts, starts[1:])] + [math.inf]
        for climb, lo, hi in zip(sim.truth, edges, edges[1:]):
            for p, stream in sim.streams.items():
                first = next((t for t in stream.t.tolist() if lo <= t < hi), None)
                assert climb.clip_times[p] == first

    def test_energy_proxies_cover_every_position(self, small_sim, small_line):
        cfg = SensorConfig()
        for p in small_line.positions:
            n_events = len(small_sim.streams[p])
            assert n_events / cfg.group_size <= small_sim.radio_batches[p] <= n_events
            assert 0.0 < small_sim.awake_s[p] < small_sim.end_time

    def test_route_for_other_line_length_rejected(self):
        with pytest.raises(ConfigError):
            simulate_line(LineConfig(ie=6), self.PROFILE, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            simulate_line(LINE5, self.PROFILE, seed=-3)


class TestRouteValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(clip_times=(1.0, 2.0), amplitudes=(0.5,), durations=(1.0, 1.0)),
            dict(clip_times=(1.0, 1.0), amplitudes=(0.5, 0.5), durations=(1.0, 1.0)),
            dict(clip_times=(2.0, 1.0), amplitudes=(0.5, 0.5), durations=(1.0, 1.0)),
            dict(clip_times=(1.0, 2.0), amplitudes=(0.5, 0.5), durations=(1.0, 0.0)),
            dict(clip_times=(1.0, 2.0), amplitudes=(0.5, -0.1), durations=(1.0, 1.0)),
        ],
        ids=["lengths", "repeated-clip", "decreasing-clip", "zero-duration", "negative-amp"],
    )
    def test_bad_route_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RouteSpec(name="bad", **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", ["clip_times", "amplitudes", "durations", "freq_hz", "amp_fatigue", "dt_fatigue"]
    )
    def test_non_finite_route_rejected(self, key, bad):
        kwargs = dict(clip_times=(1.0, 2.0), amplitudes=(0.5, 0.5), durations=(1.0, 1.0))
        kwargs[key] = (kwargs[key][0], bad) if key in kwargs else bad
        with pytest.raises(ConfigError, match=f"route bad: {key} must be finite"):
            RouteSpec(name="bad", **kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key", ["climb_spacing_s", "start_s", "clip_jitter_s", "amp_jitter", "noise_g", "rest_g"]
    )
    def test_non_finite_profile_rejected(self, key, bad):
        value = (0.0, bad, 1.0) if key == "rest_g" else bad
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            RouteProfile(routes=ROUTES, climbs=["a"], **{key: value})

    def test_negative_start_rejected(self):
        # the line starts at t = 0: a climb before it would lose its clips
        with pytest.raises(ConfigError, match="start_s must be >= 0"):
            RouteProfile(routes=ROUTES, climbs=["a", "b"], start_s=-20.0)
        assert RouteProfile(routes=ROUTES, climbs=["a"], start_s=0.0).start_s == 0.0

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigError):
            RouteProfile(routes=ROUTES, climbs=["a", "nope"])
        with pytest.raises(ConfigError):
            RouteProfile(routes=ROUTES, climbs=["a"], climb_spacing_s=0.0)
        for key in ("clip_jitter_s", "amp_jitter", "noise_g"):
            with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
                RouteProfile(routes=ROUTES, climbs=["a"], **{key: -0.1})
