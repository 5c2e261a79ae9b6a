"""Synthetic climb traffic for a sensored line.

Generates per-position raw acceleration and pushes it through the
firmware model, so everything downstream sees exactly what a base
station would record. Each clip excites its quickdraw with an
exponentially decaying sinusoid on top of the gravity baseline, with
route-dependent amplitude and frequency plus Gaussian noise; climbs
are scheduled on a fixed cadence with per-climb jitter and optional
fatigue drift across repeats of the same route.

All randomness comes from numpy generators derived from a single seed
(one stream for planning, one per position), so identical inputs give
byte-identical event streams.

``sensor.step`` is the executable spec of the firmware. ``_run_position``
is an array kernel that must transmit byte for byte what driving ``step``
with one raw sample per visited tick would: every tick while awake, every
``sleep_ticks``-th tick while asleep, with each visited tick taking the
next row of the position's noise stream. The tests keep that step-driven
loop as the reference.

Asleep, the kernel's work grows with wakes, not with samples: a sleep
stretch that no burst acts on is decided in one pass from the extremes of
its noise. Awake it grows with samples and windows: the samples are drawn
and averaged as arrays, and one plain-Python pass over the averaged
windows runs ``step``'s change gate and inactivity clocks (see
``_run_position``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, require_finite
from .ingest import EventColumns, LineConfig
from .sensor import SensorConfig, g_to_counts
# the spec _run_position matches, kept bound here for tools that wrap simulate.step
from .sensor import step  # noqa: F401

# fixed unit direction of the swing excitation (x out of the wall, y lateral)
BURST_DIRECTION = (0.36, 0.80, 0.48)


@dataclass(frozen=True)
class RouteSpec:
    """Per-route burst parameters, one entry per position 1..ie."""

    name: str
    clip_times: tuple[float, ...]   # seconds from climb start, strictly increasing
    amplitudes: tuple[float, ...]   # mean burst amplitude in g (0 = no motion)
    durations: tuple[float, ...]    # burst length in seconds
    freq_hz: float = 2.0
    label: Optional[str] = None     # ground-truth route; defaults to name stem
    amp_fatigue: float = 0.0        # relative amplitude change per repeat
    dt_fatigue: float = 0.0         # relative clip-delta change per repeat

    def __post_init__(self):
        require_finite(self, prefix=f"route {self.name}: ")
        if not (len(self.clip_times) == len(self.amplitudes) == len(self.durations)):
            raise ConfigError(f"route {self.name}: per-position lists differ in length")
        if any(b <= a for a, b in zip(self.clip_times, self.clip_times[1:])):
            raise ConfigError(f"route {self.name}: clip times must strictly increase")
        if any(d <= 0 for d in self.durations):
            raise ConfigError(f"route {self.name}: durations must be positive")
        if any(a < 0 for a in self.amplitudes):
            raise ConfigError(f"route {self.name}: amplitudes must be >= 0")

    @property
    def route_label(self) -> str:
        return self.label if self.label is not None else self.name.split(".")[0]


@dataclass
class RouteProfile:
    """Everything the generator needs: routes, schedule, and jitter levels."""

    routes: dict[str, RouteSpec]
    climbs: list[str]               # route name per climb, in order
    climb_spacing_s: float = 240.0
    start_s: float = 60.0
    clip_jitter_s: float = 0.3      # sigma on each clip-to-clip delta
    amp_jitter: float = 0.05        # relative sigma on burst amplitudes
    noise_g: float = 0.02           # per-axis Gaussian noise during sampling
    rest_g: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        require_finite(self)
        if self.climb_spacing_s <= 0:
            raise ConfigError("climb_spacing_s must be positive")
        if self.start_s < 0:
            raise ConfigError("start_s must be >= 0")
        for name in ("clip_jitter_s", "amp_jitter", "noise_g"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        unknown = sorted(set(self.climbs) - set(self.routes))
        if unknown:
            raise ConfigError(f"climbs reference undefined routes: {unknown}")

    def labels(self) -> list[str]:
        return [self.routes[name].route_label for name in self.climbs]


@dataclass(frozen=True)
class _Burst:
    t0: float
    amp: float
    tau: float
    freq: float
    t_end: float


@dataclass
class ClimbTruth:
    """Generator-side ground truth for one climb."""

    climb_id: int
    route: str
    start_s: float
    clip_times: dict[int, Optional[float]] = field(default_factory=dict)


@dataclass
class LineSimulation:
    """Transmitted events and ground truth of one line, plus energy proxies.

    ``streams[p]`` holds the events position ``p`` transmitted, in time
    order, in the shape :func:`ingest.parse_events` gives a file's positions.
    ``radio_batches[p]`` counts its radio transmissions (steps that emitted
    events) and ``awake_s[p]`` its time in active mode.
    """

    streams: dict[int, EventColumns]
    truth: list[ClimbTruth]
    end_time: float
    radio_batches: dict[int, int]
    awake_s: dict[int, float]

    def all_events(self) -> EventColumns:
        """Every position's events in wire order: by timestamp, then position."""
        events = EventColumns.concat(self.streams.values())
        return events[np.lexsort((events.position, events.t))]


def _plan_bursts(
    line: LineConfig, profile: RouteProfile, rng: np.random.Generator
) -> tuple[list[ClimbTruth], dict[int, list[_Burst]]]:
    ie = line.ie
    reps: Counter = Counter()
    truth: list[ClimbTruth] = []
    bursts: dict[int, list[_Burst]] = {p: [] for p in range(1, ie + 1)}
    for idx, name in enumerate(profile.climbs):
        route = profile.routes[name]
        if len(route.clip_times) != ie:
            raise ConfigError(
                f"route {name}: {len(route.clip_times)} positions configured "
                f"for a line with ie={ie}"
            )
        rep = reps[name]
        reps[name] += 1
        dt_mult = (1.0 + route.dt_fatigue) ** rep
        amp_mult = (1.0 + route.amp_fatigue) ** rep

        start = profile.start_s + idx * profile.climb_spacing_s
        base = np.asarray(route.clip_times) * dt_mult
        deltas = np.diff(np.concatenate(([0.0], base)))
        jitter = rng.normal(0.0, profile.clip_jitter_s, size=ie)
        # keep the clip order physical under jitter
        deltas = np.maximum(deltas + jitter, np.maximum(0.25 * deltas, 0.05))
        clips = start + np.cumsum(deltas)

        amp_noise = rng.normal(0.0, profile.amp_jitter, size=ie)
        amps = np.maximum(np.asarray(route.amplitudes) * amp_mult * (1.0 + amp_noise), 0.0)

        truth.append(ClimbTruth(climb_id=idx, route=route.route_label, start_s=start))
        for pos in range(1, ie + 1):
            amp = float(amps[pos - 1])
            if amp <= 0.0:
                continue
            duration = float(route.durations[pos - 1])
            bursts[pos].append(
                _Burst(
                    t0=float(clips[pos - 1]),
                    amp=amp,
                    tau=duration / 3.0,
                    freq=route.freq_hz,
                    t_end=float(clips[pos - 1]) + duration,
                )
            )
    return truth, bursts


# A quiet sleep stretch is decided from at most this many noise rows at a
# time (96 KB, under glibc's 128 KB mmap threshold, so the buffer is not
# handed back to the kernel and faulted in again). Inside a burst's span the
# sleep samples are gated this many at a time: a burst wakes the sensor
# within a few. Awake, windows are averaged this many at a time: about one
# awake period at the defaults (the burst, the grace and the sleep delay).
_QUIET_CHUNK = 4096
_SPAN_CHUNK = 32
_ACTIVE_CHUNK = 160


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Elementwise ``sensor._round_half_away``: the same IEEE operations,
    with the sign copied from ``x`` (a -0.0 result casts to 0)."""
    mag = np.abs(x)
    mag += 0.5
    np.floor(mag, out=mag)
    np.copysign(mag, x, out=mag)
    return mag.astype(np.int64)


def _ticks_before(t: float, rate: float, inclusive: bool = False) -> int:
    """How many ticks ``0, 1, ...`` fall before time ``t`` (or at it, with
    ``inclusive``): ``np.searchsorted(np.arange(N) / rate, t)`` for any
    large enough N, without the array."""
    tick = max(0, math.floor(t * rate) - 2)
    while tick / rate < t or (inclusive and tick / rate == t):
        tick += 1
    return tick


class _Swing:
    """Summed burst excitation of one position, at any ticks.

    Ticks outside every burst get 0.0. Inside, the burst list is walked in
    a fixed way that the event bytes depend on: skip finished bursts at the
    front, stop at the first burst that has not started, add in list order.
    Bursts may overlap or be out of order when climbs are closer together
    than a route is long. The value at a tick depends on that tick alone,
    so the kernel evaluates only the ticks it visits, chunk by chunk. The
    terms use scalar ``math.exp``/``math.sin``: ``np.exp`` differs from
    ``math.exp`` in the last bit on some inputs. Each burst is kept as a
    ``(t0, t_end, amp, tau, 2.0 * math.pi * freq)`` tuple; the product
    ``2.0 * math.pi * freq * dt`` folds left to right, so precomputing its
    first three factors changes no bit.
    """

    def __init__(self, bursts: list[_Burst], rate: float):
        self.rate = rate
        self.terms = [(b.t0, b.t_end, b.amp, b.tau, 2.0 * math.pi * b.freq) for b in bursts]
        spans = sorted(
            (_ticks_before(b.t0, rate), _ticks_before(b.t_end, rate, inclusive=True))
            for b in bursts
        )
        merged: list[list[int]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            elif lo < hi:
                merged.append([lo, hi])
        # ticks in [starts[i], ends[i]) lie inside some burst
        self.starts = np.array([lo for lo, _ in merged], dtype=np.int64)
        self.ends = np.array([hi for _, hi in merged], dtype=np.int64)
        # the walk at time t skips the longest prefix of bursts that ended before t
        self.ended = np.maximum.accumulate(np.array([b.t_end for b in bursts], dtype=float))

    def at(self, ticks: np.ndarray) -> np.ndarray:
        """The excitation at each of the ascending ``ticks``."""
        swing = np.zeros(len(ticks))
        if not self.starts.size:
            return swing
        span = np.searchsorted(self.starts, ticks, side="right") - 1
        hits = np.flatnonzero((span >= 0) & (ticks < self.ends[span]))
        if not hits.size:
            return swing
        t = ticks[hits] / self.rate  # bit-equal to the scalar tick / rate
        firsts = np.searchsorted(self.ended, t).tolist()
        terms, n_bursts = self.terms, len(self.terms)
        exp, sin = math.exp, math.sin
        values = []
        for tt, j in zip(t.tolist(), firsts):
            total = 0.0
            while j < n_bursts and terms[j][0] <= tt:
                t0, t_end, amp, tau, omega = terms[j]
                if tt <= t_end:
                    dt = tt - t0
                    total += amp * exp(-dt / tau) * sin(omega * dt)
                j += 1
            values.append(total)
        swing[hits] = values
        return swing


def _run_position(
    position: int,
    bursts: list[_Burst],
    profile: RouteProfile,
    cfg: SensorConfig,
    t_end: float,
    seed: int,
) -> tuple[EventColumns, int, float]:
    """One sensor's transmitted events, radio batches and seconds awake.

    Matches ``sensor.step`` driven tick by tick up to ``t_end`` (see the
    module docstring).

    - Asleep outside every burst's span, the raw sample is ``rest +
      direction * 0.0 + noise``, scaled by a positive factor, clipped and
      rounded: each step is monotone, so each axis's count is a
      non-decreasing function of that axis's noise. A sleeping sensor gates
      each sample on its own, so a quiet stretch holds a wake exactly when
      the counts of its per-axis noise minimum or maximum open the gate;
      only then are its samples gated one by one to find the first. Inside
      a span, samples are gated a few at a time.
    - Awake, the samples of up to ``_ACTIVE_CHUNK`` windows are drawn and
      averaged as arrays, then one Python loop walks the windows in order,
      as ``step`` would: the change gate against the last transmitted
      triple first, and only on a window below it the inactivity clocks,
      with ``step``'s float comparisons.

    Noise row ``v`` belongs to the ``v``-th visited tick, not to tick ``v``.
    An event that passes the gate is kept as plain floats and ints; the
    first ``transmitted`` have gone out by radio, the rest wait for a full
    batch or the flush before sleep.
    """
    rate = cfg.active_rate_hz
    n_ticks = _ticks_before(t_end, rate, inclusive=True)
    swing = _Swing(bursts, rate)
    span_starts, span_ends = swing.starts.tolist(), swing.ends.tolist()

    # Noise rows are drawn as they are first visited: a run of draws gives
    # the same rows as one draw of their total size. Visits only move
    # forward and never skip a row, so rows before ``start`` are dropped.
    rng = np.random.default_rng([seed, 1000 + position])
    noise, noise_from = np.empty((0, 3)), 0  # rows from visit noise_from on

    def noise_rows(start: int, stop: int) -> np.ndarray:
        nonlocal noise, noise_from
        drawn = noise_from + len(noise)
        if stop > drawn:
            fresh = rng.normal(0.0, profile.noise_g, size=(stop - drawn, 3))
            noise, noise_from = np.concatenate((noise[start - noise_from:], fresh)), start
        return noise[start - noise_from : stop - noise_from]

    rest, direction = np.asarray(profile.rest_g), np.asarray(BURST_DIRECTION)
    max_counts, scale = cfg.max_counts, cfg.full_scale_g

    def quantize(g: np.ndarray) -> np.ndarray:
        # clipped before rounding: the int64 cast must not see counts beyond full scale
        return _round_half_away(np.clip(g * max_counts / scale, -max_counts, max_counts))

    def raw_counts(tick: int, count: int, stride: int, visit: int) -> np.ndarray:
        """Raw samples at ``count`` ticks from ``tick`` on, ``stride`` apart,
        taking noise rows from ``visit`` on."""
        ticks = np.arange(tick, tick + count * stride, stride)
        return quantize(rest + direction * swing.at(ticks)[:, None] + noise_rows(visit, visit + count))

    threshold = cfg.change_threshold_counts
    # the last transmitted triple, as Python ints
    sent_x, sent_y, sent_z = (g_to_counts(v, cfg) for v in profile.rest_g)

    def opens(counts: np.ndarray) -> np.ndarray:
        """Which rows of ``counts`` pass the change gate against the last
        transmitted triple."""
        return (np.abs(counts - (sent_x, sent_y, sent_z)) >= threshold).any(axis=1)

    window = cfg.averaging_window
    # the wake sample opens the first window but cannot close it
    first_lengths = np.full(_ACTIVE_CHUNK, window)
    first_lengths[0] = max(window, 2)
    lengths = np.full(_ACTIVE_CHUNK, window)
    sleep_ticks = max(1, round(rate / cfg.sleep_rate_hz))
    grace, sleep_after, group_size = cfg.inactive_grace_s, cfg.sleep_after_s, cfg.group_size

    # event ticks strictly increase (``ends`` ascends, chunks advance by k, a wake follows
    # the last sleep), and ticks far below 2**51 over one positive rate keep that order as floats
    event_t: list[float] = []
    event_counts: list[tuple[int, int, int]] = []
    radio_batches = awake_ticks = transmitted = 0
    tick = visit = 0
    while tick < n_ticks:
        # asleep: find the first sample whose change gate opens
        left = -(-(n_ticks - tick) // sleep_ticks)
        span = bisect_right(span_ends, tick)
        woke = None
        if span < len(span_starts) and span_starts[span] <= tick:
            m = min(_SPAN_CHUNK, left)
            opened = np.flatnonzero(opens(raw_counts(tick, m, sleep_ticks, visit)))
            if opened.size:
                woke = int(opened[0])
        else:
            # quiet until the next span: the noise extremes decide the stretch
            quiet = span_starts[span] - tick if span < len(span_starts) else n_ticks - tick
            m = min(_QUIET_CHUNK, left, -(-quiet // sleep_ticks))
            # one contiguous row per axis: numpy reduces those far faster than columns
            axes = noise_rows(visit, visit + m).T.copy()
            extremes = np.stack((axes.min(axis=1), axes.max(axis=1)))
            if opens(quantize(rest + direction * 0.0 + extremes)).any():
                # an extreme's counts are some sample's counts: one of them wakes
                woke = int(opens(raw_counts(tick, m, sleep_ticks, visit)).argmax())
        if woke is None:
            tick += m * sleep_ticks
            visit += m
            continue
        tick += woke * sleep_ticks
        visit += woke

        # awake from the wake tick on, one sample per tick
        wake = tick
        chunk_lengths = first_lengths
        below_since: Optional[float] = None
        inactive_since: Optional[float] = None
        asleep_at = None
        while asleep_at is None:
            ends = np.cumsum(chunk_lengths)
            nw = int(np.searchsorted(ends, n_ticks - tick, side="right"))
            if nw == 0:
                break  # the line's end time falls inside this window
            ends = ends[:nw]
            k = int(ends[-1])
            sums = np.add.reduceat(raw_counts(tick, k, 1, visit), np.concatenate(([0], ends[:-1])))
            averaged = _round_half_away(sums / chunk_lengths[:nw, None])
            times = (tick + ends - 1) / rate
            for end, t, (x, y, z) in zip(ends.tolist(), times.tolist(), averaged.tolist()):
                if (abs(x - sent_x) >= threshold or abs(y - sent_y) >= threshold
                        or abs(z - sent_z) >= threshold):
                    sent_x, sent_y, sent_z = x, y, z
                    event_t.append(t)
                    event_counts.append((x, y, z))
                    if len(event_t) - transmitted >= group_size:
                        transmitted = len(event_t)
                        radio_batches += 1
                    below_since = inactive_since = None
                    continue
                # below the gate: step's inactivity clocks
                if below_since is None:
                    below_since = t
                if inactive_since is None and t - below_since > grace:
                    inactive_since = below_since + grace
                if inactive_since is not None and t - inactive_since >= sleep_after:
                    # back to sleep: transmit whatever was held back
                    if len(event_t) > transmitted:
                        transmitted = len(event_t)
                        radio_batches += 1
                    asleep_at = tick + end - 1
                    break
            else:
                tick += k
                visit += k
                chunk_lengths = lengths
        if asleep_at is None:
            awake_ticks += n_ticks - wake
            break
        awake_ticks += asleep_at - wake
        visit += asleep_at - tick + 1
        tick = asleep_at + sleep_ticks
    events = EventColumns(
        np.full(transmitted, position, dtype=np.int64),
        np.array(event_t[:transmitted]),
        np.array(event_counts[:transmitted], dtype=np.int64).reshape(transmitted, 3),
    )
    return events, radio_batches, awake_ticks / rate


def simulate_line(
    line: LineConfig,
    profile: RouteProfile,
    seed: int,
    cfg: Optional[SensorConfig] = None,
) -> LineSimulation:
    """Run the whole line through the firmware model.

    Returns only what was actually transmitted, per position, plus the
    generator's ground truth: route label and first transmitted event per
    (climb, position). Deterministic given (line, profile, seed).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cfg = cfg or SensorConfig()
    plan_rng = np.random.default_rng([seed, 0])
    truth, bursts = _plan_bursts(line, profile, plan_rng)

    last_burst_end = max(
        (b.t_end for blist in bursts.values() for b in blist),
        default=profile.start_s,
    )
    t_end = last_burst_end + cfg.sleep_after_s + 30.0

    runs = {
        position: _run_position(position, bursts[position], profile, cfg, t_end, seed)
        for position in line.positions
    }
    streams = {position: run[0] for position, run in runs.items()}

    if truth:
        boundaries = [
            0.5 * (a.start_s + b.start_s) for a, b in zip(truth, truth[1:])
        ]
        edges = [-math.inf] + boundaries + [math.inf]
        for position, stream in streams.items():
            times = stream.t.tolist()
            for climb, lo, hi in zip(truth, edges, edges[1:]):
                i = bisect_left(times, lo)
                climb.clip_times[position] = times[i] if i < len(times) and times[i] < hi else None
    return LineSimulation(
        streams=streams,
        truth=truth,
        end_time=t_end,
        radio_batches={position: run[1] for position, run in runs.items()},
        awake_s={position: run[2] for position, run in runs.items()},
    )
