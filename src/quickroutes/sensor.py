"""Deterministic model of the smart-quickdraw acquisition firmware.

A wall-mounted sensor runs in one of two modes. Asleep it samples slowly
and ignores everything until some axis moves far enough from the last
transmitted value. Awake it samples fast, averages fixed-size windows
(except the first after a wake at a window of 1; see
:class:`SensorConfig`), drops averaged samples that changed too little,
and batches the rest so the radio wakes up as rarely as possible. Going
back to sleep flushes whatever is still queued.

All functions here are pure state transitions: one :class:`SensorState`
per simulated sensor, no shared mutable state, so distinct sensors can be
advanced independently.

:func:`step` is the executable spec of the firmware, one raw sample at a
time. The line simulator does not call it: ``simulate._run_position`` is an
array kernel that must give the same transmitted events byte for byte, and
the tests check it against a loop over ``step``. A change to the firmware's
behaviour therefore goes into both, with ``step`` deciding what is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from .errors import ConfigError, SequencingError, require_finite

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class SensorConfig:
    """Firmware constants of the acquisition board.

    Defaults reproduce the prototype: +/-2 g full scale on a signed 8-bit
    output, 10 Hz asleep / 50 Hz awake, 8-sample averaging, a 15-count
    change gate, and 2-sample radio batches.

    An averaging window closes on the sample that fills it, never on the
    sample that opened it. The sample that wakes the sensor opens the
    first window, so at ``averaging_window=1`` the first window after
    every wake averages 2 samples (the wake sample and the next); every
    other window, and every window at larger sizes, holds exactly
    ``averaging_window`` samples.

    Asleep, the sensor reads every ``round(active_rate_hz / sleep_rate_hz)``-th
    tick of the active clock, so its actual sleep rate is the active rate
    over that whole number: 48/11 Hz samples at 12 Hz, and 50/20 Hz at
    25 Hz, because Python's ``round`` takes 2.5 to 2.

    A ``change_threshold_counts`` of 0 is legal: every sample passes the
    gate, so the sensor never goes back to sleep.
    """

    full_scale_g: float = 2.0
    sleep_rate_hz: float = 10.0
    active_rate_hz: float = 50.0
    output_bits: int = 8
    change_threshold_counts: int = 15
    averaging_window: int = 8
    inactive_grace_s: float = 0.8
    sleep_after_s: float = 20.0
    group_size: int = 2

    def __post_init__(self):
        require_finite(self)
        if self.full_scale_g <= 0:
            raise ConfigError("full_scale_g must be positive")
        if self.sleep_rate_hz <= 0:
            raise ConfigError("sleep_rate_hz must be positive")
        if self.sleep_rate_hz >= self.active_rate_hz:
            raise ConfigError("sleep rate must be below active rate")
        for name in ("inactive_grace_s", "sleep_after_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.change_threshold_counts < 0:
            raise ConfigError("change_threshold_counts must be >= 0")
        if self.averaging_window < 1:
            raise ConfigError("averaging_window must be >= 1")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.output_bits < 2:
            raise ConfigError("output_bits must be >= 2")

    @property
    def max_counts(self) -> int:
        return 2 ** (self.output_bits - 1) - 1

    @property
    def resolution_g(self) -> float:
        """Acceleration represented by one count (~16 mg at defaults)."""
        return self.full_scale_g / self.max_counts


@dataclass(frozen=True)
class RawSample:
    """One ADC reading before any firmware processing."""

    t: float
    x_counts: int
    y_counts: int
    z_counts: int

    @property
    def counts(self) -> Triple:
        return (self.x_counts, self.y_counts, self.z_counts)


@dataclass(frozen=True)
class SampleEvent:
    """One averaged sample as transmitted to the base station."""

    position: int
    t: float
    x_counts: int
    y_counts: int
    z_counts: int

    @property
    def counts(self) -> Triple:
        return (self.x_counts, self.y_counts, self.z_counts)


class Mode(Enum):
    SLEEP = "sleep"
    ACTIVE = "active"


@dataclass(frozen=True)
class SensorState:
    """Full firmware state of one sensor between samples.

    Buffers never exceed their configured capacities; both are empty
    while asleep. ``last_sent`` survives sleep so the wake comparison has
    a baseline.
    """

    position: int
    mode: Mode = Mode.SLEEP
    last_sent: Optional[Triple] = None
    window_buffer: tuple[RawSample, ...] = ()
    pending_batch: tuple[SampleEvent, ...] = ()
    below_threshold_since: Optional[float] = None
    inactive_since: Optional[float] = None
    last_raw_t: Optional[float] = None
    last_event_t: Optional[float] = None


def _round_half_away(x: float) -> int:
    # symmetric rounding keeps +/- readings comparable
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def g_to_counts(accel: float, cfg: SensorConfig) -> int:
    """Quantize an acceleration to counts, saturating at full scale."""
    raw = accel * cfg.max_counts / cfg.full_scale_g
    c = _round_half_away(raw)
    return max(-cfg.max_counts, min(cfg.max_counts, c))


def change_gate(last_sent: Optional[Triple], candidate: Triple, cfg: SensorConfig) -> bool:
    """Is ``candidate`` worth transmitting given the last transmitted triple?

    True when no baseline exists yet (first sample after power-on is always
    observable) or when any axis moved by at least the configured threshold.
    """
    if last_sent is None:
        return True
    return any(
        abs(c - l) >= cfg.change_threshold_counts for c, l in zip(candidate, last_sent)
    )


def _average_window(window: tuple[RawSample, ...]) -> Triple:
    n = len(window)
    return (
        _round_half_away(sum(s.x_counts for s in window) / n),
        _round_half_away(sum(s.y_counts for s in window) / n),
        _round_half_away(sum(s.z_counts for s in window) / n),
    )


def step(
    state: SensorState, raw: RawSample, cfg: SensorConfig
) -> tuple[SensorState, list[SampleEvent]]:
    """Advance one sensor by one raw sample (the spec; see the module docstring).

    Returns the successor state and the events transmitted to the base
    station during this step (a full batch, or the flush that precedes
    sleep; usually nothing).

    A waking sample only opens the next averaging window; the window is
    averaged when a later sample fills it. At ``averaging_window=1`` the
    first window after a wake therefore averages 2 samples (see
    :class:`SensorConfig`).
    """
    if state.last_raw_t is not None and raw.t < state.last_raw_t:
        raise SequencingError(
            f"position {state.position}: sample at t={raw.t} after t={state.last_raw_t}"
        )

    if state.mode is Mode.SLEEP:
        if change_gate(state.last_sent, raw.counts, cfg):
            # wake: the triggering sample is the first of the new window
            return (
                replace(state, mode=Mode.ACTIVE, window_buffer=(raw,), last_raw_t=raw.t),
                [],
            )
        return replace(state, last_raw_t=raw.t), []

    window = state.window_buffer + (raw,)
    if len(window) < cfg.averaging_window:
        return replace(state, window_buffer=window, last_raw_t=raw.t), []

    averaged = _average_window(window)
    t_avg = window[-1].t

    if change_gate(state.last_sent, averaged, cfg):
        if state.last_event_t is not None and t_avg <= state.last_event_t:
            raise SequencingError(
                f"position {state.position}: averaged sample at t={t_avg} does not "
                f"advance past t={state.last_event_t}"
            )
        event = SampleEvent(state.position, t_avg, *averaged)
        pending = state.pending_batch + (event,)
        emitted: list[SampleEvent] = []
        if len(pending) >= cfg.group_size:
            emitted = list(pending)
            pending = ()
        return (
            replace(
                state,
                window_buffer=(),
                pending_batch=pending,
                last_sent=averaged,
                below_threshold_since=None,
                inactive_since=None,
                last_raw_t=raw.t,
                last_event_t=t_avg,
            ),
            emitted,
        )

    # below threshold: run the inactivity clocks
    below_since = state.below_threshold_since
    inactive_since = state.inactive_since
    if below_since is None:
        below_since = t_avg
    if inactive_since is None and t_avg - below_since > cfg.inactive_grace_s:
        inactive_since = below_since + cfg.inactive_grace_s
    if inactive_since is not None and t_avg - inactive_since >= cfg.sleep_after_s:
        # back to sleep: transmit whatever was held back
        flushed = list(state.pending_batch)
        return (
            replace(
                state,
                mode=Mode.SLEEP,
                window_buffer=(),
                pending_batch=(),
                below_threshold_since=None,
                inactive_since=None,
                last_raw_t=raw.t,
            ),
            flushed,
        )
    return (
        replace(
            state,
            window_buffer=(),
            below_threshold_since=below_since,
            inactive_since=inactive_since,
            last_raw_t=raw.t,
        ),
        [],
    )
