"""Sample-event files and their segmentation into climbs.

The wire format between the sensor line, base-station exports and this
pipeline is line-delimited UTF-8 text, one transmitted sample per line::

    position<TAB>t_seconds<TAB>x_counts<TAB>y_counts<TAB>z_counts

``#`` starts a comment, blank lines are ignored, timestamps are decimal
seconds with at least millisecond precision. Batching means events may be
written out of arrival order; everything here orders by the embedded
timestamp instead.
"""

from __future__ import annotations

import io
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, TextIO, Union

from .errors import ConfigError, MissingClipError, ValidationError
from .sensor import SampleEvent

log = logging.getLogger(__name__)

DEFAULT_GAP_S = 120.0
wire_order = attrgetter("t", "position")  # sort key: timestamp, then position


@dataclass(frozen=True)
class LineConfig:
    """A fixed sequence of quickdraw positions 1..ie on one wall line."""

    ie: int

    def __post_init__(self):
        # positions 2..ie-2 must be non-empty index sets for the temporal features
        if self.ie < 5:
            raise ConfigError(f"a line needs at least 5 positions, got ie={self.ie}")

    @property
    def positions(self) -> range:
        return range(1, self.ie + 1)


@dataclass
class ClimbRecord:
    """Per-climb, per-position sample windows and clip timestamps.

    ``windows[i]`` holds the samples attributed to position ``i``: those
    with timestamps in ``[clip_times[i], clip_times[i+1])``, where the
    last clipped position keeps everything up to the end of the climb.
    Samples from a position that arrive after the next clip are kept in
    ``flagged`` rather than silently dropped.
    """

    climb_id: int
    clip_times: dict[int, float]
    windows: dict[int, list[SampleEvent]]
    flagged: list[SampleEvent] = field(default_factory=list)
    ground_truth_route: Optional[str] = None

    @property
    def n_samples(self) -> dict[int, int]:
        return {i: len(w) for i, w in self.windows.items()}

    def all_events(self) -> list[SampleEvent]:
        events = [e for w in self.windows.values() for e in w] + list(self.flagged)
        events.sort(key=wire_order)
        return events


def _parse_line(line: str) -> SampleEvent:
    parts = line.split("\t")
    if len(parts) != 5:
        raise ValueError("expected 5 tab-separated fields")
    position = int(parts[0])
    t = float(parts[1])
    if not math.isfinite(t):
        raise ValueError(f"timestamp {parts[1]!r} is not finite")
    x, y, z = int(parts[2]), int(parts[3]), int(parts[4])
    if position < 1:
        raise ValueError("position must be >= 1")
    return SampleEvent(position, t, x, y, z)


def parse_events(
    source: Union[TextIO, Iterable[str], str], ie: Optional[int] = None
) -> dict[int, list[SampleEvent]]:
    """Parse a sample-event stream, grouped by position and sorted by time.

    ``source`` is an open text file, an iterable of lines, or the file
    content itself. Malformed lines are collected and reported together
    with their line numbers; out-of-order events are re-sorted with a
    warning; duplicate (position, timestamp) pairs and positions beyond
    ``ie`` are validation errors.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    by_pos: dict[int, list[SampleEvent]] = {}
    bad: list[str] = []
    for lineno, line in enumerate(source, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            event = _parse_line(text)
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
            continue
        by_pos.setdefault(event.position, []).append(event)

    if bad:
        shown = "; ".join(bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ValidationError(f"malformed event lines: {shown}{more}")

    if ie is not None:
        unknown = sorted(p for p in by_pos if p > ie)
        if unknown:
            raise ValidationError(
                f"events from positions {unknown} but the line ends at ie={ie}"
            )

    for position, events in by_pos.items():
        times = [e.t for e in events]
        if any(b < a for a, b in zip(times, times[1:])):
            log.warning("position %d: events out of order, re-sorting", position)
            events.sort(key=lambda e: e.t)
            times = [e.t for e in events]
        dup = next((b for a, b in zip(times, times[1:]) if a == b), None)
        if dup is not None:
            raise ValidationError(
                f"position {position}: duplicate event timestamp t={dup}"
            )
    return dict(sorted(by_pos.items()))


def read_events(path, ie: Optional[int] = None) -> dict[int, list[SampleEvent]]:
    with open_text(path, "r") as fh:
        return parse_events(fh, ie=ie)


@contextmanager
def open_text(target: Union[TextIO, str, os.PathLike], mode: str) -> Iterator[TextIO]:
    """A path (``str`` or ``os.PathLike``) opened as UTF-8 text in ``mode``
    and closed on exit; an open file passes through and stays open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def write_events(target: Union[TextIO, str, os.PathLike], events: Iterable[SampleEvent]) -> None:
    """Write events in timestamp order in the wire format above."""
    ordered = sorted(events, key=wire_order)
    with open_text(target, "w") as fh:
        for e in ordered:
            fh.write(f"{e.position}\t{e.t:.3f}\t{e.x_counts}\t{e.y_counts}\t{e.z_counts}\n")


def _flatten(events) -> list[SampleEvent]:
    if isinstance(events, Mapping):
        flat = [e for group in events.values() for e in group]
    else:
        flat = list(events)
    flat.sort(key=wire_order)
    return flat


def segment_climbs(
    events, line: LineConfig, gap_s: float = DEFAULT_GAP_S
) -> list[ClimbRecord]:
    """Split an event stream into climbs and per-position windows.

    Climbs are separated wherever every sensor on the line stays silent
    for at least ``gap_s``. Within a climb the clip time of position i is
    the timestamp of its first event, and clip times must increase with
    position (a climber cannot clip i+1 before i). Positions 2..ie-1 must
    all be present; 1 and ie may be missing.
    """
    if gap_s <= 0:
        raise ConfigError("gap_s must be positive")
    flat = _flatten(events)
    for e in flat:
        if e.position > line.ie:
            raise ValidationError(
                f"event from position {e.position} but the line ends at ie={line.ie}"
            )
    if not flat:
        return []

    blocks: list[list[SampleEvent]] = [[flat[0]]]
    for prev, cur in zip(flat, flat[1:]):
        if cur.t - prev.t >= gap_s:
            blocks.append([cur])
        else:
            blocks[-1].append(cur)

    records = []
    for climb_id, block in enumerate(blocks):
        by_pos: dict[int, list[SampleEvent]] = {}
        for e in block:
            by_pos.setdefault(e.position, []).append(e)

        for position in range(2, line.ie):
            if position not in by_pos:
                raise MissingClipError(climb_id, position)

        present = sorted(by_pos)
        clips = {p: by_pos[p][0].t for p in present}
        for a, b in zip(present, present[1:]):
            if not clips[a] < clips[b]:
                raise ValidationError(
                    f"climb {climb_id}: position {b} clipped at t={clips[b]} "
                    f"not after position {a} at t={clips[a]}"
                )

        windows: dict[int, list[SampleEvent]] = {}
        flagged: list[SampleEvent] = []
        for idx, p in enumerate(present):
            cutoff = clips[present[idx + 1]] if idx + 1 < len(present) else None
            keep, late = [], []
            for e in by_pos[p]:
                if cutoff is None or e.t < cutoff:
                    keep.append(e)
                else:
                    late.append(e)
            windows[p] = keep
            flagged.extend(late)
        records.append(
            ClimbRecord(
                climb_id=climb_id, clip_times=clips, windows=windows, flagged=flagged
            )
        )
    return records


def attach_labels(records: list[ClimbRecord], labels: Iterable[str]) -> list[ClimbRecord]:
    """Attach per-climb ground-truth route labels, in climb order."""
    labels = list(labels)
    if len(labels) != len(records):
        raise ValidationError(
            f"{len(labels)} route labels for {len(records)} segmented climbs"
        )
    for record, label in zip(records, labels):
        record.ground_truth_route = label
    return records
