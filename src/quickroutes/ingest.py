"""Sample-event files and their segmentation into climbs, as columns.

The wire format between the sensor line, base-station exports and this
pipeline is line-delimited UTF-8 text, one transmitted sample per line::

    position<TAB>t_seconds<TAB>x_counts<TAB>y_counts<TAB>z_counts

``#`` starts a comment, blank lines are ignored, timestamps are decimal
seconds with at least millisecond precision. Positions and counts are
integers that fit in int64; a wider one makes its line malformed, as a
non-finite timestamp does. Batching means events may be written out of
arrival order; everything here orders by the embedded timestamp instead.

Events travel from the firmware kernel through the file to the feature
kernels as :class:`EventColumns`: a position array, a timestamp array and
an (n, 3) int64 count array, aligned by index. No event object is made on
the way: event objects are the output of the firmware spec, ``sensor.step``,
alone.

Parsing: :func:`parse_events` reads its source into a list of lines once
and hands the list to numpy's C parser (``np.loadtxt``). It accepts a
strict subset of what Python's ``int``/``float`` accept (not ``1_0``,
non-ASCII digits or integers beyond int64) and gives the same values on
that subset, the same bits for timestamps. When it raises, or a row fails
a check (a non-finite timestamp, a position below 1), the same list is
parsed again line by line with ``int``/``float``. That pass is the
reference: it alone words the errors and numbers the lines.

Segmentation: :func:`segment_climbs` sorts once on the wire key
(timestamp, then position), splits climbs where
consecutive timestamps are ``gap_s`` apart, and groups each climb's events
by position with a second stable sort, which keeps them in time order. A
climb's windows are slices of those grouped columns.
"""

from __future__ import annotations

import io
import logging
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, TextIO, Union

import numpy as np

from .errors import ConfigError, MissingClipError, ValidationError

log = logging.getLogger(__name__)

DEFAULT_GAP_S = 120.0

_WIRE_ROW = np.dtype([("position", "i8"), ("t", "f8"), ("counts", "i8", (3,))])
_INT64 = range(-(2**63), 2**63)


class EventColumns:
    """Events as aligned columns: ``position`` (n,) int64, ``t`` (n,)
    float64 and ``counts`` (n, 3) int64 x, y, z.

    A slice or an index array gives columns again, views for a slice.
    Columns are not iterable: no event object is made from them.
    """

    __slots__ = ("position", "t", "counts")

    def __init__(self, position: np.ndarray, t: np.ndarray, counts: np.ndarray):
        self.position = position
        self.t = t
        self.counts = counts

    @classmethod
    def empty(cls) -> EventColumns:
        return cls(np.empty(0, np.int64), np.empty(0), np.empty((0, 3), np.int64))

    @classmethod
    def concat(cls, parts: Iterable[EventColumns]) -> EventColumns:
        """The events of ``parts`` one after another, in their order."""
        parts = [cls.empty(), *parts]
        return cls(
            np.concatenate([c.position for c in parts]),
            np.concatenate([c.t for c in parts]),
            np.concatenate([c.counts for c in parts]),
        )

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index) -> EventColumns:
        return EventColumns(self.position[index], self.t[index], self.counts[index])

    def __eq__(self, other):
        if not isinstance(other, EventColumns):
            return NotImplemented
        return (
            np.array_equal(self.position, other.position)
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None
    __iter__ = None  # else Python would iterate by integer indexing


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
    windows: dict[int, EventColumns]
    flagged: EventColumns = field(default_factory=EventColumns.empty)
    ground_truth_route: Optional[str] = None


def _parse_line(line: str) -> tuple[int, float, tuple[int, int, int]]:
    """One wire line as a ``_WIRE_ROW`` row."""
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
    for name, value in zip(("position", "x", "y", "z"), (position, x, y, z)):
        if value not in _INT64:
            raise ValueError(f"{name} {value} does not fit in int64")
    return position, t, (x, y, z)


def _parse_lines(lines: Iterable[str]) -> EventColumns:
    """The reference parse: :func:`_parse_line` on each line, every
    malformed line reported with its number."""
    rows: list[tuple] = []
    bad: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            rows.append(_parse_line(text))
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
    if bad:
        shown = "; ".join(bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ValidationError(f"malformed event lines: {shown}{more}")
    return _columns(np.array(rows, dtype=_WIRE_ROW))


def _columns(rows: np.ndarray) -> EventColumns:
    return EventColumns(rows["position"], rows["t"], rows["counts"])


def _parse_stream(lines: list[str]) -> Optional[EventColumns]:
    """The columns of ``lines`` from numpy's parser, or None where the
    reference parse must decide: the parser raised or a row fails its checks.

    A deprecation warning is an error here: older numpy versions still read
    ``1.0`` as an integer with one, where ``int`` refuses it.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(lines, dtype=_WIRE_ROW, delimiter="\t", comments="#", ndmin=1)
        except (ValueError, DeprecationWarning):
            return None
    if not (np.isfinite(rows["t"]).all() and (rows["position"] >= 1).all()):
        return None
    return _columns(rows)


def parse_events(
    source: Union[TextIO, Iterable[str], str], ie: Optional[int] = None
) -> dict[int, EventColumns]:
    """Parse a sample-event stream, grouped by position and sorted by time.

    ``source`` is an open text file, an iterable of lines, or the file
    content itself. It is read once, from where it stands, into a list of
    lines; numpy's parser reads that list first, and the reference pass
    reads the same list when it must decide, numbering from its first
    item. Malformed lines are collected and reported together with their
    line numbers; out-of-order events are re-sorted with a warning;
    duplicate (position, timestamp) pairs and positions beyond ``ie`` are
    validation errors. Each position's events are a slice of one set of
    columns.
    """
    lines = io.StringIO(source).readlines() if isinstance(source, str) else list(source)
    events = _parse_stream(lines)
    if events is None:
        events = _parse_lines(lines)

    if ie is not None:
        unknown = np.unique(events.position[events.position > ie]).tolist()
        if unknown:
            raise ValidationError(
                f"events from positions {unknown} but the line ends at ie={ie}"
            )
    if not len(events):
        return {}

    order = np.lexsort((events.t, events.position))  # stable: file order among equal times
    position, t = events.position[order], events.t[order]
    starts = np.flatnonzero(np.r_[True, position[1:] != position[:-1]])
    same = position[1:] == position[:-1]
    # a position is out of order where its sorted events are not in file order
    unsorted = set(position[1:][same & (order[1:] < order[:-1])].tolist())
    duplicates: dict[int, float] = {}
    for k in np.flatnonzero(same & (t[1:] == t[:-1])).tolist():
        duplicates.setdefault(int(position[k]), float(t[k + 1]))
    first_seen = np.minimum.reduceat(order, starts)
    for p in position[starts[np.argsort(first_seen)]].tolist():
        if p in unsorted:
            log.warning("position %d: events out of order, re-sorting", p)
        if p in duplicates:
            raise ValidationError(
                f"position {p}: duplicate event timestamp t={duplicates[p]}"
            )

    grouped = events[order]
    bounds = np.r_[starts, len(grouped)].tolist()
    return {
        p: grouped[a:b] for p, a, b in zip(position[starts].tolist(), bounds, bounds[1:])
    }


def read_events(path, ie: Optional[int] = None) -> dict[int, EventColumns]:
    with open_text(path, "r") as fh:
        return parse_events(fh, ie=ie)


@contextmanager
def open_text(target: Union[TextIO, str, os.PathLike], mode: str) -> Iterator[TextIO]:
    """The event file behind :func:`read_events` and :func:`write_events`:
    a path (``str`` or ``os.PathLike``) opened as UTF-8 text in ``mode``
    and closed on exit; an open file passes through and stays open."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def write_events(target: Union[TextIO, str, os.PathLike], events: EventColumns) -> None:
    """Write events in the wire format above, in wire order: by timestamp,
    then position, equal pairs in their order in ``events``."""
    order = np.lexsort((events.position, events.t))
    rows = zip(events.position[order].tolist(), events.t[order].tolist(),
               events.counts[order].tolist())
    with open_text(target, "w") as fh:
        for position, t, (x, y, z) in rows:
            fh.write(f"{position}\t{t:.3f}\t{x}\t{y}\t{z}\n")


def segment_climbs(
    streams: Mapping[int, EventColumns], line: LineConfig, gap_s: float = DEFAULT_GAP_S
) -> list[ClimbRecord]:
    """Split an event stream into climbs and per-position windows.

    Climbs are separated wherever every sensor on the line stays silent
    for at least ``gap_s``. Within a climb the clip time of position i is
    the timestamp of its first event, and clip times must increase with
    position (a climber cannot clip i+1 before i). Positions 2..ie-1 must
    all be present; 1 and ie may be missing. An event from a position
    outside 1..ie raises first. Then the first climb that breaks a rule
    raises, a missing position before a clip order.

    ``streams`` maps each position to its events, as :func:`parse_events`
    and ``simulate_line`` give them; the groups are read as one stream, in
    wire order (equal pairs in the order of the mapping).
    """
    if not gap_s > 0:  # also refuses NaN, which gap_s <= 0 lets through
        raise ConfigError("gap_s must be positive")
    events = EventColumns.concat(streams.values())
    order = np.lexsort((events.position, events.t))  # stable: wire order
    position = events.position[order]
    outside = np.flatnonzero((position > line.ie) | (position < 1))
    if outside.size:
        p = int(position[outside[0]])  # the first in wire order
        end = "positions start at 1" if p < 1 else f"the line ends at ie={line.ie}"
        raise ValidationError(f"event from position {p} but {end}")
    if not len(events):
        return []

    # group by (climb, position); the stable sort keeps time order inside a group
    climb = np.r_[0, np.cumsum(np.diff(events.t[order]) >= gap_s)]
    by_group = np.lexsort((position, climb))
    events, climb = events[order[by_group]], climb[by_group]
    starts = np.flatnonzero(
        np.r_[True, (climb[1:] != climb[:-1]) | (events.position[1:] != events.position[:-1])]
    )
    g_climb, g_pos, g_clip = climb[starts], events.position[starts], events.t[starts]
    n_climbs = int(climb[-1]) + 1

    inner = (g_pos >= 2) & (g_pos < line.ie)
    short = np.flatnonzero(np.bincount(g_climb[inner], minlength=n_climbs) < line.ie - 2)
    next_in_climb = g_climb[1:] == g_climb[:-1]
    misordered = np.flatnonzero(next_in_climb & ~(g_clip[:-1] < g_clip[1:]))
    first_short = short[0] if short.size else n_climbs
    if misordered.size and g_climb[misordered[0]] < first_short:
        k = misordered[0]
        a, b = g_pos[k : k + 2].tolist()
        ta, tb = g_clip[k : k + 2].tolist()
        raise ValidationError(
            f"climb {int(g_climb[k])}: position {b} clipped at t={tb} "
            f"not after position {a} at t={ta}"
        )
    if short.size:
        present = set(g_pos[g_climb == first_short].tolist())
        missing = next(p for p in range(2, line.ie) if p not in present)
        raise MissingClipError(int(first_short), missing)

    # a position's events at or after the next present position's clip are late
    cutoff = np.r_[np.where(next_in_climb, g_clip[1:], np.inf), np.inf]
    has_next = np.r_[next_in_climb, False]
    sizes = np.diff(np.r_[starts, len(events)])
    late = np.repeat(has_next, sizes) & ~(events.t < np.repeat(cutoff, sizes))
    kept = sizes - np.add.reduceat(late, starts, dtype=np.intp)
    late_at = np.flatnonzero(late)
    late_bounds = np.searchsorted(climb[late_at], np.arange(n_climbs + 1)).tolist()
    group_bounds = np.searchsorted(g_climb, np.arange(n_climbs + 1)).tolist()

    positions, clips = g_pos.tolist(), g_clip.tolist()
    starts, kept = starts.tolist(), kept.tolist()
    records = []
    for climb_id in range(n_climbs):
        groups = range(group_bounds[climb_id], group_bounds[climb_id + 1])
        records.append(
            ClimbRecord(
                climb_id=climb_id,
                clip_times={positions[g]: clips[g] for g in groups},
                windows={
                    positions[g]: events[starts[g] : starts[g] + kept[g]] for g in groups
                },
                flagged=events[late_at[late_bounds[climb_id] : late_bounds[climb_id + 1]]],
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
