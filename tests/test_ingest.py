"""Event file parsing and climb segmentation.

The column code is held to the object code it replaced, kept here as the
``reference_*`` functions: the same events, the same bits for every
timestamp, or the same exception text, on generated lines and on a
simulated line with one injected fault.
"""

import io
import logging
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import columns, rows
from quickroutes import ingest
from quickroutes.errors import ConfigError, MissingClipError, ValidationError
from quickroutes.ingest import (
    ClimbRecord,
    EventColumns,
    LineConfig,
    parse_events,
    read_events,
    segment_climbs,
    write_events,
)
from quickroutes.sensor import SampleEvent

LINE8 = LineConfig(ie=8)


def ev(position, t, x=20, y=0, z=63):
    return SampleEvent(position, t, x, y, z)


def objects(events):
    """``EventColumns`` as ``SampleEvent`` objects, in their order."""
    return [
        SampleEvent(p, t, x, y, z)
        for p, t, (x, y, z) in zip(events.position.tolist(), events.t.tolist(), events.counts.tolist())
    ]


def by_position(events):
    """``EventColumns`` grouped by position, first seen first: the mapping
    that ``segment_climbs`` takes."""
    return {p: events[events.position == p] for p in dict.fromkeys(events.position.tolist())}


class TestParse:
    def test_empty_input(self):
        assert parse_events("") == {}

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1\t0.100\t10\t-5\t63\n  # another\n"
        events = parse_events(text)
        assert {p: rows(group) for p, group in events.items()} == {
            1: rows(columns([SampleEvent(1, 0.1, 10, -5, 63)]))
        }

    def test_malformed_lines_reported_with_numbers(self):
        text = "1\t0.1\t1\t2\t3\nnot-an-event\n2\t0.2\t1\t2\n"
        with pytest.raises(ValidationError) as err:
            parse_events(text)
        assert "line 2" in str(err.value)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "Infinity", "-NaN"])
    def test_non_finite_timestamps_reported_with_numbers(self, stamp):
        lines = [f"{p}\t{10.0 + p:.3f}\t20\t0\t63" for p in range(1, 9)]
        lines[3] = f"4\t{stamp}\t20\t0\t63"
        with pytest.raises(ValidationError) as err:
            parse_events("\n".join(lines) + "\n", ie=8)
        assert "malformed event lines: line 4: timestamp" in str(err.value)
        assert "line 3" not in str(err.value)

    def test_out_of_order_resorted_with_warning(self, caplog):
        text = "1\t2.000\t20\t0\t63\n1\t1.000\t40\t0\t63\n"
        with caplog.at_level(logging.WARNING):
            events = parse_events(text)
        assert events[1].t.tolist() == [1.0, 2.0]
        assert any("out of order" in r.message for r in caplog.records)

    def test_duplicate_timestamp_rejected(self):
        text = "1\t1.000\t20\t0\t63\n1\t1.000\t40\t0\t63\n"
        with pytest.raises(ValidationError):
            parse_events(text)

    def test_unknown_position_rejected(self):
        text = "9\t1.000\t20\t0\t63\n"
        with pytest.raises(ValidationError):
            parse_events(text, ie=8)
        assert parse_events(text)  # without a line bound it parses

    def test_write_read_round_trip(self, small_sim):
        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        parsed = parse_events(buf.getvalue())
        for position, stream in small_sim.streams.items():
            assert parsed[position] == EventColumns(
                stream.position, np.array([round(t, 3) for t in stream.t.tolist()]), stream.counts
            )

    def test_path_round_trip(self, small_sim, tmp_path):
        path = tmp_path / "line.events"
        write_events(path, small_sim.all_events())
        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        assert path.read_text(encoding="utf-8") == buf.getvalue()
        assert read_events(path) == parse_events(buf.getvalue())

    def test_simulated_line_has_all_position_groups(self, small_sim):
        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        parsed = parse_events(buf.getvalue(), ie=8)
        assert sorted(parsed) == list(range(1, 9))
        assert all(len(group) > 0 for group in parsed.values())


def climb_events(clips, samples_per_position=3, spacing=1.0):
    """A climb whose position i first transmits at clips[i-1]."""
    events = []
    for position, clip in enumerate(clips, start=1):
        for k in range(samples_per_position):
            events.append(ev(position, clip + k * spacing, x=20 + 16 * (k % 2)))
    return events


class TestSegment:
    def test_single_climb_window_boundaries(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        records = segment_climbs(by_position(columns(climb_events(clips))), LINE8, gap_s=120)
        assert len(records) == 1
        rec = records[0]
        assert rec.clip_times == {i + 1: float(c) for i, c in enumerate(clips)}
        for position in range(1, 8):
            cutoff = clips[position]  # next position's clip
            assert (rec.windows[position].t < cutoff).all()
        assert (rec.windows[8].t >= 190).all()
        assert len(rec.flagged) == 0

    def test_two_climbs_split_on_silence(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        first = climb_events(clips)
        second = [
            SampleEvent(e.position, e.t + 800.0, *e.counts) for e in first
        ]
        records = segment_climbs(by_position(columns(first + second)), LINE8, gap_s=120)
        assert len(records) == 2
        assert records[0].climb_id == 0
        assert records[1].clip_times[1] == 800.0

    def test_gap_not_reached_keeps_one_climb(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        records = segment_climbs(by_position(columns(climb_events(clips))), LINE8, gap_s=300)
        assert len(records) == 1

    @pytest.mark.parametrize("gap_s", [0.0, -1.0, float("nan")])
    def test_gap_must_be_positive(self, small_sim, gap_s):
        # a NaN gap would compare false everywhere and merge every climb into one
        with pytest.raises(ConfigError, match="gap_s must be positive"):
            segment_climbs(small_sim.streams, LINE8, gap_s=gap_s)

    def test_missing_interior_position_named(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = [e for e in climb_events(clips) if e.position != 3]
        with pytest.raises(MissingClipError) as err:
            segment_climbs(by_position(columns(events)), LINE8, gap_s=120)
        assert err.value.position == 3

    def test_missing_first_and_last_positions_tolerated(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = [e for e in climb_events(clips) if e.position not in (1, 8)]
        records = segment_climbs(by_position(columns(events)), LINE8, gap_s=120)
        assert sorted(records[0].windows) == [2, 3, 4, 5, 6, 7]

    def test_clip_misorder_rejected(self):
        clips = [0, 30, 25, 45, 70, 100, 140, 190]  # position 3 before 2
        with pytest.raises(ValidationError) as err:
            segment_climbs(by_position(columns(climb_events(clips, samples_per_position=1))), LINE8, gap_s=120)
        assert "position 3" in str(err.value)

    def test_missing_position_reported_before_clip_order(self):
        clips = [0, 10, 25, 45, 40, 100, 140, 190]  # position 5 before 4
        events = [e for e in climb_events(clips, samples_per_position=1) if e.position != 3]
        with pytest.raises(MissingClipError) as err:
            segment_climbs(by_position(columns(events)), LINE8, gap_s=120)
        assert (err.value.climb_id, err.value.position) == (0, 3)

    def test_equal_timestamps_keep_wire_order(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        # position 2's straggler shares its timestamp with position 3's clip
        straggler = ev(2, 25.0)
        events = [straggler] + climb_events(clips)
        record = segment_climbs(by_position(columns(events)), LINE8, gap_s=120)[0]
        assert record.clip_times[3] == 25.0
        assert rows(record.flagged) == rows(columns([straggler]))
        kept = EventColumns.concat([*record.windows.values(), record.flagged])
        assert sorted(rows(kept)) == sorted(rows(columns(events)))
        beyond = [ev(10, 5.0), ev(9, 5.0)]
        with pytest.raises(ValidationError, match="event from position 9 but"):
            segment_climbs(by_position(columns(events + beyond)), LINE8, gap_s=120)

    @pytest.mark.parametrize("position", [0, -3])
    def test_position_below_1_rejected(self, position):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        below = f"event from position {position} but positions start at 1"
        cases = [
            ([ev(position, 30.0), ev(9, 40.0)], below),
            ([ev(position, 30.0), ev(9, 20.0)], "event from position 9 but the line ends at ie=8"),
        ]
        for outside, message in cases:  # the first in wire order is named
            events = by_position(columns(climb_events(clips) + outside))
            with pytest.raises(ValidationError, match=message):
                segment_climbs(events, LINE8, gap_s=120)

    def test_late_events_flagged_not_dropped(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = climb_events(clips)
        # a straggler from position 2 well inside position 4's window
        straggler = ev(2, 50.0)
        records = segment_climbs(by_position(columns(events + [straggler])), LINE8, gap_s=120)
        rec = records[0]
        (row,) = rows(columns([straggler]))
        assert row in rows(rec.flagged)
        assert row not in rows(rec.windows[2])

    def test_partition_every_event_kept_once(self, small_sim, small_line):
        records = segment_climbs(small_sim.streams, small_line, gap_s=120)
        total = sum(
            len(w) for rec in records for w in rec.windows.values()
        ) + sum(len(rec.flagged) for rec in records)
        assert total == len(small_sim.all_events())

    def test_round_trip_reproduces_records(self, small_records, small_line):
        merged = EventColumns.concat(
            group for rec in small_records for group in (*rec.windows.values(), rec.flagged)
        )
        again = segment_climbs(by_position(merged), small_line, gap_s=120)
        assert len(again) == len(small_records)
        for a, b in zip(again, small_records):
            assert a.clip_times == b.clip_times
            assert {p: len(w) for p, w in a.windows.items()} == {
                p: len(w) for p, w in b.windows.items()
            }

    def test_simulated_clips_match_generator_truth(self, small_sim, small_line):
        records = segment_climbs(small_sim.streams, small_line, gap_s=120)
        assert len(records) == len(small_sim.truth)
        for rec, truth in zip(records, small_sim.truth):
            for position, t_true in truth.clip_times.items():
                assert rec.clip_times[position] == pytest.approx(t_true, abs=0.02)

    def test_empty_stream(self):
        assert segment_climbs({}, LINE8) == []

    def test_line_too_short_rejected(self):
        with pytest.raises(ConfigError):
            LineConfig(ie=4)


class TestColumns:
    def test_events_round_trip_through_columns(self, small_sim):
        # all_events holds every stream's events, in wire order
        events = small_sim.all_events()
        assert len(events) == sum(len(s) for s in small_sim.streams.values())
        assert events.counts.shape == (len(events), 3)
        assert (events.position.dtype, events.t.dtype, events.counts.dtype) == (np.int64, np.float64, np.int64)
        assert rows(events) == sorted(rows(events), key=lambda r: (float.fromhex(r[1]), r[0]))
        for position, stream in small_sim.streams.items():
            assert events[events.position == position] == stream

    def test_slices_are_views(self, small_sim):
        columns = small_sim.all_events()
        part = columns[10:20]
        assert isinstance(part, EventColumns) and len(part) == 10
        assert np.shares_memory(part.counts, columns.counts)
        assert part == columns[np.arange(10, 20)]

    def test_no_events(self):
        empty = EventColumns.empty()
        assert len(empty) == 0 and not empty
        assert empty.counts.shape == (0, 3)
        assert empty == EventColumns.concat([]) == ClimbRecord(0, {}, {}).flagged

    @pytest.mark.parametrize("line, field", [
        ("3\t1.000\t1180591620717411303424\t0\t0", "x 1180591620717411303424"),
        ("18446744073709551616\t1.000\t1\t2\t3", "position 18446744073709551616"),
    ], ids=["count", "position"])
    def test_value_beyond_int64_is_a_validation_error(self, line, field):
        # columns hold int64: the file is the one way in, and it refuses a wider value
        with pytest.raises(ValidationError, match=f"^malformed event lines: line 2: {field} does not fit in int64$"):
            parse_events(f"2\t0.500\t20\t0\t63\n{line}\n")


# ---------------------------------------------------------------------------
# parsing: the numpy parse against the per-line reference
# ---------------------------------------------------------------------------

def reference_parse_events(text, ie, warned):
    """The object parse ``parse_events`` replaced: ``_parse_line`` on each
    line, grouped by position in lists of ``SampleEvent``. Warnings go to
    ``warned``, in order."""
    by_pos, bad = {}, []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            position, t, (x, y, z) = ingest._parse_line(body)
        except ValueError as exc:
            bad.append(f"line {lineno}: {exc}")
            continue
        event = SampleEvent(position, t, x, y, z)
        by_pos.setdefault(event.position, []).append(event)
    if bad:
        shown = "; ".join(bad[:10])
        more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
        raise ValidationError(f"malformed event lines: {shown}{more}")
    if ie is not None:
        unknown = sorted(p for p in by_pos if p > ie)
        if unknown:
            raise ValidationError(f"events from positions {unknown} but the line ends at ie={ie}")
    for position, events in by_pos.items():
        times = [e.t for e in events]
        if any(b < a for a, b in zip(times, times[1:])):
            warned.append(f"position {position}: events out of order, re-sorting")
            events.sort(key=lambda e: e.t)
            times = [e.t for e in events]
        dup = next((b for a, b in zip(times, times[1:]) if a == b), None)
        if dup is not None:
            raise ValidationError(f"position {position}: duplicate event timestamp t={dup}")
    return dict(sorted(by_pos.items()))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def ingest_warnings():
    logger = logging.getLogger(ingest.__name__)
    handler = _Messages()
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def parse_outcome(text, ie):
    with ingest_warnings() as warned:
        try:
            groups = parse_events(text, ie=ie)
        except ValidationError as exc:
            return str(exc), warned
    return {p: rows(g) for p, g in groups.items()}, warned


def reference_outcome(text, ie):
    warned = []
    try:
        groups = reference_parse_events(text, ie, warned)
    except ValidationError as exc:
        return str(exc), warned
    return {p: rows(columns(g)) for p, g in groups.items()}, warned


INT64_EDGES = [-(2**63), 2**63 - 1]
BEYOND_INT64 = [2**63, -(2**63) - 1, 2**70]
COUNTS = st.one_of(st.integers(-127, 127), st.sampled_from(INT64_EDGES))
# a few positions and a coarse time grid, so duplicates and disorder happen
POSITIONS = st.integers(1, 4)
TIMES = st.integers(0, 400).map(lambda ms: ms / 100)


@st.composite
def wire_lines(draw):
    """A valid line as ``write_events`` prints it."""
    x, y, z = draw(COUNTS), draw(COUNTS), draw(COUNTS)
    return f"{draw(POSITIONS)}\t{draw(TIMES):.3f}\t{x}\t{y}\t{z}"


@st.composite
def float_lines(draw):
    """A valid line whose timestamp is any finite double, or a spelling
    ``float`` and numpy both read."""
    f = draw(st.floats(allow_nan=False, allow_infinity=False))
    stamp = draw(st.sampled_from([
        repr(f), f"{f:.17g}", f"{f:.3f}", "+3", " 3 ", ".5", "5.", "-0.0", "1E-5", "0003.250",
    ]))
    return f"{draw(POSITIONS)}\t{stamp}\t1\t2\t3"


def with_field(line, index, text):
    fields = line.split("\t")
    fields[index] = text
    return "\t".join(fields)


@st.composite
def odd_lines(draw):
    """Comments, blank and whitespace lines, non-finite stamps, wrong field
    counts, integers numpy does not read, and positions below 1."""
    base = draw(wire_lines())
    kind = draw(st.sampled_from(
        ["comment", "blank", "stamp", "fields", "integer", "position", "int_spelling"]
    ))
    if kind == "comment":
        return draw(st.sampled_from(["# header", "#\t1\t2", "  # indented", base + " # c", base + "#"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t", " \t ", "\t\t\t\t"]))
    if kind == "stamp":
        stamp = draw(st.sampled_from(
            ["nan", "inf", "-inf", "Infinity", "-NaN", "1e400", "-1e400", "nan(1)", "1_0.5", "٣.5", ""]
        ))
        return with_field(base, 1, stamp)
    if kind == "fields":
        fields = base.split("\t")
        return "\t".join(fields[:4] if draw(st.booleans()) else fields + ["7"])
    if kind == "integer":
        text = draw(st.sampled_from(["1_0", "٣", "３", "1.0", "1e2", ""] + [str(v) for v in BEYOND_INT64]))
        return with_field(base, draw(st.sampled_from([0, 2, 3, 4])), text)
    if kind == "position":
        return with_field(base, 0, draw(st.sampled_from(["0", "-1", "-0"])))
    return with_field(base, draw(st.sampled_from([0, 2, 3, 4])), draw(st.sampled_from(["+3", " 3 ", "007", "-0"])))


@st.composite
def event_texts(draw, lines):
    body = draw(st.lists(lines, max_size=25))
    if draw(st.booleans()):
        body = [line + "\r" for line in body]
    return "\n".join(body) + draw(st.sampled_from(["", "\n"]))


ANY_LINE = st.one_of(wire_lines(), float_lines(), odd_lines())
PARSE_EXAMPLES = settings(max_examples=300, deadline=None)


class TestParseEquivalence:
    @PARSE_EXAMPLES
    @given(event_texts(ANY_LINE), st.sampled_from([None, 3, 4]))
    def test_same_events_or_same_error_as_the_per_line_reference(self, text, ie):
        assert parse_outcome(text, ie) == reference_outcome(text, ie)

    @PARSE_EXAMPLES
    @given(event_texts(ANY_LINE))
    def test_numpy_parse_agrees_with_the_line_pass_wherever_it_answers(self, text):
        fast = ingest._parse_stream(io.StringIO(text))
        if fast is not None:
            assert rows(fast) == rows(ingest._parse_lines(io.StringIO(text)))

    @PARSE_EXAMPLES
    @given(event_texts(st.one_of(wire_lines(), float_lines())))
    def test_numpy_parse_answers_on_valid_wire_lines(self, text):
        fast = ingest._parse_stream(io.StringIO(text))
        assert fast is not None
        assert rows(fast) == rows(ingest._parse_lines(io.StringIO(text)))

    @pytest.mark.parametrize("value", BEYOND_INT64)
    def test_count_beyond_int64_is_a_malformed_line(self, value):
        text = f"1\t0.100\t1\t2\t3\n2\t0.200\t1\t{value}\t3\n"
        with pytest.raises(ValidationError) as err:
            parse_events(text)
        assert str(err.value) == f"malformed event lines: line 2: y {value} does not fit in int64"

    def test_open_file_parsed_from_where_it_stands(self, tmp_path):
        path = tmp_path / "crlf.events"
        path.write_bytes(b"# c\r\n1\t0.100\t1\t2\t3\r\n2\t0.200\t1\t2\t3\r\n")
        with open(path, encoding="utf-8") as fh:
            assert {p: rows(g) for p, g in parse_events(fh).items()} == {
                1: rows(columns([SampleEvent(1, 0.1, 1, 2, 3)])),
                2: rows(columns([SampleEvent(2, 0.2, 1, 2, 3)])),
            }
        path.write_bytes(b"# c\n1\t0.100\t1\t2\t3\n1\t0.2\tx\t2\t3\n")
        with open(path, encoding="utf-8") as fh:
            with pytest.raises(ValidationError, match="lines: line 3: invalid literal"):
                parse_events(fh)
        with open(path, encoding="utf-8") as fh:
            next(fh)  # an iterated text file cannot tell where it stands
            with pytest.raises(ValidationError, match="lines: line 2: invalid literal"):
                parse_events(fh)

    def test_lines_without_newlines_parsed(self):
        lines = ["1\t0.100\t1\t2\t3", "# c", "1\t0.050\t4\t5\t6"]
        parsed = parse_events(lines)
        assert rows(parsed[1]) == rows(columns([SampleEvent(1, 0.05, 4, 5, 6), SampleEvent(1, 0.1, 1, 2, 3)]))

    def test_generator_with_a_malformed_line_is_read_once(self):
        # the reference pass must number the lines of what numpy's parser read
        lines = ["# c\n", "1\t0.100\t1\t2\t3\n", "1\t0.2\tx\t2\t3\n", "2\t0.300\t1\t2\t3\n"]
        with pytest.raises(ValidationError, match="^malformed event lines: line 3: invalid literal"):
            parse_events(line for line in lines)

    def test_generator_of_valid_lines_parsed_as_the_text(self, small_sim):
        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        text = buf.getvalue()
        assert parse_events(line for line in text.splitlines(keepends=True)) == parse_events(text)


@st.composite
def wire_columns(draw):
    """Events at positions 1..8 on a millisecond grid coarse enough that
    times tie across positions, one per (position, time), counts within
    +/-127, in any order."""
    keys = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 60)), unique=True, max_size=40))
    day = draw(st.sampled_from([0, 86_400_000]))  # milliseconds
    counts = draw(st.lists(
        st.tuples(*[st.integers(-127, 127)] * 3), min_size=len(keys), max_size=len(keys)
    ))
    return EventColumns(
        np.array([p for p, _ in keys], dtype=np.int64),
        np.array([(day + ms) / 1000 for _, ms in keys]),
        np.array(counts, dtype=np.int64).reshape(len(keys), 3),
    )


def wire_text(events):
    buf = io.StringIO()
    write_events(buf, events)
    return buf.getvalue()


class TestWireRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(wire_columns(), st.data())
    def test_parse_gives_back_each_position_in_time_order(self, events, data):
        text = wire_text(events)
        with ingest_warnings() as warned:
            parsed = parse_events(text)
        assert warned == []  # written in wire order: nothing to re-sort
        expected = {}
        for p in set(events.position.tolist()):
            mine = events[events.position == p]
            expected[p] = rows(mine[np.argsort(mine.t)])
        assert {p: rows(g) for p, g in parsed.items()} == expected
        order = data.draw(st.permutations(range(len(events))), label="permutation")
        assert wire_text(events[np.array(order, dtype=np.intp)]) == text


# ---------------------------------------------------------------------------
# segmentation: the column code against the object code, under faults
# ---------------------------------------------------------------------------

def reference_segment(streams, line, gap_s=ingest.DEFAULT_GAP_S):
    """The object segmentation ``segment_climbs`` replaced, on the events
    of ``streams`` as ``SampleEvent`` objects; windows come back as columns."""
    if gap_s <= 0:
        raise ConfigError("gap_s must be positive")
    flat = [e for group in streams.values() for e in objects(group)]
    flat.sort(key=lambda e: (e.t, e.position))  # the wire order
    for e in flat:
        if e.position > line.ie:
            raise ValidationError(
                f"event from position {e.position} but the line ends at ie={line.ie}"
            )
    if not flat:
        return []

    blocks = [[flat[0]]]
    for prev, cur in zip(flat, flat[1:]):
        if cur.t - prev.t >= gap_s:
            blocks.append([cur])
        else:
            blocks[-1].append(cur)

    records = []
    for climb_id, block in enumerate(blocks):
        by_pos = {}
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
        windows, flagged = {}, []
        for idx, p in enumerate(present):
            cutoff = clips[present[idx + 1]] if idx + 1 < len(present) else None
            windows[p] = columns(e for e in by_pos[p] if cutoff is None or e.t < cutoff)
            flagged.extend(e for e in by_pos[p] if cutoff is not None and e.t >= cutoff)
        records.append(ClimbRecord(climb_id, clips, windows, columns(flagged)))
    return records


def segment_outcome(segment, streams, line):
    try:
        records = segment(streams, line, 120.0)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [
        (
            r.climb_id,
            [(p, t.hex()) for p, t in r.clip_times.items()],
            [(p, rows(w)) for p, w in r.windows.items()],
            rows(r.flagged),
        )
        for r in records
    ]


FAULTS = ["drop_first", "dead_sensor", "clock_shift", "duplicate_batch", "reorder_batch", "straggler"]


def inject(sim, line, data):
    """``sim``'s events with one fault in one climb at one position."""
    events = objects(sim.all_events())
    climbs = reference_segment(sim.streams, line, 120.0)
    climb = climbs[data.draw(st.integers(0, len(climbs) - 1), label="climb")]
    position = data.draw(st.integers(1, line.ie), label="position")
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    mine = set(climb.windows[position].t.tolist())  # a position's timestamps are distinct
    at = [i for i, e in enumerate(events) if e.position == position and e.t in mine]
    if fault == "drop_first":
        del events[at[0]]
    elif fault == "dead_sensor":
        dead = set(at)
        events = [e for i, e in enumerate(events) if i not in dead]
    elif fault == "clock_shift":
        shift = data.draw(st.sampled_from([-200.0, -30.0, -2.5, -0.5, 0.5, 2.5, 30.0, 200.0]))
        for i in at:
            e = events[i]
            events[i] = SampleEvent(e.position, e.t + shift, *e.counts)
    elif fault in ("duplicate_batch", "reorder_batch"):
        start = data.draw(st.integers(0, len(at) - 1))
        batch = at[start : start + data.draw(st.integers(1, 4))]
        if fault == "duplicate_batch":
            events[batch[-1] + 1 : batch[-1] + 1] = [events[i] for i in batch]
        else:
            picked = [events[i] for i in batch]
            for i, e in zip(batch, reversed(picked)):
                events[i] = e
    else:
        end = max(w.t.max() for w in climb.windows.values())
        t = data.draw(st.one_of(
            st.sampled_from(list(climb.clip_times.values())),  # exactly at a clip
            st.floats(climb.clip_times[position], end + 150.0),
        ))
        events.append(SampleEvent(position, t, 20, -3, 63))
    return by_position(columns(events))


class TestSegmentFaults:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_records_or_same_error_as_the_object_reference(self, small_sim, small_line, data):
        events = inject(small_sim, small_line, data)
        assert segment_outcome(segment_climbs, events, small_line) == segment_outcome(
            reference_segment, events, small_line
        )

    def test_clean_simulation_matches_the_object_reference(self, small_sim, small_line):
        assert segment_outcome(segment_climbs, small_sim.streams, small_line) == segment_outcome(
            reference_segment, small_sim.streams, small_line
        )

    def test_parsed_stream_matches_the_object_reference(self, small_sim, small_line):
        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        parsed = parse_events(buf.getvalue(), ie=small_line.ie)
        assert segment_outcome(segment_climbs, parsed, small_line) == segment_outcome(
            reference_segment, parsed, small_line
        )
