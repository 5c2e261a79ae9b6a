"""Event file parsing and climb segmentation."""

import io
import logging

import pytest

from quickroutes.errors import MissingClipError, ValidationError
from quickroutes.ingest import (
    ClimbRecord,
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


class TestParse:
    def test_empty_input(self):
        assert parse_events("") == {}

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1\t0.100\t10\t-5\t63\n  # another\n"
        events = parse_events(text)
        assert events == {1: [SampleEvent(1, 0.1, 10, -5, 63)]}

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
        assert [e.t for e in events[1]] == [1.0, 2.0]
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
            assert [e.counts for e in parsed[position]] == [e.counts for e in stream]
            assert parsed[position] == [
                SampleEvent(e.position, round(e.t, 3), *e.counts) for e in stream
            ]

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
        records = segment_climbs(climb_events(clips), LINE8, gap_s=120)
        assert len(records) == 1
        rec = records[0]
        assert rec.clip_times == {i + 1: float(c) for i, c in enumerate(clips)}
        for position in range(1, 8):
            cutoff = clips[position]  # next position's clip
            assert all(e.t < cutoff for e in rec.windows[position])
        assert all(e.t >= 190 for e in rec.windows[8])
        assert rec.flagged == []

    def test_two_climbs_split_on_silence(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        first = climb_events(clips)
        second = [
            SampleEvent(e.position, e.t + 800.0, *e.counts) for e in first
        ]
        records = segment_climbs(first + second, LINE8, gap_s=120)
        assert len(records) == 2
        assert records[0].climb_id == 0
        assert records[1].clip_times[1] == 800.0

    def test_gap_not_reached_keeps_one_climb(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = climb_events(clips)
        records = segment_climbs(events, LINE8, gap_s=300)
        assert len(records) == 1

    def test_missing_interior_position_named(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = [e for e in climb_events(clips) if e.position != 3]
        with pytest.raises(MissingClipError) as err:
            segment_climbs(events, LINE8, gap_s=120)
        assert err.value.position == 3

    def test_missing_first_and_last_positions_tolerated(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = [e for e in climb_events(clips) if e.position not in (1, 8)]
        records = segment_climbs(events, LINE8, gap_s=120)
        assert sorted(records[0].windows) == [2, 3, 4, 5, 6, 7]

    def test_clip_misorder_rejected(self):
        clips = [0, 30, 25, 45, 70, 100, 140, 190]  # position 3 before 2
        with pytest.raises(ValidationError) as err:
            segment_climbs(climb_events(clips, samples_per_position=1), LINE8, gap_s=120)
        assert "position 3" in str(err.value)

    def test_late_events_flagged_not_dropped(self):
        clips = [0, 10, 25, 45, 70, 100, 140, 190]
        events = climb_events(clips)
        # a straggler from position 2 well inside position 4's window
        straggler = ev(2, 50.0)
        records = segment_climbs(events + [straggler], LINE8, gap_s=120)
        rec = records[0]
        assert straggler in rec.flagged
        assert straggler not in rec.windows[2]

    def test_partition_every_event_kept_once(self, small_sim, small_line):
        records = segment_climbs(small_sim.streams, small_line, gap_s=120)
        total = sum(
            len(w) for rec in records for w in rec.windows.values()
        ) + sum(len(rec.flagged) for rec in records)
        assert total == len(small_sim.all_events())

    def test_round_trip_reproduces_records(self, small_records, small_line):
        merged = [e for rec in small_records for e in rec.all_events()]
        again = segment_climbs(merged, small_line, gap_s=120)
        assert len(again) == len(small_records)
        for a, b in zip(again, small_records):
            assert a.clip_times == b.clip_times
            assert a.n_samples == b.n_samples

    def test_simulated_clips_match_generator_truth(self, small_sim, small_line):
        records = segment_climbs(small_sim.streams, small_line, gap_s=120)
        assert len(records) == len(small_sim.truth)
        for rec, truth in zip(records, small_sim.truth):
            for position, t_true in truth.clip_times.items():
                assert rec.clip_times[position] == pytest.approx(t_true, abs=0.02)

    def test_empty_stream(self):
        assert segment_climbs([], LINE8) == []

    def test_line_too_short_rejected(self):
        from quickroutes.errors import ConfigError

        with pytest.raises(ConfigError):
            LineConfig(ie=4)
