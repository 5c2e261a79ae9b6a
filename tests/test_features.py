"""Feature extraction against hand arithmetic and naive re-implementations.

The oracle functions below deliberately avoid numpy and share no code
with the package: plain loops and textbook formulas, so agreement is
meaningful. The kernels are the package's only implementation; the
one-series helpers here (``stat_row``, ``count_peaks``,
``cross_correlations``, ``temporal_row``, ``assemble``) call them on
one-row inputs. The kernels are held to a stricter standard at the end:
bit for bit the per-series numpy code they replaced, kept here as the
``reference_*`` functions.
"""

import io
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickroutes import features
from quickroutes.errors import MissingClipError, ValidationError
from quickroutes.features import (
    STAT_NAMES,
    FeatureMatrix,
    axis_sets,
    build_feature_matrix,
    feature_names,
    stat_features,
)
from conftest import columns
from quickroutes.ingest import ClimbRecord, EventColumns, LineConfig, segment_climbs
from quickroutes.sensor import SampleEvent, SensorConfig

# ---------------------------------------------------------------------------
# naive oracles
# ---------------------------------------------------------------------------

def naive_mean(xs):
    return sum(xs) / len(xs)


def naive_var(xs):
    m = naive_mean(xs)
    return sum((v - m) ** 2 for v in xs) / len(xs)


def naive_rms(xs):
    return math.sqrt(sum(v * v for v in xs) / len(xs))


def naive_percentile(xs, p):
    s = sorted(xs)
    if len(s) == 1:
        return s[0]
    h = (len(s) - 1) * p / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    if lo == hi:
        return s[lo]
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def naive_skew(xs):
    m = naive_mean(xs)
    v = naive_var(xs)
    if v == 0:
        return 0.0
    return (sum((x - m) ** 3 for x in xs) / len(xs)) / v ** 1.5


def naive_kurtosis(xs):
    m = naive_mean(xs)
    v = naive_var(xs)
    if v == 0:
        return 0.0
    return (sum((x - m) ** 4 for x in xs) / len(xs)) / v ** 2 - 3.0


def naive_peaks(xs, prominence):
    count = 0
    for k in range(1, len(xs) - 1):
        if not (xs[k - 1] < xs[k] > xs[k + 1]):
            continue
        left = xs[k]
        for j in range(k - 1, -1, -1):
            if xs[j] >= xs[k]:
                break
            left = min(left, xs[j])
        right = xs[k]
        for j in range(k + 1, len(xs)):
            if xs[j] >= xs[k]:
                break
            right = min(right, xs[j])
        if xs[k] - max(left, right) >= prominence:
            count += 1
    return count


def naive_pearson(a, b):
    n = len(a)
    ma, mb = naive_mean(a), naive_mean(b)
    num = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    da = math.sqrt(sum((x - ma) ** 2 for x in a))
    db = math.sqrt(sum((y - mb) ** 2 for y in b))
    if da == 0 or db == 0:
        return 0.0
    return num / (da * db)


def naive_all_stats(xs, prominence):
    return {
        "mean": naive_mean(xs),
        "min": min(xs),
        "max": max(xs),
        "variance": naive_var(xs),
        "std": math.sqrt(naive_var(xs)),
        "rms": naive_rms(xs),
        "p5": naive_percentile(xs, 5),
        "p25": naive_percentile(xs, 25),
        "p75": naive_percentile(xs, 75),
        "p95": naive_percentile(xs, 95),
        "kurtosis": naive_kurtosis(xs),
        "skew": naive_skew(xs),
        "n_peaks": float(naive_peaks(xs, prominence)),
    }


def close(a, b, rel=1e-9, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# ---------------------------------------------------------------------------
# one-row calls of the kernels
# ---------------------------------------------------------------------------

# the prominence floor the program uses: twice the quantizer resolution
PROMINENCE = 2 * SensorConfig().resolution_g


def stat_row(series, peak_prominence=PROMINENCE):
    """The 13 named statistics of one series: row 0 of ``stat_features``."""
    row = stat_features(np.asarray(series, dtype=float).reshape(1, -1), peak_prominence)[0]
    return dict(zip(STAT_NAMES, row.tolist()))


def count_peaks(series, min_prominence=0.0):
    """Peaks of one series, through ``_peak_counts``."""
    row = np.asarray(series, dtype=float).reshape(1, -1)
    return int(features._peak_counts(row, min_prominence)[0])


def cross_correlations(x, y, z):
    """(r_xy, r_xz, r_yz) of one window, through ``_cross_rows``."""
    rows = (np.asarray(v, dtype=float).reshape(1, -1) for v in (x, y, z))
    return tuple(features._cross_rows(*rows)[0].tolist())


def temporal_row(clip_times, ie):
    """(short, long, duration, short_stats) of one climb, through
    ``_temporal_rows``."""
    clips = np.array([[clip_times[p] for p in range(2, ie)]], dtype=float)
    row = features._temporal_rows(clips)[0].tolist()
    short, rest = row[: ie - 3], row[ie - 3:]
    long, (duration, *stats) = rest[: ie - 5], rest[ie - 5:]
    return tuple(short), tuple(long), duration, dict(zip(("min", "max", "mean", "std"), stats))


def assemble(record, line, cfg=None):
    """The feature matrix of one climb: its row 0 is the climb's vector."""
    return build_feature_matrix([record], line, cfg)


# ---------------------------------------------------------------------------
# magnitude and statistics
# ---------------------------------------------------------------------------

class TestMagnitude:
    """The g series of ``axis_sets``, at one g per count."""

    @staticmethod
    def g_of(x, y, z):
        cfg = SensorConfig(full_scale_g=127.0)  # max_counts 127
        return axis_sets(np.array([[x, y, z]], dtype=np.int64), cfg)[3, 0]

    def test_pythagorean_triple(self):
        assert self.g_of(3, 4, 0) == 5.0

    def test_zero(self):
        assert self.g_of(0, 0, 0) == 0.0

    def test_unit_diagonal(self):
        assert self.g_of(1, 1, 1) == pytest.approx(math.sqrt(3))


class TestStatFeatures:
    def test_hand_arithmetic_1_2_3(self):
        stats = stat_row([1, 2, 3])
        assert stats["mean"] == 2
        assert stats["min"] == 1
        assert stats["max"] == 3
        # population convention: rms^2 = variance + mean^2 holds exactly
        assert stats["variance"] == pytest.approx(2 / 3)
        assert stats["std"] == pytest.approx(math.sqrt(2 / 3))
        assert stats["rms"] == pytest.approx(math.sqrt(14 / 3))
        assert stats["p25"] == pytest.approx(1.5)
        assert stats["p75"] == pytest.approx(2.5)

    def test_constant_series_degenerate_conventions(self):
        stats = stat_row([5, 5, 5, 5])
        assert stats["variance"] == 0
        assert stats["std"] == 0
        assert stats["skew"] == 0
        assert stats["kurtosis"] == 0
        assert stats["n_peaks"] == 0
        assert stats["p5"] == stats["p95"] == 5

    def test_all_13_statistics_present_in_order(self):
        stats = stat_row([1.0, 2.0])
        assert tuple(stats) == STAT_NAMES
        assert len(STAT_NAMES) == 13

    def test_dual_implementation_oracle_50_series(self):
        rng = random.Random(1234)
        for trial in range(50):
            n = rng.randint(5, 200)
            xs = [rng.gauss(0, 1) + 0.5 * math.sin(k / 3) for k in range(n)]
            prominence = 0.03
            ours = stat_row(xs, peak_prominence=prominence)
            naive = naive_all_stats(xs, prominence)
            for name in STAT_NAMES:
                assert close(ours[name], naive[name]), (trial, name)

    def test_rms_identity_against_population_variance(self):
        rng = random.Random(9)
        for _ in range(20):
            xs = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 60))]
            stats = stat_row(xs)
            assert close(stats["rms"] ** 2, stats["variance"] + stats["mean"] ** 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1
        )
    )
    def test_percentile_monotonicity(self, xs):
        stats = stat_row(xs)
        assert stats["min"] <= stats["p5"] <= stats["p25"]
        assert stats["p25"] <= stats["p75"] <= stats["p95"] <= stats["max"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=3,
            max_size=40,
        ),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scale_equivariance(self, xs, s):
        # keep constant series (the degenerate convention must survive
        # scaling) but skip the 1-ulp cancellation band where float
        # rounding, not the math, decides the higher moments
        spread = max(xs) - min(xs)
        assume(spread == 0 or spread > 1e-6 * max(1.0, *(abs(v) for v in xs)))
        prom = 0.05
        base = stat_row(xs, peak_prominence=prom)
        scaled = stat_row([s * v for v in xs], peak_prominence=prom * s)
        for name in ("mean", "min", "max", "std", "rms", "p5", "p25", "p75", "p95"):
            assert close(scaled[name], s * base[name], rel=1e-7, abs_=1e-7)
        assert close(scaled["variance"], s * s * base["variance"], rel=1e-7, abs_=1e-7)
        assert close(scaled["skew"], base["skew"], rel=1e-6, abs_=1e-6)
        assert close(scaled["kurtosis"], base["kurtosis"], rel=1e-6, abs_=1e-6)
        assert scaled["n_peaks"] == base["n_peaks"]


class TestPeaks:
    def test_single_peak(self):
        assert count_peaks([0, 1, 0]) == 1

    def test_plateau_is_not_strict(self):
        assert count_peaks([0, 1, 1, 0]) == 0

    def test_prominence_filters_chatter(self):
        series = [0, 0.01, 0, 0.01, 0, 1.0, 0]
        assert count_peaks(series, 0.1) == 1
        assert count_peaks(series, 0.0) == 3

    def test_prominence_uses_highest_base(self):
        # second peak rises only 0.3 above the saddle at 0.6
        series = [0.0, 1.0, 0.6, 0.9, 0.0]
        assert count_peaks(series, 0.25) == 2
        assert count_peaks(series, 0.35) == 1


class TestCrossCorrelations:
    def test_perfect_positive(self):
        r_xy, _, _ = cross_correlations([1, 2, 3], [2, 4, 6], [1, 1, 2])
        assert r_xy == pytest.approx(1.0)

    def test_perfect_negative(self):
        r_xy, _, _ = cross_correlations([1, 2, 3], [3, 2, 1], [1, 1, 2])
        assert r_xy == pytest.approx(-1.0)

    def test_zero_variance_convention(self):
        r_xy, r_xz, r_yz = cross_correlations([1, 2, 3], [5, 5, 5], [1, 3, 2])
        assert r_xy == 0.0
        assert r_yz == 0.0
        assert -1 <= r_xz <= 1

    def test_oracle_agreement(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(2, 80)
            x = [rng.gauss(0, 2) for _ in range(n)]
            y = [v * 0.5 + rng.gauss(0, 1) for v in x]
            z = [rng.gauss(0, 1) for _ in range(n)]
            ours = cross_correlations(x, y, z)
            naive = (naive_pearson(x, y), naive_pearson(x, z), naive_pearson(y, z))
            for a, b in zip(ours, naive):
                assert close(a, b)


# ---------------------------------------------------------------------------
# temporal features
# ---------------------------------------------------------------------------

CLIPS8 = {i + 1: float(t) for i, t in enumerate([0, 10, 25, 45, 70, 100, 140, 190])}


class TestTemporal:
    def test_worked_example_ie8(self):
        short, long, duration, stats = temporal_row(CLIPS8, ie=8)
        assert short == (15.0, 20.0, 25.0, 30.0, 40.0)
        assert long == (35.0, 60.0, 90.0)
        assert duration == 130.0
        assert stats["mean"] == pytest.approx(26.0)
        assert stats["min"] == 15.0
        assert stats["max"] == 40.0
        assert stats["std"] == pytest.approx(math.sqrt(74))
        assert feature_names(8)[-13:-5] == (
            "t.dts.p2_p3", "t.dts.p3_p4", "t.dts.p4_p5", "t.dts.p5_p6", "t.dts.p6_p7",
            "t.dtl.p2_p4", "t.dtl.p2_p5", "t.dtl.p2_p6",
        )

    def test_smallest_admissible_line(self):
        # i runs 2..ie-2 inclusive, so ie=5 keeps pairs (2,3) and (3,4);
        # the long-segment set is empty and the duration is t4 - t2
        clips = {1: 0.0, 2: 5.0, 3: 11.0, 4: 18.0, 5: 30.0}
        short, long, duration, _ = temporal_row(clips, ie=5)
        assert short == (6.0, 7.0)
        assert long == ()
        assert duration == 13.0

    def test_missing_clip_named(self):
        # the climb's windows are all there; its clip at position 4 is not
        record = short_record(0, {}, ie=8)
        del record.clip_times[4]
        with pytest.raises(MissingClipError) as err:
            build_feature_matrix([record], LineConfig(ie=8))
        assert (err.value.climb_id, err.value.position) == (0, 4)

    def test_chaining_is_exact_on_integer_clips(self):
        short, long, _, _ = temporal_row(CLIPS8, ie=8)
        # the long delta to position j chains the short deltas of pairs (i, i+1), i < j
        for target, long_delta in zip(range(4, 7), long):
            assert sum(short[: target - 2]) == long_delta

    def test_all_deltas_positive(self, small_records):
        for rec in small_records:
            short, long, duration, _ = temporal_row(rec.clip_times, ie=8)
            assert all(d > 0 for d in short)
            assert all(d > 0 for d in long)
            assert duration > 0

    def test_simulated_deltas_match_generator_truth(self, small_sim, small_records):
        for rec, truth in zip(small_records, small_sim.truth):
            ours = temporal_row(rec.clip_times, ie=8)
            reference = temporal_row(truth.clip_times, ie=8)
            for a, b in zip(ours[0], reference[0]):
                assert a == pytest.approx(b, abs=0.02)
            assert ours[2] == pytest.approx(reference[2], abs=0.02)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class TestAssemble:
    def test_vector_length_343_for_ie8(self, small_records, small_line):
        vec = assemble(small_records[0], small_line)
        assert len(vec.names) == 6 * 55 + (5 + 3 + 1 + 4) == 343
        assert vec.values.shape == (1, 343)

    def test_first_and_last_positions_excluded(self, small_line):
        names = feature_names(small_line.ie)
        assert not any(n.startswith("p1.") for n in names)
        assert not any(n.startswith("p8.") for n in names)
        assert any(n.startswith("p2.") for n in names)
        assert any(n.startswith("p7.") for n in names)

    def test_names_injective_and_deterministic(self, small_line):
        names = feature_names(small_line.ie)
        assert len(set(names)) == len(names)
        assert names == feature_names(small_line.ie)

    def test_identical_streams_identical_vectors(self, small_records, small_line):
        a = assemble(small_records[0], small_line)
        b = assemble(small_records[0], small_line)
        assert a.names == b.names
        assert (a.values == b.values).all()

    def test_event_order_does_not_matter(self, small_sim, small_line):
        import io

        from quickroutes.ingest import parse_events, write_events

        buf = io.StringIO()
        write_events(buf, small_sim.all_events())
        lines = buf.getvalue().strip().splitlines()
        shuffled = list(reversed(lines))
        records_a = segment_climbs(parse_events("\n".join(lines)), small_line)
        records_b = segment_climbs(parse_events("\n".join(shuffled)), small_line)
        va = assemble(records_a[0], small_line)
        vb = assemble(records_b[0], small_line)
        assert (va.values == vb.values).all()

    def test_norm_domination(self, small_records, small_line):
        vec = assemble(small_records[0], small_line)
        by_name = dict(zip(vec.names, vec.values[0]))
        for position in range(2, small_line.ie):
            g_max = by_name[f"p{position}.g.max"]
            for axis in ("x", "y", "z"):
                assert g_max >= abs(by_name[f"p{position}.{axis}.max"]) - 1e-12


class TestSelect:
    NAMES = ("a", "b", "c", "b", "d")
    VALUES = np.arange(15.0).reshape(3, 5)

    def matrix(self):
        return FeatureMatrix(self.NAMES, self.VALUES, climb_ids=(7, 8, 9), labels=("x", "y", "x"))

    @pytest.mark.parametrize("names", [
        ("d", "a"), ("c",), ("a", "a", "c"), ("b", "d", "b"), (), ("a", "b", "c", "d"),
    ])
    def test_columns_of_the_first_name_in_the_given_order(self, names):
        picked = self.matrix().select(names)
        want = [self.NAMES.index(n) for n in names]
        assert picked.names == tuple(names)
        assert same_bits(picked.values, self.VALUES[:, want])
        assert picked.values.shape == (3, len(names))
        assert (picked.climb_ids, picked.labels) == ((7, 8, 9), ("x", "y", "x"))

    def test_select_takes_a_list_or_a_generator(self):
        m = self.matrix()
        assert m.select(["c", "a"]).names == ("c", "a")
        from_generator = m.select(n for n in "ca")
        assert from_generator.names == ("c", "a")
        assert same_bits(from_generator.values, m.select(("c", "a")).values)

    @pytest.mark.parametrize("names", [("e",), ("a", "B"), ("a", "")])
    def test_unknown_name_raises_validation_error(self, names):
        with pytest.raises(ValidationError, match=repr(names[-1])):
            self.matrix().select(names)

    def test_column_index_keeps_the_first_of_a_repeated_name(self):
        assert features.column_index(self.NAMES) == {"a": 0, "b": 1, "c": 2, "d": 4}


# ---------------------------------------------------------------------------
# batched kernels against the per-series reference, bit for bit
# ---------------------------------------------------------------------------

def reference_count_peaks(series, min_prominence=0.0):
    s = np.asarray(series, dtype=float)
    n = s.size
    count = 0
    for k in range(1, n - 1):
        if not (s[k - 1] < s[k] > s[k + 1]):
            continue
        left_min = s[k]
        j = k - 1
        while j >= 0 and s[j] < s[k]:
            left_min = min(left_min, s[j])
            j -= 1
        right_min = s[k]
        j = k + 1
        while j < n and s[j] < s[k]:
            right_min = min(right_min, s[j])
            j += 1
        if s[k] - max(left_min, right_min) >= min_prominence:
            count += 1
    return count


def reference_stat_features(series, peak_prominence):
    x = np.asarray(series, dtype=float)
    mean = float(x.mean())
    constant = bool(x.max() == x.min())
    var = 0.0 if constant else float(x.var())
    std = float(np.sqrt(var))
    rms = float(np.sqrt(np.mean(x * x)))
    p5, p25, p75, p95 = (float(v) for v in np.percentile(x, [5, 25, 75, 95]))
    if var == 0.0:
        skew = 0.0
        kurt = 0.0
    else:
        z = (x - mean) / std
        skew = float(np.mean(z**3))
        kurt = float(np.mean(z**4)) - 3.0
    return {
        "mean": mean, "min": float(x.min()), "max": float(x.max()),
        "variance": var, "std": std, "rms": rms,
        "p5": p5, "p25": p25, "p75": p75, "p95": p95,
        "kurtosis": kurt, "skew": skew,
        "n_peaks": float(reference_count_peaks(x, peak_prominence)),
    }


def reference_pearson(a, b):
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        return 0.0
    return float((da * db).sum() / denom)


def reference_cross_correlations(x, y, z):
    ax, ay, az = (np.asarray(v, dtype=float) for v in (x, y, z))
    return (reference_pearson(ax, ay), reference_pearson(ax, az), reference_pearson(ay, az))


def reference_temporal(clip_times, ie):
    """The per-climb temporal block: short deltas, long deltas, duration,
    then min, max, mean and std of the short deltas."""
    short = [clip_times[i + 1] - clip_times[i] for i in range(2, ie - 1)]
    long = [clip_times[j] - clip_times[2] for j in range(4, ie - 1)]
    duration = clip_times[ie - 1] - clip_times[2]
    s = np.asarray(short)
    stats = [float(s.min()), float(s.max()), float(s.mean()), float(s.std())]
    return [*short, *long, duration, *stats]


def reference_assemble(climb, line, cfg):
    """The per-climb, per-series vector the batched matrix must reproduce."""
    prominence = 2 * cfg.resolution_g
    values = []
    for position in range(2, line.ie):
        window = climb.windows[position]
        # each count times full_scale_g / max_counts, one Python float at a time
        x, y, z = (
            np.array([c * cfg.full_scale_g / cfg.max_counts for c in axis])
            for axis in window.counts.T.tolist()
        )
        g = np.sqrt(x * x + y * y + z * z)
        for series in (x, y, z, g):
            stats = reference_stat_features(series, prominence)
            values.extend(stats[name] for name in STAT_NAMES)
        values.extend(reference_cross_correlations(x, y, z))
    values.extend(reference_temporal(climb.clip_times, line.ie))
    return np.asarray(values, dtype=float)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


KERNEL_EXAMPLES = settings(max_examples=80, deadline=None)
LENGTHS = st.one_of(st.sampled_from([1, 2, 3, 7, 8, 9, 128, 129]), st.integers(1, 300))
PROMINENCES = st.sampled_from([0.0, PROMINENCE, 0.5])


@st.composite
def series_blocks(draw, min_length=1):
    """(m, L) blocks: wide-scale noise, quantized count grids (ties and
    plateaus), constant rows, or rows at 1e8 +/- 1e-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = max(min_length, draw(LENGTHS))
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["noise", "grid", "coarse_grid", "constant", "near_1e8"]))
    if kind == "noise":
        return rng.standard_normal((m, n)) * 10.0 ** draw(st.integers(-6, 6))
    if kind in ("grid", "coarse_grid"):
        top = 127 if kind == "grid" else 2
        return rng.integers(-top, top + 1, size=(m, n)) * 2.0 / 127
    if kind == "constant":
        return np.repeat(rng.standard_normal((m, 1)), n, axis=1)
    return 1e8 + rng.choice([-1e-6, 0.0, 1e-6], size=(m, n))


class TestStatKernel:
    @KERNEL_EXAMPLES
    @given(series_blocks(), PROMINENCES)
    def test_rows_match_reference(self, S, prominence):
        ours = stat_features(S, prominence)
        assert ours.shape == (len(S), len(STAT_NAMES))
        for row, series in zip(ours, S):
            ref = reference_stat_features(series, prominence)
            assert same_bits(row, [ref[name] for name in STAT_NAMES])
        assert same_bits(stat_features(np.asfortranarray(S), prominence), ours)

    @KERNEL_EXAMPLES
    @given(series_blocks(), PROMINENCES)
    def test_stat_features_on_a_strided_view(self, S, prominence):
        strided = np.asfortranarray(S)[:1]  # a row of an F-ordered block
        ours = dict(zip(STAT_NAMES, stat_features(strided, prominence)[0].tolist()))
        ref = reference_stat_features(strided[0], prominence)
        assert same_bits([ours[n] for n in STAT_NAMES], [ref[n] for n in STAT_NAMES])

    @KERNEL_EXAMPLES
    @given(series_blocks(), PROMINENCES)
    def test_peak_counts_match_reference(self, S, prominence):
        for series in S:
            assert count_peaks(series, prominence) == reference_count_peaks(series, prominence)

    def test_empty_series_has_no_peaks(self):
        assert count_peaks([]) == 0

    def test_long_up_then_down_window_is_fast(self):
        # one strict peak that walks 1,000 samples each way: the walk must
        # not cost a numpy call per sample
        up = np.repeat(np.arange(-127, 127), 4)[:1000]
        counts = np.concatenate([up, [127], up[::-1]])
        window = [SampleEvent(3, 0.01 * i, int(c), int(-c), 60) for i, c in enumerate(counts)]
        record = short_record(0, {3: window})
        started = time.perf_counter()
        matrix = build_feature_matrix([record], LineConfig(ie=5))
        assert time.perf_counter() - started < 1.0
        assert matrix.values[0, matrix.names.index("p3.x.n_peaks")] == 1.0
        assert same_bits(matrix.values[0], reference_assemble(record, LineConfig(ie=5), SensorConfig()))


class TestCrossKernel:
    @KERNEL_EXAMPLES
    @given(series_blocks(min_length=2), st.data())
    def test_rows_match_reference(self, X, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Y = X[:, rng.permutation(X.shape[1])]
        Z = rng.standard_normal(X.shape)
        Z[rng.random(len(X)) < 0.3] = 1.0  # constant rows: r = 0
        ours = features._cross_rows(X, np.asfortranarray(Y), Z)
        for row, x, y, z in zip(ours, X, Y, Z):
            assert same_bits(row, reference_cross_correlations(x, y, z))
            assert same_bits(cross_correlations(x, y, z), row)  # a one-row block


def short_record(climb_id, windows, ie=5, label=None):
    """A climb on an ie-position line; positions missing from ``windows``
    get a 3-sample window of their own."""
    full = {}
    for position in range(2, ie):
        full[position] = columns(windows.get(
            position,
            [SampleEvent(position, position + 0.1 * i, 10 * i, -5 * i, 60 - i) for i in range(3)],
        ))
    clips = {p: float(10 * p) for p in range(1, ie + 1)}
    return ClimbRecord(
        climb_id=climb_id, clip_times=clips, windows=full, ground_truth_route=label
    )


@st.composite
def mixed_length_climbs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ie = draw(st.integers(5, 9))
    top = draw(st.sampled_from([3, 127]))
    records = []
    for climb_id in range(draw(st.integers(1, 6))):
        windows = {}
        for position in range(2, ie):
            n = int(rng.integers(2, 40))
            counts = rng.integers(-top, top + 1, size=(n, 3))
            windows[position] = columns(
                SampleEvent(position, position + 0.01 * i, *map(int, c))
                for i, c in enumerate(counts)
            )
        clips = dict(enumerate(np.cumsum(rng.uniform(1, 30, size=ie)).tolist(), start=1))
        records.append(ClimbRecord(climb_id, clips, windows, ground_truth_route=f"r{climb_id % 2}"))
    return records, LineConfig(ie=ie)


class TestBatchedMatrix:
    @settings(max_examples=40, deadline=None)
    @given(mixed_length_climbs())
    def test_matches_stacked_per_climb_reference(self, case):
        records, line = case
        cfg = SensorConfig()
        matrix = build_feature_matrix(records, line, cfg)
        assert same_bits(matrix.values, np.vstack([reference_assemble(r, line, cfg) for r in records]))
        assert matrix.names == feature_names(line.ie)
        for row, record in zip(matrix.values, records):
            assert same_bits(assemble(record, line, cfg).values[0], row)

    def test_simulated_records_match_reference(self, small_records, small_line):
        matrix = build_feature_matrix(small_records, small_line)
        reference = [reference_assemble(r, small_line, SensorConfig()) for r in small_records]
        assert same_bits(matrix.values, np.vstack(reference))

    def test_missing_window_names_first_climb_and_position(self):
        good = short_record(0, {})
        first_gap = short_record(1, {})
        del first_gap.windows[3]
        first_gap.windows[4] = EventColumns.empty()
        later_gap = short_record(2, {})
        del later_gap.windows[2]
        with pytest.raises(MissingClipError) as err:
            build_feature_matrix([good, first_gap, later_gap], LineConfig(ie=5))
        assert (err.value.climb_id, err.value.position) == (1, 3)

    def test_one_sample_window_rejected(self):
        record = short_record(0, {4: [SampleEvent(4, 40.0, 1, 2, 3)]})
        with pytest.raises(ValidationError, match="position 4"):
            build_feature_matrix([record], LineConfig(ie=5))

    def test_out_of_range_count_rejected(self):
        record = short_record(0, {3: [SampleEvent(3, 30.0, 1, 2, 3), SampleEvent(3, 30.1, 1, -128, 3)]})
        with pytest.raises(ValidationError, match="counts -128 outside"):
            build_feature_matrix([record], LineConfig(ie=5))

    @pytest.mark.parametrize("count", [-(2**63), 2**63 - 1])
    def test_int64_extreme_count_rejected(self, count):
        # -2**63 has no int64 absolute value, so the range check is two-sided
        record = short_record(0, {3: [SampleEvent(3, 30.0, 1, 2, 3), SampleEvent(3, 30.1, count, 0, 3)]})
        with pytest.raises(ValidationError, match=f"counts {count} outside"):
            build_feature_matrix([record], LineConfig(ie=5))
