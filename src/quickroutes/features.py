"""Per-climb feature extraction from segmented sample windows.

Each clipped position contributes a sub-vector of 13 statistics over the
x/y/z acceleration series and their per-sample magnitude, plus the three
pairwise Pearson correlations (55 entries per position). A temporal block
derived from clip times follows: consecutive clip-to-clip deltas, deltas
from the climb start (position 2) to later positions, the climb duration,
and summary statistics of the consecutive deltas.

Conventions are fixed here once: population variance (windows are the
complete set of transmitted samples, which also makes rms^2 = var + mean^2
exact), Fisher excess kurtosis and Fisher-Pearson skew in population form
with 0 for constant series, linearly interpolated percentiles, and peaks
as strict local maxima with a prominence floor of twice the quantizer
resolution to ignore one-count chatter.

The first and the last quickdraws are excluded from the assembled vector:
the bottom sensor mostly measures the belayer, the top one the lowering.

Layout of the computation: windows arrive as column slices
(``ingest.EventColumns``), so no event object is made on this path.
:func:`build_feature_matrix` gathers the (n, 3) int64 count columns of
every inner window of every climb into one array, in climb and then
position order, and converts it in one :func:`axis_sets` call into a
(4, n) array of the x, y, z and g series back to back, then groups the
windows by length. Each length becomes an (m, L) block per series, and
one kernel per statistic family runs on all its rows at once:
``_stat_rows`` (the 13 statistics, with ``_peak_counts`` for the peaks)
over the x, y, z and g blocks together, and ``_cross_rows`` for the
correlations. The kernels reduce along axis 1 of C-ordered blocks, which
rounds exactly as the same reduction of one series does, so the matrix
is bit for bit what a per-series loop gives. ``_temporal_rows`` computes
the temporal block of all climbs from one (climbs, ie-2) array of clip
times. These kernels are the only implementation of each statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MissingClipError, ValidationError
from .ingest import ClimbRecord, LineConfig
from .sensor import SensorConfig

STAT_NAMES = (
    "mean",
    "min",
    "max",
    "variance",
    "std",
    "rms",
    "p5",
    "p25",
    "p75",
    "p95",
    "kurtosis",
    "skew",
    "n_peaks",
)

AXIS_SOURCES = ("x", "y", "z", "g")

DEFAULT_PEAK_PROMINENCE_G = 2 * SensorConfig().resolution_g


def _peak_bases(
    S: np.ndarray, rows: np.ndarray, cols: np.ndarray, height: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest sample on each side of each peak ``S[rows, cols]``.

    A side's walk runs from the peak until a sample that is not lower than
    the peak, or the series edge; the base is the lowest sample walked over,
    or the peak itself when the walk stops at once. Both sides of all peaks
    walk together, over chunks of offsets that double in width, so a walk
    of w samples costs O(log w) numpy calls rather than w.
    """
    n = S.shape[1]
    step = np.repeat([-1, 1], rows.size)
    r, c, h = np.tile(rows, 2), np.tile(cols, 2), np.tile(height, 2)
    base = h.copy()
    todo = np.arange(base.size)
    start, width = 1, 8
    while todo.size:
        j = c[todo, None] + step[todo, None] * np.arange(start, start + width)
        inside = (j >= 0) & (j < n)
        v = np.where(inside, S[r[todo, None], np.clip(j, 0, n - 1)], np.inf)
        walked = np.logical_and.accumulate(v < h[todo, None], axis=1)
        base[todo] = np.minimum(base[todo], np.where(walked, v, np.inf).min(axis=1))
        todo = todo[walked[:, -1]]
        start += width
        width *= 2
    return base[: rows.size], base[rows.size :]


def _peak_counts(S: np.ndarray, min_prominence: float) -> np.ndarray:
    """Per row of the 2-D ``S``: strict local maxima (s[k-1] < s[k] > s[k+1])
    whose prominence, the height above the higher of the two lowest points
    separating the peak from higher terrain or the series edge, reaches
    ``min_prominence``."""
    m, n = S.shape
    if n < 3:
        return np.zeros(m)
    mid = S[:, 1:-1]
    rows, cols = np.nonzero((S[:, :-2] < mid) & (mid > S[:, 2:]))
    cols += 1
    height = S[rows, cols]
    left, right = _peak_bases(S, rows, cols, height)
    keep = height - np.maximum(left, right) >= min_prominence
    return np.bincount(rows[keep], minlength=m).astype(float)


def _stat_rows(S: np.ndarray, peak_prominence: float) -> np.ndarray:
    """The 13 statistics of every row of the 2-D ``S``, in STAT_NAMES order.

    Each statistic is a reduction along axis 1 of a C-ordered block, which
    rounds exactly as the same reduction of the row alone does.
    """
    S = np.ascontiguousarray(S, dtype=float)
    out = np.empty((S.shape[0], len(STAT_NAMES)))
    mean = S.mean(axis=1)
    lo = S.min(axis=1)
    hi = S.max(axis=1)
    var = S.var(axis=1)  # population
    var[lo == hi] = 0.0  # exact 0 when degenerate
    std = np.sqrt(var)
    out[:, 0] = mean
    out[:, 1] = lo
    out[:, 2] = hi
    out[:, 3] = var
    out[:, 4] = std
    out[:, 5] = np.sqrt((S * S).mean(axis=1))
    out[:, 6:10] = np.percentile(S, [5, 25, 75, 95], axis=1).T
    out[:, 10:12] = 0.0  # kurtosis and skew of constant rows
    moving = var != 0.0
    if moving.any():
        # standardize first so tiny variances cannot underflow
        z = (S[moving] - mean[moving, None]) / std[moving, None]
        out[moving, 10] = (z**4).mean(axis=1) - 3.0
        out[moving, 11] = (z**3).mean(axis=1)
    out[:, 12] = _peak_counts(S, peak_prominence)
    return out


def stat_features(
    series: Sequence[float], peak_prominence: float = DEFAULT_PEAK_PROMINENCE_G
) -> dict[str, float]:
    """The 13 named statistics of one series, in STAT_NAMES order: one row
    of ``_stat_rows`` at ``peak_prominence``. :func:`build_feature_matrix`
    does not call it; the benchmark's traced mode wraps it by name.
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValidationError("cannot compute statistics of an empty series")
    row = _stat_rows(x.reshape(1, -1), peak_prominence)[0]
    return dict(zip(STAT_NAMES, row.tolist()))


def _cross_rows(X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Pearson (r_xy, r_xz, r_yz) of every row; 0 where a row is constant."""
    centred = []
    for A in (X, Y, Z):
        A = np.ascontiguousarray(A, dtype=float)
        centred.append(A - A.mean(axis=1, keepdims=True))
    power = [(d * d).sum(axis=1) for d in centred]
    out = np.zeros((len(centred[0]), 3))  # zero-variance convention
    for col, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
        denom = np.sqrt(power[a] * power[b])
        num = (centred[a] * centred[b]).sum(axis=1)
        np.divide(num, denom, out=out[:, col], where=denom != 0.0)
    return out


def axis_sets(counts: np.ndarray, cfg: SensorConfig) -> np.ndarray:
    """Transmitted counts as a (4, n) array of x, y, z and g series, in g.

    ``counts`` is the (n, 3) int64 x, y, z count array of one window, or of
    several back to back; column i of the result is event i, each count
    times ``full_scale_g / max_counts`` (an exact linear scale). Row 3 is
    each sample's magnitude. A count beyond the output range raises
    ``ValidationError``, naming the first in x, y, z order.
    """
    if not len(counts):
        raise ValidationError("empty sample window")
    counts = counts.T
    out_of_range = (counts > cfg.max_counts) | (counts < -cfg.max_counts)
    if out_of_range.any():
        raise ValidationError(
            f"counts {int(counts[out_of_range][0])} outside +/-{cfg.max_counts} "
            f"for {cfg.output_bits}-bit output"
        )
    series = np.empty((4, counts.shape[1]))
    # counts * full_scale_g / max_counts, in that order
    np.multiply(counts, cfg.full_scale_g, out=series[:3])
    series[:3] /= cfg.max_counts
    x, y, z = series[:3]
    np.sqrt(x * x + y * y + z * z, out=series[3])
    return series


PER_POSITION = len(AXIS_SOURCES) * len(STAT_NAMES) + 3


def _window_features(series: np.ndarray, lengths: np.ndarray, prominence: float) -> np.ndarray:
    """The 55 per-position entries of every window, one row per window.

    ``series`` is the (4, n) array of :func:`axis_sets` over the windows'
    samples back to back, in the order of ``lengths``. Windows of one
    length are stacked into (m, L) blocks, so each kernel runs once per
    distinct length.
    """
    starts = np.cumsum(lengths) - lengths
    out = np.empty((lengths.size, PER_POSITION))
    for n in np.unique(lengths):
        which = np.flatnonzero(lengths == n)
        block = series[:, starts[which, None] + np.arange(n)]  # (4, m, n)
        stats = _stat_rows(block.reshape(-1, n), prominence)  # x rows, then y, z, g
        out[which, :-3] = np.hstack(np.split(stats, 4))
        out[which, -3:] = _cross_rows(*block[:3])
    return out


def _temporal_rows(clips: np.ndarray) -> np.ndarray:
    """The temporal block of every climb, one row per climb.

    ``clips`` holds the clip times of positions 2..ie-1, one row per climb.
    A row is the short deltas clip(i+1) - clip(i) for i = 2..ie-2, the long
    deltas clip(j) - clip(2) for j = 4..ie-2, the duration clip(ie-1) -
    clip(2), and the min, max, mean and population std of the short deltas.
    """
    short = np.diff(clips, axis=1)
    start = clips[:, :1]
    stats = [reduce(short, axis=1) for reduce in (np.min, np.max, np.mean, np.std)]
    return np.column_stack([short, clips[:, 2:-1] - start, clips[:, -1:] - start, *stats])


def feature_names(ie: int) -> tuple[str, ...]:
    """Deterministic column naming; carries (position, source, statistic)."""
    names: list[str] = []
    for position in range(2, ie):
        for source in AXIS_SOURCES:
            for stat in STAT_NAMES:
                names.append(f"p{position}.{source}.{stat}")
        names.append(f"p{position}.cross.r_xy")
        names.append(f"p{position}.cross.r_xz")
        names.append(f"p{position}.cross.r_yz")
    for i in range(2, ie - 1):
        names.append(f"t.dts.p{i}_p{i + 1}")
    for j in range(4, ie - 1):
        names.append(f"t.dtl.p2_p{j}")
    names.append("t.dtc")
    for stat in ("min", "max", "mean", "std"):
        names.append(f"t.dts.{stat}")
    return tuple(names)


@dataclass
class FeatureMatrix:
    """Rows = climbs, columns = named features, optional route labels."""

    names: tuple[str, ...]
    values: np.ndarray
    climb_ids: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    @property
    def n_climbs(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def select(self, names: Sequence[str]) -> "FeatureMatrix":
        """The named columns in the given order; an unknown name raises
        ``ValidationError``."""
        names = tuple(names)
        index = column_index(self.names)
        try:
            idx = [index[n] for n in names]
        except KeyError as exc:
            raise ValidationError(f"no column named {exc.args[0]!r}") from None
        return FeatureMatrix(
            names=names,
            values=self.values[:, idx],
            climb_ids=self.climb_ids,
            labels=self.labels,
        )


def column_index(names: Sequence[str]) -> dict[str, int]:
    """Each name's column, the first one for a name that repeats."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        index.setdefault(name, i)
    return index


def build_feature_matrix(
    records: Sequence[ClimbRecord],
    line: LineConfig,
    cfg: Optional[SensorConfig] = None,
) -> FeatureMatrix:
    """One row per climb, columns named by :func:`feature_names`.

    Every climb needs a window of at least 2 samples and a clip time at
    each position 2..ie-1; the first climb and position without them raise
    (``MissingClipError`` when absent), a climb's windows checked before
    its clip times. Counts beyond the output range raise
    ``ValidationError`` (see :func:`axis_sets`) once all climbs have passed
    that check.
    """
    if not records:
        raise ValidationError("no climbs to featurize")
    cfg = cfg or SensorConfig()
    positions = range(2, line.ie)
    counts: list[np.ndarray] = []
    lengths: list[int] = []
    clips: list[list[float]] = []
    for record in records:
        for position in positions:
            window = record.windows.get(position)
            if not window:
                raise MissingClipError(record.climb_id, position)
            if len(window) < 2:
                raise ValidationError(
                    f"climb {record.climb_id}: position {position} has 1 sample; "
                    "correlations need at least 2 samples"
                )
            counts.append(window.counts)
            lengths.append(len(window))
        for position in positions:
            if position not in record.clip_times:
                raise MissingClipError(record.climb_id, position)
        clips.append([record.clip_times[p] for p in positions])

    per_window = _window_features(
        axis_sets(np.concatenate(counts), cfg), np.asarray(lengths), 2 * cfg.resolution_g
    )
    values = np.hstack([
        per_window.reshape(len(records), -1),
        _temporal_rows(np.asarray(clips, dtype=float)),
    ])
    labels = tuple(r.ground_truth_route for r in records)
    return FeatureMatrix(
        names=feature_names(line.ie),
        values=values,
        climb_ids=tuple(r.climb_id for r in records),
        labels=labels if all(l is not None for l in labels) else None,
    )
