"""Feature scaling and supervised univariate selection.

Scaling maps each column through its empirical CDF onto a standard
normal, which spreads frequent values and caps the leverage of outliers;
without it the long-segment time deltas would dominate every Euclidean
distance. Selection scores each scaled column with a one-way ANOVA
F-ratio against the ground-truth route labels and keeps the top k.
Selection is supervised while the downstream clustering is not; no code
records yet that labels were consumed here, so no report discloses it.

The scaler works on the whole matrix: fitting is one sort of the
transposed matrix into a (d, n) block of sorted columns and one scan of
that block for the runs of equal values, which give every column's ECDF
knots. Transforming interpolates column by column, since ``np.interp`` is
one-dimensional, over contiguous rows of the transposed input; its edge
values give a value outside a column's fit range the out-of-range level.
Clipping and the quantile function then run on the whole matrix at once.
The fit data's levels all lie on the grid ``j / (2 n_fit)``, so the fit
stores the quantile of every grid level once, and a transform looks
levels up there; only levels off the grid, as new rows give, go through
``ndtri``.

The standard normal quantile function is :func:`ndtri`, a numpy port of
Moshier's Cephes ``ndtri`` (the algorithm behind ``scipy.special.ndtri``):
a rational approximation in ``p - 0.5`` on the centre, and two in
``1/sqrt(-2 log p)`` on the tails, switching at ``exp(-2)`` and ``exp(-32)``.
It gives scipy's doubles bit for bit only because every operation is the
C code's, in the same order, and the logarithms on the tails come from
libm through ``math.log``: numpy's vectorized ``np.log`` differs from libm
in the last bit on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .features import FeatureMatrix

# Cephes ndtri coefficients, highest power first; the Q tables write out the
# leading 1 that Cephes' p1evl implies, and 1.0 * x is exact.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the tails begin


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the highest coefficient."""
    ans = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.tolist()])


def ndtri(p) -> np.ndarray:
    """Standard normal quantile of every entry of ``p``, equal bit for bit
    to ``scipy.special.ndtri`` (Cephes; see the module docstring).

    0 maps to -inf, 1 to +inf, and NaN or a value outside [0, 1] to NaN
    (numpy's NaN; scipy flips the sign bit of a NaN input).
    The approximation runs once per distinct value: a scaled matrix holds
    few distinct ECDF levels.
    """
    p = np.asarray(p, dtype=float)
    levels, inverse = np.unique(p, return_inverse=True)
    x = np.full(levels.shape, np.nan)
    x[levels == 0.0] = -np.inf
    x[levels == 1.0] = np.inf
    upper = levels > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - levels, levels)
    inside = (levels > 0.0) & (levels < 1.0)

    centre = inside & (y > _EXP_M2)
    y0 = y[centre] - 0.5
    y2 = y0 * y0
    x[centre] = (y0 + y0 * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _SQRT_2PI

    tail = inside & ~centre
    t = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = t - _libm_log(t) / t
    z = 1.0 / t
    near = t < 8.0  # p > exp(-32)
    x1 = np.empty_like(t)
    x1[near] = z[near] * _polevl(z[near], _P1) / _polevl(z[near], _Q1)
    x1[~near] = z[~near] * _polevl(z[~near], _P2) / _polevl(z[~near], _Q2)
    x0 -= x1
    x[tail] = np.where(upper[tail], x0, -x0)
    return x[inverse].reshape(p.shape)


@dataclass
class QuantileScaler:
    """Per-column empirical distributions frozen at fit time.

    Transform sends a value through the mid-rank empirical CDF of the fit
    data (linear interpolation between fit points, clipped away from 0 and
    1 by half a rank) and then through the standard normal quantile
    function. Monotone non-decreasing per column; constant columns always
    map to 0.

    The scaler is the ECDF knots of every column, as :func:`_ecdf_knots`
    gives them: the distinct fit values, stored flat (column c's at
    ``bounds[c]:bounds[c + 1]``, ascending), and their mid-rank levels.
    A column's lowest and highest value are its first and last knot; it is
    constant when they are equal, so -0.0 beside 0.0 is constant and a
    column with a NaN is not.
    """

    names: tuple[str, ...]
    n_fit: int
    knots: np.ndarray  # distinct fit values, flat
    levels: np.ndarray  # their mid-rank levels
    bounds: np.ndarray  # (d + 1,) column c's knots at bounds[c]:bounds[c + 1]
    _bounds: list[int] = field(init=False, repr=False)
    _constant: np.ndarray = field(init=False, repr=False)
    _normal: np.ndarray = field(init=False, repr=False)  # ndtri(j / (2 n_fit)), j = 0..2 n_fit

    def __post_init__(self):
        self._bounds = self.bounds.tolist()
        self._constant = self.knots[self.bounds[:-1]] == self.knots[self.bounds[1:] - 1]
        steps = 2 * self.n_fit
        self._normal = ndtri(np.arange(steps + 1) / steps)

    @property
    def lo(self) -> float:
        return 1.0 / (2.0 * self.n_fit)

    @property
    def hi(self) -> float:
        return 1.0 - 1.0 / (2.0 * self.n_fit)

    def transform(self, matrix: FeatureMatrix) -> FeatureMatrix:
        if matrix.names != self.names:
            raise ValidationError("matrix columns do not match the fitted scaler")
        return FeatureMatrix(
            names=matrix.names,
            values=self.transform_values(matrix.values),
            climb_ids=matrix.climb_ids,
            labels=matrix.labels,
        )

    def transform_values(self, values: np.ndarray) -> np.ndarray:
        """Scale every column of ``values``; the work runs on its transpose,
        one contiguous row per column, and the result is C-ordered."""
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != len(self.names):
            raise ValidationError("value width does not match the fitted scaler")
        columns = np.ascontiguousarray(values.T)
        bounds, knots, levels = self._bounds, self.knots, self.levels
        lo, hi = self.lo, self.hi
        # stacked once, not stored row by row; the reshape keeps a width of 0.
        # Below a column's first knot interp gives lo, above its last hi; a
        # NaN value or a NaN last knot fails both comparisons.
        ecdf = np.array([
            np.interp(column, knots[a:b], levels[a:b], left=lo, right=hi)
            for column, a, b in zip(columns, bounds, bounds[1:])
        ]).reshape(columns.shape)
        np.clip(ecdf, lo, hi, out=ecdf)
        del columns  # before the lookup's temporaries, which set the peak
        # ndtri of each level. Every level of a fit row is a mid-rank level
        # j / (2 n_fit): a level that equals the grid level nearest it takes
        # that level's stored quantile, the same double. The rest (levels of
        # new rows, a hi that rounds off the grid, NaN) go through ndtri.
        # One float and one index temporary, each freed once spent: with one
        # more, replay_week's peak RSS read about 2 MB higher.
        levels = ecdf.T
        steps = 2 * self.n_fit
        j = levels * steps
        np.rint(j, out=j)
        np.fmax(j, 0.0, out=j)  # fmax drops NaN: a NaN level looks up 0 and misses
        index = j.astype(np.intp, order="C")
        j /= steps
        off = j != levels
        del j
        out = self._normal[index]  # C-ordered, as the index
        del index
        if off.any():
            out[off] = ndtri(levels[off])
        out[:, self._constant] = 0.0
        return out


def _ecdf_knots(block: np.ndarray, n_fit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of every row of a (d, n) block whose rows are
    ascending, their mid-rank ECDF levels, and row bounds: row r's knots are
    ``[bounds[r]:bounds[r + 1]]`` of the flat arrays, in order.

    One scan marks where each run of equal values starts, without sorting
    again. Per row, equal to the knots from ``np.unique(row,
    return_index=True, return_counts=True)``: -0.0 and 0.0 share one run,
    whose first value stands for it, and all NaNs, which sort last, share
    one.
    """
    n = block.shape[1]
    starts = np.ones(block.shape, dtype=bool)
    # a NaN on the left has only NaNs after it
    starts[:, 1:] = (block[:, 1:] != block[:, :-1]) & ~np.isnan(block[:, :-1])
    first = np.flatnonzero(starts)
    first %= n  # rank of each run's first value
    # a run ends where the next begins; 0 there means a new row, so n here.
    # The rank sums are integers below 2**53: exact in floats, as in ints.
    levels = np.zeros(first.size)
    levels[:-1] = first[1:]
    levels[levels == 0] = n
    levels += first
    levels /= 2.0 * n_fit
    bounds = np.zeros(len(block) + 1, dtype=np.intp)
    np.cumsum(starts.sum(axis=1), out=bounds[1:])
    return block[starts], levels, bounds


def fit_quantile(matrix: FeatureMatrix) -> QuantileScaler:
    """Freeze the ECDF knots of the fit values as the scaling reference:
    one sort of the transposed matrix, one row per column, and one run scan
    over it; the sorted block is not kept."""
    if matrix.n_climbs < 2:
        raise ValidationError("quantile scaling needs at least 2 rows")
    block = np.array(matrix.values.T, order="C")
    block.sort(axis=1)
    knots, levels, bounds = _ecdf_knots(block, matrix.n_climbs)
    return QuantileScaler(
        names=matrix.names, n_fit=matrix.n_climbs, knots=knots, levels=levels, bounds=bounds
    )


@dataclass(frozen=True)
class FeatureScore:
    name: str
    f: float  # >= 0, math.inf when within-group variance vanishes


def _anova_rows(XT: np.ndarray, labels: Sequence) -> np.ndarray:
    """One-way ANOVA F ratio of every row of ``XT`` (rows = columns of data).

    Zero within-group variance yields the +inf sentinel when group means
    differ and 0 when they do not.

    Sums of squares accumulate group by group, in first-seen label order,
    over C-ordered blocks: a reduction of a gathered block that is not
    C-ordered skips numpy's pairwise summation and rounds differently.
    """
    XT = np.ascontiguousarray(XT, dtype=float)
    n = XT.shape[1]
    if n != len(labels):
        raise ValidationError("column and labels must have equal length")
    groups: dict = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    k = len(groups)
    if k < 2:
        raise ValidationError("ANOVA needs at least 2 groups")
    if n <= k:
        raise ValidationError("ANOVA needs more samples than groups")
    grand = XT.mean(axis=1)
    ssb = np.zeros(len(XT))
    ssw = np.zeros(len(XT))
    for idx in groups.values():
        G = np.ascontiguousarray(XT[:, idx])
        mean = G.mean(axis=1)
        # square as Python floats: like the scalar power, unlike np.square
        d2 = np.array([d**2 for d in (mean - grand).tolist()])
        ssb += len(idx) * d2
        ssw += ((G - mean[:, None]) ** 2).sum(axis=1)
    f = np.where(ssb > 0.0, math.inf, 0.0)  # zero within-group variance
    spread = ssw != 0.0
    f[spread] = (ssb[spread] / (k - 1)) / (ssw[spread] / (n - k))
    return f


def score_features(matrix: FeatureMatrix) -> list[FeatureScore]:
    """ANOVA F score per column against ``matrix.labels``, the ground-truth
    routes; constant columns score 0. A matrix without labels raises
    ``ValidationError``."""
    if matrix.labels is None:
        raise ValidationError("feature scoring needs ground-truth labels")
    XT = np.ascontiguousarray(matrix.values.T)
    varying = XT.min(axis=1) != XT.max(axis=1)
    f = np.zeros(len(XT))
    if varying.any():
        f[varying] = _anova_rows(XT[varying], list(matrix.labels))
    return [FeatureScore(name, v) for name, v in zip(matrix.names, f.tolist())]


def select_k_best(scores: Sequence[FeatureScore], k: int) -> list[str]:
    """Names of the k highest-scoring columns, best first.

    Ties keep the original column order; +inf sorts above everything. A
    NaN score, which has no place in that order, raises ``ValidationError``.
    """
    if not 1 <= k <= len(scores):
        raise ValidationError(f"k={k} outside 1..{len(scores)}")
    if unranked := [score.name for score in scores if math.isnan(score.f)]:
        raise ValidationError(f"NaN F scores cannot be ranked: {', '.join(unranked)}")
    ranked = sorted(enumerate(scores), key=lambda it: (-it[1].f, it[0]))
    return [score.name for _, score in ranked[:k]]
