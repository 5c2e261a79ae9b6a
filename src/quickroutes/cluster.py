"""Clustering machinery: Lloyd's K-Means with repeated restarts, rand-index
statistics, the feature-count sweep, PCA reduction, a full-covariance
Gaussian mixture fitted by EM, and silhouette scoring.

Everything is Euclidean and deterministic: each stochastic operation is a
pure function of its inputs and an integer seed, restarts use consecutive
seeds, and results are merged in seed order.

``_lloyd`` is the one Lloyd loop. ``kmeans_restarts`` calls it, and
``kmeans``, ``best_kmeans``, ``repeated_kmeans`` and the GMM
initialization call that; the feature-count sweep calls both. Its
restarts are batched: each round assigns the points of every restart
still running from one GEMM against all their centers, and a restart
leaves the batch once it converges. Each restart's result is bit for bit
that of running it alone: assignments are certified against the
difference form, and sums keep the rounding of the one-restart code.
A round skips the work no result reads: only clusters whose members
changed get a new mean (any other center already is that mean), and
inertia is computed once per restart, from its final centers and
assignment. Restarts run in chunks sized by memory: one chunk's
(restarts, points, dimensions) block holds at most 8 MB, or one
restart's when that alone is larger.

Each restart may have its own width: the run of its seed on the first w
columns. The feature-count sweep uses this to cluster every prefix of the
feature ranking in a few engine calls. A chunk holds consecutive widths,
runs on the block padded to its widest, and keeps each restart's centers
zero past its width; every step whose rounding depends on the width is
taken on the restart's own columns, so its assignments and its centers on
those columns are bit for bit those of its prefix alone. Width 1 runs on
its own, because numpy sums a one-column block pairwise. The sweep's padded blocks hold at most 4 MB, and all its
labelings are scored in one rand-index pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .preprocess import FeatureScore, select_k_best

DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
DEFAULT_GMM_TOL = 1e-8
DEFAULT_GMM_REG = 1e-6
# floats in one chunk's (restarts, n, d) block of K-Means restarts: 8 MB
_CHUNK_FLOATS = 2**20
# floats in one padded (restarts, n, width) block of the feature-count sweep:
# 4 MB; at 8 MB the sweep ran no faster and its peak memory grew by about 1 MB
_SWEEP_FLOATS = 2**19


# ---------------------------------------------------------------------------
# K-Means
# ---------------------------------------------------------------------------

@dataclass
class KMeansResult:
    """One restart's final assignment and centers. ``inertia`` is computed
    once, from those centers and that assignment, not per round."""

    assignments: np.ndarray  # cluster id per point
    centers: np.ndarray      # (k, d)
    inertia: float           # sum of squared distances to assigned centers
    iterations: int
    seed: int


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# absolute rounding of one product in the subnormal range is at most half of this
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _gamma(m: int) -> float:
    """Higham's gamma_m, the relative error bound of m roundings."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _assign(X: np.ndarray, xx: np.ndarray, xnorm: np.ndarray, centers: np.ndarray,
            widths: np.ndarray) -> np.ndarray:
    """Nearest center per restart and row: ``argmin`` of ``_squared_distances``
    against each restart's centers, ties to the lowest index, without
    forming a difference tensor.

    ``centers`` is (A, k, d), the centers of A restarts; the result is
    (A, n). Restart a works on the prefix ``X[:, :widths[a]]``, and its
    centers are zero beyond that width. Row a of ``xx`` holds each row's
    squared norm at that width and row a of ``xnorm`` its square root.
    One GEMM against all A*k centers gives the expanded
    ``|x|^2 + |c|^2 - 2 x.c``; the zeros of a narrower restart's centers
    only add exact zero products. It and the difference form each lie
    within ``gamma_{d+2} (|x| + |c|)^2`` of the exact squared distance, in
    any summation order and at any width up to d, so neither the width of
    the GEMM nor the padding can change a decision. A row whose best
    expanded value beats every other center of its restart by more than
    twice the sum of both errors (with a factor 2 to spare, plus slack for
    subnormal rounding) has the same unique argmin in the difference form.
    Every other row, including ties and rows holding inf or NaN, is decided
    by ``_squared_distances`` on the restart's own width.
    """
    A, k, d = centers.shape
    n = X.shape[0]
    if k == 1:
        return np.zeros((A, n), dtype=np.intp)
    cc = np.einsum("akd,akd->ak", centers, centers)
    d2 = xx.T[:, :, None] + cc - 2.0 * (X @ centers.reshape(A * k, d).T).reshape(n, A, k)
    best = d2.argmin(axis=2)
    # gap to the second-best center; NaN when the argmin found a NaN
    rows, runs = np.arange(n)[:, None], np.arange(A)
    gap = -d2[rows, runs, best]
    d2[rows, runs, best] = np.inf
    gap += d2.min(axis=2)
    # in place: on tiny inputs the temporaries cost more than the arithmetic
    bound = xnorm.T + np.sqrt(cc.max(axis=1))
    bound *= bound
    bound *= 8.0 * _gamma(d + 4)
    bound += 8.0 * (d + 4) * _SMALLEST_SUBNORMAL
    unsure = ~(gap > bound)
    assign = best.T.copy()
    if unsure.any():
        for a in np.flatnonzero(unsure.any(axis=0)).tolist():
            redo = np.flatnonzero(unsure[:, a])
            w = widths[a]
            assign[a, redo] = np.argmin(_squared_distances(X[redo, :w], centers[a, :, :w]), axis=1)
    return assign


def _repair(X: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Keep one restart's k clusters populated: hand the farthest point to
    each empty cluster in turn. Moves ``centers`` in place and returns the
    new assignment."""
    n, k = len(X), len(centers)
    d2 = _squared_distances(X, centers)
    for _ in range(k):
        sizes = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            break
        j = int(empties[0])
        point_d2 = d2[np.arange(n), assign]
        farthest = int(np.argmax(point_d2))
        centers[j] = X[farthest]
        d2 = _squared_distances(X, centers)
        assign = np.argmin(d2, axis=1)
    return assign


def _inertias(X: np.ndarray, centers: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Sum of squared distances to the assigned centers, per restart; each
    term rounds as the matching entry of ``_squared_distances``. ``keys``
    is ``a * k + assign[a]`` per restart a and row."""
    A, k, d = centers.shape
    diff = centers.reshape(A * k, d)[keys]
    # in place: allocating a second (A, n, d) array measured slower than the arithmetic
    np.subtract(X, diff, out=diff)
    return np.einsum("and,and->an", diff, diff).sum(axis=1)


def _means(X: np.ndarray, centers: np.ndarray, keys: np.ndarray, changed: np.ndarray) -> np.ndarray:
    """Mean of each changed cluster's members, per restart; every other
    cluster, and an empty one, keeps its center. ``keys`` as for
    ``_inertias``; ``changed`` flags each of the A*k clusters.

    One stable sort puts each changed cluster's member rows in row order;
    gathered, they are the very C-ordered block ``X[assign[a] == j]`` is,
    so each sum rounds as that one does, numpy's pairwise sum at d = 1
    included. ``np.add.reduceat`` over the sorted rows would round
    differently. Each cluster's block is gathered on its own: one block
    of every member would be as large as the chunk's (A, n, d).
    """
    A, k, d = centers.shape
    flat_keys = keys.ravel()
    picked = np.flatnonzero(changed[flat_keys])
    picked_keys = flat_keys[picked]
    rows = picked[np.argsort(picked_keys, kind="stable")] % len(X)
    sizes = np.bincount(picked_keys, minlength=A * k)
    ends = sizes.cumsum()
    new = centers.copy()
    flat = new.reshape(A * k, d)
    filled = np.flatnonzero(sizes)
    for group, end, size in zip(filled.tolist(), ends[filled].tolist(), sizes[filled].tolist()):
        np.add.reduce(X[rows[end - size:end]], axis=0, out=flat[group])
    # the arithmetic of each block's mean(axis=0), without its overhead
    flat[filled] /= sizes[filled, None]
    return new


@functools.lru_cache(maxsize=256)
def _initial_rows(n: int, k: int, seed: int) -> tuple[int, ...]:
    """The k distinct rows that seed a restart: the sweep draws the same
    seeds at the same n for every feature count."""
    return tuple(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


def kmeans_restarts(
    points,
    k: int,
    seeds: Iterable[int],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> list[KMeansResult]:
    """One K-Means run per seed (see ``kmeans``), in seed order.

    The restarts advance together: every Lloyd round assigns the points of
    all restarts still running from one GEMM, and a restart leaves the
    batch when it converges. Batching changes no result: each one is bit
    for bit the run of its seed alone. A cluster whose members did not
    change in a round keeps its center, the mean of those same rows, and
    each restart's inertia is computed once, at the end. Restarts run in
    chunks whose (restarts, n, d) blocks hold at most ``_CHUNK_FLOATS``
    floats. Every restart here uses all d columns; the feature-count sweep
    gives each restart of the same engine its own prefix width.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    n, d = X.shape
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside 1..n={n}")
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("K-Means restarts need at least one seed")
    xx = np.einsum("nd,nd->n", X, X)
    xnorm = np.sqrt(xx)
    per_chunk = max(1, _CHUNK_FLOATS // max(1, n * d))
    results: list[KMeansResult] = []
    for start in range(0, len(seeds), per_chunk):
        chunk = seeds[start:start + per_chunk]
        shape = (len(chunk), n)
        assigns, centers, rounds = _lloyd(X, np.broadcast_to(xx, shape), np.broadcast_to(xnorm, shape),
                                          k, chunk, max_iter, tol, np.full(len(chunk), d))
        keys = np.arange(0, len(chunk) * k, k)[:, None] + np.stack(assigns)
        inertias = _inertias(X, np.stack(centers), keys).tolist()
        results += map(KMeansResult, assigns, centers, inertias, rounds, chunk)
    return results


def _lloyd(X, xx, xnorm, k: int, seeds: list[int], max_iter: int, tol: float,
           widths: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """Lloyd rounds of one chunk of restarts, all advancing together; each
    restart's final assignment, final centers and number of rounds, in
    seed order.

    Restart a is the run of its seed on the prefix ``X[:, :widths[a]]``;
    row a of ``xx`` and ``xnorm`` holds the squared norms and norms of the
    rows at that width. A restart narrower than X keeps its centers zero
    beyond its width. Its means sum whole rows of X column by column,
    which rounds as the prefix does, and lose the columns past its width.
    At width 1 numpy sums a one-column block pairwise instead, so a
    width-1 restart may only run in a chunk where X has one column. Every
    step whose rounding depends on the number of columns is taken on the
    restart's own slice: the fallback of ``_assign``, ``_repair`` and a
    shift within a rounding band of ``tol``. A restart's centers come back
    at the width of X, zero past its own; the inertia is left to the
    caller, since the sweep reads only the assignments.

    A round computes new means only for the clusters whose members changed:
    a row entered or left, or ``_repair`` ran in that restart. Any other
    cluster's center is already the mean of its members, summed over the
    same rows in the same order.
    A repaired restart also stops on a fixed point: its assignment equals
    last round's and its new means equal the centers it started the round
    from. ``_repair`` moved those centers, so the shift cannot see it.
    """
    n, d = X.shape
    padded = bool((widths < d).any())
    columns = np.arange(d)
    centers = X[np.array([_initial_rows(n, k, seed) for seed in seeds])]
    if padded:
        np.copyto(centers, 0.0, where=columns >= widths[:, None, None])
        # the sum of one shift can round differently padded than at its own width
        band = 4.0 * _gamma(d + 2) * tol
    last = list(centers)  # each restart's centers when it stopped
    final: list[Optional[np.ndarray]] = [None] * len(seeds)  # assignment, if known
    rounds = [0] * len(seeds)
    live = list(range(len(seeds)))
    live_xx, live_xnorm, live_widths = xx, xnorm, widths
    previous = None  # the live restarts' assignments in the last round
    for it in range(1, max_iter + 1):
        assign = _assign(X, live_xx, live_xnorm, centers, live_widths)
        offsets = np.arange(0, len(live) * k, k)[:, None]
        keys = offsets + assign
        sizes = np.bincount(keys.ravel(), minlength=len(live) * k).reshape(-1, k)
        empty = np.flatnonzero(sizes.min(axis=1) == 0).tolist()
        if empty:
            started = centers[empty]  # a copy: _repair moves centers in place
            for a in empty:
                w = live_widths[a]
                assign[a] = _repair(X[:, :w], centers[a, :, :w], assign[a])
            keys = offsets + assign
        if previous is None:
            changed = np.ones(len(live) * k, dtype=bool)
        else:
            moved = assign != previous
            changed = np.zeros(len(live) * k, dtype=bool)
            changed[keys[moved]] = True
            changed[(offsets + previous)[moved]] = True
            for a in empty:
                changed[a * k:(a + 1) * k] = True
        new_centers = _means(X, centers, keys, changed)
        if padded:
            np.copyto(new_centers, 0.0, where=columns >= live_widths[:, None, None])
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=2)).max(axis=1)
        unchanged = (new_centers == centers).all(axis=(1, 2))
        stop = shift < tol
        if padded:
            for a in np.flatnonzero((abs(shift - tol) <= band) & (live_widths < d)).tolist():
                w = live_widths[a]
                own = ((new_centers[a, :, :w] - centers[a, :, :w]) ** 2).sum(axis=1)
                stop[a] = np.sqrt(own).max() < tol
        stop |= it == max_iter
        if empty and previous is not None:
            stop[empty] |= (assign[empty] == previous[empty]).all(axis=1) & (
                new_centers[empty] == started).all(axis=(1, 2))
        centers = new_centers
        previous = assign
        if stop.any():
            for a in np.flatnonzero(stop).tolist():
                slot = live[a]
                # copies: a view would keep the whole block of this round alive
                last[slot] = centers[a].copy()
                rounds[slot] = it
                if unchanged[a]:
                    # the assignment is a function of the centers, which did not move
                    final[slot] = assign[a].copy()
            live = [slot for slot, halt in zip(live, stop.tolist()) if not halt]
            if not live:
                break
            keep = ~stop
            centers, previous = centers[keep], assign[keep]
            live_xx, live_xnorm, live_widths = live_xx[keep], live_xnorm[keep], live_widths[keep]

    # restarts whose centers moved in their last round get one more assignment
    pending = [slot for slot, assign in enumerate(final) if assign is None]
    if pending:
        assigns = _assign(X, xx[pending], xnorm[pending], np.stack([last[s] for s in pending]),
                          widths[pending])
        for slot, assign in zip(pending, assigns):
            final[slot] = assign
    return final, last, rounds


def kmeans(
    points,
    k: int,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> KMeansResult:
    """Lloyd's algorithm from k distinct data points picked by the seed.

    Assignment ties break toward the lowest cluster index. If a cluster
    empties, the point currently farthest from its center becomes that
    cluster's new singleton center. A cluster whose members did not change
    keeps its center, which already is their mean. Stops when no center
    moves more than ``tol``, when a round that repaired a cluster ends on
    last round's assignment and on the centers it started from (a fixed
    point that the repair's moved centers would hide from ``tol``), or
    after ``max_iter`` rounds; the inertia is that of the final centers
    and assignment.

    k clusters are not guaranteed to stay populated. With fewer than k
    distinct points, the farthest point already sits on a center, its
    copy loses the tie to the lower index, and a cluster stays empty: ten
    points of two values at ``k=3`` give sizes 5, 5 and 0. The final
    assignment is not repaired either.

    Input is copied to C order first, so a point set gives the same result
    in any memory layout. This is the one-seed call of ``kmeans_restarts``.
    """
    return kmeans_restarts(points, k, [seed], max_iter, tol)[0]


def best_kmeans(
    points,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed0: int = 0,
) -> KMeansResult:
    """Lowest-inertia run over consecutive seeds; ties keep the lowest seed."""
    results = kmeans_restarts(points, k, range(seed0, seed0 + restarts))
    return min(results, key=lambda result: result.inertia)


# ---------------------------------------------------------------------------
# Rand index
# ---------------------------------------------------------------------------

def rand_index(a: Sequence, b: Sequence, adjusted: bool = True) -> float:
    """Pair-counting similarity of two labelings, ignoring permutations.

    Unadjusted: fraction of point pairs the two labelings agree on.
    Adjusted: chance-corrected via the standard contingency-table formula,
    1 for identical partitions, ~0 in expectation for random ones.
    """
    return _rand_indices(a, _label_codes(b)[None, :], adjusted)[0]


def _label_codes(labels: Iterable) -> np.ndarray:
    """Integer code per label, in first-seen order; equal labels share one."""
    codes: dict = {}
    return np.array([codes.setdefault(label, len(codes)) for label in labels], dtype=np.intp)


def _rand_indices(truth: Sequence, labelings: np.ndarray, adjusted: bool) -> list[float]:
    """Rand index of ``truth`` against each row of ``labelings`` (R, n),
    whose entries are non-negative integer codes.

    The contingency tables of all rows come from one ``np.unique`` over
    (row, truth, label) keys, which counts only the occupied cells: memory
    stays O(R n) even when both labelings have about n labels. The pair
    counts are exact integers and become Python ints before the formula.
    """
    rows, n = labelings.shape
    t = _label_codes(truth)
    if len(t) != n:
        raise ValidationError("labelings must have equal length")
    if n < 2:
        raise ValidationError("rand index needs at least 2 points")
    n_truth = int(t.max()) + 1
    n_labels = int(labelings.max()) + 1
    row = np.arange(rows)[:, None]
    cells, counts = np.unique((row * n_truth + t) * n_labels + labelings, return_counts=True)
    # every row occupies at least one cell, so each row's cells start where its keys do
    first = np.searchsorted(cells, np.arange(rows) * (n_truth * n_labels))
    sum_ij = np.add.reduceat(counts * (counts - 1) // 2, first).tolist()
    sizes_b = np.bincount((row * n_labels + labelings).ravel(), minlength=rows * n_labels)
    sum_b = (sizes_b * (sizes_b - 1) // 2).reshape(rows, n_labels).sum(axis=1).tolist()
    sizes_a = np.bincount(t)
    sum_a = int((sizes_a * (sizes_a - 1) // 2).sum())
    pairs = math.comb(n, 2)
    values = []
    for ij, sb in zip(sum_ij, sum_b):
        if not adjusted:
            values.append((pairs + 2 * ij - sum_a - sb) / pairs)
            continue
        expected = sum_a * sb / pairs
        maximum = 0.5 * (sum_a + sb)
        if maximum == expected:
            values.append(1.0)  # both partitions degenerate and identical in structure
        else:
            values.append((ij - expected) / (maximum - expected))
    return values


@dataclass
class RandStats:
    """Min/mean/max of the rand index over repeated clustering restarts."""

    minimum: float
    mean: float
    maximum: float
    values: tuple[float, ...]
    adjusted: bool
    seed0: int


def repeated_kmeans(
    points,
    truth: Sequence,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed0: int = 0,
    adjusted: bool = True,
) -> RandStats:
    """Rand-index statistics of ``restarts`` independent K-Means runs.

    Seeds are seed0..seed0+restarts-1, so the whole sweep is reproducible
    from a single integer.
    """
    results = kmeans_restarts(points, k, range(seed0, seed0 + restarts))
    values = _rand_indices(truth, np.stack([r.assignments for r in results]), adjusted)
    return _rand_stats(values, adjusted, seed0)


def _rand_stats(values: list[float], adjusted: bool, seed0: int) -> RandStats:
    arr = np.asarray(values)
    return RandStats(
        minimum=float(arr.min()),
        mean=float(arr.mean()),
        maximum=float(arr.max()),
        values=tuple(values),
        adjusted=adjusted,
        seed0=seed0,
    )


# ---------------------------------------------------------------------------
# Feature-count sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    n_features: int
    columns: tuple[str, ...]
    stats: RandStats


@dataclass
class SweepCurve:
    entries: list[SweepEntry]
    chosen_k: int  # smallest feature count reaching the best minimum rand

    @property
    def chosen_entry(self) -> SweepEntry:
        for entry in self.entries:
            if entry.n_features == self.chosen_k:
                return entry
        raise ValidationError(f"sweep has no entry for k={self.chosen_k}")


def sweep_feature_count(
    values: np.ndarray,
    names: Sequence[str],
    truth: Sequence,
    scores: Sequence[FeatureScore],
    n_clusters: int = 3,
    restarts: int = DEFAULT_RESTARTS,
    seed0: int = 0,
    adjusted: bool = True,
    max_features: Optional[int] = None,
) -> SweepCurve:
    """Clustering quality as a function of how many top-scored columns stay.

    For each feature count w the top-w columns (by ANOVA F, ties by column
    order) get ``restarts`` K-Means runs, each bit for bit the run of
    ``repeated_kmeans`` on those columns, so every entry holds the same
    ``RandStats``. Width 1 runs through ``kmeans_restarts``, since numpy
    sums a one-column block pairwise. Every wider count's restarts run in
    the one engine with their own prefix width, in chunks of consecutive
    widths whose zero-padded (restarts, n, width) block holds at most
    ``_SWEEP_FLOATS`` floats (4 MB); see ``_prefix_assignments``. All
    labelings are then scored in one ``_rand_indices`` call. The
    preferred operating point is the smallest w whose minimum rand index
    over restarts is maximal — the worst case is what must be good.
    """
    values = np.asarray(values, dtype=float)
    names = list(names)
    if len(scores) != len(names):
        raise ValidationError("scores must cover every column")
    by_name = {s.name: i for i, s in enumerate(scores)}
    if set(by_name) != set(names):
        raise ValidationError("score names do not match matrix columns")
    if max_features is not None and max_features < 1:
        raise ValidationError("max_features must be >= 1")
    if len(truth) != len(values):
        # checked before any restart runs: the labelings are scored only at the end
        raise ValidationError("truth must label every row")
    limit = len(names) if max_features is None else min(max_features, len(names))
    # one ranking serves every w: top-w is a prefix of it
    ranking = select_k_best(scores, len(names))
    ranked = np.ascontiguousarray(values[:, [names.index(n) for n in ranking[:limit]]])

    seeds = list(range(seed0, seed0 + restarts))
    # one row per run, filled as the runs come: no list of every run's arrays
    labelings = np.empty((limit * len(seeds), len(ranked)), dtype=np.intp)
    for i, assignments in enumerate(_prefix_assignments(ranked, n_clusters, seeds)):
        labelings[i] = assignments
    rand = _rand_indices(truth, labelings, adjusted)
    entries = [
        SweepEntry(
            n_features=w,
            columns=tuple(ranking[:w]),
            stats=_rand_stats(rand[(w - 1) * restarts:w * restarts], adjusted, seed0),
        )
        for w in range(1, limit + 1)
    ]
    best_min = max(entry.stats.minimum for entry in entries)
    chosen = next(e.n_features for e in entries if e.stats.minimum == best_min)
    return SweepCurve(entries=entries, chosen_k=chosen)


def _prefix_assignments(ranked: np.ndarray, k: int, seeds: list[int]) -> Iterator[np.ndarray]:
    """The assignments of ``kmeans_restarts(ranked[:, :w], k, seeds)`` for
    w = 1..d in turn, from a few ``_lloyd`` calls. A generator: the caller
    need not hold every chunk's results at once.

    Width 1 runs on its own, through ``kmeans_restarts``: numpy sums a
    one-column block pairwise, so its means cannot come from a wider one.
    The wider prefixes run in chunks of consecutive widths, each padded to
    its widest. A chunk's padded (restarts, n, width) block holds at most
    ``_SWEEP_FLOATS`` floats, or one width's restarts when those alone take
    more. Each restart's squared row norms come from one ``cumsum``.
    """
    n, d = ranked.shape
    yield from (run.assignments for run in kmeans_restarts(ranked[:, :1], k, seeds))
    cumulative = np.cumsum(ranked * ranked, axis=1).T  # row w - 1: the squared norms at width w
    first = 2
    while first <= d:
        last = first
        while last < d and (last + 2 - first) * len(seeds) * n * (last + 1) <= _SWEEP_FLOATS:
            last += 1
        widths = np.repeat(np.arange(first, last + 1), len(seeds))
        xx = cumulative[widths - 1]
        yield from _lloyd(ranked[:, :last], xx, np.sqrt(xx), k, seeds * (last + 1 - first),
                          DEFAULT_MAX_ITER, DEFAULT_TOL, widths)[0]
        first = last + 1


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray           # (dims, d), orthonormal rows
    explained_variance: np.ndarray   # descending


def pca_fit(points, dims: int) -> PcaModel:
    """Top principal axes of the centered data, from its thin SVD: the
    eigenvectors of the sample covariance without forming it (d x d)."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = X.shape
    if not 1 <= dims <= min(n - 1, d):
        raise ValidationError(f"dims={dims} outside 1..min(n-1, d)={min(n - 1, d)}")
    mean = X.mean(axis=0)
    _, singular, vt = np.linalg.svd(X - mean, full_matrices=False)
    components = vt[:dims].copy()
    # deterministic sign: largest-magnitude coefficient is positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=singular[:dims] ** 2 / (n - 1),
    )


def pca_project(model: PcaModel, points) -> np.ndarray:
    X = np.atleast_2d(np.asarray(points, dtype=float))
    return (X - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Gaussian mixture via EM
# ---------------------------------------------------------------------------

@dataclass
class GmmResult:
    weights: np.ndarray           # (k,), sums to 1
    means: np.ndarray             # (k, d)
    covariances: np.ndarray       # (k, d, d), symmetric positive-definite
    responsibilities: np.ndarray  # (n, k), rows sum to 1
    log_likelihood: float
    ll_history: list[float]
    iterations: int
    converged: bool


def _log_gaussians(X: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(n, k) log densities from one Cholesky of the (k, d, d) stack; a
    failure names the first component that is not positive definite."""
    d = X.shape[1]
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        for j, cov in enumerate(covs):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"component {j}: covariance singular beyond regularization "
                    f"(min diagonal {cov.diagonal().min():.3e})"
                ) from exc
        raise
    y = np.linalg.solve(chol, (X[None, :, :] - means[:, None, :]).transpose(0, 2, 1))
    maha = np.einsum("kdn,kdn->nk", y, y)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def _covariances(X: np.ndarray, means: np.ndarray, resp: np.ndarray, nk: np.ndarray) -> np.ndarray:
    """(k, d, d) scatter about each mean, weighted by a column of ``resp``
    and divided by ``nk``, plus ``DEFAULT_GMM_REG`` on the diagonal."""
    diff = X[None, :, :] - means[:, None, :]
    covs = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff / nk[:, None, None]
    covs += DEFAULT_GMM_REG * np.eye(X.shape[1])
    return 0.5 * (covs + covs.transpose(0, 2, 1))


def gmm_em(points, k: int, seed: int = 0) -> GmmResult:
    """Full-covariance Gaussian mixture fitted by EM.

    Initialized from a K-Means run with the same seed (means = centers,
    weights = cluster fractions, covariances = within-cluster scatter about
    the centers plus ``DEFAULT_GMM_REG`` on the diagonal; an empty cluster
    starts at that diagonal). EM stops at the first iteration whose
    log-likelihood gain is below ``DEFAULT_GMM_TOL``, so every earlier
    iteration gained at least that much, or after ``DEFAULT_MAX_ITER``
    iterations. That last change can be negative: the ``DEFAULT_GMM_REG``
    added to each covariance makes the M-step inexact. On unit-variance
    data the loss stays below about 1e-9 (drops up to 1.5e-10 in 9 of 40
    seeds of three blobs in 5-D); it grows as component variances approach
    the regularization (up to 1.5e-2 on two 2-D blobs at sd 0.01 fitted
    with three components). ``converged`` is True only when EM stopped on
    a change in ``[-DEFAULT_GMM_TOL, DEFAULT_GMM_TOL)``; a run that stopped
    on a larger loss, or at ``DEFAULT_MAX_ITER``, reports False.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(X)
    if n <= k:
        raise ValidationError(f"need more than k={k} points, got {n}")

    init = kmeans(X, k, seed=seed)
    counts = np.bincount(init.assignments, minlength=k)
    weights = counts / n
    means = init.centers
    covs = _covariances(X, means, np.eye(k)[init.assignments], np.maximum(counts, 1.0))

    history: list[float] = []
    converged = False
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        with np.errstate(divide="ignore"):
            # an empty initial cluster has weight 0: its log is -inf on purpose
            log_weights = np.log(weights)
        log_prob = _log_gaussians(X, means, covs) + log_weights[None, :]
        log_norm = _logsumexp_rows(log_prob)
        ll = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])

        history.append(ll)
        if len(history) >= 2 and ll - history[-2] < DEFAULT_GMM_TOL:
            converged = ll - history[-2] >= -DEFAULT_GMM_TOL
            break

        nk = np.maximum(resp.sum(axis=0), 10 * np.finfo(float).eps)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        covs = _covariances(X, means, resp, nk)

    return GmmResult(
        weights=weights,
        means=means,
        covariances=covs,
        responsibilities=resp,
        log_likelihood=history[-1],
        ll_history=history,
        iterations=iterations,
        converged=converged,
    )


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------

@dataclass
class SilhouetteResult:
    scores: np.ndarray                     # per point, in [-1, 1]
    profiles: dict[int, np.ndarray]        # per cluster, sorted descending
    mean: float


def silhouette(points, assignments) -> SilhouetteResult:
    """Per-point silhouette scores plus per-cluster sorted profiles.

    s = (b - a) / max(a, b) with a the mean distance to the point's own
    cluster (excluding itself) and b the smallest mean distance to another
    cluster. Points in singleton clusters score 0 by convention.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(assignments)
    if labels.shape[0] != X.shape[0]:
        raise ValidationError("assignments must match points")
    clusters, codes = np.unique(labels, return_inverse=True)
    if clusters.size < 2:
        raise ValidationError("silhouette needs at least 2 clusters")

    sizes = np.bincount(codes)
    scores = np.zeros(len(X))
    diff = np.empty_like(X)  # one row of the distance matrix at a time: O(n*d) memory
    for i, own in enumerate(codes.tolist()):
        if sizes[own] <= 1:
            continue
        np.subtract(X[i], X, out=diff)
        dist = np.sqrt(np.einsum("md,md->m", diff, diff))
        sums = np.bincount(codes, weights=dist, minlength=clusters.size)
        a = sums[own] / (sizes[own] - 1)
        sums /= sizes
        sums[own] = np.inf
        b = sums.min()
        top = max(a, b)
        scores[i] = 0.0 if top == 0.0 else (b - a) / top

    profiles = {
        int(c): np.sort(scores[labels == c])[::-1].copy() for c in clusters
    }
    return SilhouetteResult(scores=scores, profiles=profiles, mean=float(scores.mean()))


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------

def _max_matching_total(weights: np.ndarray) -> int:
    """Largest total weight of a matching that pairs each row with at most
    one column and each column with at most one row, for non-negative
    integer ``weights``.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path
    form: rows join one at a time, each along a shortest alternating path
    under the dual potentials ``u`` and ``v``, O(r^2 c) for r <= c. It minimizes the cost ``-weights``; all
    arithmetic is on Python ints, so it is exact.
    """
    if weights.shape[0] > weights.shape[1]:
        weights = weights.T
    rows, cols = weights.shape
    cost = (-weights).tolist()
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    owner = [0] * (cols + 1)  # 1-based row matched to each column; 0 is free
    for row in range(1, rows + 1):
        owner[0] = row
        col = 0
        slack = [math.inf] * (cols + 1)
        way = [0] * (cols + 1)
        used = [False] * (cols + 1)
        while owner[col]:
            used[col] = True
            r = owner[col]
            delta, nxt = math.inf, 0
            for j in range(1, cols + 1):
                if not used[j]:
                    reduced = cost[r - 1][j - 1] - u[r] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, col
                    if slack[j] < delta:
                        delta, nxt = slack[j], j
            for j in range(cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            col = nxt
        while col:  # flip the augmenting path
            prev = way[col]
            owner[col] = owner[prev]
            col = prev
    return sum(-cost[owner[j] - 1][j - 1] for j in range(1, cols + 1) if owner[j])


def count_misassigned(truth: Sequence, predicted: Sequence) -> int:
    """Disagreements under the best one-to-one cluster-to-route matching
    (an assignment problem, solved in polynomial time; Kuhn 1955).

    The best total agreement is unique even when several matchings reach
    it, so the count does not depend on which one the solver finds.
    """
    t, p = _label_codes(truth), _label_codes(predicted)
    if len(t) != len(p):
        raise ValidationError("labelings must have equal length")
    n_truth, n_pred = int(t.max(initial=-1)) + 1, int(p.max(initial=-1)) + 1
    agree = np.bincount(p * n_truth + t, minlength=n_pred * n_truth).reshape(n_pred, n_truth)
    return len(t) - _max_matching_total(agree)
