"""Clustering machinery: Lloyd's K-Means with repeated restarts, rand-index
statistics, the feature-count sweep, PCA reduction, a full-covariance
Gaussian mixture fitted by EM, and silhouette scoring.

Everything is Euclidean and deterministic: each stochastic operation is a
pure function of its inputs and an integer seed, restarts use consecutive
seeds, and results are merged in seed order.

``_lloyd`` is the one Lloyd loop. ``kmeans_restarts`` calls it, and
``kmeans``, ``best_kmeans``, ``repeated_kmeans`` and the GMM
initialization call that; the feature-count sweep calls it directly. Both
entries apply the finite-norm rule (``_check_restarts``): a row norm at
the widest width used that is not finite (NaN, +-inf, or |x| above about
1.3e154, whose square overflows) raises ``ValidationError`` before any
restart runs, so every center is finite. The restarts are batched: each
round assigns the points of every restart still running from one GEMM
against all their centers, and a restart leaves the batch once it
converges. Each restart's result is bit for bit that of running it alone:
sums keep the rounding of the one-restart code, and assignments are
certified against the difference form. The GEMM gives ``|c|^2 - 2 x.c``
per row and center, k-1 elementwise passes keep each row's best and
runner-up value, and a row whose gap between them exceeds
``8 gamma_{d+4} (|x| + max|c|)^2`` keeps its best center; ties, near ties
and values that overflow are decided in the difference form. A round
costs what it changed: only clusters whose members changed get a new mean
(any other center already is that mean), and only those clusters' shifts
are computed and written. Restarts share that work: equal member sets
give equal sums, so each round sums every distinct member set of the
batch once, whichever restarts hold it. Inertia is computed once per
restart, from its final centers and assignment, and each distinct (row,
center value) term of a chunk once. ``kmeans_restarts`` runs restarts in
chunks sized by memory: the (restarts, k, dimensions) centers block of a
chunk holds at most 2 MB, or one restart's when that alone is larger.
``kmeans_restarts`` and the sweep each count the engine's work in one
``EngineWork`` and log it as one DEBUG line. The engine reads its
stopping rule, ``DEFAULT_TOL`` and ``DEFAULT_MAX_ITER``, at each call.

Each restart may have its own width: the run of its seed on the first w
columns. The feature-count sweep uses this to cluster every prefix of the
feature ranking in a few engine calls. A chunk holds consecutive widths,
runs on the block padded to its widest, and keeps each restart's centers
zero past its width; every step whose rounding depends on the width is
taken on the restart's own columns, so its assignments and its centers on
those columns are bit for bit those of its prefix alone. Width 1 runs on
its own, because numpy sums a one-column block pairwise. Sums run over
whole padded rows, so restarts of different widths that hold the same
rows share one sum, and each zeroes its own columns past its width;
neighbouring widths of one seed often reach the same clusters. A sweep
chunk's restarts x points x padded width stays within ``_SWEEP_FLOATS``,
each seed's initial rows are drawn once per sweep, and all its labelings
are scored in one rand-index pass.

The evaluation tail is in GEMM form too. ``silhouette`` takes the pairwise
distances of a row block from one product of the column-centred points,
``|x|^2 + |y|^2 - 2 x.y``, and recomputes in the difference form every pair
too close for that form's rounding (self-pairs, duplicates, non-finite
rows). The GMM's E-step solves its batched Cholesky factors by forward
substitution, one step per dimension over all components at once.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .features import column_index
from .preprocess import FeatureScore, select_k_best

log = logging.getLogger(__name__)

DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
DEFAULT_GMM_TOL = 1e-8
DEFAULT_GMM_REG = 1e-6
# Floats in the (restarts, k, d) centers block of one kmeans_restarts chunk:
# 2 MB, 57 restarts at k = 8 and d = 571. A chunk's largest arrays are this
# block, its results block and one round's distinct means; the GEMM's
# (n, restarts, k) center values are n/d of it. The larger the chunk, the more
# sums and inertia terms its restarts share: one 100-restart batch ran faster
# but left the allocator holding about 4 MB more, and 28-restart chunks held
# less and ran slower.
_CHUNK_FLOATS = 2**18
# Floats of one block of center updates in _lloyd, and of differences in
# _inertias: 512 KB. Updating every written center in one block ran slower
# on replay_week's 100 restarts (200 x 571, k = 8; medians 76-94 ms against
# 65-77 ms) and raised their tracemalloc peak from 9.1 to 11.1 MB.
_BLOCK_FLOATS = 2**16
# Restarts x points x padded width of one feature-count sweep chunk. It sets
# the multiply-adds of one round's assignment GEMM (k times this) and bounds
# the chunk's largest arrays: k/n of it for the (restarts, k, width) centers,
# k/width of it for the (n, restarts, k) center values (0.4 MB each at n = 60,
# k = 3). With sums shared by member set, 2**20 ran a 60-climb sweep in 201 ms
# against 271 ms at 2**19 and 193 ms at 2**21 (2 vCPUs, one BLAS thread);
# 2**21 held 1.5 MB more at its peak.
_SWEEP_FLOATS = 2**20


@dataclass
class EngineWork:
    """The restart engine's work in one ``kmeans_restarts`` or sweep call:
    ``_lloyd`` calls, Lloyd rounds (the longest restart of each call),
    restarts stopped at ``DEFAULT_MAX_ITER``, cluster sums computed and
    shared, rows that ``_assign`` decided in the difference form,
    ``_repair`` calls, and inertia terms computed and shared."""

    calls: int = 0
    rounds: int = 0
    max_iter_hits: int = 0
    sums: int = 0
    shared: int = 0
    fallback_rows: int = 0
    repairs: int = 0
    terms: int = 0
    shared_terms: int = 0

    def log(self, caller: str) -> None:
        """One DEBUG line of every count; the record carries this one as ``work``."""
        log.debug("%s: %d _lloyd calls, %d Lloyd rounds, %d restarts stopped at max_iter, %d "
                  "cluster sums computed, %d shared, %d rows assigned in the difference form, %d "
                  "_repair calls, %d inertia terms computed, %d shared",
                  caller, self.calls, self.rounds, self.max_iter_hits, self.sums, self.shared,
                  self.fallback_rows, self.repairs, self.terms, self.shared_terms,
                  extra={"work": self})


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


def _assign(X: np.ndarray, xnorm: np.ndarray, centers: np.ndarray, widths: np.ndarray,
            work: EngineWork) -> np.ndarray:
    """Nearest center per restart and row: ``argmin`` of ``_squared_distances``
    against each restart's centers, ties to the lowest index, without
    forming a difference tensor.

    ``centers`` is (A, k, d), the centers of A restarts; the result is
    (A, n). Restart a works on the prefix ``X[:, :widths[a]]``, and its
    centers are zero beyond that width. Row a of ``xnorm`` holds each
    row's norm at that width; ``|x|^2`` itself is common to all centers of
    a row, so the comparison leaves it out.

    One GEMM against all A*k centers gives ``|c|^2 - 2 x.c``, the squared
    distance less ``|x|^2``; the zeros of a narrower restart's centers only
    add exact zero products. It lies within ``gamma_{d+2} (|x| + |c|)^2`` of
    its exact value, and the difference form within as much of the exact
    squared distance, in any summation order and at any width up to d, so
    neither the width of the GEMM nor the padding can change a decision.
    From center 0 and a runner-up of +inf, k-1 elementwise passes over the
    (A, n) values of one center at a time keep each row's best value, its
    index (the lowest on ties) and the runner-up value; ``np.minimum`` and
    ``np.maximum`` carry a NaN into the runner-up. A row whose best beats
    the runner-up by more than ``8 gamma_{d+4} (|x| + max|c|)^2``, twice the
    sum of both errors with a factor 2 to spare, plus slack for subnormal
    rounding, has the same unique argmin in the difference form. Every other
    row, including ties and rows whose values overflow (their gap is NaN, or
    their bound inf), is decided by ``_squared_distances`` on the restart's
    own width; ``work`` counts those rows. At k = 1 every row gets center 0.
    """
    A, k, d = centers.shape
    n = X.shape[0]
    cc = np.einsum("akd,akd->ak", centers, centers)
    # block j holds every restart's value of center j: (k, A, n)
    values = (X @ centers.reshape(A * k, d).T).reshape(n, A, k).transpose(2, 1, 0)
    values *= -2.0
    values += cc.T[:, :, None]
    best, second, assign = values[0], np.full((A, n), np.inf), np.zeros((A, n), dtype=np.intp)
    for j in range(1, k):
        closer = values[j] < best
        np.minimum(second, np.maximum(best, values[j]), out=second)
        np.minimum(best, values[j], out=best)
        assign[closer] = j
    gap = np.subtract(second, best, out=second)
    # in place: on tiny inputs the temporaries cost more than the arithmetic
    bound = xnorm + np.sqrt(cc.max(axis=1))[:, None]
    bound *= bound
    bound *= 8.0 * _gamma(d + 4)
    bound += 8.0 * (d + 4) * _SMALLEST_SUBNORMAL
    unsure = ~(gap > bound)
    for a in np.flatnonzero(unsure.any(axis=1)).tolist():
        redo = np.flatnonzero(unsure[a])
        w = widths[a]
        assign[a, redo] = np.argmin(_squared_distances(X[redo, :w], centers[a, :, :w]), axis=1)
        work.fallback_rows += redo.size
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


# Sharing terms pays on replay_week's 100 restarts (200 x 571, k = 8): 65-77 ms
# against 84-94 ms for one einsum per restart; grouping centers by their bytes
# alone, without the sum as a hash, took 76-89 ms and 0.7 MB more at the peak.
def _inertias(X: np.ndarray, centers: np.ndarray, keys: np.ndarray,
              work: EngineWork) -> np.ndarray:
    """Sum of squared distances to the assigned centers, per restart; each
    term rounds as the matching entry of ``_squared_distances``, and each
    restart's terms are summed in row order. ``keys`` is ``a * k +
    assign[a]`` per restart a and row; ``work`` counts the terms.

    Restarts that end near one partition share most of their terms, so each
    distinct (row, center value) term is computed once, ``_BLOCK_FLOATS``
    floats of differences at a time. Centers, all finite, count as equal
    when their values compare equal: the squared difference to -0.0 and to
    0.0 is the same.
    """
    A, k, d = centers.shape
    n = len(X)
    flat = centers.reshape(A * k, d)
    # the sum of a center is a hash of its values: equal centers have equal
    # sums, and -0.0 and 0.0 sort as one
    _, first, value = np.unique(flat.sum(axis=1), return_index=True, return_inverse=True)
    alone = np.flatnonzero(~(flat == flat[first[value]]).all(axis=1))
    if alone.size:
        # centers that share a sum with an unequal one: grouped by bytes, -0.0 + 0.0 as 0.0
        canonical = (flat[alone] + 0.0).view(np.dtype((np.void, 8 * d))).ravel()
        value[alone] = A * k + np.unique(canonical, return_inverse=True)[1]
    terms, first, which = np.unique(value[keys] * n + np.arange(n), return_index=True,
                                    return_inverse=True)
    rows, centered = first % n, keys.ravel()[first]
    squares = np.empty(terms.size)
    per_block = max(1, _BLOCK_FLOATS // max(1, d))
    for lo in range(0, terms.size, per_block):
        diff = flat[centered[lo:lo + per_block]]
        # in place: a second block-sized array measured slower than the arithmetic
        np.subtract(X[rows[lo:lo + per_block]], diff, out=diff)
        squares[lo:lo + per_block] = np.einsum("pd,pd->p", diff, diff)
    work.terms += terms.size
    work.shared_terms += keys.size - terms.size
    return squares[which].reshape(A, n).sum(axis=1)


def _means(X: np.ndarray, centers: np.ndarray, keys: np.ndarray,
           changed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of each changed cluster's members, per restart, summed once per
    distinct member set: the flat indices (``a * k + j``) of the clusters
    it wrote, the distinct means, one row each, and per written cluster
    the row of its mean. Every other cluster, and an empty one, keeps its
    center, so only the written clusters are read or returned; ``centers``
    gives the shape alone. ``keys`` as for ``_inertias``; ``changed``
    flags each of the A*k clusters.

    Clusters of any restarts, and of any widths, that hold the same rows
    have equal sums bit for bit: every sum runs over whole rows of X. So
    the written clusters are grouped by their packed membership bitmaps,
    with one ``np.unique`` over the bitmaps' bytes, and each group's rows,
    gathered in row order, are the very C-ordered block ``X[assign[a] ==
    j]`` is: each sum rounds as that one does, numpy's pairwise sum at
    d = 1 included. ``np.add.reduceat`` over sorted rows would round
    differently. Each distinct set is gathered on its own: one block of
    every member would be as large as the chunk's (restarts, n, d).
    """
    A, k, d = centers.shape
    sizes = np.bincount(keys.ravel(), minlength=A * k)
    written = np.flatnonzero(changed & (sizes > 0))
    members = keys[written // k] == written[:, None]
    bitmaps = np.packbits(members, axis=1)
    _, first, which = np.unique(bitmaps.view(np.dtype((np.void, bitmaps.shape[1]))).ravel(),
                                return_index=True, return_inverse=True)
    rows = np.nonzero(members[first])[1]  # set by set, each in row order
    counts = sizes[written[first]]
    means = np.empty((first.size, d))
    for i, (end, size) in enumerate(zip(counts.cumsum().tolist(), counts.tolist())):
        np.add.reduce(X[rows[end - size:end]], axis=0, out=means[i])
    # the arithmetic of each block's mean(axis=0), without its overhead
    means /= counts[:, None]
    return written, means, which


def _initial_rows(n: int, k: int, seed: int) -> tuple[int, ...]:
    """The k distinct rows that seed a restart."""
    return tuple(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


@functools.lru_cache(maxsize=64)
def _seed_rows(n: int, k: int, seeds: tuple[int, ...]) -> np.ndarray:
    """Row a: ``_initial_rows`` of ``seeds[a]``, read-only: the (A, k)
    initial rows of ``_lloyd``. The cache serves repeated calls, which
    would each build a generator per seed; a sweep draws its seeds once for
    all its chunks. Not keyed by seed: chunks scan the seeds in order, so a
    per-seed cache with fewer slots than seeds would miss on every lookup."""
    rows = np.array([_initial_rows(n, k, seed) for seed in seeds], dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _check_restarts(k: int, norms: np.ndarray, seeds: list[int]) -> None:
    """The door of ``kmeans_restarts`` and the sweep; ``norms`` are the row norms."""
    if not 1 <= k <= len(norms):
        raise ValidationError(f"k={k} outside 1..n={len(norms)}")
    if not seeds:
        raise ValidationError("K-Means restarts need at least one seed")
    if min(seeds) < 0:
        raise ValidationError(f"K-Means seeds must be >= 0, got {min(seeds)}")
    if not np.isfinite(norms).all():
        raise ValidationError("K-Means needs finite points whose squared norms do not overflow")


def kmeans_restarts(points, k: int, seeds: Iterable[int]) -> list[KMeansResult]:
    """One K-Means run per seed (see ``kmeans``), in seed order.

    The restarts advance together: every Lloyd round assigns the points of
    all restarts still running from one GEMM, and a restart leaves the
    batch when it converges. Batching changes no result: each one is bit
    for bit the run of its seed alone. A cluster whose members did not
    change in a round keeps its center, the mean of those same rows; the
    clusters that changed are summed once per distinct member set across
    the batch. Each restart's inertia is computed once, at the end, from
    the chunk's distinct (row, center) terms. Restarts run in chunks whose
    (restarts, k, d) centers blocks hold at most ``_CHUNK_FLOATS`` floats.
    The results of a chunk are views of its assignment and centers blocks.
    Every restart here uses all d columns; the feature-count sweep gives
    each restart of the same engine its own prefix width. One DEBUG line
    per call counts the engine's work (see ``EngineWork``).
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    n, d = X.shape
    seeds = list(seeds)
    xnorm = np.sqrt(np.einsum("nd,nd->n", X, X))
    _check_restarts(k, xnorm, seeds)
    per_chunk = max(1, _CHUNK_FLOATS // max(1, k * d))
    results: list[KMeansResult] = []
    work = EngineWork()
    for start in range(0, len(seeds), per_chunk):
        chunk = seeds[start:start + per_chunk]
        assigns, centers, rounds = _lloyd(X, np.broadcast_to(xnorm, (len(chunk), n)),
                                          _seed_rows(n, k, tuple(chunk)), np.full(len(chunk), d),
                                          work)
        keys = np.arange(0, len(chunk) * k, k)[:, None] + assigns
        inertias = _inertias(X, centers, keys, work).tolist()
        results += map(KMeansResult, assigns, centers, inertias, rounds, chunk)
    work.log("kmeans_restarts")
    return results


def _lloyd(X, xnorm, rows: np.ndarray, widths: np.ndarray,
           work: EngineWork) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Lloyd rounds of one chunk of restarts, all advancing together; the
    restarts' final assignments (A, n), their final centers (A, k, d) and
    each one's number of rounds, in the order of ``rows``. Each restart
    stops when no center moves by ``DEFAULT_TOL`` or more, or after
    ``DEFAULT_MAX_ITER`` rounds; both are read at each call. ``work``
    counts the rounds, the sums and the repairs.

    Restart a starts from the centers ``X[rows[a]]`` and is the run of its
    seed on the prefix ``X[:, :widths[a]]``; row a of ``xnorm`` holds the
    norms of the rows at that width. A restart narrower than X keeps its
    centers zero beyond its width. Its means sum whole rows of X column by
    column, which rounds as the prefix does, and lose the columns past its
    width. At width 1 numpy sums a one-column block pairwise instead, so a
    width-1 restart may only run in a chunk where X has one column. Every
    step whose rounding depends on the number of columns is taken on the
    restart's own slice: the fallback of ``_assign``, ``_repair`` and a
    shift within a rounding band of ``DEFAULT_TOL``. A restart's centers
    come back at the width of X, zero past its own; the inertia is left to
    the caller, since the sweep reads only the assignments.

    A round reads and writes only the clusters it rewrote: those whose
    members changed, because a row entered or left or ``_repair`` ran in
    that restart. Any other cluster's center is already the mean of its
    members, summed over the same rows in the same order. ``_means`` sums
    the rewritten clusters once per distinct member set, whatever restart
    or width they belong to, since the sums of whole rows of X are bit for
    bit equal. Their shifts and comparisons are taken on those rows, and
    the means are written into the centers in place, ``_BLOCK_FLOATS``
    floats at a time in an unpadded chunk; a padded chunk's centers are at
    most k/n of ``_SWEEP_FLOATS``, and it keeps its steps for the band
    check. A kept center's shift is an exact 0: under the finite-norm rule
    every center is finite. A round's sums, means and steps are released
    before the next round assigns.
    A repaired restart also stops on a fixed point: its assignment equals
    last round's and its new means equal the centers it started the round
    from. ``_repair`` moved those centers, so the shift cannot see it.

    The restarts that stop in a round leave together: their rounds, their
    centers, and their assignment when their centers did not move, are
    stored with one indexing each. The centers block starts as the seed
    rows, which a ``DEFAULT_MAX_ITER`` of 0 assigns to.
    """
    max_iter, tol = DEFAULT_MAX_ITER, DEFAULT_TOL
    n, d = X.shape
    A, k = rows.shape
    padded = bool((widths < d).any())
    columns = np.arange(d)
    centers = X[rows]
    if padded:
        np.copyto(centers, 0.0, where=columns >= widths[:, None, None])
        # the sum of one shift can round differently padded than at its own width
        band = 4.0 * _gamma(d + 2) * tol
        narrowest = int(widths.min())
    last = centers.copy()  # each restart's centers when it stopped
    final = np.empty((A, n), dtype=np.intp)  # each assignment, once known
    known = np.zeros(A, dtype=bool)
    rounds = np.zeros(A, dtype=int)
    live = np.arange(A)
    live_xnorm, live_widths = xnorm, widths
    previous = None  # the live restarts' assignments in the last round
    for it in range(1, max_iter + 1):
        assign = _assign(X, live_xnorm, centers, live_widths, work)
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
            work.repairs += len(empty)
        if previous is None:
            changed = np.ones(len(live) * k, dtype=bool)
        else:
            moved = assign != previous
            changed = np.zeros(len(live) * k, dtype=bool)
            changed[keys[moved]] = True
            changed[(offsets + previous)[moved]] = True
            for a in empty:
                changed[a * k:(a + 1) * k] = True
        written, means, which = _means(X, centers, keys, changed)
        work.sums += len(means)
        work.shared += written.size - len(means)
        flat = centers.reshape(-1, d)
        squares = np.zeros(len(flat))
        differs = np.zeros(len(flat), dtype=bool)
        per_block = max(1, written.size if padded else _BLOCK_FLOATS // d)
        for lo in range(0, written.size, per_block):
            rows = written[lo:lo + per_block]
            new = means[which[lo:lo + per_block]]
            if padded:
                # only the columns past the chunk's narrowest width can be padding
                np.copyto(new[:, narrowest:], 0.0,
                          where=columns[narrowest:] >= live_widths[rows // k][:, None])
            step = flat[rows]
            differs[rows] = (new != step).any(axis=1)
            # in place: the (rows, d) temporaries cost more than the arithmetic
            np.square(np.subtract(new, step, out=step), out=step)
            squares[rows] = step.sum(axis=1)
            flat[rows] = new
        means = None
        shift = np.sqrt(squares.reshape(-1, k)).max(axis=1)
        unchanged = ~differs.reshape(-1, k).any(axis=1)
        stop = shift < tol
        if padded and written.size:
            # with nothing written every shift is 0, which the band cannot move
            owner = written // k
            for a in np.flatnonzero((abs(shift - tol) <= band) & (live_widths < d)).tolist():
                own = step[owner == a, :live_widths[a]].sum(axis=1)
                stop[a] = np.sqrt(own).max(initial=0.0) < tol
        new = step = None
        stop |= it == max_iter
        if empty and previous is not None:
            stop[empty] |= (assign[empty] == previous[empty]).all(axis=1) & (
                centers[empty] == started).all(axis=(1, 2))
        previous = assign
        if stop.any():
            rounds[live[stop]] = it
            # the assignment is a function of the centers, which did not move
            done = stop & unchanged
            final[live[done]] = assign[done]
            known[live[done]] = True
            last[live[stop]] = centers[stop]
            keep = ~stop
            live = live[keep]
            if not live.size:
                break
            centers, previous = centers[keep], assign[keep]
            live_xnorm, live_widths = live_xnorm[keep], live_widths[keep]

    # restarts whose centers moved in their last round get one more assignment
    pending = np.flatnonzero(~known)
    if pending.size:
        final[pending] = _assign(X, xnorm[pending], last[pending], widths[pending], work)
    rounds = rounds.tolist()
    work.calls += 1
    work.rounds += max(rounds)
    work.max_iter_hits += rounds.count(max_iter)
    return final, last, rounds


def kmeans(points, k: int, seed: int = 0) -> KMeansResult:
    """Lloyd's algorithm from k distinct data points picked by the seed.

    Assignment ties break toward the lowest cluster index. If a cluster
    empties, the point currently farthest from its center becomes that
    cluster's new singleton center. A cluster whose members did not change
    keeps its center, which already is their mean. Stops when no center
    moves by ``DEFAULT_TOL`` or more, when a round that repaired a cluster
    ends on last round's assignment and on the centers it started from (a
    fixed point that the repair's moved centers would hide from the
    tolerance), or after ``DEFAULT_MAX_ITER`` rounds; the inertia is that
    of the final centers and assignment. The engine reads both constants
    at each call; with a ``DEFAULT_MAX_ITER`` of 0 it runs no round and
    assigns the points to the seed rows, the initial centers.

    k clusters are not guaranteed to stay populated. With fewer than k
    distinct points, the farthest point already sits on a center, its
    copy loses the tie to the lower index, and a cluster stays empty: ten
    points of two values at ``k=3`` give sizes 5, 5 and 0. The final
    assignment is not repaired either.

    Input is copied to C order first, so a point set gives the same result
    in any memory layout. Points that break the finite-norm rule, and a
    negative seed, raise ``ValidationError``. This is the one-seed call of
    ``kmeans_restarts``.
    """
    return kmeans_restarts(points, k, [seed])[0]


def best_kmeans(
    points,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed0: int = 0,
) -> KMeansResult:
    """Lowest-inertia run over consecutive seeds; ties keep the lowest seed."""
    results = kmeans_restarts(points, k, range(seed0, seed0 + restarts))
    best = min(results, key=lambda result: result.inertia)
    # copies: a view would keep its chunk's whole blocks alive
    return replace(best, assignments=best.assignments.copy(), centers=best.centers.copy())


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
    """Min/mean/max of the rand index over repeated clustering restarts,
    and each restart's value in seed order."""

    minimum: float
    mean: float
    maximum: float
    values: tuple[float, ...]


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
    return _rand_stats(values)


def _rand_stats(values: list[float]) -> RandStats:
    arr = np.asarray(values)
    return RandStats(
        minimum=float(arr.min()),
        mean=float(arr.mean()),
        maximum=float(arr.max()),
        values=tuple(values),
    )


# ---------------------------------------------------------------------------
# Feature-count sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    n_features: int  # the entry clusters the columns ranking[:n_features] of its curve
    stats: RandStats


@dataclass
class SweepCurve:
    entries: list[SweepEntry]
    chosen_k: int  # smallest feature count reaching the best minimum rand
    ranking: list[str]  # every column, best score first

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
    order; the curve's ``ranking``, held once for every entry) get
    ``restarts`` K-Means runs, each bit for bit the run of
    ``repeated_kmeans`` on those columns, so every entry holds the same
    ``RandStats``. Every count's restarts run in the one engine with their
    own prefix width, in chunks of consecutive widths, and clusters that
    hold the same rows in one round share one sum, whatever their seeds
    and widths (see ``_prefix_assignments``). All labelings are then
    scored in one ``_rand_indices`` call. One DEBUG line counts the
    engine's work (see ``EngineWork``). The preferred operating point is
    the smallest w whose minimum rand index over restarts is maximal —
    the worst case is what must be good.
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
    index = column_index(names)
    ranked = np.ascontiguousarray(values[:, [index[n] for n in ranking[:limit]]])

    seeds = list(range(seed0, seed0 + restarts))
    with np.errstate(over="ignore"):  # an overflowing row is refused by the check
        squares = np.cumsum(ranked * ranked, axis=1).T  # row w - 1: the squared norms at width w
    _check_restarts(n_clusters, np.sqrt(squares[-1]), seeds)
    # one row per run, filled as the runs come: no list of every run's arrays
    labelings = np.empty((limit * len(seeds), len(ranked)), dtype=np.intp)
    work = EngineWork()
    for i, assignments in enumerate(_prefix_assignments(ranked, squares, n_clusters, seeds, work)):
        labelings[i] = assignments
    work.log("sweep_feature_count")
    rand = _rand_indices(truth, labelings, adjusted)
    entries = [
        SweepEntry(n_features=w, stats=_rand_stats(rand[(w - 1) * restarts:w * restarts]))
        for w in range(1, limit + 1)
    ]
    best_min = max(entry.stats.minimum for entry in entries)
    chosen = next(e.n_features for e in entries if e.stats.minimum == best_min)
    return SweepCurve(entries=entries, chosen_k=chosen, ranking=ranking)


def _prefix_assignments(ranked: np.ndarray, squares: np.ndarray, k: int, seeds: list[int],
                        work: EngineWork) -> Iterator[np.ndarray]:
    """The assignments of ``kmeans_restarts(ranked[:, :w], k, seeds)`` for
    w = 1..d in turn, from a few ``_lloyd`` calls. A generator: the caller
    need not hold every chunk's results at once.

    Width 1 runs on its own: numpy sums a one-column block pairwise, so
    its means cannot come from a wider one. The wider prefixes run in
    chunks of consecutive widths, every seed at each, on the columns up to
    the chunk's widest. A chunk's restarts x n x padded width is at most
    ``_SWEEP_FLOATS``, unless one width's restarts alone exceed it; no
    array of that size is formed (see ``_SWEEP_FLOATS``). In each round
    the chunk sums each distinct member set once: neighbouring widths of
    one seed, and often other seeds, hold the same clusters, and a sum of
    whole padded rows serves every width. The seeds' initial rows are
    drawn once and tiled over each chunk's widths; row w - 1 of
    ``squares`` holds the squared row norms at width w.
    """
    n, d = ranked.shape
    rows = _seed_rows(n, k, tuple(seeds))
    first = 1
    while first <= d:
        last = first
        while 1 < first and last < d and \
                (last + 2 - first) * len(seeds) * n * (last + 1) <= _SWEEP_FLOATS:
            last += 1
        widths = np.repeat(np.arange(first, last + 1), len(seeds))
        yield from _lloyd(ranked[:, :last], np.sqrt(squares[widths - 1]),
                          np.tile(rows, (last + 1 - first, 1)), widths, work)[0]
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
    eigenvectors of the sample covariance without forming it (d x d).
    Points holding NaN or inf raise ``ValidationError``."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = X.shape
    if not 1 <= dims <= min(n - 1, d):
        raise ValidationError(f"dims={dims} outside 1..min(n-1, d)={min(n - 1, d)}")
    if not np.isfinite(X).all():
        raise ValidationError("PCA needs finite points")
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
    failure names the first component that is not positive definite.

    The Mahalanobis terms come from forward substitution on the lower
    factors: row i of every component's solution is its centred data's
    row i, less one einsum over the rows already solved, over the
    diagonal entry: d steps, each for all k components at once, where
    ``np.linalg.solve`` would LU-factor the triangular factors again.
    """
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
    # (k, d, n) centred data, C-ordered so that each row is contiguous; solved in place
    y = np.subtract(X.T, means[:, :, None], order="C")
    for i in range(d):
        if i:
            y[:, i] -= np.einsum("kj,kjn->kn", chol[:, i, :i], y[:, :i])
        y[:, i] /= chol[:, i, i, None]
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

    Initialized from a K-Means run with the same seed, which refuses points
    that break its finite-norm rule (means = centers, weights = cluster
    fractions, covariances = within-cluster scatter about the centers plus
    ``DEFAULT_GMM_REG`` on the diagonal; an empty cluster starts at that
    diagonal). EM stops at the first iteration whose log-likelihood gain is
    below ``DEFAULT_GMM_TOL``, so every earlier iteration gained at least
    that much, or after ``DEFAULT_MAX_ITER`` iterations. That last change
    can be negative: the ``DEFAULT_GMM_REG`` added to each covariance makes
    the M-step inexact. On unit-variance data the loss stays below about
    1e-9 (drops up to 1.5e-10 in 9 of 40 seeds of three blobs in 5-D); it
    grows as component variances approach the regularization (up to 1.5e-2
    on two 2-D blobs at sd 0.01 fitted with three components). ``converged``
    is True only when EM stopped on a change in
    ``[-DEFAULT_GMM_TOL, DEFAULT_GMM_TOL)``; a run that stopped on a larger
    loss, or at ``DEFAULT_MAX_ITER``, reports False.
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

    if not converged:
        log.warning("GMM EM stopped unconverged after %d iterations; last log-likelihood "
                    "change %.3e", iterations, history[-1] - history[-2])
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
    profiles: dict[Hashable, np.ndarray]   # per cluster label, sorted descending
    mean: float


# An expanded squared distance of two centred rows x, y is used only when it
# is at least this share of (|x| + |y|)^2, its rounding bound's scale.
_EXPANDED_SHARE = 1.0 / 32.0
# The smallest normal double: a squared distance below (d + 4) of these may
# hold subnormal rounding, which is absolute, not relative.
_TINY = float(np.finfo(float).tiny)
# Floats in one row block of the n-wide distance matrix: 8 MB.
_DISTANCE_FLOATS = 2**20


def silhouette(points, assignments) -> SilhouetteResult:
    """Per-point silhouette scores plus per-cluster sorted profiles, each
    keyed by its cluster's label as a Python scalar (an int for K-Means ids).

    s = (b - a) / max(a, b) with a the mean distance to the point's own
    cluster (excluding itself) and b the smallest mean distance to another
    cluster. Points in singleton clusters score 0 by convention.

    Cost: one GEMM per row block. The points are sorted by cluster and
    centred on their column means; the product of a block's rows with all
    rows gives every squared distance in the expanded form
    ``|x|^2 + |y|^2 - 2 x.y``, and one segmented sum over the sorted
    columns gives each row's distance sum per cluster. Memory: O(n*d) for
    the centred points, plus a row block of at most ``_DISTANCE_FLOATS``
    floats of the n-wide distance matrix and a few temporaries of its
    size; no (n, n, d) difference is ever formed.

    Accuracy: the expanded form lies within ``gamma_{d+2} (|x| + |y|)^2``
    of the exact squared distance of the centred rows x and y. A pair takes
    it only when it is at least ``_EXPANDED_SHARE (|x| + |y|)^2`` (1/32;
    plus ``(d + 4)`` smallest normals, below which rounding is absolute), so
    its squared distance is within ``32 gamma_{d+2}`` relative and its
    distance within about ``16 gamma_{d+2}`` (1e-12 at d = 571), plus a few
    unit roundoffs from the centring. Every other pair is recomputed in the
    difference form ``X[i] - X[j]`` on the raw rows, as a row loop computes
    it: self-pairs (exactly 0), duplicate and near-duplicate rows, and every
    pair with a NaN, infinite or overflowing row. Their count is logged at
    DEBUG.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(assignments)
    if labels.shape[0] != X.shape[0]:
        raise ValidationError("assignments must match points")
    clusters, codes = np.unique(labels, return_inverse=True)
    if clusters.size < 2:
        raise ValidationError("silhouette needs at least 2 clusters")

    n, d = X.shape
    sizes = np.bincount(codes)
    # stably sorted by cluster: each cluster's columns are one run, in row order
    order = np.argsort(codes, kind="stable")
    own = codes[order]
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    xs = X[order]  # C-ordered, so that the fallback gathers whole rows
    with np.errstate(over="ignore", invalid="ignore"):
        # non-finite or overflowing rows are recomputed in the difference form
        xc = xs - xs.mean(axis=0)
        xx = np.einsum("nd,nd->n", xc, xc)
    xnorm = np.sqrt(xx)
    nonfinite = ~np.isfinite(xx)
    floor = (d + 4) * _TINY
    per_fallback = max(1, _DISTANCE_FLOATS // max(1, d))
    a, b = np.empty(n), np.empty(n)
    exact = 0
    step = max(1, _DISTANCE_FLOATS // n)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        # in place: the block's temporaries set this routine's peak memory
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = xc[lo:hi] @ xc.T
            d2 *= -2.0
            d2 += xx[lo:hi, None]
            d2 += xx
            bound = xnorm[lo:hi, None] + xnorm
            bound *= bound
            bound *= _EXPANDED_SHARE
            bound += floor
            unsure = ~(d2 >= bound)
        del bound
        if nonfinite.any():
            unsure[:, nonfinite] = True
            unsure[nonfinite[lo:hi]] = True
        rows, cols = np.nonzero(unsure)
        exact += rows.size
        for first in range(0, rows.size, per_fallback):
            r, c = rows[first:first + per_fallback], cols[first:first + per_fallback]
            diff = xs[lo + r] - xs[c]
            d2[r, c] = np.einsum("pd,pd->p", diff, diff)
        np.sqrt(d2, out=d2)
        sums = np.add.reduceat(d2, starts, axis=1)
        block, mine = np.arange(hi - lo), own[lo:hi]
        a[lo:hi] = sums[block, mine]
        sums /= sizes
        sums[block, mine] = np.inf
        b[lo:hi] = sums.min(axis=1)
    log.debug("silhouette: %d of %d pairs recomputed in the difference form", exact, n * n)

    a /= np.maximum(sizes[own] - 1, 1)
    top = np.where(b > a, b, a)  # Python's max(a, b): a NaN b keeps a
    scored = (sizes[own] > 1) & (top != 0.0)
    scores = np.zeros(n)
    scores[order[scored]] = (b[scored] - a[scored]) / top[scored]

    profiles = {
        c: np.sort(scores[codes == i])[::-1].copy() for i, c in enumerate(clusters.tolist())
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
