"""Clustering machinery: Lloyd's K-Means with repeated restarts, rand-index
statistics, the feature-count sweep, PCA reduction, a full-covariance
Gaussian mixture fitted by EM, and silhouette scoring.

Everything is Euclidean and deterministic: each stochastic operation is a
pure function of its inputs and an integer seed, restarts use consecutive
seeds, and results are merged in seed order.

``_lloyd`` is the one Lloyd loop and ``_runs`` the one driver that calls
it. ``kmeans_restarts`` is the driver at the points' one width, and
``kmeans``, ``best_kmeans``, ``repeated_kmeans`` and the GMM
initialization call that; the feature-count sweep is the driver at every
prefix width. The driver applies the finite-norm rule
(``_check_restarts``): a row norm at the widest width that is not finite
(NaN, +-inf, or |x| above about 1.3e154, whose square overflows) raises
``ValidationError`` before any restart runs, so every center is finite.
The restarts are batched, and a restart leaves the batch once it
converges. Each restart's result is bit for bit that of running it alone,
as Lloyd's algorithm on explicit float centers computes it, except that
every center is the mean of its member set: a center of one row (a seed
row, or a row ``_repair`` moved a cluster onto) reads a -0.0 as +0.0,
which no distance, shift or comparison sees.

During the rounds a restart's state is its member sets alone: center j
is the mean of its member rows, one row at first, and the members are a
row of a weight matrix W, 1/count on each member. One product a round
gives ``x.c`` for every row and every center whose members changed,
across the batch: ``W G`` with the Gram matrix G of the rows when a
restart is wider than there are rows, ``(W X) X^T`` otherwise
(``_products``). From the products come the estimates ``|c|^2 - 2 x.c``
that assign the rows and the squared shifts of the clusters whose
members changed, each within a stated rounding bound of what the float
centers give (``_assign``, ``_lloyd``). A decision the estimate cannot
certify -- a row near a tie, a shift near ``DEFAULT_TOL``, anything that
overflows -- and every ``_repair`` are taken exactly as on explicit
centers, from the float centers that ``_centers`` sums for that restart
alone. So a round sums no cluster unless it needs one; the final centers
of ``kmeans_restarts`` are summed once, each distinct member set of a
chunk once, and its inertias are computed once, each distinct (row,
member set) term once.

Each restart may have its own width: the run of its seed on the first w
columns. The driver runs its (width, seed) pairs in width-major order, in
chunks of consecutive pairs under one rule for both callers: a chunk's
(restarts, k, max(n, widest)) blocks hold at most ``_CHUNK_FLOATS``
floats, and a chunk of several widths reads at most ``_SWEEP_FLOATS``
restarts x points x columns in a round's products. Every step whose
rounding depends on the width is taken on the restart's own columns, so
its assignments are bit for bit those of its prefix alone. Each driver
call counts the engine's work in one ``EngineWork`` and logs it as one
DEBUG line; the engine reads its stopping rule, ``DEFAULT_TOL`` and
``DEFAULT_MAX_ITER``, at each call. The sweep reads only assignments, so
it sums no final centers, and it scores all its labelings in one
rand-index pass.

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
# The memory limit of every engine chunk (_runs): floats in each (restarts,
# k, max(n, widest width)) block, 2 MB, 57 restarts at k = 8 and d = 571.
# Each round holds a few such blocks of (restarts, k, n) weights, products
# and estimates; the final centers of a kmeans_restarts chunk are one
# (restarts, k, d) block. The larger the chunk, the more final sums and
# inertia terms its restarts share. On replay_week's 100 restarts, one
# batch ran no faster (medians of 35 ms against 35-39 ms) and raised the
# tracemalloc peak from 7.3 to 10.1 MB; 28-restart chunks held 6.3 MB and
# ran 36-39 ms.
_CHUNK_FLOATS = 2**18
# Floats of one block of differences in _inertias and _squared_distances: 512 KB.
_BLOCK_FLOATS = 2**16
# The padding limit of an engine chunk that spans several widths (the
# feature-count sweep): restarts x points x the columns a round's products
# read per restart, the padded width for (W X) X^T, or n plus the widths
# past the narrowest for W G + (W X) X^T on a chunk wider than the rows. A
# round's multiply-adds are k times this at most, twice for (W X) X^T. On
# the 60-climb sweep, with whole widths per chunk, 2**20 ran in medians of
# 61-63 ms against 65-71 ms at 2**19 and 62-66 ms at 2**21, whose
# tracemalloc peak was 1.6 MB higher (2 vCPUs, one BLAS thread).
_SWEEP_FLOATS = 2**20


@dataclass
class EngineWork:
    """The restart engine's work in one run of its driver, ``_runs``, by
    ``kmeans_restarts`` or the sweep: ``_lloyd`` calls (one per chunk),
    Lloyd rounds (the longest restart of each call), restarts stopped at
    ``DEFAULT_MAX_ITER``, cluster sums computed and shared (only for exact
    decisions and final centers: ``_centers``), rows whose nearest center
    the estimate could not certify, so that the difference form decided
    them, rounds whose stop a restart decided on its float centers,
    ``_repair`` calls, and inertia terms computed and shared, one per
    distinct (row, member set) of a chunk (``_inertias``)."""

    calls: int = 0
    rounds: int = 0
    max_iter_hits: int = 0
    sums: int = 0
    shared: int = 0
    fallback_rows: int = 0
    exact_stops: int = 0
    repairs: int = 0
    terms: int = 0
    shared_terms: int = 0

    def log(self, caller: str) -> None:
        """One DEBUG line of every count; the record carries this one as ``work``."""
        log.debug("%s: %d _lloyd calls, %d Lloyd rounds, %d restarts stopped at max_iter, %d "
                  "cluster sums computed, %d shared, %d rows assigned in the difference form, %d "
                  "stops decided on float centers, %d _repair calls, %d inertia terms computed, "
                  "%d shared", caller, self.calls, self.rounds, self.max_iter_hits, self.sums,
                  self.shared, self.fallback_rows, self.exact_stops, self.repairs, self.terms,
                  self.shared_terms, extra={"work": self})


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
    """(n, k) squared distances in the difference form, one block of rows
    at a time, each block's differences at most about ``_BLOCK_FLOATS``
    floats. On rows in C order, as every caller passes them, an entry
    rounds as in one (n, k, d) block."""
    (n, d), k = points.shape, len(centers)
    d2 = np.empty((n, k))
    per_block = max(1, _BLOCK_FLOATS // max(1, k * d))
    for lo in range(0, n, per_block):
        diff = points[lo:lo + per_block, None, :] - centers[None, :, :]
        np.einsum("nkd,nkd->nk", diff, diff, out=d2[lo:lo + per_block])
    return d2


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# absolute rounding of one product in the subnormal range is at most half of this
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _gamma(m: int) -> float:
    """Higham's gamma_m, the relative error bound of m roundings."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _products(X: np.ndarray, gram: Optional[np.ndarray], base: int, weights: np.ndarray,
              widths: np.ndarray) -> np.ndarray:
    """``x_i . m`` for every row i and weighted mean m: (A, k, n) from the
    (A, k, n) ``weights`` of A restarts, each on its prefix
    ``X[:, :widths[a]]``, from BLAS products in the cheaper order. An entry
    that overflows is inf or NaN, never a warning.

    ``gram``, when given, is the Gram matrix of the first ``base`` columns,
    and no restart is narrower than ``base``: its part is ``W G``, n
    multiply-adds per entry. The columns from ``base`` to a restart's
    width, all of them without a Gram matrix, give ``(W X) X^T``; the
    weighted sums ``W X`` are zeroed past each restart's width, so the
    padding adds exact zeros. Either way an entry lies within
    ``gamma_{n+d+2} |x_i| mu`` of ``x_i . m``, mu the weighted mean of the
    members' norms at the restart's width (``_assign``).
    """
    A, k, n = weights.shape
    d = X.shape[1]
    flat = weights.reshape(A * k, n)
    with np.errstate(over="ignore", invalid="ignore"):
        products = None if gram is None else flat @ gram
        if base < d:
            sums = flat @ X[:, base:]
            if (widths < d).any():
                np.copyto(sums.reshape(A, k, d - base), 0.0,
                          where=np.arange(base, d) >= widths[:, None, None])
            rest = sums @ X[:, base:].T
            products = rest if products is None else np.add(products, rest, out=products)
    return products.reshape(A, k, n)


def _assign(X: np.ndarray, xnorm: np.ndarray, weights: np.ndarray, products: np.ndarray,
            widths: np.ndarray, work: EngineWork) -> np.ndarray:
    """Nearest center per restart and row: ``argmin`` of
    ``_squared_distances`` against each restart's float centers, ties to
    the lowest index, from the product of its weights alone.

    Restart a works on the prefix ``X[:, :widths[a]]``, and row a of
    ``xnorm`` holds each row's norm at that width. Its center j is the mean
    of the rows ``weights[a, j]`` weights (each 1/count; ``_centers``).
    ``products`` is ``_products`` of ``weights``: ``x.m`` per row and
    center. The result is (A, n).

    ``|m|^2``, the weighted sum of a center's own products, less twice
    ``x.m`` estimates ``|c|^2 - 2 x.c``, the squared distance less
    ``|x|^2``, which is common to all centers of a row and left out. From
    center 0 and a runner-up of +inf, k-1 elementwise passes over the
    (A, n) values of one center at a time keep each row's best value, its
    index (the lowest on ties) and the runner-up value; ``np.minimum`` and
    ``np.maximum`` carry a NaN into the runner-up. With R the restart's
    largest mean of its members' norms at the width, each estimate lies
    within ``gamma_{2n+d+5} (|x| + R)^2`` of the exact ``|m|^2 - 2 x.m``:
    the Gram entries or weighted sums, the member sums and the weights
    round. The float center lies within ``gamma_n R`` of the exact mean,
    which moves the value by at most ``2 gamma_n (|x| + R)^2``, and the
    difference form lies within ``gamma_{d+2} (|x| + R)^2`` of its exact
    value. A row whose best beats the runner-up by more than
    ``8 gamma_{4n+2d+8} (|x| + R)^2``, twice the sum of those errors with
    a factor 4 to spare, plus slack for subnormal rounding, has the same
    unique argmin in the difference form. Every other row, including ties
    and rows whose values overflow (their gap is
    NaN, or their bound inf), is decided by ``_squared_distances`` on the
    restart's own width against the float centers that ``_centers`` sums
    for that restart; ``work`` counts those rows.
    """
    A, k, n = weights.shape
    terms = 4 * n + 2 * X.shape[1] + 8
    with np.errstate(over="ignore", invalid="ignore"):
        values = products * -2.0
        values += np.einsum("akn,akn->ak", weights, products)[:, :, None]
        # a contiguous start: the passes below read each center's values strided
        best, second = values[:, 0].copy(), np.full((A, n), np.inf)
        assign = np.zeros((A, n), dtype=np.intp)
        for j in range(1, k):
            closer = values[:, j] < best
            np.minimum(second, np.maximum(best, values[:, j]), out=second)
            np.minimum(best, values[:, j], out=best)
            assign[closer] = j
        gap = np.subtract(second, best, out=second)
        # R: the largest weighted mean of member norms, which bounds every center's norm;
        # in place: on tiny inputs the temporaries cost more than the arithmetic
        bound = xnorm + np.einsum("akn,an->ak", weights, xnorm).max(axis=1)[:, None]
        bound *= bound
        bound *= 8.0 * _gamma(terms)
        bound += 8.0 * terms * _SMALLEST_SUBNORMAL
        unsure = ~(gap > bound)
    redo = np.flatnonzero(unsure.any(axis=1))
    if redo.size:
        centers, _ = _centers(X, weights[redo] > 0, widths[redo], work)
        for a, own in zip(redo.tolist(), centers):
            rows, w = np.flatnonzero(unsure[a]), widths[a]
            assign[a, rows] = np.argmin(_squared_distances(X[rows, :w], own[:, :w]), axis=1)
            work.fallback_rows += rows.size
    return assign


def _repair(X: np.ndarray, centers: np.ndarray,
            assign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep one restart's k clusters populated: hand the farthest point to
    each empty cluster in turn. Moves ``centers`` in place and returns the
    new assignment and, per cluster, the row it was last moved onto (-1
    for none)."""
    n, k = len(X), len(centers)
    placed = np.full(k, -1)
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
        placed[j] = farthest
        d2[:, j] = _squared_distances(X, centers[j:j + 1])[:, 0]  # only center j moved
        assign = np.argmin(d2, axis=1)
    return assign, placed


# Sharing terms pays on replay_week's 100 restarts (200 x 571, k = 8): 65-77 ms
# against 84-94 ms for one einsum per restart.
def _inertias(X: np.ndarray, centers: np.ndarray, sets: np.ndarray, assigns: np.ndarray,
              work: EngineWork) -> np.ndarray:
    """Sum of squared distances to the assigned centers, per restart; each
    term rounds as the matching entry of ``_squared_distances``, and each
    restart's terms are summed in row order. ``centers`` and ``sets`` are
    what ``_centers`` gives for A restarts of one width, ``assigns`` their
    (A, n) assignments; ``work`` counts the terms.

    Restarts that end near one partition share most of their terms. At one
    width a center is a function of its member-set id, so each distinct
    (row, set id) term is computed once, ``_BLOCK_FLOATS`` floats of
    differences at a time.
    """
    A, k, d = centers.shape
    n = len(X)
    flat = centers.reshape(A * k, d)
    keys = np.arange(0, A * k, k)[:, None] + assigns  # each row's center in ``flat``
    terms, first, which = np.unique(sets.ravel()[keys] * n + np.arange(n), return_index=True,
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


def _means(X: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each member set, summed once per distinct set: the distinct
    means, one row each, and per set the row of its mean. ``members`` is
    (m, n), one non-empty set of rows per row.

    Sets that hold the same rows, in any restarts and at any widths, have
    equal sums bit for bit: every sum runs over whole rows of X. So the
    sets are grouped by their packed bitmaps, with one ``np.unique`` over
    the bitmaps' bytes, and each group's rows, gathered in row order, are
    the very C-ordered block ``X[assign[a] == j]`` is: each sum rounds as
    that one does, numpy's pairwise sum at d = 1 included, and a set of
    one row gives that row with any -0.0 read as +0.0.
    ``np.add.reduceat`` over sorted rows would round differently. Each
    distinct set is gathered on its own: one block of every member would be
    as large as (sets, n, d).
    """
    bitmaps = np.packbits(members, axis=1)
    _, first, which = np.unique(bitmaps.view(np.dtype((np.void, bitmaps.shape[1]))).ravel(),
                                return_index=True, return_inverse=True)
    distinct = members[first]
    rows = np.nonzero(distinct)[1]  # set by set, each in row order
    counts = distinct.sum(axis=1)
    means = np.empty((first.size, X.shape[1]))
    for i, (end, size) in enumerate(zip(counts.cumsum().tolist(), counts.tolist())):
        np.add.reduce(X[rows[end - size:end]], axis=0, out=means[i])
    # the arithmetic of each block's mean(axis=0), without its overhead
    means /= counts[:, None]
    return means, which


def _centers(X: np.ndarray, members: np.ndarray, widths: np.ndarray,
             work: EngineWork) -> tuple[np.ndarray, np.ndarray]:
    """The float centers of A restarts, (A, k, d), and each one's
    member-set id, (A, k): center j of restart a is the mean of the rows
    ``members[a, j]``, with its distinct set's ``which`` as id (``_means``;
    ``work`` counts the sums computed and shared). Columns past a
    restart's width are zero; centers of one id and one width are equal."""
    A, k, n = members.shape
    d = X.shape[1]
    means, which = _means(X, members.reshape(A * k, n))
    work.sums += len(means)
    work.shared += which.size - len(means)
    centers = means[which].reshape(A, k, d)
    if (widths < d).any():
        np.copyto(centers, 0.0, where=np.arange(d) >= widths[:, None, None])
    return centers, which.reshape(A, k)


def _initial_rows(n: int, k: int, seed: int) -> tuple[int, ...]:
    """The k distinct rows that seed a restart."""
    return tuple(np.random.default_rng(seed).choice(n, size=k, replace=False).tolist())


@functools.lru_cache(maxsize=64)
def _seed_rows(n: int, k: int, seeds: tuple[int, ...]) -> np.ndarray:
    """Row a: ``_initial_rows`` of ``seeds[a]``, read-only: the initial
    rows of every seed of one ``_runs`` call, which draws them once for all
    its chunks and widths. The cache serves repeated calls, which would
    each build a generator per seed. Not keyed by seed: a call scans its
    seeds in order, so a per-seed cache with fewer slots than seeds would
    miss on every lookup."""
    rows = np.array([_initial_rows(n, k, seed) for seed in seeds], dtype=np.intp)
    rows.flags.writeable = False
    return rows


def _check_restarts(k: int, norms: np.ndarray, seeds: list[int]) -> None:
    """The door of ``_runs``; ``norms`` are the row norms at the widest width."""
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

    The engine's driver, ``_runs``, at the points' one width d: the
    restarts advance together in ``_lloyd``, in chunks whose (restarts, k,
    max(n, d)) blocks hold at most ``_CHUNK_FLOATS`` floats, with the Gram
    matrix ``X X^T`` when d > n. Batching changes no result: each one is
    bit for bit the run of its seed alone. Each chunk's final centers are
    summed once, each distinct member set once (``_centers``), and each
    restart's inertia once from them, each distinct (row, member set) term
    of the chunk once (``_inertias``). The results of a chunk are views of
    its assignment and centers blocks. One DEBUG line per call counts the
    engine's work (see ``EngineWork``).
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    seeds = list(seeds)
    results: list[KMeansResult] = []
    work = EngineWork()
    for widths, (assigns, members, rounds) in _runs(X, k, seeds, X.shape[1], work):
        centers, sets = _centers(X, members, widths, work)
        inertias = _inertias(X, centers, sets, assigns, work).tolist()
        results += map(KMeansResult, assigns, centers, inertias, rounds, seeds[len(results):])
    work.log("kmeans_restarts")
    return results


def _runs(X: np.ndarray, k: int, seeds: list[int], first: int,
          work: EngineWork) -> Iterator[tuple[np.ndarray, tuple]]:
    """The engine's one driver: the run of every seed on every prefix
    ``X[:, :w]``, w = ``first``..d, from a few ``_lloyd`` calls. Yields
    each chunk's restart widths and ``_lloyd`` result, so the caller need
    not hold every chunk's results at once.

    The (width, seed) pairs run in width-major order, in chunks of
    consecutive pairs, each on the columns up to its widest width. A chunk
    grows while its (restarts, k, max(n, widest)) blocks hold at most
    ``_CHUNK_FLOATS`` floats and, once it spans several widths, while its
    restarts x n x the columns its products read stay within
    ``_SWEEP_FLOATS``; a single pair may exceed both. Width 1 runs alone:
    numpy sums a one-column block pairwise. A chunk whose narrowest width
    exceeds n takes its products from the Gram matrix of the columns up to
    that width, grown by the columns added since the last such chunk, plus
    the columns past that width (``_products``). The row norms at every
    width come from one einsum over the first ``first`` columns and the
    running sum of the squares past them, so a one-width call forms no
    (n, d) temporary; those at the widest width pass ``_check_restarts``
    before any chunk runs. The seeds' initial rows are drawn once.
    """
    n, d = X.shape
    norms = np.empty((d + 1 - first, n))  # row w - first: the row norms at width w
    with np.errstate(over="ignore"):  # an overflowing row is refused by the check
        norms[0] = np.einsum("nd,nd->n", X[:, :first], X[:, :first])
        np.square(X[:, first:].T, out=norms[1:])
        np.cumsum(norms, axis=0, out=norms)
    np.sqrt(norms, out=norms)
    _check_restarts(k, norms[-1], seeds)
    rows, per_width = _seed_rows(n, k, tuple(seeds)), len(seeds)
    gram, covered = None, 0  # the Gram matrix of the first `covered` columns
    start = 0
    while start < len(norms) * per_width:
        narrowest = widest = first + start // per_width
        end = min(start + max(1, _CHUNK_FLOATS // (k * max(n, widest))),
                  (widest + 1 - first) * per_width)
        # take the next width's pairs while the last one's are all in
        while 1 < narrowest and widest < d and end == (widest + 1 - first) * per_width:
            columns = n + widest + 1 - narrowest if narrowest > n else widest + 1
            most = min(_CHUNK_FLOATS // (k * max(n, widest + 1)), _SWEEP_FLOATS // (n * columns))
            if start + most <= end:
                break
            widest += 1
            end = min(start + most, (widest + 1 - first) * per_width)
        if narrowest > n and covered < narrowest:
            block = X[:, covered:narrowest]
            with np.errstate(over="ignore"):  # an overflowing entry leaves its rows to the exact path
                gram = block @ block.T if gram is None else gram + block @ block.T
            covered = narrowest
        pairs = np.arange(start, end)
        widths = first + pairs // per_width
        # one width's norms as a view: a copy per restart would add to the peak
        xnorm = norms[widths - first] if narrowest < widest else np.broadcast_to(
            norms[narrowest - first], (len(pairs), n))
        yield widths, _lloyd(X[:, :widest], xnorm, rows[pairs % per_width], widths,
                             gram if narrowest > n else None, work)
        start = end


def _lloyd(X: np.ndarray, xnorm: np.ndarray, rows: np.ndarray, widths: np.ndarray,
           gram: Optional[np.ndarray],
           work: EngineWork) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Lloyd rounds of one chunk of restarts, all advancing together: the
    restarts' final assignments (A, n), the members (A, k, n) whose means
    are their final centers (``_centers``), and each one's number of
    rounds, in the order of ``rows``. Each restart stops
    when no center moves by ``DEFAULT_TOL`` or more, or after
    ``DEFAULT_MAX_ITER`` rounds; both are read at each call. ``work``
    counts the rounds, the exact stops and the repairs.

    Restart a starts from the centers ``X[rows[a]]`` and is the run of its
    seed on the prefix ``X[:, :widths[a]]``; row a of ``xnorm`` holds the
    norms of the rows at that width. ``gram``, when given, is the Gram
    matrix of the columns up to the narrowest width (``_products``). At
    width 1 numpy sums a one-column block pairwise, so a width-1 restart
    may only run in a chunk where X has one column.

    A restart's state is its members: center j is the mean of the rows
    that held it last, or of the one row it was set to (a seed row, or a
    row ``_repair`` moved it onto) until rows gather around it. A round
    assigns the rows from the products of the weights (``_assign``), then
    rewrites only the member sets that changed. A restart whose sets did
    not change stops: its centers did not move, and its assignment is
    final (with a ``DEFAULT_TOL`` of 0 or less, which a shift of 0 does not
    pass, it counts the rounds up to ``DEFAULT_MAX_ITER`` that would
    repeat this one). Otherwise one product of the changed clusters' new weights
    gives their part of the next round's assignment and each one's squared
    shift: the weights' difference D against the products' difference,
    ``D G D^T``. That lies within ``8 gamma_{2n+d+6} R^2`` of the squared
    shift of the float centers at the restart's width, R its largest row
    norm. A restart continues when one changed cluster's estimate exceeds
    ``tol^2`` by ``32 gamma_{2n+d+6} (R^2 + tol^2)``, a factor 4 to spare;
    an estimate that overflows certifies nothing. Every other
    restart with changed sets, and every restart that ran ``_repair``,
    decides its stop as the explicit-center loop does, from the float
    centers ``_centers`` sums before and after the round, on its own
    columns; a repaired restart also stops on a fixed point: its
    assignment equals last round's and its new centers equal the ones it
    started the round from, which the shift against the moved centers
    cannot see. A restart that stops with changed sets takes the
    assignment against its new centers, which the product already gives.
    The restarts that stop in a round leave together. The members start
    as the seed rows, which a ``DEFAULT_MAX_ITER`` of 0 assigns to.
    """
    max_iter, tol = DEFAULT_MAX_ITER, DEFAULT_TOL
    n, d = X.shape
    A, k = rows.shape
    base = 0 if gram is None else int(widths.min())
    labels = np.arange(k)[:, None]
    members = np.zeros((A, k, n), dtype=bool)
    members[np.arange(A)[:, None], np.arange(k), rows] = True
    weights = members.astype(float)
    products = _products(X, gram, base, weights, widths)
    assign = _assign(X, xnorm, weights, products, widths, work)
    reach = xnorm.max(axis=1)
    margin = 32.0 * _gamma(2 * n + d + 6) * (reach * reach + tol * tol)
    margin += 8.0 * (4 * n + 2 * d + 8) * _SMALLEST_SUBNORMAL
    final, kept = assign, members  # what a DEFAULT_MAX_ITER of 0 returns
    if max_iter > 0:
        final, kept = np.empty_like(assign), np.empty_like(members)
    rounds = np.zeros(A, dtype=int)
    live = np.arange(A)
    live_xnorm, live_widths = xnorm, widths
    previous = None  # the live restarts' assignments in the last round
    for it in range(1, max_iter + 1):
        new = assign[:, None, :] == labels
        repaired = ~new.any(axis=2).all(axis=1)
        moved = {}
        fixed = np.flatnonzero(repaired)
        starts = _centers(X, members[fixed], live_widths[fixed], work)[0] if fixed.size else ()
        for a, started in zip(fixed.tolist(), starts):
            w = live_widths[a]
            centers = started.copy()  # _repair moves centers in place
            assign[a], placed = _repair(X[:, :w], centers[:, :w], assign[a])
            new[a] = assign[a] == labels
            # an empty cluster holds the row it was moved onto, or keeps its members
            for j in np.flatnonzero(~new[a].any(axis=1)).tolist():
                new[a, j] = members[a, j] if placed[j] < 0 else np.arange(n) == placed[j]
            repeats = previous is not None and bool((assign[a] == previous[a]).all())
            moved[a] = started, centers, repeats
        work.repairs += len(moved)
        changed = (new != members).any(axis=2)
        unchanged = ~(changed.any(axis=1) | repaired)
        moving = np.flatnonzero(~unchanged)
        stop = np.ones(len(live), dtype=bool)
        if moving.size:
            # only the changed clusters get new weights and products, in place
            rewritten = np.flatnonzero(changed.ravel())
            owner = rewritten // k
            fresh = new.reshape(-1, n)[rewritten] / np.count_nonzero(new, axis=2).ravel()[
                rewritten, None]
            estimates = _products(X, gram, base, fresh[:, None], live_widths[owner])[:, 0]
            flat_weights, flat_products = weights.reshape(-1, n), products.reshape(-1, n)
            step, moves = flat_weights[rewritten], flat_products[rewritten]
            with np.errstate(over="ignore", invalid="ignore"):
                shift2 = np.einsum("cn,cn->c", np.subtract(fresh, step, out=step),
                                   np.subtract(estimates, moves, out=moves))
                sure = (shift2 - margin[owner] > tol * tol) & np.isfinite(shift2)
            flat_weights[rewritten], flat_products[rewritten] = fresh, estimates
            fresh = estimates = step = moves = None
            go = np.zeros(len(live), dtype=bool)
            go[owner[sure]] = True
            halt = np.full(moving.size, it == max_iter)
            unsure = np.flatnonzero(~go[moving] | repaired[moving])
            if it < max_iter and unsure.size:
                halt[unsure] = _exact_stops(X, members, new, moving[unsure], live_widths,
                                            moved, work)
            # views, not copies, when every restart moved
            part = slice(None) if moving.size == len(live) else moving
            following = _assign(X, live_xnorm[part], weights[part], products[part],
                                live_widths[part], work)
            stop[moving] = halt
        # a restart whose sets did not change keeps its assignment; any other takes the next
        done = live[stop]
        final[done] = assign[stop]
        if moving.size:
            final[live[moving[halt]]] = following[halt]
        kept[done] = new[stop]
        rounds[done] = it
        if not 0.0 < tol:
            # a shift of 0 stops nothing: an unchanged restart repeats its round to the cap
            rounds[live[unchanged]] = max_iter
        keep = ~stop
        live = live[keep]
        if not live.size:
            break
        members = new[keep]
        weights, products = weights[keep], products[keep]
        previous, assign = assign[keep], following[~halt]
        live_xnorm, live_widths, margin = live_xnorm[keep], live_widths[keep], margin[keep]

    rounds = rounds.tolist()
    work.calls += 1
    work.rounds += max(rounds)
    work.max_iter_hits += rounds.count(max_iter)
    return final, kept, rounds


def _exact_stops(X, members, new, restarts, widths, moved, work: EngineWork) -> np.ndarray:
    """Whether each of ``restarts`` (indices of the live restarts) stops
    this round, as the explicit-center loop decides it: the means of its
    old member sets and new ones, summed together (``_centers``), move by
    less than ``DEFAULT_TOL`` on its own columns.
    A restart in ``moved`` ran ``_repair``, which gives the centers it
    started from, the moved ones its shift is measured from, and whether
    its assignment repeats last round's; it also stops on that fixed point
    when its new centers are the ones it started from."""
    tol = DEFAULT_TOL
    plain = np.array([a for a in restarts.tolist() if a not in moved], dtype=np.intp)
    both, _ = _centers(X, np.concatenate([new[restarts], members[plain]]),
                       np.concatenate([widths[restarts], widths[plain]]), work)
    olds = dict(zip(plain.tolist(), both[restarts.size:]))
    work.exact_stops += restarts.size
    halt = np.empty(restarts.size, dtype=bool)
    for i, a in enumerate(restarts.tolist()):
        w = widths[a]
        started, old, repeats = moved.get(a, (None, olds.get(a), False))
        now = both[i, :, :w]
        halt[i] = np.sqrt(np.square(now - old[:, :w]).sum(axis=1)).max() < tol or (
            repeats and bool((now == started[:, :w]).all()))
    return halt


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

    Every center is the mean of its member set: a center of one row (a
    seed row or a repair's singleton) reads a -0.0 as +0.0, unseen by any
    distance or shift.

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
    ``RandStats``. Every count's restarts run in the engine's one driver
    with their own prefix width, in chunks of consecutive (width, seed)
    pairs (see ``_runs``); the sweep reads only their assignments, so it
    sums no centers but for the decisions the engine takes exactly. All
    labelings are then scored in one ``_rand_indices`` call. One DEBUG
    line counts the engine's work (see ``EngineWork``). The preferred
    operating point is the smallest w whose minimum rand index over
    restarts is maximal — the worst case is what must be good.
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
    # one row per run, filled as the runs come: no list of every run's arrays
    labelings = np.empty((limit * len(seeds), len(ranked)), dtype=np.intp)
    work = EngineWork()
    done = 0
    for widths, (assigns, *_) in _runs(ranked, n_clusters, seeds, 1, work):
        labelings[done:done + len(widths)] = assigns
        done += len(widths)
    work.log("sweep_feature_count")
    rand = _rand_indices(truth, labelings, adjusted)
    entries = [
        SweepEntry(n_features=w, stats=_rand_stats(rand[(w - 1) * restarts:w * restarts]))
        for w in range(1, limit + 1)
    ]
    best_min = max(entry.stats.minimum for entry in entries)
    chosen = next(e.n_features for e in entries if e.stats.minimum == best_min)
    return SweepCurve(entries=entries, chosen_k=chosen, ranking=ranking)


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
    """Points on the model's axes, (n, dims); another width raises ``ValidationError``."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != model.mean.size:
        raise ValidationError(f"points have {X.shape[1]} columns, the PCA model {model.mean.size}")
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
