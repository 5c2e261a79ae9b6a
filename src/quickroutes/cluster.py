"""Clustering machinery: Lloyd's K-Means with repeated restarts, rand-index
statistics, the feature-count sweep, PCA reduction, a full-covariance
Gaussian mixture fitted by EM, and silhouette scoring.

Everything is Euclidean and deterministic: each stochastic operation is a
pure function of its inputs and an integer seed, restarts use consecutive
seeds, and results are merged in seed order so running restarts in
parallel could never change the output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NumericError, ValidationError
from .preprocess import FeatureScore, select_k_best

DEFAULT_RESTARTS = 100
DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
DEFAULT_GMM_TOL = 1e-8
DEFAULT_GMM_REG = 1e-6


# ---------------------------------------------------------------------------
# K-Means
# ---------------------------------------------------------------------------

@dataclass
class KMeansResult:
    assignments: np.ndarray  # cluster id per point
    centers: np.ndarray      # (k, d)
    inertia: float           # sum of squared distances to assigned centers
    iterations: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _assigned_d2(points: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its assigned center, rounded exactly
    as the matching entry of ``_squared_distances``."""
    diff = centers[assign]
    # in place: allocating a second (n, d) array measured slower than the arithmetic
    np.subtract(points, diff, out=diff)
    return np.einsum("nd,nd->n", diff, diff)


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# absolute rounding of one product in the subnormal range is at most half of this
_SMALLEST_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


def _gamma(m: int) -> float:
    """Higham's gamma_m, the relative error bound of m roundings."""
    mu = m * _UNIT_ROUNDOFF
    return mu / (1.0 - mu)


def _assign(X: np.ndarray, xx: np.ndarray, xnorm: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest center per row: ``argmin`` of ``_squared_distances``, ties to
    the lowest index, without forming its (n, k, d) difference tensor.

    ``xx`` holds each row's squared norm and ``xnorm`` its square root. The
    expanded ``|x|^2 + |c|^2 - 2 x.c`` from one GEMM and the difference
    form each lie within ``gamma_{d+2} (|x| + |c|)^2`` of the exact squared
    distance. A row whose best expanded value beats every other one by more
    than twice the sum of both errors (with a factor 2 to spare, plus slack
    for subnormal rounding) has the same unique argmin in the difference
    form. Every other row, including ties and rows holding inf or NaN, is
    decided by ``_squared_distances`` itself.
    """
    n, d = X.shape
    if centers.shape[0] == 1:
        return np.zeros(n, dtype=np.intp)
    cc = np.einsum("kd,kd->k", centers, centers)
    d2 = xx[:, None] + cc - 2.0 * (X @ centers.T)
    assign = d2.argmin(axis=1)
    # gap to the second-best center; NaN when the argmin found a NaN
    rows = np.arange(n)
    gap = -d2[rows, assign]
    d2[rows, assign] = np.inf
    gap += d2.min(axis=1)
    # in place: on tiny inputs the temporaries cost more than the arithmetic
    bound = xnorm + math.sqrt(cc.max())
    bound *= bound
    bound *= 8.0 * _gamma(d + 4)
    bound += 8.0 * (d + 4) * _SMALLEST_SUBNORMAL
    sure = gap > bound
    if not sure.all():
        unsure = np.flatnonzero(~sure)
        assign[unsure] = np.argmin(_squared_distances(X[unsure], centers), axis=1)
    return assign


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
    cluster's new singleton center. Stops when no center moves more than
    ``tol`` or after ``max_iter`` rounds.

    k clusters are not guaranteed to stay populated. With fewer than k
    distinct points, the farthest point already sits on a center, its
    copy loses the tie to the lower index, and a cluster stays empty: ten
    points of two values at ``k=3`` give sizes 5, 5 and 0. The final
    assignment is not repaired either.

    Input is copied to C order first, so a point set gives the same result
    in any memory layout.
    """
    X = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=float)))
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside 1..n={n}")
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].astype(float).copy()
    xx = np.einsum("nd,nd->n", X, X)
    xnorm = np.sqrt(xx)

    history: list[float] = []
    iterations = 0
    unchanged = False
    for iterations in range(1, max_iter + 1):
        assign = _assign(X, xx, xnorm, centers)

        if np.bincount(assign, minlength=k).min() == 0:
            # keep k clusters populated: hand the farthest point to each empty one
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

        history.append(float(_assigned_d2(X, centers, assign).sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.size:
                # the arithmetic of members.mean(axis=0), without its overhead
                new_centers[j] = members.sum(axis=0) / len(members)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        unchanged = np.array_equal(new_centers, centers)
        centers = new_centers
        if shift < tol:
            break

    if unchanged:
        # assignment and inertia are functions of the centers, which did not move
        inertia = history[-1]
    else:
        assign = _assign(X, xx, xnorm, centers)
        inertia = float(_assigned_d2(X, centers, assign).sum())
    return KMeansResult(
        assignments=assign,
        centers=centers,
        inertia=inertia,
        iterations=iterations,
        seed=seed,
        inertia_history=history,
    )


def best_kmeans(
    points,
    k: int,
    restarts: int = DEFAULT_RESTARTS,
    seed0: int = 0,
    **kwargs,
) -> KMeansResult:
    """Lowest-inertia run over consecutive seeds; ties keep the lowest seed."""
    best: Optional[KMeansResult] = None
    for seed in range(seed0, seed0 + restarts):
        result = kmeans(points, k, seed=seed, **kwargs)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# Rand index
# ---------------------------------------------------------------------------

def rand_index(a: Sequence, b: Sequence, adjusted: bool = True) -> float:
    """Pair-counting similarity of two labelings, ignoring permutations.

    Unadjusted: fraction of point pairs the two labelings agree on.
    Adjusted: chance-corrected via the standard contingency-table formula,
    1 for identical partitions, ~0 in expectation for random ones.
    """
    if len(a) != len(b):
        raise ValidationError("labelings must have equal length")
    n = len(a)
    if n < 2:
        raise ValidationError("rand index needs at least 2 points")
    sum_ij = _pair_count(zip(a, b))
    sum_a = _pair_count(a)
    sum_b = _pair_count(b)
    pairs = math.comb(n, 2)
    if not adjusted:
        agreements = pairs + 2 * sum_ij - sum_a - sum_b
        return agreements / pairs
    expected = sum_a * sum_b / pairs
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0  # both partitions degenerate and identical in structure
    return (sum_ij - expected) / (maximum - expected)


def _pair_count(labels: Iterable) -> int:
    """Number of point pairs that share a label."""
    return sum(math.comb(c, 2) for c in Counter(labels).values())


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
    **kwargs,
) -> RandStats:
    """Rand-index statistics of ``restarts`` independent K-Means runs.

    Seeds are seed0..seed0+restarts-1, so the whole sweep is reproducible
    from a single integer.
    """
    values = []
    for seed in range(seed0, seed0 + restarts):
        result = kmeans(points, k, seed=seed, **kwargs)
        values.append(rand_index(truth, result.assignments.tolist(), adjusted=adjusted))
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

    For each feature count k the top-k columns (by ANOVA F, ties by column
    order) feed ``repeated_kmeans``; the preferred operating point is the
    smallest k whose minimum rand index over restarts is maximal — the
    worst case is what must be good.
    """
    values = np.asarray(values, dtype=float)
    names = list(names)
    if len(scores) != len(names):
        raise ValidationError("scores must cover every column")
    by_name = {s.name: i for i, s in enumerate(scores)}
    if set(by_name) != set(names):
        raise ValidationError("score names do not match matrix columns")
    limit = len(names) if max_features is None else min(max_features, len(names))
    # one ranking serves every k: top-k is a prefix of it
    ranking = select_k_best(scores, len(names))
    col_idx = [names.index(n) for n in ranking]

    entries = []
    for k in range(1, limit + 1):
        subset = values[:, col_idx[:k]]
        stats = repeated_kmeans(
            subset, truth, n_clusters, restarts=restarts, seed0=seed0, adjusted=adjusted
        )
        entries.append(
            SweepEntry(n_features=k, columns=tuple(ranking[:k]), stats=stats)
        )
    best_min = max(entry.stats.minimum for entry in entries)
    chosen = next(e.n_features for e in entries if e.stats.minimum == best_min)
    return SweepCurve(entries=entries, chosen_k=chosen)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass
class PcaModel:
    mean: np.ndarray
    components: np.ndarray           # (dims, d), orthonormal rows
    explained_variance: np.ndarray   # descending


def pca_fit(points, dims: int) -> PcaModel:
    """Top eigenvectors of the sample covariance of centered data."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = X.shape
    if not 1 <= dims <= min(n - 1, d):
        raise ValidationError(f"dims={dims} outside 1..min(n-1, d)={min(n - 1, d)}")
    mean = X.mean(axis=0)
    cov = np.cov(X - mean, rowvar=False, ddof=1).reshape(d, d)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dims]
    components = eigvecs[:, order].T.copy()
    # deterministic sign: largest-magnitude coefficient is positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=eigvals[order].copy(),
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
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        try:
            chol = np.linalg.cholesky(covs[j])
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"component {j}: covariance singular beyond regularization "
                f"(min diagonal {covs[j].diagonal().min():.3e})"
            ) from exc
        diff = (X - means[j]).T
        y = solve_triangular(chol, diff, lower=True)
        maha = np.einsum("dn,dn->n", y, y)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        out[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
    return out


def gmm_em(
    points,
    k: int,
    seed: int = 0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_GMM_TOL,
    reg: float = DEFAULT_GMM_REG,
) -> GmmResult:
    """Full-covariance Gaussian mixture fitted by EM.

    Initialized from a K-Means run with the same seed (means = centers,
    weights = cluster fractions, covariances = within-cluster scatter plus
    ``reg`` on the diagonal). EM stops at the first iteration whose
    log-likelihood gain is below ``tol``, so every earlier iteration gained
    at least ``tol``. That last change can be slightly negative and the run
    still reports ``converged=True``: the ``reg`` added to each covariance
    makes the M-step inexact. On unit-variance data the loss stays below
    about 1e-9 (drops up to 1.5e-10 in 9 of 40 seeds of three blobs in
    5-D); it grows as component variances approach ``reg``.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = X.shape
    if n <= k:
        raise ValidationError(f"need more than k={k} points, got {n}")

    init = kmeans(X, k, seed=seed)
    weights = np.bincount(init.assignments, minlength=k).astype(float) / n
    means = init.centers.copy()
    covs = np.empty((k, d, d))
    for j in range(k):
        members = X[init.assignments == j]
        centered = members - members.mean(axis=0)
        covs[j] = centered.T @ centered / max(len(members), 1) + reg * np.eye(d)

    history: list[float] = []
    resp = np.full((n, k), 1.0 / k)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        log_prob = _log_gaussians(X, means, covs) + np.log(weights)[None, :]
        log_norm = _logsumexp_rows(log_prob)
        ll = float(log_norm.sum())
        resp = np.exp(log_prob - log_norm[:, None])

        history.append(ll)
        if len(history) >= 2 and ll - history[-2] < tol:
            converged = True
            break

        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 10 * np.finfo(float).eps)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for j in range(k):
            diff = X - means[j]
            covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j] + reg * np.eye(d)
            covs[j] = 0.5 * (covs[j] + covs[j].T)

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
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise ValidationError("silhouette needs at least 2 clusters")

    n = X.shape[0]
    scores = np.zeros(n)
    diff = np.empty_like(X)  # one row of the distance matrix at a time: O(n*d) memory
    for i in range(n):
        own = labels[i]
        same = (labels == own)
        own_size = int(same.sum())
        if own_size <= 1:
            continue
        np.subtract(X[i], X, out=diff)
        dist = np.sqrt(np.einsum("md,md->m", diff, diff))
        a = dist[same].sum() / (own_size - 1)
        b = min(
            dist[labels == other].mean() for other in clusters if other != own
        )
        top = max(a, b)
        scores[i] = 0.0 if top == 0.0 else (b - a) / top

    profiles = {
        int(c): np.sort(scores[labels == c])[::-1].copy() for c in clusters
    }
    return SilhouetteResult(scores=scores, profiles=profiles, mean=float(scores.mean()))


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------

def count_misassigned(truth: Sequence, predicted: Sequence) -> int:
    """Disagreements under the best one-to-one cluster-to-route matching
    (an assignment problem, solved in polynomial time; Kuhn 1955)."""
    # imported here: scipy.optimize adds about 0.2 s to importing this module
    from scipy.optimize import linear_sum_assignment

    if len(truth) != len(predicted):
        raise ValidationError("labelings must have equal length")
    truth_ids = {label: i for i, label in enumerate(dict.fromkeys(truth))}
    pred_ids = {label: i for i, label in enumerate(dict.fromkeys(predicted))}
    agree = np.zeros((len(pred_ids), len(truth_ids)), dtype=int)
    for lt, lp in zip(truth, predicted):
        agree[pred_ids[lp], truth_ids[lt]] += 1
    rows, cols = linear_sum_assignment(agree, maximize=True)
    return len(truth) - int(agree[rows, cols].sum())
