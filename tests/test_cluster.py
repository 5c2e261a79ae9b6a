"""Clustering: the GEMM-based K-Means kernel against the difference-form
reference, rand index, silhouette, label matching and the GMM contract."""

import itertools
import math
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickroutes import cluster
from quickroutes.cluster import (
    best_kmeans,
    count_misassigned,
    gmm_em,
    kmeans,
    rand_index,
    silhouette,
)
from quickroutes.errors import ValidationError

EXAMPLES = settings(max_examples=60, deadline=None)


def reference_squared_distances(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_kmeans(points, k, seed=0, max_iter=cluster.DEFAULT_MAX_ITER,
                     tol=cluster.DEFAULT_TOL):
    """Lloyd's algorithm on the full (n, k, d) difference tensor.

    The reference the kernel must match bit for bit on C-ordered input:
    (assignments, centers, inertia, iterations, inertia_history).
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].astype(float).copy()

    history = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = reference_squared_distances(X, centers)
        assign = np.argmin(d2, axis=1)
        for _ in range(k):
            sizes = np.bincount(assign, minlength=k)
            empties = np.flatnonzero(sizes == 0)
            if empties.size == 0:
                break
            j = int(empties[0])
            point_d2 = d2[np.arange(n), assign]
            farthest = int(np.argmax(point_d2))
            centers[j] = X[farthest]
            d2 = reference_squared_distances(X, centers)
            assign = np.argmin(d2, axis=1)

        history.append(float(d2[np.arange(n), assign].sum()))
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.size:
                new_centers[j] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < tol:
            break

    d2 = reference_squared_distances(X, centers)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, centers, inertia, iterations, history


def assert_matches_reference(result, X, k, seed):
    assign, centers, inertia, iterations, history = reference_kmeans(X, k, seed)
    assert result.assignments.dtype == assign.dtype
    np.testing.assert_array_equal(result.assignments, assign)
    assert result.iterations == iterations
    assert result.centers.tobytes() == centers.tobytes()
    assert result.inertia == inertia
    assert result.inertia_history == history


@contextmanager
def fallback_spy():
    """Counts calls of the difference-form distances (fallback and repair)."""
    with mock.patch.object(
        cluster, "_squared_distances", wraps=cluster._squared_distances
    ) as spy:
        yield spy


# ---------------------------------------------------------------------------
# Inputs for the kernel
# ---------------------------------------------------------------------------

@st.composite
def grid_inputs(draw):
    """Small integer grids: exact ties between centers are common."""
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    X = np.array(cells, dtype=float).reshape(n, d)
    return X, draw(st.integers(1, n)), draw(st.integers(0, 999))


@st.composite
def duplicate_row_inputs(draw):
    """Rows drawn with repetition from a few distinct ones, often < k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 8))
    base = rng.standard_normal((draw(st.integers(1, max(1, n // 2))), d))
    X = base[rng.integers(0, len(base), size=n)]
    return X, draw(st.integers(1, n)), draw(st.integers(0, 999))


@st.composite
def wide_scale_inputs(draw):
    """Gaussian points at one scale, or a different scale per column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-8, 8))
    else:
        scale = 10.0 ** rng.integers(-8, 9, size=d)
    X = rng.standard_normal((n, d)) * scale
    return X, draw(st.integers(1, n)), draw(st.integers(0, 999))


ANY_INPUT = st.one_of(grid_inputs(), duplicate_row_inputs(), wide_scale_inputs())


class TestKMeansKernel:
    @EXAMPLES
    @given(grid_inputs())
    def test_grid_ties_match_reference(self, case):
        X, k, seed = case
        assert_matches_reference(kmeans(X, k, seed=seed), X, k, seed)

    @EXAMPLES
    @given(duplicate_row_inputs())
    def test_duplicate_rows_match_reference(self, case):
        X, k, seed = case
        assert_matches_reference(kmeans(X, k, seed=seed), X, k, seed)

    @EXAMPLES
    @given(wide_scale_inputs())
    def test_wide_scales_match_reference(self, case):
        X, k, seed = case
        assert_matches_reference(kmeans(X, k, seed=seed), X, k, seed)

    @EXAMPLES
    @given(ANY_INPUT)
    def test_fortran_order_gives_the_c_order_result(self, case):
        X, k, seed = case
        result = kmeans(np.asfortranarray(X), k, seed=seed)
        assert_matches_reference(result, np.ascontiguousarray(X), k, seed)

    @EXAMPLES
    @given(grid_inputs(), st.data())
    def test_assign_sends_every_tie_to_the_fallback(self, case, data):
        X, k, _ = case
        rows = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=k, max_size=k))
        centers = X[rows]
        xx = np.einsum("nd,nd->n", X, X)
        with fallback_spy() as spy:
            assign = cluster._assign(X, xx, np.sqrt(xx), centers)
        d2 = reference_squared_distances(X, centers)
        np.testing.assert_array_equal(assign, np.argmin(d2, axis=1))
        two = np.sort(d2, axis=1)[:, :2]
        if k > 1 and (two[:, 0] == two[:, 1]).any():
            assert spy.call_count == 1

    def test_equidistant_point_goes_to_lowest_center(self):
        X = np.array([[0.0], [1.0], [2.0]])
        xx = np.einsum("nd,nd->n", X, X)
        with fallback_spy() as spy:
            assign = cluster._assign(X, xx, np.sqrt(xx), np.array([[2.0], [0.0]]))
        np.testing.assert_array_equal(assign, [1, 0, 0])
        (points, _), _ = spy.call_args
        np.testing.assert_array_equal(points, [[1.0]])

    def test_subnormal_scale_matches_reference(self):
        # products underflow here, so the error bound needs its absolute slack
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 8))
            k = int(rng.integers(2, n + 1))
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-162, -150)
            centers = X[rng.choice(n, k, replace=False)]
            xx = np.einsum("nd,nd->n", X, X)
            assign = cluster._assign(X, xx, np.sqrt(xx), centers)
            expected = np.argmin(reference_squared_distances(X, centers), axis=1)
            np.testing.assert_array_equal(assign, expected)


class TestKMeansContract:
    def test_fewer_distinct_points_than_k_leaves_a_cluster_empty(self):
        X = np.array([0.0] * 5 + [1.0] * 5)[:, None]
        for seed in range(10):
            with fallback_spy() as spy:
                result = kmeans(X, 3, seed=seed)
            assert spy.call_count > 0
            sizes = np.bincount(result.assignments, minlength=3)
            assert sorted(sizes.tolist()) == [0, 5, 5]
            assert_matches_reference(result, X, 3, seed)

    def test_k_outside_range_rejected(self):
        X = np.zeros((4, 2))
        for k in (0, 5):
            with pytest.raises(ValidationError):
                kmeans(X, k)

    @EXAMPLES
    @given(ANY_INPUT)
    def test_result_invariants(self, case):
        X, k, seed = case
        result = kmeans(X, k, seed=seed)
        n, d = X.shape
        assert result.assignments.shape == (n,)
        assert result.assignments.min() >= 0 and result.assignments.max() < k
        assert result.centers.shape == (k, d)
        assert result.seed == seed
        assert 1 <= result.iterations <= cluster.DEFAULT_MAX_ITER
        assert len(result.inertia_history) == result.iterations
        d2 = reference_squared_distances(X, result.centers)
        # every point sits at its nearest center, ties at the lowest index
        np.testing.assert_array_equal(result.assignments, np.argmin(d2, axis=1))
        assert result.inertia == float(d2[np.arange(n), result.assignments].sum())

    def test_best_kmeans_keeps_lowest_seed_on_ties(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(c, 0.1, size=(10, 2)) for c in (0.0, 5.0, 10.0)])
        best = best_kmeans(X, 3, restarts=12, seed0=4)
        inertias = {s: kmeans(X, 3, seed=s).inertia for s in range(4, 16)}
        lowest = min(inertias.values())
        tied = [s for s, v in inertias.items() if v == lowest]
        assert len(tied) > 1
        assert best.seed == tied[0]
        assert best.inertia == lowest


# ---------------------------------------------------------------------------
# Rand index
# ---------------------------------------------------------------------------

def reference_rand_index(a, b, adjusted=True):
    """Rand index from a dict contingency table."""
    table = {}
    for la, lb in zip(a, b):
        table[(la, lb)] = table.get((la, lb), 0) + 1
    sizes_a, sizes_b = {}, {}
    for (la, lb), count in table.items():
        sizes_a[la] = sizes_a.get(la, 0) + count
        sizes_b[lb] = sizes_b.get(lb, 0) + count
    sum_ij = sum(math.comb(c, 2) for c in table.values())
    sum_a = sum(math.comb(c, 2) for c in sizes_a.values())
    sum_b = sum(math.comb(c, 2) for c in sizes_b.values())
    pairs = math.comb(len(a), 2)
    if not adjusted:
        return (pairs + 2 * sum_ij - sum_a - sum_b) / pairs
    expected = sum_a * sum_b / pairs
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


LABEL_KINDS = st.sampled_from([
    st.one_of(st.integers(0, 2), st.sampled_from(["0", "1"])),
    st.integers(-3, 3),
    st.sampled_from(["crimp", "jug", "sloper", "pinch"]),
])


@st.composite
def labeling_pairs(draw):
    n = draw(st.integers(2, 60))
    a = draw(st.lists(draw(LABEL_KINDS), min_size=n, max_size=n))
    b = draw(st.lists(draw(LABEL_KINDS), min_size=n, max_size=n))
    return a, b


class TestRandIndex:
    @settings(max_examples=150, deadline=None)
    @given(labeling_pairs(), st.booleans())
    def test_equals_dict_reference(self, pair, adjusted):
        a, b = pair
        assert rand_index(a, b, adjusted=adjusted) == reference_rand_index(a, b, adjusted)

    @settings(max_examples=60, deadline=None)
    @given(labeling_pairs(), st.permutations(range(8)), st.booleans())
    def test_relabeling_invariance(self, pair, perm, adjusted):
        a, b = pair
        codes = {label: i for i, label in enumerate(dict.fromkeys(b))}
        relabeled = [perm[codes[label]] for label in b]
        assert rand_index(a, relabeled, adjusted) == rand_index(a, b, adjusted)
        assert rand_index(b, a, adjusted) == rand_index(a, b, adjusted)

    def test_hand_computed_tables(self):
        assert rand_index(["a", "a", "b", "b"], [0, 0, 1, 1]) == 1.0
        assert rand_index(["a", "a", "b", "b"], [1, 1, 0, 0]) == 1.0
        # only pairs (0, 3) and (1, 2) are split by both labelings
        assert rand_index([0, 0, 1, 1], [0, 1, 0, 1], adjusted=False) == 2 / 6
        assert rand_index([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]) == pytest.approx((2 - 1.2) / (4.5 - 1.2))

    def test_errors(self):
        with pytest.raises(ValidationError):
            rand_index([0, 1], [0])
        with pytest.raises(ValidationError):
            rand_index([0], [0])


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------

def brute_force_silhouette(X, labels):
    """Rousseeuw (1987) with explicit loops over point pairs."""
    n = len(X)
    scores = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = sum(math.dist(X[i], X[j]) for j in own) / len(own)
        b = min(
            sum(math.dist(X[i], X[j]) for j in range(n) if labels[j] == c)
            / sum(1 for j in range(n) if labels[j] == c)
            for c in set(labels) if c != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return scores


class TestSilhouette:
    @EXAMPLES
    @given(st.integers(0, 2**32 - 1), st.integers(3, 20), st.integers(1, 5),
           st.integers(2, 4))
    def test_matches_brute_force(self, seed, n, d, k):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        labels[:2] = [0, 1]
        result = silhouette(X, labels)
        np.testing.assert_allclose(
            result.scores, brute_force_silhouette(X.tolist(), labels.tolist()),
            rtol=1e-12, atol=1e-12,
        )
        assert result.mean == float(result.scores.mean())
        for c, profile in result.profiles.items():
            assert np.all(np.diff(profile) <= 0)
            assert len(profile) == int((labels == c).sum())

    def test_singleton_clusters_score_zero(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [9.0]])
        result = silhouette(X, [0, 0, 0, 1, 2])
        assert result.scores[3] == 0.0 and result.scores[4] == 0.0
        assert result.scores[:3].min() > 0.9

    def test_needs_two_clusters(self):
        with pytest.raises(ValidationError):
            silhouette(np.zeros((3, 2)), [1, 1, 1])


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------

def reference_misassigned(truth, predicted):
    """Best matching by trying every permutation of the clusters."""
    truth_ids = {label: i for i, label in enumerate(dict.fromkeys(truth))}
    pred_ids = {label: i for i, label in enumerate(dict.fromkeys(predicted))}
    size = max(len(truth_ids), len(pred_ids))
    agree = np.zeros((size, size), dtype=int)
    for lt, lp in zip(truth, predicted):
        agree[pred_ids[lp], truth_ids[lt]] += 1
    best = max(
        sum(agree[j, perm[j]] for j in range(size))
        for perm in itertools.permutations(range(size))
    )
    return len(truth) - int(best)


class TestCountMisassigned:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from("ABCDEF"), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
    )))
    def test_equals_permutation_brute_force(self, pair):
        truth, predicted = pair
        assert count_misassigned(truth, predicted) == reference_misassigned(truth, predicted)

    def test_twelve_clusters_are_fast(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 12, size=600).tolist()
        predicted = [(t + 5) % 12 if rng.random() < 0.9 else int(rng.integers(12))
                     for t in truth]
        count_misassigned(truth[:2], predicted[:2])  # import the solver first
        t0 = time.perf_counter()
        wrong = count_misassigned(truth, predicted)
        assert time.perf_counter() - t0 < 0.5
        assert wrong == sum(p != (t + 5) % 12 for t, p in zip(truth, predicted))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            count_misassigned(["A", "B"], [0])


# ---------------------------------------------------------------------------
# Gaussian mixture
# ---------------------------------------------------------------------------

class TestGmm:
    def test_log_likelihood_rises_until_the_last_step(self):
        centers = np.eye(5)[:3] * 4.0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            X = np.concatenate([rng.normal(c, 1.0, size=(15, 5)) for c in centers])
            result = gmm_em(X, 3, seed=seed)
            gains = np.diff(result.ll_history)
            assert result.converged
            assert (gains[:-1] >= cluster.DEFAULT_GMM_TOL).all()
            assert gains[-1] >= -1e-9
            np.testing.assert_allclose(result.responsibilities.sum(axis=1), 1.0)
            assert result.weights.sum() == pytest.approx(1.0)
