"""Clustering: the batched K-Means restart engine against the
difference-form reference, rand index, silhouette, label matching, PCA
and the GMM contract."""

import hashlib
import itertools
import logging
import math
import struct
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quickroutes import cluster
from quickroutes.cluster import (
    best_kmeans,
    count_misassigned,
    gmm_em,
    kmeans,
    kmeans_restarts,
    pca_fit,
    pca_project,
    RandStats,
    rand_index,
    repeated_kmeans,
    silhouette,
    sweep_feature_count,
)
from quickroutes.errors import NumericError, ValidationError
from quickroutes.preprocess import FeatureScore, select_k_best

EXAMPLES = settings(max_examples=60, deadline=None)


def reference_squared_distances(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def reference_kmeans(points, k, seed=0, max_iter=cluster.DEFAULT_MAX_ITER,
                     tol=cluster.DEFAULT_TOL):
    """Lloyd's algorithm on the full (n, k, d) difference tensor.

    The reference the kernel must match bit for bit on C-ordered input:
    (assignments, centers, inertia, iterations). The fifth value lists
    each round's assignment and whether it went through a repair. A round
    that repaired stops the run when it ends on last round's assignment and
    on the centers it started from, since every later round would repeat it.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = X[rng.choice(n, size=k, replace=False)].astype(float).copy()

    rounds = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        started = centers.copy()
        d2 = reference_squared_distances(X, centers)
        assign = np.argmin(d2, axis=1)
        repaired = False
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
            repaired = True

        rounds.append((assign, repaired))
        new_centers = centers.copy()
        for j in range(k):
            members = X[assign == j]
            if members.size:
                new_centers[j] = members.mean(axis=0)
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift < tol:
            break
        if repaired and len(rounds) > 1 and np.array_equal(assign, rounds[-2][0]) \
                and np.array_equal(centers, started):
            break

    d2 = reference_squared_distances(X, centers)
    assign = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, centers, inertia, iterations, rounds


def assert_matches_reference(result, X, k, seed, max_iter=cluster.DEFAULT_MAX_ITER,
                             tol=cluster.DEFAULT_TOL):
    assign, centers, inertia, iterations, _ = reference_kmeans(X, k, seed, max_iter, tol)
    assert result.assignments.dtype == assign.dtype
    np.testing.assert_array_equal(result.assignments, assign)
    assert result.iterations == iterations
    assert result.centers.tobytes() == centers.tobytes()
    assert result.inertia == inertia


def assert_restarts_match_reference(results, X, k, seeds, max_iter=cluster.DEFAULT_MAX_ITER,
                                    tol=cluster.DEFAULT_TOL):
    assert [result.seed for result in results] == list(seeds)
    for result, seed in zip(results, seeds):
        assert_matches_reference(result, X, k, seed, max_iter, tol)


@contextmanager
def fallback_spy():
    """Counts calls of the difference-form distances (fallback and repair)."""
    with mock.patch.object(
        cluster, "_squared_distances", wraps=cluster._squared_distances
    ) as spy:
        yield spy


@contextmanager
def engine_settings(max_iter=cluster.DEFAULT_MAX_ITER, tol=cluster.DEFAULT_TOL):
    """The engine's round limit and shift tolerance set to these values in the block."""
    with mock.patch.object(cluster, "DEFAULT_MAX_ITER", max_iter), \
            mock.patch.object(cluster, "DEFAULT_TOL", tol):
        yield


def assign_to_sets(X, sets, widths=None):
    """``_assign`` of restarts whose center j is the mean of the rows
    ``sets[a][j]``, restart a on the prefix ``X[:, :widths[a]]`` (all
    columns by default), from the product order the engine would pick; and
    those centers as the reference computes them, (restarts, k, d), zero
    past each width."""
    X = np.ascontiguousarray(X, dtype=float)
    n, d = X.shape
    widths = np.full(len(sets), d) if widths is None else np.asarray(widths)
    members = np.zeros((len(sets), len(sets[0]), n), dtype=bool)
    centers = np.zeros(members.shape[:2] + (d,))
    for a, restart in enumerate(sets):
        for j, rows in enumerate(restart):
            members[a, j, rows] = True
            centers[a, j, :widths[a]] = X[members[a, j]].mean(axis=0)[:widths[a]]
    weights = members / members.sum(axis=2, keepdims=True)
    base = int(widths.min()) if widths.min() > n else 0
    gram = X[:, :base] @ X[:, :base].T if base else None
    products = cluster._products(X, gram, base, weights, widths)
    xx = np.cumsum(X * X, axis=1).T[widths - 1]
    assign = cluster._assign(X, np.sqrt(xx), weights, products, widths, cluster.EngineWork())
    return assign, centers


def singletons(rows):
    """Member sets of one row each: centers that are those rows."""
    return [[[r] for r in restart] for restart in rows]


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
        with fallback_spy() as spy:
            assign, centers = assign_to_sets(X, singletons([rows]))
        d2 = reference_squared_distances(X, centers[0])
        np.testing.assert_array_equal(assign[0], np.argmin(d2, axis=1))
        two = np.sort(d2, axis=1)[:, :2]
        if k > 1 and (two[:, 0] == two[:, 1]).any():
            assert spy.call_count == 1

    def test_equidistant_point_goes_to_lowest_center(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with fallback_spy() as spy:
            assign, _ = assign_to_sets(X, singletons([[2, 0]]))
        np.testing.assert_array_equal(assign[0], [1, 0, 0])
        (points, _), _ = spy.call_args
        np.testing.assert_array_equal(points, [[1.0]])

    def test_subnormal_scale_matches_reference(self):
        # products underflow here, so the error bound needs its absolute slack
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 8))
            k = int(rng.integers(2, n + 1))
            X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-162, -150)
            sets = [[rng.choice(n, int(rng.integers(1, min(n, 3) + 1)), replace=False).tolist()
                     for _ in range(k)]]
            assign, centers = assign_to_sets(X, sets)
            expected = np.argmin(reference_squared_distances(X, centers[0]), axis=1)
            np.testing.assert_array_equal(assign[0], expected)


def assert_nearest_per_restart(assign, X, centers, widths):
    for a, w in enumerate(widths):
        expected = np.argmin(reference_squared_distances(X[:, :w], centers[a, :, :w]), axis=1)
        np.testing.assert_array_equal(assign[a], expected)


def member_sets(data, n, k, restarts):
    """Per restart, k sets of one to three rows each, drawn with repetition."""
    return data.draw(st.lists(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3), min_size=k, max_size=k),
        min_size=restarts, max_size=restarts))


class TestRunnerUpPass:
    """``_assign`` keeps each row's best and runner-up estimate of
    ``|c|^2 - 2 x.c`` over k-1 elementwise passes; every answer is the
    difference form's argmin against the float means, on the restart's own
    width."""

    @EXAMPLES
    @given(grid_inputs(), st.data())
    def test_two_centers_match_reference(self, case, data):
        # one pass; grid rows and centers tie often
        X, _, _ = case
        sets = member_sets(data, len(X), 2, data.draw(st.integers(1, 6)))
        widths = [X.shape[1]] * len(sets)
        assign, centers = assign_to_sets(X, sets, widths)
        assert_nearest_per_restart(assign, X, centers, widths)

    @EXAMPLES
    @given(ANY_INPUT, st.data())
    def test_restarts_of_mixed_widths_match_reference(self, case, data):
        X, k, _ = case
        assume(k >= 2)
        restarts = data.draw(st.integers(1, 6))
        widths = data.draw(st.lists(st.integers(1, X.shape[1]), min_size=restarts,
                                    max_size=restarts))
        assign, centers = assign_to_sets(X, member_sets(data, len(X), k, restarts), widths)
        assert_nearest_per_restart(assign, X, centers, widths)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_well_separated_rows_never_reach_the_fallback(self, k):
        rng = np.random.default_rng(12)
        means = 20.0 * np.eye(k, 6)
        X = np.repeat(means, 10, axis=0) + rng.standard_normal((10 * k, 6))
        # four restarts, each with its centers on the blobs in another order,
        # each blob's center the mean of some of its rows
        blobs = np.arange(10 * k).reshape(k, 10)
        sets = [[rng.choice(blobs[j], int(rng.integers(1, 11)), replace=False).tolist()
                 for j in rng.permutation(k)] for _ in range(4)]
        with fallback_spy() as spy:
            assign, centers = assign_to_sets(X, sets)
        assert spy.call_count == 0
        assert_nearest_per_restart(assign, X, centers, [6] * 4)

    def test_exact_tie_in_the_expanded_form_goes_to_the_difference_form(self):
        # 1e18 absorbs every other term: |c|^2 - 2 x.c reads -1e18 at both
        # centers, rows 2 and 3, while row 0 is nearer center 1 and row 1
        # nearer center 0
        X = np.array([[1.0, 1e9], [-3.0, 1e9], [0.0, 1e9], [1.5, 1e9]])
        centers = X[2:]
        values = np.einsum("kd,kd->k", centers, centers) - 2.0 * X[:2] @ centers.T
        assert (values[:, 0] == values[:, 1]).all()
        with fallback_spy() as spy:
            assign, _ = assign_to_sets(X, singletons([[2, 3]]))
        (points, _), _ = spy.call_args
        np.testing.assert_array_equal(points[:2], X[:2])
        np.testing.assert_array_equal(assign, [[1, 0, 0, 1]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_and_center_go_to_the_difference_form(self, bad):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((12, 3))
        X[4, 1] = bad
        good = [i for i in range(12) if i != 4]
        sets = [[rng.choice(good, 2, replace=False).tolist() for _ in range(3)] for _ in range(3)]
        sets[1][2] = [0, 4]  # a center that takes the bad row
        with np.errstate(invalid="ignore", over="ignore"), fallback_spy() as spy:
            assign, centers = assign_to_sets(X, sets)
            assert_nearest_per_restart(assign, X, centers, [3, 3, 3])
        # every product meets the bad row (0 times NaN or inf is NaN), so
        # every row of every restart goes to the difference form
        redone = [points for (points, _), _ in spy.call_args_list]
        assert [len(points) for points in redone] == [12, 12, 12]


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


SEED_BATCHES = st.lists(st.integers(0, 999), min_size=1, max_size=8)
# every entry into the restart engine, each on 12 points of 3 columns
ENTRIES = {
    kmeans: lambda X: kmeans(X, 3),
    kmeans_restarts: lambda X: kmeans_restarts(X, 3, range(8)),
    best_kmeans: lambda X: best_kmeans(X, 3, restarts=8),
    repeated_kmeans: lambda X: repeated_kmeans(X, ["A", "B", "C"] * 4, 3, restarts=8),
    sweep_feature_count: lambda X: sweep_feature_count(
        X, ["a", "b", "c"], ["A", "B", "C"] * 4,
        [FeatureScore(name, 1.0) for name in ("a", "b", "c")], restarts=8),
    gmm_em: lambda X: gmm_em(X, 3),
}


def chunk_of(restarts, X, k):
    """A chunk size, in floats, that holds the (restarts, k, max(n, d))
    blocks of ``restarts`` restarts of k clusters on ``X``."""
    return restarts * k * max(X.shape)


class TestKMeansRestarts:
    @EXAMPLES
    @given(grid_inputs(), SEED_BATCHES)
    def test_grid_batches_match_reference(self, case, seeds):
        X, k, _ = case
        assert_restarts_match_reference(kmeans_restarts(X, k, seeds), X, k, seeds)

    @EXAMPLES
    @given(duplicate_row_inputs(), SEED_BATCHES)
    def test_duplicate_row_batches_match_reference(self, case, seeds):
        X, k, _ = case
        assert_restarts_match_reference(kmeans_restarts(X, k, seeds), X, k, seeds)

    @EXAMPLES
    @given(wide_scale_inputs(), SEED_BATCHES)
    def test_wide_scale_batches_match_reference(self, case, seeds):
        X, k, _ = case
        assert_restarts_match_reference(kmeans_restarts(X, k, seeds), X, k, seeds)

    @EXAMPLES
    @given(ANY_INPUT, SEED_BATCHES)
    def test_fortran_order_batches_give_the_c_order_result(self, case, seeds):
        X, k, _ = case
        results = kmeans_restarts(np.asfortranarray(X), k, seeds)
        assert_restarts_match_reference(results, np.ascontiguousarray(X), k, seeds)

    @EXAMPLES
    @given(ANY_INPUT, SEED_BATCHES, st.sampled_from([0, 1, 2, 3, 20]),
           st.sampled_from([0.0, cluster.DEFAULT_TOL, 0.5]))
    def test_max_iter_and_tol_batches_match_reference(self, case, seeds, max_iter, tol):
        X, k, _ = case
        with engine_settings(max_iter, tol):
            results = kmeans_restarts(X, k, seeds)
        assert_restarts_match_reference(results, X, k, seeds, max_iter, tol)

    @settings(max_examples=30, deadline=None)
    @given(ANY_INPUT, SEED_BATCHES, st.sampled_from([1, 2]))
    def test_chunk_boundaries_do_not_change_results(self, case, seeds, per_chunk):
        X, k, _ = case
        with mock.patch.object(cluster, "_CHUNK_FLOATS", chunk_of(per_chunk, X, k)), \
                mock.patch.object(cluster, "_lloyd", wraps=cluster._lloyd) as chunks:
            results = kmeans_restarts(X, k, seeds)
        assert chunks.call_count == -(-len(seeds) // per_chunk)
        assert_restarts_match_reference(results, X, k, seeds)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(8, 60), st.integers(1, 5), SEED_BATCHES)
    def test_one_column_sums_pairwise_like_the_reference(self, data_seed, n, k, seeds):
        # at d = 1 numpy sums a cluster's members pairwise, not row by row
        X = np.random.default_rng(data_seed).standard_normal((n, 1)) * 1e3
        assert_restarts_match_reference(kmeans_restarts(X, k, seeds), X, k, seeds)

    def test_restarts_converge_in_different_rounds(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        seeds = list(range(8))
        results = kmeans_restarts(X, 4, seeds)
        assert len({result.iterations for result in results}) > 1
        assert_restarts_match_reference(results, X, 4, seeds)

    def test_max_iter_hits_some_restarts_only(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        seeds = list(range(8))
        _, _, _, iterations, _ = zip(*(reference_kmeans(X, 4, s) for s in seeds))
        cap = sorted(iterations)[len(seeds) // 2]
        with engine_settings(cap):
            results = kmeans_restarts(X, 4, seeds)
        hits = [result.iterations == cap for result in results]
        assert any(hits) and not all(hits)
        assert_restarts_match_reference(results, X, 4, seeds, cap)

    @pytest.mark.parametrize("X, k, cap, expected", [
        # the input above: half the restarts reach the cap, none repairs
        (np.random.default_rng(5).standard_normal((40, 3)), 4, 6, (6, 4, 0)),
        # the input below whose seed 3 repairs in round 2
        (np.array([[0.18, 0.96], [-0.93, 0.06], [0.3, -1.12], [0.41, -0.98],
                   [0.18, 0.62], [0.1, -1.19], [0.69, 0.72], [0.16, 0.81]]), 3, 3, (3, 6, 1)),
    ])
    def test_work_record_counts_rounds_max_iter_hits_and_repairs(self, caplog, X, k, cap,
                                                                 expected):
        seeds = list(range(8))
        runs = [reference_kmeans(X, k, s, cap) for s in seeds]
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"), engine_settings(cap):
            kmeans_restarts(X, k, seeds)
        (record,) = caplog.records
        work = record.work
        assert (work.calls, work.rounds, work.max_iter_hits, work.repairs) == (1, *expected)
        assert work.rounds == max(run[3] for run in runs)
        assert work.max_iter_hits == sum(run[3] == cap for run in runs)
        assert work.repairs == sum(repaired for run in runs for _, repaired in run[4])

    def test_repair_in_one_restart_while_others_continue(self):
        # seeds that pick two rows of one value start with two equal centers
        X = np.repeat([[0.0, 0.0], [1.0, 3.0], [5.0, 1.0]], 5, axis=0)
        seeds = list(range(8))
        with mock.patch.object(cluster, "_repair", wraps=cluster._repair) as spy:
            results = kmeans_restarts(X, 3, seeds)
        assert 0 < spy.call_count < len(seeds)
        assert_restarts_match_reference(results, X, 3, seeds)

    def test_cluster_that_keeps_its_rows_keeps_its_center(self):
        # the far blob keeps its rows from round 1 while the line's clusters trade rows
        X = np.concatenate([[[30.0, 0.0], [30.0, 1.0], [31.0, 0.0], [31.0, 1.0]],
                            np.c_[np.arange(10.0), np.zeros(10)]])
        seeds = list(range(8))

        def keeps_one_and_moves_another(rounds):
            for (before, _), (after, repaired) in zip(rounds, rounds[1:]):
                kept = [np.array_equal(before == j, after == j) for j in range(3)]
                if not repaired and any(kept) and not all(kept):
                    return True
            return False

        assert any(keeps_one_and_moves_another(reference_kmeans(X, 3, s)[4]) for s in seeds)
        assert_restarts_match_reference(kmeans_restarts(X, 3, seeds), X, 3, seeds)
        # a round keeps the members of every cluster that did not change and
        # sums no cluster: on a line without equidistant rows, where no round
        # falls back, only the final centers are summed, and before them at
        # most one-row seed sets, for rows that tie between seed rows
        X[4:, 0] = np.sort(np.random.default_rng(0).uniform(0, 10, 10))
        assert any(keeps_one_and_moves_another(reference_kmeans(X, 3, s)[4]) for s in seeds)
        with mock.patch.object(cluster, "_means", wraps=cluster._means) as spy:
            results = kmeans_restarts(X, 3, seeds)
        assert spy.call_count >= 1
        for (_, members), _ in spy.call_args_list[:-1]:
            assert (members.sum(axis=1) == 1).all()
        assert_restarts_match_reference(results, X, 3, seeds)

    def test_repair_after_round_one_in_one_restart_of_a_batch(self):
        # a cluster of seed 3 empties in a later round; no other restart repairs after round 1
        X = np.array([[0.18, 0.96], [-0.93, 0.06], [0.3, -1.12], [0.41, -0.98],
                      [0.18, 0.62], [0.1, -1.19], [0.69, 0.72], [0.16, 0.81]])
        seeds = list(range(8))
        late = [s for s in seeds
                if any(repaired for _, repaired in reference_kmeans(X, 3, s)[4][1:])]
        assert late == [3]
        assert_restarts_match_reference(kmeans_restarts(X, 3, seeds), X, 3, seeds)

    def test_repaired_cluster_that_takes_back_its_rows_gets_a_new_mean(self):
        # two values for three clusters: every round repairs, and the cluster
        # the repair moves onto a 0.1 row takes back the three rows it held,
        # whose mean is not 0.1 in floating point; round 2 repeats round 1
        X = np.array([0.1] * 3 + [5.0] * 3)[:, None]
        seeds = list(range(4))
        assert all(all(repaired for _, repaired in reference_kmeans(X, 3, s, 5, 0.0)[4])
                   for s in seeds)
        with engine_settings(5, 0.0):
            results = kmeans_restarts(X, 3, seeds)
        assert [result.iterations for result in results] == [2] * len(seeds)
        assert_restarts_match_reference(results, X, 3, seeds, 5, 0.0)

    def test_repair_fixed_point_stops_after_two_rounds(self):
        # a mean of three copies of 1e11 + 0.1 is not that value: the shift
        # against the repaired centers never falls below tol, but from round
        # 2 on every round repeats the one before
        X = np.array([1e11 + 0.1] * 3 + [5.0] * 3)[:, None]
        seeds = list(range(8))
        results = kmeans_restarts(X, 3, seeds)
        assert [result.iterations for result in results] == [2] * len(seeds)
        # the assignments of 300 rounds without the fixed-point stop
        expected = [[2, 2, 2, 0, 0, 0]] + [[1, 1, 1, 2, 2, 2]] * 3 + [
            [2, 2, 2, 1, 1, 1], [2, 2, 2, 0, 0, 0], [2, 2, 2, 1, 1, 1], [2, 2, 2, 0, 0, 0]]
        assert [result.assignments.tolist() for result in results] == expected
        assert_restarts_match_reference(results, X, 3, seeds)

    def test_assign_falls_back_only_in_the_restart_with_a_tie(self):
        X = np.array([[0.0], [1.0], [2.0], [4.0]])
        # centers 0 and 2: row 1.0 is equidistant; centers 0.5 and 3: no ties
        with fallback_spy() as spy:
            assign, centers = assign_to_sets(X, [[[0], [2]], [[0, 1], [2, 3]]])
        (points, restart_centers), _ = spy.call_args
        assert spy.call_count == 1
        np.testing.assert_array_equal(points, [[1.0]])
        np.testing.assert_array_equal(restart_centers, centers[0])
        assert_nearest_per_restart(assign, X, centers, [1, 1])

    def test_results_keep_no_other_restarts_arrays_alive(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        results = kmeans_restarts(X, 4, range(8))
        for field in ("centers", "assignments"):
            arrays = [getattr(result, field) for result in results]
            bases = {id(a.base): a.base for a in arrays if a.base is not None}
            held = sum(a.nbytes for a in arrays if a.base is None)
            held += sum(base.nbytes for base in bases.values())
            assert held == sum(a.nbytes for a in arrays)

    def test_best_result_shares_no_memory_with_the_batch(self):
        X = np.random.default_rng(5).standard_normal((40, 3))
        batches = []
        real = cluster.kmeans_restarts

        def restarts(*args):
            batches.append(real(*args))
            return batches[-1]

        with mock.patch.object(cluster, "kmeans_restarts", restarts):
            best = best_kmeans(X, 4, restarts=8)
        (batch,) = batches
        # the batch's results are views of one block each; the winner is a copy
        assert batch[0].centers.base is batch[-1].centers.base is not None
        winner = min(batch, key=lambda result: result.inertia)
        assert (best.seed, best.inertia, best.iterations) == (winner.seed, winner.inertia,
                                                              winner.iterations)
        assert best.centers.tobytes() == winner.centers.tobytes()
        np.testing.assert_array_equal(best.assignments, winner.assignments)
        for result in batch:
            assert not np.shares_memory(best.centers, result.centers)
            assert not np.shares_memory(best.assignments, result.assignments)

    def test_traced_peak_stays_below_the_inertia_block_chunks(self):
        # the traced peak of this call when chunks were sized by their
        # (restarts, n, d) inertia block, 9 restarts at a time
        peak_before = 12_068_487
        X = np.random.default_rng(0).standard_normal((200, 571))
        tracemalloc.start()
        try:
            best_kmeans(X, 8, restarts=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= peak_before

    def test_repairs_at_k_equal_to_n_hold_no_n_squared_d_block(self):
        # 80 rows twice at k = n = 160: every row seeds a center, each
        # second copy's center loses its rows to the first copy's, and one
        # repair moves 80 centers; one (n, k, d) difference block is 20.5 MB
        X = np.tile(np.random.default_rng(0).standard_normal((80, 100)), (2, 1))
        tracemalloc.start()
        try:
            (result,) = kmeans_restarts(X, 160, [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000
        assert result.inertia == 0.0

    def test_no_seeds_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_restarts(np.zeros((4, 2)), 2, [])
        with pytest.raises(ValidationError):
            best_kmeans(np.zeros((4, 2)), 2, restarts=0)

    def test_logs_the_engines_work_at_debug(self, caplog):
        # two values for three clusters: every restart repairs, and rows tie
        X = np.array([0.0] * 5 + [1.0] * 5)[:, None]
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
            best_kmeans(X, 3, restarts=4)
            with mock.patch.object(cluster, "_CHUNK_FLOATS", chunk_of(3, X, 3)):
                best_kmeans(X, 3, restarts=4, seed0=10)
        assert [r.getMessage() for r in caplog.records] == [
            "kmeans_restarts: 1 _lloyd calls, 1 Lloyd rounds, 0 restarts stopped at max_iter, "
            "27 cluster sums computed, 33 shared, 45 rows assigned in the difference form, "
            "4 stops decided on float centers, 4 _repair calls, 10 inertia terms computed, "
            "30 shared",
            "kmeans_restarts: 2 _lloyd calls, 2 Lloyd rounds, 0 restarts stopped at max_iter, "
            "38 cluster sums computed, 22 shared, 45 rows assigned in the difference form, "
            "4 stops decided on float centers, 4 _repair calls, 20 inertia terms computed, "
            "20 shared",
        ]

    @pytest.mark.parametrize("scale, bad", [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
                                            (1e308, None)], ids=["nan", "inf", "-inf", "1e308"])
    @pytest.mark.parametrize("entry", ENTRIES, ids=[entry.__name__ for entry in ENTRIES])
    def test_non_finite_points_rejected_before_any_restart(self, entry, scale, bad):
        # a NaN or inf row, or finite rows whose squared norms overflow
        X = np.random.default_rng(15).uniform(-1.5, 1.5, (12, 3)) * scale
        if bad is not None:
            X[5, 2] = bad
        with mock.patch.object(cluster, "_lloyd", wraps=cluster._lloyd) as engine, \
                pytest.raises(ValidationError, match="finite points"):
            ENTRIES[entry](X)
        assert engine.call_count == 0

    def test_negative_seed_rejected(self):
        X = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.raises(ValidationError, match="seeds must be >= 0, got -1"):
            best_kmeans(X, 2, restarts=3, seed0=-1)

    def test_best_kmeans_keeps_lowest_tied_seed_across_chunks(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(c, 0.1, size=(10, 2)) for c in (0.0, 5.0, 10.0)])
        inertias = {s: kmeans(X, 3, seed=s).inertia for s in range(4, 16)}
        lowest = min(inertias.values())
        tied = [s for s, v in inertias.items() if v == lowest]
        assert len(tied) > 1
        for per_chunk in (1, 2, tied[1] - tied[0]):
            with mock.patch.object(cluster, "_CHUNK_FLOATS", chunk_of(per_chunk, X, 3)):
                best = best_kmeans(X, 3, restarts=12, seed0=4)
            assert best.seed == tied[0]
            assert best.inertia == lowest

    @settings(max_examples=30, deadline=None)
    @given(ANY_INPUT, st.integers(1, 6), st.integers(0, 50), st.booleans())
    def test_repeated_kmeans_values_equal_per_seed_rand_index(self, case, restarts, seed0, adjusted):
        X, k, seed = case
        truth = np.random.default_rng(seed).choice(["a", "b", "c"], size=len(X)).tolist()
        stats = repeated_kmeans(X, truth, k, restarts=restarts, seed0=seed0, adjusted=adjusted)
        expected = [
            rand_index(truth, kmeans(X, k, seed=s).assignments.tolist(), adjusted)
            for s in range(seed0, seed0 + restarts)
        ]
        assert stats.values == tuple(expected)
        assert (stats.minimum, stats.maximum) == (min(expected), max(expected))


def inertia_work(caplog, *args):
    """``kmeans_restarts(*args)``, and the inertia terms its work record
    counts computed and shared."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
        results = kmeans_restarts(*args)
    (record,) = [r for r in caplog.records if r.getMessage().startswith("kmeans")]
    return results, record.work.terms, record.work.shared_terms


def distinct_terms(results, by_value=True):
    """The (row, center) terms of these results' inertias, counted once:
    centers that compare equal are one (by bytes, with ``by_value`` False)."""
    terms = set()
    for result in results:
        for i, j in enumerate(result.assignments.tolist()):
            center = result.centers[j]
            terms.add((i, tuple(center.tolist()) if by_value else center.tobytes()))
    return len(terms)


def member_set_terms(X, k, seeds, max_iter=cluster.DEFAULT_MAX_ITER):
    """The (row, member set) terms of the inertias of these restarts'
    reference runs, counted once: a center's set is its seed row alone when
    no round ran, else the rows of its cluster in the last round."""
    terms = set()
    for seed in seeds:
        final, _, _, _, rounds = reference_kmeans(X, k, seed, max_iter)
        if rounds:
            last = rounds[-1][0]
            assert len(set(last.tolist())) == k  # no cluster is empty: each set is a cluster
            sets = [frozenset(np.flatnonzero(last == j).tolist()) for j in range(k)]
        else:
            sets = [("row", r) for r in cluster._initial_rows(len(X), k, seed)]
        terms.update((i, sets[j]) for i, j in enumerate(final.tolist()))
    return len(terms)


class TestInertias:
    """Each distinct (row, member set) term of a chunk's inertias is
    computed once; every inertia stays bit for bit the reference's."""

    def test_restarts_on_one_partition_under_permuted_labels(self, caplog):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(c, 0.1, size=(10, 2)) for c in (0.0, 5.0, 10.0)])
        seeds = list(range(8))
        results, computed, shared = inertia_work(caplog, X, 3, seeds)
        labelings = [tuple(r.assignments.tolist()) for r in results]
        assert any(a != b and len(set(zip(a, b))) == 3
                   for a, b in itertools.combinations(labelings, 2))
        assert computed == distinct_terms(results) and computed + shared == len(seeds) * len(X)
        assert shared > 0
        assert_restarts_match_reference(results, X, 3, seeds)

    @pytest.mark.parametrize("max_iter", [0, cluster.DEFAULT_MAX_ITER])
    def test_centers_that_differ_only_in_the_sign_of_a_zero(self, caplog, max_iter):
        # rows that differ only in the sign of a zero: terms are shared by
        # member set, so centers of one value from two sets are two terms
        X = np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [3.0, 0.5], [0.2, 3.0]])
        seeds = list(range(16))
        with engine_settings(max_iter):
            results, computed, shared = inertia_work(caplog, X, 2, seeds)
        assert computed == member_set_terms(X, 2, seeds, max_iter)
        assert computed + shared == len(seeds) * len(X)
        if max_iter == 0:
            # the seed rows' sets are the centers: -0.0 and 0.0 rows are two sets of one value
            assert computed > distinct_terms(results)
        # every center is the mean of its member set, which reads a -0.0 as +0.0;
        # no distance or shift sees the sign
        assert_restarts_match_reference(results, X + 0.0, 2, seeds, max_iter)
        for result, seed in zip(results, seeds):
            assign, _, inertia, iterations, _ = reference_kmeans(X, 2, seed, max_iter)
            np.testing.assert_array_equal(result.assignments, assign)
            assert (result.inertia, result.iterations) == (inertia, iterations)
            assert not np.signbit(result.centers[result.centers == 0.0]).any()

    def test_one_column(self, caplog):
        X = np.random.default_rng(3).integers(0, 5, size=(30, 1)) * 0.1
        seeds = list(range(10))
        results, computed, shared = inertia_work(caplog, X, 3, seeds)
        assert computed == distinct_terms(results) and shared > 0
        assert_restarts_match_reference(results, X, 3, seeds)


@st.composite
def order_inputs(draw):
    """Points for both product orders, with as many columns as rows or
    fewer (the weighted sums) or more (the Gram matrix): integer grids
    whose distances tie, duplicate rows (fewer distinct rows than k
    repairs), near-duplicate rows (members change while a center barely
    moves), or rows near the finite-norm limit, whose estimates overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 24))
    d = draw(st.sampled_from([1, 2, 3, n - 1, n, n + 1, 2 * n + 3]))
    kind = draw(st.sampled_from(["grid", "duplicates", "near", "limit"]))
    if kind == "grid":
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "limit":
        # norms of about 1.1e154 in one direction: 2 x.c overflows, |x - c| does not
        X = (1.0 + 0.02 * rng.standard_normal((n, d))) * (1.1e154 / math.sqrt(d))
    else:
        base = rng.standard_normal((draw(st.integers(1, max(1, n // 2))), d))
        X = base[rng.integers(0, len(base), size=n)]
        if kind == "near":
            X = X * (1.0 + 1e-15 * rng.integers(-2, 3, size=X.shape))
    return X, draw(st.integers(1, n)), draw(SEED_BATCHES)


class TestProductOrders:
    """Both product orders, ``W G`` and ``(W X) X^T``, give every restart
    bit for bit as the reference runs it on explicit centers; every
    decision the estimates cannot certify goes to the exact path."""

    @settings(max_examples=120, deadline=None)
    @given(order_inputs(), st.sampled_from([1, 2, 3, cluster.DEFAULT_MAX_ITER]),
           st.sampled_from([0.0, cluster.DEFAULT_TOL, 0.5]))
    def test_both_orders_match_reference(self, case, max_iter, tol):
        X, k, seeds = case
        with engine_settings(max_iter, tol):
            results = kmeans_restarts(X, k, seeds)
        assert_restarts_match_reference(results, X, k, seeds, max_iter, tol)

    @pytest.mark.parametrize("n, d", [(20, 5), (8, 30)], ids=["sums", "gram"])
    def test_overflowing_estimates_go_to_the_exact_path(self, caplog, n, d):
        rng = np.random.default_rng(21)
        X = (1.0 + 0.02 * rng.standard_normal((n, d))) * (1.1e154 / math.sqrt(d))
        seeds = list(range(6))
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
            results = kmeans_restarts(X, 3, seeds)
        (record,) = caplog.records
        # every row of the first assignment, at least, is decided on the float centers
        assert record.work.fallback_rows >= n * len(seeds)
        assert_restarts_match_reference(results, X, 3, seeds)

    def test_rounds_that_decide_on_estimates_sum_nothing(self, caplog):
        # well-separated blobs: no round repairs, falls back or stops on float
        # centers, so the only sums are the final centers' distinct sets
        rng = np.random.default_rng(22)
        X = np.concatenate([rng.normal(c, 1.0, size=(10, 40)) for c in (0.0, 6.0, 12.0)])
        seeds = list(range(12))
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
            results = kmeans_restarts(X, 3, seeds)
            sweep_feature_count(X, [f"c{i}" for i in range(40)], ["A", "B", "C"] * 10,
                                [FeatureScore(f"c{i}", 40.0 - i) for i in range(40)],
                                restarts=4)
        restarts, sweep = (record.work for record in caplog.records)
        assert (restarts.fallback_rows, restarts.exact_stops, restarts.repairs) == (0, 0, 0)
        final = {frozenset(np.flatnonzero(r.assignments == j).tolist())
                 for r in results for j in range(3)}
        assert restarts.sums == len(final)
        assert restarts.sums + restarts.shared == len(seeds) * 3
        assert (sweep.fallback_rows, sweep.exact_stops, sweep.repairs) == (0, 0, 0)
        assert sweep.sums == sweep.shared == 0
        assert_restarts_match_reference(results, X, 3, seeds)


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


@st.composite
def labeling_batches(draw):
    """A truth labeling and 1-6 labelings of the same points, of any label kind."""
    n = draw(st.integers(2, 40))
    truth = draw(st.lists(draw(LABEL_KINDS), min_size=n, max_size=n))
    rows = draw(st.lists(
        st.lists(draw(LABEL_KINDS), min_size=n, max_size=n), min_size=1, max_size=6
    ))
    return truth, rows


class TestBatchedRandIndex:
    @settings(max_examples=150, deadline=None)
    @given(labeling_batches(), st.booleans())
    def test_equals_dict_reference_per_row(self, batch, adjusted):
        truth, rows = batch
        codes = np.stack([cluster._label_codes(row) for row in rows])
        expected = [reference_rand_index(truth, row, adjusted) for row in rows]
        assert cluster._rand_indices(truth, codes, adjusted) == expected

    @pytest.mark.parametrize("adjusted", [True, False])
    def test_degenerate_partitions(self, adjusted):
        n = 7
        cases = [
            (["x"] * n, [0] * n),                    # one cluster on both sides
            (list(range(n)), [0] * n),               # singletons against one cluster
            (list(range(n)), [f"s{i}" for i in range(n)]),  # singletons on both sides
            (["x", "x"], [0, 1]),                    # two points
        ]
        for truth, labels in cases:
            expected = reference_rand_index(truth, labels, adjusted)
            assert rand_index(truth, labels, adjusted) == expected
            codes = np.stack([cluster._label_codes(labels)] * 3)
            assert cluster._rand_indices(truth, codes, adjusted) == [expected] * 3


# ---------------------------------------------------------------------------
# Per-restart prefix widths and the feature-count sweep
# ---------------------------------------------------------------------------

def prefix_lloyd(X, k, seeds, widths):
    """The engine with restart a on the prefix ``X[:, :widths[a]]``, as the
    sweep calls it. Each result holds the restart's centers on its own
    width, whose columns past it must be zero, and the inertia
    ``kmeans_restarts`` would compute from them on that prefix."""
    X = np.ascontiguousarray(X, dtype=float)
    widths = np.asarray(widths)
    xx = np.cumsum(X * X, axis=1).T[widths - 1]
    rows = cluster._seed_rows(len(X), k, tuple(seeds))
    base = int(widths.min())
    gram = X[:, :base] @ X[:, :base].T if base > len(X) else None
    work = cluster.EngineWork()
    assigns, members, rounds = cluster._lloyd(X, np.sqrt(xx), rows, widths, gram, work)
    centers, sets = cluster._centers(X, members, widths, work)
    results = []
    for assign, padded, ids, iterations, seed, w in zip(assigns, centers, sets, rounds, seeds,
                                                        widths.tolist()):
        assert padded.shape == (k, X.shape[1]) and not padded[:, w:].any()
        own = padded[:, :w].copy()
        (inertia,) = cluster._inertias(own_prefix(X, w), own[None], ids[None], assign[None],
                                       cluster.EngineWork()).tolist()
        results.append(cluster.KMeansResult(assign, own, inertia, iterations, seed))
    return results


def own_prefix(X, w):
    return np.ascontiguousarray(X[:, :w])


class TestPerRestartWidths:
    @EXAMPLES
    @given(ANY_INPUT, st.data(), st.sampled_from([0, 1, 3, cluster.DEFAULT_MAX_ITER]),
           st.sampled_from([0.0, cluster.DEFAULT_TOL, 0.5]))
    def test_each_restart_is_the_run_on_its_own_prefix(self, case, data, max_iter, tol):
        X, k, _ = case
        assume(X.shape[1] >= 2)
        widths = data.draw(st.lists(st.integers(2, X.shape[1]), min_size=1, max_size=8))
        seeds = data.draw(st.lists(st.integers(0, 999), min_size=len(widths), max_size=len(widths)))
        with engine_settings(max_iter, tol):
            results = prefix_lloyd(X, k, seeds, widths)
        assert [result.seed for result in results] == seeds
        for result, w, seed in zip(results, widths, seeds):
            assert_matches_reference(result, own_prefix(X, w), k, seed, max_iter, tol)

    def test_shift_near_tol_is_decided_at_the_restarts_own_width(self):
        # numpy sums 7 columns one by one but 12 in its unrolled pairwise
        # order, so a zero-padded center can shift by a different last bit;
        # a tol between the two shifts must stop as the own width does
        rng = np.random.default_rng(3)
        k, w, seed = 3, 7, 0
        for _ in range(100):
            X = rng.standard_normal((20, 12))
            start = X[list(cluster._initial_rows(20, k, seed)), :w]
            moved = reference_kmeans(own_prefix(X, w), k, seed, max_iter=1)[1]
            own = np.sqrt(((moved - start) ** 2).sum(axis=1)).max()
            padded = np.sqrt((np.pad(moved - start, ((0, 0), (0, 12 - w))) ** 2).sum(axis=1)).max()
            if own != padded:
                break
        assert own != padded
        for tol in (own, padded):
            with engine_settings(tol=tol):
                (result,) = prefix_lloyd(X, k, [seed], [w])
            assert_matches_reference(result, own_prefix(X, w), k, seed, tol=tol)

    def test_fallback_decides_on_the_restarts_own_width(self):
        # a near tie at width 2 that center 1 wins; the padded column's
        # 1e16 would absorb both distances into an exact tie, won by center 0
        X = np.array([[1.0, 0.0, 1e8], [0.0, 0.0, 5.0], [1.9999999999999998, 0.0, 7.0]])
        with fallback_spy() as spy:
            assign, _ = assign_to_sets(X, singletons([[1, 2]]), [2])
        assert spy.call_count == 1
        np.testing.assert_array_equal(assign, [[1, 0, 1]])

    def test_repair_runs_on_the_restarts_own_width(self):
        # seeds that pick two rows of one value start with two equal centers
        X = np.repeat([[0.0, 0.0, 2.0], [1.0, 3.0, 0.0], [5.0, 1.0, 1.0]], 5, axis=0)
        seeds, widths = list(range(8)) * 2, [2] * 8 + [3] * 8
        with mock.patch.object(cluster, "_repair", wraps=cluster._repair) as spy:
            results = prefix_lloyd(X, 3, seeds, widths)
        assert any(points.shape[1] == 2 for (points, _, _), _ in spy.call_args_list)
        for result, w, seed in zip(results, widths, seeds):
            assert_matches_reference(result, own_prefix(X, w), 3, seed)

    def test_full_width_results_are_unchanged(self):
        # digests of kmeans_restarts before the engine took per-restart widths
        rng = np.random.default_rng(2024)
        cases = {
            "7ee42dbd0850a5df591c1c88adf08252439b621267737f042f8f2f139286c223":
                (rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-3, 4, size=6), 4, range(20)),
            "f5f084f0d3b93d678d83c78ec3809180856880938b8f9ca43f320d3382cfc1d6":
                (np.repeat([[0.0, 0.0], [1.0, 3.0], [5.0, 1.0]], 5, axis=0), 3, range(8)),
            "1dbf10c57dfa208a5ad9ad7ab35d505e3023ccb01495882a2177908a62c0a540":
                (rng.standard_normal((50, 1)) * 1e3, 3, range(10)),
            "f599d81bbc9f2fd9793e76fd8d641aac1ce2d7eb5134c6d5886f98a782c62331":
                (rng.standard_normal((200, 30)) + np.repeat(rng.normal(0, 4, (8, 30)), 25, axis=0),
                 8, range(30)),
        }
        for expected, (X, k, seeds) in cases.items():
            digest = hashlib.sha256()
            for r in kmeans_restarts(X, k, seeds):
                digest.update(r.assignments.astype(np.int64).tobytes())
                digest.update(r.centers.tobytes())
                digest.update(struct.pack("<dqq", r.inertia, r.iterations, r.seed))
            assert digest.hexdigest() == expected


def reference_sharing(X, k, seeds, widths):
    """The sums of these restarts' final centers, batched, from the
    reference runs alone: each restart's non-empty clusters of its last
    round, grouped by member set, as (sums, clusters that take another's)."""
    sets = []
    for seed, w in zip(seeds, widths):
        assign = reference_kmeans(own_prefix(X, w), k, seed)[4][-1][0]
        sets += [frozenset(np.flatnonzero(assign == j).tolist()) for j in range(k)
                 if (assign == j).any()]
    return len(set(sets)), len(sets) - len(set(sets))


def sharing_of(run, *args):
    """``run(*args)``, and per call of ``_means`` the cluster sums computed
    and the member sets that took one of them."""
    counts = []
    real = cluster._means

    def means(*means_args):
        sums, which = real(*means_args)
        counts.append((len(sums), which.size - len(sums)))
        return sums, which

    with mock.patch.object(cluster, "_means", means):
        return run(*args), counts


def agreeing_rounds(X, k, seed, narrow, wide):
    """Per round both reference runs reach, whether the two widths' assignments agree."""
    rounds = [reference_kmeans(own_prefix(X, w), k, seed)[4] for w in (narrow, wide)]
    return [np.array_equal(a, b) for (a, _), (b, _) in zip(*rounds)]


class TestSharedSums:
    """Clusters that hold the same rows, in any restarts and at any widths
    of a chunk, share one sum: the rounds sum no clusters unless they
    decide exactly, and the final centers sum each distinct member set
    once. Each result stays bit for bit the run on its own prefix, and the
    final sums match the reference model."""

    def check(self, X, k, seeds, widths):
        results, counts = sharing_of(prefix_lloyd, X, k, seeds, widths)
        assert counts[-1] == reference_sharing(X, k, seeds, widths)
        for result, seed, w in zip(results, seeds, widths):
            assert_matches_reference(result, own_prefix(X, w), k, seed)
        return counts

    def test_restarts_that_agree_early_and_differ_later(self):
        X = np.random.default_rng(18).standard_normal((12, 4))
        assert agreeing_rounds(X, 3, 3, 2, 3) == [True, False, False, False]
        # the rounds sum nothing; the two widths end on different clusters
        assert self.check(X, 3, [3, 3], [2, 3]) == [(5, 1)]

    def test_restart_that_stops_first_leaves_the_others_sharing(self):
        # width 4 stops after round 2; widths 2 and 3 end on shared clusters
        X = np.random.default_rng(165).standard_normal((12, 4))
        assert [reference_kmeans(own_prefix(X, w), 3, 3)[3] for w in (2, 3, 4)] == [4, 4, 2]
        counts = self.check(X, 3, [3, 3, 3], [2, 3, 4])
        assert counts == [(6, 3)]

    def test_repaired_restarts_share_their_new_sums(self):
        # seeds 1 and 6 repair in round 2 onto one assignment, whose sums they
        # share; the first two calls sum one-row seed sets, for round 0's ties
        # and round 1's repairs
        rng = np.random.default_rng(487)
        X = rng.standard_normal((5, 3))[rng.integers(0, 5, size=10)]
        seeds = list(range(8))
        rounds = [reference_kmeans(X, 3, s)[4] for s in seeds]
        assert [s for s in seeds if len(rounds[s]) > 1 and rounds[s][1][1]] == [1, 6]
        with mock.patch.object(cluster, "_repair", wraps=cluster._repair) as repairs:
            assert self.check(X, 3, seeds, [3] * 8) == [(8, 4), (8, 4), (6, 6), (3, 3), (3, 3),
                                                        (3, 21)]
        assert repairs.call_count > 2

    def test_two_seeds_reach_one_cluster_at_one_width(self):
        rng = np.random.default_rng(7)
        X = np.concatenate([rng.normal(c, 0.3, size=(6, 4)) for c in (0.0, 4.0, 8.0)])
        seeds = [0, 1, 2, 3]
        results, counts = sharing_of(kmeans_restarts, X, 3, seeds)
        assert counts == [reference_sharing(X, 3, seeds, [4] * 4)] == [(3, 9)]
        assert_restarts_match_reference(results, X, 3, seeds)

    def test_restarts_of_different_widths_share_one_sum(self):
        # seeds 1 and 2 at widths 2 and 4 end on the same clusters
        rng = np.random.default_rng(7)
        X = np.concatenate([rng.normal(c, 0.3, size=(6, 4)) for c in (0.0, 4.0, 8.0)])
        assert self.check(X, 3, [1, 2], [2, 4]) == [(3, 3)]


def product_columns(n, narrowest, widest):
    """The columns a sweep chunk's products read per restart: n of the Gram
    matrix plus those past its narrowest width when that exceeds n, else
    every column up to its widest."""
    return n + widest - narrowest if narrowest > n else widest


@contextmanager
def engine_spy():
    """Record the widths of every ``_lloyd`` call and the labelings of
    every ``_rand_indices`` call."""
    batches, labelings = [], []
    real_lloyd, real_rand = cluster._lloyd, cluster._rand_indices

    def lloyd(X, xnorm, rows, widths, gram, work):
        batches.append((X.shape, widths.tolist()))
        return real_lloyd(X, xnorm, rows, widths, gram, work)

    def rand(truth, rows, adjusted):
        labelings.append(rows.copy())
        return real_rand(truth, rows, adjusted)

    with mock.patch.object(cluster, "_lloyd", lloyd), mock.patch.object(cluster, "_rand_indices", rand):
        yield batches, labelings


def reference_rand_stats(X, truth, k, restarts, seed0=0, adjusted=True):
    """The sweep entry of columns ``X``: one ``rand_index`` per restart of
    ``kmeans_restarts``, in seed order, and their min, mean and max."""
    values = [
        rand_index(truth, r.assignments.tolist(), adjusted)
        for r in kmeans_restarts(X, k, range(seed0, seed0 + restarts))
    ]
    return RandStats(min(values), float(np.asarray(values).mean()), max(values), tuple(values))


@st.composite
def sweep_inputs(draw):
    """18 climbs of 3 routes in 9 columns: tied F scores or distinct ones,
    and often only 4 distinct rows, so restarts repair empty clusters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((18, 9)) + np.repeat(np.eye(3), 6, axis=0) @ rng.normal(0, 3, (3, 9))
    if draw(st.booleans()):
        values = values[rng.integers(0, 4, size=18)]
    f = rng.integers(0, 3, size=9) if draw(st.booleans()) else rng.random(9)
    names = [f"c{i}" for i in range(9)]
    return values, names, [FeatureScore(name, float(v)) for name, v in zip(names, f)]


class TestSweepFeatureCount:
    TRUTH = ["A", "B", "C"] * 6

    @settings(max_examples=40, deadline=None)
    @given(sweep_inputs(), st.integers(1, 9), st.integers(1, 4 * 18 * 9 * 12))
    def test_entries_and_assignments_equal_per_prefix_runs(self, case, limit, budget):
        values, names, scores = case
        # a small budget splits the widths into several batches, some mid-range
        with mock.patch.object(cluster, "_SWEEP_FLOATS", budget), engine_spy() as (batches, labelings):
            curve = sweep_feature_count(values, names, self.TRUTH, scores, restarts=4,
                                        max_features=limit)
        ranking = select_k_best(scores, len(names))
        col_idx = [names.index(name) for name in ranking]
        prefixes = [values[:, col_idx[:w]] for w in range(1, limit + 1)]
        expected = [reference_rand_stats(X, self.TRUTH, 3, restarts=4) for X in prefixes]
        assert curve.ranking == ranking
        assert [curve.ranking[:e.n_features] for e in curve.entries] == [ranking[:w] for w in range(1, limit + 1)]
        assert [e.stats for e in curve.entries] == expected
        # one scoring pass over every restart's assignment, each its prefix's own run
        (scored,) = labelings
        runs = [r.assignments for X in prefixes for r in kmeans_restarts(X, 3, range(4))]
        np.testing.assert_array_equal(scored, np.stack(runs))
        assert curve.chosen_k == min(
            e.n_features for e in curve.entries
            if e.stats.minimum == max(x.stats.minimum for x in curve.entries)
        )
        # width 1 alone on one column; then consecutive (width, seed) pairs,
        # each chunk on the columns up to its widest and within the budget
        # unless it holds a single width
        assert batches[0] == ((18, 1), [1] * 4)
        pairs = []
        for (n, padded), widths in batches:
            assert padded == max(widths)
            assert len(set(widths)) == 1 or len(widths) * n * product_columns(
                n, widths[0], padded) <= budget
            pairs += widths
        assert pairs == [w for w in range(1, limit + 1) for _ in range(4)]

    def test_width_one_sums_pairwise_like_its_own_run(self):
        # at d = 1 numpy sums a cluster's members pairwise, not row by row
        rng = np.random.default_rng(8)
        values = rng.standard_normal((60, 3)) * 1e3
        names = ["a", "b", "c"]
        scores = [FeatureScore(name, f) for name, f in zip(names, (1.0, 3.0, 2.0))]
        truth = ["A", "B", "C"] * 20
        curve = sweep_feature_count(values, names, truth, scores, restarts=10, max_features=1)
        assert [e.n_features for e in curve.entries] == [1]
        assert curve.entries[0].stats == reference_rand_stats(values[:, [1]], truth, 3, restarts=10)

    def test_logs_the_engines_work_at_debug(self, caplog):
        # ranked columns in equal pairs; well-separated routes, so restarts
        # often hold equal clusters
        rng = np.random.default_rng(4)
        values = np.repeat(rng.standard_normal((18, 3)) + np.tile(np.eye(3) * 8.0, (6, 1)), 2, axis=1)
        names = [f"c{i}" for i in range(6)]
        scores = [FeatureScore(name, f) for name, f in zip(names, (6.0, 6.0, 5.0, 5.0, 4.0, 4.0))]
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
            sweep_feature_count(values, names, self.TRUTH, scores, restarts=4)
            with mock.patch.object(cluster, "DEFAULT_MAX_ITER", 2):
                sweep_feature_count(values, names, self.TRUTH, scores, restarts=4)
        records = [r for r in caplog.records if r.getMessage().startswith("sweep")]
        assert [r.getMessage() for r in records] == [
            "sweep_feature_count: 2 _lloyd calls, 12 Lloyd rounds, 0 restarts stopped at "
            "max_iter, 6 cluster sums computed, 0 shared, 0 rows assigned in the difference "
            "form, 1 stops decided on float centers, 1 _repair calls, 0 inertia terms "
            "computed, 0 shared",
            "sweep_feature_count: 2 _lloyd calls, 4 Lloyd rounds, 24 restarts stopped at "
            "max_iter, 3 cluster sums computed, 0 shared, 0 rows assigned in the difference "
            "form, 0 stops decided on float centers, 1 _repair calls, 0 inertia terms "
            "computed, 0 shared",
        ]
        # only the repair and the exact stop sum, k clusters before and k after each
        for work in (r.work for r in records):
            assert work.sums + work.shared <= 2 * 3 * (work.repairs + work.exact_stops)

    def test_widths_across_the_row_count_use_both_orders(self):
        # 12 rows and widths 1..30: the chunks up to 12 columns take weighted
        # sums, the wider ones the Gram matrix grown from chunk to chunk
        rng = np.random.default_rng(23)
        truth = ["A", "B", "C"] * 4
        values = rng.standard_normal((12, 30)) + np.repeat(np.eye(3), 4, axis=0) @ rng.normal(
            0, 2, (3, 30))
        values = values[[0, 3, 6, 9, 1, 4, 7, 10, 2, 5, 8, 11]]
        names = [f"c{i}" for i in range(30)]
        scores = [FeatureScore(name, float(30 - i)) for i, name in enumerate(names)]
        grams = []
        real = cluster._lloyd

        def lloyd(X, xnorm, rows, widths, gram, work):
            grams.append((int(widths.min()), int(widths.max()), len(widths), gram))
            if gram is not None:
                own = X[:, :widths.min()]
                np.testing.assert_allclose(gram, own @ own.T, rtol=1e-12)
            return real(X, xnorm, rows, widths, gram, work)

        budget = 2**12
        with mock.patch.object(cluster, "_SWEEP_FLOATS", budget), \
                mock.patch.object(cluster, "_lloyd", lloyd):
            curve = sweep_feature_count(values, names, truth, scores, restarts=6)
        # several Gram chunks: each grows the last one's matrix
        assert sum(gram is not None for *_, gram in grams) > 2
        assert any(gram is None for *_, gram in grams)
        for narrowest, widest, restarts, gram in grams:
            assert (gram is not None) == (narrowest > 12)
            assert narrowest == widest or restarts * 12 * product_columns(
                12, narrowest, widest) <= budget
        expected = [reference_rand_stats(values[:, :w], truth, 3, restarts=6) for w in range(1, 31)]
        assert [e.stats for e in curve.entries] == expected

    def test_draws_each_seed_once(self):
        # 300 restarts, and one chunk per width: six chunks read the same draws
        rng = np.random.default_rng(9)
        values = rng.standard_normal((30, 6))
        names = [f"c{i}" for i in range(6)]
        scores = [FeatureScore(name, float(6 - i)) for i, name in enumerate(names)]
        cluster._seed_rows.cache_clear()
        with mock.patch.object(cluster, "_SWEEP_FLOATS", 1), \
                mock.patch.object(cluster, "_initial_rows", wraps=cluster._initial_rows) as draws, \
                engine_spy() as (batches, _):
            curve = sweep_feature_count(values, names, ["A", "B", "C"] * 10, scores, restarts=300)
        assert len(batches) == 6
        assert sorted(seed for (_, _, seed), _ in draws.call_args_list) == list(range(300))
        expected = reference_rand_stats(values[:, :4], ["A", "B", "C"] * 10, 3, restarts=300)
        assert curve.entries[3].stats == expected

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_no_restarts_rejected(self, restarts):
        scores = [FeatureScore(name, 1.0) for name in ("a", "b")]
        with pytest.raises(ValidationError, match="at least one seed"):
            sweep_feature_count(np.zeros((6, 2)), ["a", "b"], ["x", "y"] * 3, scores,
                                restarts=restarts)

    @pytest.mark.parametrize("n_clusters", [0, 7])
    def test_clusters_outside_one_to_n_rejected(self, n_clusters):
        scores = [FeatureScore(name, 1.0) for name in ("a", "b")]
        with pytest.raises(ValidationError, match=f"k={n_clusters} outside 1..n=6"):
            sweep_feature_count(np.zeros((6, 2)), ["a", "b"], ["x", "y"] * 3, scores,
                                n_clusters=n_clusters)

    def test_truth_of_another_length_rejected_before_clustering(self):
        scores = [FeatureScore(name, 1.0) for name in ("a", "b")]
        with mock.patch.object(cluster, "_lloyd", wraps=cluster._lloyd) as engine, \
                pytest.raises(ValidationError, match="truth must label every row"):
            sweep_feature_count(np.zeros((6, 2)), ["a", "b"], ["x", "y"] * 2, scores, restarts=2)
        assert engine.call_count == 0

    @pytest.mark.parametrize("max_features", [0, -1])
    def test_max_features_below_one_rejected(self, max_features):
        scores = [FeatureScore(name, 1.0) for name in ("a", "b")]
        with pytest.raises(ValidationError, match="max_features must be >= 1"):
            sweep_feature_count(np.zeros((6, 2)), ["a", "b"], ["x", "y"] * 3, scores,
                                max_features=max_features)


def driver_chunks(X, k, seeds, first):
    """The ``_lloyd`` calls of ``_runs(X, k, seeds, first)``, which are not
    run: each one's columns, norms, restart widths, initial rows and Gram
    matrix."""
    calls = []

    def lloyd(X, xnorm, rows, widths, gram, work):
        calls.append((X.shape[1], xnorm, widths.tolist(), rows, gram))

    with mock.patch.object(cluster, "_lloyd", lloyd):
        for _ in cluster._runs(X, k, seeds, first, cluster.EngineWork()):
            pass
    return calls


class TestDriverChunks:
    """The one chunk rule of the engine's driver, for both of its callers."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 14), st.data(),
           st.integers(1, 6), st.integers(1, 400), st.integers(1, 4000))
    def test_chunks_follow_the_one_rule(self, data_seed, n, d, data, restarts, chunk_floats,
                                        sweep_floats):
        X = np.random.default_rng(data_seed).standard_normal((n, d))
        k = data.draw(st.integers(1, n))
        first = data.draw(st.sampled_from([1, d, data.draw(st.integers(1, d))]))
        seeds = data.draw(st.lists(st.integers(0, 999), min_size=restarts, max_size=restarts))
        with mock.patch.object(cluster, "_CHUNK_FLOATS", chunk_floats), \
                mock.patch.object(cluster, "_SWEEP_FLOATS", sweep_floats):
            calls = driver_chunks(X, k, seeds, first)

        def allowed(widths):
            if 1 in widths and set(widths) != {1}:
                return False  # width 1 runs alone
            narrowest, widest = min(widths), max(widths)
            return len(widths) * k * max(n, widest) <= chunk_floats and (
                narrowest == widest
                or len(widths) * n * product_columns(n, narrowest, widest) <= sweep_floats)

        # every (width, seed) pair once, in width-major order
        pairs = [(w, s) for w in range(first, d + 1) for s in range(len(seeds))]
        assert [w for *_, widths, _, _ in calls for w in widths] == [w for w, _ in pairs]
        np.testing.assert_array_equal(
            np.concatenate([rows for *_, rows, _ in calls]),
            cluster._seed_rows(n, k, tuple(seeds))[[s for _, s in pairs]])
        done = 0
        for columns, xnorm, widths, _, gram in calls:
            narrowest, widest = min(widths), max(widths)
            assert columns == widest
            np.testing.assert_allclose(
                xnorm, np.sqrt(np.cumsum(X * X, axis=1)).T[np.array(widths) - 1], rtol=1e-14)
            # both limits hold unless the chunk is a single pair, and the
            # next pair would break one of them or the width-1 rule
            assert len(widths) == 1 or allowed(widths)
            done += len(widths)
            if done < len(pairs):
                assert not allowed(widths + [pairs[done][0]])
            assert (gram is not None) == (narrowest > n)
            if gram is not None:
                own = X[:, :narrowest]
                np.testing.assert_allclose(gram, own @ own.T, rtol=1e-12, atol=1e-12)

    def test_a_sweep_chunk_may_split_one_widths_seeds(self):
        # 10 restarts at k = 2 on 4 x 6: a chunk of several widths holds at
        # most 180 // (4 x the columns its products read) pairs, so each
        # chunk stops inside a width
        X = np.random.default_rng(0).standard_normal((4, 6))
        with mock.patch.object(cluster, "_SWEEP_FLOATS", 180):
            calls = driver_chunks(X, 2, list(range(10)), 1)
        assert [widths for *_, widths, _, _ in calls] == [
            [1] * 10, [2] * 10 + [3] * 5, [3] * 5 + [4] * 6, [4] * 4 + [5] * 5,
            [5] * 5 + [6] * 4, [6] * 6]


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


def reference_silhouette(X, labels):
    """The row loop in the difference form: one row of the distance matrix
    at a time, each distance from ``X[i] - X``, summed per cluster with
    ``np.bincount``."""
    X = np.asarray(X, dtype=float)
    clusters, codes = np.unique(labels, return_inverse=True)
    sizes = np.bincount(codes)
    scores = np.zeros(len(X))
    for i, own in enumerate(codes.tolist()):
        if sizes[own] <= 1:
            continue
        diff = X[i] - X
        dist = np.sqrt(np.einsum("md,md->m", diff, diff))
        sums = np.bincount(codes, weights=dist, minlength=clusters.size)
        a = sums[own] / (sizes[own] - 1)
        sums /= sizes
        sums[own] = np.inf
        b = sums.min()
        top = max(a, b)
        scores[i] = 0.0 if top == 0.0 else (b - a) / top
    return scores


@st.composite
def hard_silhouette_inputs(draw):
    """Points on column offsets up to 1e4, with an exact duplicate and a
    1e-9 near-duplicate of row 0, and labels that may leave singletons."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, k = draw(st.integers(4, 40)), draw(st.sampled_from([1, 2, 5, 50, 600])), draw(st.integers(2, 6))
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0) + rng.uniform(-1e4, 1e4, size=d)
    X[1] = X[0]
    X[2] = X[0] + 1e-9
    labels = rng.integers(0, k, size=n)
    labels[3] = (labels[0] + 1) % k
    if draw(st.booleans()):
        labels[-1] = k  # a singleton cluster
    return X, labels


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

    @settings(max_examples=300, deadline=None)
    @given(hard_silhouette_inputs())
    def test_matches_row_loop_on_offsets_duplicates_and_singletons(self, case):
        X, labels = case
        np.testing.assert_allclose(silhouette(X, labels).scores, reference_silhouette(X, labels),
                                   rtol=1e-12, atol=1e-12)

    def test_nan_row_matches_row_loop(self):
        X = np.random.default_rng(0).standard_normal((12, 5))
        X[4, 2] = math.nan
        labels = np.repeat([0, 1, 2, 3], 3)
        np.testing.assert_allclose(silhouette(X, labels).scores, reference_silhouette(X, labels),
                                   rtol=1e-12, atol=1e-12)

    def test_subnormal_squared_distances_match_row_loop(self):
        # squares of 1e-160 round in the subnormal range, absolutely, not relatively
        X = np.random.default_rng(0).standard_normal((12, 3)) * 1e-160
        labels = np.repeat([0, 1, 2], 4)
        np.testing.assert_allclose(silhouette(X, labels).scores, reference_silhouette(X, labels),
                                   rtol=1e-12, atol=1e-12)

    def test_overflowing_norms_keep_finite_distances(self):
        # |1.5e154|^2 overflows while 1.5e154 and 0.2e154 lie 1.3e154 apart:
        # the expanded form reads inf there, and its bound is inf too
        X = np.array([1.5, 0.2, 1.4, 1.45, -1.5, -0.2, -1.4, -1.45])[:, None] * 1e154
        labels = [0, 0, 1, 1, 2, 2, 3, 3]
        want = reference_silhouette(X, labels)
        assert np.isfinite(want).all()
        np.testing.assert_allclose(silhouette(X, labels).scores, want, rtol=1e-12, atol=1e-12)

    def test_peak_memory_stays_linear_in_the_points(self):
        # an (n, n, d) difference tensor would take about 730 MB here
        X = np.random.default_rng(0).standard_normal((400, 571))
        labels = np.arange(400) % 8
        tracemalloc.start()
        try:
            silhouette(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_logs_the_exact_pair_count_at_debug(self, caplog):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 6.0], [20.0, 0.0], [20.0, 6.0]])
        with caplog.at_level(logging.DEBUG, logger="quickroutes.cluster"):
            result = silhouette(X, [0, 0, 0, 1, 1])
        # the 5 self-pairs and the duplicate pair, both ways
        assert "silhouette: 7 of 25 pairs" in caplog.text
        np.testing.assert_allclose(result.scores, reference_silhouette(X, [0, 0, 0, 1, 1]),
                                   rtol=1e-12, atol=1e-12)

    def test_singleton_clusters_score_zero(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0], [9.0]])
        result = silhouette(X, [0, 0, 0, 1, 2])
        assert result.scores[3] == 0.0 and result.scores[4] == 0.0
        assert result.scores[:3].min() > 0.9

    def test_needs_two_clusters(self):
        with pytest.raises(ValidationError):
            silhouette(np.zeros((3, 2)), [1, 1, 1])

    @pytest.mark.parametrize("labels", [[3, 3, 7, 7], [0.2, 0.2, 0.7, 0.7], ["b", "b", "a", "a"]])
    def test_profiles_are_keyed_by_every_label(self, labels):
        result = silhouette(np.array([[0.0], [0.1], [5.0], [5.3]]), labels)
        # each label once, as the Python value it was given, in sorted order
        assert list(result.profiles) == sorted(set(labels))
        assert {type(c) for c in result.profiles} == {type(labels[0])}
        for label, profile in result.profiles.items():
            want = result.scores[[i for i, c in enumerate(labels) if c == label]]
            np.testing.assert_array_equal(profile, np.sort(want)[::-1])


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
        t0 = time.perf_counter()
        wrong = count_misassigned(truth, predicted)
        assert time.perf_counter() - t0 < 0.5
        assert wrong == sum(p != (t + 5) % 12 for t, p in zip(truth, predicted))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            count_misassigned(["A", "B"], [0])

    def test_empty_labelings_have_no_disagreement(self):
        assert count_misassigned([], []) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_matching_total_equals_linear_sum_assignment(self, rows, cols, high, seed):
        from scipy.optimize import linear_sum_assignment

        weights = np.random.default_rng(seed).integers(0, high, size=(rows, cols))
        r, c = linear_sum_assignment(weights, maximize=True)
        assert cluster._max_matching_total(weights) == int(weights[r, c].sum())


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@st.composite
def pca_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 30))
    d = draw(st.integers(1, 8))
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(0, 5, size=d)
    return X, draw(st.integers(1, min(n - 1, d)))


class TestPca:
    @EXAMPLES
    @given(pca_inputs())
    def test_components_are_orthonormal_rows(self, case):
        X, dims = case
        model = pca_fit(X, dims)
        assert model.components.shape == (dims, X.shape[1])
        np.testing.assert_allclose(model.components @ model.components.T, np.eye(dims),
                                   atol=1e-12)

    @EXAMPLES
    @given(pca_inputs())
    def test_explained_variance_is_descending_and_matches_svd(self, case):
        X, dims = case
        model = pca_fit(X, dims)
        assert (np.diff(model.explained_variance) <= 0).all()
        singular = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
        expected = singular[:dims] ** 2 / (len(X) - 1)
        np.testing.assert_allclose(model.explained_variance, expected,
                                   rtol=1e-9, atol=1e-12 * expected[0])

    @EXAMPLES
    @given(pca_inputs())
    def test_largest_coefficient_of_each_row_is_positive(self, case):
        X, dims = case
        for row in pca_fit(X, dims).components:
            assert row[np.argmax(np.abs(row))] > 0

    @EXAMPLES
    @given(pca_inputs())
    def test_projected_training_data_has_mean_zero(self, case):
        X, dims = case
        projected = pca_project(pca_fit(X, dims), X)
        assert projected.shape == (len(X), dims)
        scale = np.abs(X - X.mean(axis=0)).max()
        np.testing.assert_allclose(projected.mean(axis=0), 0.0, atol=1e-12 * scale)

    @EXAMPLES
    @given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.integers(1, 8))
    def test_equals_eigh_of_the_covariance(self, seed, n, d):
        # singular values 4 down to 1, so each axis is well defined
        rng = np.random.default_rng(seed)
        r = min(n - 1, d)
        # orthonormal columns orthogonal to the ones vector: centered already
        left = np.linalg.qr(np.c_[np.ones(n), rng.standard_normal((n, r))])[0][:, 1:]
        right = np.linalg.qr(rng.standard_normal((d, r)))[0]
        X = (left * np.linspace(4.0, 1.0, r)) @ right.T + rng.normal(0, 5, size=d)
        dims = int(rng.integers(1, r + 1))
        eigvals, eigvecs = np.linalg.eigh(np.cov(X, rowvar=False, ddof=1).reshape(d, d))
        order = np.argsort(eigvals)[::-1][:dims]
        expected = eigvecs[:, order].T
        expected *= np.sign(expected[np.arange(dims), np.abs(expected).argmax(axis=1)])[:, None]
        model = pca_fit(X, dims)
        np.testing.assert_allclose(model.components, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, eigvals[order], rtol=1e-12)

    def test_dims_outside_range_rejected(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        for dims in (0, 4):
            with pytest.raises(ValidationError):
                pca_fit(X, dims)
        with pytest.raises(ValidationError):
            pca_fit(X[:3], 3)  # n - 1 = 2 limits dims

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        X = np.random.default_rng(0).standard_normal((5, 3))
        X[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            pca_fit(X, 2)

    @pytest.mark.parametrize("width", [3, 5])
    def test_projecting_points_of_another_width_rejected(self, width):
        model = pca_fit(np.random.default_rng(0).standard_normal((6, 4)), 2)
        points = np.random.default_rng(1).standard_normal((3, width))
        with pytest.raises(ValidationError, match=f"points have {width} columns, the PCA model 4"):
            pca_project(model, points)


# ---------------------------------------------------------------------------
# Gaussian mixture
# ---------------------------------------------------------------------------

class TestGmm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_log_gaussians_equal_cholesky_and_solve_triangular(self, d, n, k, seed):
        from scipy.linalg import cholesky, solve_triangular

        rng = np.random.default_rng(seed)
        A = rng.standard_normal((k, d + 3, d)) * rng.uniform(0.01, 10.0, size=(k, 1, d))
        covs = A.transpose(0, 2, 1) @ A / (d + 3) + 1e-6 * np.eye(d)
        means = rng.standard_normal((k, d))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 100.0)
        want = np.empty((n, k))
        for j in range(k):
            chol = cholesky(covs[j], lower=True)
            y = solve_triangular(chol, (X - means[j]).T, lower=True)
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            want[:, j] = -0.5 * (d * np.log(2.0 * np.pi) + logdet + (y * y).sum(axis=0))
        got = cluster._log_gaussians(X, means, covs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_covariance_not_positive_definite_names_its_component(self):
        covs = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.eye(2)])
        with pytest.raises(NumericError, match="^component 1: "):
            cluster._log_gaussians(np.zeros((4, 2)), np.zeros((3, 2)), covs)

    def test_converged_only_when_the_last_change_is_within_tol(self):
        # two tight blobs fitted with three components: the reg-inexact
        # M-step makes the last step lose up to ~1e-2 on many seeds
        tol = cluster.DEFAULT_GMM_TOL
        lost = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            X = np.concatenate([rng.normal(c, 0.01, size=(15, 2)) for c in ([0, 0], [1, 1])])
            result = gmm_em(X, 3, seed=seed)
            gains = np.diff(result.ll_history)
            assert result.iterations < cluster.DEFAULT_MAX_ITER
            assert (gains[:-1] >= tol).all() and gains[-1] < tol  # the stopping rule
            assert result.converged == (gains[-1] >= -tol)
            lost += not result.converged
        assert lost > 0

    def test_unconverged_stop_logged_as_warning(self, caplog):
        # the tight blobs above, up to the first seed whose last step loses more than tol
        with caplog.at_level(logging.WARNING, logger="quickroutes.cluster"):
            for seed in range(40):
                rng = np.random.default_rng(seed)
                X = np.concatenate([rng.normal(c, 0.01, size=(15, 2)) for c in ([0, 0], [1, 1])])
                result = gmm_em(X, 3, seed=seed)
                if not result.converged:
                    break
        assert not result.converged
        change = result.ll_history[-1] - result.ll_history[-2]
        assert [r.getMessage() for r in caplog.records] == [
            f"GMM EM stopped unconverged after {result.iterations} iterations; "
            f"last log-likelihood change {change:.3e}"]
        assert caplog.records[0].levelno == logging.WARNING

    def test_empty_initial_cluster_fits_without_warnings(self):
        # K-Means leaves one of three clusters empty on two values, so that
        # component starts at weight 0 and log weight -inf
        X = np.array([0.0] * 5 + [1.0] * 5)[:, None]
        assert sorted(np.bincount(kmeans(X, 3).assignments, minlength=3).tolist()) == [0, 5, 5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = gmm_em(X, 3)
        assert np.isfinite(result.log_likelihood)
        assert result.weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(result.responsibilities.sum(axis=1), 1.0)

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
