"""Quantile-to-normal scaling and ANOVA-F selection against naive oracles,
and the array kernels against the per-column code they replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from quickroutes import preprocess
from quickroutes.errors import ValidationError
from quickroutes.features import FeatureMatrix
from quickroutes.preprocess import (
    FeatureScore,
    fit_quantile,
    ndtri as ported_ndtri,
    score_features,
    select_k_best,
)


def matrix_of(columns: dict, labels=None) -> FeatureMatrix:
    names = tuple(columns)
    values = np.column_stack([np.asarray(v, dtype=float) for v in columns.values()])
    return FeatureMatrix(
        names=names,
        values=values,
        climb_ids=tuple(range(values.shape[0])),
        labels=tuple(labels) if labels is not None else None,
    )


class TestQuantileScaler:
    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            fit_quantile(matrix_of({"a": [1.0]}))

    def test_median_maps_to_zero(self):
        m = matrix_of({"a": [3.0, 1.0, 2.0, 10.0, 7.0]})
        scaler = fit_quantile(m)
        out = scaler.transform_values(np.array([[3.0]]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_even_count_median_interpolates_to_zero(self):
        m = matrix_of({"a": [1.0, 2.0, 3.0, 4.0]})
        scaler = fit_quantile(m)
        out = scaler.transform_values(np.array([[2.5]]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_column_flagged_and_zeroed(self):
        m = matrix_of({"a": [5.0, 5.0, 5.0], "b": [1.0, 2.0, 3.0]})
        scaler = fit_quantile(m)
        out = scaler.transform(m)
        assert (out.values[:, 0] == 0.0).all()
        assert (scaler.transform_values(np.array([[-9.0, 2.0], [9.0, 2.0]]))[:, 0] == 0.0).all()
        # the varying column is not
        assert out.values[0, 1] < 0.0 < out.values[2, 1]

    def test_distinct_values_keep_strict_order(self):
        values = np.arange(1.0, 34.0)
        m = matrix_of({"a": values})
        out = fit_quantile(m).transform(m)
        col = out.values[:, 0]
        assert (np.diff(col) > 0).all()

    def test_transformed_column_is_nearly_standard_normal(self):
        values = np.arange(1.0, 34.0)
        m = matrix_of({"a": values})
        col = np.sort(fit_quantile(m).transform(m).values[:, 0])
        n = len(col)
        # Kolmogorov-Smirnov distance against the normal CDF
        cdf = ndtr(col)
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        ks = max(np.abs(cdf - upper).max(), np.abs(cdf - lower).max())
        assert ks <= 0.1

    def test_out_of_range_clamps_to_half_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        m = matrix_of({"a": values})
        scaler = fit_quantile(m)
        lo = ndtri(1 / (2 * 5))
        hi = ndtri(1 - 1 / (2 * 5))
        out = scaler.transform_values(np.array([[0.0], [99.0]]))
        assert out[0, 0] == pytest.approx(lo)
        assert out[1, 0] == pytest.approx(hi)

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(5)
        fit = rng.normal(size=40)
        m = matrix_of({"a": fit})
        scaler = fit_quantile(m)
        probes = np.sort(rng.normal(size=200) * 2)
        out = scaler.transform_values(probes[:, None])[:, 0]
        assert (np.diff(out) >= 0).all()

    def test_rank_idempotence(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=25)
        m = matrix_of({"a": values})
        once = fit_quantile(m).transform(m)
        twice = fit_quantile(once).transform(once)
        assert (np.argsort(once.values[:, 0]) == np.argsort(twice.values[:, 0])).all()

    def test_column_mismatch_rejected(self):
        scaler = fit_quantile(matrix_of({"a": [1.0, 2.0]}))
        with pytest.raises(ValidationError):
            scaler.transform(matrix_of({"b": [1.0, 2.0]}))

    def test_ties_share_mid_rank(self):
        m = matrix_of({"a": [1.0, 2.0, 2.0, 3.0]})
        scaler = fit_quantile(m)
        out = scaler.transform(m).values[:, 0]
        # both ties map to the average of ranks 2 and 3 -> ecdf 0.5 -> 0
        assert out[1] == out[2] == pytest.approx(0.0, abs=1e-12)


def naive_anova_f(groups):
    """Textbook two-pass computation over explicit group lists."""
    all_values = [v for g in groups for v in g]
    n = len(all_values)
    k = len(groups)
    grand = sum(all_values) / n
    ssb = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ssw = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    if ssw == 0:
        return math.inf if ssb > 0 else 0.0
    return (ssb / (k - 1)) / (ssw / (n - k))


def anova_f(column, labels):
    """F ratio of one column, through ``_anova_rows``."""
    row = np.asarray(column, dtype=float).reshape(1, -1)
    return float(preprocess._anova_rows(row, list(labels))[0])


class TestAnovaF:
    def test_no_between_group_variance(self):
        assert anova_f([5, 5, 5, 5, 5, 5], ["a", "a", "b", "b", "c", "c"]) == 0.0

    def test_zero_within_variance_distinct_means_is_infinite(self):
        f = anova_f([1, 1, 2, 2, 3, 3], ["a", "a", "b", "b", "c", "c"])
        assert f == math.inf

    def test_worked_example_against_oracle(self):
        column = [1, 2, 2, 3, 5, 6]
        labels = ["a", "a", "b", "b", "c", "c"]
        expected = naive_anova_f([[1, 2], [2, 3], [5, 6]])
        assert anova_f(column, labels) == pytest.approx(expected, rel=1e-9)

    def test_oracle_agreement_on_random_data(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            sizes = rng.integers(2, 8, size=3)
            groups = [list(rng.normal(loc=i, size=s)) for i, s in enumerate(sizes)]
            column = [v for g in groups for v in g]
            labels = [i for i, g in enumerate(groups) for _ in g]
            assert anova_f(column, labels) == pytest.approx(
                naive_anova_f(groups), rel=1e-9
            )

    def test_needs_two_groups(self):
        with pytest.raises(ValidationError):
            anova_f([1, 2, 3], ["a", "a", "a"])

    def test_needs_more_samples_than_groups(self):
        with pytest.raises(ValidationError):
            anova_f([1, 2], ["a", "b"])

    def test_scaling_invariance_of_ranking(self):
        rng = np.random.default_rng(8)
        labels = ["a"] * 5 + ["b"] * 5 + ["c"] * 5
        base = {f"c{i}": rng.normal(size=15) + rng.normal() for i in range(12)}
        m1 = matrix_of(base, labels)
        affine = {
            name: 3.7 * (i + 1) * col + 11.0 * i - 4.0
            for i, (name, col) in enumerate(base.items())
        }
        m2 = matrix_of(affine, labels)
        s1 = score_features(m1)
        s2 = score_features(m2)
        assert select_k_best(s1, 12) == select_k_best(s2, 12)


class TestSelectKBest:
    SCORES = [
        FeatureScore("a", 5.0),
        FeatureScore("b", math.inf),
        FeatureScore("c", 5.0),
        FeatureScore("d", 1.0),
    ]

    def test_infinity_sorts_first_then_column_order(self):
        assert select_k_best(self.SCORES, 2) == ["b", "a"]

    def test_all_columns_keeps_tie_order(self):
        assert select_k_best(self.SCORES, 4) == ["b", "a", "c", "d"]

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            select_k_best(self.SCORES, 0)
        with pytest.raises(ValidationError):
            select_k_best(self.SCORES, 5)

    def test_nan_score_rejected(self):
        # sorted with a NaN key they rank a, b, c: the best column last
        scores = [FeatureScore("a", 8.0), FeatureScore("b", math.nan), FeatureScore("c", 57.8)]
        with pytest.raises(ValidationError, match="NaN F scores cannot be ranked: b"):
            select_k_best(scores, 3)

    def test_constant_columns_score_zero(self):
        m = matrix_of(
            {"flat": [7.0, 7.0, 7.0, 7.0], "real": [1.0, 2.0, 1.0, 2.0]},
            labels=["a", "a", "b", "b"],
        )
        scores = {s.name: s.f for s in score_features(m)}
        assert scores["flat"] == 0.0


# ---------------------------------------------------------------------------
# the Cephes ndtri port against scipy.special.ndtri, bit for bit
# ---------------------------------------------------------------------------

def assert_ndtri_matches_scipy(p):
    p = np.asarray(p, dtype=float)
    got, want = ported_ndtri(p), ndtri(p)
    assert got.shape == want.shape
    assert (np.isnan(got) == np.isnan(want)).all()
    finite = ~np.isnan(want)
    assert got[finite].tobytes() == want[finite].tobytes()


def neighbours(x, count=200):
    """``count`` consecutive doubles on each side of ``x``, and ``x``."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


class TestNdtri:
    def test_every_mid_rank_level_up_to_2000_rows(self):
        # the levels (a + b) / (2 n_fit) that the ECDF of n_fit rows can take
        assert_ndtri_matches_scipy(np.concatenate([
            np.arange(1, 2 * n) / (2.0 * n) for n in range(2, 2001)
        ]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=50))
    def test_draws_inside_the_unit_interval(self, p):
        assert_ndtri_matches_scipy(p)

    def test_ends_nan_and_subnormals(self):
        tiny = float(np.finfo(float).smallest_subnormal)
        p = [0.0, -0.0, 1.0, math.nan, tiny, 2 * tiny, 1e-310, 2.2e-308, 1e-300]
        assert_ndtri_matches_scipy(p)
        got = ported_ndtri(p)
        assert got[0] == got[1] == -math.inf and got[2] == math.inf and math.isnan(got[3])

    @pytest.mark.parametrize("edge", [math.exp(-2), 1 - math.exp(-2), 0.13533528323661269189,
                                      math.exp(-32), 1 - math.exp(-32)],
                             ids=["exp(-2)", "1-exp(-2)", "cephes exp(-2)", "exp(-32)", "1-exp(-32)"])
    def test_both_sides_of_each_branch_point(self, edge):
        assert_ndtri_matches_scipy(neighbours(edge))

    def test_tails_near_the_x_equals_8_switch(self):
        # x = sqrt(-2 log p) crosses 8 at p = exp(-32)
        p = math.exp(-32) * np.exp(np.linspace(-1e-3, 1e-3, 4001))
        x = np.sqrt(-2.0 * np.log(p))
        assert (x < 8.0).any() and (x >= 8.0).any()
        assert_ndtri_matches_scipy(p)

    def test_random_uniform_tiny_and_near_one(self):
        rng = np.random.default_rng(2)
        assert_ndtri_matches_scipy(np.concatenate([
            rng.random(20_000), np.exp(-rng.uniform(0.0, 745.0, 20_000)),
            1.0 - rng.random(20_000) * 1e-9,
        ]))

    def test_outside_the_unit_interval_is_nan(self):
        assert np.isnan(ported_ndtri([-0.5, 1.5, -math.inf, math.inf])).all()

    def test_keeps_the_input_shape(self):
        p = np.linspace(0.01, 0.99, 24).reshape(2, 3, 4)
        assert ported_ndtri(p).shape == (2, 3, 4)
        assert ported_ndtri(0.5).shape == ()


# ---------------------------------------------------------------------------
# array kernels against the per-column reference, bit for bit
# ---------------------------------------------------------------------------

def reference_scale(fit, values):
    """Each column of ``values`` through the scaling fitted on that column
    of ``fit``, computed per column from ``np.sort``, ``np.unique``,
    ``np.interp`` and scipy's ``ndtri``."""
    fit = np.asarray(fit, dtype=float)
    values = np.asarray(values, dtype=float)
    n_fit = len(fit)
    lo, hi = 1.0 / (2.0 * n_fit), 1.0 - 1.0 / (2.0 * n_fit)
    out = np.empty_like(values)
    for col in range(values.shape[1]):
        ref, v = np.sort(fit[:, col]), values[:, col]
        if ref[0] == ref[-1]:
            out[:, col] = 0.0
            continue
        distinct, first, counts = np.unique(ref, return_index=True, return_counts=True)
        q = (first + (first + counts)) / (2.0 * n_fit)
        ecdf = np.interp(v, distinct, q)
        ecdf = np.clip(ecdf, lo, hi)
        ecdf = np.where(v < distinct[0], lo, ecdf)
        ecdf = np.where(v > distinct[-1], hi, ecdf)
        out[:, col] = ndtri(ecdf)
    return out


def assert_same_scaled(got, want):
    """Equal bits, except that scipy's ndtri may flip a NaN's sign bit."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def reference_anova_f(column, labels):
    x = np.asarray(column, dtype=float)
    groups: dict = {}
    for value, label in zip(x, labels):
        groups.setdefault(label, []).append(value)
    k = len(groups)
    n = x.size
    grand = x.mean()
    ssb = 0.0
    ssw = 0.0
    for values in groups.values():
        g = np.asarray(values)
        ssb += g.size * (g.mean() - grand) ** 2
        ssw += float(((g - g.mean()) ** 2).sum())
    if ssw == 0.0:
        return math.inf if ssb > 0.0 else 0.0
    return float((ssb / (k - 1)) / (ssw / (n - k)))


def product_square_anova_f(column, labels):
    """reference_anova_f with the between-group offsets squared as d * d."""
    x = np.asarray(column, dtype=float)
    groups: dict = {}
    for value, label in zip(x, labels):
        groups.setdefault(label, []).append(value)
    grand = x.mean()
    ssb = ssw = 0.0
    for values in groups.values():
        g = np.asarray(values)
        d = g.mean() - grand
        ssb += g.size * (d * d)
        ssw += float(((g - g.mean()) ** 2).sum())
    return float((ssb / (len(groups) - 1)) / (ssw / (x.size - len(groups))))


def reference_scores(matrix, labels):
    out = []
    for col in range(matrix.n_features):
        column = matrix.values[:, col]
        out.append(0.0 if column.min() == column.max() else reference_anova_f(column, labels))
    return out


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@st.composite
def scored_matrices(draw):
    """Columns of noise, count grids, constants and group-constant values,
    over unequal groups with string or integer labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 5))
    sizes = [draw(st.integers(1, 9)) for _ in range(k)]
    if sum(sizes) <= k:
        sizes[0] += 1
    names = draw(st.sampled_from([["a", "b", "c", "d", "e"], [3, -1, 0, 7, 2]]))
    labels = [names[g] for g in rng.permutation(np.repeat(np.arange(k), sizes))]
    n = len(labels)
    columns = {}
    for c in range(draw(st.integers(1, 12))):
        kind = rng.integers(4)
        if kind == 0:
            col = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
        elif kind == 1:
            col = rng.integers(-3, 4, size=n) * 2.0 / 127
        elif kind == 2:
            col = np.full(n, rng.standard_normal())
        else:  # zero within-group variance
            level = {name: rng.integers(0, 2) for name in names}
            col = np.array([float(level[label]) for label in labels])
        columns[f"c{c}"] = col
    return matrix_of(columns, labels), labels


class TestScoreKernel:
    @settings(max_examples=80, deadline=None)
    @given(scored_matrices())
    def test_scores_match_reference(self, case):
        matrix, labels = case
        ours = [s.f for s in score_features(matrix)]
        assert same_bits(ours, reference_scores(matrix, labels))
        for col in range(matrix.n_features):
            column = matrix.values[:, col]
            assert same_bits(anova_f(column, labels), reference_anova_f(column, labels))

    def test_constant_and_group_constant_columns(self):
        labels = ["a", "a", "a", "b", "b", "c"]
        m = matrix_of(
            {"flat": [2.0] * 6, "split": [1, 1, 1, 4, 4, 9], "noise": [1, 2, 3, 2, 5, 9]},
            labels,
        )
        scores = [s.f for s in score_features(m)]
        assert scores[:2] == [0.0, math.inf]
        assert same_bits(scores, reference_scores(m, labels))

    def test_column_where_scalar_square_is_not_a_product(self):
        # the scalar code squared each group-mean offset d as d ** 2 (libm
        # pow), which rounds differently from the array square d * d in
        # about 1 of 1,000 draws; find a column where that moves F
        rng = np.random.default_rng(0)
        labels = [0, 0, 0, 1, 1, 1, 1, 2, 2]
        for _ in range(50000):
            column = rng.standard_normal(len(labels))
            if reference_anova_f(column, labels) != product_square_anova_f(column, labels):
                break
        else:
            pytest.fail("no column where d ** 2 and d * d give different F")
        m = matrix_of({"x": column}, labels)
        assert same_bits([s.f for s in score_features(m)], reference_scores(m, labels))


# fit values that stress the run rule: signed zeros, infinities and NaNs
SPECIAL = [-2.0, -0.0, 0.0, 1.5, 3.0, math.inf, -math.inf, math.nan]
cells = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def fit_and_probes(draw):
    """A fit block of 2..12 rows and 1..5 columns, one column maybe forced
    all-NaN or constant, and probe rows: the fit rows and fresh draws."""
    n, width = draw(st.integers(2, 12)), draw(st.integers(1, 5))
    fit = np.array(draw(st.lists(cells, min_size=n * width, max_size=n * width))).reshape(n, width)
    col = draw(st.integers(0, width - 1))
    kind = draw(st.sampled_from(["plain", "all-nan", "constant"]))
    if kind == "all-nan":
        fit[:, col] = math.nan
    elif kind == "constant":
        fit[:, col] = draw(cells)
    m = draw(st.integers(1, 8))
    fresh = np.array(draw(st.lists(cells, min_size=m * width, max_size=m * width))).reshape(m, width)
    return fit, np.vstack([fit, fresh])


def sorted_blocks():
    """Blocks of 1..6 rows of 1..12 values from SPECIAL, each row ascending."""
    return st.integers(1, 6).flatmap(lambda d: st.integers(1, 12).flatmap(
        lambda n: st.lists(st.sampled_from(SPECIAL), min_size=d * n, max_size=d * n).map(
            lambda v: np.sort(np.array(v).reshape(d, n), axis=1))))


def assert_knots_match_np_unique(block, n_fit):
    knots, levels, bounds = preprocess._ecdf_knots(block, n_fit)
    assert bounds[0] == 0 and bounds[-1] == knots.size == levels.size
    for row, a, b in zip(block, bounds, bounds[1:]):
        want, first, counts = np.unique(row, return_index=True, return_counts=True)
        assert knots[a:b].tobytes() == want.tobytes()
        assert levels[a:b].tobytes() == ((first + (first + counts)) / (2.0 * n_fit)).tobytes()


class TestScalerKnots:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 6))
    def test_transform_matches_per_column_reference(self, seed, n, width):
        rng = np.random.default_rng(seed)
        fit = rng.integers(-3, 4, size=(n, width)) * rng.choice([1.0, 1e-3, 1e6], size=width)
        fit[:, 0] = fit[0, 0]  # one constant column
        m = matrix_of({f"c{i}": fit[:, i] for i in range(width)})
        scaler = fit_quantile(m)
        probes = np.vstack([fit, fit * 1.5 - 1.0, rng.standard_normal((n, width)) * 3])
        assert_same_scaled(scaler.transform_values(probes), reference_scale(fit, probes))
        assert_same_scaled(scaler.transform(m).values, reference_scale(fit, fit))

    @settings(max_examples=300, deadline=None)
    @given(fit_and_probes())
    def test_special_values_match_per_column_reference(self, case):
        fit, probes = case
        scaler = fit_quantile(matrix_of({f"c{i}": fit[:, i] for i in range(fit.shape[1])}))
        got = scaler.transform_values(probes)
        assert got.flags.c_contiguous
        assert_same_scaled(got, reference_scale(fit, probes))

    @settings(max_examples=300, deadline=None)
    @given(fit_and_probes(), st.data())
    def test_no_output_is_a_negative_zero(self, case, data):
        # K-Means reads a -0.0 as +0.0 in a one-row center, which no scaled
        # matrix can reach: ndtri(0.5) is +0.0 and constant columns are set to 0.0
        fit, probes = case
        m = matrix_of({f"c{i}": fit[:, i] for i in range(fit.shape[1])})
        scaler = fit_quantile(m)
        zeros = np.array(data.draw(st.lists(st.booleans(), min_size=probes.size,
                                            max_size=probes.size))).reshape(probes.shape)
        fresh = np.where(zeros, -0.0, probes)
        for out in (scaler.transform(m).values, scaler.transform_values(fresh)):
            assert not np.signbit(out[out == 0.0]).any()

    @pytest.mark.parametrize("fit", [
        [[0.0], [1.0]],
        [[-0.0], [0.0]],
        [[math.nan], [math.nan]],
        [[math.nan, 2.0, -math.inf], [math.nan, 2.0, math.inf]],
        [[1.0, math.nan], [math.nan, 1.0], [-0.0, 0.0]],
    ], ids=["n_fit=2", "signed-zeros", "all-nan", "nan-constant-infs", "mixed"])
    def test_small_fits_match_per_column_reference(self, fit):
        fit = np.array(fit)
        probes = np.vstack([fit, np.full(fit.shape[1], -0.0), np.full(fit.shape[1], math.inf)])
        scaler = fit_quantile(matrix_of({f"c{i}": fit[:, i] for i in range(fit.shape[1])}))
        assert_same_scaled(scaler.transform_values(probes), reference_scale(fit, probes))

    @pytest.mark.parametrize("n", [2, 3, 7, 60, 200])
    def test_fit_rows_take_their_quantiles_from_the_table(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        fit = np.column_stack([rng.integers(-3, 4, size=n) * 1.0, rng.standard_normal(n)])
        scaler = fit_quantile(matrix_of({"ties": fit[:, 0], "distinct": fit[:, 1]}))
        passed = []

        def spy(p):
            passed.extend(np.ravel(p).tolist())
            return ndtri(p)

        monkeypatch.setattr(preprocess, "ndtri", spy)
        got = scaler.transform_values(fit)
        assert_same_scaled(got, reference_scale(fit, fit))
        # only a hi that rounds off the grid j / (2 n) reaches ndtri
        assert set(passed) <= {scaler.hi}

    def test_scaler_holds_each_column_knots_flat(self):
        m = matrix_of({"a": [3.0, 1.0, 2.0, 1.0], "b": [-1.0, 5.0, 0.0, 5.0]})
        scaler = fit_quantile(m)
        assert scaler.knots.tolist() == [1.0, 2.0, 3.0, -1.0, 0.0, 5.0]
        assert scaler.levels.tolist() == [2 / 8, 5 / 8, 7 / 8, 1 / 8, 3 / 8, 6 / 8]
        assert scaler.bounds.tolist() == [0, 3, 6]
        assert m.values.tolist() == [[3.0, -1.0], [1.0, 5.0], [2.0, 0.0], [1.0, 5.0]]  # sorted a copy

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=12),
        st.integers(1, 40),
    )
    def test_knots_equal_np_unique_on_sorted_references(self, values, n_fit):
        assert_knots_match_np_unique(np.sort(np.array(values))[None, :], n_fit)

    @settings(max_examples=200, deadline=None)
    @given(sorted_blocks(), st.integers(1, 40))
    def test_knots_equal_np_unique_on_every_row_of_a_block(self, block, n_fit):
        assert_knots_match_np_unique(block, n_fit)

    @pytest.mark.parametrize("ref", [
        [1.0], [0.0, 0.0], [1.0, 2.0], [-0.0, 0.0], [0.0, -0.0, 0.0, 1.0], [4.0] * 9,
        [1.0, math.nan], [math.nan, math.nan, math.nan], [-math.inf, 1.0, 1.0, math.inf],
    ])
    def test_knots_equal_np_unique_on_edge_references(self, ref):
        assert_knots_match_np_unique(np.array([ref]), len(ref))


class _Stop(Exception):
    """Ends a workload run once it has handed its matrix to the scaler."""


@pytest.mark.parametrize("workload", ["firmware_day", "replay_week", "feature_sweep"])
def test_full_size_workload_scaling_matches_reference(workloads, workload, tmp_path, monkeypatch):
    fitted = []

    def capture(matrix):
        fitted.append(matrix)
        raise _Stop

    monkeypatch.setattr(preprocess, "fit_quantile", capture)
    with pytest.raises(_Stop):
        workloads.RUNS[workload](workloads.prepare(workload, 0, "full", tmp_path))
    monkeypatch.undo()
    matrix = fitted[0]
    assert matrix.values.shape[1] == 571
    scaled = fit_quantile(matrix).transform(matrix).values
    assert scaled.flags.c_contiguous
    assert_same_scaled(scaled, reference_scale(matrix.values, matrix.values))
