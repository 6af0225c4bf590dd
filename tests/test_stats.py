"""One-sided KS machinery against brute-force and scipy oracles."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from conftest import unique_candidates_one_sided
from oracles import ks_critical, ks_one_sided

from swoks.stats import KsResult, detect_shift, ks_pvalue


def bruteforce_one_sided(x1, x2):
    """sup of ECDF1 - ECDF2 over a dense grid: all sample values, their
    midpoints, and sentinels beyond the range. Strictly-less counts at
    each threshold to mirror P[X < x]."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    pool = np.concatenate([x1, x2])
    pts = np.sort(np.unique(pool))
    mids = (pts[:-1] + pts[1:]) / 2 if pts.size > 1 else np.array([])
    grid = np.concatenate([pts, mids, [pts.min() - 1, pts.max() + 1],
                           pts + 1e-9])
    best = 0.0
    for gx in grid:
        f1 = np.mean(x1 < gx)
        f2 = np.mean(x2 < gx)
        best = max(best, f1 - f2)
    # the sup can also be attained approaching a point from the right
    for gx in pts:
        f1 = np.mean(x1 <= gx)
        f2 = np.mean(x2 <= gx)
        best = max(best, f1 - f2)
    return float(best)


sample_lists = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=50
)
# Few distinct values, so samples tie within and across themselves.
tied_lists = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=30)


class TestKsOneSided:
    def test_identical(self):
        assert ks_one_sided([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fully_separated(self):
        # at x=5: P[X1<5]=1, P[X2<5]=0
        assert ks_one_sided([1, 2, 3, 4], [5, 6, 7, 8]) == 1.0

    def test_one_sidedness(self):
        # the reversed comparison is <= 0 everywhere, clamped to 0
        assert ks_one_sided([5, 6, 7, 8], [1, 2, 3, 4]) == 0.0

    @given(sample_lists, sample_lists)
    @settings(max_examples=80, deadline=None)
    def test_matches_bruteforce(self, a, b):
        assert ks_one_sided(a, b) == pytest.approx(bruteforce_one_sided(a, b), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(sample_lists, sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, a, b):
        expected = sps.ks_2samp(a, b, alternative="greater", method="asymp").statistic
        assert ks_one_sided(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(sample_lists, sample_lists)
    @settings(max_examples=60, deadline=None)
    def test_max_of_sides_is_two_sided(self, a, b):
        two_sided = sps.ks_2samp(a, b, alternative="two-sided", method="asymp").statistic
        both = max(ks_one_sided(a, b), ks_one_sided(b, a))
        assert both == pytest.approx(two_sided, abs=1e-12)

    @given(sample_lists, sample_lists, st.floats(min_value=1e-6, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_shift_monotonicity(self, a, b, c):
        # raising x2 lowers its ECDF pointwise, so the sup cannot drop
        base = ks_one_sided(a, b)
        shifted = ks_one_sided(a, np.asarray(b) + c)
        assert shifted >= base - 1e-12

    @given(st.one_of(sample_lists, tied_lists), st.one_of(sample_lists, tied_lists))
    @settings(max_examples=200, deadline=None)
    @example([1.0, 1.0, 2.0], [1.0, 2.0, 2.0])  # ties within and across the samples
    @example([0.0, 3.0, 3.0, 3.0], [3.0, 3.0])
    @example([2.0, 2.0], [2.0, 2.0, 2.0])
    @example([1.0], [2.0])  # n = 1
    @example([2.0], [1.0])
    @example([1.0], [1.0])
    @example([4.0], [0.0, 4.0, 4.0, 9.0])
    def test_equals_the_unique_candidate_formula(self, a, b):
        assert ks_one_sided(a, b) == unique_candidates_one_sided(a, b)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = ks_one_sided(rng.normal(size=10), rng.normal(size=17))
            assert 0.0 <= s <= 1.0


class TestKsCritical:
    def test_frozen_value(self):
        # sqrt(-0.5 * 250 * ln(0.0005) / 15625): ln(0.0005) = -7.60090,
        # inner = 0.0608072, sqrt = 0.246591
        assert ks_critical(125, 125, 0.001) == pytest.approx(0.24659, abs=1e-4)

    def test_alpha_monotonicity(self):
        assert ks_critical(125, 125, 0.01) < ks_critical(125, 125, 0.001)

    def test_inverse_sqrt_scaling(self):
        r = ks_critical(100, 100, 0.01) / ks_critical(400, 400, 0.01)
        assert r == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ks_critical(0, 10, 0.05)
        with pytest.raises(ValueError):
            ks_critical(10, 10, 0.0)
        with pytest.raises(ValueError):
            ks_critical(10, 10, 1.0)


class TestKsPvalue:
    def test_zero_statistic(self):
        assert ks_pvalue(0.0, 125, 125) == 1.0

    def test_consistency_identity(self):
        for n in (10, 125, 1000):
            for alpha in (0.05, 0.01, 0.001):
                crit = ks_critical(n, n, alpha)
                assert ks_pvalue(crit, n, n) == pytest.approx(alpha / 2, abs=1e-9)

    def test_consistency_unequal_sizes(self):
        for n1, n2 in ((10, 1000), (33, 47), (125, 126)):
            crit = ks_critical(n1, n2, 0.01)
            assert ks_pvalue(crit, n1, n2) == pytest.approx(0.005, abs=1e-9)

    def test_maximal_separation(self):
        p = ks_pvalue(1.0, 125, 125)
        assert p == pytest.approx(np.exp(-125), rel=1e-9)

    def test_never_zero(self):
        assert ks_pvalue(1.0, 10**6, 10**6) > 0.0

    @given(st.floats(min_value=0, max_value=1), st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, stat, n1, n2):
        p = ks_pvalue(stat, n1, n2)
        assert 0.0 < p <= 1.0


def shifted_samples(n1, n2):
    """``(reference, new)`` pairs at every attainable statistic of an n1/n2 test.

    The reference is ``0..n1-1``. The new sample is the same grid (or, for
    n2 < n1, every ``n1/n2``-th point of it) shifted by whole and half steps,
    so half the pairs tie across the samples.
    """
    ref = np.arange(n1, dtype=float)
    new = np.arange(n2) * (n1 / n2)
    for shift in np.arange(-n1 / n2, n1 + 1, 0.5):
        yield ref, new + shift


class TestExactReference:
    """``ks_pvalue`` against scipy's exact one-sided p-value at the shipped sizes:
    12/12 and 125/125 for the shift test, 125 history values against 25 probe
    distances for a paper-window probe."""

    @pytest.mark.parametrize("n1, n2", [(12, 12), (125, 125), (125, 25)])
    def test_significant_p_values_are_not_below_the_exact_ones(self, n1, n2):
        statistics = set()
        for ref, new in shifted_samples(n1, n2):
            d = ks_one_sided(ref, new)
            exact = sps.ks_2samp(ref, new, alternative="greater", method="exact")
            # scipy rounds D to the nearest multiple of 1 / lcm(n1, n2)
            assert d == pytest.approx(exact.statistic, abs=1e-12)
            if exact.pvalue < 0.05:
                assert ks_pvalue(d, n1, n2) >= exact.pvalue
            statistics.add(round(d * n1))
        assert statistics == set(range(n1 + 1))  # every D = k / n1 was tested


class TestScaledReference:
    """``detect_shift`` scales the reference sample by ``beta`` before the statistic."""

    def test_identity_beta(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w_new, w_old = rng.gamma(2.0, size=9), rng.gamma(2.0, size=14)
            assert detect_shift(w_new, w_old, beta=1.0).statistic == ks_one_sided(w_old, w_new)

    def test_default_beta_example(self):
        # A 5% rise scores 0.5 unscaled and is tolerated at beta = 1.1.
        assert detect_shift([1.05, 2.1], [1.0, 2.0], beta=1.0).statistic == 0.5
        assert detect_shift([1.05, 2.1], [1.0, 2.0], beta=1.1).statistic == 0.0

    def test_zero_fixed_point(self):
        assert detect_shift([0.0, 0.0], [0.0, 0.0], beta=3.0).statistic == 0.0
        assert detect_shift([1e-9], [0.0, 0.0], beta=3.0).statistic == 1.0

    def test_rejects_beta_below_one(self):
        with pytest.raises(ValueError):
            detect_shift([1.0], [1.0], beta=0.9)

    def test_rejects_negative_values(self):
        for w_old, beta in (([-1.0], 1.1), ([2.0, -0.5], 1.0)):
            with pytest.raises(ValueError):
                detect_shift([1.0], w_old, beta=beta)


class TestDetectShift:
    def test_result_invariants(self):
        r = detect_shift(np.full(20, 1.0), np.full(20, 1.0))
        assert isinstance(r, KsResult)
        assert r.statistic == 0.0 and r.p_value == 1.0
        assert r.n1 == 20 and r.n2 == 20

    def test_self_comparison_no_detection(self):
        w = np.arange(1.0, 2.05, 0.1)
        r = detect_shift(w, w, beta=1.1)
        assert r.p_value >= 0.001

    def test_disjoint_supports_detect(self):
        rng = np.random.default_rng(1)
        w_old = rng.uniform(1, 2, size=125)
        w_new = rng.uniform(5, 6, size=125)
        r = detect_shift(w_new, w_old, beta=1.1)
        assert r.statistic == 1.0
        assert r.p_value < 1e-50

    def test_exact_beta_scaling_gives_zero(self):
        w_old = np.array([1.0, 1.5, 2.0, 2.5])
        r = detect_shift(w_old * 1.1, w_old, beta=1.1)
        assert r.statistic == 0.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=5, max_size=40),
        st.lists(st.floats(min_value=0.01, max_value=10), min_size=5, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_beta_monotonicity(self, w_new, w_old):
        s1 = detect_shift(w_new, w_old, beta=1.0).statistic
        s2 = detect_shift(w_new, w_old, beta=1.2).statistic
        s3 = detect_shift(w_new, w_old, beta=1.5).statistic
        assert s1 + 1e-12 >= s2 >= s3 - 1e-12

    @given(st.one_of(sample_lists, tied_lists), st.one_of(sample_lists, tied_lists),
           st.sampled_from([1.0, 1.1, 1.5]))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_unique_candidate_formula(self, w_new, w_old, beta):
        w_old = np.abs(w_old)
        r = detect_shift(w_new, w_old, beta=beta)
        assert r.statistic == unique_candidates_one_sided(w_old * beta, w_new)
        assert r.p_value == ks_pvalue(r.statistic, len(w_old), len(w_new))

    def test_samples_are_still_validated(self):
        for w_new, w_old in (([np.nan], [1.0]), ([1.0], [np.inf]), ([], [1.0]),
                             ([1.0], []), ([1.0], [-1.0]), ([[1.0]], [1.0])):
            with pytest.raises(ValueError):
                detect_shift(w_new, w_old)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_scaled_reference_rejected(self):
        with pytest.raises(ValueError):
            detect_shift([1.0], [1e308], beta=2.0)


class TestNullCalibration:
    def test_rejection_rate_under_null(self):
        # 1000 iid pairs at n=125; alpha=0.001, beta=1 must reject <= 0.5%
        rng = np.random.default_rng(20240814)
        rejections = 0
        for _ in range(1000):
            x = rng.gamma(2.0, size=125)
            y = rng.gamma(2.0, size=125)
            r = detect_shift(x, y, beta=1.0)
            rejections += r.p_value < 0.001
        assert rejections / 1000 <= 0.005
