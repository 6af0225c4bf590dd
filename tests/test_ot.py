"""Transport-distance primitives against independent oracles.

The brute-force matcher here is written from the definition (min over
all pairings of the root-sum-squared cost) so the package's sorting
shortcut and its own exact solver are checked against a third opinion.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swoks.ot import (
    sample_unit_directions,
    sliced_wasserstein,
    wasserstein_1d,
    wasserstein_exact,
)


def bruteforce_match_cost(d1, d2):
    d1 = np.atleast_2d(np.asarray(d1, dtype=float).T).T
    d2 = np.atleast_2d(np.asarray(d2, dtype=float).T).T
    if d1.ndim == 1:
        d1 = d1[:, None]
    if d2.ndim == 1:
        d2 = d2[:, None]
    n = d1.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.sum((d1[i] - d2[perm[i]]) ** 2)) for i in range(n))
        best = min(best, cost)
    return float(np.sqrt(best))


def quadrature_swd_2d(d1, d2, n_angles=1000):
    """Dense angular quadrature for 2D sets: the m -> inf limit of the
    Monte-Carlo estimate, by symmetry computable on a half circle."""
    angles = np.pi * np.arange(n_angles) / n_angles
    total = 0.0
    for ang in angles:
        u = np.array([np.cos(ang), np.sin(ang)])
        total += wasserstein_1d(d1 @ u, d2 @ u)
    return total / n_angles


finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestDirections:
    def test_unit_norm(self):
        ds = sample_unit_directions(2, 1000, seed=7)
        norms = np.linalg.norm(ds, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_1d_directions_are_signs(self):
        ds = sample_unit_directions(1, 3, seed=11)
        assert ds.shape == (3, 1)
        assert np.all(np.isin(np.round(ds, 12), [-1.0, 1.0]))

    def test_spherical_symmetry(self):
        # MC check: mean of uniform sphere samples concentrates at 0
        ds = sample_unit_directions(3, 2000, seed=7)
        assert np.linalg.norm(ds.mean(axis=0)) < 0.05

    def test_same_seed_identical(self):
        a = sample_unit_directions(5, 64, seed=3)
        b = sample_unit_directions(5, 64, seed=3)
        assert np.array_equal(a, b)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sample_unit_directions(0, 4, seed=0)
        with pytest.raises(ValueError):
            sample_unit_directions(2, 0, seed=0)


class TestWasserstein1d:
    def test_identical(self):
        assert wasserstein_1d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_single_point(self):
        assert wasserstein_1d([0.0], [2.0]) == pytest.approx(2.0)

    def test_two_point_example(self):
        # identity pairing costs sqrt(1+1), crossing costs 2; min is sqrt(2)
        assert wasserstein_1d([0, 1], [1, 2]) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_1d([1, 2], [1, 2, 3])

    @given(st.lists(finite_floats, min_size=1, max_size=7), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sorting_equals_bruteforce(self, a, seed):
        b = list(np.random.default_rng(seed).normal(size=len(a)) * 10)
        assert wasserstein_1d(a, b) == pytest.approx(bruteforce_match_cost(a, b), abs=1e-9)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_identity(self, a):
        b = list(reversed(a))
        assert wasserstein_1d(a, a) == 0.0
        assert wasserstein_1d(a, b) == pytest.approx(wasserstein_1d(b, a), abs=0)

    @given(
        st.lists(finite_floats, min_size=1, max_size=20),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_translation_response(self, a, c):
        # shifting one side by c moves every sorted pair by exactly c
        arr = np.asarray(a)
        expected = np.sqrt(len(a)) * abs(c)
        assert wasserstein_1d(arr, arr + c) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestWassersteinExact:
    def test_identical_sets(self):
        pts = np.random.default_rng(1).normal(size=(5, 3))
        assert wasserstein_exact(pts, pts) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair(self):
        assert wasserstein_exact([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_size_cap(self):
        pts = np.zeros((9, 2))
        with pytest.raises(ValueError):
            wasserstein_exact(pts, pts)

    def test_matches_independent_bruteforce(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            d1 = rng.normal(size=(n, d))
            d2 = rng.normal(size=(n, d))
            assert wasserstein_exact(d1, d2) == pytest.approx(
                bruteforce_match_cost(d1, d2), abs=1e-9
            )

    def test_1d_cross_check(self):
        # the sorting solution must be optimal among all pairings
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert wasserstein_exact(a, b) == pytest.approx(
                wasserstein_1d(a, b), abs=1e-9
            )


class TestSlicedWasserstein:
    def test_identity(self):
        pts = np.random.default_rng(0).normal(size=(10, 4))
        ds = sample_unit_directions(4, 16, seed=1)
        assert sliced_wasserstein(pts, pts, ds) == 0.0

    def test_single_axis_direction(self):
        rng = np.random.default_rng(3)
        d1 = rng.normal(size=(8, 3))
        d2 = rng.normal(size=(8, 3))
        e0 = np.zeros((1, 3))
        e0[0, 0] = 1.0
        assert sliced_wasserstein(d1, d2, e0) == pytest.approx(
            wasserstein_1d(d1[:, 0], d2[:, 0]), abs=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        d1 = rng.normal(size=(12, 3))
        d2 = rng.normal(size=(12, 3)) + 0.5
        ds = sample_unit_directions(3, 64, seed=2)
        assert sliced_wasserstein(d1, d2, ds) == sliced_wasserstein(d2, d1, ds)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        d1 = rng.normal(size=(16, 5))
        d2 = rng.normal(size=(16, 5))
        v1 = sliced_wasserstein(d1, d2, sample_unit_directions(5, 32, seed=4))
        v2 = sliced_wasserstein(d1, d2, sample_unit_directions(5, 32, seed=4))
        assert v1 == v2

    def test_dimension_mismatch(self):
        ds = sample_unit_directions(3, 8, seed=0)
        with pytest.raises(ValueError):
            sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 2)), ds)

    def test_quadrature_agreement(self):
        # Monte-Carlo directions vs dense angular quadrature on 2D Gaussians
        rng = np.random.default_rng(2024)
        d1 = rng.normal(size=(64, 2))
        d2 = rng.normal(size=(64, 2)) @ np.array([[1.3, 0.2], [0.0, 0.7]]) + 1.0
        mc = sliced_wasserstein(d1, d2, sample_unit_directions(2, 500, seed=12))
        dense = quadrature_swd_2d(d1, d2, n_angles=1000)
        assert abs(mc - dense) / dense <= 0.02


def column_sort_swd(d1, d2, dirs):
    """The sliced distance as first written: projections sorted down the columns."""
    proj_a = np.sort(d1 @ dirs.T, axis=0, kind="stable")
    proj_b = np.sort(d2 @ dirs.T, axis=0, kind="stable")
    return float(np.mean(np.sqrt(np.sum((proj_a - proj_b) ** 2, axis=0))))


class TestRowMajorSortIsExact:
    """Sorting each direction's projections as a row changes no bit of the result."""

    @pytest.mark.parametrize("n", [1, 12, 60, 240])
    @pytest.mark.parametrize("dim", [1, 10])
    def test_random_sets(self, n, dim):
        rng = np.random.default_rng(n * 100 + dim)
        ds = sample_unit_directions(dim, 128, seed=n + dim)
        for _ in range(20):
            d1 = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
            d2 = rng.normal(rng.normal(), 1.0, size=(n, dim))
            assert sliced_wasserstein(d1, d2, ds) == column_sort_swd(d1, d2, ds)

    @pytest.mark.parametrize("n", [12, 60, 240])
    def test_ties(self, n):
        # Few distinct values: most projections tie with another point.
        rng = np.random.default_rng(n)
        ds = sample_unit_directions(4, 128, seed=3)
        for _ in range(20):
            d1 = rng.integers(0, 3, size=(n, 4)).astype(float)
            d2 = rng.integers(0, 2, size=(n, 4)).astype(float)
            d2[: n // 2] = d1[: n // 2]
            assert sliced_wasserstein(d1, d2, ds) == column_sort_swd(d1, d2, ds)
