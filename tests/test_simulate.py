"""Synthetic generators and the estimation benchmark harness."""

import numpy as np
import pytest

from snmix import simulate
from snmix.geometry import geodesic_distance, unitize


class TestSmallMix:
    def test_shapes_and_labels(self):
        pts, labels = simulate.small_mix(seed=0)
        assert pts.shape == (200, 2)
        assert list(np.bincount(labels)[1:]) == [100, 100]
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_component_centers(self):
        # the two generating directions are nearly antipodal on the circle
        mu1 = unitize(np.array([-0.251, -0.968]))
        mu2 = unitize(np.array([0.399, 0.917]))
        assert geodesic_distance(mu1, mu2) > 2.9
        pts, labels = simulate.small_mix(seed=3)
        tight = pts[labels == 1]
        assert float(np.median(geodesic_distance(tight, mu1))) < 0.5

    def test_deterministic(self):
        a, _ = simulate.small_mix(seed=8)
        b, _ = simulate.small_mix(seed=8)
        np.testing.assert_array_equal(a, b)


class TestLargeMix:
    def test_shapes_proportions_and_separation(self):
        for seed in range(1, 11):
            pts, labels = simulate.large_mix(seed=seed)
            assert pts.shape == (3000, 4)
            fractions = np.bincount(labels)[1:] / 3000.0
            assert np.all(fractions > 0.28) and np.all(fractions < 0.39)
            centers = np.stack(
                [unitize(pts[labels == k].mean(axis=0)) for k in (1, 2, 3)]
            )
            for i in range(3):
                for j in range(i + 1, 3):
                    assert geodesic_distance(centers[i], centers[j]) > 0.8

    def test_orthant_sign_patterns(self):
        # seed chosen so every empirical center sits well inside its orthant
        pts, labels = simulate.large_mix(seed=9)
        centers = [unitize(pts[labels == k].mean(axis=0)) for k in (1, 2, 3)]
        assert np.all(np.sign(centers[0]) == 1.0)
        assert np.all(np.sign(centers[1]) == -1.0)
        assert list(np.sign(centers[2])) == [1.0, 1.0, -1.0, -1.0]


class TestHouseholdMix:
    def test_three_groups(self):
        pts, labels = simulate.household_mix(seed=2)
        assert pts.shape == (260, 3)
        assert list(np.bincount(labels)[1:]) == [120, 70, 70]

    def test_tight_cluster_is_tight(self):
        pts, labels = simulate.household_mix(seed=2)
        mu_tight = unitize(np.array([0.954, 0.266, 0.135]))
        spread_tight = float(np.median(geodesic_distance(pts[labels == 1], mu_tight)))
        spread_other = float(np.median(geodesic_distance(pts[labels == 2], mu_tight)))
        assert spread_tight < 0.2 < spread_other


class TestEstimationBenchmark:
    def test_published_band_p5_lam5_n50(self):
        rows = simulate.estimation_benchmark(
            dims=[5], lambdas=[5.0], sizes=[50], reps=20, seed=0
        )
        assert 0.10 <= rows[0]["err_mu_fixed"] <= 0.25
        assert 0.10 <= rows[0]["err_mu_line_search"] <= 0.25

    def test_rows_sorted_and_complete(self):
        rows = simulate.estimation_benchmark(
            dims=[10, 5], lambdas=[10.0, 5.0], sizes=[100, 50], reps=2, seed=1
        )
        keys = [(r["p"], r["lambda"], r["n"]) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 8
        for row in rows:
            assert {"err_mu_fixed", "time_mu_fixed", "relerr_lambda_newton"} <= set(row)

    def test_what_selects_columns(self):
        rows = simulate.estimation_benchmark(
            dims=[5], lambdas=[5.0], sizes=[50], reps=2, seed=0, what="concentration"
        )
        assert "err_mu_fixed" not in rows[0]
        assert "relerr_lambda_halley" in rows[0]
        with pytest.raises(ValueError):
            simulate.estimation_benchmark(what="everything")

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"dims": []}, "at least one value"),
            ({"lambdas": []}, "at least one value"),
            ({"sizes": []}, "at least one value"),
            ({"lambdas": [5.0, 0.0]}, "positive"),
            ({"lambdas": [-1.0]}, "positive"),
            ({"lambdas": [float("nan")]}, "positive"),
            ({"dims": [3, -1]}, "at least 1"),
            ({"reps": 0}, "reps"),
            ({"reps": -2}, "reps"),
        ],
        ids=["no_dims", "no_lambdas", "no_sizes", "zero_lambda", "negative_lambda",
             "nan_lambda", "negative_dim", "zero_reps", "negative_reps"],
    )
    def test_bad_grid_rejected(self, bad, match):
        # an empty grid gives no rows, lambda = 0 a relative error of 0 / 0, p = -1 no
        # location and no repetition rows without metrics; each fails before any cell runs
        args = {"dims": [2], "lambdas": [5.0], "sizes": [20], "reps": 1, **bad}
        with pytest.raises(ValueError, match=match):
            simulate.estimation_benchmark(**args)

    def test_deterministic_up_to_timings(self):
        a = simulate.estimation_benchmark(dims=[5], lambdas=[5.0], sizes=[50], reps=3, seed=2)
        b = simulate.estimation_benchmark(dims=[5], lambdas=[5.0], sizes=[50], reps=3, seed=2)
        for row_a, row_b in zip(a, b):
            for key in row_a:
                if not key.startswith("time_"):
                    assert row_a[key] == row_b[key], key
