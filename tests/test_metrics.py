"""Clustering quality indices and baseline clusterers."""

import itertools
import warnings

import numpy as np
import pytest

from snmix.geometry import unitize
from snmix.metrics import jaccard_index, kmeans, nmi, rand_index, spherical_kmeans


def brute_force_pair_counts(a, b):
    """O(N^2) oracle over explicit point pairs."""
    a, b = np.asarray(a), np.asarray(b)
    s11 = s10 = s01 = s00 = 0
    for i, j in itertools.combinations(range(len(a)), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        s11 += same_a and same_b
        s10 += same_a and not same_b
        s01 += same_b and not same_a
        s00 += not same_a and not same_b
    return s11, s10, s01, s00


def brute_force_rand(a, b):
    s11, s10, s01, s00 = brute_force_pair_counts(a, b)
    return (s11 + s00) / (s11 + s10 + s01 + s00)


def brute_force_jaccard(a, b):
    s11, s10, s01, _ = brute_force_pair_counts(a, b)
    return s11 / (s11 + s10 + s01) if (s11 + s10 + s01) else 1.0


class TestRandIndex:
    def test_identical(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeled(self):
        assert rand_index([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_interleaved(self):
        assert rand_index([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_index([1, 2], [1, 2, 3])


class TestJaccardIndex:
    def test_identical(self):
        assert jaccard_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeled(self):
        assert jaccard_index([1, 1, 2, 2], [1, 1, 3, 3]) == 1.0

    def test_no_shared_pairs(self):
        assert jaccard_index([1, 1, 2, 2], [1, 2, 1, 2]) == 0.0


class TestNMI:
    def test_identical_balanced(self):
        assert nmi([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_relabeled(self):
        assert nmi([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_independent_labels_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 3, size=10_000)
        b = rng.integers(1, 3, size=10_000)
        assert nmi(a, b) < 0.01

    def test_both_constant(self):
        assert nmi([1, 1, 1], [2, 2, 2]) == 1.0

    def test_one_constant(self):
        assert nmi([1, 1, 1, 1], [1, 1, 2, 2]) == 0.0


class TestAgainstBruteForce:
    def test_random_label_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(2, 201))
            a = rng.integers(1, int(rng.integers(2, 7)) + 1, size=n)
            b = rng.integers(1, int(rng.integers(2, 7)) + 1, size=n)
            assert rand_index(a, b) == pytest.approx(brute_force_rand(a, b), abs=1e-12)
            assert jaccard_index(a, b) == pytest.approx(brute_force_jaccard(a, b), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            for index in (rand_index, jaccard_index, nmi):
                v = index(a, b)
                assert 0.0 <= v <= 1.0
                assert v == index(b, a)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(11)
        a = rng.integers(1, 5, size=150)
        b = rng.integers(1, 5, size=150)
        relabel = {1: 9, 2: 4, 3: 1, 4: 7}
        b2 = np.array([relabel[v] for v in b])
        assert rand_index(a, b) == rand_index(a, b2)
        assert jaccard_index(a, b) == jaccard_index(a, b2)
        assert nmi(a, b) == nmi(a, b2)


class TestKMeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(0, 0.1, (40, 2)), rng.normal(5, 0.1, (60, 2))])
        labels = kmeans(x, 2, seed=0)
        truth = np.array([1] * 40 + [2] * 60)
        assert rand_index(labels, truth) == 1.0

    def test_k_equals_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3))
        labels = kmeans(x, 8, seed=0)
        assert len(np.unique(labels)) == 8

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        np.testing.assert_array_equal(kmeans(x, 3, seed=4), kmeans(x, 3, seed=4))

    def test_small_mix_quality(self):
        from snmix.simulate import small_mix

        scores = []
        for seed in range(1, 11):
            x, truth = small_mix(seed=seed)
            scores.append(rand_index(kmeans(x, 2, seed=seed), truth))
        assert 0.90 <= float(np.mean(scores)) <= 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans(np.eye(2), 3, seed=0)


class TestSphericalKMeans:
    def test_antipodal_clusters(self):
        rng = np.random.default_rng(13)
        center = unitize(np.array([1.0, 1.0, 0.0]))
        a = unitize(center + 0.05 * rng.standard_normal((30, 3)))
        b = unitize(-center + 0.05 * rng.standard_normal((30, 3)))
        labels = spherical_kmeans(np.vstack([a, b]), 2, seed=0)
        truth = np.array([1] * 30 + [2] * 30)
        assert rand_index(labels, truth) == 1.0

    def test_identical_points_degenerate(self):
        x = np.tile(unitize(np.array([1.0, 2.0, 0.0])), (10, 1))
        labels = spherical_kmeans(x, 2, seed=0)
        assert labels.shape == (10,)
        assert set(labels) <= {1, 2}

    def test_large_mix_quality(self):
        from snmix.simulate import large_mix

        scores = []
        for seed in range(1, 11):
            x, truth = large_mix(seed=seed)
            scores.append(rand_index(spherical_kmeans(x, 3, seed=seed), truth))
        assert float(np.mean(scores)) >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        x = unitize(rng.standard_normal((40, 4)))
        np.testing.assert_array_equal(
            spherical_kmeans(x, 3, seed=2), spherical_kmeans(x, 3, seed=2)
        )


@pytest.mark.parametrize("cluster", [kmeans, spherical_kmeans], ids=["kmeans", "spherical_kmeans"])
def test_non_finite_row_rejected(cluster):
    x = unitize(np.random.default_rng(21).standard_normal((20, 3)))
    x[3] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        cluster(x, 2, seed=0)


@pytest.mark.parametrize("cluster", [kmeans, spherical_kmeans], ids=["kmeans", "spherical_kmeans"])
def test_infinite_row_rejected_before_unitize(cluster):
    # the finite check runs before spherical_kmeans normalizes the rows, so
    # inf / inf never warns (pytest turns RuntimeWarning into an error)
    x = np.random.default_rng(21).standard_normal((20, 3))
    x[3, 1] = np.inf
    with pytest.raises(ValueError, match="points must be finite"):
        cluster(x, 2, seed=0)


def reference_member_means(x, labels, counts):
    """The per-cluster loop the bincount means replaced: each cluster's members
    in row order from a stable argsort, then the mean of the member rows."""
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
    return np.stack([x[m].mean(axis=0) for m in members])


@pytest.mark.parametrize("seed", range(8))
def test_member_means_equal_reference_bit_for_bit(seed):
    from snmix.metrics import _member_means

    rng = np.random.default_rng([97, seed])
    n, d, k = int(rng.integers(5, 4000)), int(rng.integers(1, 8)), int(rng.integers(1, 6))
    x = unitize(rng.standard_normal((n, d + 1))) * rng.uniform(0.5, 2.0, (n, 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    counts = np.bincount(labels, minlength=k)
    got = _member_means(np.ascontiguousarray(x.T), labels, counts)
    np.testing.assert_array_equal(got, reference_member_means(x, labels, counts))


def reference_lloyd(x, k, seed, centre):
    """The (N, k) Lloyd loop the component-major kernel replaced: the distances
    ||x||^2 - 2 x @ c.T + ||c||^2 with ``argmin`` over the short k axis, and the
    empty-cluster repair written one cluster and one point at a time."""
    from snmix.metrics import _MAX_ITER, _RESTARTS

    n = len(x)
    rng = np.random.default_rng(seed)
    sq_norms, twice_x = np.sum(x * x, axis=1)[:, None], 2.0 * x

    def sq_dists(centers):
        return sq_norms - twice_x @ centers.T + np.sum(centers * centers, axis=1)[None, :]

    best_labels, best_sse = None, np.inf
    for _ in range(_RESTARTS):
        centers = x[rng.choice(n, size=k, replace=False)].copy()
        labels = np.full(n, -1)
        for _ in range(_MAX_ITER):
            d2 = sq_dists(centers)
            new = np.argmin(d2, axis=1)
            for j in range(k):
                if not np.any(new == j):
                    # the worst-served point of a cluster that keeps a member
                    sizes = np.bincount(new, minlength=k)
                    served = [d2[i, new[i]] if sizes[new[i]] > 1 else -np.inf for i in range(n)]
                    new[int(np.argmax(served))] = j
            if np.array_equal(new, labels):
                break
            labels = new
            counts = np.bincount(labels, minlength=k)
            centers = centre(x, reference_member_means(x, labels, counts), centers)
        sse = float(np.sum(sq_dists(centers)[np.arange(n), labels]))
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels + 1


def lloyd_case(seed):
    """Points of one of three kinds, (x, k): continuous, an integer grid (exact
    distance ties) or duplicate blocks (empty clusters at the start)."""
    rng = np.random.default_rng([211, seed])
    n, d, k = int(rng.integers(6, 300)), int(rng.integers(2, 6)), int(rng.integers(1, 7))
    kind = seed % 3
    if kind == 0:
        x = rng.standard_normal((n, d))
    elif kind == 1:
        x = rng.integers(-1, 2, (n, d)).astype(float)
        x[np.all(x == 0.0, axis=1), 0] = 1.0
    else:
        x = np.repeat(unitize(rng.standard_normal((3, d))), n // 3 + 1, axis=0)[:n]
        x[: n // 5] = unitize(rng.standard_normal((n // 5, d)))
    return x, k


@pytest.mark.parametrize("seed", range(24))
def test_lloyd_equals_reference_bit_for_bit(seed):
    from snmix.metrics import _lloyd, _unit_mean_centre

    x, k = lloyd_case(seed)
    for points, centre in ((x, lambda _x, means, _centers: means), (unitize(x), _unit_mean_centre)):
        got = _lloyd(points, k, seed, centre)
        want = reference_lloyd(points, k, seed, centre)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("cluster", [kmeans, spherical_kmeans], ids=["kmeans", "spherical_kmeans"])
def test_two_empty_clusters_repaired_without_warning(cluster):
    # restarts that draw two or three copies of the pole as centres leave two
    # clusters empty at once; handing both the same point left one of them
    # empty, and its mean was 0 / 0
    x = np.vstack([np.tile([0.0, 0.0, 1.0], (20, 1)),
                   unitize(np.random.default_rng(0).standard_normal((5, 3)))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = cluster(x, 3, seed=0)
    assert sorted(set(labels.tolist())) == [1, 2, 3]
