"""Clustering agreement indices and baseline clusterers.

All three indices are computed from the contingency table in
O(N + Ka * Kb), matching the pair-counting definitions exactly, and are
symmetric and invariant under relabeling of either argument. Labels are
arbitrary integers; the clusterers return 1-based labels.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import unitize

__all__ = [
    "rand_index",
    "jaccard_index",
    "nmi",
    "kmeans",
    "spherical_kmeans",
]

# Lloyd runs per clustering, and assignment passes per run
_RESTARTS = 10
_MAX_ITER = 100


def _as_labels(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("labels must be a non-empty 1-D integer vector")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr)) or np.any(arr != np.floor(arr)):
            raise ValueError("labels must be integers")
        arr = arr.astype(np.int64)
    return arr


def _contingency(a, b) -> np.ndarray:
    a, b = _as_labels(a), _as_labels(b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((int(ai.max()) + 1, int(bi.max()) + 1))
    np.add.at(table, (ai, bi), 1.0)
    return table


def _pair_counts(a, b):
    """(s11, s10, s01, s00, total) over all unordered point pairs."""
    table = _contingency(a, b)
    n = float(table.sum())

    def choose2(x):
        return x * (x - 1.0) / 2.0

    total = choose2(n)
    s11 = float(choose2(table).sum())
    s10 = float(choose2(table.sum(axis=1)).sum()) - s11
    s01 = float(choose2(table.sum(axis=0)).sum()) - s11
    s00 = total - s11 - s10 - s01
    if min(s11, s10, s01, s00) < -1e-9:
        raise AssertionError("pair counts must partition all pairs")
    return s11, s10, s01, s00, total


def rand_index(a, b) -> float:
    """Fraction of point pairs on which the two labelings agree."""
    s11, _, _, s00, total = _pair_counts(a, b)
    return 1.0 if total == 0.0 else (s11 + s00) / total


def jaccard_index(a, b) -> float:
    """Co-clustered pair agreement |S11| / (|S11| + |S10| + |S01|)."""
    s11, s10, s01, _, _ = _pair_counts(a, b)
    denom = s11 + s10 + s01
    return 1.0 if denom == 0.0 else s11 / denom


def nmi(a, b) -> float:
    """Normalized mutual information with geometric-mean normalization.

    0 log 0 counts as 0. If both labelings are constant they agree
    perfectly and the value is 1; if exactly one is constant the mutual
    information (and hence the index) is 0.
    """
    table = _contingency(a, b)
    n = table.sum()
    if table.shape == (1, 1):
        return 1.0
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    h_a = -float(np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    h_b = -float(np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    pij = table / n
    mask = pij > 0
    terms = pij[mask] * (np.log(pij[mask]) - np.log((pa[:, None] * pb[None, :])[mask]))
    # summing in sorted order makes the index exactly symmetric in (a, b)
    info = float(np.sum(np.sort(terms)))
    if info <= 0.0 or h_a <= 0.0 or h_b <= 0.0:
        return 0.0
    return min(1.0, info / math.sqrt(h_a * h_b))


def _lloyd(x: np.ndarray, k: int, seed, centre) -> np.ndarray:
    """Best of ``_RESTARTS`` Lloyd runs by within-cluster squared error; 1-based labels.

    ``x`` is a finite (N, d) array. ``centre(x, means, centers)`` gives the
    new (k, d) centres from the member means; ``centers`` holds the current ones.
    """
    n = x.shape[0]
    if k < 1 or n < k:
        raise ValueError("need at least K observations")
    rng = np.random.default_rng(seed)
    # loop-invariant ||x_n||^2 and 2 x as (d, N) rows; one contiguous row per
    # coordinate, so each centre coordinate is one bincount
    sq_norms, twice_xt, coords = np.sum(x * x, axis=1), 2.0 * x.T, np.ascontiguousarray(x.T)
    best_labels, best_sse = None, math.inf
    for _ in range(_RESTARTS):
        centers = x[rng.choice(n, size=k, replace=False)].copy()
        labels = np.full(n, -1)
        for it in range(_MAX_ITER + 1):
            # (k, N) ||x_n - c_j||^2; pass _MAX_ITER only measures the last centres
            d2 = sq_norms - centers @ twice_xt + np.sum(centers * centers, axis=1)[:, None]
            if it == _MAX_ITER:
                break
            new, best = np.zeros(n, dtype=np.intp), d2[0].copy()
            for j in range(1, k):  # the first nearest centre on ties, as argmin gives
                new[d2[j] < best] = j
                np.minimum(best, d2[j], out=best)
            counts = np.bincount(new, minlength=k)
            for j in np.flatnonzero(counts == 0):
                # each empty cluster takes the worst-served point whose cluster keeps a member
                i = int(np.argmax(np.where(counts[new] > 1, d2[new, np.arange(n)], -np.inf)))
                counts[new[i]] -= 1
                counts[j] += 1
                new[i] = j
            if np.array_equal(new, labels):
                break
            labels = new
            centers = centre(x, _member_means(coords, labels, counts), centers)
        sse = float(np.sum(d2[labels, np.arange(n)]))
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels + 1


def _member_means(coords: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(k, d) mean of each cluster's rows, from the (d, N) coordinate rows ``coords``,
    the 0-based ``labels`` and the non-zero cluster sizes ``counts``.

    One bincount per coordinate adds each cluster's members in row order, as
    the mean of the member rows does, so the two agree bit for bit.
    """
    k = counts.size
    sums = np.stack([np.bincount(labels, weights=c, minlength=k) for c in coords], axis=1)
    return sums / counts[:, None]


def _points(points) -> np.ndarray:
    """An (N, d) float array of finite rows, checked before any arithmetic on it."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise ValueError("points must form an (N, d) array")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    return x


def _unit_mean_centre(x, means, centers) -> np.ndarray:
    # centres are updated in order; a mean that cancels to zero is reseeded at
    # the point worst represented by the centres so far
    for j, mean in enumerate(means):
        norm = np.linalg.norm(mean)
        if norm < 1e-8:
            centers[j] = x[int(np.argmin((x @ centers.T).max(axis=1)))]
        else:
            centers[j] = mean / norm
    return centers


def kmeans(points, K: int, seed=0) -> np.ndarray:
    """Lloyd's algorithm with restarts; returns 1-based labels.

    Deterministic for a given seed: the best of 10 runs (at most 100
    assignment passes each) by within-cluster squared error is returned.
    """
    return _lloyd(_points(points), K, seed, lambda _x, means, _centers: means)


def spherical_kmeans(points, K: int, seed=0) -> np.ndarray:
    """Cosine-similarity k-means on unit vectors; returns 1-based labels.

    Points are assigned to the most-parallel centroid and centroids are the
    normalized means of their members; a centroid that cancels to zero is
    reseeded at the worst-represented point. For unit centroids the nearest
    centroid is the most parallel one, so this is Lloyd's loop with a
    normalized centre update.
    """
    return _lloyd(unitize(_points(points)), K, seed, _unit_mean_centre)
