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


def _sq_dists(sq_norms: np.ndarray, twice_x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """||x_n - c_j||^2 from the loop-invariant (N, 1) row norms ||x_n||^2 and 2 x."""
    return sq_norms - twice_x @ centers.T + np.sum(centers * centers, axis=1)[None, :]


def _lloyd(x: np.ndarray, k: int, seed, restarts: int, max_iter: int, centre) -> np.ndarray:
    """Best of ``restarts`` Lloyd runs by within-cluster squared error; 1-based labels.

    ``centre(x, members, centers)`` gives a cluster's new centre from its
    member rows; ``centers`` holds the current centres, updated in order.
    """
    if x.ndim != 2:
        raise ValueError("points must form an (N, d) array")
    n = x.shape[0]
    if k < 1 or n < k:
        raise ValueError("need at least K observations")
    rng = np.random.default_rng(seed)
    sq_norms, twice_x = np.sum(x * x, axis=1)[:, None], 2.0 * x
    best_labels, best_sse = None, math.inf
    for _ in range(restarts):
        centers = x[rng.choice(n, size=k, replace=False)].copy()
        labels = np.full(n, -1)
        for _ in range(max_iter):
            d2 = _sq_dists(sq_norms, twice_x, centers)
            new = np.argmin(d2, axis=1)
            counts = np.bincount(new, minlength=k)
            if not counts.all():
                # empty clusters grab the point currently served worst
                for j in range(k):
                    if not np.any(new == j):
                        new[int(np.argmax(d2[np.arange(n), new]))] = j
                counts = np.bincount(new, minlength=k)
            if np.array_equal(new, labels):
                break
            labels = new
            # each cluster's members in row order, as a boolean mask would give
            # them, so every centre sums its rows in the same order
            members = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts)[:-1])
            for j in range(k):
                centers[j] = centre(x, x[members[j]], centers)
        sse = float(np.sum(_sq_dists(sq_norms, twice_x, centers)[np.arange(n), labels]))
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels + 1


def _unit_mean_centre(x, members, centers) -> np.ndarray:
    # a mean that cancels to zero is reseeded at the worst-represented point
    mean = members.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-8:
        return x[int(np.argmin((x @ centers.T).max(axis=1)))]
    return mean / norm


def kmeans(points, K: int, seed=0, restarts: int = 10, max_iter: int = 100) -> np.ndarray:
    """Lloyd's algorithm with restarts; returns 1-based labels.

    Deterministic for a given seed: the best of ``restarts`` runs by
    within-cluster squared error is returned.
    """
    x = np.asarray(points, dtype=float)
    return _lloyd(x, K, seed, restarts, max_iter, lambda _x, members, _centers: members.mean(axis=0))


def spherical_kmeans(points, K: int, seed=0, restarts: int = 10, max_iter: int = 100) -> np.ndarray:
    """Cosine-similarity k-means on unit vectors; returns 1-based labels.

    Points are assigned to the most-parallel centroid and centroids are the
    normalized means of their members; a centroid that cancels to zero is
    reseeded at the worst-represented point. For unit centroids the nearest
    centroid is the most parallel one, so this is Lloyd's loop with a
    normalized centre update.
    """
    x = unitize(np.asarray(points, dtype=float))
    return _lloyd(x, K, seed, restarts, max_iter, _unit_mean_centre)
