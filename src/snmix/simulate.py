"""Synthetic data generators and estimation benchmark sweeps."""

from __future__ import annotations

import time

import numpy as np

from .distribution import SNParams, sample as sn_sample
from .estimation import ConcentrationConfig, FrechetConfig, _concentration, _dispersions, _frechet
from .geometry import batch_exp, batch_log, geodesic_distance, unitize

__all__ = [
    "small_mix",
    "large_mix",
    "household_mix",
    "estimation_benchmark",
]



SMALL_MIX_PARAMS = (
    ((-0.251, -0.968), 10.0),
    ((0.399, 0.917), 2.0),
)
LARGE_MIX_CONCENTRATIONS = (40.0, 20.0, 60.0)
# one fixed orthant sign pattern per component; patterns 1 and 2 are opposite,
# pattern 3 sits halfway between them
_LARGE_MIX_SIGNS = (
    (1.0, 1.0, 1.0, 1.0),
    (-1.0, -1.0, -1.0, -1.0),
    (1.0, 1.0, -1.0, -1.0),
)
_LARGE_MIX_MIN_SEP = 1.0


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder split of ``total`` observations across weights."""
    raw = np.asarray(weights, dtype=float) * total
    counts = np.floor(raw).astype(int)
    short = total - int(counts.sum())
    order = np.argsort(raw - counts)[::-1]
    counts[order[:short]] += 1
    return counts


def _draw_components(components, counts, rng):
    points, labels = [], []
    for k, ((mu, lam), n_k) in enumerate(zip(components, counts), start=1):
        if n_k > 0:
            points.append(sn_sample(SNParams(mu, lam), int(n_k), rng))
            labels.append(np.full(int(n_k), k, dtype=int))
    return np.vstack(points), np.concatenate(labels)


def small_mix(seed: int = 0, n_per_component: int = 100):
    """Two-component benchmark on the circle: one tight cluster, one diffuse.

    Returns (points, labels) with ``n_per_component`` draws per component
    and 1-based labels.
    """
    rng = np.random.default_rng(seed)
    components = [(unitize(np.asarray(mu)), lam) for mu, lam in SMALL_MIX_PARAMS]
    counts = np.full(len(components), int(n_per_component))
    return _draw_components(components, counts, rng)


def large_mix(seed: int = 0, n_total: int = 3000):
    """Three well-separated components on S^3 with near-equal weights.

    Component locations are drawn uniformly and reflected coordinatewise
    into distinct orthants (redrawn until pairwise separation reaches
     1 radian, so the clusters do not overlap); weights come from
    u_i ~ U(9, 11) normalized, realized as exact largest-remainder counts.
    """
    rng = np.random.default_rng(seed)
    signs = np.asarray(_LARGE_MIX_SIGNS)
    while True:
        mus = np.abs(unitize(rng.standard_normal(signs.shape))) * signs
        seps = [
            geodesic_distance(mus[i], mus[j])
            for i in range(len(mus))
            for j in range(i + 1, len(mus))
        ]
        if min(seps) >= _LARGE_MIX_MIN_SEP:
            break
    u = rng.uniform(9.0, 11.0, size=len(mus))
    counts = _apportion(u / u.sum(), int(n_total))
    components = list(zip(mus, LARGE_MIX_CONCENTRATIONS))
    return _draw_components(components, counts, rng)


def household_mix(seed: int = 0, sizes=(120, 70, 70)):
    """Surrogate of the two-group expenditure data on S^2.

    One tight cluster, plus a dispersed group realized as two latent
    subgroups displaced symmetrically from its center, orthogonally to the
    direction of the tight cluster. Ground truth has three components.
    """
    rng = np.random.default_rng(seed)
    mu_tight = unitize(np.array([0.954, 0.266, 0.135]))
    mu_spread = unitize(np.array([0.643, 0.407, 0.648]))
    toward_tight = unitize(batch_log(mu_spread, mu_tight))
    across = unitize(np.cross(mu_spread, toward_tight))
    sub1 = batch_exp(mu_spread, 0.35 * across)
    sub2 = batch_exp(mu_spread, -0.35 * across)
    components = [(mu_tight, 95.743), (sub1, 40.0), (sub2, 40.0)]
    return _draw_components(components, np.asarray(sizes, dtype=int), rng)


def _cell_rng(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def estimation_benchmark(
    dims=(5, 10, 20),
    lambdas=(1.0, 5.0, 10.0, 20.0, 50.0),
    sizes=(50, 100, 150, 200),
    reps: int = 20,
    seed: int = 0,
    what: str = "both",
    eps: float = 1e-8,
) -> list[dict]:
    """Median accuracy and wall time per (p, lambda, n) cell.

    Every repetition draws a fresh sample about the last coordinate axis.
    ``what`` selects the location columns (both step rules), the
    concentration columns (Newton and Halley on the same sample), or both.
    Rows come back sorted by (p, lambda, n).
    """
    if what not in ("location", "concentration", "both"):
        raise ValueError("what must be 'location', 'concentration' or 'both'")
    do_mu = what in ("location", "both")
    do_lam = what in ("concentration", "both")
    rows = []
    for ip, p in enumerate(sorted(dims)):
        mu0 = np.zeros(p + 1)
        mu0[-1] = 1.0
        for il, lam0 in enumerate(sorted(lambdas)):
            for i_n, n in enumerate(sorted(sizes)):
                cell = {"p": int(p), "lambda": float(lam0), "n": int(n)}
                acc: dict[str, list[float]] = {}
                for rep in range(reps):
                    rng = _cell_rng(seed, ip, il, i_n, rep)
                    x = sn_sample(SNParams(mu0, float(lam0)), int(n), rng)
                    w = np.full(int(n), 1.0 / n)
                    mu_hat = None
                    if do_mu:
                        for rule in ("line_search", "fixed"):
                            cfg = FrechetConfig(step_rule=rule, epsilon=eps)
                            t0 = time.perf_counter()
                            mu, _, _ = _frechet(x, w, cfg)
                            dt = time.perf_counter() - t0
                            acc.setdefault(f"err_mu_{rule}", []).append(
                                float(np.linalg.norm(mu - mu0))
                            )
                            acc.setdefault(f"time_mu_{rule}", []).append(dt)
                            if rule == "fixed":
                                mu_hat = mu
                    if do_lam:
                        if mu_hat is None:
                            mu_hat, _, _ = _frechet(x, w, FrechetConfig(epsilon=eps))
                        dispersion = float(_dispersions(x, w[:, None], mu_hat[None])[0])
                        for method in ("newton", "halley"):
                            cfg = ConcentrationConfig(method=method, epsilon=eps)
                            t0 = time.perf_counter()
                            lam_hat, _, _ = _concentration(dispersion, p, cfg)
                            dt = time.perf_counter() - t0
                            acc.setdefault(f"relerr_lambda_{method}", []).append(
                                abs(lam_hat - lam0) / lam0
                            )
                            acc.setdefault(f"time_lambda_{method}", []).append(dt)
                for key, values in acc.items():
                    cell[key] = float(np.median(values))
                rows.append(cell)
    return rows
