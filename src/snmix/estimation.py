"""Maximum likelihood estimation for the spherical normal distribution.

Location and concentration decouple: the location MLE is the (weighted)
Frechet mean, solved by Riemannian gradient descent; given the fitted
location, the concentration MLE is the root of the derivative of a strictly
convex 1-D objective, solved by Newton (three-point) or Halley (five-point)
finite-difference updates on the log partition function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (
    LAMBDA_MAX,
    SNParams,
    _stencil_log_partition,
    _validate_dim,
    log_partition,
)
from .geometry import (
    CUT_LOCUS_TOL,
    SpherePoint,
    _distance_matrix,
    _unit_rows,
    batch_exp,
    unitize,
)

__all__ = [
    "MAX_DISPERSION",
    "FrechetConfig",
    "ConcentrationConfig",
    "MLEResult",
    "weighted_frechet_mean",
    "concentration_objective",
    "concentration_mle",
    "fit_sn",
]

# Largest possible half mean squared geodesic distance on the sphere.
MAX_DISPERSION = 0.5 * math.pi**2

_ARMIJO_C = 1e-4
_ARMIJO_MAX_HALVINGS = 30


@dataclass(frozen=True)
class FrechetConfig:
    """Settings for the weighted Frechet mean solver.

    ``step_rule`` is either "fixed" (constant step ``alpha`` along the
    negative gradient) or "line_search" (backtracking from 1 with an Armijo
    test). The default ``alpha = 0.5`` is the 1/L step: the Hessian of
    1/2 sum_n w_n d^2(x_n, mu) is at most the identity away from the cut
    locus, so the update is mu <- Exp_mu(sum_n w_n Log_mu(x_n)), the
    Karcher-mean iteration. Iterations stop when the gradient norm or the
    iterate displacement falls below ``epsilon``.
    """

    step_rule: str = "fixed"
    alpha: float = 0.5
    epsilon: float = 1e-8
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.step_rule not in ("fixed", "line_search"):
            raise ValueError("step_rule must be 'fixed' or 'line_search'")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.epsilon <= 0.0 or self.max_iter < 1:
            raise ValueError("epsilon and max_iter must be positive")


@dataclass(frozen=True)
class ConcentrationConfig:
    """Settings for the concentration solver (finite-difference root-finding)."""

    method: str = "newton"
    h_scale: float = 1e-4
    epsilon: float = 1e-8
    max_iter: int = 100

    def __post_init__(self) -> None:
        if self.method not in ("newton", "halley"):
            raise ValueError("method must be 'newton' or 'halley'")
        if self.h_scale <= 0.0 or self.epsilon <= 0.0 or self.max_iter < 1:
            raise ValueError("h_scale, epsilon and max_iter must be positive")


@dataclass(frozen=True)
class MLEResult:
    """Joint fit result.

    ``dispersion`` is the weighted half mean squared geodesic distance to
    the fitted location, always in [0, pi^2/2]. ``support_ok`` reports
    whether all observations lie within a quarter turn of the fitted
    location, the regime in which the estimate is provably unique.
    """

    params: SNParams
    dispersion: float
    iterations_mu: int
    iterations_lambda: int
    converged: bool
    support_ok: bool


def _normalized_weights(n: int, weights) -> np.ndarray:
    """Weights scaled to sum to one: a 1-D vector, or each column of an (n, K) matrix."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[0] != n:
        raise ValueError("weights must be a 1-D array matching the number of points")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    cols = w.reshape(n, -1)
    total = cols.sum(axis=0)
    if np.any(total <= 0.0):
        raise ValueError("weights must not be all zero")
    out = cols / total
    # canonical uniform columns, so every all-equal input (1/n, ones, ...)
    # reproduces the default path bit for bit
    out[:, cols.max(axis=0) == cols.min(axis=0)] = 1.0 / n
    return out.reshape(w.shape)


def _dispersions(points: np.ndarray, W: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Weighted dispersion 1/2 sum_n W[n, k] d^2(x_n, mus[k]) for every column k."""
    return 0.5 * (W * np.square(_distance_matrix(points, mus))).sum(axis=0)


def _armijo_columns(points, W, mus, mean_log, grad_norm):
    """Backtracking step along each column's negative gradient.

    Returns (new, found): ``new[k]`` is the accepted candidate where
    ``found[k]`` and the unchanged ``mus[k]`` elsewhere. Each column halves
    its own step until its Armijo test passes or the halvings run out. The
    test is on the dispersion, half of sum_n w_n d^2, so its decrease is halved.
    """
    f0 = _dispersions(points, W, mus)
    new = mus.copy()
    found = np.zeros(mus.shape[0], dtype=bool)
    todo = np.arange(mus.shape[0])
    alpha = 1.0
    for _ in range(_ARMIJO_MAX_HALVINGS):
        cand = unitize(batch_exp(mus, 2.0 * alpha * mean_log))
        ok = _dispersions(points, W, cand) <= f0 - 0.5 * _ARMIJO_C * alpha * np.square(grad_norm)
        if ok.any():
            new[todo[ok]] = cand[ok]
            found[todo[ok]] = True
            if ok.all():
                break
            keep = ~ok
            todo, W, mus, mean_log = todo[keep], W[:, keep], mus[keep], mean_log[keep]
            f0, grad_norm = f0[keep], grad_norm[keep]
        alpha *= 0.5
    return new, found


def _log_factor(C: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """theta / sin(theta), 1 at theta = 0, for cosines C in (-1, 1] and theta = arccos(C).

    sin(theta) is taken from the cosine as sqrt((1 - C)(1 + C)), which costs
    less than np.sin and keeps full relative accuracy up to theta = pi: for
    |C| >= 1/2 the smaller of 1 - C and 1 + C is exact.
    """
    sin = np.sqrt((1.0 - C) * (1.0 + C))
    return np.divide(theta, sin, out=np.ones_like(theta), where=theta > 0.0)


def _frechet_columns(points: np.ndarray, W: np.ndarray, cfg: FrechetConfig):
    """Weighted Frechet means of all K columns of ``W`` at once.

    Returns (mus (K, p+1), iterations (K,), converged (K,)). Every column
    runs the single-mean gradient iteration with its own stop tests and
    iteration count, and is frozen once it stops. With C = x @ mus.T and
    theta = arccos C, the weighted mean of the log maps
    sum_n W_nk theta_nk / sin(theta_nk) (x_n - C_nk mu_k) is
    F.T @ x - (sum_n F_nk C_nk) mu_k with F = W theta / sin(theta).
    """
    m0 = W.T @ points
    norm0 = np.linalg.norm(m0, axis=1)
    if np.any(norm0 < 1e-8):
        raise ValueError("ill-posed initialization: weighted extrinsic mean is numerically zero")
    k = W.shape[1]
    mus = m0 / norm0[:, None]
    iterations = np.full(k, cfg.max_iter)
    converged = np.zeros(k, dtype=bool)
    # columns still iterating, with their locations and weights; a column
    # is indexed out only when it stops, so a K=1 solve never re-indexes
    active, mu, Wa = np.arange(k), mus.copy(), W
    for t in range(1, cfg.max_iter + 1):
        C = points @ mu.T
        np.clip(C, -1.0, 1.0, out=C)
        theta = np.arccos(C)
        if theta.max() > np.pi - CUT_LOCUS_TOL:
            raise ValueError(
                "points include the antipode of a location estimate; the Frechet mean is undefined"
            )
        F = Wa * _log_factor(C, theta)
        # sum_n F_nk C_nk mu_k = (G_k . mu_k) mu_k, so only G needs the N rows
        G = F.T @ points
        mean_log = G - (G * mu).sum(axis=1)[:, None] * mu
        grad_norm = 2.0 * np.sqrt((mean_log * mean_log).sum(axis=1))  # grad = -2 sum w Log(x)
        stop = grad_norm < cfg.epsilon
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], mus[done] = t, True, mu[stop]
            keep = ~stop
            active, mu, Wa = active[keep], mu[keep], Wa[:, keep]
            mean_log, grad_norm = mean_log[keep], grad_norm[keep]
            if active.size == 0:
                break
        if cfg.step_rule == "fixed":
            new, found = unitize(batch_exp(mu, 2.0 * cfg.alpha * mean_log)), True
        else:
            new, found = _armijo_columns(points, Wa, mu, mean_log, grad_norm)
        # a column whose line search gave up keeps its mu, so it stops as unmoved
        stop = np.square(new - mu).sum(axis=1) < cfg.epsilon**2
        mu = new
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], mus[done] = t, (stop & found)[stop], mu[stop]
            keep = ~stop
            active, mu, Wa = active[keep], mu[keep], Wa[:, keep]
            if active.size == 0:
                break
    mus[active] = mu
    return mus, iterations, converged


def _frechet(points: np.ndarray, w: np.ndarray, cfg: FrechetConfig):
    """Single weighted Frechet mean; returns (mu, iterations, converged)."""
    mus, iterations, converged = _frechet_columns(points, w[:, None], cfg)
    return mus[0], int(iterations[0]), bool(converged[0])


def weighted_frechet_mean(points, weights=None, cfg: FrechetConfig | None = None) -> SpherePoint:
    """Minimizer of the weighted sum of squared geodesic distances.

    Parameters
    ----------
    points : (n, p+1) array of unit rows.
    weights : optional non-negative weights, normalized internally so only
        their proportions matter; ``None`` means uniform.
    cfg : solver settings; defaults to the fixed 1/L step ``alpha = 0.5``.

    Starts from the normalized weighted Euclidean average and follows the
    Riemannian gradient. With observations inside an open quarter-sphere
    the minimizer is unique and this converges to it.
    """
    x = _unit_rows(np.atleast_2d(points))
    w = _normalized_weights(x.shape[0], weights)
    mu, _, _ = _frechet(x, w, cfg or FrechetConfig())
    return SpherePoint(mu)


def concentration_objective(lam: float, dispersion: float, p: int) -> float:
    """Profiled per-observation negative log-likelihood, up to a constant:
    dispersion * lam + log_partition(p, lam)."""
    dispersion = float(dispersion)
    if not 0.0 <= dispersion <= MAX_DISPERSION:
        raise ValueError(f"dispersion must lie in [0, {MAX_DISPERSION:.6f}]")
    return dispersion * float(lam) + log_partition(p, float(lam))


def _concentration_columns(dispersions, p: int, cfg: ConcentrationConfig):
    """Concentration roots for a 1-D array of dispersions at once.

    Returns (lams, iterations, converged), each of the input's length. Every
    entry runs its own Newton or Halley iteration and stops on its own test
    |step| < epsilon * max(1, lam), which the finite-difference noise of a
    large concentration can still meet; one :func:`_stencil_log_partition`
    call per iteration evaluates the stencils of all entries still running.
    """
    p = _validate_dim(p)
    d = np.asarray(dispersions, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError("dispersion must be finite")
    if np.any(d <= 1e-12):
        raise ValueError("degenerate sample: concentration unbounded")
    if np.any(d >= MAX_DISPERSION):
        raise ValueError(f"dispersion must be below pi^2/2 = {MAX_DISPERSION:.6f}")
    halley = cfg.method == "halley"
    width = 5 if halley else 3
    # Moment-matched start: E[d^2] ~ p / lam for concentrated data.
    lams = np.minimum(p / (2.0 * d), 0.5 * LAMBDA_MAX)
    iterations = np.full(d.shape, cfg.max_iter)
    converged = np.zeros(d.shape, dtype=bool)
    # entries still iterating, with their concentrations and dispersions
    active, lam, da = np.arange(d.size), lams.copy(), d[:, None]
    for t in range(1, cfg.max_iter + 1):
        h = np.minimum(cfg.h_scale * np.maximum(1.0, lam), 0.25 * lam)
        stencil, log_z = _stencil_log_partition(p, lam, h, width)
        g = da * stencil + log_z
        g_0, g_minus, g_plus = g[:, 0], g[:, 1], g[:, 2]
        a = g_plus - g_minus
        b = g_plus - 2.0 * g_0 + g_minus
        usable = np.isfinite(a) & np.isfinite(b) & (b > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = lam - 0.5 * h * (a / b)
            if halley:
                c = g[:, 4] - 2.0 * g_plus + 2.0 * g_minus - g[:, 3]
                denom = 8.0 * b * b - a * c
                new = np.where(np.isfinite(denom) & (denom > 0.0), lam - 4.0 * h * (a * b / denom), new)
        if not usable.all():
            new = np.where(usable, new, np.where(a < 0.0, 2.0 * lam, 0.5 * lam))
        new = np.where(new <= 0.0, 0.5 * lam, new)
        new = np.where(new > LAMBDA_MAX, 0.5 * (lam + LAMBDA_MAX), new)
        stop = np.abs(new - lam) < cfg.epsilon * np.maximum(1.0, lam)
        lam = new
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], lams[done] = t, True, lam[stop]
            keep = ~stop
            active, lam, da = active[keep], lam[keep], da[keep]
            if active.size == 0:
                break
    lams[active] = lam
    return lams, iterations, converged


def _concentration(dispersion: float, p: int, cfg: ConcentrationConfig):
    """Single concentration root; returns (lam, iterations, converged)."""
    lams, iterations, converged = _concentration_columns([float(dispersion)], p, cfg)
    return float(lams[0]), int(iterations[0]), bool(converged[0])


def concentration_mle(dispersion: float, p: int, cfg: ConcentrationConfig | None = None) -> float:
    """Concentration whose model dispersion matches the observed one.

    Solves for the unique stationary point of the profiled objective via
    Newton (default, three-point) or Halley (five-point) finite differences.
    Raises for a degenerate sample (dispersion ~ 0, concentration diverges)
    and for dispersion at or beyond pi^2/2.
    """
    lam, _, _ = _concentration(dispersion, p, cfg or ConcentrationConfig())
    return lam


def fit_sn(
    points,
    weights=None,
    frechet_cfg: FrechetConfig | None = None,
    conc_cfg: ConcentrationConfig | None = None,
) -> MLEResult:
    """Joint maximum likelihood fit: location first, then concentration.

    The location subproblem does not involve the concentration, so the
    weighted Frechet mean is computed first; the observed dispersion about
    it then feeds the 1-D concentration solve. Uniform weights and an
    explicit all-equal weight vector give bit-identical results.
    """
    x = _unit_rows(np.atleast_2d(points))
    w = _normalized_weights(x.shape[0], weights)
    frechet_cfg = frechet_cfg or FrechetConfig()
    conc_cfg = conc_cfg or ConcentrationConfig()
    mu, it_mu, conv_mu = _frechet(x, w, frechet_cfg)
    dispersion = float(_dispersions(x, w[:, None], mu[None])[0])
    # d(x, mu) < pi/2 exactly when <x, mu> > 0
    support_ok = bool(np.all(x @ mu > 0.0))
    lam, it_lam, conv_lam = _concentration(dispersion, x.shape[1] - 1, conc_cfg)
    return MLEResult(
        params=SNParams(SpherePoint(mu), lam),
        dispersion=dispersion,
        iterations_mu=it_mu,
        iterations_lambda=it_lam,
        converged=bool(conv_mu and conv_lam),
        support_ok=support_ok,
    )
