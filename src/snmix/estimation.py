"""Maximum likelihood estimation for the spherical normal distribution.

Location and concentration decouple: the location MLE is the (weighted)
Frechet mean, solved by Riemannian gradient descent; given the fitted
location, the concentration MLE is the root of the derivative of a strictly
convex 1-D objective, solved by Newton or Halley updates built from
five-point finite differences of the log partition function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import LAMBDA_MAX, SNParams, log_partition
from .geometry import SpherePoint, _unit_rows, batch_exp, batch_log, geodesic_distance, unitize

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

    ``step_rule`` is either "fixed" (constant step ``alpha``) or
    "line_search" (backtracking from 1 with an Armijo test). Iterations stop
    when the gradient norm or the iterate displacement falls below
    ``epsilon``.
    """

    step_rule: str = "fixed"
    alpha: float = 0.25
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
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError("weights must be a 1-D array matching the number of points")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("weights must not be all zero")
    if float(w.max()) == float(w.min()):
        # canonical uniform vector, so every all-equal input (1/n, ones, ...)
        # reproduces the default path bit for bit
        return np.full(n, 1.0 / n)
    return w / total


def _frechet_objective(points: np.ndarray, w: np.ndarray, mu: np.ndarray) -> float:
    return float(np.sum(w * np.square(geodesic_distance(points, mu))))


def _armijo_step(points, w, mu, mean_log, grad_norm):
    """Backtracking step along the negative gradient; None if no decrease."""
    f0 = _frechet_objective(points, w, mu)
    alpha = 1.0
    for _ in range(_ARMIJO_MAX_HALVINGS):
        cand = unitize(batch_exp(mu, 2.0 * alpha * mean_log))
        if _frechet_objective(points, w, cand) <= f0 - _ARMIJO_C * alpha * grad_norm**2:
            return cand
        alpha *= 0.5
    return None


def _frechet(points: np.ndarray, w: np.ndarray, cfg: FrechetConfig):
    """Core solver; returns (mu, iterations, converged)."""
    m0 = w @ points
    norm0 = float(np.linalg.norm(m0))
    if norm0 < 1e-8:
        raise ValueError("ill-posed initialization: weighted extrinsic mean is numerically zero")
    mu = m0 / norm0
    iterations = 0
    converged = False
    for t in range(cfg.max_iter):
        iterations = t + 1
        mean_log = w @ batch_log(mu, points)
        grad_norm = 2.0 * float(np.linalg.norm(mean_log))  # grad = -2 sum w_i Log(x_i)
        if grad_norm < cfg.epsilon:
            converged = True
            break
        if cfg.step_rule == "fixed":
            new = unitize(batch_exp(mu, 2.0 * cfg.alpha * mean_log))
        else:
            new = _armijo_step(points, w, mu, mean_log, grad_norm)
            if new is None:
                break
        if float(np.linalg.norm(new - mu)) < cfg.epsilon:
            mu = new
            converged = True
            break
        mu = new
    return mu, iterations, converged


def weighted_frechet_mean(points, weights=None, cfg: FrechetConfig | None = None) -> SpherePoint:
    """Minimizer of the weighted sum of squared geodesic distances.

    Parameters
    ----------
    points : (n, p+1) array of unit rows.
    weights : optional non-negative weights, normalized internally so only
        their proportions matter; ``None`` means uniform.
    cfg : solver settings; defaults to a fixed step of 0.25.

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


def _concentration(dispersion: float, p: int, cfg: ConcentrationConfig):
    """Core solver; returns (lam, iterations, converged)."""
    dispersion = float(dispersion)
    if dispersion <= 1e-12:
        raise ValueError("degenerate sample: concentration unbounded")
    if dispersion >= MAX_DISPERSION:
        raise ValueError(f"dispersion must be below pi^2/2 = {MAX_DISPERSION:.6f}")

    def g(t: float) -> float:
        return dispersion * t + log_partition(p, t)

    # Moment-matched start: E[d^2] ~ p / lam for concentrated data.
    lam = min(p / (2.0 * dispersion), 0.5 * LAMBDA_MAX)
    iterations = 0
    converged = False
    for t in range(cfg.max_iter):
        iterations = t + 1
        h = min(cfg.h_scale * max(1.0, lam), 0.25 * lam)
        g_minus, g_plus = g(lam - h), g(lam + h)
        a = g_plus - g_minus
        b = g_plus - 2.0 * g(lam) + g_minus
        usable = math.isfinite(a) and math.isfinite(b) and b > 0.0
        if not usable:
            new = 2.0 * lam if a < 0.0 else 0.5 * lam
        elif cfg.method == "newton":
            new = lam - 0.5 * h * (a / b)
        else:
            c = g(lam + 2 * h) - 2.0 * g_plus + 2.0 * g_minus - g(lam - 2 * h)
            denom = 8.0 * b * b - a * c
            if math.isfinite(denom) and denom > 0.0:
                new = lam - 4.0 * h * (a * b / denom)
            else:
                new = lam - 0.5 * h * (a / b)
        if new <= 0.0:
            new = 0.5 * lam
        elif new > LAMBDA_MAX:
            new = 0.5 * (lam + LAMBDA_MAX)
        if abs(new - lam) < cfg.epsilon:
            lam = new
            converged = True
            break
        lam = new
    return lam, iterations, converged


def concentration_mle(dispersion: float, p: int, cfg: ConcentrationConfig | None = None) -> float:
    """Concentration whose model dispersion matches the observed one.

    Solves for the unique stationary point of the profiled objective via
    Newton (default) or Halley iterations on five-point finite differences.
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
    d = np.atleast_1d(geodesic_distance(x, mu))
    dispersion = float(0.5 * np.sum(w * d * d))
    support_ok = bool(np.max(d) < 0.5 * math.pi)
    lam, it_lam, conv_lam = _concentration(dispersion, x.shape[1] - 1, conc_cfg)
    return MLEResult(
        params=SNParams(SpherePoint(mu), lam),
        dispersion=dispersion,
        iterations_mu=it_mu,
        iterations_lambda=it_lam,
        converged=bool(conv_mu and conv_lam),
        support_ok=support_ok,
    )
