"""Maximum likelihood estimation for the spherical normal distribution.

Location and concentration decouple: the location MLE is the (weighted)
Frechet mean, solved by Riemannian gradient descent; given the fitted
location, the concentration MLE is the root of the derivative of a strictly
convex 1-D objective, solved by Newton or Halley updates whose derivatives
are exact moments of the squared radius on the log partition function's
quadrature nodes.

The solvers run every component of a mixture at once: a per-component
weight matrix is stored component-major, as a (K, n) array with one row of
point weights per component, so every reduction over the points runs along
a contiguous row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distribution import (
    LAMBDA_MAX,
    SNParams,
    _log_partition_moments,
    _validate_dim,
    log_partition,
)
from .geometry import CUT_LOCUS_TOL, SpherePoint, _angles, _unit_rows, batch_exp, unitize

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
# Newton/Halley iteration cap of the concentration solve.
_CONCENTRATION_MAX_ITER = 100
# Largest first trial of the line search: bounds the Barzilai-Borwein step
# where the curvature along the last step is nearly zero.
_BB_MAX_STEP = 1e3
_TINY = float(np.finfo(float).tiny)


def _check_count(name: str, value) -> None:
    """Reject a count ``name`` that is not an integer (``int`` or NumPy) of at least 1."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _check_tolerance(name: str, epsilon) -> None:
    """Reject a tolerance ``name`` that is not finite and positive (a NaN one would
    never stop the iteration)."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class FrechetConfig:
    """Settings for the weighted Frechet mean solver.

    ``step_rule`` is either "fixed" or "line_search". The fixed rule takes
    the 1/L step: the Hessian of 1/2 sum_n w_n d^2(x_n, mu) is at most the
    identity away from the cut locus, so the update is
    mu <- Exp_mu(sum_n w_n Log_mu(x_n)), the Karcher-mean iteration. The line
    search is an Armijo backtracking search whose first trial is the
    Barzilai-Borwein step; where its halvings run out, it takes the Karcher
    step. Iterations stop when the gradient norm or the iterate displacement
    falls below ``epsilon``.
    """

    step_rule: str = "fixed"
    epsilon: float = 1e-8
    max_iter: int = 500

    def __post_init__(self) -> None:
        if self.step_rule not in ("fixed", "line_search"):
            raise ValueError("step_rule must be 'fixed' or 'line_search'")
        _check_tolerance("epsilon", self.epsilon)
        _check_count("max_iter", self.max_iter)


@dataclass(frozen=True)
class ConcentrationConfig:
    """Settings for the concentration solver.

    ``method`` is "halley" (first to third derivative, the default) or
    "newton" (first and second); the derivatives are exact quadrature
    moments from one pass over the nodes, so an iteration costs the same
    under both, and there is no step size to set. Halley's third-order
    update takes fewer iterations; Newton stays for the comparison of the
    two that ``snmix bench`` reproduces. Iterations stop once the update
    falls below ``epsilon * max(1, lam)``, or after 100 iterations.
    """

    method: str = "halley"
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.method not in ("newton", "halley"):
            raise ValueError("method must be 'newton' or 'halley'")
        _check_tolerance("epsilon", self.epsilon)


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
    """1-D weights scaled to sum to one; ``None`` means uniform."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != n:
        raise ValueError("weights must be a 1-D array matching the number of points")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    row = w[None]
    total = row.sum(axis=1)
    if total[0] <= 0.0:
        raise ValueError("weights must not be all zero")
    return _scale_columns(row, total)[0]


def _scale_columns(W: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Each component row of a (K, n) matrix divided by its positive sum ``total``, unchecked."""
    out = W / total[:, None]
    # canonical uniform rows, so every all-equal input (1/n, ones, ...)
    # reproduces the default path bit for bit
    out[W.max(axis=1) == W.min(axis=1)] = 1.0 / W.shape[1]
    return out


def _dispersions(W: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Weighted dispersion 1/2 sum_n W[k, n] theta[k, n]^2 for every component row k, from
    the (K, n) distances ``theta`` of the points to the locations (see :func:`_angles`)."""
    return 0.5 * (W * np.square(theta)).sum(axis=1)


def _bb_trial(mu, mean_log, prev, alpha):
    """First trial ``alpha`` of each column's line search, for the step 2 alpha mean_log.

    The Barzilai-Borwein step <s, s> / <s, y>, with s = 2 alpha prev the last
    accepted step (taken along the previous mean log map ``prev`` with step
    ``alpha``) and y the gradient -2 mean_log minus the previous gradient
    -2 prev, moved to ``mu`` by tangent projection. Written out, the ratio is
    alpha |prev|^2 / (|prev|^2 - (prev . mu)^2 - prev . mean_log). It is
    clamped to [1/2, _BB_MAX_STEP]: 1/2 is the 1/L (Karcher) step, since the
    Hessian of sum_n w_n d^2 is at most 2I. Without a previous step (``prev``
    None), or where <s, y> <= 0, it is 1/2.
    """
    if prev is None:
        return np.full(mu.shape[0], 0.5)
    ss = (prev * prev).sum(axis=1)
    sy = ss - np.square((prev * mu).sum(axis=1)) - (prev * mean_log).sum(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bb = alpha * ss / sy
    return np.where(sy > 0.0, np.clip(bb, 0.5, _BB_MAX_STEP), 0.5)


def _armijo_columns(points, W, mus, mean_log, grad_norm, theta, alpha):
    """Backtracking step along each column's negative gradient.

    ``theta`` holds the angles between ``mus`` and the points; ``alpha`` is
    each column's first trial, for the step 2 alpha mean_log. Each column
    halves its own step until its Armijo test passes or the halvings run out.
    The test is on the dispersion, half of sum_n w_n d^2, so its decrease is
    halved; the dispersion at ``mus`` comes from ``theta``, and each trial
    point's angles are computed once. A column whose halvings run out (near
    the minimum the decrease can fall below the rounding of the dispersion)
    takes the Karcher step alpha = 1/2 instead, and the caller's
    displacement test decides whether it has converged.

    Returns (new, C, theta, alpha): each column's new point with its cosines,
    angles and step.
    """
    f0 = _dispersions(W, theta)
    new = None
    for _ in range(_ARMIJO_MAX_HALVINGS):
        cand = unitize(batch_exp(mus, 2.0 * alpha[:, None] * mean_log))
        C_cand, theta_cand = _angles(cand, points)
        f = _dispersions(W, theta_cand)
        ok = f <= f0 - 0.5 * _ARMIJO_C * alpha * np.square(grad_norm)
        if new is None:
            if ok.all():
                # every first trial passed, the usual case
                return cand, C_cand, theta_cand, alpha
            new, C, theta = np.empty_like(cand), np.empty_like(C_cand), np.empty_like(theta_cand)
            todo, accepted = np.arange(mus.shape[0]), np.empty(mus.shape[0])
        if ok.any():
            idx = todo[ok]
            new[idx], C[idx], theta[idx] = cand[ok], C_cand[ok], theta_cand[ok]
            accepted[idx] = alpha[ok]
            if ok.all():
                return new, C, theta, accepted
            keep = ~ok
            todo, W, mus, mean_log = todo[keep], W[keep], mus[keep], mean_log[keep]
            f0, grad_norm, alpha = f0[keep], grad_norm[keep], alpha[keep]
        alpha = 0.5 * alpha
    new[todo] = unitize(batch_exp(mus, mean_log))
    C[todo], theta[todo] = _angles(new[todo], points)
    accepted[todo] = 0.5
    return new, C, theta, accepted


def _log_factor(C: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """theta / sin(theta), 1 at theta = 0, written over the cosines C in (-1, 1] of theta.

    sin(theta) is taken from the cosine as sqrt((1 - C)(1 + C)), which costs
    less than np.sin and keeps full relative accuracy up to theta = pi: for
    |C| >= 1/2 the smaller of 1 - C and 1 + C is exact. Flooring both at the smallest
    normal float only turns 0 / 0 into 1, since theta > 0 means theta > 1e-8.
    """
    np.multiply(1.0 - C, 1.0 + C, out=C)
    np.maximum(np.sqrt(C, out=C), _TINY, out=C)
    return np.divide(np.maximum(theta, _TINY), C, out=C)


def _frechet_columns(points: np.ndarray, W: np.ndarray, cfg: FrechetConfig, offsets=None):
    """Weighted Frechet means of all K rows of the (K, n) weights ``W`` at once.

    Returns (mus (K, p+1), iterations (K,), converged (K,)). Every component
    runs the single-mean gradient iteration with its own stop tests and
    iteration count, and is frozen once it stops. Each starts at its
    normalized weighted extrinsic mean m0, which must not vanish.

    ``offsets``, a writable (K, p+1) array, warm-starts a solve on weights
    near those of an earlier one: a row with a nonzero offset starts at
    unitize(m0 + offset) instead (a zero row starts at m0 itself), and on
    return each row holds its new gap mus - m0. The Frechet mean moves with
    the weights much as m0 does, so the gap carries over better than the last
    mean itself.

    With C = mus @ x.T and theta = arccos C, the weighted mean of the log maps
    sum_n W_kn theta_kn / sin(theta_kn) (x_n - C_kn mu_k) is
    F @ x - (sum_n F_kn C_kn) mu_k with F = W theta / sin(theta). Under the
    line search each iteration runs :func:`_armijo_columns` from the
    :func:`_bb_trial` step and reuses the accepted trial's C and theta, so
    the angles of each point it visits are computed once.
    """
    m0 = W @ points
    norm0 = np.linalg.norm(m0, axis=1)
    if np.any(norm0 < 1e-8):
        raise ValueError("ill-posed initialization: weighted extrinsic mean is numerically zero")
    k = W.shape[0]
    m0 /= norm0[:, None]
    mus = m0.copy()
    if offsets is not None:
        warm = offsets.any(axis=1)
        if warm.any():
            mus[warm] = unitize(m0[warm] + offsets[warm])
    iterations = np.full(k, cfg.max_iter)
    converged = np.zeros(k, dtype=bool)
    search = cfg.step_rule == "line_search"
    # components still iterating, with their locations and weight rows; a
    # component is indexed out only when it stops, so a K=1 solve never re-indexes
    active, mu, Wa = np.arange(k), mus.copy(), W
    # the line search carries its accepted trial's angles into the next
    # iterate, and its last mean log map and step into the next first trial;
    # the fixed step resets theta to None, so the angles are computed afresh
    theta = prev = alpha = None
    for t in range(1, cfg.max_iter + 1):
        if theta is None:
            C, theta = _angles(mu, points)
        if theta.max() > np.pi - CUT_LOCUS_TOL:
            raise ValueError(
                "points include the antipode of a location estimate; the Frechet mean is undefined"
            )
        F = _log_factor(C, theta)
        F *= Wa
        # sum_n F_kn C_kn mu_k = (G_k . mu_k) mu_k, so only G needs the n points
        G = F @ points
        mean_log = G - (G * mu).sum(axis=1)[:, None] * mu
        grad_norm = 2.0 * np.sqrt((mean_log * mean_log).sum(axis=1))  # grad = -2 sum w Log(x)
        if search:
            alpha = _bb_trial(mu, mean_log, prev, alpha)
        stop = grad_norm < cfg.epsilon
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], mus[done] = t, True, mu[stop]
            keep = ~stop
            active, mu, Wa = active[keep], mu[keep], Wa[keep]
            mean_log, grad_norm = mean_log[keep], grad_norm[keep]
            if search:
                theta, alpha = theta[keep], alpha[keep]
            if active.size == 0:
                break
        if search:
            new, C, theta, alpha = _armijo_columns(
                points, Wa, mu, mean_log, grad_norm, theta, alpha
            )
            prev = mean_log
        else:
            # the 1/L step: 2 alpha mean_log at alpha = 1/2
            new = unitize(batch_exp(mu, mean_log))
            theta = None
        stop = np.square(new - mu).sum(axis=1) < cfg.epsilon**2
        mu = new
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], mus[done] = t, True, mu[stop]
            keep = ~stop
            active, mu, Wa = active[keep], mu[keep], Wa[keep]
            if search:
                C, theta, prev, alpha = C[keep], theta[keep], prev[keep], alpha[keep]
            if active.size == 0:
                break
    mus[active] = mu
    if offsets is not None:
        np.subtract(mus, m0, out=offsets)
    return mus, iterations, converged


def _frechet(points: np.ndarray, w: np.ndarray, cfg: FrechetConfig):
    """Single weighted Frechet mean for the 1-D weights ``w``, solved as a (1, n) row;
    returns (mu, iterations, converged)."""
    mus, iterations, converged = _frechet_columns(points, w[None], cfg)
    return mus[0], int(iterations[0]), bool(converged[0])


def weighted_frechet_mean(points, weights=None, cfg: FrechetConfig | None = None) -> SpherePoint:
    """Minimizer of the weighted sum of squared geodesic distances.

    Parameters
    ----------
    points : (n, p+1) array of unit rows.
    weights : optional non-negative weights, normalized internally so only
        their proportions matter; ``None`` means uniform.
    cfg : solver settings; defaults to the fixed 1/L (Karcher) step.

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


@lru_cache(maxsize=None)
def _uniform_dispersion(p: int) -> float:
    """E_0[r^2] / 2, the dispersion of the uniform law on S^p, on the solver's nodes."""
    return 0.5 * float(_log_partition_moments(p, np.zeros(1))[1][0])


def _concentration_columns(dispersions, p: int, cfg: ConcentrationConfig, start=None,
                           moments=None):
    """Concentration roots for a 1-D array of dispersions at once.

    Returns (lams, iterations, converged), each of the input's length. Every
    entry runs its own Newton or Halley iteration on the first three
    derivatives of the objective g(lam) = d lam + log_partition(p, lam),
    d - E[r^2]/2, Var[r^2]/4 and -E[(r^2 - E[r^2])^3]/8, and stops on its own
    test |step| < epsilon * max(1, lam). One :func:`_log_partition_moments` call per
    iteration gives the moments of all entries still running; the updates
    themselves run per entry on Python floats. An entry starts at the moment
    match p / (2 d), capped at LAMBDA_MAX / 2, or at its ``start`` (an array
    of the input's length, such as the roots for nearby dispersions) where
    that lies in (0, LAMBDA_MAX / 2). ``moments``, the (mean, variance,
    moment_3) arrays at ``start`` from an earlier pass, stand in for the
    first iteration's pass when every entry of ``start`` is in range.

    g is convex, so a dispersion at or above the uniform law's, where
    g'(0) >= 0, has its root on the boundary: such an entry returns lam = 0
    after one iteration, converged, whatever its start.
    """
    p = _validate_dim(p)
    d = np.asarray(dispersions, dtype=float).tolist()
    if not all(map(math.isfinite, d)):
        raise ValueError("dispersion must be finite")
    if any(v <= 1e-12 for v in d):
        raise ValueError("degenerate sample: concentration unbounded")
    if any(v >= MAX_DISPERSION for v in d):
        raise ValueError(f"dispersion must be below pi^2/2 = {MAX_DISPERSION:.6f}")
    halley = cfg.method == "halley"
    # Moment-matched start: E[d^2] ~ p / lam for concentrated data.
    lams = [min(p / (2.0 * v), 0.5 * LAMBDA_MAX) for v in d]
    if start is not None:
        start = np.asarray(start, dtype=float).tolist()
        usable = [0.0 < s < 0.5 * LAMBDA_MAX for s in start]
        lams = [s if ok else lam for s, ok, lam in zip(start, usable, lams)]
        if not all(usable):
            moments = None
    iterations = [_CONCENTRATION_MAX_ITER] * len(d)
    converged = [False] * len(d)
    # entries still iterating; those on the boundary are done
    bound = _uniform_dispersion(p)
    active = []
    for k, v in enumerate(d):
        if v < bound:
            active.append(k)
        else:
            lams[k], iterations[k], converged[k] = 0.0, 1, True
    if moments is not None and len(active) < len(d):
        moments = [m[active] for m in moments]
    epsilon = cfg.epsilon
    for t in range(1, _CONCENTRATION_MAX_ITER + 1):
        if not active:
            break
        if moments is None:
            moments = _log_partition_moments(p, np.array([lams[k] for k in active]))[1:]
        running = []
        for k, mean, var, moment_3 in zip(active, *(m.tolist() for m in moments)):
            lam = lams[k]
            g1 = d[k] - 0.5 * mean
            g2 = 0.25 * var
            if g2 > 0.0:
                new = lam - g1 / g2
                if halley:
                    # Halley denominator 2 g2^2 - g1 g3, with g3 = -moment_3 / 8
                    denom = 2.0 * g2 * g2 + 0.125 * g1 * moment_3
                    if denom > 0.0:
                        new = lam - 2.0 * g1 * g2 / denom
            else:
                new = 2.0 * lam if g1 < 0.0 else 0.5 * lam
            if new <= 0.0:
                new = 0.5 * lam
            if new > LAMBDA_MAX:
                new = 0.5 * (lam + LAMBDA_MAX)
            lams[k] = new
            if abs(new - lam) < epsilon * max(1.0, lam):
                iterations[k], converged[k] = t, True
            else:
                running.append(k)
        active, moments = running, None
    return np.array(lams), np.array(iterations), np.array(converged)


def _concentration(dispersion: float, p: int, cfg: ConcentrationConfig):
    """Single concentration root; returns (lam, iterations, converged)."""
    lams, iterations, converged = _concentration_columns([float(dispersion)], p, cfg)
    return float(lams[0]), int(iterations[0]), bool(converged[0])


def concentration_mle(dispersion: float, p: int, cfg: ConcentrationConfig | None = None) -> float:
    """Concentration whose model dispersion matches the observed one.

    Solves for the unique stationary point of the profiled objective via
    Halley (default) or Newton updates on exact derivatives; a dispersion at
    or above the uniform law's gives 0, the boundary maximum.
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
    dispersion = float(_dispersions(w[None], _angles(mu[None], x)[1])[0])
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
