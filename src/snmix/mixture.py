"""Finite mixtures of spherical normals fit by expectation-maximization.

The E-step computes posterior component responsibilities through log-space
densities; responsibilities can stay soft, be hardened to the row argmax,
or be resampled from the row distribution each sweep. The M-step runs the
single-component estimators on all K responsibility columns at once, with
either free per-component concentrations (heterogeneous) or one shared
value (homogeneous).

Internally every membership matrix is component-major, a (K, N) array with
one row per component, so the per-component and per-point reductions run
along contiguous rows; the public functions take and return (N, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import _check_lams, _log_partition_moments, _sample
from .estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    _check_count,
    _check_tolerance,
    _concentration_columns,
    _dispersions,
    _frechet_columns,
    _scale_columns,
)
from .geometry import _angles, _unit_rows, unitize
from .metrics import kmeans

__all__ = [
    "MixtureModel",
    "EMConfig",
    "EMReport",
    "e_step",
    "harden",
    "stochasticize",
    "m_step",
    "log_likelihood",
    "fit_em",
    "parameter_count",
    "information_criteria",
    "sample_mixture",
]

_EMPTY_COLUMN_FRACTION = 1e-8   # column mass below this * N counts as an empty cluster
_DISPERSION_FLOOR = 1e-10       # keeps collapsed clusters finite instead of raising mid-EM


def _frozen(values) -> np.ndarray:
    """A read-only, C-ordered float copy of ``values``."""
    a = np.array(values, dtype=float, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MixtureModel:
    """K spherical normal components with mixing weights, stored as arrays.

    ``mus`` is the (K, p+1) array of component locations, ``lams`` the (K,)
    concentrations and ``weights`` the (K,) mixing weights; the model keeps
    read-only copies. Locations must be finite unit rows (within 1e-6, as
    data rows) and are stored as given, not normalized again.
    """

    mus: np.ndarray
    lams: np.ndarray
    weights: np.ndarray
    concentration_mode: str = "heterogeneous"

    def __post_init__(self) -> None:
        try:
            mus = _frozen(_unit_rows(self.mus))
        except ValueError as exc:
            raise ValueError(f"model locations: {exc}") from None
        k = mus.shape[0]
        lams = _frozen(self.lams)
        if lams.shape != (k,):
            raise ValueError("concentrations must match the number of components")
        _check_lams(lams)
        w = _frozen(self.weights)
        if w.shape != (k,):
            raise ValueError("weights must match the number of components")
        # a NaN weight passes both the sign and the sum test
        if not np.all(np.isfinite(w)) or np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must be finite, non-negative and sum to 1")
        if self.concentration_mode not in ("heterogeneous", "homogeneous"):
            raise ValueError("concentration_mode must be 'heterogeneous' or 'homogeneous'")
        if self.concentration_mode == "homogeneous":
            if float(np.ptp(lams)) > 1e-9 * max(1.0, float(lams.max())):
                raise ValueError("homogeneous mode requires equal concentrations")
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, mus, lams, weights, concentration_mode: str) -> "MixtureModel":
        """A model on fresh C-ordered float arrays that pass every check, frozen in place."""
        model = object.__new__(cls)
        object.__setattr__(model, "concentration_mode", concentration_mode)
        for name, a in (("mus", mus), ("lams", lams), ("weights", weights)):
            a.setflags(write=False)
            object.__setattr__(model, name, a)
        return model

    @property
    def K(self) -> int:
        return self.mus.shape[0]

    @property
    def p(self) -> int:
        return self.mus.shape[1] - 1

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "K": self.K,
            "mode": self.concentration_mode,
            "components": [
                {"mu": mu.tolist(), "lambda": lam} for mu, lam in zip(self.mus, self.lams.tolist())
            ],
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MixtureModel":
        """Inverse of :meth:`to_dict`; a malformed document raises ``ValueError``."""
        if not isinstance(doc, dict) or not isinstance(doc.get("components"), list):
            raise ValueError("model document must be an object with a 'components' list")
        try:
            mus = [c["mu"] for c in doc["components"]]
            lams = [float(c["lambda"]) for c in doc["components"]]
            if len({len(mu) for mu in mus}) > 1:
                raise ValueError("all model components must live on the same sphere")
            p, K = int(doc["p"]), int(doc["K"])
            model = cls(mus, lams, doc["weights"], doc.get("mode", "heterogeneous"))
        except KeyError as exc:
            raise ValueError(f"model document lacks {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed model document: {exc}") from None
        if model.p != p or model.K != K:
            raise ValueError("model document is inconsistent with its components")
        return model


@dataclass(frozen=True)
class EMConfig:
    """EM driver settings.

    ``assignment`` selects the soft responsibilities or the hard/stochastic
    one-hot heuristics applied after every E-step. A run has converged once
    the Frobenius change of the membership matrix between sweeps falls below
    ``epsilon_gamma * sqrt(N*K)``.
    """

    K: int
    assignment: str = "soft"
    concentration_mode: str = "heterogeneous"
    epsilon_gamma: float = 1e-6
    max_iter: int = 200
    seed: int = 0
    frechet: FrechetConfig = FrechetConfig()
    concentration: ConcentrationConfig = ConcentrationConfig()

    def __post_init__(self) -> None:
        _check_count("K", self.K)
        if self.assignment not in ("soft", "hard", "stochastic"):
            raise ValueError("assignment must be 'soft', 'hard' or 'stochastic'")
        if self.concentration_mode not in ("heterogeneous", "homogeneous"):
            raise ValueError("concentration_mode must be 'heterogeneous' or 'homogeneous'")
        _check_tolerance("epsilon_gamma", self.epsilon_gamma)
        _check_count("max_iter", self.max_iter)


@dataclass(frozen=True)
class EMReport:
    """Outcome of one EM run. ``gamma`` is the assignment of the returned model's
    posterior; ``loglik_trace`` holds the initial log-likelihood and one per M-step
    (``iterations + 1`` entries), the last being the returned model's unless the
    closing E-step reseeded it; ``reseeds`` counts empty-cluster recoveries.
    ``frechet_iterations`` and ``concentration_iterations`` add up, over the
    M-steps, the largest per-component iteration count of each solve;
    ``unconverged_solves`` counts the M-step solves (two per M-step) that left
    some component at its iteration cap."""

    model: MixtureModel
    gamma: np.ndarray
    loglik_trace: tuple
    iterations: int
    converged: bool
    reseeds: int = 0
    frechet_iterations: int = 0
    concentration_iterations: int = 0
    unconverged_solves: int = 0


@dataclass
class _WarmStart:
    """What the M-steps of a fit carry from one sweep to the next (see :func:`fit_em`).

    ``offsets`` holds each component's gap between its last Frechet mean and
    its normalized extrinsic mean, where its next Frechet solve starts (a
    zero row starts cold); the counts are those of :class:`EMReport`. Both
    hold for whatever model the next M-step updates.
    """

    offsets: np.ndarray
    frechet_iterations: int = 0
    concentration_iterations: int = 0
    unconverged_solves: int = 0


def _log_joint(data: np.ndarray, model: MixtureModel, angles=None):
    """(joint, moments): the (K, N) matrix of log pi_k + log f_k(x_n), built in the buffer
    of the angles, ``angles``, the (cosines, angles) of the points at ``model.mus``, where
    given; and the (mean, variance, moment_3) of the radial law at ``model.lams`` from the
    pass that gives log Z (see :func:`snmix.distribution._log_partition_moments`)."""
    out = (_angles(model.mus, data) if angles is None else angles)[1]
    out *= out
    out *= 0.5 * model.lams[:, None]
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.weights)
    np.subtract(log_pi[:, None], out, out=out)
    log_z, *moments = _log_partition_moments(model.p, model.lams)
    out -= log_z[:, None]
    return out, moments


def _posterior(x: np.ndarray, model: MixtureModel, angles=None):
    """(gamma, row_loglik, moments) from one pass: the (K, N) responsibilities, per point
    log sum_k pi_k f_k(x_n), and the radial moments at ``model.lams``, where a
    concentration solve that updates ``model`` starts. Precomputed ``angles`` are
    overwritten (see :func:`_log_joint`)."""
    if x.shape[1] != model.p + 1:
        raise ValueError("points and model must live on the same sphere")
    joint, moments = _log_joint(x, model, angles)
    peak = joint.max(axis=0)
    np.exp(np.subtract(joint, peak, out=joint), out=joint)  # a point's largest term is exp(0)
    total = joint.sum(axis=0)
    return np.divide(joint, total, out=joint), peak + np.log(total), moments


def e_step(data, model: MixtureModel) -> np.ndarray:
    """Posterior responsibilities gamma_nk, row-normalized in log space."""
    return np.ascontiguousarray(_posterior(_unit_rows(data), model)[0].T)


def harden(gamma) -> np.ndarray:
    """One-hot rows at the row argmax; ties go to the smallest index."""
    return np.ascontiguousarray(_harden(np.asarray(gamma, dtype=float).T).T)


def stochasticize(gamma, rng) -> np.ndarray:
    """One-hot rows drawn from each row's categorical distribution."""
    return np.ascontiguousarray(_stochasticize(np.asarray(gamma, dtype=float).T, rng).T)


def _harden(g: np.ndarray) -> np.ndarray:
    """:func:`harden` on a (K, N) membership matrix."""
    out = np.zeros_like(g)
    out[np.argmax(g, axis=0), np.arange(g.shape[1])] = 1.0
    return out


def _stochasticize(g: np.ndarray, rng) -> np.ndarray:
    """:func:`stochasticize` on a (K, N) membership matrix, with the same draws."""
    rng = np.random.default_rng(rng)
    cum = np.cumsum(g, axis=0)
    cum /= cum[-1:]
    idx = np.sum(rng.random((1, g.shape[1])) >= cum, axis=0)
    out = np.zeros_like(g)
    out[np.clip(idx, 0, g.shape[0] - 1), np.arange(g.shape[1])] = 1.0
    return out


def log_likelihood(data, model: MixtureModel) -> float:
    """Observed-data log-likelihood sum_n log sum_k pi_k f_k(x_n)."""
    return float(np.sum(_posterior(_unit_rows(data), model)[1]))


def m_step(
    data,
    gamma,
    concentration_mode: str = "heterogeneous",
    frechet_cfg: FrechetConfig | None = None,
    conc_cfg: ConcentrationConfig | None = None,
) -> MixtureModel:
    """One maximization sweep given responsibilities.

    Weights are the column means of gamma; each location is the
    gamma-weighted Frechet mean; concentrations come from per-component
    dispersions, or from the pooled dispersion in homogeneous mode. Every
    column must carry mass; empty clusters are the caller's problem (the EM
    driver reseeds them before calling in here).
    """
    x = _unit_rows(data)
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != x.shape[0]:
        raise ValueError("gamma must be an (n, K) matrix with one row per observation")
    if not np.all(np.isfinite(g)) or np.any(g < 0.0):
        raise ValueError("gamma must be finite and non-negative")
    m, _ = _m_step(x, np.ascontiguousarray(g.T), concentration_mode,
                   frechet_cfg or FrechetConfig(), conc_cfg or ConcentrationConfig())
    return MixtureModel(m.mus, m.lams, m.weights, concentration_mode)  # caller's rows and mode


def _m_step(x, g, concentration_mode: str, frechet_cfg, conc_cfg, warm=None, start=None):
    """:func:`m_step` on unit rows ``x``, a non-negative (K, n) ``g`` whose columns sum to one
    and a valid mode, as (model, angles), the model not re-checked (see :func:`_assemble`);
    the empty-cluster test backs up reseeding.

    Inside a fit, the Frechet solve starts from the offsets in the :class:`_WarmStart`
    ``warm``, which it updates, and the concentration solve from ``start``, the model's
    concentrations and the moments of its posterior there; without them both start cold.
    ``warm`` also counts the iterations and the unconverged solves.
    """
    n = x.shape[0]
    col = g.sum(axis=1)
    if np.any(col <= _EMPTY_COLUMN_FRACTION * n):
        raise ValueError("empty cluster: responsibilities carry no mass for some component")
    W = _scale_columns(g, col)
    mus, iterations, converged = _frechet_columns(
        x, W, frechet_cfg, None if warm is None else warm.offsets
    )
    if warm is not None:
        warm.frechet_iterations += int(iterations.max())
        warm.unconverged_solves += not converged.all()
    return _assemble(x, W, mus, col, concentration_mode, conc_cfg, warm, start)


def _assemble(x, W, mus, col, concentration_mode: str, conc_cfg, warm=None, start=None):
    """(model, angles): the mixture on the rows ``x`` from (K, p+1) locations and (K, n)
    memberships ``W`` whose rows sum to one, and the angles of the points at its locations
    (None without ``start``).

    Weights are ``col / n``; concentrations come from each clipped dispersion (half the
    ``W``-weighted mean squared distance), or from their ``col``-weighted pool in
    homogeneous mode. Without ``start`` the solve starts cold and the dispersions are
    taken at ``mus`` as given, as :func:`snmix.estimation.fit_sn` does. With ``start``,
    the pair (lams, moments) of a model's concentrations and its radial moments there,
    the solve starts at ``lams`` and takes ``moments`` for its first iteration, and the
    dispersions are taken at the model's unitized locations, whose angles the next
    E-step reuses. ``warm`` counts the concentration iterations and an unconverged solve.
    """
    n, p = x.shape[0], mus.shape[1] - 1
    unit = unitize(mus)
    angles = _angles(mus if start is None else unit, x)
    dispersions = _dispersions(W, angles[1])
    # collapsed clusters would otherwise raise as degenerate; cap instead
    dispersions = np.clip(dispersions, _DISPERSION_FLOOR, MAX_DISPERSION - 1e-9)
    lams, moments = (None, None) if start is None else start
    if concentration_mode == "homogeneous":
        pooled = float(np.sum(dispersions * col) / n)
        pooled = min(max(pooled, _DISPERSION_FLOOR), MAX_DISPERSION - 1e-9)
        root, iterations, converged = _concentration_columns(
            [pooled], p, conc_cfg, None if lams is None else lams[:1],
            None if moments is None else [m[:1] for m in moments],
        )
        new = np.full(len(mus), root[0])
    else:
        new, iterations, converged = _concentration_columns(dispersions, p, conc_cfg, lams, moments)
    if warm is not None:
        warm.concentration_iterations += int(iterations.max())
        warm.unconverged_solves += not converged.all()
    model = MixtureModel._trusted(unit, new, col / n, concentration_mode)
    return model, None if start is None else angles


def _apply_assignment(gamma: np.ndarray, assignment: str, rng) -> np.ndarray:
    if assignment == "hard":
        return _harden(gamma)
    if assignment == "stochastic":
        return _stochasticize(gamma, rng)
    return gamma


def _init_from_kmeans(x: np.ndarray, cfg: EMConfig, seed) -> MixtureModel:
    """Initial parameters from Lloyd clustering: the M-step's tail on the one-hot labels, at
    the normalized member means (a cluster's first member where its mean cancels)."""
    labels = kmeans(x, cfg.K, seed=seed)
    onehot = (np.arange(1, cfg.K + 1)[:, None] == labels).astype(float)
    col = onehot.sum(axis=1)
    W = _scale_columns(onehot, col)
    centroids = W @ x
    flat = np.linalg.norm(centroids, axis=1) < 1e-8
    centroids[flat] = x[np.argmax(onehot[flat], axis=1)]
    return _assemble(x, W, unitize(centroids), col, cfg.concentration_mode, cfg.concentration)[0]


def _reseed_empty(x, model, gamma, row_loglik, moments, assignment, rng, offsets):
    """Replace components whose (K, N) responsibility row lost all mass.

    Each dead component is moved onto the observation the current mixture
    explains worst (lowest ``row_loglik``), its concentration reset to the
    median of the live ones (where its next concentration solve starts) and
    its Frechet offset in ``offsets`` to zero (so its next Frechet solve
    starts cold), and the posterior recomputed under the patched model.
    Returns (model, gamma, moments, reseeds), where ``moments`` are those
    given if nothing was reseeded.
    """
    n = x.shape[0]
    reseeds = 0
    for _ in range(model.K):
        col = gamma.sum(axis=1)
        dead = np.flatnonzero(col <= _EMPTY_COLUMN_FRACTION * n)
        if dead.size == 0:
            break
        j = int(dead[0])
        worst = int(np.argmin(row_loglik))
        mus, lams, w = model.mus.copy(), model.lams.copy(), model.weights.copy()
        mus[j] = unitize(x[worst])
        if model.concentration_mode == "heterogeneous":
            lams[j] = np.median(np.delete(lams, j))
        w[j] = max(w[j], 1.0 / n)
        offsets[j] = 0.0
        model = MixtureModel._trusted(mus, lams, w / w.sum(), model.concentration_mode)
        gamma, row_loglik, moments = _posterior(x, model)
        gamma = _apply_assignment(gamma, assignment, rng)
        reseeds += 1
    return model, gamma, moments, reseeds


def fit_em(data, cfg: EMConfig, init_model: MixtureModel | None = None) -> EMReport:
    """Fit a K-component spherical normal mixture by EM.

    Initialization comes from ambient k-means (10 restarts) unless an
    ``init_model`` is supplied. Each sweep runs E-step, the configured
    assignment heuristic, then M-step; the loop stops once the membership
    matrix stalls (see :class:`EMConfig`) or ``max_iter`` M-steps have run,
    and ends on an E-step of the returned model. Every M-step solves at the
    configured tolerances. The first starts cold, as ``fit_sn`` does, so a K=1
    run reproduces :func:`snmix.estimation.fit_sn` exactly (gamma stays all
    ones). Each later one starts where the last ended: every Frechet mean at
    its normalized extrinsic mean plus the last gap between the two, every
    concentration at its current value, which takes the inner solvers fewer
    iterations; the E-step reuses the angles of the M-step's dispersions, and
    the first iteration of the next concentration solve reuses the quadrature
    pass of the last posterior, a reseed's included, at the current values.
    """
    x = _unit_rows(data)
    n = x.shape[0]
    if n < cfg.K:
        raise ValueError("need at least K observations")
    seed_init, seed_assign = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.default_rng(seed_assign)
    model = init_model if init_model is not None else _init_from_kmeans(x, cfg, seed_init)
    if model.K != cfg.K or model.p != x.shape[1] - 1:
        raise ValueError("init_model shape does not match the configuration")

    posterior, row_loglik, moments = _posterior(x, model)
    trace = [float(np.sum(row_loglik))]
    threshold = cfg.epsilon_gamma * math.sqrt(n * cfg.K)
    gamma = None
    reseeds = 0
    warm = _WarmStart(np.zeros(model.mus.shape))
    for t in range(cfg.max_iter + 1):
        gamma_prev = gamma
        gamma = _apply_assignment(posterior, cfg.assignment, rng)
        model, gamma, moments, n_new = _reseed_empty(
            x, model, gamma, row_loglik, moments, cfg.assignment, rng, warm.offsets
        )
        reseeds += n_new
        converged = gamma_prev is not None and float(np.linalg.norm(gamma - gamma_prev)) < threshold
        if converged or t == cfg.max_iter:
            break
        model, angles = _m_step(x, gamma, cfg.concentration_mode, cfg.frechet,
                                cfg.concentration, warm, None if t == 0 else (model.lams, moments))
        posterior, row_loglik, moments = _posterior(x, model, angles)
        trace.append(float(np.sum(row_loglik)))
    return EMReport(
        model=model,
        gamma=np.ascontiguousarray(gamma.T),
        loglik_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        reseeds=reseeds,
        frechet_iterations=warm.frechet_iterations,
        concentration_iterations=warm.concentration_iterations,
        unconverged_solves=warm.unconverged_solves,
    )


def parameter_count(model: MixtureModel) -> int:
    """Free parameters of the mixture: (p+2)K - 1 heterogeneous, (p+1)K homogeneous."""
    if model.concentration_mode == "heterogeneous":
        return (model.p + 2) * model.K - 1
    return (model.p + 1) * model.K


def information_criteria(report: EMReport, n_obs: int) -> dict:
    """AIC/AICc/BIC/HQIC of a fitted mixture on ``n_obs`` observations.

    AICc is ``None`` when the sample is too small (n_obs <= k* + 1) for its
    correction term to be defined, and HQIC is ``None`` at n_obs = 1, where
    log log n_obs is undefined.
    """
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    k_star = parameter_count(report.model)
    loglik = float(report.loglik_trace[-1])
    aic = -2.0 * loglik + 2.0 * k_star
    aicc = aic + 2.0 * k_star * (k_star + 1) / (n_obs - k_star - 1) if n_obs > k_star + 1 else None
    bic = -2.0 * loglik + k_star * math.log(n_obs)
    hqic = -2.0 * loglik + 2.0 * k_star * math.log(math.log(n_obs)) if n_obs > 1 else None
    return {"aic": aic, "aicc": aicc, "bic": bic, "hqic": hqic}


def sample_mixture(model: MixtureModel, n: int, rng) -> tuple:
    """Draw ``n`` observations from the mixture.

    Returns (points, labels) where labels are the 1-based source components.
    """
    if n < 1:
        raise ValueError("need n >= 1 draws")
    rng = np.random.default_rng(rng)
    comps = rng.choice(model.K, size=int(n), p=model.weights)
    out = np.empty((int(n), model.p + 1))
    for k in range(model.K):
        mask = comps == k
        if np.any(mask):
            out[mask] = _sample(model.mus[k], float(model.lams[k]), int(mask.sum()), rng)
    return out, comps + 1
