"""Finite mixtures of spherical normals fit by expectation-maximization.

The E-step computes posterior component responsibilities through log-space
densities; responsibilities can stay soft, be hardened to the row argmax,
or be resampled from the row distribution each sweep. The M-step runs the
single-component estimators on all K responsibility columns at once, with
either free per-component concentrations (heterogeneous) or one shared
value (homogeneous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import SNParams, _log_partition_many
from .distribution import sample as sn_sample
from .estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    _concentration,
    _concentration_columns,
    _dispersions,
    _frechet_columns,
    _normalized_weights,
)
from .geometry import SpherePoint, _distance_matrix, _unit_rows, unitize
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
_SWEEP_EPSILON = 1e-6           # loosest inner-solver tolerance used during the EM sweeps


@dataclass(frozen=True)
class MixtureModel:
    """K spherical normal components with mixing weights."""

    components: tuple
    weights: np.ndarray
    concentration_mode: str = "heterogeneous"

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps or not all(isinstance(c, SNParams) for c in comps):
            raise ValueError("components must be a non-empty sequence of SNParams")
        dims = {c.p for c in comps}
        if len(dims) != 1:
            raise ValueError("all components must live on the same sphere")
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (len(comps),):
            raise ValueError("weights must match the number of components")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValueError("weights must be non-negative and sum to 1")
        if self.concentration_mode not in ("heterogeneous", "homogeneous"):
            raise ValueError("concentration_mode must be 'heterogeneous' or 'homogeneous'")
        if self.concentration_mode == "homogeneous":
            lams = np.array([c.lam for c in comps])
            if float(np.ptp(lams)) > 1e-9 * max(1.0, float(lams.max())):
                raise ValueError("homogeneous mode requires equal concentrations")
        w.setflags(write=False)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def p(self) -> int:
        return self.components[0].p

    def locations(self) -> np.ndarray:
        """(K, p+1) array of component locations."""
        return np.stack([c.mu.coords for c in self.components])

    def concentrations(self) -> np.ndarray:
        return np.array([c.lam for c in self.components])

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "K": self.K,
            "mode": self.concentration_mode,
            "components": [
                {"mu": [float(v) for v in c.mu.coords], "lambda": float(c.lam)}
                for c in self.components
            ],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MixtureModel":
        """Inverse of :meth:`to_dict`; a malformed document raises ``ValueError``."""
        if not isinstance(doc, dict) or not isinstance(doc.get("components"), list):
            raise ValueError("model document must be an object with a 'components' list")
        try:
            comps = tuple(SNParams(SpherePoint(c["mu"]), float(c["lambda"])) for c in doc["components"])
            weights, mode = np.asarray(doc["weights"], dtype=float), doc.get("mode", "heterogeneous")
            p, K = int(doc["p"]), int(doc["K"])
        except KeyError as exc:
            raise ValueError(f"model document lacks {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed model document: {exc}") from None
        model = cls(comps, weights, mode)
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
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.assignment not in ("soft", "hard", "stochastic"):
            raise ValueError("assignment must be 'soft', 'hard' or 'stochastic'")
        if self.concentration_mode not in ("heterogeneous", "homogeneous"):
            raise ValueError("concentration_mode must be 'heterogeneous' or 'homogeneous'")
        if self.epsilon_gamma <= 0.0 or self.max_iter < 1:
            raise ValueError("epsilon_gamma and max_iter must be positive")


@dataclass(frozen=True)
class EMReport:
    """Outcome of one EM run; ``reseeds`` counts empty-cluster recoveries."""

    model: MixtureModel
    gamma: np.ndarray
    loglik_trace: tuple
    iterations: int
    converged: bool
    reseeds: int = 0


def _log_joint(data: np.ndarray, model: MixtureModel) -> np.ndarray:
    """(N, K) matrix of log pi_k + log f_k(x_n)."""
    mus = model.locations()
    lams = model.concentrations()
    d2 = np.square(_distance_matrix(data, mus))
    log_z = _log_partition_many(model.p, lams)
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.weights)
    return log_pi[None, :] - 0.5 * lams[None, :] * d2 - log_z[None, :]


def _posterior(x: np.ndarray, model: MixtureModel):
    """(gamma, row_loglik) from one pass: responsibilities and log sum_k pi_k f_k(x_n)."""
    if x.shape[1] != model.p + 1:
        raise ValueError("points and model must live on the same sphere")
    log_joint = _log_joint(x, model)
    peak = log_joint.max(axis=1, keepdims=True)
    joint = np.exp(log_joint - peak)  # each row's largest term is exp(0) = 1
    total = joint.sum(axis=1, keepdims=True)
    return joint / total, (peak + np.log(total))[:, 0]


def e_step(data, model: MixtureModel) -> np.ndarray:
    """Posterior responsibilities gamma_nk, row-normalized in log space."""
    return _posterior(_unit_rows(data), model)[0]


def harden(gamma) -> np.ndarray:
    """One-hot rows at the row argmax; ties go to the smallest index."""
    g = np.asarray(gamma, dtype=float)
    out = np.zeros_like(g)
    out[np.arange(g.shape[0]), np.argmax(g, axis=1)] = 1.0
    return out


def stochasticize(gamma, rng) -> np.ndarray:
    """One-hot rows drawn from each row's categorical distribution."""
    g = np.asarray(gamma, dtype=float)
    rng = np.random.default_rng(rng)
    cum = np.cumsum(g, axis=1)
    cum /= cum[:, -1:]
    idx = np.sum(rng.random((g.shape[0], 1)) >= cum, axis=1)
    out = np.zeros_like(g)
    out[np.arange(g.shape[0]), np.clip(idx, 0, g.shape[1] - 1)] = 1.0
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
    n = x.shape[0]
    if g.ndim != 2 or g.shape[0] != n:
        raise ValueError("gamma must be an (n, K) matrix with one row per observation")
    col = g.sum(axis=0)
    if np.any(col <= _EMPTY_COLUMN_FRACTION * n):
        raise ValueError("empty cluster: responsibilities carry no mass for some component")
    W = _normalized_weights(n, g)
    mus, _, _ = _frechet_columns(x, W, frechet_cfg or FrechetConfig())
    return _assemble(x, W, mus, col, concentration_mode, conc_cfg or ConcentrationConfig())


def _assemble(x, W, mus, col, concentration_mode: str, conc_cfg) -> MixtureModel:
    """Mixture on the rows ``x`` from (K, p+1) locations and column-normalized memberships ``W``.

    Weights are ``col / n``; concentrations come from each clipped dispersion (half the
    ``W``-weighted mean squared distance), or from their ``col``-weighted pool in
    homogeneous mode.
    """
    n, p = x.shape[0], mus.shape[1] - 1
    dispersions = _dispersions(x, W, mus)
    # collapsed clusters would otherwise raise as degenerate; cap instead
    dispersions = np.clip(dispersions, _DISPERSION_FLOOR, MAX_DISPERSION - 1e-9)
    if concentration_mode == "homogeneous":
        pooled = float(np.sum(dispersions * col) / n)
        pooled = min(max(pooled, _DISPERSION_FLOOR), MAX_DISPERSION - 1e-9)
        lams = np.full(len(mus), _concentration(pooled, p, conc_cfg)[0])
    else:
        lams = _concentration_columns(dispersions, p, conc_cfg)[0]
    comps = tuple(SNParams(SpherePoint(m), float(lam)) for m, lam in zip(mus, lams))
    return MixtureModel(comps, col / n, concentration_mode)


def _apply_assignment(gamma: np.ndarray, assignment: str, rng) -> np.ndarray:
    if assignment == "hard":
        return harden(gamma)
    if assignment == "stochastic":
        return stochasticize(gamma, rng)
    return gamma


def _loosened(cfg):
    """``cfg`` with its tolerance relaxed to at least ``_SWEEP_EPSILON``."""
    return replace(cfg, epsilon=max(cfg.epsilon, _SWEEP_EPSILON))


def _init_from_kmeans(x: np.ndarray, cfg: EMConfig, seed) -> MixtureModel:
    """Initial parameters from Lloyd clustering: the M-step's tail on the one-hot labels, at
    the normalized member means (a cluster's first member where its mean cancels)."""
    labels = kmeans(x, cfg.K, seed=seed)
    onehot = (labels[:, None] == np.arange(1, cfg.K + 1)).astype(float)
    W = _normalized_weights(x.shape[0], onehot)
    centroids = W.T @ x
    flat = np.linalg.norm(centroids, axis=1) < 1e-8
    centroids[flat] = x[np.argmax(onehot[:, flat], axis=0)]
    return _assemble(x, W, unitize(centroids), onehot.sum(axis=0), cfg.concentration_mode,
                     _loosened(cfg.concentration))


def _reseed_empty(x, model, gamma, row_loglik, assignment, rng):
    """Replace components whose responsibility column lost all mass.

    Each dead component is moved onto the observation the current mixture
    explains worst (lowest ``row_loglik``), its concentration reset to the
    median of the live ones, and the membership matrix recomputed under the
    patched model.
    """
    n = x.shape[0]
    reseeds = 0
    for _ in range(model.K):
        col = gamma.sum(axis=0)
        dead = np.flatnonzero(col <= _EMPTY_COLUMN_FRACTION * n)
        if dead.size == 0:
            break
        j = int(dead[0])
        worst = int(np.argmin(row_loglik))
        comps = list(model.components)
        live = [c.lam for i, c in enumerate(comps) if i != j]
        new_lam = float(np.median(live)) if model.concentration_mode == "heterogeneous" else comps[j].lam
        comps[j] = SNParams(SpherePoint(x[worst]), new_lam)
        w = model.weights.copy()
        w[j] = max(w[j], 1.0 / n)
        model = MixtureModel(tuple(comps), w / w.sum(), model.concentration_mode)
        gamma, row_loglik = _posterior(x, model)
        gamma = _apply_assignment(gamma, assignment, rng)
        reseeds += 1
    return model, gamma, reseeds


def fit_em(data, cfg: EMConfig, init_model: MixtureModel | None = None) -> EMReport:
    """Fit a K-component spherical normal mixture by EM.

    Initialization comes from ambient k-means (10 restarts) unless an
    ``init_model`` is supplied. Each sweep runs E-step, the configured
    assignment heuristic, then M-step; the loop stops once the membership
    matrix stalls (see :class:`EMConfig`) or ``max_iter`` sweeps have run.
    Inner solves run at a slightly loosened tolerance during the sweeps and
    a final full-precision M-step polishes the returned model, so a K=1 run
    reproduces :func:`snmix.estimation.fit_sn` exactly.
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

    loose_f, loose_c = _loosened(cfg.frechet), _loosened(cfg.concentration)
    posterior, row_loglik = _posterior(x, model)
    trace = [float(np.sum(row_loglik))]
    threshold = cfg.epsilon_gamma * math.sqrt(n * cfg.K)
    gamma_prev = None
    reseeds = 0
    iterations = 0
    converged = False
    for t in range(cfg.max_iter):
        gamma = _apply_assignment(posterior, cfg.assignment, rng)
        model, gamma, n_new = _reseed_empty(x, model, gamma, row_loglik, cfg.assignment, rng)
        reseeds += n_new
        if gamma_prev is not None and float(np.linalg.norm(gamma - gamma_prev)) < threshold:
            converged = True
            break
        iterations = t + 1
        model = m_step(x, gamma, cfg.concentration_mode, loose_f, loose_c)
        posterior, row_loglik = _posterior(x, model)
        trace.append(float(np.sum(row_loglik)))
        gamma_prev = gamma

    model = m_step(x, gamma, cfg.concentration_mode, cfg.frechet, cfg.concentration)
    posterior, row_loglik = _posterior(x, model)
    trace.append(float(np.sum(row_loglik)))
    gamma = _apply_assignment(posterior, cfg.assignment, rng)
    return EMReport(
        model=model,
        gamma=gamma,
        loglik_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
        reseeds=reseeds,
    )


def parameter_count(model: MixtureModel) -> int:
    """Free parameters of the mixture: (p+2)K - 1 heterogeneous, (p+1)K homogeneous."""
    if model.concentration_mode == "heterogeneous":
        return (model.p + 2) * model.K - 1
    return (model.p + 1) * model.K


def information_criteria(report: EMReport, n_obs: int) -> dict:
    """AIC/AICc/BIC/HQIC of a fitted mixture on ``n_obs`` observations.

    AICc is ``None`` when the sample is too small (n_obs <= k* + 1) for its
    correction term to be defined.
    """
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    k_star = parameter_count(report.model)
    loglik = float(report.loglik_trace[-1])
    aic = -2.0 * loglik + 2.0 * k_star
    aicc = aic + 2.0 * k_star * (k_star + 1) / (n_obs - k_star - 1) if n_obs > k_star + 1 else None
    bic = -2.0 * loglik + k_star * math.log(n_obs)
    hqic = -2.0 * loglik + 2.0 * k_star * math.log(math.log(n_obs))
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
            out[mask] = sn_sample(model.components[k], int(mask.sum()), rng)
    return out, comps + 1
