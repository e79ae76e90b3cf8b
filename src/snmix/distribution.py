"""The isotropic spherical normal distribution on S^p.

Density proportional to exp(-lam/2 * d^2(x, mu)) where d is the geodesic
distance. By isotropy the normalizing constant reduces to a 1-D radial
integral, evaluated here with fixed-order Gauss-Legendre quadrature in log
space. Sampling inverts a tabulated radial CDF and attaches an independent
uniform direction in the tangent space at mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .geometry import SpherePoint, batch_exp, batch_project, geodesic_distance

__all__ = [
    "LAMBDA_MAX",
    "SNParams",
    "log_partition",
    "log_density",
    "grad_log_partition",
    "sample",
]

LAMBDA_MAX = 1e8
DEFAULT_QUAD_ORDER = 128
CDF_CELLS = 4096
# centred finite-difference offsets in units of the step h: the first three
# form the three-point stencil, all five the five-point one
_STENCIL_OFFSETS = np.array([0.0, -1.0, 1.0, -2.0, 2.0])


@dataclass(frozen=True)
class SNParams:
    """Location and concentration of one spherical normal component.

    ``lam = 0`` is the uniform distribution on the sphere; it is accepted so
    the flat limit can be evaluated directly. Fits always return lam > 0.
    """

    mu: SpherePoint
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.mu, SpherePoint):
            object.__setattr__(self, "mu", SpherePoint(self.mu))
        lam = float(self.lam)
        if not math.isfinite(lam) or lam < 0.0 or lam > LAMBDA_MAX:
            raise ValueError(f"concentration must be in [0, {LAMBDA_MAX:g}]")
        object.__setattr__(self, "lam", lam)

    @property
    def p(self) -> int:
        return self.mu.p


@lru_cache(maxsize=32)
def _leggauss_base(order: int):
    # computing the base rule is the expensive part; the affine map is cheap
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _log_radial(p: int, lam, r):
    """Log of the unnormalized radial density: -lam r^2 / 2 + (p-1) log sin r."""
    log_f = -0.5 * lam * r * r
    if p > 1:
        log_f = log_f + (p - 1) * np.log(np.sin(r))
    return log_f


@lru_cache(maxsize=None)
def _log_sphere_area(p: int) -> float:
    # surface area of S^(p-1): 2 pi^(p/2) / Gamma(p/2)
    return math.log(2.0) + 0.5 * p * math.log(math.pi) - float(gammaln(0.5 * p))


def _radial_cutoff(p: int, lam):
    """Upper integration bound for the radial integrand, elementwise in ``lam``.

    The radial law behaves like a chi distribution with p degrees of freedom
    scaled by 1/sqrt(lam), so everything beyond (sqrt(p) + 10)/sqrt(lam) is
    below 1e-20 of the peak. Shrinking the domain keeps a fixed-order rule
    well resolved for concentrated densities. lam = 0, the uniform law,
    integrates over the whole half-turn [0, pi].
    """
    root = np.sqrt(lam)
    if root.all():
        return np.minimum(math.pi, (10.0 + math.sqrt(p)) / root)
    with np.errstate(divide="ignore"):
        return np.minimum(math.pi, (10.0 + math.sqrt(p)) / root)


def _validate_dim(p) -> int:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError("sphere dimension p must be an integer >= 1")
    return int(p)


def log_partition(p: int, lam: float, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Log normalizing constant of the spherical normal on S^p.

    Evaluates A_(p-1) * int_0^pi exp(-lam r^2 / 2) sin^(p-1)(r) dr with the
    largest exponent factored out, so concentrations up to LAMBDA_MAX do not
    underflow. Deterministic for a fixed quadrature order.
    """
    return float(_log_partition_many(p, [lam], order)[0])


def _log_partition_many(p: int, lams, order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """:func:`log_partition` at every entry of the 1-D array ``lams``.

    Each concentration gets its own row of quadrature nodes on [0, cutoff],
    so one call evaluates a whole finite-difference stencil or all K
    components of a mixture.
    """
    p = _validate_dim(p)
    lams = np.asarray(lams, dtype=float)
    if not np.isfinite(lams).all() or (lams < 0.0).any():
        raise ValueError("concentration must be finite and non-negative")
    return _log_partition_nodes(p, lams, order)


def _log_partition_nodes(p: int, lams: np.ndarray, order: int) -> np.ndarray:
    """:func:`_log_partition_many` without its input checks, for callers whose
    ``p`` is a valid dimension and whose ``lams`` are finite, non-negative floats."""
    x, w = _leggauss_base(int(order))
    upper = _radial_cutoff(p, lams)[:, None]
    log_f = _log_radial(p, lams[:, None], 0.5 * upper * (x + 1.0))
    peak = log_f.max(axis=1)
    total = (0.5 * upper * w * np.exp(log_f - peak[:, None])).sum(axis=1)
    return _log_sphere_area(p) + peak + np.log(total)


def _stencil_log_partition(p: int, lam, h, width: int, order: int = DEFAULT_QUAD_ORDER):
    """Nodes lam + offsets * h of the centred ``width``-point stencil, one row per
    entry of ``lam`` (scalar or 1-D, like ``h``), and log_partition at all of them.

    The caller validates ``p`` and keeps every node finite and positive
    (finite lam, 0 < h, lam - (width // 2) * h > 0), so the nodes are not
    checked again.
    """
    nodes = np.asarray(lam)[..., None] + _STENCIL_OFFSETS[:width] * np.asarray(h)[..., None]
    return nodes, _log_partition_nodes(p, nodes.ravel(), order).reshape(nodes.shape)


def log_density(x, params: SNParams, order: int = DEFAULT_QUAD_ORDER):
    """Log density at ``x`` (a single point or a batch of row vectors)."""
    d = geodesic_distance(x, params.mu)
    return -0.5 * params.lam * np.square(d) - log_partition(params.p, params.lam, order)


def grad_log_partition(
    p: int,
    lam: float,
    order: int = 1,
    h: float | None = None,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Centered finite-difference derivative of lam -> log_partition(p, lam).

    ``order`` selects the first, second, or third derivative. Orders 1 and 2
    use the three-point stencil lam, lam +- h and order 3 the five-point
    stencil that adds lam +- 2h, all with O(h^2) truncation error. The
    default step is h = 1e-4 * max(1, lam), which balances truncation
    against cancellation across the useful range of lam.
    """
    p = _validate_dim(p)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2, or 3")
    if h is None:
        h = 1e-4 * max(1.0, lam)
    h = float(h)
    if not h > 0.0:
        raise ValueError("h must be positive")
    if lam - 2.0 * h <= 0.0:
        raise ValueError("stencil crosses zero: shrink h")
    _, f = _stencil_log_partition(p, lam, h, 3 if order < 3 else 5, quad_order)
    if order == 1:
        return float((f[2] - f[1]) / (2.0 * h))
    if order == 2:
        return float((f[2] - 2.0 * f[0] + f[1]) / (h * h))
    return float((f[4] - 2 * f[2] + 2 * f[1] - f[3]) / (2.0 * h**3))


@lru_cache(maxsize=64)
def _radial_cdf(p: int, lam: float, cells: int = CDF_CELLS):
    """Tabulated CDF of the radial law, density prop. to exp(-lam r^2/2) sin^(p-1) r.

    Built once per (p, lam) on a uniform grid by trapezoidal accumulation;
    the returned arrays are immutable and shared across callers.
    """
    upper = _radial_cutoff(p, lam)
    grid = np.linspace(0.0, upper, cells + 1)
    with np.errstate(divide="ignore"):
        log_f = _log_radial(p, lam, grid)
    dens = np.exp(log_f - np.max(log_f[np.isfinite(log_f)]))
    dens[~np.isfinite(dens)] = 0.0
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    grid.setflags(write=False)
    cdf.setflags(write=False)
    return grid, cdf


def _sample_radii(p: int, lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    grid, cdf = _radial_cdf(p, lam)
    u = rng.random(n)
    idx = np.clip(np.searchsorted(cdf, u, side="right"), 1, len(cdf) - 1)
    lo, hi = cdf[idx - 1], cdf[idx]
    frac = np.where(hi > lo, (u - lo) / np.maximum(hi - lo, 1e-300), 0.5)
    return grid[idx - 1] + frac * (grid[idx] - grid[idx - 1])


def sample(params: SNParams, n: int, rng) -> np.ndarray:
    """Draw ``n`` i.i.d. observations as an (n, p+1) array of unit rows.

    The radius from mu follows the 1-D radial law by inverse-CDF lookup on
    the tabulated grid (linear interpolation within a cell); the direction
    is uniform on the tangent sphere at mu, obtained from an ambient
    Gaussian vector projected to the tangent space and normalized. The
    output is a deterministic function of the seed or Generator passed in.
    """
    if n < 1:
        raise ValueError("need n >= 1 draws")
    n = int(n)
    rng = np.random.default_rng(rng)
    mu = params.mu.coords
    radii = _sample_radii(params.p, params.lam, n, rng)
    v = batch_project(mu, rng.standard_normal((n, mu.shape[0])))
    norms = np.linalg.norm(v, axis=-1)
    while np.any(norms < 1e-12):  # probability-zero redraw guard
        bad = norms < 1e-12
        v[bad] = batch_project(mu, rng.standard_normal((int(bad.sum()), mu.shape[0])))
        norms = np.linalg.norm(v, axis=-1)
    dirs = v / norms[:, None]
    return batch_exp(mu, radii[:, None] * dirs)
