"""The isotropic spherical normal distribution on S^p.

Density proportional to exp(-lam/2 * d^2(x, mu)) where d is the geodesic
distance. By isotropy the normalizing constant reduces to a 1-D radial
integral, evaluated here with fixed-order Gauss-Legendre quadrature in log
space; its derivatives in the concentration are moments of the squared
radius, taken on the same nodes. Sampling inverts a tabulated radial CDF
and attaches an independent uniform direction in the tangent space at mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _check_lams(lams) -> None:
    """Reject concentrations (a number or a non-empty array) unless every one is
    finite and in [0, LAMBDA_MAX]."""
    a = np.asarray(lams, dtype=float)
    # min and max propagate NaN, which fails the comparison
    if not (0.0 <= a.min() and a.max() <= LAMBDA_MAX):
        raise ValueError(f"concentration must be in [0, {LAMBDA_MAX:g}]")


@dataclass(frozen=True)
class SNParams:
    """Location and concentration of one spherical normal component.

    ``lam = 0`` is the uniform distribution on the sphere. A fit returns it for
    data at least as dispersed as the uniform law, where the likelihood is
    largest on the boundary lam = 0.
    """

    mu: SpherePoint
    lam: float

    def __post_init__(self) -> None:
        if not isinstance(self.mu, SpherePoint):
            object.__setattr__(self, "mu", SpherePoint(self.mu))
        lam = float(self.lam)
        _check_lams(lam)
        object.__setattr__(self, "lam", lam)

    @property
    def p(self) -> int:
        return self.mu.p


@lru_cache(maxsize=32)
def _leggauss_base(order: int):
    # computing the base rule is the expensive part; the nodes are kept as x + 1
    if order < 2:
        raise ValueError("quadrature order must be at least 2")
    x, w = np.polynomial.legendre.leggauss(order)
    x += 1.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _log_radial(p: int, lam, r):
    """Log of the unnormalized radial density: -lam r^2 / 2 + (p-1) log sin r."""
    log_f = -0.5 * lam * r * r
    if p > 1:
        log_f += (p - 1) * np.log(np.sin(r))
    return log_f


@lru_cache(maxsize=None)
def _log_sphere_area(p: int) -> float:
    # surface area of S^(p-1): 2 pi^(p/2) / Gamma(p/2)
    return math.log(2.0) + 0.5 * p * math.log(math.pi) - math.lgamma(0.5 * p)


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
    """:func:`log_partition` at every entry of the 1-D array ``lams``, checked; the
    package's own callers take :func:`_log_partition_moments` instead.

    Each concentration gets its own row of quadrature nodes on [0, cutoff].
    """
    p = _validate_dim(p)
    lams = np.asarray(lams, dtype=float)
    _check_lams(lams)
    _, mass, peak = _radial_nodes(p, lams, order)
    return _log_sphere_area(p) + peak + np.log(mass.sum(axis=1))


def _radial_nodes(p: int, lams: np.ndarray, order: int):
    """Quadrature of the radial integrand, one row of nodes per entry of ``lams``.

    Returns (r, mass, peak): the nodes on [0, cutoff], their weights times the
    integrand scaled by exp(-peak), and each row's largest log-integrand
    ``peak``, so a row's largest term is its weight times exp(0) = 1.
    """
    x1, w = _leggauss_base(int(order))
    half = 0.5 * _radial_cutoff(p, lams)[:, None]
    r = half * x1
    mass = _log_radial(p, lams[:, None], r)
    peak = mass.max(axis=1)
    mass -= peak[:, None]
    return r, np.multiply(np.exp(mass, out=mass), half * w, out=mass), peak


def _log_partition_moments(p: int, lams: np.ndarray):
    """(log_z, mean, variance, moment_3) at every entry of ``lams`` from one pass over the
    nodes of :func:`log_partition`: log_z bit for bit that of :func:`_log_partition_many`,
    and the mean, variance and third central moment of r^2 under the radial law.

    The moments are the exact derivatives of lam -> log_z: the first is -mean / 2, the
    second variance / 4 and the third -moment_3 / 8. Inputs are not checked: ``p`` must be
    a valid dimension and ``lams`` valid concentrations.
    """
    r, mass, peak = _radial_nodes(p, lams, DEFAULT_QUAD_ORDER)
    total = mass.sum(axis=1)
    dev = np.square(r, out=r)  # r^2, then its deviation from the mean
    mean = (mass * dev).sum(axis=1) / total
    dev -= mean[:, None]
    sq = mass * dev * dev
    return (_log_sphere_area(p) + peak + np.log(total), mean, sq.sum(axis=1) / total,
            np.multiply(sq, dev, out=sq).sum(axis=1) / total)


def log_density(x, params: SNParams):
    """Log density at ``x`` (a single point or a batch of row vectors)."""
    d = geodesic_distance(x, params.mu)
    return -0.5 * params.lam * np.square(d) - log_partition(params.p, params.lam)


def grad_log_partition(p: int, lam: float, order: int = 1) -> float:
    """Exact derivative of lam -> log_partition(p, lam) of the given ``order``.

    Under the radial law the derivatives are moments of r^2, the squared
    distance from the location: -E[r^2] / 2, Var[r^2] / 4 and
    -E[(r^2 - E[r^2])^3] / 8 for orders 1, 2 and 3, all taken on the
    quadrature nodes of :func:`log_partition`. At lam = 0 this is the right
    derivative.
    """
    p = _validate_dim(p)
    lam = float(lam)
    _check_lams(lam)
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2, or 3")
    moment = _log_partition_moments(p, np.array([lam]))[order][0]
    return float((-0.5, 0.25, -0.125)[order - 1] * moment)


@lru_cache(maxsize=64)
def _radial_cdf(p: int, lam: float):
    """Tabulated CDF of the radial law, density prop. to exp(-lam r^2/2) sin^(p-1) r.

    Built once per (p, lam) on a uniform grid by trapezoidal accumulation;
    the returned arrays are immutable and shared across callers.
    """
    upper = _radial_cutoff(p, lam)
    grid = np.linspace(0.0, upper, CDF_CELLS + 1)
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
    return _sample(params.mu.coords, params.lam, int(n), rng)


def _sample(mu: np.ndarray, lam: float, n: int, rng) -> np.ndarray:
    """:func:`sample` at the unit location ``mu`` and concentration ``lam``, unchecked."""
    rng = np.random.default_rng(rng)
    radii = _sample_radii(mu.shape[0] - 1, lam, n, rng)
    v = batch_project(mu, rng.standard_normal((n, mu.shape[0])))
    norms = np.linalg.norm(v, axis=-1)
    while np.any(norms < 1e-12):  # probability-zero redraw guard
        bad = norms < 1e-12
        v[bad] = batch_project(mu, rng.standard_normal((int(bad.sum()), mu.shape[0])))
        norms = np.linalg.norm(v, axis=-1)
    dirs = v / norms[:, None]
    return batch_exp(mu, radii[:, None] * dirs)
