"""Geometry of the unit hypersphere.

Points live on S^p = {x in R^(p+1) : ||x|| = 1}; tangent vectors at x are
the ambient vectors orthogonal to x. The ``batch_*`` functions operate on
plain arrays with coordinates on the last axis and broadcast over leading
axes, so a whole set of points can be mapped in a single call; the typed
wrappers (:func:`exp_map`, :func:`log_map`, :func:`project_to_tangent`)
work on single validated points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpherePoint",
    "TangentVector",
    "unitize",
    "geodesic_distance",
    "batch_project",
    "batch_exp",
    "batch_log",
    "project_to_tangent",
    "exp_map",
    "log_map",
]

NORM_FLOOR = 1e-8      # vectors shorter than this cannot be normalized
CUT_LOCUS_TOL = 1e-8   # log map rejected within this of the antipode
TANGENCY_TOL = 1e-10   # max |<base, vec>| accepted for a tangent vector
UNIT_ROW_TOL = 1e-6    # max | ||x|| - 1 | accepted for a data row


def unitize(v, axis: int = -1) -> np.ndarray:
    """Scale vectors to unit length along ``axis``; reject near-zero input."""
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=axis, keepdims=True)
    if np.any(norms < NORM_FLOOR):
        raise ValueError("cannot normalize a near-zero vector")
    return v / norms


def _unit_rows(points) -> np.ndarray:
    """Validate an (n, p+1) data matrix of finite unit rows, n >= 1, p >= 1."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("points must form an (n, p+1) array with p >= 1")
    if x.shape[0] < 1:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    if np.any(np.abs(np.linalg.norm(x, axis=1) - 1.0) > UNIT_ROW_TOL):
        raise ValueError("points must be unit vectors (normalize the data first)")
    return x


class SpherePoint:
    """A point on S^p stored as a unit vector in R^(p+1).

    Construction normalizes the input and rejects near-zero vectors, so an
    instance is always a valid sphere point. The coordinate array is
    read-only.
    """

    __slots__ = ("coords",)

    def __init__(self, coords) -> None:
        v = np.asarray(coords, dtype=float)
        if v.ndim != 1:
            raise ValueError("a sphere point is a single 1-D coordinate vector")
        if v.shape[0] < 2:
            raise ValueError("sphere dimension must be at least 1 (ambient size >= 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("coordinates must be finite")
        v = unitize(v)
        v.setflags(write=False)
        self.coords = v

    @property
    def p(self) -> int:
        """Sphere dimension (one less than the ambient dimension)."""
        return self.coords.shape[0] - 1

    def __array__(self, dtype=None, copy=None):
        return self.coords if dtype is None else self.coords.astype(dtype)

    def __repr__(self) -> str:
        return f"SpherePoint({np.array2string(self.coords, precision=6)})"


class TangentVector:
    """An ambient vector attached to a base point and orthogonal to it."""

    __slots__ = ("base", "vec")

    def __init__(self, base, vec) -> None:
        if not isinstance(base, SpherePoint):
            base = SpherePoint(base)
        v = np.asarray(vec, dtype=float)
        if v.shape != base.coords.shape:
            raise ValueError("tangent vector must match the ambient shape of its base")
        if not np.all(np.isfinite(v)):
            raise ValueError("tangent components must be finite")
        if abs(float(v @ base.coords)) > TANGENCY_TOL * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("vector is not tangent at the base point")
        v = v.copy()
        v.setflags(write=False)
        self.base = base
        self.vec = v

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def __repr__(self) -> str:
        return f"TangentVector(base={self.base!r}, vec={np.array2string(self.vec, precision=6)})"


def _coords(x) -> np.ndarray:
    return x.coords if isinstance(x, SpherePoint) else np.asarray(x, dtype=float)


def geodesic_distance(x, y):
    """Great-circle distance arccos(<x, y>) in [0, pi], batched.

    The inner product is clamped to [-1, 1] so nearly identical or nearly
    antipodal pairs stay inside the arccos domain.
    """
    cx, cy = _coords(x), _coords(y)
    if cx.shape[-1] != cy.shape[-1]:
        raise ValueError(f"dimension mismatch: {cx.shape[-1]} != {cy.shape[-1]}")
    dot = np.clip(np.sum(cx * cy, axis=-1), -1.0, 1.0)
    d = np.arccos(dot)
    return float(d) if d.ndim == 0 else d


def _distance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, k) geodesic distances between the rows of ``x`` and the rows of ``y``."""
    return np.arccos((x @ y.T).clip(-1.0, 1.0))


def batch_project(base, z) -> np.ndarray:
    """Tangent-space projection z - <base, z> base, batched."""
    b, zz = _coords(base), np.asarray(z, dtype=float)
    if b.shape[-1] != zz.shape[-1]:
        raise ValueError(f"dimension mismatch: {b.shape[-1]} != {zz.shape[-1]}")
    dot = np.sum(b * zz, axis=-1, keepdims=True)
    return zz - dot * b


def batch_exp(base, v) -> np.ndarray:
    """Endpoint of the geodesic from ``base`` with initial velocity ``v``.

    cos(||v||) base + sin(||v||)/||v|| v; np.sinc handles the removable
    singularity so a zero tangent vector maps back to the base exactly.
    """
    b, vv = _coords(base), np.asarray(v, dtype=float)
    nv = np.linalg.norm(vv, axis=-1, keepdims=True)
    return np.cos(nv) * b + np.sinc(nv / np.pi) * vv


def batch_log(base, y) -> np.ndarray:
    """Initial velocity of the geodesic from ``base`` to ``y``, batched.

    The result is tangent at ``base`` with length equal to the geodesic
    distance. Inputs within CUT_LOCUS_TOL of the antipode are rejected
    because the inverse map is not defined there.
    """
    b, ys = _coords(base), _coords(y)
    if b.shape[-1] != ys.shape[-1]:
        raise ValueError(f"dimension mismatch: {b.shape[-1]} != {ys.shape[-1]}")
    dot = np.clip(np.sum(b * ys, axis=-1, keepdims=True), -1.0, 1.0)
    theta = np.arccos(dot)
    if np.any(theta > np.pi - CUT_LOCUS_TOL):
        raise ValueError("log map undefined at cut locus")
    proj = ys - dot * b
    pn = np.linalg.norm(proj, axis=-1, keepdims=True)
    factor = np.divide(theta, pn, out=np.zeros_like(theta), where=pn > 0.0)
    return proj * factor


def project_to_tangent(x, z) -> TangentVector:
    """Project an ambient vector onto the tangent space at ``x``."""
    x = x if isinstance(x, SpherePoint) else SpherePoint(x)
    return TangentVector(x, batch_project(x, z))


def exp_map(u: TangentVector) -> SpherePoint:
    """Exponential map: follow the geodesic generated by ``u`` for length ||u||."""
    return SpherePoint(batch_exp(u.base, u.vec))


def log_map(x, y) -> TangentVector:
    """Inverse of :func:`exp_map` at ``x``; defined for y away from -x."""
    x = x if isinstance(x, SpherePoint) else SpherePoint(x)
    y = y if isinstance(y, SpherePoint) else SpherePoint(y)
    return TangentVector(x, batch_log(x, y))
