"""Geometry of the unit hypersphere.

Points live on S^p = {x in R^(p+1) : ||x|| = 1}; tangent vectors at x are
the ambient vectors orthogonal to x. The ``batch_*`` functions operate on
plain arrays with coordinates on the last axis and broadcast over leading
axes, so a whole set of points can be mapped in a single call; a single
point or tangent vector is the one-row case. :class:`SpherePoint` holds one
validated point (the location of an ``SNParams`` or a fit) and reads as its
coordinate array wherever an array is expected.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SpherePoint",
    "unitize",
    "geodesic_distance",
    "batch_project",
    "batch_exp",
    "batch_log",
]

NORM_FLOOR = 1e-8      # vectors shorter than this cannot be normalized
CUT_LOCUS_TOL = 1e-8   # log map rejected within this of the antipode
UNIT_ROW_TOL = 1e-6    # max | ||x|| - 1 | accepted for a data row
_EPS = float(np.finfo(float).eps)


def unitize(v) -> np.ndarray:
    """Scale vectors (coordinates on the last axis) to unit length; reject near-zero input."""
    v = np.asarray(v, dtype=float)
    norms = _norms(v)
    if norms.size and norms.min() < NORM_FLOOR:
        raise ValueError("cannot normalize a near-zero vector")
    return v / norms


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, kept as a length-1 axis: the arithmetic
    of np.linalg.norm, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))


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
        # NumPy 1.x calls this without ``copy`` and rejects np.array(..., copy=None),
        # so build the result without passing ``copy`` on
        a = self.coords if dtype is None else self.coords.astype(dtype, copy=False)
        return a.copy() if copy else a

    def __repr__(self) -> str:
        return f"SpherePoint({np.array2string(self.coords, precision=6)})"


def geodesic_distance(x, y):
    """Great-circle distance arccos(<x, y>) in [0, pi], batched.

    The inner product is clamped to [-1, 1] so nearly identical or nearly
    antipodal pairs stay inside the arccos domain.
    """
    cx, cy = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if cx.shape[-1] != cy.shape[-1]:
        raise ValueError(f"dimension mismatch: {cx.shape[-1]} != {cy.shape[-1]}")
    dot = np.clip(np.sum(cx * cy, axis=-1), -1.0, 1.0)
    d = np.arccos(dot)
    return float(d) if d.ndim == 0 else d


def _angles(x: np.ndarray, y: np.ndarray):
    """(n, k) cosines clip(x @ y.T) and their arccos, the geodesic distances
    between the rows of ``x`` and the rows of ``y``."""
    C = x @ y.T
    # np.clip's arithmetic without its dispatch
    np.maximum(C, -1.0, out=C)
    np.minimum(C, 1.0, out=C)
    return C, np.arccos(C)


def batch_project(base, z) -> np.ndarray:
    """Tangent-space projection z - <base, z> base, batched."""
    b, zz = np.asarray(base, dtype=float), np.asarray(z, dtype=float)
    if b.shape[-1] != zz.shape[-1]:
        raise ValueError(f"dimension mismatch: {b.shape[-1]} != {zz.shape[-1]}")
    dot = np.sum(b * zz, axis=-1, keepdims=True)
    return zz - dot * b


def batch_exp(base, v) -> np.ndarray:
    """Endpoint of the geodesic from ``base`` with initial velocity ``v``.

    cos(||v||) base + sin(||v||)/||v|| v. The factor is np.sinc(||v|| / pi)
    written out, round trip through pi included: a zero norm is replaced by
    machine epsilon, whose sine over itself is exactly 1, so a zero tangent
    vector maps back to the base exactly.
    """
    b, vv = np.asarray(base, dtype=float), np.asarray(v, dtype=float)
    nv = _norms(vv)
    x = np.pi * (nv / np.pi)
    x = np.where(x, x, _EPS)
    return np.cos(nv) * b + np.sin(x) / x * vv


def batch_log(base, y) -> np.ndarray:
    """Initial velocity of the geodesic from ``base`` to ``y``, batched.

    The result is tangent at ``base`` with length equal to the geodesic
    distance. Inputs within CUT_LOCUS_TOL of the antipode are rejected
    because the inverse map is not defined there.
    """
    b, ys = np.asarray(base, dtype=float), np.asarray(y, dtype=float)
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
