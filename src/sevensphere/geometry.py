"""Hyperspherical coordinates on the unit sphere in R^8, volume element,
metric tensor, geodesic distance and the quadrature helpers used for
densities and entropies.

Chart convention (nested):
    z1 = cos(phi1)
    zk = sin(phi1) ... sin(phi_{k-1}) cos(phi_k)      k = 2..7
    z8 = sin(phi1) ... sin(phi6) sin(phi7)
with phi1..phi6 in [0, pi] and phi7 in [0, 2*pi).
"""

from __future__ import annotations

import numpy as np

N_ANGLES = 7
DIM = 8

ANGLE_UPPER = np.array([np.pi] * 6 + [2.0 * np.pi])


class ChartSingularityError(ValueError):
    """Raised when a point sits on the coordinate-singular set of the chart."""

    def __init__(self, message, suggestion=None):
        super().__init__(message)
        self.suggestion = suggestion


def _check_ranges(phi):
    phi = np.asarray(phi, dtype=float)
    if phi.shape[-1] != N_ANGLES:
        raise ValueError(f"expected 7 angles, got shape {phi.shape}")
    if np.any(phi < -1e-12) or np.any(phi > ANGLE_UPPER + 1e-12):
        raise ValueError("angles out of range: first six in [0, pi], last in [0, 2*pi)")
    return phi


def to_cartesian(phi) -> np.ndarray:
    """Embed angles (..., 7) as unit vectors (..., 8)."""
    phi = _check_ranges(phi)
    return _embed(np.sin(phi), np.cos(phi))


def _embed(s, c) -> np.ndarray:
    """The chart's products of the per-angle factors s (sines) and c (cosines)."""
    out = np.empty(s.shape[:-1] + (DIM,))
    prefix = np.ones(s.shape[:-1])
    for k in range(N_ANGLES):
        out[..., k] = prefix * c[..., k]
        prefix = prefix * s[..., k]
    out[..., 7] = prefix
    return out


def to_spherical(z, strict: bool = False) -> np.ndarray:
    """Invert the chart on (..., 8) unit vectors.

    With strict=True, points on the singular set (where some trailing block of
    coordinates vanishes and an angle is unidentifiable) raise
    ChartSingularityError carrying a nearby interior point as a suggestion.
    Without strict the atan2 conventions pick a representative, which is what
    histogram binning wants.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != DIM:
        raise ValueError(f"expected 8-vectors, got shape {z.shape}")
    # tail[k] = sqrt(z_{k+2}^2 + ... + z_8^2), the radius left after angle k
    sq = z ** 2
    tail = np.sqrt(np.maximum(np.cumsum(sq[..., ::-1], axis=-1)[..., ::-1], 0.0))
    phi = np.empty(z.shape[:-1] + (N_ANGLES,))
    for k in range(6):
        phi[..., k] = np.arctan2(tail[..., k + 1], z[..., k])
    last = np.arctan2(z[..., 7], z[..., 6])
    phi[..., 6] = np.where(last < 0.0, last + 2.0 * np.pi, last)
    if strict:
        singular = tail[..., 1:7].min(axis=-1) < 1e-12
        if np.any(singular):
            znudge = np.atleast_2d(z)[np.atleast_1d(singular)][0] + 1e-8
            znudge = znudge / np.linalg.norm(znudge)
            raise ChartSingularityError(
                "point lies on the coordinate-singular set; "
                f"a nearby interior point is {znudge.tolist()}",
                suggestion=znudge,
            )
    return phi


def volume_element(phi) -> np.ndarray:
    """prod_{p=1..6} sin^{7-p}(phi_p); the density of the area measure in angles."""
    phi = _check_ranges(phi)
    s = np.sin(phi[..., :6])
    powers = np.arange(6, 0, -1, dtype=float)
    return np.prod(np.maximum(s, 0.0) ** powers, axis=-1)


def chart_jacobian(phi) -> np.ndarray:
    """Analytic Jacobian d z / d phi of to_cartesian, shape (..., 8, 7), at
    angle vectors phi (..., 7).

    Column l is to_cartesian with sin(phi_l) -> cos(phi_l) and
    cos(phi_l) -> -sin(phi_l), and zero above row l (those coordinates do not
    involve phi_l).  The columns are mutually orthogonal, so G is diagonal.
    """
    phi = _check_ranges(phi)
    s = np.sin(phi)[..., None, :]
    c = np.cos(phi)[..., None, :]
    swap = np.eye(N_ANGLES, dtype=bool)
    return np.tril(np.swapaxes(_embed(np.where(swap, c, s), np.where(swap, -s, c)), -1, -2))


def metric_tensor(phi) -> np.ndarray:
    """G = J^T J (..., 7, 7) for the chart Jacobian; singular rows are
    identically zero at poles."""
    jac = chart_jacobian(phi)
    return np.swapaxes(jac, -1, -2) @ jac


def central_difference(f, x, h: float, directions=None) -> np.ndarray:
    """Central differences (f(x + h d) - f(x - h d)) / (2h) along each direction d.

    ``directions`` defaults to the coordinate axes of the last axis of x, so a
    batch of points (..., n) is differentiated pointwise.  The result stacks
    one derivative per direction on a new last axis, after the axes of f's
    value; the error is O(h^2).
    """
    x = np.asarray(x, dtype=float)
    if directions is None:
        directions = np.eye(x.shape[-1])
    return np.stack([(np.asarray(f(x + h * d), dtype=float)
                      - np.asarray(f(x - h * d), dtype=float)) / (2.0 * h)
                     for d in directions], axis=-1)


def row_norms(x) -> np.ndarray:
    """Euclidean norms of the rows of x (..., n), shaped (..., 1): the
    arithmetic of np.linalg.norm(x, axis=-1, keepdims=True) for real x,
    bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


def geodesic_distance(x, y) -> np.ndarray:
    """Great-circle distance; inner product clamped into [-1, 1] before arccos."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dots = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    return np.arccos(dots)


def sphere_volume() -> float:
    """Riemannian volume of the unit sphere in R^8: pi^4 / 3."""
    return np.pi ** 4 / 3.0


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights of n-point Gauss-Legendre on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sin_power_integral(power: int, a: float, b: float, n_nodes: int = 24) -> float:
    """integral of sin(phi)^power over [a, b] by Gauss-Legendre."""
    x, w = gauss_legendre(n_nodes, a, b)
    return float(np.sum(w * np.sin(x) ** power))


def sphere_volume_quadrature(n_nodes: int = 24) -> float:
    """Total volume as the product of the seven one-axis integrals."""
    total = 2.0 * np.pi  # the last angle enters with weight 1
    for p in range(1, 7):
        total *= sin_power_integral(7 - p, 0.0, np.pi, n_nodes)
    return total


def random_sphere_point(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform points: normalized 8D standard Gaussians; shape (..., 8)."""
    if size is None:
        v = rng.standard_normal(DIM)
        return v / np.linalg.norm(v)
    v = rng.standard_normal((size, DIM))
    return v / row_norms(v)


def random_cap_point(rng: np.random.Generator, center, radius: float, size=None) -> np.ndarray:
    """Uniform-ish points in a geodesic cap: tangent Gaussian directions, radii
    scaled to at most ``radius``; adequate as a concentrated initial condition."""
    center = np.asarray(center, dtype=float)
    n = 1 if size is None else size
    v = rng.standard_normal((n, DIM))
    v -= np.outer(v @ center, center)
    v /= row_norms(v)
    r = radius * rng.random(n) ** (1.0 / 7.0)  # volume-weighted in 7 dimensions
    pts = np.cos(r)[:, None] * center + np.sin(r)[:, None] * v
    return pts[0] if size is None else pts


__all__ = [
    "N_ANGLES", "DIM", "ChartSingularityError",
    "to_cartesian", "to_spherical", "volume_element",
    "chart_jacobian", "metric_tensor", "central_difference", "geodesic_distance",
    "row_norms", "sphere_volume", "sphere_volume_quadrature",
    "gauss_legendre", "sin_power_integral",
    "random_sphere_point", "random_cap_point",
]
