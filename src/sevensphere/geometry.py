"""Hyperspherical coordinates on the unit sphere in R^8, volume element,
chart Jacobian, geodesic distance and the quadrature helpers used for
densities and entropies.

Chart convention (nested):
    z1 = cos(phi1)
    zk = sin(phi1) ... sin(phi_{k-1}) cos(phi_k)      k = 2..7
    z8 = sin(phi1) ... sin(phi6) sin(phi7)
with phi1..phi6 in [0, pi] and phi7 in [0, 2*pi).
"""

from __future__ import annotations

import functools

import numpy as np

N_ANGLES = 7
DIM = 8

ANGLE_UPPER = np.array([np.pi] * 6 + [2.0 * np.pi])
SIN_POWER_NODES = 24  # Gauss-Legendre nodes of sin_power_integral
CAP_BLOCK = 4096  # rows of random_cap_point's in-place pass


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


def to_spherical(z) -> np.ndarray:
    """Invert the chart on (..., 8) unit vectors.  On the singular set (where
    some trailing block of coordinates vanishes and an angle is
    unidentifiable) the atan2 conventions pick a representative, which is
    what histogram binning wants."""
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
    arithmetic of np.linalg.norm(x, axis=-1, keepdims=True) on a C-order copy
    of real x, bit for bit, without its dispatch.

    add.reduce sums a contiguous row of 8 as the tree
    ((x0+x1)+(x2+x3))+((x4+x5)+(x6+x7)) but a strided row one term at a time,
    so rows of 8 that are not contiguous (a points-last batch) take that tree
    explicitly.  Shorter rows are summed one term at a time in either layout."""
    sq = x * x
    if sq.strides[-1] == sq.itemsize or sq.shape[-1] != 8:
        return np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True))
    t = sq.T  # the 8 terms first: pairs, pairs of pairs, then the two halves
    t = t[0::2] + t[1::2]
    t = t[0::2] + t[1::2]
    return np.sqrt(t[0] + t[1]).T[..., None]


def geodesic_distance(x, y) -> np.ndarray:
    """Great-circle distance; inner product clamped into [-1, 1] before arccos."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dots = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    return np.arccos(dots)


def sphere_volume() -> float:
    """Riemannian volume of the unit sphere in R^8: pi^4 / 3."""
    return np.pi ** 4 / 3.0


@functools.cache
def _leggauss(n: int):
    """Read-only nodes and weights of n-point Gauss-Legendre on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights of n-point Gauss-Legendre on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def sin_power_integral(power: int, a: float, b: float) -> float:
    """integral of sin(phi)^power over [a, b] by SIN_POWER_NODES-point Gauss-Legendre."""
    x, w = gauss_legendre(SIN_POWER_NODES, a, b)
    return float(np.sum(w * np.sin(x) ** power))


def random_sphere_point(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform points: normalized 8D standard Gaussians; shape (..., 8)."""
    if size is None:
        v = rng.standard_normal(DIM)
        return v / np.linalg.norm(v)
    v = rng.standard_normal((size, DIM))
    return v / row_norms(v)


def random_cap_point(rng: np.random.Generator, center, radius: float, size=None) -> np.ndarray:
    """Uniform-ish points in a geodesic cap: tangent Gaussian directions, radii
    scaled to at most ``radius``; adequate as a concentrated initial condition.
    The points cos(r) center + sin(r) v are built in place in v, CAP_BLOCK rows
    at a time, so no temporary grows with the point count."""
    center = np.asarray(center, dtype=float)
    if not abs(np.linalg.norm(center) - 1.0) <= 1e-10:  # NaN: rejected
        raise ValueError(f"cap center must be a point of the unit sphere, got {center}")
    if not 0.0 <= radius <= np.pi:
        raise ValueError(f"cap radius must lie in [0, pi], got {radius}")
    n = 1 if size is None else size
    v = rng.standard_normal((n, DIM))
    r = rng.random(n)
    r **= 1.0 / 7.0  # volume-weighted in 7 dimensions
    r *= radius
    for lo in range(0, n, CAP_BLOCK):
        b, rb = v[lo:lo + CAP_BLOCK], r[lo:lo + CAP_BLOCK]
        b -= np.outer(b @ center, center)
        b /= row_norms(b)
        b *= np.sin(rb)[:, None]
        b += np.cos(rb)[:, None] * center  # IEEE addition commutes: sin r v + cos r c
    return v[0] if size is None else v


__all__ = [
    "N_ANGLES", "DIM", "to_cartesian", "to_spherical", "volume_element",
    "chart_jacobian", "central_difference", "geodesic_distance",
    "row_norms", "sphere_volume",
    "gauss_legendre", "sin_power_integral",
    "random_sphere_point", "random_cap_point",
]
