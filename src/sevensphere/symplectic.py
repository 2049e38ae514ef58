"""Sp(2, H) as float64 arrays, with its two S^3 actions: bullet, whose orbits
project to the round 7-sphere through the first column, and star, whose
quotient Sp(2)/star is the Gromoll-Meyer sphere.

A quaternion is an array (..., 4) in the order (w, x, y, z); a matrix
[[a, b], [c, d]] is an array (..., 2, 2, 4) with ``Q[..., 0, 1] = b`` and so on.
Every function broadcasts over leading axes.
"""

from __future__ import annotations

import numpy as np

MEMBERSHIP_TOL = 1e-10
UNIT_TOL = 1e-9


def _shape(size, *tail):
    return (() if size is None else tuple(np.atleast_1d(size))) + tail


def qmul(p, q):
    """Hamilton product p q."""
    pw, px, py, pz = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    qw, qx, qy, qz = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def qconj(q):
    return np.asarray(q, dtype=float) * [1.0, -1.0, -1.0, -1.0]


def random_unit_quaternion(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws (*size, 4) on the unit quaternions: normalized 4D Gaussians."""
    v = rng.standard_normal(_shape(size, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def membership_residuals(Q):
    """The two defining conditions of Sp(2): the largest deviation of a
    column's squared norm from 1, and |conj(b) a + conj(d) c|.  Never raises."""
    Q = np.asarray(Q, dtype=float)
    columns = np.sum(Q * Q, axis=(-3, -1))
    (a, c), (b, d) = np.moveaxis(Q, (-2, -3), (0, 1))
    orth = qmul(qconj(b), a) + qmul(qconj(d), c)
    return np.max(np.abs(columns - 1.0), axis=-1), np.linalg.norm(orth, axis=-1)


def is_member(Q, tol: float = MEMBERSHIP_TOL):
    column, orthogonality = membership_residuals(Q)
    return (column <= tol) & (orthogonality <= tol)


def _require_unit(q):
    q = np.asarray(q, dtype=float)
    dev = np.abs(np.linalg.norm(q, axis=-1) - 1.0)
    if not np.all(dev <= UNIT_TOL):  # written so that NaN fails too
        raise ValueError(f"actions require unit quaternions, got ||q| - 1| = {np.max(dev)!r}")
    return q


def _from_columns(first, second):
    """The matrix with columns (a, c) = ``first`` and (b, d) = ``second``."""
    return np.stack(np.broadcast_arrays(first, second), axis=-2)


def bullet_action(q, Q):
    """Right-multiply the second column by conj(q); the first is untouched."""
    first, second = np.moveaxis(np.asarray(Q, dtype=float), -2, 0)
    return _from_columns(first, qmul(second, qconj(_require_unit(q))[..., None, :]))


def star_action(q, Q):
    """Conjugate the first column by q and left-multiply the second by q."""
    q = _require_unit(q)[..., None, :]
    first, second = np.moveaxis(np.asarray(Q, dtype=float), -2, 0)
    return _from_columns(qmul(qmul(q, first), qconj(q)), qmul(q, second))


def project_bullet(Q, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Map member matrices to the 8-vectors (a0, c0, a1, c1, a2, c2, a3, c3)
    of their first columns."""
    if not np.all(is_member(Q, tol)):
        column, orthogonality = membership_residuals(Q)
        raise ValueError("projection requires member matrices; worst residuals (columns "
                         f"{np.max(column):.3e}, orthogonality {np.max(orthogonality):.3e})")
    first = np.asarray(Q, dtype=float)[..., 0, :]
    return np.swapaxes(first, -1, -2).reshape(first.shape[:-2] + (8,))


def real_form(alpha, beta) -> np.ndarray:
    """The member matrices [[alpha, beta], [-beta, alpha]] of real alpha, beta
    with alpha^2 + beta^2 = 1."""
    alpha, beta = np.broadcast_arrays(alpha, beta)
    r = alpha ** 2 + beta ** 2
    if not np.all(np.abs(r - 1.0) <= UNIT_TOL):  # written so that NaN fails too
        raise ValueError(f"alpha^2 + beta^2 must be 1, got up to {np.max(r)!r}")
    Q = np.zeros(alpha.shape + (2, 2, 4))
    Q[..., 0, 0, 0] = Q[..., 1, 1, 0] = alpha
    Q[..., 0, 1, 0], Q[..., 1, 0, 0] = beta, -beta
    return Q


def random_sp_matrix(rng: np.random.Generator, size=None) -> np.ndarray:
    """Random member matrices (*size, 2, 2, 4): the first column uniform on the
    unit sphere of quaternion pairs, the second a Gaussian draw after one
    quaternionic Gram-Schmidt sweep against the first.  The sweep leaves a 4D
    Gaussian, below norm 1e-6 with probability about 1e-25, so none is redrawn."""
    first = rng.standard_normal(_shape(size, 2, 4))
    first /= np.linalg.norm(first, axis=(-2, -1), keepdims=True)
    second = rng.standard_normal(_shape(size, 2, 4))
    # t = conj(b0) a + conj(d0) c; subtracting (a, c) conj(t) zeroes it out
    t = np.sum(qmul(qconj(second), first), axis=-2)
    second = second - qmul(first, qconj(t)[..., None, :])
    second /= np.linalg.norm(second, axis=(-2, -1), keepdims=True)
    return _from_columns(first, second)


__all__ = [
    "qmul", "qconj", "random_unit_quaternion", "membership_residuals", "is_member",
    "bullet_action", "star_action", "project_bullet", "real_form", "random_sp_matrix",
]
