"""The seven global orthonormal tangent fields on the unit sphere in R^8.

Each field is linear in the ambient coordinates, U_mu(z) = J_mu @ z, with
J_mu a constant 8x8 skew matrix satisfying J_mu^2 = -I.  The generators are
sums of four signed coordinate-plane rotations; the decompositions below are
the defining data, everything else is built from them.
"""

from __future__ import annotations

import numpy as np

from .geometry import central_difference, row_norms

# (i, j, sign) terms, 1-based plane indices: each term contributes
# sign * (z^i d/dz^j - z^j d/dz^i).
PLANE_TERMS = (
    ((1, 2, +1), (3, 4, +1), (5, 6, +1), (7, 8, +1)),
    ((1, 3, +1), (2, 4, -1), (5, 7, -1), (6, 8, +1)),
    ((1, 4, +1), (2, 3, +1), (5, 8, +1), (6, 7, +1)),
    ((1, 5, +1), (2, 6, -1), (3, 7, +1), (4, 8, -1)),
    ((1, 6, +1), (2, 5, +1), (3, 8, -1), (4, 7, -1)),
    ((1, 7, +1), (2, 8, -1), (3, 5, -1), (4, 6, +1)),
    ((1, 8, +1), (2, 7, +1), (3, 6, +1), (4, 5, +1)),
)

N_FRAME_FIELDS = 7
DIM = 8


def plane_generator(i: int, j: int) -> np.ndarray:
    """Skew generator of the rotation in the (z^i, z^j) plane, 1-based indices."""
    if not (1 <= i <= DIM and 1 <= j <= DIM and i != j):
        raise ValueError(f"plane indices must be distinct in 1..8, got ({i}, {j})")
    m = np.zeros((DIM, DIM))
    m[j - 1, i - 1] = 1.0
    m[i - 1, j - 1] = -1.0
    return m


def _build_generators():
    gens = np.zeros((N_FRAME_FIELDS, DIM, DIM))
    for mu, terms in enumerate(PLANE_TERMS):
        for i, j, sign in terms:
            gens[mu] += sign * plane_generator(i, j)
    gens.setflags(write=False)
    return gens


FRAME_GENERATORS = _build_generators()
# (8, 7*8) and F-contiguous: frame_eval_all's one product
_FRAME_TABLE = FRAME_GENERATORS.reshape(N_FRAME_FIELDS * DIM, DIM).T


def generator_matrix(mu: int) -> np.ndarray:
    """The constant skew matrix J_mu of field mu (1-based, 1..7); read-only."""
    if not 1 <= mu <= N_FRAME_FIELDS:
        raise IndexError(f"frame index must be in 1..7, got {mu}")
    return FRAME_GENERATORS[mu - 1]


def frame_eval(mu: int, z) -> np.ndarray:
    """Evaluate field mu at z (shape (..., 8)); returns J_mu @ z."""
    return np.asarray(z, dtype=float) @ generator_matrix(mu).T


def frame_eval_all(z) -> np.ndarray:
    """All seven field values at z; shape (..., 7, 8)."""
    z = np.asarray(z, dtype=float)
    # one product, then split; order "A" writes it points-last for a
    # points-last z (the table is F-contiguous) and in C order otherwise
    flat = np.matmul(z, _FRAME_TABLE, order="A")
    return flat.reshape(z.shape[:-1] + (N_FRAME_FIELDS, DIM))


def frame_field(mu: int):
    """Field mu as a batch-aware callable carrying its frame coefficients,
    the unit vector e_mu."""
    gen = generator_matrix(mu)

    def field(z):
        return np.asarray(z, dtype=float) @ gen.T

    field.coefficients = np.eye(N_FRAME_FIELDS)[mu - 1]
    return field


class CombinedField:
    """Field A(z) = sum_mu coeffs(z)[mu] * U_mu(z).

    ``coeffs`` maps points of shape (..., 8) to coefficient vectors of shape
    (..., 7).  Off the sphere the coefficients are read at z/|z| so finite
    differences in the ambient space stay well defined.
    """

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @classmethod
    def constant(cls, c) -> "CombinedField":
        c = np.asarray(c, dtype=float)
        if c.shape != (N_FRAME_FIELDS,):
            raise ValueError(f"expected 7 coefficients, got shape {c.shape}")

        def coeffs(z):
            z = np.asarray(z, dtype=float)
            return np.broadcast_to(c, z.shape[:-1] + (N_FRAME_FIELDS,)).copy()

        field = cls(coeffs)
        field.coefficients = c  # read by SdeProblem
        return field

    def coefficients_at(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        a = np.asarray(self.coeffs(z), dtype=float)
        if a.shape != z.shape[:-1] + (N_FRAME_FIELDS,):
            raise ValueError(f"coefficient function returned shape {a.shape}")
        if not np.isfinite(a).all():
            raise FloatingPointError("coefficient function returned non-finite values")
        return a

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        a = self.coefficients_at(z / row_norms(z))
        return np.einsum("...m,...mi->...i", a, frame_eval_all(z))


def killing_residual(field: CombinedField, z, h: float = 1e-5) -> np.ndarray:
    """Symmetrized obstruction matrix M_ij = sum_mu (U_mu^j dA^mu/dz^i + U_mu^i dA^mu/dz^j).

    Vanishes iff the combined field is Killing, given that the frame fields are.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"finite-difference step must lie in [1e-7, 1e-3], got {h}")
    z = np.asarray(z, dtype=float)
    # Coefficients are read at normalized points, so each gradient row d A^mu
    # is tangential (the radial derivative of that extension is zero).
    grads = central_difference(lambda y: field.coefficients_at(y / np.linalg.norm(y)),
                               z, h)  # (7, 8)
    u = frame_eval_all(z)  # (7, 8)
    m = np.einsum("mj,mi->ij", u, grads)
    return m + m.T


def lie_derivative_metric(V, z, h: float = 1e-5) -> np.ndarray:
    """Finite-difference Lie derivative of the flat metric along V, restricted
    to the tangent plane at z; (..., 8, 8) for points z (..., 8).

    V must be tangent at every z (rejected otherwise).  Off-sphere values are
    read at normalized points; the symmetrized ambient Jacobian is then
    compressed with the tangent projector, which removes the spurious radial
    terms of that extension.  Zero (up to finite-difference noise) iff V is
    Killing.  Each point's matrix has the bits of a call at that point alone:
    sqrt(vecdot) is np.linalg.norm's arithmetic on one 8-vector.
    """
    z = np.asarray(z, dtype=float)
    v0 = np.asarray(V(z), dtype=float)
    if not np.all(np.isfinite(v0)):
        raise FloatingPointError("vector field returned non-finite values")
    radial = float(np.max(np.abs(np.vecdot(v0, z))))
    if radial > 1e-8:
        raise ValueError(f"field is not tangent at z: <z, V(z)> = {radial:.3e}")
    jac = central_difference(lambda y: V(y / np.sqrt(np.vecdot(y, y))[..., None]), z, h)
    sym = jac + np.swapaxes(jac, -1, -2)
    proj = np.eye(DIM) - z[..., :, None] * z[..., None, :]
    return proj @ sym @ proj


__all__ = [
    "PLANE_TERMS", "FRAME_GENERATORS", "N_FRAME_FIELDS", "DIM",
    "plane_generator", "generator_matrix", "frame_eval", "frame_eval_all",
    "frame_field", "CombinedField",
    "killing_residual", "lie_derivative_metric",
]
