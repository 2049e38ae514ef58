import numpy as np
import pytest

from sevensphere.frames import FRAME_GENERATORS


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def unit_vector(rng, n=8):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def close(p, q, tol=1e-12):
    """Every entry of p within tol of q."""
    return bool(np.all(np.abs(np.asarray(p) - np.asarray(q)) <= tol))


# --------------------------------------------------------------------------
# bitwise references shared by the step and frame tests
# --------------------------------------------------------------------------

def reference_combined(coeffs):
    """CombinedField's value with np.linalg.norm and the frame table product."""
    def field(z):
        z = np.asarray(z, dtype=float)
        a = coeffs(z / np.linalg.norm(z, axis=-1, keepdims=True))
        u = (z @ FRAME_GENERATORS.reshape(56, 8).T).reshape(z.shape[:-1] + (7, 8))
        return np.einsum("...m,...mi->...i", a, u)
    return field


def bent_assigned(z):  # the same coefficients written into zeros
    a = np.zeros(z.shape[:-1] + (7,))
    a[..., 0] = z[..., 0]
    return a


def swirl(z):  # a second state-dependent coefficient field
    return np.stack([z[..., 1] * z[..., 2], np.zeros_like(z[..., 0]), z[..., 3],
                     np.zeros_like(z[..., 0]), -z[..., 0], z[..., 5] ** 2,
                     np.ones_like(z[..., 0])], axis=-1)


def points_last(x):
    """x as the transposed view of a C-order array: the points axis innermost,
    the layout of the ensemble's state and noise."""
    return np.ascontiguousarray(x.T).T


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))
