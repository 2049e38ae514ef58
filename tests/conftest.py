import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def unit_vector(rng, n=8):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def close(p, q, tol=1e-12):
    """Every entry of p within tol of q."""
    return bool(np.all(np.abs(np.asarray(p) - np.asarray(q)) <= tol))
