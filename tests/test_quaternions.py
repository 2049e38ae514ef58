import numpy as np

from conftest import close
from sevensphere.symplectic import qconj, qmul, random_unit_quaternion

ONE, I, J, K = np.eye(4)


def scaled_tol(x):
    """1e-12 relative to each quaternion's norm, floored at 1e-12."""
    return 1e-12 * np.maximum(1.0, np.linalg.norm(x, axis=-1, keepdims=True))


def test_defining_relations():
    assert close(qmul(I, J), K)
    assert close(qmul(J, K), I)
    assert close(qmul(K, I), J)
    assert close(qmul(I, I), -ONE)
    assert close(qmul(J, J), -ONE)
    assert close(qmul(K, K), -ONE)


def test_identity_element(rng):
    q = random_unit_quaternion(rng, 100)
    assert close(qmul(q, ONE), q)
    assert close(qmul(ONE, q), q)


def test_bilinear_expansion():
    # (1 + i)(1 + j) expanded by hand: 1 + j + i + ij = 1 + i + j + k
    assert close(qmul(ONE + I, ONE + J), [1.0, 1.0, 1.0, 1.0])


def test_noncommutativity_witness():
    assert close(qmul(I, J), -qmul(J, I))


def test_associativity_and_distributivity(rng):
    a, b, c = rng.standard_normal((3, 200, 4))
    lhs = qmul(qmul(a, b), c)
    assert np.all(np.abs(lhs - qmul(a, qmul(b, c))) <= scaled_tol(lhs))
    d1 = qmul(a, b + c)
    assert np.all(np.abs(d1 - (qmul(a, b) + qmul(a, c))) <= scaled_tol(d1))


def test_conjugation():
    assert close(qconj(I), -I)
    assert close(qconj(ONE), ONE)
    q = np.array([0.3, -1.2, 0.7, 2.0])
    assert close(qconj(qconj(q)), q)


def test_conjugate_of_product_reverses(rng):
    a, b = rng.standard_normal((2, 100, 4))
    lhs = qconj(qmul(a, b))
    assert np.all(np.abs(lhs - qmul(qconj(b), qconj(a))) <= scaled_tol(lhs))


def test_conj_times_self_is_norm_squared(rng):
    q = rng.standard_normal((100, 4))
    norm_sq = np.sum(q * q, axis=-1)
    expect = np.zeros_like(q)
    expect[:, 0] = norm_sq
    tol = 1e-12 * np.maximum(1.0, norm_sq)[:, None]
    assert np.all(np.abs(qmul(qconj(q), q) - expect) <= tol)


def test_unit_sampling_normalized(rng):
    q = random_unit_quaternion(rng, 50)
    assert q.shape == (50, 4)
    assert np.all(np.abs(np.linalg.norm(q, axis=-1) - 1.0) <= 1e-12)
    assert random_unit_quaternion(rng).shape == (4,)
    assert random_unit_quaternion(rng, (2, 3)).shape == (2, 3, 4)


def test_unit_sampling_mean_clt():
    n = 10 ** 5
    mean = random_unit_quaternion(np.random.default_rng(7), n).mean(axis=0)
    assert np.all(np.abs(mean) < 4.0 / np.sqrt(n))


def test_sampling_deterministic():
    q1 = random_unit_quaternion(np.random.default_rng(123), 10)
    q2 = random_unit_quaternion(np.random.default_rng(123), 10)
    np.testing.assert_array_equal(q1, q2)


def test_left_multiplication_is_isometry(rng):
    q = random_unit_quaternion(rng, 100)
    p = rng.standard_normal((100, 4))
    norm = np.linalg.norm(p, axis=-1)
    assert np.all(np.abs(np.linalg.norm(qmul(q, p), axis=-1) - norm)
                  <= 1e-12 * np.maximum(1.0, norm))
