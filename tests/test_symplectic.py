import numpy as np
import pytest

from conftest import close
from sevensphere.symplectic import (bullet_action, is_member, membership_residuals,
                                    project_bullet, qconj, qmul, random_sp_matrix,
                                    random_unit_quaternion, real_form, star_action)

ONE, I, J, K = np.eye(4)
IDENTITY = real_form(1.0, 0.0)


def matrix(a, b, c, d):
    return np.array([[a, b], [c, d]], dtype=float)


def star_invariants(Q):
    """conj(b) a b, conj(b) d, conj(d) c d, Re a and Re c: fixed by the star
    action, so functions on the quotient Sp(2)/star."""
    a, b, c, d = Q[..., 0, 0, :], Q[..., 0, 1, :], Q[..., 1, 0, :], Q[..., 1, 1, :]
    return np.concatenate([qmul(qmul(qconj(b), a), b), qmul(qconj(b), d),
                           qmul(qmul(qconj(d), c), d), a[..., :1], c[..., :1]],
                          axis=-1)


def test_identity_is_member():
    column, orthogonality = membership_residuals(IDENTITY)
    assert is_member(IDENTITY)
    assert column == 0.0
    assert orthogonality == 0.0
    np.testing.assert_array_equal(IDENTITY, matrix(ONE, 0 * ONE, 0 * ONE, ONE))


def test_hand_built_member():
    # a = d = 1/sqrt(2), b = 1/sqrt(2), c = -1/sqrt(2): columns unit,
    # conj(b) a + conj(d) c = 1/2 - 1/2 = 0
    r = 1.0 / np.sqrt(2.0)
    assert is_member(matrix(r * ONE, r * ONE, -r * ONE, r * ONE))


def test_all_ones_not_member():
    Q = matrix(ONE, ONE, ONE, ONE)
    column, _ = membership_residuals(Q)
    assert not is_member(Q)
    assert column == pytest.approx(1.0)


def test_bullet_on_identity():
    assert close(bullet_action(J, IDENTITY), matrix(ONE, 0 * ONE, 0 * ONE, -J))


def test_bullet_identity_quaternion(rng):
    Q = random_sp_matrix(rng, 1000)
    np.testing.assert_array_equal(bullet_action(ONE, Q), Q)


def test_star_on_identity():
    assert close(star_action(I, IDENTITY), matrix(ONE, 0 * ONE, 0 * ONE, I))


def test_star_identity_quaternion(rng):
    Q = random_sp_matrix(rng, 1000)
    np.testing.assert_array_equal(star_action(ONE, Q), Q)


def test_actions_reject_non_unit(rng):
    for action in (bullet_action, star_action):
        for bad in (2.0 * ONE, 0.5 * ONE, np.full(4, np.nan)):
            with pytest.raises(ValueError):
                action(bad, IDENTITY)
            # one bad quaternion in a batch rejects the whole call
            q = random_unit_quaternion(rng, 10)
            q[3] = bad
            with pytest.raises(ValueError):
                action(q, random_sp_matrix(rng, 10))


def test_group_law_left_actions(rng):
    # iterating the actions composes as q2 . (q1 . Q) = (q2 q1) . Q:
    # the second column picks up conj(q1) conj(q2) = conj(q2 q1)
    q1, q2 = random_unit_quaternion(rng, (2, 1000))
    Q = random_sp_matrix(rng, 1000)
    q21 = qmul(q2, q1)
    q21 /= np.linalg.norm(q21, axis=-1, keepdims=True)
    for action in (bullet_action, star_action):
        assert close(action(q2, action(q1, Q)), action(q21, Q))


def test_actions_preserve_membership(rng):
    q = random_unit_quaternion(rng, 1000)
    Q = random_sp_matrix(rng, 1000)
    assert np.all(is_member(Q))
    for action in (bullet_action, star_action):
        column, orthogonality = membership_residuals(action(q, Q))
        assert column.shape == orthogonality.shape == (1000,)
        assert np.all(column < 1e-9)
        assert np.all(orthogonality < 1e-9)


def test_batched_actions_match_single_pairs(rng):
    q = random_unit_quaternion(rng, 20)
    Q = random_sp_matrix(rng, 20)
    for action in (bullet_action, star_action):
        batch = action(q, Q)
        for i in range(20):
            np.testing.assert_array_equal(batch[i], action(q[i], Q[i]))
    # one quaternion acts on a whole batch, and a batch on one matrix
    np.testing.assert_array_equal(star_action(q[0], Q)[5], star_action(q[0], Q[5]))
    np.testing.assert_array_equal(bullet_action(q, Q[0])[5], bullet_action(q[5], Q[0]))


def test_star_on_real_form(rng):
    # q * [[alpha, beta], [-beta, alpha]] = [[alpha, q beta], [-beta, q alpha]]
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    alpha, beta = np.cos(theta)[:, None], np.sin(theta)[:, None]
    q = random_unit_quaternion(rng, 1000)
    out = star_action(q, real_form(np.cos(theta), np.sin(theta)))
    assert close(out, np.stack([np.stack([alpha * ONE, q * beta], axis=1),
                                np.stack([-beta * ONE, q * alpha], axis=1)], axis=1))


def test_projection_of_identity():
    np.testing.assert_allclose(project_bullet(IDENTITY), np.eye(8)[0])


def test_projection_invariant_under_bullet(rng):
    Q = random_sp_matrix(rng, 1000)
    q = random_unit_quaternion(rng, 1000)
    np.testing.assert_array_equal(project_bullet(Q), project_bullet(bullet_action(q, Q)))


def test_projection_unit_norm(rng):
    z = project_bullet(random_sp_matrix(rng, 1000))
    assert z.shape == (1000, 8)
    assert np.all(np.abs(np.linalg.norm(z, axis=-1) - 1.0) <= 1e-12)


def test_projection_rejects_non_member(rng):
    with pytest.raises(ValueError):
        project_bullet(matrix(ONE, ONE, ONE, ONE))
    Q = random_sp_matrix(rng, 10)
    Q[4] = matrix(ONE, ONE, ONE, ONE)
    with pytest.raises(ValueError):
        project_bullet(Q)


def test_pair_interleaving_roundtrip(rng):
    # layout: (a0, c0, a1, c1, a2, c2, a3, c3); the first column reads back exactly
    Q = random_sp_matrix(rng, 10)
    z = project_bullet(Q)
    np.testing.assert_array_equal(z[:, ::2], Q[:, 0, 0])
    np.testing.assert_array_equal(z[:, 1::2], Q[:, 1, 0])


def test_fiber_coincidence_specific():
    # on real-form matrices conj(q) star R = q bullet R
    R = real_form(0.0, 1.0)
    assert close(qconj(I), -I)
    assert close(star_action(-I, R), bullet_action(I, R))


def test_fiber_coincidence_identity():
    np.testing.assert_array_equal(star_action(ONE, IDENTITY), bullet_action(ONE, IDENTITY))


def test_fiber_coincidence_random(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    R = real_form(np.cos(theta), np.sin(theta))
    q = random_unit_quaternion(rng, 1000)
    assert close(star_action(qconj(q), R), bullet_action(q, R))


def test_real_form_embeds_as_member(rng):
    theta = rng.uniform(0.0, 2.0 * np.pi, 1000)
    assert np.all(is_member(real_form(np.cos(theta), np.sin(theta))))


def test_real_form_validates_norm():
    for alpha, beta in ((1.0, 1.0), (np.nan, np.nan), (1.0, np.nan)):
        with pytest.raises(ValueError):
            real_form(alpha, beta)


def test_star_quotient_invariants_separate_the_actions():
    rng = np.random.default_rng(1974)
    n = 10 ** 4
    q = random_unit_quaternion(rng, n)
    Q = random_sp_matrix(rng, n)
    before = star_invariants(Q)
    star_moves = np.max(np.abs(star_invariants(star_action(q, Q)) - before), axis=-1)
    bullet_moves = np.max(np.abs(star_invariants(bullet_action(q, Q)) - before), axis=-1)
    assert np.max(star_moves) <= 1e-12
    # the bullet action moves every sampled pair off its star-invariants:
    # the two actions have different orbits, hence different quotients
    assert np.min(bullet_moves) > 1e-6
    assert np.median(bullet_moves) > 0.1
