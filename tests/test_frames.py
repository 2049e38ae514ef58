import numpy as np
import pytest

from sevensphere.frames import (CombinedField, FRAME_GENERATORS,
                                frame_eval, frame_eval_all, frame_field,
                                generator_matrix, killing_residual,
                                lie_derivative_metric, plane_generator)
from sevensphere.geometry import central_difference, random_sphere_point
from conftest import (assert_same_bits, bent_assigned, points_last, reference_combined,
                      swirl, unit_vector)

E = np.eye(8)


def component_oracle(mu, z):
    """The seven fields written out component by component; the frozen
    reference for everything the generator matrices produce."""
    z1, z2, z3, z4, z5, z6, z7, z8 = z
    table = {
        1: (-z2, z1, -z4, z3, -z6, z5, -z8, z7),
        2: (-z3, z4, z1, -z2, z7, -z8, -z5, z6),
        3: (-z4, -z3, z2, z1, -z8, -z7, z6, z5),
        4: (-z5, z6, -z7, z8, z1, -z2, z3, -z4),
        5: (-z6, -z5, z8, z7, z2, z1, -z4, -z3),
        6: (-z7, z8, z5, -z6, -z3, z4, z1, -z2),
        7: (-z8, -z7, -z6, -z5, z4, z3, z2, z1),
    }
    return np.array(table[mu])


def test_generators_match_component_table(rng):
    for _ in range(20):
        z = unit_vector(rng)
        for mu in range(1, 8):
            np.testing.assert_allclose(frame_eval(mu, z), component_oracle(mu, z),
                                       atol=1e-15)


def test_frame_eval_basis_cases():
    np.testing.assert_allclose(frame_eval(1, E[0]), E[1], atol=0)
    np.testing.assert_allclose(frame_eval(7, E[0]), E[7], atol=0)


def test_generator_plane_signs():
    J1 = generator_matrix(1)
    np.testing.assert_allclose(J1 @ E[0], E[1], atol=0)
    np.testing.assert_allclose(J1 @ E[1], -E[0], atol=0)


def test_generator_squares_minus_identity():
    for mu in range(1, 8):
        J = generator_matrix(mu)
        np.testing.assert_allclose(J @ J, -np.eye(8), atol=1e-15)


def test_generators_skew_exact():
    for mu in range(1, 8):
        J = generator_matrix(mu)
        np.testing.assert_array_equal(J.T, -J)


def test_generator_clifford_relations():
    for a in range(1, 8):
        for b in range(1, 8):
            Ja, Jb = generator_matrix(a), generator_matrix(b)
            s = Ja.T @ Jb + Jb.T @ Ja
            expect = 2.0 * np.eye(8) if a == b else np.zeros((8, 8))
            np.testing.assert_allclose(s, expect, atol=1e-15)


def test_tangency(rng):
    z = unit_vector(rng)
    for mu in range(1, 8):
        assert abs(np.dot(frame_eval(mu, z), z)) <= 1e-14


def test_pointwise_orthonormality(rng):
    pts = rng.standard_normal((10 ** 4, 8))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    vals = frame_eval_all(pts)
    gram = np.einsum("nmi,nki->nmk", vals, vals)
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_linear_independence_singular_values(rng):
    for _ in range(20):
        z = unit_vector(rng)
        mat = frame_eval_all(z).T  # 8 x 7
        sv = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(sv, np.ones(7), atol=1e-10)


def test_generators_read_only():
    with pytest.raises(ValueError):
        FRAME_GENERATORS[0][0, 0] = 1.0


def test_index_range_rejected():
    with pytest.raises(IndexError):
        generator_matrix(0)
    with pytest.raises(IndexError):
        generator_matrix(8)


def test_plane_generator_validates():
    with pytest.raises(ValueError):
        plane_generator(3, 3)


def test_combined_single_coefficient(rng):
    z = unit_vector(rng)
    field = CombinedField.constant(np.array([1.0, 0, 0, 0, 0, 0, 0]))
    np.testing.assert_allclose(field(z), frame_eval(1, z), atol=1e-15)


def test_combined_zero(rng):
    z = unit_vector(rng)
    field = CombinedField.constant(np.zeros(7))
    np.testing.assert_allclose(field(z), np.zeros(8), atol=0)


def test_combined_state_dependent_at_pole():
    # A^1(z) = z^1, others zero; at e1 this evaluates to U_1(e1) = e2
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    np.testing.assert_allclose(field(E[0]), E[1], atol=1e-15)


def test_combined_field_tangent(rng):
    field = CombinedField(lambda z: np.stack(
        [np.sin(z[..., k % 8]) for k in range(7)], axis=-1))
    for _ in range(50):
        z = unit_vector(rng)
        assert abs(np.dot(field(z), z)) <= 1e-12


@pytest.mark.parametrize("layout", ["C", "points-last"])
@pytest.mark.parametrize("n_points", [1, 8, 1024])
@pytest.mark.parametrize("coeffs", [bent_assigned, swirl], ids=["bent", "swirl"])
def test_combined_field_equals_reference_bitwise(rng, coeffs, n_points, layout):
    """Off the sphere too: the coefficients are read at z/|z|.  One point is
    also taken as a single 8-vector."""
    lay = points_last if layout == "points-last" else np.asarray
    field, reference = CombinedField(coeffs), reference_combined(coeffs)
    z = 1.25 * random_sphere_point(rng, n_points)
    assert_same_bits(field(lay(z)), reference(z))
    if n_points == 1:
        assert_same_bits(field(z[0]), reference(z[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_combined_field_rejects_non_finite_coefficients(rng, bad):
    """One bad coefficient, the last of the batch, is enough."""
    def coeffs(z):
        a = bent_assigned(z)
        a[-1, -1] = bad
        return a

    with pytest.raises(FloatingPointError, match="non-finite"):
        CombinedField(coeffs)(random_sphere_point(rng, 8))


def test_combined_field_takes_an_empty_batch():
    field = CombinedField(bent_assigned)
    assert field(np.empty((0, 8))).shape == (0, 8)


@pytest.mark.parametrize("shape", [(8, 6), (7,), (1, 7), (8, 7, 1)],
                         ids=["8x6", "7", "1x7", "8x7x1"])
def test_combined_field_rejects_coefficients_of_another_shape(rng, shape):
    """(7,) and (1, 7) would broadcast over 8 points without the check."""
    field = CombinedField(lambda z: np.ones(shape))
    with pytest.raises(ValueError, match="shape"):
        field(random_sphere_point(rng, 8))


def test_killing_residual_constant_coefficients(rng):
    field = CombinedField.constant(rng.standard_normal(7))
    z = unit_vector(rng)
    assert np.max(np.abs(killing_residual(field, z))) <= 1e-8


def test_killing_residual_single_frame(rng):
    field = CombinedField.constant(np.array([1.0, 0, 0, 0, 0, 0, 0]))
    z = unit_vector(rng)
    assert np.max(np.abs(killing_residual(field, z))) <= 1e-8


def test_killing_residual_linear_coefficient_matches_hand_assembly(rng):
    # A^1(z) = z^1: the tangentially projected gradient of A^1 is e1 - z1 z,
    # and M_ij = U1^j g_i + U1^i g_j with all other rows zero
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    z = unit_vector(rng)
    m = killing_residual(field, z)
    g = E[0] - z[0] * z
    u1 = frame_eval(1, z)
    expect = np.outer(g, u1) + np.outer(u1, g)
    np.testing.assert_allclose(m, expect, atol=1e-6)
    assert np.max(np.abs(m)) > 1e-3


def test_killing_residual_step_validated(rng):
    field = CombinedField.constant(np.ones(7))
    with pytest.raises(ValueError):
        killing_residual(field, unit_vector(rng), h=1e-2)


def test_lie_derivative_vanishes_for_frame_fields():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        z = unit_vector(rng)
        for mu in range(1, 8):
            m = lie_derivative_metric(frame_field(mu), z)
            worst = max(worst, float(np.max(np.abs(m))))
    assert worst < 1e-6


def test_lie_derivative_additive_combination(rng):
    two = CombinedField.constant(np.array([1.0, 0, 1.0, 0, 0, 0, 0]))
    for _ in range(20):
        z = unit_vector(rng)
        assert np.max(np.abs(lie_derivative_metric(two, z))) < 1e-6


def reference_lie_derivative(V, z, h=1e-5):
    """The single-point formula the batched form keeps, bit for bit."""
    jac = central_difference(lambda y: V(y / np.linalg.norm(y)), z, h)
    proj = np.eye(8) - np.outer(z, z)
    return proj @ (jac + jac.T) @ proj


def test_batched_lie_derivative_equals_single_point_calls_bitwise(rng):
    fields = [frame_field(mu) for mu in range(1, 8)]
    fields.append(CombinedField.constant(rng.standard_normal(7)))
    pts = random_sphere_point(rng, 25)
    for field in fields:
        batch = lie_derivative_metric(field, pts)
        assert_same_bits(batch, np.stack([lie_derivative_metric(field, z) for z in pts]))
        assert_same_bits(batch, np.stack([reference_lie_derivative(field, z) for z in pts]))


def test_batched_lie_derivative_rejects_one_non_tangent_row(rng):
    """V = J_1 z + z_1 z is tangent where z_1 = 0: every row but one."""
    pts = random_sphere_point(rng, 25)
    pts[:, 0] = 0.0
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    pts[17] = E[0]

    def field(z):
        return frame_eval(1, z) + z[..., :1] * z

    lie_derivative_metric(field, np.delete(pts, 17, axis=0))
    with pytest.raises(ValueError, match="not tangent"):
        lie_derivative_metric(field, pts)


def test_lie_derivative_rejects_radial(rng):
    z = unit_vector(rng)
    with pytest.raises(ValueError):
        lie_derivative_metric(lambda x: np.asarray(x), z)


def test_lie_derivative_nonzero_for_non_killing(rng):
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    z = unit_vector(rng)
    assert np.max(np.abs(lie_derivative_metric(field, z))) > 1e-3


def test_non_finite_coefficients_rejected(rng):
    bad = CombinedField(lambda z: np.full(z.shape[:-1] + (7,), np.nan))
    z = unit_vector(rng)
    with pytest.raises(FloatingPointError):
        killing_residual(bad, z)


def test_lie_derivative_rejects_non_finite_field(rng):
    z = unit_vector(rng)

    def broken(x):
        out = frame_eval(1, x)
        return out * np.nan

    with pytest.raises(FloatingPointError):
        lie_derivative_metric(broken, z)


def test_killing_and_lie_tests_agree(rng):
    # both diagnostics should flag the same fields
    killing = CombinedField.constant(np.array([0.5, -1.0, 0, 2.0, 0, 0, 0.25]))
    not_killing = CombinedField(lambda z: np.stack(
        [z[..., 1] ** 2] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    for _ in range(10):
        z = unit_vector(rng)
        assert np.max(np.abs(killing_residual(killing, z))) <= 1e-8
        assert np.max(np.abs(lie_derivative_metric(killing, z))) <= 1e-6
        assert np.max(np.abs(killing_residual(not_killing, z))) > 1e-4
        assert np.max(np.abs(lie_derivative_metric(not_killing, z))) > 1e-4
