import numpy as np
import pytest

from sevensphere.flows import (ROTATION_BLOCK, IntegratedFlow, RotationFlow,
                               heun_refinement_residuals, isometry_check)
from sevensphere.frames import CombinedField
from sevensphere.geometry import random_sphere_point
from sevensphere.integrators import (NoisePath, SdeProblem, frame_rotation_matrix,
                                     sample_brownian, single_frame_problem)
from conftest import bent_assigned

E = np.eye(8)


def exact_triple(seed=303, n_steps=60, dt=0.01):
    noise = sample_brownian(n_steps, dt, 7, seed)
    cut = n_steps // 3
    g1 = RotationFlow.from_noise(np.eye(7), NoisePath(dt, noise.increments[:cut]))
    g2 = RotationFlow.from_noise(np.eye(7), NoisePath(dt, noise.increments[cut:]),
                                 s=g1.t)
    return g1, g2


def test_compose_with_identity(rng):
    g1, _ = exact_triple()
    ident = RotationFlow.identity(s=g1.t)
    pts = random_sphere_point(rng, 32)
    composed = g1.compose(ident)
    np.testing.assert_array_equal(composed.apply(pts), g1.apply(pts))


def test_exact_cocycle_residual(rng):
    g1, g2 = exact_triple()
    whole = g1.compose(g2)
    pts = random_sphere_point(rng, 100)
    via_parts = g2.apply(g1.apply(pts))
    via_dense = pts @ whole.as_matrix().T  # independent evaluation order
    assert np.max(np.linalg.norm(via_parts - via_dense, axis=-1)) < 1e-12


def test_exact_identity_property(rng):
    ident = RotationFlow.identity()
    pts = random_sphere_point(rng, 10)
    np.testing.assert_array_equal(ident.apply(pts), pts)


def test_exact_inverse_roundtrip(rng):
    g1, g2 = exact_triple()
    whole = g1.compose(g2)
    inv = whole.invert()
    assert inv.s == whole.t and inv.t == whole.s
    pts = random_sphere_point(rng, 1000)
    back = inv.apply(whole.apply(pts))
    assert np.max(np.linalg.norm(back - pts, axis=-1)) < 1e-12


def test_single_field_inverse_is_negated_angle():
    dt = 0.01
    noise = sample_brownian(40, dt, 1, seed=17)
    coeffs = np.zeros((1, 7))
    coeffs[0, 0] = 1.0
    g = RotationFlow.from_noise(coeffs, noise)
    total = float(noise.increments.sum())
    back = RotationFlow.from_noise(coeffs, NoisePath(dt, -noise.increments[::-1]))
    np.testing.assert_allclose(g.invert().as_matrix(), back.as_matrix(), atol=1e-13)
    # exp(w J)^{-1} = exp(-w J): the one-factor case
    one = RotationFlow.from_noise(coeffs, NoisePath(1.0, np.array([[total]])))
    neg = RotationFlow.from_noise(coeffs, NoisePath(1.0, np.array([[-total]])))
    np.testing.assert_allclose(one.invert().as_matrix(), neg.as_matrix(), atol=1e-13)


def test_compose_endpoint_mismatch_rejected():
    g1, g2 = exact_triple()
    with pytest.raises(ValueError):
        g2.compose(g1)


def test_factors_orthogonal_unit_determinant():
    g1, g2 = exact_triple()
    for m in (g1.as_matrix(), g2.as_matrix(), g1.compose(g2).as_matrix()):
        np.testing.assert_allclose(m.T @ m, np.eye(8), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_isometry_check_exact_flow(rng):
    g1, g2 = exact_triple()
    assert isometry_check(g1.compose(g2), random_sphere_point(rng, 20)) < 1e-12


def test_isometry_check_identity(rng):
    assert isometry_check(RotationFlow.identity(), random_sphere_point(rng, 5)) == 0.0


def test_isometry_check_needs_two_points():
    with pytest.raises(ValueError):
        isometry_check(RotationFlow.identity(), E[0])


def test_non_killing_flow_distorts(rng):
    # coefficients A^1 = z^1 break the Killing condition; distances drift
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    problem = SdeProblem((field,), E[0])
    noise = sample_brownian(200, 0.01, 1, seed=23)
    flow = IntegratedFlow(problem, noise)
    assert isometry_check(flow, random_sphere_point(rng, 10)) > 1e-3


@pytest.mark.parametrize("n_steps", [1, 2, 7, 1000])
def test_from_noise_equals_sequential_product(n_steps):
    # the pairwise reduction against the step-by-step product of its factors
    noise = sample_brownian(n_steps, 1e-3, 7, seed=n_steps)
    coeffs = np.random.default_rng(n_steps).standard_normal((7, 7))
    expect = np.eye(8)
    for m in frame_rotation_matrix(noise.increments @ coeffs):
        expect = m @ expect
    flow = RotationFlow.from_noise(coeffs, noise, s=0.5)
    assert (flow.s, flow.t) == (0.5, pytest.approx(0.5 + n_steps * 1e-3))
    np.testing.assert_allclose(flow.as_matrix(), expect, rtol=0, atol=1e-13)


def unblocked_pairwise_product(coeffs, increments):
    """All steps' factors at once, reduced by the same pairwise tree."""
    m = frame_rotation_matrix(increments @ coeffs)
    m = m if len(m) else np.eye(8)[None]
    while len(m) > 1:
        if len(m) % 2:
            m = np.concatenate([m, np.eye(8)[None]])
        m = m[1::2] @ m[0::2]
    return m[0]


@pytest.mark.parametrize("n_steps", [0, 1, ROTATION_BLOCK - 1, ROTATION_BLOCK,
                                     ROTATION_BLOCK + 1, 2 * ROTATION_BLOCK + 3, 5000])
def test_blocked_from_noise_equals_unblocked_product_bitwise(n_steps):
    # a last block of one step included: its row of increments @ coeffs would
    # take other bits as a one-row product of its own
    rng = np.random.default_rng(n_steps)
    noise = NoisePath(1e-3, rng.normal(0.0, np.sqrt(1e-3), (n_steps, 7)))
    for coeffs in (np.eye(7), rng.standard_normal((7, 7))):
        np.testing.assert_array_equal(RotationFlow.from_noise(coeffs, noise).as_matrix(),
                                      unblocked_pairwise_product(coeffs, noise.increments))


def test_from_noise_without_steps_is_identity():
    flow = RotationFlow.from_noise(np.eye(7), NoisePath(0.01, np.zeros((0, 7))))
    np.testing.assert_array_equal(flow.as_matrix(), np.eye(8))
    assert flow.s == flow.t == 0.0


def test_heun_cocycle_residual_refines(rng):
    from sevensphere.integrators import brownian_problem

    pts = random_sphere_point(rng, 8)
    residuals, _ = heun_refinement_residuals(brownian_problem(E[0]), pts, seed=404)
    assert all(r > 0 for r in residuals)
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_heun_roundtrip_refines_for_state_dependent_field(rng):
    pts = random_sphere_point(rng, 8)
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    problem = SdeProblem((field,), E[0])
    _, roundtrips = heun_refinement_residuals(problem, pts, seed=404)
    assert all(r > 1e-6 for r in roundtrips)
    assert all(a > b for a, b in zip(roundtrips, roundtrips[1:]))


def test_heun_frame_roundtrip_is_exact(rng):
    # frame-generated steps invert exactly: the quadratic defect of the step
    # map is a scalar multiple of the state and renormalizes away
    from sevensphere.integrators import brownian_problem

    pts = random_sphere_point(rng, 16)
    noise = sample_brownian(64, 0.01, 7, seed=515)
    flow = IntegratedFlow(brownian_problem(E[0]), noise)
    back = flow.invert().apply(flow.apply(pts))
    assert np.max(np.linalg.norm(back - pts, axis=-1)) < 1e-12


def test_construction_rejects_noise_of_another_channel_count():
    """Three noise channels for one state-dependent field: the steps' einsum
    summed them, and with no steps the flow applied as the identity."""
    problem = SdeProblem((CombinedField(bent_assigned),), E[0])
    for n_steps in (4, 0):
        noise = NoisePath(0.01, np.ones((n_steps, 3)))
        with pytest.raises(ValueError, match=r"noise has 3 channel\(s\), the problem 1"):
            IntegratedFlow(problem, noise)


def test_construction_rejects_noise_without_steps():
    with pytest.raises(ValueError, match="at least one step"):
        IntegratedFlow(single_frame_problem(1, E[0]), NoisePath(0.01, np.zeros((0, 1))))


def test_one_point_motion_matches_ensemble_mean():
    # the flow's one-point motion is the process itself: mean contraction
    n = 4000
    t = 0.2
    dt = 1e-3
    z0 = E[0]
    acc = np.zeros(8)
    for k in range(n):
        noise = sample_brownian(int(t / dt), dt, 7, seed=606, path_index=k)
        flow = RotationFlow.from_noise(np.eye(7), noise)
        acc += flow.apply(z0)
    mean = acc / n
    assert abs(mean[0] - np.exp(-3.5 * t)) < 3.0 * 0.4 / np.sqrt(n) + 1e-3
