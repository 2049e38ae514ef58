import numpy as np
import pytest

from sevensphere.flows import (IntegratedFlow, NPointMotion, RotationFlow,
                               continuity_modulus, isometry_check)
from sevensphere.frames import CombinedField
from sevensphere.geometry import random_sphere_point
from sevensphere.integrators import (NoisePath, SdeProblem, sample_brownian,
                                     single_frame_problem)
from sevensphere.cli import heun_refinement_residuals

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
    for m in (g1.factors + g2.factors):
        np.testing.assert_allclose(m.T @ m, np.eye(8), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_isometry_check_exact_flow(rng):
    g1, g2 = exact_triple()
    motion = NPointMotion(random_sphere_point(rng, 20))
    assert isometry_check(g1.compose(g2), motion) < 1e-12


def test_isometry_check_identity(rng):
    motion = NPointMotion(random_sphere_point(rng, 5))
    assert isometry_check(RotationFlow.identity(), motion) == 0.0


def test_isometry_check_needs_two_points():
    with pytest.raises(ValueError):
        isometry_check(RotationFlow.identity(), NPointMotion(E[0]))


def test_non_killing_flow_distorts(rng):
    # coefficients A^1 = z^1 break the Killing condition; distances drift
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    problem = SdeProblem((field,), E[0], channel_mode="shared")
    noise = sample_brownian(200, 0.01, 1, seed=23)
    flow = IntegratedFlow(problem, noise)
    motion = NPointMotion(random_sphere_point(rng, 10))
    assert isometry_check(flow, motion) > 1e-3


def test_continuity_modulus_identity(rng):
    report = continuity_modulus(RotationFlow.identity(), random_sphere_point(rng, 40))
    assert report.max_ratio == pytest.approx(1.0, abs=1e-13)
    assert report.min_ratio == pytest.approx(1.0, abs=1e-13)
    assert report.n_pairs > 0


def test_continuity_modulus_exact_rotation(rng):
    g1, g2 = exact_triple()
    report = continuity_modulus(g1.compose(g2), random_sphere_point(rng, 40))
    assert abs(report.max_ratio - 1.0) < 1e-10


def test_continuity_modulus_heun_near_one(rng):
    problem = single_frame_problem(3, E[0])
    noise = sample_brownian(50, 0.005, 1, seed=29)
    report = continuity_modulus(IntegratedFlow(problem, noise),
                                random_sphere_point(rng, 30))
    assert abs(report.max_ratio - 1.0) < 1e-2


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
    problem = SdeProblem((field,), E[0], channel_mode="shared")
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


def test_flow_jacobian_conditioning(rng):
    from sevensphere.flows import flow_jacobian_conditioning

    g1, g2 = exact_triple()
    whole = g1.compose(g2)
    z = random_sphere_point(rng)
    sv = flow_jacobian_conditioning(whole, z)
    assert len(sv) == 7
    np.testing.assert_allclose(sv, np.ones(7), atol=1e-6)
    # a heun flow of a smooth non-isometric field stays well conditioned
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    problem = SdeProblem((field,), E[0], channel_mode="shared")
    flow = IntegratedFlow(problem, sample_brownian(40, 0.01, 1, seed=77))
    sv = flow_jacobian_conditioning(flow, z)
    assert sv[0] / sv[-1] < 3.0


def test_flow_from_file_loaded_increments(tmp_path):
    # user-supplied increment streams drive flows exactly like sampled ones
    from sevensphere.integrators import load_noise_path, save_noise_path

    noise = sample_brownian(30, 0.01, 1, seed=41)
    fname = tmp_path / "increments.csv"
    save_noise_path(noise, fname)
    problem = single_frame_problem(5, E[0])
    direct = IntegratedFlow(problem, noise)
    loaded = IntegratedFlow(problem, load_noise_path(fname))
    pts = random_sphere_point(np.random.default_rng(1), 10)
    np.testing.assert_array_equal(direct.apply(pts), loaded.apply(pts))


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
