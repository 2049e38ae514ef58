import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevensphere.density import GridSpec, entropy, estimate_density
from sevensphere.exotic import (BumpProfile, ConjugatedFlow, Deformation,
                                ExoticMap, RegularityError, ScalingFunction,
                                circle_images, conjugation_gaps, entropy_on_surface,
                                pullback_metric, pushforward_field,
                                surface_patch_jacobian, write_circles_csv)
from sevensphere.flows import RotationFlow
from sevensphere.frames import frame_eval_all, frame_field
from sevensphere.geometry import (central_difference, gauss_legendre,
                                  geodesic_distance, random_cap_point,
                                  random_sphere_point, sphere_volume)
from sevensphere.integrators import NoisePath, sample_brownian

E = np.eye(8)


def bump_map(eps=0.2):
    return ExoticMap(Deformation(eps))


def circle12(n=181):
    thetas = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.zeros((n, 8))
    pts[:, 0] = np.cos(thetas)
    pts[:, 1] = np.sin(thetas)
    return thetas, pts


# --------------------------------------------------------------------------
# deformation and the map itself
# --------------------------------------------------------------------------

def test_smooth_transition_derivative_is_analytic():
    from sevensphere.exotic import _smooth_transition as ramp
    from sevensphere.exotic import _smooth_transition_deriv

    t = np.linspace(0.02, 0.98, 97)
    h = 1e-3
    five_point = (ramp(t - 2 * h) - 8 * ramp(t - h) + 8 * ramp(t + h)
                  - ramp(t + 2 * h)) / (12 * h)
    np.testing.assert_allclose(_smooth_transition_deriv(t), five_point, rtol=0, atol=1e-8)
    outside = np.array([-1.0, -1e-3, 0.0, 1.0, 1.0 + 1e-3, 2.0])
    assert np.all(_smooth_transition_deriv(outside) == 0.0)


def test_deformation_origin_rejected():
    h = bump_map()
    with pytest.raises(ValueError):
        h.inverse(np.zeros(8))
    with pytest.raises(ValueError):
        pullback_metric(np.zeros((2, 8)))


def test_deformation_strength_validated():
    with pytest.raises(ValueError):
        Deformation(0.5)


@pytest.mark.parametrize("scale", [ScalingFunction(1.0, 0.1), Deformation(0.2)],
                         ids=["scaling", "deformation"])
def test_scaling_rejects_nan_point(scale):
    # the ramp carries NaN through, so the positivity check sees it
    z = E[2].copy()
    z[4] = np.nan
    with pytest.raises(ValueError):
        scale(z)
    with pytest.raises(ValueError):
        scale(np.stack([E[2], z]))


def test_identity_map_is_identity(rng):
    h = ExoticMap()
    assert h.is_identity
    pts = random_sphere_point(rng, 100)
    np.testing.assert_allclose(h.forward(pts), pts, atol=1e-15)
    np.testing.assert_allclose(h.inverse(pts), pts, atol=1e-15)


def test_forward_fixes_plane_circle():
    h = bump_map()
    _, pts = circle12()
    np.testing.assert_allclose(h.forward(pts), pts, atol=1e-12)


def test_roundtrip_bump(rng):
    h = bump_map()
    pts = random_sphere_point(rng, 1000)
    np.testing.assert_allclose(h.inverse(h.forward(pts)), pts, atol=1e-9)


def test_bijectivity_both_ways(rng):
    h = bump_map()
    pts = random_sphere_point(rng, 10 ** 4)
    np.testing.assert_allclose(h.inverse(h.forward(pts)), pts, atol=1e-9)
    surface = h.forward(random_sphere_point(rng, 10 ** 4))
    np.testing.assert_allclose(h.forward(h.inverse(surface)), surface, atol=1e-9)


def test_inverse_unit_norm(rng):
    h = bump_map()
    gam = h.forward(random_sphere_point(rng, 200))
    norms = np.linalg.norm(h.inverse(gam), axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-14)


def test_inverse_of_identity_deformation_normalizes(rng):
    h = ExoticMap()
    x = random_sphere_point(rng) * 2.5
    np.testing.assert_allclose(h.inverse(x), x / np.linalg.norm(x), atol=1e-15)


def test_scaling_recovery_from_deformation(rng):
    # the radius function evaluated at u = h^{-1}(gamma) equals |gamma| s(u)
    scaling = ScalingFunction(base=1.0, eps=0.1, profile=BumpProfile())
    h = ExoticMap(Deformation(0.2), scaling)
    gamma = h.forward(random_sphere_point(rng, 50))
    u = h.inverse(gamma)
    np.testing.assert_allclose(scaling(u), np.linalg.norm(gamma, axis=-1) * h.deformation(u),
                               rtol=0.0, atol=1e-10)


def test_scaling_positive_enforced():
    with pytest.raises(ValueError):
        ScalingFunction(base=-1.0)(E[0])


# --------------------------------------------------------------------------
# pushforward of fields and flows
# --------------------------------------------------------------------------

def test_pushforward_identity_map(rng):
    h = ExoticMap()
    push = pushforward_field(frame_field(1), h)
    for _ in range(20):
        z = random_sphere_point(rng)
        np.testing.assert_allclose(push(z), frame_field(1)(z), atol=1e-12)


def test_pushforward_on_fixed_circle_matches_field():
    # the bump vanishes on a neighbourhood of the circle, where h is the
    # identity map, so the induced field agrees with the original one there
    h = bump_map()
    push = pushforward_field(frame_field(1), h)
    _, pts = circle12(37)
    for z in pts:
        np.testing.assert_allclose(push(z), frame_field(1)(z), atol=1e-9)


def test_pushforward_chain_rule_oracle(rng):
    # directional finite difference of h along the field's rotation curve
    h = ExoticMap(Deformation(0.2),
                  ScalingFunction(base=1.0, eps=0.1, profile=BumpProfile()))
    fld = frame_field(3)
    push = pushforward_field(fld, h)
    from sevensphere.integrators import frame_rotation_apply
    step = 1e-6
    coeff = np.zeros(7)
    coeff[2] = 1.0
    for _ in range(20):
        z = random_sphere_point(rng)
        gamma = h.forward(z)
        zp = frame_rotation_apply(step * coeff, z)
        zm = frame_rotation_apply(-step * coeff, z)
        fd = (h.forward(zp) - h.forward(zm)) / (2 * step)
        np.testing.assert_allclose(push(gamma), fd, atol=1e-6)


def test_pushforward_refuses_kinked_scaling():
    h = ExoticMap(Deformation(0.2),
                  ScalingFunction(base=1.0, eps=0.1,
                                  profile=BumpProfile(kind="kink")))
    with pytest.raises(RegularityError):
        pushforward_field(frame_field(1), h)


def test_surface_entropy_refuses_kinked_scaling(rng):
    # the bin volumes take the chain-rule patch derivative, which needs C1
    h = ExoticMap(Deformation(0.2),
                  ScalingFunction(base=1.0, eps=0.1,
                                  profile=BumpProfile(kind="kink")))
    with pytest.raises(RegularityError):
        entropy_on_surface(h.forward(random_sphere_point(rng, 100)), h, GridSpec.uniform(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_surface_entropy_nonfinite_sample_rejected(rng, bad):
    h = bump_map()
    gammas = h.forward(random_sphere_point(rng, 3))
    gammas[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        entropy_on_surface(gammas, h, GridSpec.uniform(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["inverse", "surface_point"])
def test_map_rejects_nonfinite_point(rng, route, bad):
    h = bump_map()
    gammas = h.forward(random_sphere_point(rng, 3))
    gammas[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        getattr(h, route)(gammas)
    with pytest.raises(ValueError, match="finite"):
        getattr(h, route)(gammas[1])


def test_conjugated_flow_identity_map(rng):
    h = ExoticMap()
    noise = sample_brownian(30, 0.01, 7, seed=3)
    flow = RotationFlow.from_noise(np.eye(7), noise)
    conj = ConjugatedFlow(flow, h)
    pts = random_sphere_point(rng, 10)
    np.testing.assert_allclose(conj.apply(pts), flow.apply(pts), atol=1e-12)


def test_conjugation_preserves_cocycle(rng):
    h = bump_map()
    noise = sample_brownian(40, 0.01, 7, seed=5)
    cut = 17
    g1 = RotationFlow.from_noise(np.eye(7), NoisePath(0.01, noise.increments[:cut]))
    g2 = RotationFlow.from_noise(np.eye(7), NoisePath(0.01, noise.increments[cut:]),
                                 s=g1.t)
    c1 = ConjugatedFlow(g1, h)
    c2 = ConjugatedFlow(g2, h)
    whole = c1.compose(c2)
    pts = h.forward(random_sphere_point(rng, 50))
    gap = np.max(np.linalg.norm(c2.apply(c1.apply(pts)) - whole.apply(pts), axis=-1))
    assert gap < 1e-9


def test_conjugation_inverse_roundtrip(rng):
    h = bump_map()
    noise = sample_brownian(25, 0.01, 7, seed=6)
    conj = ConjugatedFlow(RotationFlow.from_noise(np.eye(7), noise), h)
    pts = h.forward(random_sphere_point(rng, 30))
    back = conj.invert().apply(conj.apply(pts))
    assert np.max(np.linalg.norm(back - pts, axis=-1)) < 1e-9


def test_pushforward_sde_vs_conjugated_flow_refines():
    h = bump_map()
    gaps = conjugation_gaps(h, seed=909)
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_conjugation_gaps_regression_oracle():
    # exotic_summary.csv of exotic-compare at seed 1 (n_paths 10000,
    # grid_bins 3), written when each noise path was stepped point by point
    gaps = conjugation_gaps(bump_map(), seed=1)
    np.testing.assert_allclose(
        gaps, [0.0042624451145609303, 0.0022413836993868128, 0.00065204606359104832],
        rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------
# pullback metric
# --------------------------------------------------------------------------

def test_pullback_identity_is_tangent_projector(rng):
    h = ExoticMap()
    z = random_sphere_point(rng)
    g = pullback_metric(z)
    np.testing.assert_allclose(g, np.eye(8) - np.outer(z, z), atol=1e-12)


def test_pullback_symmetric_psd(rng):
    h = bump_map()
    for _ in range(1000):
        gamma = h.forward(random_sphere_point(rng))
        g = pullback_metric(gamma)
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-10


def test_pullback_kills_ray_direction(rng):
    h = bump_map()
    gamma = h.forward(random_sphere_point(rng))
    g = pullback_metric(gamma)
    np.testing.assert_allclose(g @ gamma, np.zeros(8), atol=1e-10)


def test_fixed_circle_length_is_two_pi():
    h = bump_map()
    x, w = gauss_legendre(64, 0.0, 2.0 * np.pi)
    total = 0.0
    for theta, weight in zip(x, w):
        gamma = np.zeros(8)
        gamma[0] = np.cos(theta)
        gamma[1] = np.sin(theta)
        tangent = np.zeros(8)
        tangent[0] = -np.sin(theta)
        tangent[1] = np.cos(theta)
        g = pullback_metric(gamma)
        total += weight * np.sqrt(tangent @ g @ tangent)
    assert total == pytest.approx(2.0 * np.pi, abs=1e-6)


def test_map_is_isometry_onto_pullback_metric(rng):
    # <dh a, dh b> in the pulled-back metric equals <a, b> for tangent a, b:
    # the inverse map was built to be an isometry onto the round sphere
    h = ExoticMap(Deformation(0.2),
                  ScalingFunction(base=1.0, eps=0.1, profile=BumpProfile()))
    for _ in range(20):
        z = random_sphere_point(rng)
        a = frame_field(1)(z)
        b = frame_field(3)(z)
        jac = h.jacobian(z)
        g = pullback_metric(h.forward(z))
        va, vb = jac @ a, jac @ b
        assert va @ g @ vb == pytest.approx(a @ b, abs=1e-8)
        assert va @ g @ va == pytest.approx(a @ a, abs=1e-8)


def test_surface_patch_matches_pullback_reference(rng):
    # sqrt(det M^T G' M) must reproduce the chart volume density: the inverse
    # map is an isometry from the pulled-back surface onto the round sphere
    from sevensphere.geometry import volume_element

    h = bump_map()
    for _ in range(10):
        phi = np.empty(7)
        phi[:6] = rng.uniform(0.5, np.pi - 0.5, 6)
        phi[6] = rng.uniform(0.5, 2 * np.pi - 0.5)
        from sevensphere.geometry import to_cartesian

        m = surface_patch_jacobian(h, phi)
        g = pullback_metric(h.forward(to_cartesian(phi)))
        dens = np.sqrt(max(np.linalg.det(m.T @ g @ m), 0.0))
        assert dens == pytest.approx(volume_element(phi), rel=1e-5)


# --------------------------------------------------------------------------
# entropy transport
# --------------------------------------------------------------------------

def test_surface_entropy_identity_map_matches_sphere(rng):
    h = ExoticMap()
    samples = random_sphere_point(rng, 20000)
    grid = GridSpec.uniform(3)
    sphere = entropy(estimate_density(samples, grid))
    surface = entropy_on_surface(samples, h, grid)
    assert surface.S == pytest.approx(sphere.S, abs=1e-6)


def test_surface_entropy_uniform(rng):
    h = bump_map()
    samples = random_sphere_point(rng, 10 ** 5)
    surface = entropy_on_surface(h.forward(samples), h, GridSpec.uniform(3))
    assert abs(surface.S + surface.mm_correction - np.log(sphere_volume())) < 0.1


def test_surface_entropy_paired_with_sphere(rng):
    h = bump_map()
    samples = random_cap_point(rng, E[0], 0.8, 30000)
    grid = GridSpec.uniform(3)
    sphere = entropy(estimate_density(samples, grid))
    surface = entropy_on_surface(h.forward(samples), h, grid)
    band = 2.0 * max(np.hypot(sphere.stderr, surface.stderr), 1e-3)
    assert abs(surface.S - sphere.S) <= band


def test_surface_bin_volumes_match_per_bin_loop(rng, monkeypatch):
    from sevensphere import exotic
    from sevensphere.density import ANGLE_SPANS, _histogram
    from sevensphere.geometry import to_cartesian, volume_element

    h = ExoticMap(Deformation(0.2),
                  ScalingFunction(base=1.0, eps=0.1, profile=BumpProfile()))
    gammas = h.forward(random_cap_point(rng, E[0], 0.8, 5000))
    grid = GridSpec.uniform(3)
    seen = {}
    plugin_entropy = exotic.plugin_entropy

    def spy(counts, densities, n, t=None):
        seen.update(counts=counts, densities=densities, n=n)
        return plugin_entropy(counts, densities, n, t)

    monkeypatch.setattr(exotic, "plugin_entropy", spy)
    entropy_on_surface(gammas, h, grid)
    keys, counts, volumes = _histogram(
        gammas / np.linalg.norm(gammas, axis=-1, keepdims=True), grid)
    widths = ANGLE_SPANS / np.asarray(grid.bins, dtype=float)
    for row, key in enumerate(keys):
        center = (key + 0.5) * widths
        m = surface_patch_jacobian(h, center)
        g = pullback_metric(h.forward(to_cartesian(center)))
        density = np.sqrt(max(np.linalg.det(m.T @ g @ m), 0.0))
        volumes[row] *= density / volume_element(center)
    np.testing.assert_array_equal(seen["counts"], counts)
    np.testing.assert_allclose(counts / (seen["n"] * seen["densities"]), volumes,
                               rtol=1e-13, atol=0.0)


# --------------------------------------------------------------------------
# batching: every map, Jacobian and field acts row by row on (..., 8)
# --------------------------------------------------------------------------

@st.composite
def smooth_maps(draw):
    rho0 = draw(st.floats(0.0, 0.95))
    rho1 = draw(st.floats(rho0 + 0.05, 1.0))
    eps = draw(st.floats(0.0, 0.3, exclude_max=True))
    scaling_eps = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3, exclude_max=True)))
    profile = BumpProfile(rho0, rho1)
    return ExoticMap(Deformation(eps, profile),
                     ScalingFunction(1.0, scaling_eps, profile))


def batch_points(seed):
    """Six random sphere points and two on the fixed (z1, z2) circle, where
    rho = 0, shaped (2, 4, 8)."""
    _, circle = circle12(5)
    pts = np.vstack([random_sphere_point(np.random.default_rng(seed), 6), circle[1:3]])
    return pts.reshape(2, 4, 8)


@settings(max_examples=40, deadline=None)
@given(smooth_maps(), st.integers(0, 2 ** 32 - 1))
def test_batched_jacobians_equal_rowwise(h, seed):
    z = batch_points(seed)
    gamma = h.forward(z)
    checks = [(h.deformation.profile.gradient, z),
              (h.scaling.gradient, z),
              (h.deformation.gradient, z),
              (h.jacobian, z),
              (pullback_metric, gamma),
              (pushforward_field(frame_field(1), h), gamma)]
    tol = 4 * np.finfo(float).eps
    for fn, pts in checks:
        batch = fn(pts)
        assert batch.shape[:2] == (2, 4) and np.all(np.isfinite(batch))
        for idx in np.ndindex(2, 4):
            np.testing.assert_allclose(batch[idx], fn(pts[idx]), rtol=tol, atol=tol)


@settings(max_examples=40, deadline=None)
@given(smooth_maps(), st.integers(0, 2 ** 32 - 1))
def test_jacobian_matches_fd_along_frame(h, seed):
    # the quotient-rule Jacobian r I + z grad(r)^T against central differences
    # of h along the seven frame directions, which are tangent at z
    z = batch_points(seed)
    frames = frame_eval_all(z)                              # (2, 4, 7, 8)
    fd = central_difference(h.forward, z, 1e-6, directions=np.moveaxis(frames, -2, 0))
    jv = np.einsum("...ij,...mj->...im", h.jacobian(z), frames)
    np.testing.assert_allclose(jv, fd, rtol=0.0, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(smooth_maps(), st.integers(0, 2 ** 32 - 1))
def test_roundtrip_random_bump_parameters(h, seed):
    z = batch_points(seed)
    np.testing.assert_allclose(h.inverse(h.forward(z)), z, rtol=0.0, atol=1e-9)


# --------------------------------------------------------------------------
# the 28 circles
# --------------------------------------------------------------------------

def test_circle_images_count_and_closure():
    h = bump_map()
    images = circle_images(h)
    assert len(images) == 28
    assert {(im.i, im.j) for im in images} == {(i, j) for i in range(1, 9)
                                               for j in range(i + 1, 9)}
    for im in images:
        assert im.closure_error < 1e-9


def test_circle12_fixed_pointwise():
    h = bump_map()
    images = {(im.i, im.j): im for im in circle_images(h)}
    fixed = images[(1, 2)]
    ref = np.zeros_like(fixed.points)
    ref[:, 0] = np.cos(fixed.params)
    ref[:, 1] = np.sin(fixed.params)
    np.testing.assert_allclose(fixed.points, ref, atol=1e-12)
    assert fixed.max_radial_deviation < 1e-12


def test_circle23_deformed():
    h = bump_map()
    images = {(im.i, im.j): im for im in circle_images(h)}
    assert images[(2, 3)].max_radial_deviation > 1e-3


def test_circles_are_integral_curves():
    # the parameterized circle flows along the corresponding plane rotation:
    # d/dtheta (cos theta e_i + sin theta e_j) = -sin theta e_i + cos theta e_j
    from sevensphere.frames import plane_generator

    thetas = np.linspace(0, 2 * np.pi, 13)
    gen = plane_generator(2, 5)
    curve = np.zeros((13, 8))
    curve[:, 1] = np.cos(thetas)
    curve[:, 4] = np.sin(thetas)
    derivative = np.zeros_like(curve)
    derivative[:, 1] = -np.sin(thetas)
    derivative[:, 4] = np.cos(thetas)
    np.testing.assert_allclose(curve @ gen.T, derivative, atol=1e-15)


def test_circles_csv_export(tmp_path):
    h = bump_map()
    images = circle_images(h, n_points=9)
    fname = tmp_path / "circles.csv"
    write_circles_csv(images, fname)
    lines = fname.read_text().splitlines()
    assert lines[0] == "i,j,theta," + ",".join(f"g{k}" for k in range(1, 9))
    assert len(lines) == 1 + 28 * 9
