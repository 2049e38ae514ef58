import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevensphere.density import ANGLE_SPANS, GridSpec, entropy, estimate_density
from sevensphere.exotic import (MAX_EPS, RHO0, RHO1, ExoticMap, RegularityError, _bump,
                                _scale, _scale_and_gradient, circle_images,
                                conjugation_gaps, entropy_on_surface, pushforward_field,
                                write_circles_csv)
from sevensphere.frames import frame_eval_all, frame_field
from sevensphere.geometry import (central_difference, chart_jacobian, gauss_legendre,
                                  random_cap_point, random_sphere_point, sphere_volume,
                                  to_cartesian, volume_element)

E = np.eye(8)
SIX_MAPS = [ExoticMap(eps, scaling) for eps in (0.0, 0.2, 0.29)
            for scaling in ("constant", "bump-smooth")]


def bump_map(eps=0.2):
    return ExoticMap(eps)


def circle12(n=181):
    thetas = np.linspace(0.0, 2.0 * np.pi, n)
    pts = np.zeros((n, 8))
    pts[:, 0] = np.cos(thetas)
    pts[:, 1] = np.sin(thetas)
    return thetas, pts


# --------------------------------------------------------------------------
# deformation and the map itself
# --------------------------------------------------------------------------

def ramp_points(t):
    """Sphere points cos(a) e1 + sin(a) e3 whose plane distance sin(a) sits at
    ramp coordinate t, that is at RHO0 + t (RHO1 - RHO0)."""
    rho = RHO0 + np.asarray(t) * (RHO1 - RHO0)
    z = np.zeros(rho.shape + (8,))
    z[..., 0], z[..., 2] = np.sqrt(1.0 - rho ** 2), rho
    return z


def test_smooth_transition_derivative_is_analytic():
    # the gradient of 1 + eps * bump along e3 is eps psi'(t) / (RHO1 - RHO0):
    # against a five-point stencil of the scale in t, and 0 outside the ramp
    eps, width = 0.2, RHO1 - RHO0
    t = np.linspace(0.02, 0.98, 97)
    h = 1e-3
    val, grad = _scale_and_gradient(eps, ramp_points(t))
    np.testing.assert_array_equal(val, _scale(eps, ramp_points(t)))
    scale = [_scale(eps, ramp_points(t + k * h)) for k in (-2, -1, 1, 2)]
    five_point = (scale[0] - 8 * scale[1] + 8 * scale[2] - scale[3]) / (12 * h)
    np.testing.assert_allclose(grad[:, 2] * width, five_point, rtol=0, atol=eps * 1e-8)
    assert np.all(np.delete(grad, 2, axis=1) == 0.0)
    outside = np.array([-RHO0 / width, -1e-3, 0.0, 1.0, 1.0 + 1e-3, (1.0 - RHO0) / width])
    assert np.all(_scale_and_gradient(eps, ramp_points(outside))[1] == 0.0)


def test_deformation_origin_rejected():
    h = bump_map()
    with pytest.raises(ValueError):
        h.inverse(np.zeros(8))
    with pytest.raises(ValueError):
        h.surface_point(np.zeros((2, 8)))


def test_deformation_strength_validated():
    for eps in (0.5, MAX_EPS, -0.1, np.nan):
        with pytest.raises(ValueError, match="deformation strength"):
            ExoticMap(eps)


def test_unknown_scaling_rejected():
    with pytest.raises(ValueError, match="unknown scaling"):
        ExoticMap(0.2, "kink")


@pytest.mark.parametrize("scale", [ExoticMap(0.2, "bump-smooth").beta,
                                   ExoticMap(0.2).ray_scale, ExoticMap().beta],
                         ids=["scaling", "deformation", "constant"])
def test_scaling_rejects_nan_point(scale):
    # the ramp carries NaN through, so the positivity check sees it; the
    # constant scaling (eps = 0) marks non-finite points NaN itself
    z = E[2].copy()
    z[4] = np.nan
    with pytest.raises(ValueError):
        scale(z)
    with pytest.raises(ValueError):
        scale(np.stack([E[2], z]))


@pytest.mark.parametrize("kind", ["smooth", "kink"])
def test_constant_scaling_equals_base_plus_zero_bump(rng, kind):
    kink = kind == "kink"
    for z in (random_sphere_point(rng, 50), random_sphere_point(rng)):
        want = np.asarray(1.0 + 0.0 * _bump(z, kink))
        got = _scale(0.0, z, kink)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError):
        _scale(0.0, np.stack([E[2], np.full(8, np.inf)]), kink)


def test_identity_map_is_identity(rng):
    h = ExoticMap()
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
    h = ExoticMap(0.2, "bump-smooth")
    gamma = h.forward(random_sphere_point(rng, 50))
    u = h.inverse(gamma)
    np.testing.assert_allclose(h.beta(u), np.linalg.norm(gamma, axis=-1) * h.ray_scale(u),
                               rtol=0.0, atol=1e-10)


def test_scaling_positive_enforced():
    # e3 lies where the bump is 1, so 1 - 2 * bump is -1 there
    with pytest.raises(ValueError):
        _scale(-2.0, E[2])


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
    # the bump vanishes on a neighbourhood of the circle, so there r = 1 and
    # grad r = 0 exactly and the induced field is the original one, bit for
    # bit; conjugation_gaps' frame:1 paths from e1 never leave this circle,
    # which is why their gaps cannot see h
    _, pts = circle12(37)
    for h in SIX_MAPS:
        push = pushforward_field(frame_field(1), h)
        gamma = h.forward(pts)
        np.testing.assert_array_equal(push(gamma), frame_field(1)(h.inverse(gamma)))
        for g in gamma[:3]:
            np.testing.assert_array_equal(push(g), frame_field(1)(h.inverse(g)))


@pytest.mark.parametrize("h", SIX_MAPS, ids=lambda h: f"{h.scaling}-{h.eps}")
def test_pushforward_equals_jacobian_product(rng, h):
    # the rank-one form r v + <P grad r, v> z against jacobian(z) @ v, for
    # tangent and non-tangent unit v, at directions in the bump's ramp (where
    # grad r != 0 and <grad r, z> != 0) and at random sphere points
    rho = RHO0 + rng.uniform(-0.2, 1.2, (48, 1)) * (RHO1 - RHO0)
    plane, off = rng.standard_normal((48, 2)), rng.standard_normal((48, 6))
    plane /= np.linalg.norm(plane, axis=-1, keepdims=True)
    off /= np.linalg.norm(off, axis=-1, keepdims=True)
    ramp = np.hstack([np.sqrt(1.0 - rho ** 2) * plane, rho * off])
    z = np.vstack([ramp, random_sphere_point(rng, 16)])
    gamma = h.forward(z)
    u = h.inverse(gamma)
    w = random_sphere_point(rng, len(u))
    tangent = w - np.sum(w * u, axis=-1, keepdims=True) * u
    for v in (tangent / np.linalg.norm(tangent, axis=-1, keepdims=True), w):
        want = np.einsum("...ij,...j->...i", h.jacobian(u), v)
        got = pushforward_field(lambda p, v=v: v, h)(gamma)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_pushforward_chain_rule_oracle(rng):
    # directional finite difference of h along the field's rotation curve
    h = ExoticMap(0.2, "bump-smooth")
    fld = frame_field(3)
    push = pushforward_field(fld, h)
    from sevensphere.integrators import exact_rotation_step, single_frame_problem
    step = np.array([1e-6])
    for _ in range(20):
        z = random_sphere_point(rng)
        gamma = h.forward(z)
        problem = single_frame_problem(3, z)
        zp = exact_rotation_step(problem, z, step)
        zm = exact_rotation_step(problem, z, -step)
        fd = (h.forward(zp) - h.forward(zm)) / (2 * step)
        np.testing.assert_allclose(push(gamma), fd, atol=1e-6)


def test_jacobian_refuses_kinked_scaling(rng):
    h = ExoticMap(0.2, "bump-kink")
    with pytest.raises(RegularityError):
        h.jacobian(random_sphere_point(rng, 3))


def test_pushforward_refuses_kinked_scaling():
    h = ExoticMap(0.2, "bump-kink")
    with pytest.raises(RegularityError):
        pushforward_field(frame_field(1), h)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_surface_entropy_nonfinite_sample_rejected(rng, bad):
    h = bump_map()
    gammas = h.forward(random_sphere_point(rng, 3))
    gammas[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        entropy_on_surface(gammas, GridSpec.uniform(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["inverse", "surface_point", "forward", "jacobian"])
def test_map_rejects_nonfinite_point(rng, route, bad):
    # forward skips beta on the constant scaling, so _unit rejects the point;
    # on bump-smooth beta's positivity check sees a NaN first; jacobian checks
    # its points itself
    for h in (bump_map(), ExoticMap(0.2, "bump-smooth")):
        gammas = h.forward(random_sphere_point(rng, 3))
        gammas[1, 2] = bad
        match = "NaN" if route == "forward" and h.beta_eps and np.isnan(bad) else "finite"
        with pytest.raises(ValueError, match=match):
            getattr(h, route)(gammas)
        with pytest.raises(ValueError, match=match):
            getattr(h, route)(gammas[1])


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
# the round metric pulled back through h^{-1}, and the Gram-route oracle
# --------------------------------------------------------------------------

def round_pullback(gamma):
    """G' = (I - u u^T) / |gamma|^2 with u = gamma / |gamma|: the round metric
    pulled back through h^{-1}(gamma) = u, shape (..., 8, 8)."""
    r = np.linalg.norm(gamma, axis=-1)[..., None, None]
    u = gamma / r[..., 0]
    return (np.eye(8) - u[..., :, None] * u[..., None, :]) / r ** 2


def gram_volume_density(h, phi):
    """sqrt(det M^T G' M) at angle vectors phi (..., 7), with M the chain-rule
    derivative h.jacobian(chart(phi)) @ chart_jacobian(phi) of the surface
    parameterization phi -> h(chart(phi))."""
    m = h.jacobian(to_cartesian(phi)) @ chart_jacobian(phi)
    gram = np.swapaxes(m, -1, -2) @ round_pullback(h.forward(to_cartesian(phi))) @ m
    return np.sqrt(np.maximum(np.linalg.det(gram), 0.0))


def grid_centers(grid):
    keys = np.stack(np.meshgrid(*[np.arange(b) for b in grid.bins], indexing="ij"), axis=-1)
    return (keys.reshape(-1, 7) + 0.5) * (ANGLE_SPANS / np.asarray(grid.bins, dtype=float))


def test_fixed_circle_length_is_two_pi():
    x, w = gauss_legendre(64, 0.0, 2.0 * np.pi)
    total = 0.0
    for theta, weight in zip(x, w):
        gamma = np.zeros(8)
        gamma[0] = np.cos(theta)
        gamma[1] = np.sin(theta)
        tangent = np.zeros(8)
        tangent[0] = -np.sin(theta)
        tangent[1] = np.cos(theta)
        g = round_pullback(gamma)
        total += weight * np.sqrt(tangent @ g @ tangent)
    assert total == pytest.approx(2.0 * np.pi, abs=1e-6)


def test_map_is_isometry_onto_pullback_metric(rng):
    # <dh a, dh b> in the pulled-back metric equals <a, b> for tangent a, b:
    # the inverse map was built to be an isometry onto the round sphere
    h = ExoticMap(0.2, "bump-smooth")
    for _ in range(20):
        z = random_sphere_point(rng)
        a = frame_field(1)(z)
        b = frame_field(3)(z)
        jac = h.jacobian(z)
        g = round_pullback(h.forward(z))
        va, vb = jac @ a, jac @ b
        assert va @ g @ vb == pytest.approx(a @ b, abs=1e-8)
        assert va @ g @ va == pytest.approx(a @ a, abs=1e-8)


def test_surface_patch_matches_pullback_reference():
    # the Gram route: sqrt(det M^T G' M) reproduces the chart volume density
    # at every grid-3 bin centre, because h^{-1} is an isometry from the
    # pulled-back surface onto the round sphere; so the surface bins have the
    # sphere's own bin volumes, which entropy_on_surface uses
    phi = grid_centers(GridSpec.uniform(3))
    for h in SIX_MAPS:
        np.testing.assert_allclose(gram_volume_density(h, phi), volume_element(phi),
                                   rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------
# entropy transport
# --------------------------------------------------------------------------

def test_surface_entropy_identity_map_matches_sphere(rng):
    samples = random_sphere_point(rng, 20000)
    grid = GridSpec.uniform(3)
    sphere = entropy(estimate_density(samples, grid))
    surface = entropy_on_surface(samples, grid)
    assert surface.S == pytest.approx(sphere.S, abs=1e-6)


@pytest.mark.parametrize("h", SIX_MAPS + [ExoticMap(0.2, "bump-kink")],
                         ids=lambda h: f"{h.scaling}-{h.eps}")
def test_surface_entropy_equals_sphere_entropy(rng, h):
    # both sides bin the same directions, up to h^{-1}(h(z)) rounding at bin
    # edges; the measure does not use dh, so the kinked map is accepted too
    samples = random_cap_point(rng, E[0], 0.8, 30000)
    grid = GridSpec.uniform(3)
    sphere = entropy(estimate_density(samples, grid))
    surface = entropy_on_surface(h.forward(samples), grid)
    assert abs(surface.S - sphere.S) <= 1e-14


def test_surface_entropy_uniform(rng):
    h = bump_map()
    samples = random_sphere_point(rng, 10 ** 5)
    surface = entropy_on_surface(h.forward(samples), GridSpec.uniform(3))
    assert abs(surface.S + surface.mm_correction - np.log(sphere_volume())) < 0.1


def test_surface_entropy_paired_with_sphere(rng):
    h = bump_map()
    samples = random_cap_point(rng, E[0], 0.8, 30000)
    grid = GridSpec.uniform(3)
    sphere = entropy(estimate_density(samples, grid))
    surface = entropy_on_surface(h.forward(samples), grid)
    band = 2.0 * max(np.hypot(sphere.stderr, surface.stderr), 1e-3)
    assert abs(surface.S - sphere.S) <= band


def test_surface_bin_volumes_match_per_bin_loop(rng, monkeypatch):
    # the volumes entropy_on_surface uses against the Gram route, bin by bin
    from sevensphere import exotic
    from sevensphere.density import _histogram

    h = ExoticMap(0.2, "bump-smooth")
    gammas = h.forward(random_cap_point(rng, E[0], 0.8, 5000))
    grid = GridSpec.uniform(3)
    seen = {}
    plugin_entropy = exotic.plugin_entropy

    def spy(counts, densities, n, t=None):
        seen.update(counts=counts, densities=densities, n=n)
        return plugin_entropy(counts, densities, n, t)

    monkeypatch.setattr(exotic, "plugin_entropy", spy)
    entropy_on_surface(gammas, grid)
    d = _histogram(gammas / np.linalg.norm(gammas, axis=-1, keepdims=True), grid)
    keys, counts, volumes = d.indices, d.counts, d.volumes
    widths = ANGLE_SPANS / np.asarray(grid.bins, dtype=float)
    for row, key in enumerate(keys):
        center = (key + 0.5) * widths
        volumes[row] *= gram_volume_density(h, center) / volume_element(center)
    np.testing.assert_array_equal(seen["counts"], counts)
    np.testing.assert_allclose(counts / (seen["n"] * seen["densities"]), volumes,
                               rtol=1e-13, atol=0.0)


# --------------------------------------------------------------------------
# batching: every map, Jacobian and field acts row by row on (..., 8)
# --------------------------------------------------------------------------

def smooth_maps():
    return st.builds(ExoticMap, st.floats(0.0, MAX_EPS, exclude_max=True),
                     st.sampled_from(["constant", "bump-smooth"]))


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

    def scale_and_gradient(eps):  # eps = 1: the bump's own gradient
        def fn(p):
            val, grad = _scale_and_gradient(eps, p)
            return np.concatenate([val[..., None], grad], axis=-1)
        return fn

    checks = [(scale_and_gradient(1.0), z),
              (scale_and_gradient(h.beta_eps), z),
              (scale_and_gradient(h.eps), z),
              (h.jacobian, z),
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
