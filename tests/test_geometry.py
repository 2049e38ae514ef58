import numpy as np
import pytest

from sevensphere.geometry import (ChartSingularityError, central_difference,
                                  chart_jacobian, geodesic_distance, metric_tensor,
                                  random_sphere_point, row_norms, sin_power_integral,
                                  sphere_volume, sphere_volume_quadrature,
                                  to_cartesian, to_spherical, volume_element)

E = np.eye(8)


def interior_angles(rng, n=1):
    phi = np.empty((n, 7))
    phi[:, :6] = rng.uniform(0.2, np.pi - 0.2, (n, 6))
    phi[:, 6] = rng.uniform(0.2, 2.0 * np.pi - 0.2, n)
    return phi if n > 1 else phi[0]


def test_chart_unit_norm(rng):
    phi = interior_angles(rng, 200)
    z = to_cartesian(phi)
    np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-14)


def test_chart_equatorial_convention():
    phi = np.array([np.pi / 2] * 6 + [0.0])
    z = to_cartesian(phi)
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-14
    np.testing.assert_allclose(z, E[6], atol=1e-15)


def test_chart_pole_degeneracy(rng):
    phi = interior_angles(rng)
    phi[0] = 0.0
    np.testing.assert_allclose(to_cartesian(phi), E[0], atol=1e-15)


def test_chart_range_validation():
    bad = np.array([4.0, 1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        to_cartesian(bad)


def test_roundtrip_interior(rng):
    phi = interior_angles(rng, 10 ** 4)
    back = to_spherical(to_cartesian(phi))
    np.testing.assert_allclose(back, phi, atol=1e-10)


def test_roundtrip_from_points(rng):
    pts = random_sphere_point(rng, 10 ** 4)
    np.testing.assert_allclose(to_cartesian(to_spherical(pts)), pts, atol=1e-10)


def test_singular_input_flagged():
    with pytest.raises(ChartSingularityError) as err:
        to_spherical(E[0], strict=True)
    assert err.value.suggestion is not None
    assert abs(np.linalg.norm(err.value.suggestion) - 1.0) < 1e-12


def test_volume_element_equatorial():
    phi = np.array([np.pi / 2] * 7)
    assert volume_element(phi) == pytest.approx(1.0)


def test_volume_element_pole():
    phi = np.array([0.0] + [np.pi / 2] * 6)
    assert volume_element(phi) == pytest.approx(0.0, abs=1e-15)


def test_total_volume_closed_form():
    # 2 pi^4 / Gamma(4) = pi^4 / 3
    assert sphere_volume() == pytest.approx(np.pi ** 4 / 3.0, rel=1e-15)


def test_quadrature_reproduces_volume():
    vol = sphere_volume_quadrature(n_nodes=24)
    assert abs(vol - sphere_volume()) / sphere_volume() < 1e-6


def test_sin_power_integral_known_values():
    assert sin_power_integral(1, 0.0, np.pi) == pytest.approx(2.0, rel=1e-12)
    assert sin_power_integral(6, 0.0, np.pi) == pytest.approx(5 * np.pi / 16, rel=1e-12)


def test_metric_tensor_equatorial():
    phi = np.array([np.pi / 2] * 7)
    g = metric_tensor(phi)
    np.testing.assert_allclose(g, np.eye(7), atol=1e-12)
    assert g[0, 0] == pytest.approx(1.0)


def test_metric_volume_identity(rng):
    # |det G|^(1/2) equals the angular volume factor
    phi = interior_angles(rng, 1000)
    for p in phi:
        g = metric_tensor(p)
        np.testing.assert_allclose(np.sqrt(abs(np.linalg.det(g))),
                                   volume_element(p), atol=1e-8)


def test_metric_tensor_nested_closed_form(rng):
    # G = diag(1, sin^2 p1, sin^2 p1 sin^2 p2, ...): independent reference
    phi = interior_angles(rng)
    g = metric_tensor(phi)
    expect = np.zeros((7, 7))
    acc = 1.0
    for k in range(7):
        expect[k, k] = acc
        acc *= np.sin(phi[k]) ** 2
    np.testing.assert_allclose(g, expect, atol=1e-12)


def test_jacobian_by_finite_differences(rng):
    phi = interior_angles(rng)
    jac = chart_jacobian(phi)
    h = 1e-6
    for k in range(7):
        pp = phi.copy()
        pp[k] += h
        pm = phi.copy()
        pm[k] -= h
        fd = (to_cartesian(pp) - to_cartesian(pm)) / (2 * h)
        np.testing.assert_allclose(jac[:, k], fd, atol=1e-8)


def test_central_difference_exact_for_affine_maps(rng):
    a = rng.standard_normal((3, 8))
    c = rng.standard_normal(3)
    x = rng.standard_normal(8)
    np.testing.assert_allclose(central_difference(lambda y: a @ y + c, x, 1e-3), a,
                               rtol=0, atol=1e-9)
    directions = rng.standard_normal((5, 8))
    np.testing.assert_allclose(
        central_difference(lambda y: a @ y + c, x, 1e-3, directions=directions),
        a @ directions.T, rtol=0, atol=1e-9)


def test_metric_degenerate_at_pole():
    phi = np.array([0.0] + [1.0] * 6)
    g = metric_tensor(phi)
    assert abs(np.linalg.det(g)) < 1e-30


def test_geodesic_distance_basic():
    assert geodesic_distance(E[0], E[0]) == pytest.approx(0.0)
    assert geodesic_distance(E[0], -E[0]) == pytest.approx(np.pi)
    assert geodesic_distance(E[0], E[1]) == pytest.approx(np.pi / 2)


def test_geodesic_distance_rotation_invariant(rng):
    x = random_sphere_point(rng)
    y = random_sphere_point(rng)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    assert geodesic_distance(q @ x, q @ y) == pytest.approx(
        geodesic_distance(x, y), abs=1e-12)


def test_geodesic_distance_clamps_roundoff():
    x = np.zeros(8)
    x[0] = 1.0 + 1e-16
    assert geodesic_distance(x, x) == 0.0


@pytest.mark.parametrize("shape", [(8,), (8, 8), (1024, 8)])
def test_row_norms_equal_linalg_norm_bitwise(rng, shape):
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape[:-1] + (1,))
    got = row_norms(x)
    assert got.shape == shape[:-1] + (1,)
    np.testing.assert_array_equal(got, np.linalg.norm(x, axis=-1, keepdims=True))
