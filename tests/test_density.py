import numpy as np
import pytest

from sevensphere.density import (GridSpec, MarginalDensity, angular_fields, entropy,
                                 entropy_rate_fisher, entropy_rate_formula,
                                 estimate_density, fokker_planck_residual,
                                 angular_diffusion_matrix, generator_weak_check,
                                 max_entropy, uniform_density, write_density_csv)
from sevensphere.geometry import (chart_jacobian, metric_tensor, random_cap_point,
                                  random_sphere_point, sphere_volume, to_cartesian)
from sevensphere.integrators import (brownian_problem, simulate_ensemble,
                                     single_frame_problem)

E = np.eye(8)


def interior_angles(rng, n):
    phi = np.empty((n, 7))
    phi[:, :6] = rng.uniform(0.7, np.pi - 0.7, (n, 6))
    phi[:, 6] = rng.uniform(0.7, 2.0 * np.pi - 0.7, n)
    return phi


# --------------------------------------------------------------------------
# histograms
# --------------------------------------------------------------------------

def test_grid_volumes_sum_to_sphere_volume():
    grid = GridSpec.uniform(3)
    total = 1.0
    for a in range(7):
        total *= grid.axis_total(a)
    assert total == pytest.approx(sphere_volume(), rel=1e-10)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1,) * 7)


def test_point_mass_density():
    grid = GridSpec.uniform(3)
    samples = np.tile(E[3], (50, 1))
    est = estimate_density(samples, grid)
    assert len(est.counts) == 1
    assert est.integral() == pytest.approx(1.0, abs=1e-12)


def test_density_normalized(rng):
    est = estimate_density(random_sphere_point(rng, 5000), GridSpec.uniform(3))
    assert est.integral() == pytest.approx(1.0, abs=1e-9)


def test_uniform_samples_flat_density():
    rng = np.random.default_rng(11)
    est = estimate_density(random_sphere_point(rng, 10 ** 6), GridSpec.uniform(2))
    flat = 1.0 / sphere_volume()
    assert flat == pytest.approx(0.03080, abs=2e-5)
    occupied = est.counts >= 500
    rel = np.abs(est.densities[occupied] - flat) / flat
    assert np.max(rel) < 0.05


def test_density_empty_rejected():
    with pytest.raises(ValueError):
        estimate_density(np.empty((0, 8)), GridSpec.uniform(2))


def test_density_csv(tmp_path):
    rng = np.random.default_rng(3)
    est = estimate_density(random_sphere_point(rng, 100), GridSpec.uniform(2))
    fname = tmp_path / "density.csv"
    write_density_csv(est, fname)
    lines = fname.read_text().splitlines()
    assert lines[0].startswith("i1,") and lines[0].endswith("volume,density")
    assert len(lines) == 1 + len(est.counts)


def test_marginal_consistency(rng):
    est = estimate_density(random_sphere_point(rng, 20000), GridSpec.uniform(3))
    m = est.marginal((0,))
    assert m.counts.sum() == est.n_samples
    assert np.sum(m.densities * m.volumes) == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------------
# entropy
# --------------------------------------------------------------------------

def test_entropy_uniform_near_log_volume():
    rng = np.random.default_rng(21)
    est = estimate_density(random_sphere_point(rng, 2 * 10 ** 5), GridSpec.uniform(3))
    rep = entropy(est)
    assert abs(rep.S - max_entropy()) < 0.05
    assert max_entropy() == pytest.approx(np.log(np.pi ** 4 / 3.0), rel=1e-12)
    assert max_entropy() == pytest.approx(3.4805, abs=2e-4)


def test_entropy_single_bin_equals_log_volume():
    grid = GridSpec.uniform(3)
    est = estimate_density(np.tile(E[3], (64, 1)), grid)
    rep = entropy(est)
    assert rep.S == pytest.approx(np.log(est.volumes[0]), rel=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_entropy_never_exceeds_log_volume(rng):
    for n in (50, 500, 5000):
        est = estimate_density(random_sphere_point(rng, n), GridSpec.uniform(3))
        assert entropy(est).S <= max_entropy() + 1e-9


def test_entropy_mm_correction_scale():
    rng = np.random.default_rng(5)
    est = estimate_density(random_sphere_point(rng, 10 ** 4), GridSpec.uniform(2))
    rep = entropy(est)
    assert rep.mm_correction == pytest.approx((rep.n_occupied - 1) / 2e4, rel=1e-12)


def test_entropy_monotone_from_cap():
    rng = np.random.default_rng(13)
    n = 20000
    starts = random_cap_point(rng, E[0], 0.1, n)
    times = (0.0, 0.2, 0.5, 1.0, 2.0)
    result = simulate_ensemble(brownian_problem(E[0]), n, 200, 0.01, seed=13,
                               scheme="exact_rotation", save_times=np.array(times),
                               initial_points=starts)
    grid = GridSpec.uniform(3)
    reports = [entropy(estimate_density(result.states[:, j, :], grid), t=t)
               for j, t in enumerate(times)]
    for a, b in zip(reports, reports[1:]):
        assert b.S_corrected >= a.S_corrected - 2.0 * np.hypot(a.stderr, b.stderr)
    assert abs(reports[-1].S_corrected - max_entropy()) < 0.1


# --------------------------------------------------------------------------
# entropy rate
# --------------------------------------------------------------------------

def flat_marginal(value=None, bins=48):
    grid = GridSpec((bins,) + (2,) * 6)
    w = grid.axis_weights(0)
    rest = np.prod([grid.axis_total(a) for a in range(1, 7)])
    value = value if value is not None else 1.0 / sphere_volume()
    counts = value * w * rest * 10 ** 6
    return MarginalDensity((0,), grid, counts, w * rest,
                           np.full(bins, value), 10 ** 6)


def test_entropy_rate_uniform_is_zero():
    m = flat_marginal()
    assert abs(entropy_rate_formula(m, np.array([[1.0]]))) < 1e-3
    assert abs(entropy_rate_fisher(m, np.array([[1.0]]))) < 1e-3


def cap_marginals(n=100000, ts=(0.30, 0.35, 0.40), seed=99):
    rng = np.random.default_rng(42)
    starts = random_cap_point(rng, E[0], 0.1, n)
    result = simulate_ensemble(brownian_problem(E[0]), n, 80, 0.005, seed=seed,
                               scheme="exact_rotation", save_times=np.array(ts),
                               initial_points=starts)
    grid = GridSpec((48,) + (2,) * 6)
    return [estimate_density(result.states[:, j, :], grid).marginal((0,))
            for j in range(len(ts))], ts


def marginal_entropy(m):
    mask = m.counts > 0
    w = m.counts[mask] / m.n_samples
    logp = np.log(m.densities[mask])
    s = float(-np.sum(w * logp))
    var = float(np.sum(w * logp ** 2) - s ** 2)
    return s, np.sqrt(max(var, 0.0) / m.n_samples)


def test_entropy_rate_positive_from_concentration():
    (m, *_), _ = cap_marginals(n=30000, ts=(0.30,))
    with np.errstate(all="ignore"):
        assert entropy_rate_formula(m, np.array([[1.0]])) > 0.0
        assert entropy_rate_fisher(m, np.array([[1.0]])) > 0.0


def test_entropy_rate_matches_entropy_differences():
    # axially symmetric full-frame diffusion: effective diffusion on the polar
    # angle is exactly 1; the production form tracks the measured slope
    (m0, m1, m2), ts = cap_marginals()
    s0, se0 = marginal_entropy(m0)
    s2, se2 = marginal_entropy(m2)
    fd = (s2 - s0) / (ts[2] - ts[0])
    se_fd = np.hypot(se0, se2) / (ts[2] - ts[0])
    fisher = entropy_rate_fisher(m1, np.array([[1.0]]))
    assert abs(fisher - fd) <= 0.15 * abs(fd) + 3.0 * se_fd


def test_entropy_rate_decomposition_identity():
    # bracket form = production form - transport through the volume factor
    (m0, m1, m2), _ = cap_marginals()
    printed = entropy_rate_formula(m1, np.array([[1.0]]))
    fisher = entropy_rate_fisher(m1, np.array([[1.0]]))
    centers = m1.centers(0)
    dphi = centers[1] - centers[0]
    grad = np.gradient(m1.densities, dphi)
    rest = np.prod([m1.grid.axis_total(a) for a in range(1, 7)])
    mprime = 6.0 * np.sin(centers) ** 5 * np.cos(centers)
    transport = 0.5 * np.sum(grad[1:-1] * mprime[1:-1]) * dphi * rest
    assert printed - transport == pytest.approx(fisher, rel=0.05)


def test_full_frame_effective_polar_diffusion_is_one(rng):
    # generic verification of the [[1.0]] used above: the pushed-forward
    # channel fields reproduce the inverse metric, whose leading entry is 1
    problem = brownian_problem(E[0])
    for phi in interior_angles(rng, 5):
        d = angular_diffusion_matrix(phi, problem)
        ginv = np.linalg.inv(metric_tensor(phi))
        np.testing.assert_allclose(d, ginv, atol=1e-12)
        assert d[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_angular_fields_on_singular_set_are_least_squares():
    # at phi1 = 0 the metric has zero rows and columns; the pushed-forward
    # fields must be the least-squares rows, finite and zero there
    phi = np.array([0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 4.0])
    problem = brownian_problem(E[0])
    jac = chart_jacobian(phi)
    z = to_cartesian(phi)
    expect = np.stack([np.linalg.lstsq(jac.T @ jac, jac.T @ f(z), rcond=None)[0]
                       for f in problem.diffusion_fields])
    rows = angular_fields(phi, problem)
    assert np.all(np.isfinite(rows))
    np.testing.assert_allclose(rows, expect, rtol=0, atol=1e-12)


def test_entropy_rate_two_axis_uniform(rng):
    grid = GridSpec((12, 12) + (2,) * 5)
    rest = np.prod([grid.axis_total(a) for a in range(2, 7)])
    w0 = grid.axis_weights(0)
    w1 = grid.axis_weights(1)
    vol = np.outer(w0, w1) * rest
    value = 1.0 / sphere_volume()
    counts = value * vol * 10 ** 6
    m = MarginalDensity((0, 1), grid, counts, vol,
                        np.full((12, 12), value), 10 ** 6)
    assert abs(entropy_rate_formula(m, np.eye(2))) < 1e-3
    assert abs(entropy_rate_fisher(m, np.eye(2))) < 1e-3


def entropy_rate_parts_by_cell(m, d):
    """Reference: the rate integrals accumulated one interior cell at a time."""
    k = len(m.axes)
    spacings = [m.centers(i)[1] - m.centers(i)[0] for i in range(k)]
    grads = np.reshape(np.gradient(m.densities, *spacings), (k,) + m.densities.shape)
    hess = [np.reshape(np.gradient(g, *spacings), (k,) + g.shape) for g in grads]
    quad_total = curv_total = 0.0
    for cell in np.ndindex(*m.densities.shape):
        p = m.densities[cell]
        if any(not 1 <= c < n - 1 for c, n in zip(cell, m.densities.shape)) or p <= 0:
            continue
        quad = sum(d[i, j] * grads[i][cell] * grads[j][cell]
                   for i in range(k) for j in range(k))
        curv = sum(d[i, j] * hess[i][j][cell] for i in range(k) for j in range(k))
        quad_total += 0.5 * quad / p * m.volumes[cell]
        curv_total += 0.5 * curv * m.volumes[cell]
    return quad_total, curv_total


@pytest.mark.filterwarnings("ignore:entropy rate skipped")
@pytest.mark.parametrize("axes, d", [((0,), np.array([[0.8]])), ((6,), np.array([[1.3]])),
                                     ((0, 1), np.array([[1.0, 0.3], [0.3, 0.6]]))])
def test_entropy_rate_matches_cell_loop(rng, axes, d):
    # the cap leaves interior cells of the polar angle empty, so cells are skipped
    samples = random_cap_point(rng, E[0], 0.8, 20000)
    m = estimate_density(samples, GridSpec.uniform(8)).marginal(axes)
    quad, curv = entropy_rate_parts_by_cell(m, d)
    assert entropy_rate_fisher(m, d) == pytest.approx(quad, rel=1e-13)
    assert entropy_rate_formula(m, d) == pytest.approx(quad - curv, rel=1e-13)


def test_entropy_rate_rejects_high_dimension(rng):
    est = estimate_density(random_sphere_point(rng, 1000), GridSpec.uniform(3))
    with pytest.raises(ValueError):
        entropy_rate_formula(est.marginal((0, 1, 2)), np.eye(3))


# --------------------------------------------------------------------------
# Fokker-Planck residuals
# --------------------------------------------------------------------------

def test_uniform_stationary_single_frame(rng):
    p = uniform_density()
    problem = single_frame_problem(1, E[0])
    for phi in interior_angles(rng, 6):
        assert abs(fokker_planck_residual(p, problem, phi)) < 1e-3


def test_uniform_stationary_full_frame(rng):
    p = uniform_density()
    problem = brownian_problem(E[0])
    for phi in interior_angles(rng, 6):
        assert abs(fokker_planck_residual(p, problem, phi)) < 1e-3


def test_zero_diffusion_zero_residual(rng):
    p = uniform_density()

    def null_field(z):
        return np.zeros_like(np.asarray(z))

    phi = interior_angles(rng, 1)[0]
    assert fokker_planck_residual(p, [null_field], phi) == pytest.approx(0.0, abs=1e-12)


def reference_fp_residual(p_fn, fields, phi, h_outer=1e-3, h_inner=1e-4):
    """The stencil entry by entry: a fresh D at every point of every (i, j)."""
    from sevensphere.density import _angular_drift, _wrap_last_angle
    from sevensphere.geometry import central_difference, volume_element

    def bracket_drift(q):
        q = _wrap_last_angle(q)
        return _angular_drift(q, fields, h_inner) * p_fn(q) * volume_element(q)

    def bracket_diff(q, i, j):
        return angular_diffusion_matrix(q, fields)[i, j] * p_fn(q) * volume_element(q)

    res = -0.0 * float(volume_element(phi))
    res += -0.5 * np.trace(central_difference(bracket_drift, phi, h_outer))
    for i in range(7):
        for j in range(7):
            if i == j:
                pp, pm = np.array(phi), np.array(phi)
                pp[i] += h_outer
                pm[i] -= h_outer
                d2 = (bracket_diff(_wrap_last_angle(pp), i, i) - 2.0 * bracket_diff(phi, i, i)
                      + bracket_diff(_wrap_last_angle(pm), i, i)) / h_outer ** 2
            else:
                d2 = 0.0
                for si in (+1.0, -1.0):
                    for sj in (+1.0, -1.0):
                        q = np.array(phi)
                        q[i] += si * h_outer
                        q[j] += sj * h_outer
                        d2 += si * sj * bracket_diff(_wrap_last_angle(q), i, j)
                d2 /= 4.0 * h_outer ** 2
            res += 0.5 * d2
    return float(res)


def test_fp_residual_evaluates_each_stencil_point_once(rng, monkeypatch):
    from sevensphere import density

    p = uniform_density()
    phis = interior_angles(rng, 2)
    phis[1, 6] = 2.0 * np.pi - 5e-4  # the stencil wraps the last angle
    problems = (single_frame_problem(1, E[0]), brownian_problem(E[0]))
    expected = [reference_fp_residual(p, pr, phi) for pr in problems for phi in phis]
    calls = []

    def counted(phi, fields):
        calls.append(tuple(phi))
        return angular_diffusion_matrix(phi, fields)

    monkeypatch.setattr(density, "angular_diffusion_matrix", counted)
    got = [fokker_planck_residual(p, pr, phi) for pr in problems for phi in phis]
    assert got == expected
    assert len(calls) == 4 * 99 and len(set(calls[:99])) == 99


def test_fp_residual_rejects_singular_point():
    p = uniform_density()
    problem = single_frame_problem(1, E[0])
    with pytest.raises(ValueError):
        fokker_planck_residual(p, problem, np.array([1e-9, 1, 1, 1, 1, 1, 1]))


def test_fp_residual_nonzero_for_wrong_timescale(rng):
    # dp/dt deliberately wrong: residual picks up the mismatch
    p = uniform_density()
    problem = brownian_problem(E[0])
    phi = interior_angles(rng, 1)[0]
    r = fokker_planck_residual(p, problem, phi, dp_dt=0.01)
    assert abs(r) > 1e-4


def test_fp_residual_nonstationary_linear_mode(rng):
    # the lowest harmonic decays at rate 7/2, giving a closed-form
    # time-dependent solution: p_t = (1 + c e^{-7t/2} z1)/V with
    # dp/dt = -(7/2) c z1 / V at t = 0; the full equation must balance
    vol = sphere_volume()
    c = 0.5
    problem = brownian_problem(E[0])

    def p_fn(phi):
        return (1.0 + c * np.cos(phi[0])) / vol

    from sevensphere.geometry import volume_element

    for phi in interior_angles(rng, 4):
        dp_dt = -3.5 * c * np.cos(phi[0]) / vol
        r = fokker_planck_residual(p_fn, problem, phi, dp_dt=dp_dt)
        assert abs(r) < 1e-6
        # dropping the time derivative leaves exactly the m * dp/dt imbalance
        r0 = fokker_planck_residual(p_fn, problem, phi)
        assert r0 == pytest.approx(volume_element(phi) * dp_dt, rel=1e-3)


# --------------------------------------------------------------------------
# weak-form generator checks
# --------------------------------------------------------------------------

def test_weak_check_linear_function():
    z0 = random_sphere_point(np.random.default_rng(2))
    problem = brownian_problem(z0)
    rep = generator_weak_check(problem, lambda z: np.asarray(z)[..., 0],
                               t=0.1, n_paths=4000, dt=1e-3, seed=17)
    assert rep.passed
    # linear functions decay at rate 7/2
    assert rep.lhs == pytest.approx((np.exp(-0.35) - 1.0) * z0[0], abs=4 * rep.stderr + 1e-3)


def test_weak_check_all_coordinates_decay():
    z0 = random_sphere_point(np.random.default_rng(23))
    problem = brownian_problem(z0)
    for i in range(8):
        rep = generator_weak_check(problem, lambda z, i=i: np.asarray(z)[..., i],
                                   t=0.1, n_paths=2000, dt=1e-3, seed=29 + i)
        assert rep.passed


def test_weak_check_constant_function():
    problem = brownian_problem(E[0])
    rep = generator_weak_check(problem, lambda z: np.zeros(np.asarray(z).shape[:-1]),
                               t=0.1, n_paths=100, dt=1e-3, seed=5)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)


def test_weak_check_quadratic_single_field_vs_gaussian_oracle():
    # f = (z1)^2 under the single rotation field: exact value by averaging the
    # closed-form rotation over the 1D Gaussian increment (quadrature oracle)
    rng = np.random.default_rng(31)
    z0 = random_sphere_point(rng)
    problem = single_frame_problem(1, z0)
    t = 0.25
    rep = generator_weak_check(problem, lambda z: np.asarray(z)[..., 0] ** 2,
                               t=t, n_paths=20000, dt=2.5e-3, seed=31)
    assert rep.passed
    from sevensphere.integrators import frame_rotation_apply
    nodes, weights = np.polynomial.hermite_e.hermegauss(61)
    w = nodes * np.sqrt(t)
    coeff = np.zeros((len(w), 7))
    coeff[:, 0] = w
    rotated = frame_rotation_apply(coeff, np.broadcast_to(z0, (len(w), 8)))
    oracle = float(np.sum(weights / np.sqrt(2 * np.pi) * np.sqrt(2 * np.pi)
                          * rotated[:, 0] ** 2) / np.sum(weights))
    mc = rep.lhs + z0[0] ** 2
    assert mc == pytest.approx(oracle, abs=5e-3)
