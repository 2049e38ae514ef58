import warnings

import numpy as np
import pytest

from sevensphere.density import (SIN_POWERS, WEAK_SAVES, WEAK_SLICE, GridSpec,
                                 _generator_apply, angular_fields, counted_density,
                                 entropy, estimate_density, fokker_planck_residual,
                                 generator_weak_check, max_entropy, merge_counts,
                                 uniform_density)
from sevensphere.geometry import (ANGLE_UPPER, chart_jacobian, random_cap_point,
                                  random_sphere_point, sin_power_integral, sphere_volume,
                                  to_cartesian, to_spherical)
from sevensphere.integrators import (REDUCE_BLOCK, brownian_problem, combination_problem,
                                     frame_rotation_apply, simulate_ensemble,
                                     single_frame_problem)
from conftest import assert_same_bits

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
        total *= np.sum(grid.axis_weights(a))
    assert total == pytest.approx(sphere_volume(), rel=1e-10)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1,) * 7)


def test_grid_rejects_bins_past_flat_index(rng):
    # the histogram numbers bins by one flat intp index: 512^7 = 2^63 is one past it
    for bins in ((512,) * 7, (2 ** 57, 2, 2, 2, 2, 2, 2)):
        with pytest.raises(ValueError, match="flat intp index"):
            GridSpec(bins)
    est = estimate_density(random_sphere_point(rng, 10), GridSpec.uniform(511))
    assert est.counts.sum() == 10


def test_point_mass_density():
    grid = GridSpec.uniform(3)
    samples = np.tile(E[3], (50, 1))
    est = estimate_density(samples, grid)
    assert len(est.counts) == 1
    assert np.sum(est.densities * est.volumes) == pytest.approx(1.0, abs=1e-12)


def test_density_normalized(rng):
    est = estimate_density(random_sphere_point(rng, 5000), GridSpec.uniform(3))
    assert np.sum(est.densities * est.volumes) == pytest.approx(1.0, abs=1e-9)


def test_uniform_samples_flat_density():
    rng = np.random.default_rng(11)
    est = estimate_density(random_sphere_point(rng, 10 ** 6), GridSpec.uniform(2))
    flat = 1.0 / sphere_volume()
    assert flat == pytest.approx(0.03080, abs=2e-5)
    occupied = est.counts >= 500
    rel = np.abs(est.densities[occupied] - flat) / flat
    assert np.max(rel) < 0.05


def test_histogram_keys_equal_sorted_unique_rows(rng):
    # flat bin keys give the rows, counts and order of a row-wise unique
    grid = GridSpec((2, 3, 4, 5, 3, 2, 6))
    samples = random_sphere_point(rng, 20000)
    est = estimate_density(samples, grid)
    rows, counts = np.unique(grid.bin_indices(to_spherical(samples)), axis=0,
                             return_counts=True)
    np.testing.assert_array_equal(est.indices, rows)
    np.testing.assert_array_equal(est.counts, counts)


@pytest.mark.parametrize("bins", [(2,) * 7, (3,) * 7, (2, 3, 4, 5, 3, 2, 6)])
def test_axis_weights_cached_read_only_and_bitwise_unchanged(bins):
    grid = GridSpec(bins)
    for a, n in enumerate(bins):
        w = grid.axis_weights(a)
        e = np.linspace(0.0, ANGLE_UPPER[a], n + 1)
        ref = (np.diff(e) if SIN_POWERS[a] == 0 else
               np.array([sin_power_integral(SIN_POWERS[a], lo, hi) for lo, hi in zip(e, e[1:])]))
        np.testing.assert_array_equal(w, ref)
        assert w is GridSpec.uniform(n).axis_weights(a)  # shared per (bins[axis], axis)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0


def test_merged_block_counts_equal_one_histogram(rng):
    # blocks of uneven sizes, pooled in a shuffled order, give the one-shot
    # histogram's flat bins, counts, volumes and densities exactly
    grid = GridSpec((2, 3, 4, 5, 3, 2, 6))
    samples = random_cap_point(rng, E[0], 1.5, 20000)
    whole = estimate_density(samples, grid)
    cuts = [0, 1, 4096, 4097, 9000, 20000]
    blocks = [estimate_density(samples[lo:hi], grid) for lo, hi in zip(cuts, cuts[1:])]
    flat, counts = np.empty(0, np.intp), np.empty(0, np.intp)
    for k in rng.permutation(len(blocks)):
        flat, counts = merge_counts(flat, counts, blocks[k].flat, blocks[k].counts)
    merged = counted_density(grid, flat, counts, len(samples))
    for name in ("flat", "indices", "counts", "volumes", "densities"):
        np.testing.assert_array_equal(getattr(merged, name), getattr(whole, name))
    assert merged.counts.dtype == whole.counts.dtype
    assert entropy(merged) == entropy(whole)


def test_density_empty_rejected():
    with pytest.raises(ValueError):
        estimate_density(np.empty((0, 8)), GridSpec.uniform(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_nonfinite_sample_rejected(rng, bad):
    # a non-finite row would otherwise fall into bin (0, ..., 0)
    samples = random_sphere_point(rng, 3)
    samples[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_density(samples, GridSpec.uniform(2))


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


def test_full_frame_effective_polar_diffusion_is_one(rng):
    # the pushed-forward channel fields reproduce the inverse metric
    # (J^T J)^-1, whose leading entry is 1
    problem = brownian_problem(E[0])
    for phi in interior_angles(rng, 5):
        rows = angular_fields(phi, problem)
        d = rows.T @ rows
        jac = chart_jacobian(phi)
        ginv = np.linalg.inv(jac.T @ jac)
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


@pytest.mark.parametrize("problem", [single_frame_problem(1, E[0]), brownian_problem(E[0])],
                         ids=["frame1", "full"])
def test_batched_chart_layer_equals_rowwise(rng, problem):
    # a (3, 4) batch of interior points and one point on the singular set
    phis = interior_angles(rng, 12).reshape(3, 4, 7)
    phis[1, 2, 0] = 0.0
    jac = chart_jacobian(phis)
    rows = angular_fields(phis, problem)
    assert jac.shape == (3, 4, 8, 7) and rows.shape == (3, 4, len(problem.diffusion_fields), 7)
    for idx in np.ndindex(3, 4):
        np.testing.assert_array_equal(jac[idx], chart_jacobian(phis[idx]))
        np.testing.assert_array_equal(rows[idx], angular_fields(phis[idx], problem))


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


def reference_fp_residual(p_fn, fields, phi, dp_dt=0.0, h_outer=1e-3, h_inner=1e-4):
    """The expanded form -1/2 d_i(h^i p m) + 1/2 d^2_ij(D_ij p m) - m dp/dt,
    entry by entry, with the Ito-like drift h^i = sum_a vtilde_a^j d_j vtilde_a^i
    taken by nested differences and D = sum_a vtilde_a vtilde_a^T."""
    from sevensphere.geometry import central_difference, volume_element

    def wrap(q):
        q = np.array(q, dtype=float)
        q[6] %= 2.0 * np.pi
        return q

    def bracket_drift(q):
        q = wrap(q)
        base = angular_fields(q, fields)  # (n_ch, 7)
        dv = central_difference(lambda r: angular_fields(wrap(r), fields), q, h_inner)
        return np.einsum("aj,aij->i", base, dv) * p_fn(q) * volume_element(q)

    def bracket_diff(q, i, j):
        q = wrap(q)
        rows = angular_fields(q, fields)
        return (rows.T @ rows)[i, j] * p_fn(q) * volume_element(q)

    res = -dp_dt * float(volume_element(phi))
    res += -0.5 * np.trace(central_difference(bracket_drift, phi, h_outer))
    for i in range(7):
        for j in range(7):
            if i == j:
                pp, pm = np.array(phi), np.array(phi)
                pp[i] += h_outer
                pm[i] -= h_outer
                d2 = (bracket_diff(pp, i, i) - 2.0 * bracket_diff(phi, i, i)
                      + bracket_diff(pm, i, i)) / h_outer ** 2
            else:
                d2 = 0.0
                for si in (+1.0, -1.0):
                    for sj in (+1.0, -1.0):
                        q = np.array(phi)
                        q[i] += si * h_outer
                        q[j] += sj * h_outer
                        d2 += si * sj * bracket_diff(q, i, j)
                d2 /= 4.0 * h_outer ** 2
            res += 0.5 * d2
    return float(res)


def nonstationary_density(phi):
    """A positive density that varies with the polar and the last angle."""
    return (1.0 + 0.5 * np.cos(phi[..., 0])
            + 0.3 * np.sin(phi[..., 1]) * np.cos(phi[..., 6])) / sphere_volume()


@pytest.mark.parametrize("problem", [single_frame_problem(1, E[0]), brownian_problem(E[0])],
                         ids=["frame1", "full"])
def test_fp_residual_matches_expanded_form(rng, problem):
    # the divergence form equals the drift-plus-diffusion form; the second
    # point's stencils wrap the last angle through 2 pi
    phis = interior_angles(rng, 2)
    phis[1, 6] = 2.0 * np.pi - 5e-4
    for phi in phis:
        expect = reference_fp_residual(nonstationary_density, problem, phi, dp_dt=0.01)
        got = fokker_planck_residual(nonstationary_density, problem, phi, dp_dt=0.01)
        assert got == pytest.approx(expect, abs=1e-6)


def test_fp_residual_makes_two_angular_fields_calls(rng, monkeypatch):
    from sevensphere import density

    shapes = []

    def counted(phi, fields):
        shapes.append(np.shape(phi))
        return angular_fields(phi, fields)

    monkeypatch.setattr(density, "angular_fields", counted)
    fokker_planck_residual(uniform_density(), brownian_problem(E[0]), interior_angles(rng, 1)[0])
    assert sorted(shapes) == [(14, 7), (14, 14, 7)]


def test_fp_residual_rejects_singular_point():
    p = uniform_density()
    problem = single_frame_problem(1, E[0])
    with pytest.raises(ValueError):
        fokker_planck_residual(p, problem, np.array([1e-9, 1, 1, 1, 1, 1, 1]))


@pytest.mark.parametrize("phi6", [np.pi - 5e-4, 5e-4])
def test_fp_residual_rejects_stencil_past_singular_set(phi6):
    # the volume factor here is 1.2e-4, but the stencil reaches phi6 +- 1e-3
    phi = np.array([1.2, 1.2, 1.2, 1.2, 1.2, phi6, 1.0])
    with pytest.raises(ValueError, match="coordinate-singular set"):
        fokker_planck_residual(uniform_density(), brownian_problem(E[0]), phi)


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
        return (1.0 + c * np.cos(phi[..., 0])) / vol

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
    assert abs(rep.martingale_mean) <= 3.0 * rep.stderr
    # linear functions decay at rate 7/2
    assert rep.lhs == pytest.approx((np.exp(-0.35) - 1.0) * z0[0], abs=4 * rep.stderr + 1e-3)


def test_weak_check_all_coordinates_decay():
    z0 = random_sphere_point(np.random.default_rng(23))
    problem = brownian_problem(z0)
    for i in range(8):
        rep = generator_weak_check(problem, lambda z, i=i: np.asarray(z)[..., i],
                                   t=0.1, n_paths=2000, dt=1e-3, seed=29 + i)
        assert abs(rep.martingale_mean) <= 3.0 * rep.stderr


def test_weak_check_constant_function():
    problem = brownian_problem(E[0])
    rep = generator_weak_check(problem, lambda z: np.zeros(np.asarray(z).shape[:-1]),
                               t=0.1, n_paths=100, dt=1e-3, seed=5)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("n_paths", [1, 0])
def test_weak_check_rejects_fewer_than_two_paths(n_paths):
    """One path gave stderr = nan and two RuntimeWarnings from std(ddof=1)."""
    with pytest.raises(ValueError, match=f"n_paths >= 2, got {n_paths}"):
        generator_weak_check(brownian_problem(E[0]), lambda z: np.asarray(z)[..., 0],
                             t=0.01, n_paths=n_paths, dt=1e-3, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = generator_weak_check(brownian_problem(E[0]), lambda z: np.asarray(z)[..., 0],
                                   t=0.01, n_paths=2, dt=1e-3, seed=5)
    assert np.isfinite(rep.stderr) and rep.stderr > 0.0


def kept_states_weak_check(problem, f, t, n_paths, dt, seed):
    """(lhs, rhs, martingale_mean, stderr) by the weak check's formula on the
    whole ensemble's kept states."""
    n_steps = int(round(t / dt))
    save = np.round(np.linspace(0.0, n_steps * dt, WEAK_SAVES) / dt) * dt
    result = simulate_ensemble(problem, n_paths, n_steps, dt, seed,
                               scheme="exact_rotation", save_times=save)
    fvals = f(result.states)
    integral = np.trapezoid(_generator_apply(problem, f, result.states), result.times, axis=1)
    f0 = float(np.asarray(f(problem.initial)))
    d = fvals[:, -1] - f0 - integral
    return (float(np.mean(fvals[:, -1]) - f0), float(np.mean(integral)), float(np.mean(d)),
            float(np.std(d, ddof=1) / np.sqrt(n_paths)))


WEAK_STREAM_PATHS = REDUCE_BLOCK + WEAK_SLICE + 44  # a partial last block and slice


@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_weak_check_equals_kept_states_bitwise(threads):
    problem = brownian_problem(random_sphere_point(np.random.default_rng(41)))

    def f(z):
        z = np.asarray(z)
        return z[..., 0] * z[..., 1] + z[..., 2] ** 2

    rep = generator_weak_check(problem, f, t=0.01, n_paths=WEAK_STREAM_PATHS, dt=1e-3,
                               seed=41, threads=threads)
    assert rep.n_paths == WEAK_STREAM_PATHS
    assert (rep.lhs, rep.rhs, rep.martingale_mean, rep.stderr) == kept_states_weak_check(
        problem, f, 0.01, WEAK_STREAM_PATHS, 1e-3, 41)


def reference_generator_apply(problem, f, states, h=1e-4):
    """(L f)(z) by the per-channel second difference along
    frame_rotation_apply(+-h c), the form _generator_apply takes in one
    frame product per batch."""
    out = np.zeros(states.shape[:-1])
    for c in problem.frame_coefficients:
        zp = frame_rotation_apply(h * c, states)
        zm = frame_rotation_apply(-h * c, states)
        out = out + (f(zp) - 2.0 * f(states) + f(zm)) / h ** 2
    return 0.5 * out


@pytest.mark.parametrize("problem", [
    brownian_problem(E[0]), single_frame_problem(3, E[0]),
    combination_problem(np.array([0.5, -1.0, 0, 2.0, 0, 0, 0.25]), E[0])],
    ids=["full", "frame:3", "combo"])
def test_generator_apply_equals_per_channel_rotations_bitwise(problem):
    rng = np.random.default_rng(43)
    states = random_sphere_point(rng, WEAK_SLICE * WEAK_SAVES).reshape(
        WEAK_SLICE, WEAK_SAVES, 8)
    states[:5] = E[0]  # rows at e_1, where every path starts

    def f(z):
        return z[..., 0] * z[..., 1] + z[..., 2] ** 2 - z[..., 0]

    assert_same_bits(_generator_apply(problem, f, states),
                     reference_generator_apply(problem, f, states))
    at_e1 = states[:5]
    assert_same_bits(_generator_apply(problem, f, at_e1),
                     reference_generator_apply(problem, f, at_e1))


def test_weak_check_quadratic_single_field_vs_gaussian_oracle():
    # f = (z1)^2 under the single rotation field: exact value by averaging the
    # closed-form rotation over the 1D Gaussian increment (quadrature oracle)
    rng = np.random.default_rng(31)
    z0 = random_sphere_point(rng)
    problem = single_frame_problem(1, z0)
    t = 0.25
    rep = generator_weak_check(problem, lambda z: np.asarray(z)[..., 0] ** 2,
                               t=t, n_paths=20000, dt=2.5e-3, seed=31)
    assert abs(rep.martingale_mean) <= 3.0 * rep.stderr
    nodes, weights = np.polynomial.hermite_e.hermegauss(61)
    w = nodes * np.sqrt(t)
    coeff = np.zeros((len(w), 7))
    coeff[:, 0] = w
    rotated = frame_rotation_apply(coeff, np.broadcast_to(z0, (len(w), 8)))
    oracle = float(np.sum(weights / np.sqrt(2 * np.pi) * np.sqrt(2 * np.pi)
                          * rotated[:, 0] ** 2) / np.sum(weights))
    mc = rep.lhs + z0[0] ** 2
    assert mc == pytest.approx(oracle, abs=5e-3)
