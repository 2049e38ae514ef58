import functools
import re

import numpy as np
import pytest
from scipy import integrate, special
from scipy.linalg import expm

from sevensphere import integrators
from sevensphere.frames import (FRAME_GENERATORS, CombinedField, frame_field,
                                generator_matrix)
from sevensphere.geometry import (central_difference, geodesic_distance, random_sphere_point,
                                  row_norms)
from sevensphere.integrators import (CHUNK, NOISE_BLOCK, REDUCE_BLOCK, NoisePath, SdeProblem,
                                     brownian_problem, combination_problem,
                                     exact_rotation_step, frame_rotation_matrix,
                                     heun_stratonovich_step, ito_euler_step,
                                     path_generator, sample_brownian, simulate_ensemble,
                                     single_frame_problem, write_trajectories_csv)
from conftest import (assert_same_bits, bent_assigned, points_last, reference_combined,
                      swirl, unit_vector)

E = np.eye(8)


# --------------------------------------------------------------------------
# noise
# --------------------------------------------------------------------------

def test_brownian_deterministic():
    a = sample_brownian(100, 0.01, 7, seed=42)
    b = sample_brownian(100, 0.01, 7, seed=42)
    np.testing.assert_array_equal(a.increments, b.increments)


def test_brownian_path_indices_differ():
    a = sample_brownian(10, 0.01, 1, seed=42, path_index=0)
    b = sample_brownian(10, 0.01, 1, seed=42, path_index=1)
    assert np.max(np.abs(a.increments - b.increments)) > 0


def test_brownian_variance():
    path = sample_brownian(10 ** 6, 0.01, 1, seed=1)
    var = float(np.var(path.increments))
    assert abs(var - 0.01) / 0.01 < 0.005


def test_brownian_channels_uncorrelated():
    path = sample_brownian(10 ** 6, 1.0, 7, seed=2)
    corr = np.corrcoef(path.increments.T)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.01


def test_noise_path_validation():
    with pytest.raises(ValueError):
        NoisePath(0.0, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        NoisePath(float("nan"), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        NoisePath(0.1, np.array([[0.0], [np.inf], [0.0]]))
    with pytest.raises(ValueError):
        sample_brownian(0, 0.1, 1, seed=3)


def test_noise_coarsening_conserves_sum():
    path = sample_brownian(103, 0.01, 2, seed=11)
    coarse = path.coarsened(4)
    np.testing.assert_allclose(coarse.increments.sum(axis=0),
                               path.increments.sum(axis=0), atol=1e-15)
    assert coarse.dt == 0.04


@pytest.mark.parametrize("extra", [1, 5], ids=["n_steps+1", "2*n_steps"])
def test_noise_coarsening_past_the_path_keeps_one_remainder_step(extra):
    """A level beyond the path leaves no full group: the one step is the sum
    (numpy could not reshape the empty head by -1 before)."""
    path = sample_brownian(5, 0.01, 2, seed=1)
    coarse = path.coarsened(path.n_steps + extra)
    assert coarse.increments.shape == (1, 2)
    np.testing.assert_array_equal(coarse.increments[0], path.increments.sum(axis=0))
    assert coarse.dt == 0.01 * (path.n_steps + extra)


# --------------------------------------------------------------------------
# Ito correction
# --------------------------------------------------------------------------

def ito_drift(problem):
    """(sum_c J_c J_c)^T with J_c = sum_mu C[c, mu] J_mu from the problem's
    frame coefficients C: z @ it is the Ito drift sum_c (dV_c/dz) V_c(z)."""
    gens = np.tensordot(problem.frame_coefficients, FRAME_GENERATORS, axes=(-1, 0))
    return np.sum(gens @ gens, axis=0).T


def test_correction_single_frame_exact(rng):
    z = unit_vector(rng)
    for mu in range(1, 8):
        np.testing.assert_array_equal(z @ ito_drift(single_frame_problem(mu, z)), -z)


def test_correction_zero_field(rng):
    z = unit_vector(rng)
    zero = SdeProblem((CombinedField.constant(np.zeros(7)),), z)
    np.testing.assert_allclose(z @ ito_drift(zero), np.zeros(8), atol=0)


def test_correction_full_frame(rng):
    z = unit_vector(rng)
    np.testing.assert_allclose(z @ ito_drift(brownian_problem(z)), -7.0 * z, atol=1e-14)


COMBO = np.array([0.3, -1.2, 0.5, 0.8, -0.1, 0.7, -0.4])
FRAME_FIELD_PROBLEMS = pytest.mark.parametrize("make", [
    brownian_problem, functools.partial(single_frame_problem, 3),
    functools.partial(combination_problem, COMBO)], ids=["full", "frame3", "combo"])


@FRAME_FIELD_PROBLEMS
def test_ito_drift_is_minus_frobenius_norm_times_identity(make):
    # K_c = J_c squares to -|C_c|^2 I, so sum_c J_c J_c = -|C|_F^2 I: the
    # Ito-Euler step scales z by 1 - dt |C|_F^2 / 2
    problem = make(E[0])
    c = problem.frame_coefficients
    np.testing.assert_allclose(ito_drift(problem), -np.vdot(c, c) * np.eye(8),
                               rtol=0, atol=4 * np.spacing(np.vdot(c, c)))


def bent_field():
    """State-dependent field: coefficient z1 on U_1, so no generator."""
    return CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))


@pytest.mark.parametrize("fields", [
    lambda z0: tuple(frame_field(mu) for mu in (1, 4, 6)),
    lambda z0: (CombinedField.constant(np.isin(np.arange(1, 8), (2, 5, 7)) * 1.0),),
], ids=["linear", "combination"])
def test_correction_batch_matches_rows(rng, fields):
    z = random_sphere_point(rng, 60).reshape(3, 20, 8)
    drift = ito_drift(SdeProblem(fields(z[0, 0]), z[0, 0]))
    rows = np.array([[np.matmul(p, drift, order="A") for p in row] for row in z])
    np.testing.assert_array_equal(np.matmul(z, drift, order="A"), rows)


def test_correction_fd_matches_generator(rng):
    # the drift sum_c (dV_c/dz) V_c(z), with central-difference Jacobians
    z = unit_vector(rng)
    fields = (CombinedField.constant(np.array([0.5, 0, -1.0, 0, 0, 2.0, 0])), frame_field(4))
    fd = sum(central_difference(f, z, 1e-6) @ f(z) for f in fields)
    np.testing.assert_allclose(z @ ito_drift(SdeProblem(fields, z)), fd, atol=1e-6)


# --------------------------------------------------------------------------
# steps
# --------------------------------------------------------------------------

def test_exact_step_quarter_turn():
    out = exact_rotation_step(single_frame_problem(1, E[0]), E[0], np.array([np.pi / 2]))
    np.testing.assert_allclose(out, E[1], atol=1e-13)


def test_exact_step_zero_increment(rng):
    z = unit_vector(rng)
    out = exact_rotation_step(brownian_problem(z), z, np.zeros(7))
    np.testing.assert_array_equal(out, z)


def test_exact_step_isometry(rng):
    x = unit_vector(rng)
    y = unit_vector(rng)
    dw = rng.normal(0, 0.3, 7)
    xr = exact_rotation_step(brownian_problem(x), x, dw)
    yr = exact_rotation_step(brownian_problem(x), y, dw)
    assert abs(np.linalg.norm(xr) - 1.0) <= 1e-14
    assert abs(np.dot(xr, yr) - np.dot(x, y)) <= 1e-13


def test_exact_step_turns_by_increment_norm(rng):
    z = random_sphere_point(rng, 50)
    a = rng.normal(0.0, 0.8, (50, 7))
    out = exact_rotation_step(brownian_problem(z[0]), z, a)
    np.testing.assert_allclose(np.sum(out * z, axis=-1), np.cos(np.linalg.norm(a, axis=-1)),
                               atol=1e-14)


def exact_step_mean_factor(dt):
    """E cos(sqrt(dt) chi_7) in closed form: the stated per-step mean factor."""
    return np.exp(-dt / 2) * (1.0 - 3.0 * dt + dt ** 2 - dt ** 3 / 15.0)


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 0.02, 5e-2, 0.1])
def test_exact_step_mean_factor_matches_quadrature(dt):
    # the step angle over seven channels is sqrt(dt) chi_7; measured
    # agreement is within 4e-16 at every dt here
    def integrand(r):
        return (np.cos(np.sqrt(dt) * r) * r ** 6 * np.exp(-r * r / 2)
                / (2 ** 2.5 * special.gamma(3.5)))

    quad, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(quad - exact_step_mean_factor(dt)) < 1e-14


def test_exact_step_ensemble_mean_contracts_by_the_stated_factor():
    """Five full-frame steps at dt 0.1 from e1: the mean of z1 is the
    docstring's factor to the fifth, 0.1405, not the continuous law's
    e^{-7t/2} = 0.1738 at t = 0.5, which lies 12-15 SE away at this size."""
    result = simulate_ensemble(brownian_problem(E[0]), 20000, 5, 0.1, seed=1,
                               scheme="exact_rotation")
    z1 = result.final_states[:, 0]
    mean, se = z1.mean(), z1.std(ddof=1) / np.sqrt(z1.size)
    assert abs(mean - exact_step_mean_factor(0.1) ** 5) <= 4.0 * se
    assert abs(mean - np.exp(-3.5 * 0.5)) > 4.0 * se


@pytest.mark.parametrize("dt, rel_err", [(1e-2, -0.0350), (1e-3, -0.0035)])
def test_exact_step_mean_bias_is_first_order(dt, rel_err):
    mean = exact_step_mean_factor(dt) ** round(1.0 / dt)
    assert mean / np.exp(-3.5) - 1.0 == pytest.approx(rel_err, abs=5e-5)


def test_closed_form_rotation_matches_pade_expm(rng):
    # dual route: the anticommutation closed form against scipy's
    # scaling-and-squaring exponential of the same skew matrix
    for _ in range(20):
        a = rng.normal(0, 0.7, 7)
        k = np.tensordot(a, np.stack([generator_matrix(m) for m in range(1, 8)]),
                         axes=(0, 0))
        np.testing.assert_allclose(frame_rotation_matrix(a), expm(k), atol=1e-13)


def test_rotation_matrix_batch_matches_rows(rng):
    a = rng.normal(0, 0.7, (2000, 7))
    rows = np.array([frame_rotation_matrix(x) for x in a])
    np.testing.assert_array_equal(frame_rotation_matrix(a.reshape(40, 50, 7)),
                                  rows.reshape(40, 50, 8, 8))


def test_heun_zero_increment_fixed_point(rng):
    z = unit_vector(rng)
    problem = single_frame_problem(1, z)
    out, norms = heun_stratonovich_step(problem, z, np.zeros(1))
    np.testing.assert_allclose(out, z, atol=1e-15)
    assert np.abs(norms - 1.0).max() <= 1e-15


def test_heun_output_unit_norm(rng):
    z = unit_vector(rng)
    problem = brownian_problem(z)
    out, _ = heun_stratonovich_step(problem, z, rng.normal(0, 0.1, 7))
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14


def test_heun_one_step_order_three_halves():
    # coupled one-step strong error against the exact rotation: the local
    # defect is |dW|^3/6, so halving dt scales the averaged error by 2^(3/2)
    rng = np.random.default_rng(77)
    z0 = random_sphere_point(rng)
    problem = single_frame_problem(1, z0)
    xi = rng.standard_normal(64)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        dw = (np.sqrt(dt) * xi)[:, None]
        z = np.broadcast_to(z0, (64, 8))
        heun, _ = heun_stratonovich_step(problem, z, dw)
        exact = exact_rotation_step(problem, z, dw)
        errors.append(float(np.mean(np.linalg.norm(heun - exact, axis=1))))
    for a, b in zip(errors, errors[1:]):
        assert 2.5 <= a / b <= 3.2


def test_ito_euler_drift_uses_half_correction(rng):
    z = unit_vector(rng)
    problem = single_frame_problem(1, z)
    dt = 1e-4
    out, _ = ito_euler_step(problem, z, np.zeros(1), dt)
    # drift-only step: z + dt/2 * (-z), renormalized; displacement ~ 0
    np.testing.assert_allclose(out, z, atol=1e-12)


# --------------------------------------------------------------------------
# ensembles
# --------------------------------------------------------------------------

def test_exact_rejected_for_state_dependent():
    field = CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))
    problem = SdeProblem((field,), E[0])
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 2, 2, 0.01, seed=1, scheme="exact_rotation")


@pytest.mark.parametrize("fields", [(bent_field,), (lambda: frame_field(1), bent_field)],
                         ids=["bent", "frame1-bent"])
def test_exact_step_rejects_state_dependent_problems(fields):
    problem = SdeProblem(tuple(make() for make in fields), E[0])
    with pytest.raises(ValueError, match="exact_rotation scheme needs every field to be linear"):
        exact_rotation_step(problem, E[:3], np.zeros((3, len(fields))))


@pytest.mark.parametrize("make, dw_shape", [
    (brownian_problem, (3, 1)), (brownian_problem, (3, 8)), (brownian_problem, ()),
    (functools.partial(single_frame_problem, 3), (3, 7)),
    (functools.partial(combination_problem, COMBO), (3, 2))],
    ids=["full-1", "full-8", "full-scalar", "frame3-7", "combo-2"])
def test_exact_step_rejects_noise_of_another_channel_count(make, dw_shape):
    problem = make(E[0])
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(dw_shape))}.* "
                                         rf"{problem.n_channels} channel"):
        exact_rotation_step(problem, E[:3], np.full(dw_shape, 0.1))


def test_ito_euler_rejected_for_state_dependent(monkeypatch):
    drawn = []
    monkeypatch.setattr(integrators, "path_generator", lambda *a: drawn.append(a))
    problem = SdeProblem((bent_field(),), E[0])
    assert problem.frame_coefficients is None
    with pytest.raises(ValueError, match="linear"):
        simulate_ensemble(problem, 2, 2, 0.01, seed=1, scheme="ito_euler")
    assert drawn == []  # rejected before any noise is drawn
    with pytest.raises(ValueError, match="linear"):
        ito_euler_step(problem, E[0], np.zeros(1), 0.01)


def test_strong_error_decreases_with_refinement():
    # shared increments across levels; averaged heun error against the exact flow
    t = 0.5
    z0 = E[0]
    problem = single_frame_problem(2, z0)
    n_paths = 32
    paths = [sample_brownian(512, t / 512, 1, seed=5150, path_index=k)
             for k in range(n_paths)]
    errors = []
    for level in (8, 4, 2, 1):
        level_errors = []
        for fine in paths:
            coarse = fine.coarsened(level)
            z = z0.copy()
            zx = z0.copy()
            for dw in coarse.increments:
                z, _ = heun_stratonovich_step(problem, z, dw)
                zx = exact_rotation_step(problem, zx, dw)
            level_errors.append(np.linalg.norm(z - zx))
        errors.append(float(np.mean(level_errors)))
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_full_frame_mean_decay():
    # linear functions are eigenfunctions of the generator with eigenvalue -7/2
    n = 20000
    t = 0.1
    z0 = np.zeros(8)
    z0[0] = 1.0
    problem = brownian_problem(z0)
    result = simulate_ensemble(problem, n, 100, t / 100, seed=31,
                               scheme="exact_rotation")
    mean = result.final_states.mean(axis=0)
    target = np.exp(-3.5 * t) * z0
    se = result.final_states.std(axis=0, ddof=1) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(mean - target), 3.0 * se + 1e-12)
    assert target[0] == pytest.approx(0.7047, abs=2e-4)


def test_full_frame_quadratic_mode_decay():
    # the trace-free part of (z1)^2 is a degree-2 harmonic with generator
    # eigenvalue -8, so E[(z1)^2] relaxes to 1/8 at rate e^{-8t}
    n = 30000
    t = 0.1
    z0 = random_sphere_point(np.random.default_rng(47))
    problem = brownian_problem(z0)
    result = simulate_ensemble(problem, n, 100, t / 100, seed=47,
                               scheme="exact_rotation")
    vals = result.final_states[:, 0] ** 2
    target = 0.125 + (z0[0] ** 2 - 0.125) * np.exp(-8.0 * t)
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - target) < 3.0 * se


def test_heun_weak_quadratic_mode():
    # heun must reproduce the degree-2 relaxation too, not just the means
    z0 = random_sphere_point(np.random.default_rng(53))
    t = 0.1
    result = simulate_ensemble(brownian_problem(z0), 20000, 100, t / 100,
                               seed=53, scheme="heun")
    vals = result.final_states[:, 0] ** 2
    target = 0.125 + (z0[0] ** 2 - 0.125) * np.exp(-8.0 * t)
    se = vals.std(ddof=1) / np.sqrt(20000)
    assert abs(vals.mean() - target) < 3.0 * se


def test_ito_stratonovich_ensembles_agree():
    n = 20000
    t = 0.1
    z0 = random_sphere_point(np.random.default_rng(8))
    problem = brownian_problem(z0)
    heun = simulate_ensemble(problem, n, 100, t / 100, seed=100, scheme="heun")
    ito = simulate_ensemble(problem, n, 100, t / 100, seed=200, scheme="ito_euler")
    mh = heun.final_states.mean(axis=0)
    mi = ito.final_states.mean(axis=0)
    se = np.hypot(heun.final_states.std(axis=0, ddof=1),
                  ito.final_states.std(axis=0, ddof=1)) / np.sqrt(n)
    np.testing.assert_array_less(np.abs(mh - mi), 3.0 * se + 1e-12)


def test_heun_norm_defect_order_dt():
    z0 = random_sphere_point(np.random.default_rng(4))
    problem = brownian_problem(z0)
    defects = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        result = simulate_ensemble(problem, 64, int(0.2 / dt), dt, seed=64,
                                   scheme="heun")
        defects.append(result.max_renorm_defect)
    assert all(d > 0 for d in defects)
    assert all(a > b for a, b in zip(defects, defects[1:]))


def test_ensemble_deterministic_across_workers():
    z0 = E[0]
    problem = brownian_problem(z0)
    runs = [simulate_ensemble(problem, 2500, 20, 0.01, seed=7, scheme="heun",
                              threads=k) for k in (1, 4, 8)]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].states, other.states)


def test_exact_n_point_isometry_over_many_steps(rng):
    pts = random_sphere_point(rng, 12)
    iu = np.triu_indices(12, 1)
    before = geodesic_distance(pts[iu[0]], pts[iu[1]])
    noise = sample_brownian(1000, 1e-3, 7, seed=12)
    problem = brownian_problem(pts[0])
    state = pts.copy()
    for dw in noise.increments:
        state = exact_rotation_step(problem, state, dw)
    after = geodesic_distance(state[iu[0]], state[iu[1]])
    assert np.max(np.abs(after - before)) < 1e-12


@FRAME_FIELD_PROBLEMS
@pytest.mark.parametrize("scheme", ["heun", "ito_euler"])
def test_frame_field_flows_preserve_n_point_distances(rng, make, scheme):
    # each step turns every point by the same rotation of R^8
    pts = random_sphere_point(rng, 12)
    iu = np.triu_indices(12, 1)
    before = geodesic_distance(pts[iu[0]], pts[iu[1]])
    problem = make(pts[0])
    noise = sample_brownian(1000, 1e-3, problem.n_channels, seed=12)
    state = pts.copy()
    for dw in noise.increments:
        if scheme == "heun":
            state = heun_stratonovich_step(problem, state, dw)[0]
        else:
            state = ito_euler_step(problem, state, dw, noise.dt)[0]
    after = geodesic_distance(state[iu[0]], state[iu[1]])
    assert np.max(np.abs(after - before)) < 1e-12


@FRAME_FIELD_PROBLEMS
@pytest.mark.parametrize("scheme", ["heun", "ito_euler"])
def test_renorm_defect_has_closed_form(make, scheme):
    # |c z + K z| = sqrt(c^2 + |a|^2): with c = 1 - |a|^2/2 (Heun) that is
    # sqrt(1 + |a|^4/4); with c = 1 - dt |C|_F^2 / 2 (Ito-Euler) the largest
    # |a| gives the largest defect over this many steps
    problem = make(E[0])
    n_paths, n_steps, dt, seed = 64, 20, 0.01, 5
    result = simulate_ensemble(problem, n_paths, n_steps, dt, seed=seed, scheme=scheme)
    dw = np.stack([seed_sequence_generator(seed, i).normal(
        0.0, np.sqrt(dt), size=(n_steps, problem.n_channels)) for i in range(n_paths)])
    a = dw @ problem.frame_coefficients
    a2 = np.max(np.vecdot(a, a))
    if scheme == "heun":
        want = np.sqrt(1.0 + a2 ** 2 / 4) - 1.0
    else:
        c = 1.0 - 0.5 * dt * np.vdot(problem.frame_coefficients, problem.frame_coefficients)
        want = np.sqrt(c ** 2 + a2) - 1.0
    assert want > 1e-6
    assert abs(result.max_renorm_defect - want) <= 4 * np.spacing(1.0)


def test_trajectory_and_csv(tmp_path):
    problem = single_frame_problem(1, E[0])
    result = simulate_ensemble(problem, 3, 10, 0.01, seed=77, scheme="heun",
                               save_times=[0.0, 0.05, 0.1])
    assert np.max(np.abs(np.linalg.norm(result.states[1], axis=1) - 1.0)) < 1e-12
    fname = tmp_path / "traj.csv"
    write_trajectories_csv(result, fname)
    lines = fname.read_text().splitlines()
    assert lines[0] == "path_id,t,z1,z2,z3,z4,z5,z6,z7,z8"
    assert len(lines) == 1 + 3 * 3


def test_duplicate_save_times_fill_every_column():
    problem = single_frame_problem(1, E[0])
    once = simulate_ensemble(problem, 3, 10, 0.01, seed=5, scheme="heun",
                             save_times=[0.05])
    twice = simulate_ensemble(problem, 3, 10, 0.01, seed=5, scheme="heun",
                              save_times=[0.05, 0.0, 0.05, 0.0])
    for j in (0, 2):
        np.testing.assert_array_equal(twice.states[:, j], once.states[:, 0])
    for j in (1, 3):
        np.testing.assert_array_equal(twice.states[:, j], np.tile(E[0], (3, 1)))


def test_save_times_validated():
    problem = single_frame_problem(1, E[0])
    with pytest.raises(ValueError):
        simulate_ensemble(problem, 1, 10, 0.01, seed=1, save_times=[0.005])


@pytest.mark.parametrize("bad", [
    {"dt": -0.01}, {"dt": float("nan")}, {"dt": float("inf")}, {"dt": 0.0},
    {"n_steps": -3}, {"n_paths": -1}, {"threads": 0}], ids=lambda bad: "%s=%s" % next(iter(bad.items())))
def test_ensemble_rejects_bad_sizes_before_any_work(bad):
    sizes = dict(n_paths=4, n_steps=5, dt=0.01, threads=1) | bad
    with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
        simulate_ensemble(single_frame_problem(1, E[0]), seed=1, **sizes)


@pytest.mark.parametrize("row, start", [
    (0, np.full(8, np.nan)), (CHUNK + 5, np.full(8, 2.0)), (CHUNK + 5, np.r_[np.inf, np.zeros(7)]),
    (3, (1.0 + 2e-10) * E[0])], ids=["nan", "norm-5.66", "inf", "norm-1+2e-10"])
def test_ensemble_rejects_start_points_off_the_sphere(row, start):
    """At SdeProblem.initial's 1e-10: NaN starts had run to NaN states and
    all-2 starts to states of norm 5.66, without an error."""
    starts = random_sphere_point(np.random.default_rng(9), CHUNK + 8)
    starts[row] = start
    with pytest.raises(ValueError, match=f"initial_points row {row} is not a finite point"):
        simulate_ensemble(single_frame_problem(1, E[0]), CHUNK + 8, 2, 0.01, seed=1,
                          initial_points=starts)
    starts[row] = (1.0 + 5e-11) * E[0]  # within the rule
    result = simulate_ensemble(single_frame_problem(1, E[0]), CHUNK + 8, 2, 0.01, seed=1,
                               initial_points=starts)
    assert np.isfinite(result.states).all()


@pytest.mark.parametrize("start", [np.full(8, np.nan), np.r_[np.inf, np.zeros(7)],
                                   np.r_[np.nan, np.zeros(7)]], ids=["nan", "inf", "one-nan"])
@pytest.mark.parametrize("make", [brownian_problem, functools.partial(single_frame_problem, 1)],
                         ids=["full", "frame1"])
def test_problem_rejects_non_finite_start(make, start):
    """A NaN start had constructed, and its heun and exact_rotation ensembles
    ran to all-NaN states: |NaN - 1| > 1e-10 is False."""
    with pytest.raises(ValueError, match="finite point of the unit sphere"):
        make(start)


def nan_after_a_turn(z):
    """Frame field 1 where z8 <= 0.5, NaN beyond: J1 turns the (z7, z8)
    plane, so a path started near e7 turns NaN once z8 passes 0.5."""
    return np.where(z[..., 7:] > 0.5, np.nan, frame_field(1)(z))


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_defect_is_nan_when_a_path_turns_nan(threads):
    """Paths of the last chunk of the second work item turn NaN mid-run:
    after finite steps, after a finite chunk and after a finite item, each a
    place where Python's max had kept the finite defect."""
    n_paths, n_steps = REDUCE_BLOCK + CHUNK + 16, 20
    starts = np.tile(E[0], (n_paths, 1))
    starts[-16:] = np.cos(0.45) * E[6] + np.sin(0.45) * E[7]
    problem = SdeProblem((nan_after_a_turn,), E[0])
    kept = {}
    result = simulate_ensemble(problem, n_paths, n_steps, 0.01, seed=3, threads=threads,
                               initial_points=starts,
                               reduce=lambda lo, block: kept.update({lo: block[:, -1].copy()}))
    final = np.concatenate([kept[lo] for lo in sorted(kept)])
    assert np.isfinite(final[:-16]).all()
    assert np.isnan(final[-16:]).any() and np.isfinite(final[-16:]).any()
    assert np.isnan(result.max_renorm_defect)
    clean = simulate_ensemble(problem, n_paths - 16, n_steps, 0.01, seed=3, threads=threads,
                              initial_points=starts[:-16], reduce=lambda lo, block: None)
    assert np.isfinite(clean.max_renorm_defect) and clean.max_renorm_defect > 0.0


def test_problem_rejects_empty_field_tuple():
    with pytest.raises(ValueError, match="at least one diffusion field"):
        SdeProblem((), E[0])


def test_shared_channel_combination_matches_single_generator(rng):
    c = np.array([0.6, 0, 0, 0.8, 0, 0, 0])
    z0 = unit_vector(rng)
    problem = combination_problem(c, z0)
    assert problem.n_channels == 1
    dw = np.array([0.3])
    out = exact_rotation_step(problem, z0, dw)
    k = 0.6 * generator_matrix(1) + 0.8 * generator_matrix(4)
    np.testing.assert_allclose(out, expm(0.3 * k) @ z0, atol=1e-13)


def test_path_generator_reproducible():
    a = path_generator(99, 5).normal(size=4)
    b = path_generator(99, 5).normal(size=4)
    np.testing.assert_array_equal(a, b)


def seed_sequence_generator(seed, path_index):
    """The per-path generator spelled out with numpy's SeedSequence."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(path_index,))
    return np.random.Generator(np.random.Philox(seq))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5,
                                  2 ** 128 + 7, 2 ** 200 + 11])
@pytest.mark.parametrize("path_index", [0, 1, 1023, 1024, 2047, 40000, 2 ** 32 - 1])
def test_path_generator_equals_seed_sequence_construction(seed, path_index):
    used = seed_sequence_generator(5, 3)  # midway through another stream,
    used.normal(size=3)
    used.integers(5)  # with a buffered uint32
    state = used.bit_generator.state
    assert state["buffer"].any() and state["has_uint32"] == 1
    rekeyed = path_generator(seed, path_index, into=used)
    assert rekeyed is used
    for ours in (path_generator(seed, path_index), rekeyed):
        oracle = seed_sequence_generator(seed, path_index)
        # the state dict holds small arrays, so its repr shows every value
        assert repr(ours.bit_generator.state) == repr(oracle.bit_generator.state)
        np.testing.assert_array_equal(ours.normal(size=(3, 7)), oracle.normal(size=(3, 7)))
        np.testing.assert_array_equal(ours.normal(0.0, 0.1, size=50),
                                      oracle.normal(0.0, 0.1, size=50))


def test_path_generators_are_independent_objects():
    a, b = path_generator(3, 5), path_generator(3, 5)
    first = a.normal(size=10)
    np.testing.assert_array_equal(b.normal(size=10), first)
    assert not np.array_equal(a.normal(size=10), first)


@pytest.mark.parametrize("seed, path_index", [(1, -1), (1, 2 ** 32), (-1, 0)])
def test_path_generator_rejects_out_of_range(seed, path_index):
    with pytest.raises(ValueError):
        path_generator(seed, path_index)


ENSEMBLE_SEED, ENSEMBLE_PATHS, ENSEMBLE_DT = 21, 1500, 0.01  # two path chunks
ENSEMBLE_STEPS = NOISE_BLOCK + 7  # two noise blocks
ENSEMBLE_SAVE = (0, 1, NOISE_BLOCK, ENSEMBLE_STEPS)


def per_path_reference(scheme, paths, n_steps, save):
    """Saved states of the given paths: each path's whole increment stream
    drawn at once from the SeedSequence construction, then all paths stepped
    as one batch by the public step functions."""
    problem = brownian_problem(E[0])
    inc = np.stack([seed_sequence_generator(ENSEMBLE_SEED, i).normal(
        0.0, np.sqrt(ENSEMBLE_DT), size=(n_steps, problem.n_channels)) for i in paths])
    z = np.broadcast_to(problem.initial, (len(inc), 8)).copy()
    saved = [z] if 0 in save else []
    for step in range(n_steps):
        dw = inc[:, step]
        if scheme == "exact_rotation":
            z = exact_rotation_step(problem, z, dw)
        elif scheme == "heun":
            z = heun_stratonovich_step(problem, z, dw)[0]
        else:
            z = ito_euler_step(problem, z, dw, ENSEMBLE_DT)[0]
        if step + 1 in save:
            saved.append(z)
    return np.stack(saved, axis=1)


@functools.cache
def ensemble_reference(scheme):
    return per_path_reference(scheme, range(ENSEMBLE_PATHS), ENSEMBLE_STEPS, ENSEMBLE_SAVE)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme", ["heun", "exact_rotation", "ito_euler"])
def test_ensemble_equals_per_path_reference(scheme, threads):
    result = simulate_ensemble(brownian_problem(E[0]), ENSEMBLE_PATHS, ENSEMBLE_STEPS,
                               ENSEMBLE_DT, seed=ENSEMBLE_SEED, scheme=scheme,
                               save_times=np.array(ENSEMBLE_SAVE) * ENSEMBLE_DT,
                               threads=threads)
    np.testing.assert_array_equal(result.states, ensemble_reference(scheme))


@pytest.mark.parametrize("threads", [1, 2])
def test_each_path_generator_built_once_in_chunk_order(monkeypatch, threads):
    """A full chunk and a partial one over two noise blocks: every path's
    generator is keyed once, within its chunk in index order, and the second
    block draws from the same generators."""
    made, real = [], integrators.path_generator

    def recording(seed, index, into=None):
        made.append((seed, index))
        return real(seed, index, into=into)

    monkeypatch.setattr(integrators, "path_generator", recording)
    n_paths = CHUNK + 76
    simulate_ensemble(brownian_problem(E[0]), n_paths, NOISE_BLOCK + 3, 0.01, seed=9,
                      scheme="exact_rotation", threads=threads)
    assert sorted(made) == [(9, i) for i in range(n_paths)]
    for lo in range(0, n_paths, CHUNK):
        hi = min(lo + CHUNK, n_paths)
        assert [i for _, i in made if lo <= i < hi] == list(range(lo, hi))


def test_workers_rekey_generators_across_chunks():
    """Three chunks past one noise block, on one worker and on two: a worker
    re-keys generators that carry its previous chunk's state, and each path
    still draws its own stream."""
    n_paths, n_steps, save = 2 * CHUNK + 5, NOISE_BLOCK + 2, (1, NOISE_BLOCK + 2)
    one, two = (simulate_ensemble(brownian_problem(E[0]), n_paths, n_steps, ENSEMBLE_DT,
                                  seed=ENSEMBLE_SEED, scheme="exact_rotation",
                                  save_times=np.array(save) * ENSEMBLE_DT,
                                  threads=threads).states for threads in (1, 2))
    np.testing.assert_array_equal(two, one)
    ends = [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK, n_paths - 1]
    np.testing.assert_array_equal(two[ends], per_path_reference("exact_rotation", ends,
                                                                n_steps, save))


REDUCED_PATHS = 2 * REDUCE_BLOCK + CHUNK + 5  # two full work items, then one ending mid-chunk
REDUCED_SAVE = (0, 1, 3)


@functools.cache
def reduced_reference():
    return per_path_reference("exact_rotation", range(REDUCED_PATHS), 3, REDUCED_SAVE)


def reduced_ensemble(threads, reduce=None):
    return simulate_ensemble(brownian_problem(E[0]), REDUCED_PATHS, 3, ENSEMBLE_DT,
                             seed=ENSEMBLE_SEED, scheme="exact_rotation",
                             save_times=np.array(REDUCED_SAVE) * ENSEMBLE_DT,
                             threads=threads, reduce=reduce)


@pytest.mark.parametrize("threads", [1, 2])
def test_default_reducer_states_equal_per_path_reference(threads):
    np.testing.assert_array_equal(reduced_ensemble(threads).states, reduced_reference())


def test_reduced_result_refuses_states_it_did_not_keep():
    result = simulate_ensemble(brownian_problem(E[0]), 3, 1, ENSEMBLE_DT,
                               seed=ENSEMBLE_SEED, reduce=lambda lo, block: None)
    assert result.states is None
    for attr in ("n_paths", "final_states"):
        with pytest.raises(ValueError, match="reduce"):
            getattr(result, attr)


@pytest.mark.parametrize("threads", [1, 2])
def test_reducer_sees_every_path_once_in_fixed_blocks(threads):
    import threading

    seen = {}

    def reduce(lo, block):
        assert lo not in seen
        seen[lo] = (block.copy(), threading.get_ident())

    result = reduced_ensemble(threads, reduce)
    assert result.states is None
    assert sorted((lo, len(b)) for lo, (b, _) in seen.items()) == [
        (0, REDUCE_BLOCK), (REDUCE_BLOCK, REDUCE_BLOCK), (2 * REDUCE_BLOCK, CHUNK + 5)]
    np.testing.assert_array_equal(np.concatenate([seen[lo][0] for lo in sorted(seen)]),
                                  reduced_reference())
    workers = {ident for _, ident in seen.values()}
    assert (workers == {threading.get_ident()}) == (threads == 1)


# --------------------------------------------------------------------------
# linear diffusion fields: one product with the stacked generators
# --------------------------------------------------------------------------

def per_field_values(problem, z):
    return np.stack([f(z) for f in problem.diffusion_fields], axis=-2)


@pytest.mark.parametrize("make", [
    lambda z0: brownian_problem(z0),
    lambda z0: SdeProblem(tuple(frame_field(mu) for mu in (2, 5, 7)), z0),
    *[lambda z0, mu=mu: single_frame_problem(mu, z0) for mu in range(1, 8)],
], ids=["brownian", "three-frame"] + [f"frame{mu}" for mu in range(1, 8)])
def test_stacked_generators_match_per_field_bitwise(rng, make):
    problem = make(unit_vector(rng))
    assert problem.frame_coefficients is not None
    z = random_sphere_point(rng, 60).reshape(3, 20, 8)
    np.testing.assert_array_equal(problem.diffusion_matrix(z), per_field_values(problem, z))
    np.testing.assert_array_equal(problem.diffusion_matrix(z[0, 0]),
                                  per_field_values(problem, z[0, 0]))


def test_stacked_combination_matches_per_field(rng):
    problem = combination_problem(rng.standard_normal(7), unit_vector(rng))
    z = random_sphere_point(rng, 200)
    np.testing.assert_allclose(problem.diffusion_matrix(z), per_field_values(problem, z),
                               rtol=0, atol=1e-15)


def test_field_without_generator_takes_per_field_path(rng):
    calls = []

    def bare(z):  # frame field 3 without its coefficients, so without a generator
        calls.append(np.shape(z))
        return frame_field(3)(z)

    problem = SdeProblem((frame_field(1), bare), unit_vector(rng))
    assert problem.frame_coefficients is None
    z = random_sphere_point(rng, 5)
    vals = problem.diffusion_matrix(z)
    assert calls == [(5, 8)]
    np.testing.assert_array_equal(vals, per_field_values(brownian_problem(z[0]), z)[:, [0, 2]])
    with pytest.raises(ValueError, match="linear"):
        ito_euler_step(problem, z, np.zeros((5, 2)), 0.01)


# --------------------------------------------------------------------------
# exact-rotation coefficients: read off the fields
# --------------------------------------------------------------------------

def test_frame_coefficients_follow_the_fields(rng):
    z0 = unit_vector(rng)
    c = rng.standard_normal(7)
    cases = [(brownian_problem(z0), np.eye(7)),
             (combination_problem(c, z0), np.atleast_2d(c)),
             (SdeProblem(tuple(frame_field(mu) for mu in (2, 5, 7)), z0),
              np.eye(7)[[1, 4, 6]])]
    cases += [(single_frame_problem(mu, z0), np.eye(7)[mu - 1:mu]) for mu in range(1, 8)]
    z = random_sphere_point(rng, 20)
    for problem, coeffs in cases:
        np.testing.assert_array_equal(problem.frame_coefficients, coeffs)
        gens = np.tensordot(coeffs, FRAME_GENERATORS, axes=(-1, 0))
        np.testing.assert_array_equal(problem.diffusion_matrix(z),
                                      (z @ gens.reshape(-1, 8).T).reshape(20, -1, 8))


def test_field_without_coefficients_has_no_exact_scheme():
    def bare(z):  # frame field 3 without its attributes
        return frame_field(3)(z)

    for fields in ((bare,), (frame_field(1), bare)):
        problem = SdeProblem(fields, E[0])
        assert problem.frame_coefficients is None
        with pytest.raises(ValueError, match="coefficients"):
            simulate_ensemble(problem, 2, 2, 0.01, seed=1, scheme="exact_rotation")


# --------------------------------------------------------------------------
# step layer pinned bit for bit to its plain numpy formulas
# --------------------------------------------------------------------------

def reference_diffusion_matrix(problem, z):
    """Product with the reshaped-transposed table of the generators
    J_c = sum_mu C[c, mu] J_mu, else np.stack."""
    if problem.frame_coefficients is not None:
        gens = np.tensordot(problem.frame_coefficients, FRAME_GENERATORS, axes=(-1, 0))
        return (z @ gens.reshape(-1, 8).T).reshape(z.shape[:-1] + gens.shape[:-1])
    return np.stack([np.asarray(f(z), dtype=float) for f in problem.diffusion_fields],
                    axis=-2)


def reference_increment(problem, z, dw):
    return np.einsum("...ci,...c->...i", reference_diffusion_matrix(problem, z), dw)


def reference_renormalize(z):
    """z / |z|, |z| and z itself, the point before renormalization."""
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / norms, norms, z


def reference_heun(problem, z, dw):
    incr = reference_increment(problem, z, dw)
    incr2 = reference_increment(problem, z + incr, dw)
    return reference_renormalize(z + 0.5 * (incr + incr2))


def reference_ito_euler(problem, z, dw, dt):
    h = z @ ito_drift(problem)
    return reference_renormalize(z + 0.5 * dt * h + reference_increment(problem, z, dw))


def reference_rotation_form(problem, z, dw, c):
    """c z + K z renormalized, K = sum_c dw_c J_c: the closed form of both
    steps on frame-coefficient fields."""
    return reference_renormalize(c * z + reference_increment(problem, z, dw))


def reference_heun_rotation(problem, z, dw):
    a = dw @ problem.frame_coefficients
    return reference_rotation_form(problem, z, dw, 1.0 - 0.5 * np.vecdot(a, a)[..., None])


def reference_ito_euler_rotation(problem, z, dw, dt):
    c = problem.frame_coefficients
    return reference_rotation_form(problem, z, dw, 1.0 - 0.5 * dt * np.vdot(c, c))


# The closed form differs from the predictor-corrector and drift formulas
# only by rounding: measured at most 1.5 units in the last place of 1 per
# coordinate and in the norm, over 40 seeds at dt 1e-2 and 1e-4.
CLOSED_FORM_ULPS = 2


def bent_stacked(z):  # z1 times the first frame field, stacked column by column
    return np.stack([z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1)


STEP_CASES = {
    "brownian": lambda rng, z0: (brownian_problem(z0),) * 2,
    "frame3": lambda rng, z0: (single_frame_problem(3, z0),) * 2,
    "combo": lambda rng, z0: (combination_problem(rng.standard_normal(7), z0),) * 2,
    "bent": lambda rng, z0: (SdeProblem((CombinedField(bent_assigned),), z0),
                             SdeProblem((reference_combined(bent_stacked),), z0)),
    "two-field": lambda rng, z0: (
        SdeProblem((CombinedField(bent_assigned), CombinedField(swirl)), z0),
        SdeProblem((reference_combined(bent_stacked), reference_combined(swirl)), z0)),
}


LINEAR_CASES = ("brownian", "frame3", "combo")  # the fields ito_euler takes


# the layout in the id only where it is not C order, so the C-order ids stay
LAYOUTS = pytest.mark.parametrize("n_points, layout", [
    (1, "C"), (8, "C"), (1024, "C"), (8, "points-last"), (1024, "points-last")],
    ids=["1", "8", "1024", "8-points-last", "1024-points-last"])


@LAYOUTS
@pytest.mark.parametrize("scheme, case", [
    (scheme, case) for scheme in ("heun", "ito_euler") for case in sorted(STEP_CASES)
    if scheme == "heun" or case in LINEAR_CASES])
def test_steps_equal_reference_formulas_bitwise(rng, scheme, case, n_points, layout):
    """State-dependent fields: bit for bit the predictor-corrector formula.
    Frame-coefficient fields: bit for bit the rotation form, and within
    CLOSED_FORM_ULPS of the predictor-corrector or drift formula."""
    problem, reference = STEP_CASES[case](rng, unit_vector(rng))
    linear = problem.frame_coefficients is not None
    layout = points_last if layout == "points-last" else np.asarray
    dt = 0.01
    z = random_sphere_point(rng, n_points)
    if n_points == 1:
        z = z[0]
    for _ in range(3):
        dw = rng.normal(0.0, np.sqrt(dt), z.shape[:-1] + (problem.n_channels,))
        if scheme == "heun":
            got = heun_stratonovich_step(problem, layout(z), layout(dw))
            formula = reference_heun(reference, z, dw)
            want = reference_heun_rotation(reference, z, dw) if linear else formula
        else:
            got = ito_euler_step(problem, layout(z), layout(dw), dt)
            formula = reference_ito_euler(reference, z, dw, dt)
            want = reference_ito_euler_rotation(reference, z, dw, dt)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])
        bound = CLOSED_FORM_ULPS * np.spacing(1.0)
        assert np.max(np.abs(got[0] - formula[0])) <= bound
        assert np.max(np.abs(got[1] - formula[1])) <= bound
        if layout is points_last and n_points > 1 and linear:
            assert got[0].flags.f_contiguous  # linear fields keep an ensemble chunk points-last
        z = want[0]


def test_one_field_step_keeps_the_einsum_signed_zeros(rng):
    """At -e1, whose other coordinates are -0.0, the bent field is +0.0 off
    its one moving coordinate.  Times a negative dw those zeros are -0.0 as a
    plain product but +0.0 from the einsum over channels, and added to z's
    -0.0 they leave -0.0 and +0.0: the step must take the einsum's bits."""
    problem, reference = STEP_CASES["bent"](rng, E[0])
    for z in (-E[0], -E[:3]):
        for sign in (-1.0, 1.0):
            dw = np.full(z.shape[:-1] + (1,), sign * 0.1)
            got = heun_stratonovich_step(problem, z, dw)
            want = reference_heun(reference, z, dw)
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])


@pytest.mark.parametrize("scheme, case", [
    ("heun", "brownian"), ("heun", "combo"), ("heun", "two-field"), ("heun", "bent"),
    ("ito_euler", "brownian"), ("ito_euler", "frame3")])
def test_steps_return_the_norms_they_divide_by(rng, scheme, case):
    """The second value of a step is row_norms of its point before
    renormalization, bit for bit, and the new points are that point over it."""
    problem, reference = STEP_CASES[case](rng, E[0])
    z = random_sphere_point(rng, 8)
    for _ in range(3):
        dw = rng.normal(0.0, 0.1, (8, problem.n_channels))
        if scheme == "heun":
            got = heun_stratonovich_step(problem, z, dw)
            want = (reference_heun_rotation(reference, z, dw)
                    if problem.frame_coefficients is not None
                    else reference_heun(reference, z, dw))
        else:
            got = ito_euler_step(problem, z, dw, 0.01)
            want = reference_ito_euler_rotation(reference, z, dw, 0.01)
        assert got[1].shape == (8, 1)
        assert_same_bits(got[1], row_norms(want[2]))
        assert_same_bits(got[0], want[2] / got[1])
        z = got[0]


@pytest.mark.parametrize("scheme, case", [
    ("heun", "brownian"), ("heun", "bent"), ("ito_euler", "brownian"), ("ito_euler", "combo")])
def test_ensemble_defect_folds_the_steps_norms(rng, scheme, case):
    """max_renorm_defect is the largest |norms - 1| of every step of every
    path, folded as before the steps returned their norms: per step the
    argmax of |norms - 1|, across steps and path chunks Python's max."""
    problem = STEP_CASES[case](rng, E[0])[0]
    n_paths, n_steps, dt, seed = CHUNK + 40, 12, 0.01, 8  # two path chunks
    result = simulate_ensemble(problem, n_paths, n_steps, dt, seed=seed, scheme=scheme)
    dw = np.stack([seed_sequence_generator(seed, i).normal(
        0.0, np.sqrt(dt), size=(n_steps, problem.n_channels)) for i in range(n_paths)])
    want = 0.0
    for chunk in (slice(0, CHUNK), slice(CHUNK, n_paths)):
        z = np.tile(E[0], (len(dw[chunk]), 1))
        for step in range(n_steps):
            if scheme == "heun":
                z, norms = heun_stratonovich_step(problem, z, dw[chunk, step])
            else:
                z, norms = ito_euler_step(problem, z, dw[chunk, step], dt)
            defect = np.abs(norms - 1.0)
            want = max(want, float(defect.flat[defect.argmax()]))
        np.testing.assert_array_equal(result.states[chunk, -1], z)
    assert want > 0.0
    assert result.max_renorm_defect == want


@pytest.mark.parametrize("row", [0, 5, 7])
def test_renorm_defect_is_nan_when_a_point_is(rng, row):
    """The defect of a step's norms is the first NaN of the batch, not the
    largest of the finite rows, wherever the NaN row sits."""
    problem, reference = STEP_CASES["brownian"](rng, E[0])
    z = random_sphere_point(rng, 8)
    z[row] = np.nan
    dw = rng.normal(0.0, 0.1, (8, 7))
    for got in (heun_stratonovich_step(problem, z, dw), ito_euler_step(problem, z, dw, 0.01)):
        assert np.isnan(integrators._norm_defect(got[1]))
        assert np.isnan(got[1][row]).all() and np.isfinite(np.delete(got[1], row, 0)).all()
        assert np.isnan(got[0][row]).all() and np.isfinite(np.delete(got[0], row, 0)).all()


@pytest.mark.parametrize("scheme, fields, n_points, dw_shape", [
    ("heun", ("bent",), 1, (3,)),          # the channels' sum drove the field
    ("heun", ("bent",), 8, (8, 8)),        # likewise per point
    ("ito_euler", ("frame1",), 1, (3,)),   # likewise
    ("heun", ("bent", "swirl"), 1, (1,)),  # one increment drove both fields
    ("heun", ("frame1",), 1, ()),          # no channel axis at all
], ids=["bent-1", "bent-8", "ito-frame1", "two-field", "scalar"])
def test_steps_reject_noise_of_another_channel_count(rng, scheme, fields, n_points, dw_shape):
    """einsum broadcasts a size-1 channel axis, so each of these stepped
    without an error before the steps checked dw against the fields."""
    make = {"bent": lambda: CombinedField(bent_assigned), "swirl": lambda: CombinedField(swirl),
            "frame1": lambda: frame_field(1)}
    problem = SdeProblem(tuple(make[f]() for f in fields), E[0])
    z = random_sphere_point(rng, n_points)
    z = z[0] if n_points == 1 else z
    dw = np.full(dw_shape, 0.1)
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(dw_shape))}.* {len(fields)} channel"):
        if scheme == "heun":
            heun_stratonovich_step(problem, z, dw)
        else:
            ito_euler_step(problem, z, dw, 0.01)


def reference_frame_table_rotation(a, z):
    """exp(sum_mu a_mu J_mu) z by the seven frame fields' values: the C-order
    frame table product, einsum over the fields, np.linalg.norm, np.cos and
    np.sinc."""
    u = (z @ FRAME_GENERATORS.reshape(56, 8).T).reshape(z.shape[:-1] + (7, 8))
    kz = np.einsum("...m,...mi->...i", a, u)
    w = np.linalg.norm(a, axis=-1, keepdims=True)
    return np.cos(w) * z + np.sinc(w / np.pi) * kz


def reference_exact_rotation(problem, z, dw):
    """cos|a| z + sinc|a| K z, a = dw @ C and K z the problem's increment."""
    w = np.linalg.norm(dw @ problem.frame_coefficients, axis=-1, keepdims=True)
    return np.cos(w) * z + np.sinc(w / np.pi) * reference_increment(problem, z, dw)


@LAYOUTS
@pytest.mark.parametrize("coefficients", ["eye", "combination", "random-3x7"])
def test_rotation_steps_equal_reference_formula_bitwise(rng, coefficients, n_points, layout):
    """The exact step takes K z from the problem's generator table, as Heun
    and Ito-Euler do.  On the seven frame fields that has the bits of the
    frame-value form the step took before, so every full-frame ensemble keeps
    its bytes."""
    c = {"eye": np.eye(7), "combination": rng.standard_normal((1, 7)),
         "random-3x7": rng.standard_normal((3, 7))}[coefficients]
    problem = SdeProblem(tuple(CombinedField.constant(row) for row in c), E[0])
    layout = points_last if layout == "points-last" else np.asarray
    z = random_sphere_point(rng, n_points)
    if n_points == 1:
        z = z[0]
    for _ in range(3):
        dw = rng.normal(0.0, 0.1, z.shape[:-1] + (len(c),))
        want = reference_exact_rotation(problem, z, dw)
        got = exact_rotation_step(problem, layout(z), layout(dw))
        assert_same_bits(got, want)
        if coefficients == "eye":
            assert_same_bits(got, reference_frame_table_rotation(dw, z))
        if layout is points_last and n_points > 1:
            assert got.flags.f_contiguous  # an ensemble chunk stays points-last
        z = want


def test_default_reducer_spreads_chunks_over_workers(monkeypatch):
    # Two chunks, two workers: each chunk is its own work item, so both
    # workers step at once and meet at the barrier. One item of both chunks
    # would leave one worker waiting alone until the barrier times out.
    import threading

    def run(threads):
        return simulate_ensemble(brownian_problem(E[0]), 2 * CHUNK, 1, ENSEMBLE_DT,
                                 seed=ENSEMBLE_SEED, scheme="exact_rotation",
                                 threads=threads).states

    serial = run(1)
    barrier = threading.Barrier(2, timeout=10)
    step_chunk = integrators._simulate_chunk

    def meeting(*args):
        barrier.wait()
        return step_chunk(*args)

    monkeypatch.setattr(integrators, "_simulate_chunk", meeting)
    np.testing.assert_array_equal(run(2), serial)
