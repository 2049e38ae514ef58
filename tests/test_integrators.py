import functools

import numpy as np
import pytest
from scipy import integrate, special
from scipy.linalg import expm

from sevensphere.frames import (FRAME_GENERATORS, CombinedField, frame_field,
                                generator_matrix)
from sevensphere.geometry import geodesic_distance, random_sphere_point
from sevensphere.integrators import (NOISE_BLOCK, NoisePath, SdeProblem,
                                     brownian_problem, combination_problem,
                                     exact_rotation_step, frame_rotation_apply,
                                     frame_rotation_matrix,
                                     heun_stratonovich_step, ito_correction_drift,
                                     ito_euler_step, load_noise_path,
                                     path_generator, sample_brownian,
                                     save_noise_path, simulate_ensemble,
                                     single_frame_problem, write_trajectories_csv)
from conftest import unit_vector

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


def test_noise_save_load_roundtrip(tmp_path):
    path = sample_brownian(50, 0.02, 3, seed=9)
    fname = tmp_path / "noise.csv"
    save_noise_path(path, fname)
    back = load_noise_path(fname)
    assert back.dt == path.dt
    np.testing.assert_array_equal(back.increments, path.increments)


def test_noise_coarsening_conserves_sum():
    path = sample_brownian(103, 0.01, 2, seed=11)
    coarse = path.coarsened(4)
    np.testing.assert_allclose(coarse.increments.sum(axis=0),
                               path.increments.sum(axis=0), atol=1e-15)
    assert coarse.dt == 0.04


# --------------------------------------------------------------------------
# Ito correction
# --------------------------------------------------------------------------

def test_correction_single_frame_exact(rng):
    z = unit_vector(rng)
    for mu in range(1, 8):
        np.testing.assert_array_equal(ito_correction_drift(frame_field(mu), z), -z)


def test_correction_zero_field(rng):
    z = unit_vector(rng)
    zero = CombinedField.constant(np.zeros(7))
    np.testing.assert_allclose(ito_correction_drift(zero, z), np.zeros(8), atol=0)


def test_correction_full_frame(rng):
    z = unit_vector(rng)
    fields = [frame_field(mu) for mu in range(1, 8)]
    np.testing.assert_allclose(ito_correction_drift(fields, z), -7.0 * z, atol=1e-14)


def bent_field():
    """State-dependent field: coefficient z1 on U_1, so no generator."""
    return CombinedField(lambda z: np.stack(
        [z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1))


@pytest.mark.parametrize("fields", [
    lambda z0: tuple(frame_field(mu) for mu in (1, 4, 6)),
    lambda z0: (CombinedField.constant(np.isin(np.arange(1, 8), (2, 5, 7)) * 1.0),),
    lambda z0: (bent_field(),),
], ids=["linear", "combination", "state-dependent"])
def test_correction_batch_matches_rows(rng, fields):
    z = random_sphere_point(rng, 60).reshape(3, 20, 8)
    fields = fields(z[0, 0])
    rows = np.array([[ito_correction_drift(fields, p) for p in row] for row in z])
    np.testing.assert_array_equal(ito_correction_drift(fields, z), rows)


def test_correction_fd_matches_generator(rng):
    z = unit_vector(rng)
    combo = CombinedField.constant(np.array([0.5, 0, -1.0, 0, 0, 2.0, 0]))
    exact = ito_correction_drift(combo, z)

    def bare(x):  # same field without the generator attribute
        return combo(x)

    np.testing.assert_allclose(ito_correction_drift(bare, z), exact, atol=1e-6)


# --------------------------------------------------------------------------
# steps
# --------------------------------------------------------------------------

def test_exact_step_quarter_turn():
    coeffs = np.zeros((1, 7))
    coeffs[0, 0] = 1.0
    out = exact_rotation_step(coeffs, E[0], np.array([np.pi / 2]))
    np.testing.assert_allclose(out, E[1], atol=1e-13)


def test_exact_step_zero_increment(rng):
    z = unit_vector(rng)
    out = exact_rotation_step(np.eye(7), z, np.zeros(7))
    np.testing.assert_array_equal(out, z)


def test_exact_step_isometry(rng):
    x = unit_vector(rng)
    y = unit_vector(rng)
    dw = rng.normal(0, 0.3, 7)
    xr = frame_rotation_apply(dw, x)
    yr = frame_rotation_apply(dw, y)
    assert abs(np.linalg.norm(xr) - 1.0) <= 1e-14
    assert abs(np.dot(xr, yr) - np.dot(x, y)) <= 1e-13


def test_exact_step_turns_by_increment_norm(rng):
    z = random_sphere_point(rng, 50)
    a = rng.normal(0.0, 0.8, (50, 7))
    out = exact_rotation_step(np.eye(7), z, a)
    np.testing.assert_allclose(np.sum(out * z, axis=-1), np.cos(np.linalg.norm(a, axis=-1)),
                               atol=1e-14)


def exact_step_mean_factor(dt):
    """E cos(sqrt(dt) chi_7) in closed form: the stated per-step mean factor."""
    return np.exp(-dt / 2) * (1.0 - 3.0 * dt + dt ** 2 - dt ** 3 / 15.0)


@pytest.mark.parametrize("dt", [1e-3, 1e-2, 5e-2])
def test_exact_step_mean_factor_matches_quadrature(dt):
    # the step angle over seven channels is sqrt(dt) chi_7
    def integrand(r):
        return (np.cos(np.sqrt(dt) * r) * r ** 6 * np.exp(-r * r / 2)
                / (2 ** 2.5 * special.gamma(3.5)))

    quad, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert abs(quad - exact_step_mean_factor(dt)) < 1e-12


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
    out, defect = heun_stratonovich_step(problem, z, np.zeros(1))
    np.testing.assert_allclose(out, z, atol=1e-15)
    assert defect <= 1e-15


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
        exact = exact_rotation_step(problem.frame_coefficients, z, dw)
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
                zx = exact_rotation_step(problem.frame_coefficients, zx, dw)
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
    state = pts.copy()
    for dw in noise.increments:
        state = frame_rotation_apply(dw, state)
    after = geodesic_distance(state[iu[0]], state[iu[1]])
    assert np.max(np.abs(after - before)) < 1e-12


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


def test_shared_channel_combination_matches_single_generator(rng):
    c = np.array([0.6, 0, 0, 0.8, 0, 0, 0])
    z0 = unit_vector(rng)
    problem = combination_problem(c, z0)
    assert problem.n_channels == 1
    dw = np.array([0.3])
    out = exact_rotation_step(problem.frame_coefficients, z0, dw)
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


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
@pytest.mark.parametrize("path_index", [0, 1, 1023, 1024, 2047, 40000, 2 ** 32 - 1])
def test_path_generator_equals_seed_sequence_construction(seed, path_index):
    ours, oracle = path_generator(seed, path_index), seed_sequence_generator(seed, path_index)
    # the state dict holds small arrays, so its repr shows every value
    assert repr(ours.bit_generator.state) == repr(oracle.bit_generator.state)
    np.testing.assert_array_equal(ours.normal(size=(3, 7)), oracle.normal(size=(3, 7)))
    np.testing.assert_array_equal(ours.normal(0.0, 0.1, size=50), oracle.normal(0.0, 0.1, size=50))


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


@functools.cache
def per_path_reference(scheme):
    """Saved states of every path: each path's whole increment stream drawn
    at once from the SeedSequence construction, then all paths stepped as one
    batch by the public step functions."""
    problem = brownian_problem(E[0])
    inc = np.stack([seed_sequence_generator(ENSEMBLE_SEED, i).normal(
        0.0, np.sqrt(ENSEMBLE_DT), size=(ENSEMBLE_STEPS, problem.n_channels))
        for i in range(ENSEMBLE_PATHS)])
    z = np.broadcast_to(problem.initial, (ENSEMBLE_PATHS, 8)).copy()
    saved = [z]
    for step in range(ENSEMBLE_STEPS):
        dw = inc[:, step]
        if scheme == "exact_rotation":
            z = exact_rotation_step(problem.frame_coefficients, z, dw)
        elif scheme == "heun":
            z = heun_stratonovich_step(problem, z, dw)[0]
        else:
            z = ito_euler_step(problem, z, dw, ENSEMBLE_DT)[0]
        if step + 1 in ENSEMBLE_SAVE:
            saved.append(z)
    return np.stack(saved, axis=1)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scheme", ["heun", "exact_rotation", "ito_euler"])
def test_ensemble_equals_per_path_reference(scheme, threads):
    result = simulate_ensemble(brownian_problem(E[0]), ENSEMBLE_PATHS, ENSEMBLE_STEPS,
                               ENSEMBLE_DT, seed=ENSEMBLE_SEED, scheme=scheme,
                               save_times=np.array(ENSEMBLE_SAVE) * ENSEMBLE_DT,
                               threads=threads)
    np.testing.assert_array_equal(result.states, per_path_reference(scheme))


def test_ito_correction_rejects_non_finite():
    def broken(z):
        out = np.asarray(z, dtype=float).copy()
        out[0] = np.nan
        return out

    with pytest.raises(FloatingPointError):
        ito_correction_drift(broken, E[0])


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
    assert problem.generators is not None
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

    def bare(z):  # frame field 3 without its generator attribute
        calls.append(np.shape(z))
        return frame_field(3)(z)

    problem = SdeProblem((frame_field(1), bare), unit_vector(rng))
    assert problem.generators is None
    z = random_sphere_point(rng, 5)
    vals = problem.diffusion_matrix(z)
    assert calls == [(5, 8)]
    np.testing.assert_array_equal(vals, per_field_values(brownian_problem(z[0]), z)[:, [0, 2]])
    h = ito_euler_step(problem, z, np.zeros((5, 2)), 0.01)[0]
    linear = SdeProblem((frame_field(1), frame_field(3)), z[0])
    np.testing.assert_allclose(h, ito_euler_step(linear, z, np.zeros((5, 2)), 0.01)[0],
                               atol=1e-9)


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
    for problem, coeffs in cases:
        np.testing.assert_array_equal(problem.frame_coefficients, coeffs)
        np.testing.assert_array_equal(
            np.tensordot(problem.frame_coefficients, FRAME_GENERATORS, axes=(-1, 0)),
            problem.generators)


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
    """Generator product with the reshaped-transposed table, else np.stack."""
    if problem.generators is not None:
        flat = z @ problem.generators.reshape(-1, 8).T
        return flat.reshape(z.shape[:-1] + problem.generators.shape[:-1])
    return np.stack([np.asarray(f(z), dtype=float) for f in problem.diffusion_fields],
                    axis=-2)


def reference_increment(problem, z, dw):
    return np.einsum("...ci,...c->...i", reference_diffusion_matrix(problem, z), dw)


def reference_renormalize(z):
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / norms, float(np.max(np.abs(norms - 1.0)))


def reference_heun(problem, z, dw):
    incr = reference_increment(problem, z, dw)
    incr2 = reference_increment(problem, z + incr, dw)
    return reference_renormalize(z + 0.5 * (incr + incr2))


def reference_ito_euler(problem, z, dw, dt):
    h = ito_correction_drift(problem.diffusion_fields, z)
    return reference_renormalize(z + 0.5 * dt * h + reference_increment(problem, z, dw))


def reference_combined(coeffs):
    """CombinedField's value with np.linalg.norm and the frame table product."""
    def field(z):
        z = np.asarray(z, dtype=float)
        a = coeffs(z / np.linalg.norm(z, axis=-1, keepdims=True))
        u = (z @ FRAME_GENERATORS.reshape(56, 8).T).reshape(z.shape[:-1] + (7, 8))
        return np.einsum("...m,...mi->...i", a, u)
    return field


def bent_stacked(z):  # z1 times the first frame field, stacked column by column
    return np.stack([z[..., 0]] + [np.zeros_like(z[..., 0])] * 6, axis=-1)


def bent_assigned(z):  # the same coefficients written into zeros
    a = np.zeros(z.shape[:-1] + (7,))
    a[..., 0] = z[..., 0]
    return a


def swirl(z):  # a second state-dependent coefficient field
    return np.stack([z[..., 1] * z[..., 2], np.zeros_like(z[..., 0]), z[..., 3],
                     np.zeros_like(z[..., 0]), -z[..., 0], z[..., 5] ** 2,
                     np.ones_like(z[..., 0])], axis=-1)


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


@pytest.mark.parametrize("n_points", [1, 8, 1024])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
@pytest.mark.parametrize("scheme", ["heun", "ito_euler"])
def test_steps_equal_reference_formulas_bitwise(rng, scheme, case, n_points):
    problem, reference = STEP_CASES[case](rng, unit_vector(rng))
    dt = 0.01
    z = random_sphere_point(rng, n_points)
    if n_points == 1:
        z = z[0]
    zr = z
    for _ in range(3):
        dw = rng.normal(0.0, np.sqrt(dt), z.shape[:-1] + (problem.n_channels,))
        if scheme == "heun":
            (z, defect), (zr, defect_r) = (heun_stratonovich_step(problem, z, dw),
                                           reference_heun(reference, zr, dw))
        else:
            (z, defect), (zr, defect_r) = (ito_euler_step(problem, z, dw, dt),
                                           reference_ito_euler(reference, zr, dw, dt))
        np.testing.assert_array_equal(z, zr)
        assert defect == defect_r
