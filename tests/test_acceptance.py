"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail lines.
"""

import time

import numpy as np
import pytest

from sevensphere import cli as scli
from sevensphere import density as sdens
from sevensphere import exotic as sexo
from sevensphere import flows as sflow
from sevensphere import frames as sfr
from sevensphere import geometry as sgeo
from sevensphere import integrators as sint
from sevensphere import symplectic as ssym

E = np.eye(8)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_frame_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    pts = sgeo.random_sphere_point(rng, 10 ** 4)
    vals = sfr.frame_eval_all(pts)
    gram_dev = float(np.max(np.abs(
        np.einsum("nmi,nki->nmk", vals, vals) - np.eye(7))))
    tang_dev = float(np.max(np.abs(np.einsum("nmi,ni->nm", vals, pts))))
    gen_dev = max(float(np.max(np.abs(
        sfr.generator_matrix(mu) @ sfr.generator_matrix(mu) + np.eye(8))))
        for mu in range(1, 8))
    elapsed = time.perf_counter() - start
    ok = gram_dev <= 1e-12 and tang_dev <= 1e-14 and gen_dev <= 1e-14 and elapsed < 5.0
    report("criterion 1 (frame verification)", ok,
           f"gram={gram_dev:.2e} (tol 1e-12), tangency={tang_dev:.2e} (tol 1e-14), "
           f"J^2+I={gen_dev:.2e} (tol 1e-14), {elapsed:.1f}s (<5s)")


def test_criterion_02_killing_property():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    fields = [sfr.frame_field(mu) for mu in range(1, 8)]
    fields += [sfr.CombinedField.constant(rng.standard_normal(7)) for _ in range(3)]
    for _ in range(100):
        z = sgeo.random_sphere_point(rng)
        for fld in fields:
            worst = max(worst, float(np.max(np.abs(
                sfr.lie_derivative_metric(fld, z, h=1e-5)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report("criterion 2 (Killing property)", ok,
           f"max Lie-derivative entry={worst:.2e} (tol 1e-6), {elapsed:.1f}s (<5s)")


def test_criterion_03_exact_flow_oracle():
    coeffs = np.zeros((1, 7))
    coeffs[0, 0] = 1.0
    quarter = sint.exact_rotation_step(coeffs, E[0], np.array([np.pi / 2]))
    quarter_dev = float(np.max(np.abs(quarter - E[1])))
    rng = np.random.default_rng(103)
    pts = sgeo.random_sphere_point(rng, 10)
    iu = np.triu_indices(10, 1)
    before = sgeo.geodesic_distance(pts[iu[0]], pts[iu[1]])
    noise = sint.sample_brownian(1000, 1e-3, 7, seed=103)
    state = pts
    for dw in noise.increments:
        state = sint.frame_rotation_apply(dw, state)
    distort = float(np.max(np.abs(
        sgeo.geodesic_distance(state[iu[0]], state[iu[1]]) - before)))
    ok = quarter_dev <= 1e-13 and distort <= 1e-12
    report("criterion 3 (exact-flow oracle)", ok,
           f"quarter-turn dev={quarter_dev:.2e} (tol 1e-13), "
           f"n-point distortion over 1000 steps={distort:.2e} (tol 1e-12)")


def test_criterion_04_integrator_convergence():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    z0 = sgeo.random_sphere_point(rng)
    problem = sint.single_frame_problem(1, z0)
    xi = rng.standard_normal(64)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        dw = (np.sqrt(dt) * xi)[:, None]
        z = np.broadcast_to(z0, (64, 8))
        heun, _ = sint.heun_stratonovich_step(problem, z, dw)
        exact = sint.exact_rotation_step(problem.frame_coefficients, z, dw)
        errors.append(float(np.mean(np.linalg.norm(heun - exact, axis=1))))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = all(2.5 <= r <= 3.2 for r in ratios) and elapsed < 30.0
    report("criterion 4 (integrator convergence)", ok,
           f"halving ratios={[f'{r:.3f}' for r in ratios]} (window [2.5, 3.2]), "
           f"{elapsed:.1f}s (<30s)")


def test_criterion_05_weak_mean_decay():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    z0 = sgeo.random_sphere_point(rng)
    t = 0.1
    n = 10 ** 5
    problem = sint.brownian_problem(z0)
    result = sint.simulate_ensemble(problem, n, 100, t / 100, seed=105,
                                    scheme="exact_rotation")
    mean = result.final_states.mean(axis=0)
    se = result.final_states.std(axis=0, ddof=1) / np.sqrt(n)
    target = np.exp(-3.5 * t) * z0
    dev = np.abs(mean - target) / (3.0 * se)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(dev <= 1.0)) and elapsed < 60.0
    report("criterion 5 (weak mean decay e^{-7t/2} = 0.7047)", ok,
           f"max |mean - target|/(3 se)={float(dev.max()):.3f} (<=1), "
           f"{elapsed:.1f}s (<60s)")


def test_criterion_06_ito_stratonovich_correction():
    rng = np.random.default_rng(106)
    exact_ok = True
    for mu in range(1, 8):
        for _ in range(10):
            z = sgeo.random_sphere_point(rng)
            h = z @ sint.single_frame_problem(mu, z).ito_drift
            exact_ok = exact_ok and np.array_equal(h, -z)
    n = 20000
    t = 0.1
    z0 = sgeo.random_sphere_point(rng)
    problem = sint.brownian_problem(z0)
    heun = sint.simulate_ensemble(problem, n, 100, t / 100, seed=1066, scheme="heun")
    ito = sint.simulate_ensemble(problem, n, 100, t / 100, seed=2066,
                                 scheme="ito_euler")
    mh = heun.final_states.mean(axis=0)
    mi = ito.final_states.mean(axis=0)
    se = np.hypot(heun.final_states.std(axis=0, ddof=1),
                  ito.final_states.std(axis=0, ddof=1)) / np.sqrt(n)
    agree = float(np.max(np.abs(mh - mi) / (3.0 * se)))
    ok = exact_ok and agree <= 1.0
    report("criterion 6 (Ito-Stratonovich correction)", ok,
           f"single-field drift == -z exactly: {exact_ok}; "
           f"ito vs heun mean gap / 3se = {agree:.3f} (<=1)")


def test_criterion_07_uniform_stationarity():
    rng = np.random.default_rng(107)
    p = sdens.uniform_density()
    worst = 0.0
    problems = [sint.single_frame_problem(1, E[0]),
                sint.single_frame_problem(4, E[0]),
                sint.brownian_problem(E[0])]
    points = []
    for _ in range(8):
        phi = np.empty(7)
        phi[:6] = rng.uniform(0.7, np.pi - 0.7, 6)
        phi[6] = rng.uniform(0.7, 2 * np.pi - 0.7)
        points.append(phi)
    for problem in problems:
        for phi in points:
            worst = max(worst, abs(sdens.fokker_planck_residual(p, problem, phi)))
    ok = worst < 1e-3
    report("criterion 7 (uniform density stationarity)", ok,
           f"max FP residual={worst:.2e} (tol 1e-3) at {len(points)} interior "
           f"points x {len(problems)} dynamics")


def test_criterion_08_entropy_saturation():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    n = 10 ** 5
    starts = sgeo.random_cap_point(rng, E[0], 0.1, n)
    times = (0.0, 0.2, 0.5, 1.0, 2.0)
    result = sint.simulate_ensemble(sint.brownian_problem(E[0]), n, 200, 0.01,
                                    seed=108, scheme="exact_rotation",
                                    save_times=np.array(times),
                                    initial_points=starts)
    grid = sdens.GridSpec.uniform(4)
    reports = [sdens.entropy(sdens.estimate_density(result.states[:, j, :], grid), t=t)
               for j, t in enumerate(times)]
    monotone = all(b.S_corrected >= a.S_corrected - 2.0 * np.hypot(a.stderr, b.stderr)
                   for a, b in zip(reports, reports[1:]))
    final_dev = abs(reports[-1].S_corrected - sdens.max_entropy())
    elapsed = time.perf_counter() - start
    ok = monotone and final_dev < 0.1 and elapsed < 120.0
    series = ", ".join(f"S({t})={r.S_corrected:.3f}" for t, r in zip(times, reports))
    report("criterion 8 (entropy nondecreasing to log(pi^4/3)=3.4805)", ok,
           f"{series}; final dev={final_dev:.3f} (tol 0.1), {elapsed:.0f}s (<120s)")


def test_criterion_09_flow_laws():
    rng = np.random.default_rng(109)
    pts = sgeo.random_sphere_point(rng, 64)
    noise = sint.sample_brownian(90, 0.01, 7, seed=109)
    cut = 30
    g1 = sflow.RotationFlow.from_noise(np.eye(7),
                                       sint.NoisePath(0.01, noise.increments[:cut]))
    g2 = sflow.RotationFlow.from_noise(np.eye(7),
                                       sint.NoisePath(0.01, noise.increments[cut:]),
                                       s=g1.t)
    whole = g1.compose(g2)
    cocycle = float(np.max(np.linalg.norm(
        g2.apply(g1.apply(pts)) - pts @ whole.as_matrix().T, axis=-1)))
    ident = float(np.max(np.linalg.norm(
        sflow.RotationFlow.identity().apply(pts) - pts, axis=-1)))
    inverse = float(np.max(np.linalg.norm(
        whole.invert().apply(whole.apply(pts)) - pts, axis=-1)))
    residuals, _ = sflow.heun_refinement_residuals(
        sint.brownian_problem(E[0]), pts[:8], seed=1090)
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    ok = cocycle < 1e-12 and ident < 1e-12 and inverse < 1e-12 and decreasing
    report("criterion 9 (flow laws)", ok,
           f"cocycle={cocycle:.2e}, identity={ident:.2e}, inverse={inverse:.2e} "
           f"(tol 1e-12); heun residuals {['%.2e' % r for r in residuals]} decreasing")


def test_criterion_10_group_actions():
    rng = np.random.default_rng(110)
    n = 10 ** 4
    q = ssym.random_unit_quaternion(rng, n)
    Q = ssym.random_sp_matrix(rng, n)
    worst_closure = max(float(np.max(residual))
                        for action in (ssym.bullet_action, ssym.star_action)
                        for residual in ssym.membership_residuals(action(q, Q)))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    R = ssym.real_form(np.cos(theta), np.sin(theta))
    fiber_dev = float(np.max(np.abs(ssym.star_action(ssym.qconj(q), R)
                                    - ssym.bullet_action(q, R))))
    invariance_ok = np.array_equal(ssym.project_bullet(Q),
                                   ssym.project_bullet(ssym.bullet_action(q, Q)))
    ok = worst_closure < 1e-9 and fiber_dev <= 1e-12 and invariance_ok
    report("criterion 10 (group actions)", ok,
           f"closure residual={worst_closure:.2e} (tol 1e-9); fiber conj(q) star R = "
           f"q bullet R dev={fiber_dev:.2e} (tol 1e-12); projection invariance exact: "
           f"{invariance_ok}; {n} pairs each")


def test_criterion_11_exotic_structure():
    rng = np.random.default_rng(111)
    h = sexo.ExoticMap(0.2)
    pts = sgeo.random_sphere_point(rng, 2000)
    roundtrip = float(np.max(np.linalg.norm(h.inverse(h.forward(pts)) - pts,
                                            axis=-1)))
    images = sexo.circle_images(h)
    closure = max(im.closure_error for im in images)
    fixed = [im for im in images if (im.i, im.j) == (1, 2)][0]
    ref = np.zeros_like(fixed.points)
    ref[:, 0] = np.cos(fixed.params)
    ref[:, 1] = np.sin(fixed.params)
    fixed_dev = float(np.max(np.linalg.norm(fixed.points - ref, axis=-1)))
    gaps = sexo.conjugation_gaps(h, seed=111)
    gaps_decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    samples = sgeo.random_cap_point(rng, E[0], 0.8, 30000)
    grid = sdens.GridSpec.uniform(3)
    sphere_rep = sdens.entropy(sdens.estimate_density(samples, grid))
    surface_rep = sexo.entropy_on_surface(h.forward(samples), grid)
    band = 2.0 * max(np.hypot(sphere_rep.stderr, surface_rep.stderr), 1e-3)
    paired = abs(surface_rep.S - sphere_rep.S)
    ok = (roundtrip < 1e-9 and closure < 1e-9 and fixed_dev < 1e-12
          and gaps_decreasing and paired <= band)
    report("criterion 11 (exotic structure)", ok,
           f"roundtrip={roundtrip:.2e} (tol 1e-9); closure={closure:.2e} (tol 1e-9); "
           f"fixed circle={fixed_dev:.2e} (tol 1e-12); conjugation gaps "
           f"{['%.2e' % g for g in gaps]} decreasing; paired entropy gap="
           f"{paired:.4f} (band {band:.4f})")


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = simulate\nseed = 112\nn_paths = 2500\n"
                   "t_final = 0.05\ndt = 0.005\n")
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"w{workers}"
        code = scli.main(["--config", str(cfg), "--output", str(out),
                          "--threads", str(workers)])
        assert code == 0
        blobs.append((out / "trajectories.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("criterion 12 (determinism across workers)", ok,
           f"byte-identical CSVs for 1/4/8 workers: {ok} "
           f"({len(blobs[0])} bytes each)")
