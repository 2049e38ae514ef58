"""Reproducible experiment runner.

Configuration is flat ``key = value`` text (``--print-schema`` documents the
keys).  Every run writes its artifacts and a machine-readable summary into
the output directory and exits 0 only if all checks pass (2 on config errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import density as sdens
from . import exotic as sexo
from . import flows as sflow
from . import frames as sfr
from . import geometry as sgeo
from . import integrators as sint

EXPERIMENTS = ("frame-verify", "simulate", "flow-check", "entropy",
               "fp-check", "exotic-compare", "circles")
BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ConfigError(ValueError):
    pass


def _key(doc: str, default=dataclasses.MISSING, echo: bool = True,
         read_by: tuple = EXPERIMENTS):
    """A config key: its ``--print-schema`` doc, which names the default as a
    config value would spell it, its default and the experiments that read
    it; the parser rejects it for any other.  ``echo`` False keeps it out of
    the summary's config echo."""
    if default is not dataclasses.MISSING:
        doc += f" (default {str(default).lower()})"
    doc += "; read by " + ("every experiment" if read_by == EXPERIMENTS
                           else ", ".join(read_by))
    return field(default=default, metadata={"doc": doc, "echo": echo,
                                            "read_by": read_by})


@dataclass
class ExperimentConfig:
    """One run's settings.  Every field with a doc is a config key; the
    schema, the parse and the summary's config echo are read off the fields.
    Construction (and ``dataclasses.replace``) validates."""

    experiment: str = _key("one of frame-verify | simulate | flow-check | entropy | "
                           "fp-check | exotic-compare | circles")
    seed: int = _key("master seed (required; no wall-clock default)")
    n_paths: int = _key("ensemble size", 1000,
                        read_by=("simulate", "entropy", "fp-check", "exotic-compare"))
    n_points: int = _key("point count for geometric checks", 500,
                         read_by=("frame-verify", "exotic-compare"))
    dt: float = _key("time step", 0.01,
                     read_by=("simulate", "flow-check", "entropy", "exotic-compare"))
    t_final: float = _key("final time", 1.0, read_by=("simulate", "flow-check"))
    scheme: str = _key("heun | exact_rotation | ito_euler", "exact_rotation",
                       read_by=("simulate",))
    field: str = _key("full | frame:<mu> | combo:c1,...,c7", "full", read_by=("simulate",))
    grid_bins: int = _key("histogram bins per angle; 0 sizes the grid from the sample "
                          "count", 0, read_by=("entropy", "exotic-compare"))
    deformation_eps: float = _key("bump deformation strength in [0, 0.3)", 0.2,
                                  read_by=("exotic-compare", "circles"))
    scaling: str = _key("constant | bump-smooth | bump-kink", "constant",
                        read_by=("exotic-compare", "circles"))
    plots: bool = _key("true | false: emit an SVG line chart per CSV series", False,
                       echo=False, read_by=("simulate", "entropy"))
    threads: int = 1

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        keys = {f.name: f for f in dataclasses.fields(cls) if "doc" in f.metadata}
        raw, linenos = {}, {}
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key not in keys:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: key {key!r} is set twice")
            raw[key], linenos[key] = value, lineno
        if "experiment" not in raw:
            raise ConfigError("missing required key 'experiment'")
        if "seed" not in raw:
            raise ConfigError("missing required key 'seed' (runs must be seeded)")
        experiment = raw["experiment"]
        for key in raw:
            if experiment in EXPERIMENTS and experiment not in keys[key].metadata["read_by"]:
                raise ConfigError(f"line {linenos[key]}: {experiment} does not read "
                                  f"key {key!r}")
        try:
            values = {key: _parse_value(keys[key].type, value) for key, value in raw.items()}
        except ValueError as exc:
            raise ConfigError(f"bad value: {exc}") from exc
        return cls(**values)

    @property
    def n_steps(self) -> int:
        """Time steps of the run's ensemble, to t_final or its fixed horizon."""
        horizon = {"entropy": ENTROPY_TIMES[-1], "exotic-compare": EXOTIC_T_FINAL}
        return int(round(horizon.get(self.experiment, self.t_final) / self.dt))

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (np.isfinite(self.dt) and np.isfinite(self.t_final)):
            raise ConfigError("dt and t_final must be finite")
        if self.n_paths <= 0 or self.n_points <= 0 or self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("numeric parameters must be positive")
        min_steps = {"simulate": 1, "exotic-compare": 1, "flow-check": 2}
        if self.n_steps < min_steps.get(self.experiment, 0):
            raise ConfigError(f"dt = {self.dt} is too large: {self.experiment} would "
                              f"take {self.n_steps} steps, it needs at least "
                              f"{min_steps[self.experiment]}")
        if self.n_paths < 2 and (self.experiment in ("fp-check", "entropy", "exotic-compare")
                                 or (self.experiment, self.field) == ("simulate", "full")):
            raise ConfigError(f"{self.experiment} needs n_paths >= 2: its statistical "
                              f"check rests on a sample standard deviation")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not 0.0 <= self.deformation_eps < 0.3:
            raise ConfigError("deformation_eps must lie in [0, 0.3)")
        if self.grid_bins < 0 or self.grid_bins == 1:
            raise ConfigError("grid_bins must be 0 (auto) or >= 2")
        if self.scheme not in sint.SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.scaling not in ("constant", "bump-smooth", "bump-kink"):
            raise ConfigError(f"unknown scaling {self.scaling!r}")
        if (self.experiment, self.scaling) == ("exotic-compare", "bump-kink"):
            raise ConfigError("exotic-compare pushes fields forward, which needs a C1 "
                              "scaling; bump-kink is only continuous")
        _parse_field(self.field)
        if self.experiment == "entropy":
            try:
                sint._save_indices(self.n_steps, self.dt, ENTROPY_TIMES)
            except ValueError as exc:
                raise ConfigError(f"entropy needs a dt that divides its save times "
                                  f"{ENTROPY_TIMES}: {exc}") from exc


def _parse_value(kind: str, text: str):
    """A config value as the field's annotated type: int, float, bool or str."""
    if kind == "bool":
        if text.lower() not in BOOLEANS:
            raise ValueError(f"expected one of {'/'.join(BOOLEANS)}, got {text!r}")
        return BOOLEANS[text.lower()]
    return {"int": int, "float": float, "str": str}[kind](text)


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class RunSummary:
    experiment: str
    config: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # measured, not checked
    wall_time_s: float = 0.0

    def add(self, name, value, tolerance, larger_ok=False):
        value = float(value)
        passed = value >= tolerance if larger_ok else value <= tolerance
        self.checks.append(Check(name, value, float(tolerance), bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _parse_field(spec: str):
    """The ``field`` spec as "full", a frame index 1..7 or 7 finite combo
    coefficients; anything else is a ConfigError."""
    kind, _, arg = spec.partition(":")
    try:
        if spec == "full":
            return spec
        if kind == "frame" and 1 <= int(arg) <= 7:
            return int(arg)
        if kind == "combo":
            coeffs = np.array([float(v) for v in arg.split(",")])
            if coeffs.shape == (7,) and np.all(np.isfinite(coeffs)):
                return coeffs
    except ValueError:
        pass
    raise ConfigError(f"field must be full, frame:<1..7> or combo: with 7 finite "
                      f"numbers, got {spec!r}")


def _problem_from_field(spec: str, initial):
    field = _parse_field(spec)
    if isinstance(field, int):
        return sint.single_frame_problem(field, initial)
    if isinstance(field, np.ndarray):
        return sint.combination_problem(field, initial)
    return sint.brownian_problem(initial)


def _exotic_map(cfg: ExperimentConfig) -> sexo.ExoticMap:
    deform = sexo.Deformation(cfg.deformation_eps)
    if cfg.scaling == "constant":
        scaling = sexo.ScalingFunction()
    else:
        kind = "smooth" if cfg.scaling == "bump-smooth" else "kink"
        scaling = sexo.ScalingFunction(base=1.0, eps=0.1,
                                       profile=sexo.BumpProfile(kind=kind))
    return sexo.ExoticMap(deform, scaling)


def write_series_csv(path, header, columns):
    """One row per index of the equal-length numeric ``columns``, %.17g each."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        sint._write_rows(fh, sint._float_row(len(columns)), np.column_stack(columns))


def write_series_svg(path, xs, ys, title):
    """Minimal self-contained polyline chart."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w, hgt, pad = 640.0, 400.0, 40.0
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    pts = " ".join(
        f"{pad + (x - x0) / xr * (w - 2 * pad):.2f},"
        f"{hgt - pad - (y - y0) / yr * (hgt - 2 * pad):.2f}"
        for x, y in zip(xs, ys))
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
            f'height="{hgt:.0f}" viewBox="0 0 {w:.0f} {hgt:.0f}">'
            f'<rect width="100%" height="100%" fill="white"/>'
            f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="monospace">{title}</text>'
            f'<polyline points="{pts}" fill="none" stroke="black"/></svg>\n')


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_frame_verify(cfg, outdir, summary):
    rng = np.random.default_rng(cfg.seed)
    pts = sgeo.random_sphere_point(rng, cfg.n_points)
    vals = sfr.frame_eval_all(pts)                      # (n, 7, 8)
    gram = np.einsum("nmi,nki->nmk", vals, vals)
    gram_dev = float(np.max(np.abs(gram - np.eye(7))))
    tang = float(np.max(np.abs(np.einsum("nmi,ni->nm", vals, pts))))
    gen_dev = max(float(np.max(np.abs(sfr.generator_matrix(mu) @ sfr.generator_matrix(mu)
                                      + np.eye(8)))) for mu in range(1, 8))
    summary.add("gram_identity_dev", gram_dev, 1e-12)
    summary.add("tangency_dev", tang, 1e-14)
    summary.add("generator_square_dev", gen_dev, 1e-14)
    fields = [sfr.frame_field(mu) for mu in range(1, 8)]
    fields.append(sfr.CombinedField.constant(rng.standard_normal(7)))
    killing = max(float(np.max(np.abs(sfr.lie_derivative_metric(fld, p))))
                  for fld in fields for p in pts[:25])
    summary.add("killing_lie_derivative", killing, 1e-6)
    path = f"{outdir}/frame_residuals.csv"
    write_series_csv(path, ["mu", "gram_dev", "tangency_dev"],
                     [np.arange(1, 8),
                      [float(np.max(np.abs(gram[:, m, m] - 1.0))) for m in range(7)],
                      [float(np.max(np.abs(np.einsum("ni,ni->n", vals[:, m], pts))))
                       for m in range(7)]])
    summary.artifacts.append(path)


def _run_simulate(cfg, outdir, summary):
    initial = _e1()
    problem = _problem_from_field(cfg.field, initial)
    n_steps = cfg.n_steps
    save = np.linspace(0.0, n_steps * cfg.dt, min(n_steps + 1, 11))
    save = np.round(save / cfg.dt) * cfg.dt
    result = sint.simulate_ensemble(problem, cfg.n_paths, n_steps, cfg.dt,
                                    cfg.seed, scheme=cfg.scheme, save_times=save,
                                    threads=cfg.threads)
    summary.counters["max_renorm_defect"] = result.max_renorm_defect
    norms = sgeo.row_norms(result.states)
    summary.add("state_norm_dev", float(np.max(np.abs(norms - 1.0))), 1e-12)
    if cfg.field == "full":
        t = float(result.times[-1])
        mean = result.final_states.mean(axis=0)
        target = np.exp(-3.5 * t) * initial
        se = result.final_states.std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        # simultaneous band over the 8 components: 4 sigma per component
        dev = float(np.max(np.abs(mean - target) / np.maximum(4.0 * se, 1e-15)))
        summary.add("mean_decay_dev_over_4se", dev, 1.0)
    path = f"{outdir}/trajectories.csv"
    sint.write_trajectories_csv(result, path)
    summary.artifacts.append(path)
    if cfg.plots:
        svg = f"{outdir}/mean_z1.svg"
        write_series_svg(svg, result.times, result.states[..., 0].mean(axis=0),
                         "mean z1 over time")
        summary.artifacts.append(svg)


def _run_flow_check(cfg, outdir, summary):
    rng = np.random.default_rng(cfg.seed)
    pts = sgeo.random_sphere_point(rng, 64)
    n_steps = cfg.n_steps
    coeffs = np.eye(7)
    noise = sint.sample_brownian(n_steps, cfg.dt, 7, cfg.seed, path_index=0)
    cut = n_steps // 2
    g1 = sflow.RotationFlow.from_noise(coeffs, sint.NoisePath(cfg.dt, noise.increments[:cut]))
    g2 = sflow.RotationFlow.from_noise(coeffs, sint.NoisePath(cfg.dt, noise.increments[cut:]),
                                       s=cut * cfg.dt)
    whole = g1.compose(g2)
    dense = whole.as_matrix()
    cocycle = float(np.max(sgeo.row_norms(g2.apply(g1.apply(pts)) - pts @ dense.T)))
    summary.add("cocycle_residual", cocycle, 1e-12)
    ident = sflow.RotationFlow.identity()
    summary.add("identity_residual",
                float(np.max(sgeo.row_norms(ident.apply(pts) - pts))), 1e-12)
    inv = whole.invert()
    summary.add("inverse_residual",
                float(np.max(sgeo.row_norms(inv.apply(whole.apply(pts)) - pts))), 1e-12)
    summary.add("isometry_distortion", sflow.isometry_check(whole, pts[:16]), 1e-12)
    # Frame-generated steps invert exactly under negated reversed increments
    # (the quadratic term is scalar and renormalizes away), so the round-trip
    # defect is measured on a state-dependent field instead.
    residuals, _ = sflow.heun_refinement_residuals(
        sint.brownian_problem(pts[0]), pts[:8], cfg.seed)
    dec = max(residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1))
    summary.add("heun_compose_refinement_ratio", dec, 1.0)

    def bent_coefficients(z):  # z1 times the first frame field
        a = np.zeros(z.shape[:-1] + (7,))
        a[..., 0] = z[..., 0]
        return a

    bent = sfr.CombinedField(bent_coefficients)
    state_dep = sint.SdeProblem((bent,), pts[0])
    _, roundtrips = sflow.heun_refinement_residuals(state_dep, pts[:8], cfg.seed)
    dec_rt = max(roundtrips[i + 1] / roundtrips[i] for i in range(len(roundtrips) - 1))
    summary.add("heun_roundtrip_refinement_ratio", dec_rt, 1.0)
    path = f"{outdir}/flow_residuals.csv"
    write_series_csv(path, ["level", "compose_residual", "roundtrip_residual"],
                     [[8, 4, 2], residuals, roundtrips])
    summary.artifacts.append(path)


ENTROPY_TIMES = (0.0, 0.2, 0.5, 1.0, 2.0)
EXOTIC_T_FINAL = 0.5  # horizon of exotic-compare's paired-entropy ensemble


def entropy_grid_bins(n_samples: int) -> int:
    """Bins per angle sized so occupied bins stay well populated; the plug-in
    plus Miller-Madow estimator needs roughly n >= 10 * occupied bins."""
    if n_samples >= 8 * 10 ** 4:
        return 4
    if n_samples >= 2 * 10 ** 4:
        return 3
    return 2


def _run_entropy(cfg, outdir, summary):
    rng = np.random.default_rng(cfg.seed)
    center = _e1()
    starts = sgeo.random_cap_point(rng, center, 0.1, cfg.n_paths)
    problem = sint.brownian_problem(center)
    result = sint.simulate_ensemble(problem, cfg.n_paths, cfg.n_steps, cfg.dt,
                                    cfg.seed, scheme="exact_rotation",
                                    save_times=np.array(ENTROPY_TIMES),
                                    threads=cfg.threads, initial_points=starts)
    summary.counters["max_renorm_defect"] = result.max_renorm_defect
    bins = cfg.grid_bins or entropy_grid_bins(cfg.n_paths)
    grid = sdens.GridSpec.uniform(bins)
    reports = []
    for j, t in enumerate(ENTROPY_TIMES):
        est = sdens.estimate_density(result.states[:, j, :], grid)
        reports.append(sdens.entropy(est, t=t))
    worst_drop = 0.0
    for a, b in zip(reports, reports[1:]):
        band = 2.0 * np.hypot(a.stderr, b.stderr)
        worst_drop = max(worst_drop, (a.S_corrected - b.S_corrected) - band)
    summary.add("entropy_monotonicity_violation", worst_drop, 0.0)
    summary.add("entropy_final_dev",
                abs(reports[-1].S_corrected - sdens.max_entropy()), 0.1)
    path = f"{outdir}/entropy_series.csv"
    write_series_csv(path, ["t", "S", "S_corrected", "stderr"],
                     [list(ENTROPY_TIMES), [r.S for r in reports],
                      [r.S_corrected for r in reports], [r.stderr for r in reports]])
    summary.artifacts.append(path)
    if cfg.plots:
        svg = f"{outdir}/entropy.svg"
        write_series_svg(svg, list(ENTROPY_TIMES), [r.S_corrected for r in reports],
                         "entropy over time")
        summary.artifacts.append(svg)


def _run_fp_check(cfg, outdir, summary):
    rng = np.random.default_rng(cfg.seed)
    p_uniform = sdens.uniform_density()
    names = {"frame:1": sint.single_frame_problem(1, _e1()),
             "full": sint.brownian_problem(_e1())}
    points = _interior_points(rng, 12)
    for label, problem in names.items():
        res = max(abs(sdens.fokker_planck_residual(p_uniform, problem, phi))
                  for phi in points)
        summary.add(f"fp_uniform_residual_{label.replace(':', '')}", res, 1e-3)
    report = sdens.generator_weak_check(sint.brownian_problem(_e1()),
                                        lambda z: np.asarray(z)[..., 0],
                                        t=0.1, n_paths=cfg.n_paths, dt=1e-3,
                                        seed=cfg.seed, threads=cfg.threads)
    summary.counters["max_renorm_defect"] = report.max_renorm_defect
    summary.add("weak_martingale_dev_over_3se",
                abs(report.martingale_mean) / max(3.0 * report.stderr, 1e-300), 1.0)
    path = f"{outdir}/fp_residuals.csv"
    write_series_csv(path, ["point", "residual_frame1", "residual_full"],
                     [np.arange(len(points)),
                      [abs(sdens.fokker_planck_residual(p_uniform, names["frame:1"], phi))
                       for phi in points],
                      [abs(sdens.fokker_planck_residual(p_uniform, names["full"], phi))
                       for phi in points]])
    summary.artifacts.append(path)


def _e1():
    e = np.zeros(8)
    e[0] = 1.0
    return e


def _circle12(thetas):
    """The circle in the (z1, z2) plane that h fixes pointwise."""
    circle = np.zeros((len(thetas), 8))
    circle[:, 0] = np.cos(thetas)
    circle[:, 1] = np.sin(thetas)
    return circle


def _interior_points(rng, n):
    """n chart points (n, 7), each angle at least 0.7 inside its range."""
    return rng.uniform(0.7, np.array([np.pi - 0.7] * 6 + [2.0 * np.pi - 0.7]), (n, 7))


def _run_exotic_compare(cfg, outdir, summary):
    rng = np.random.default_rng(cfg.seed)
    h = _exotic_map(cfg)
    pts = sgeo.random_sphere_point(rng, cfg.n_points)
    summary.add("roundtrip_dev",
                float(np.max(sgeo.row_norms(h.inverse(h.forward(pts)) - pts))),
                1e-9)
    circle = _circle12(np.linspace(0.0, 2.0 * np.pi, 181))
    summary.add("fixed_circle_dev",
                float(np.max(sgeo.row_norms(h.forward(circle) - circle))),
                1e-12)
    # paired entropy: same transported ensemble measured on both sides
    center = _e1()
    starts = sgeo.random_cap_point(rng, center, 0.5, cfg.n_paths)
    problem = sint.brownian_problem(center)
    result = sint.simulate_ensemble(problem, cfg.n_paths, cfg.n_steps, cfg.dt, cfg.seed,
                                    scheme="exact_rotation", threads=cfg.threads,
                                    initial_points=starts)
    summary.counters["max_renorm_defect"] = result.max_renorm_defect
    samples = result.final_states
    grid = sdens.GridSpec.uniform(cfg.grid_bins or 3)
    sphere_side = sdens.entropy(sdens.estimate_density(samples, grid))
    surface_side = sexo.entropy_on_surface(h.forward(samples), h, grid)
    gap = abs(sphere_side.S - surface_side.S)
    band = 2.0 * max(np.hypot(sphere_side.stderr, surface_side.stderr), 1e-3)
    summary.add("paired_entropy_gap_over_band", gap / band, 1.0)
    # conjugated flow vs direct integration with pushforward fields
    gaps = sexo.conjugation_gaps(h, cfg.seed)
    summary.add("conjugation_gap_refinement_ratio",
                max(gaps[i + 1] / gaps[i] for i in range(len(gaps) - 1)), 1.0)
    path = f"{outdir}/exotic_summary.csv"
    write_series_csv(path, ["level", "conjugation_gap"],
                     [np.arange(len(gaps)), gaps])
    summary.artifacts.append(path)


def _run_circles(cfg, outdir, summary):
    h = _exotic_map(cfg)
    images = sexo.circle_images(h)
    summary.add("circle_closure_dev", max(im.closure_error for im in images), 1e-9)
    fixed = [im for im in images if (im.i, im.j) == (1, 2)][0]
    summary.add("fixed_circle_dev",
                float(np.max(sgeo.row_norms(fixed.points - _circle12(fixed.params)))),
                1e-12)
    deformed = max(im.max_radial_deviation for im in images)
    if cfg.deformation_eps > 0:
        summary.add("max_radial_deviation", deformed, 1e-6, larger_ok=True)
    else:
        summary.add("max_radial_deviation", deformed, 1e-12)
    path = f"{outdir}/circles.csv"
    sexo.write_circles_csv(images, path)
    summary.artifacts.append(path)


RUNNERS = {
    "frame-verify": _run_frame_verify,
    "simulate": _run_simulate,
    "flow-check": _run_flow_check,
    "entropy": _run_entropy,
    "fp-check": _run_fp_check,
    "exotic-compare": _run_exotic_compare,
    "circles": _run_circles,
}


def run(cfg: ExperimentConfig, outdir: str) -> RunSummary:
    import os

    os.makedirs(outdir, exist_ok=True)
    summary = RunSummary(cfg.experiment, {f.name: getattr(cfg, f.name)
                                          for f in dataclasses.fields(cfg)
                                          if f.metadata.get("echo", True)})
    start = time.perf_counter()
    RUNNERS[cfg.experiment](cfg, outdir, summary)
    summary.wall_time_s = time.perf_counter() - start
    with open(f"{outdir}/summary.json", "w") as fh:
        json.dump({**asdict(summary), "all_passed": summary.all_passed}, fh, indent=2)
        fh.write("\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sevensphere",
                                     description="seeded sphere-flow experiments")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--output", default="out")
    parser.add_argument("--print-schema", action="store_true")
    args = parser.parse_args(argv)
    if args.print_schema:
        for f in dataclasses.fields(ExperimentConfig):
            if "doc" in f.metadata:
                print(f"{f.name:18s} {f.metadata['doc']}")
        return 0
    if not args.config:
        print("error: --config is required (or --print-schema)", file=sys.stderr)
        return 2
    try:
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_text(fh.read())
        cfg = dataclasses.replace(cfg, threads=args.threads,
                                  seed=cfg.seed if args.seed is None else args.seed)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    summary = run(cfg, args.output)
    for c in summary.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}: value={c.value:.6g} tolerance={c.tolerance:.6g}")
    print(f"summary written to {args.output}/summary.json")
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
