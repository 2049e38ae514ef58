"""Workload definitions: which CLI experiments each workload runs, at which
sizes, and the exact counts a traced run must reproduce.

Every workload is a list of ``sevensphere`` experiments run back to back in
one process.  ``bench`` sizes are what the benchmark measures; ``smoke``
sizes exercise the same code paths in seconds for the smoke test.  At the
bench sizes the statistical checks passed on every seed tried: the weak
martingale check of fp-check on seeds 1-300, the mean-decay check of
simulate on seeds 1-50 and 601-650, both entropy checks of entropy-relax on
seeds 1-80 (entropy_final_dev 0.047-0.054 against its 0.1 tolerance,
monotonicity violation 0 on every seed), the flow-check ratios on seeds
601-660, and the other experiments on the seeds of the benchmark's own
proving runs.  exotic-compare's conjugation-gap check, whose sizes are fixed
inside the CLI, fails on seeds 36 and 58 of 1-80 (README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CHUNK = 1024          # path block size of simulate_ensemble
FRAME_CHANNELS = 7    # full-frame Brownian problem: one channel per field

# Number of checks each experiment adds to summary.json.  An experiment that
# raises or exits non-zero counts all of them as failed.
EXPERIMENT_CHECKS = {
    "simulate": 2,          # with field = full
    "entropy": 2,
    "exotic-compare": 4,
    "flow-check": 6,
    "fp-check": 3,
    "frame-verify": 4,
    "circles": 3,
}

# Fixed sizes inside the CLI runners (cli.py), needed by the count formulas.
ENTROPY_T_FINAL = 2.0
ENTROPY_SLICES = 5
EXOTIC_T_FINAL = 0.5
CONJ_NOISE = 8                  # _conjugation_gaps: n_noise
CONJ_FINE_STEPS = 250           # t = 0.5 at base_dt = 0.002
CONJ_LEVELS = (4, 2, 1)
FP_POINTS = 12                  # _interior_points per fp-check
FP_PROBLEMS = 2                 # frame:1 and full
FP_PASSES = 2                   # residuals for the check, then for the CSV
FP_WEAK_STEPS = 100             # t = 0.1 at dt = 1e-3
REFINE_CALLS = 2                # heun_refinement_residuals per flow-check
REFINE_NOISE = 12
REFINE_FINE = 256
REFINE_LEVELS = (8, 4, 2)
REFINE_CHANNELS = (FRAME_CHANNELS, 1)  # brownian problem, then shared channel


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: config keys (seed excluded) and ``--threads``."""

    name: str
    params: dict
    threads: int = 1

    def config_text(self, seed: int) -> str:
        lines = [f"experiment = {self.name}", f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in self.params.items()]
        return "\n".join(lines) + "\n"

    def _float(self, key, default):
        return float(self.params.get(key, default))

    def _int(self, key, default):
        return int(self.params.get(key, default))


def _coarse_steps(n_fine: int, level: int) -> int:
    """Steps of NoisePath.coarsened(level): a trailing remainder is kept."""
    return math.ceil(n_fine / level)


def _ensemble(counts, n_paths, n_steps, scheme, channels=FRAME_CHANNELS):
    counts["integrators.ensemble.path_steps"] += n_paths * n_steps
    counts["integrators.noise.paths"] += n_paths
    counts["integrators.noise.draws"] += n_paths * n_steps * channels
    counts[f"integrators.step.{scheme}.calls"] += math.ceil(n_paths / CHUNK) * n_steps


def expected_counts(experiments) -> dict:
    """Counts a traced run of ``experiments`` must report exactly.

    Derived from the experiment sizes and the fixed constants of the CLI
    runners; keys not listed here are only required to repeat across runs.
    """
    counts = {key: 0 for key in COUNTED}
    for exp in experiments:
        n = exp._int("n_paths", 1000)
        dt = exp._float("dt", 0.01)
        if exp.name == "simulate":
            n_steps = int(round(exp._float("t_final", 1.0) / dt))
            _ensemble(counts, n, n_steps, exp.params.get("scheme", "exact_rotation"))
        elif exp.name == "entropy":
            _ensemble(counts, n, int(round(ENTROPY_T_FINAL / dt)), "exact_rotation")
            counts["density.bin.samples"] += ENTROPY_SLICES * n
        elif exp.name == "exotic-compare":
            _ensemble(counts, n, int(round(EXOTIC_T_FINAL / dt)), "exact_rotation")
            counts["density.bin.samples"] += n
            steps = sum(_coarse_steps(CONJ_FINE_STEPS, lv) for lv in CONJ_LEVELS)
            counts["integrators.noise.paths"] += CONJ_NOISE
            counts["integrators.noise.draws"] += CONJ_NOISE * CONJ_FINE_STEPS
            counts["integrators.step.heun.calls"] += CONJ_NOISE * steps
            counts["exotic.pushforward.points"] += 2 * CONJ_NOISE * steps
        elif exp.name == "fp-check":
            _ensemble(counts, n, FP_WEAK_STEPS, "exact_rotation")
            counts["density.fp_residual.calls"] += FP_POINTS * FP_PROBLEMS * FP_PASSES
        elif exp.name == "flow-check":
            n_steps = max(2, int(round(exp._float("t_final", 1.0) / dt)))
            counts["flows.rotation.factors"] += n_steps
            counts["integrators.noise.paths"] += 1 + REFINE_CALLS * REFINE_NOISE
            counts["integrators.noise.draws"] += n_steps * FRAME_CHANNELS + sum(
                REFINE_NOISE * REFINE_FINE * ch for ch in REFINE_CHANNELS)
            cut = REFINE_FINE // 2 + 1
            steps = 0
            for lv in REFINE_LEVELS:
                boundary = math.ceil(cut / lv) * lv
                left = _coarse_steps(cut, lv)
                right = 1 + _coarse_steps(REFINE_FINE - boundary, lv)
                direct = REFINE_FINE // lv  # applied forward twice and inverted once
                steps += left + right + 3 * direct
            steps *= REFINE_CALLS * REFINE_NOISE
            counts["flows.integrated.steps"] += steps
            counts["integrators.step.heun.calls"] += steps
    return counts


COUNTED = (
    "integrators.ensemble.path_steps", "integrators.noise.paths",
    "integrators.noise.draws", "integrators.step.heun.calls",
    "integrators.step.exact_rotation.calls", "density.bin.samples",
    "density.fp_residual.calls", "exotic.pushforward.points",
    "flows.rotation.factors", "flows.integrated.steps",
)


def path_steps(experiments) -> int:
    return expected_counts(experiments)["integrators.ensemble.path_steps"]


def _simulate(n_paths, dt):
    return Experiment("simulate", {"n_paths": n_paths, "t_final": 1.0, "dt": dt,
                                   "scheme": "heun", "field": "full"})


def _entropy(n_paths, dt, grid_bins):
    return Experiment("entropy", {"n_paths": n_paths, "dt": dt, "grid_bins": grid_bins},
                      threads=2)


def _exotic(n_paths):
    return Experiment("exotic-compare", {"n_paths": n_paths, "grid_bins": 3})


def _verify_suite(flow_dt, fp_paths):
    return (Experiment("flow-check", {"dt": flow_dt}),
            Experiment("fp-check", {"n_paths": fp_paths}),
            Experiment("frame-verify", {}),
            Experiment("circles", {}))


# Why each workload exists is recorded in BENCHMARK.json; README.md holds
# the layer -> end-to-end -> workload predictions.
WORKLOADS = {
    # Heun's weak bias at dt = 0.01 puts the mean of component 0 about 1.3
    # standard errors of 10k paths below exp(-3.5 t), and the CLI's 4-sigma
    # check then fails on about 1% of seeds (seed 604).  At dt = 0.005 the
    # bias is 0.4 standard errors.
    "ensemble-csv": {"bench": (_simulate(10_000, 0.005),),
                     "smoke": (_simulate(500, 0.01),)},
    # Grid 4 is what the CLI picks by itself only from 80k paths.  At 40k
    # paths (4^7 = 16384 bins for 40k samples) entropy_final_dev stays at
    # 0.047-0.054 over seeds 1-80: a bias of the estimator, not seed noise,
    # at half the 0.1 tolerance.
    "entropy-relax": {"bench": (_entropy(40_000, 0.02, 4),),
                      "smoke": (_entropy(3000, 0.05, 2),)},
    "surface-transport": {"bench": (_exotic(10_000),), "smoke": (_exotic(1000),)},
    "verify-suite": {"bench": _verify_suite(1e-4, 2000), "smoke": _verify_suite(1e-2, 200)},
}
