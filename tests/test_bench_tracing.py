"""The benchmark's tracer (sevenbench/tracing.py) patches names of the
package by attribute; a renamed or removed name, or a step called past the
patched module global, must fail here, not only in a benchmark run.  It runs
in a subprocess so the patching cannot leak into other tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib
import pkgutil
import sys

import numpy as np
import sevensphere
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
missing = []
for _, name, _ in pkgutil.iter_modules(sevensphere.__path__):
    module = importlib.import_module("sevensphere." + name)
    missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                if not hasattr(module, attr)]
if missing:
    sys.exit("names in __all__ that do not resolve: " + ", ".join(missing))

from sevensphere import integrators

integrators.simulate_ensemble(integrators.brownian_problem(np.eye(8)[0]), 50, 5, 0.01,
                              seed=1, scheme="heun")
calls = tracer.layer_metrics(1.0)["integrators.step.heun.calls"]
if calls != 5:
    sys.exit(f"traced heun steps: {calls}, expected 5 (one per step of one chunk)")

# the traced frame fields must keep the coefficients the exact scheme reads
for problem in (integrators.brownian_problem(np.eye(8)[0]),
                integrators.single_frame_problem(3, np.eye(8)[0])):
    integrators.simulate_ensemble(problem, 50, 5, 0.01, seed=1, scheme="exact_rotation")
calls = tracer.layer_metrics(1.0)["integrators.step.exact_rotation.calls"]
if calls != 10:
    sys.exit(f"traced exact rotation steps: {calls}, expected 10 (5 per ensemble)")

# two workers over a full chunk and a partial generator group, past one noise
# block: one traced generator per path, every draw counted, one step call per
# chunk and step
before = tracer.layer_metrics(1.0)
steps = integrators.NOISE_BLOCK + 3
integrators.simulate_ensemble(integrators.brownian_problem(np.eye(8)[0]), 1100, steps,
                              0.01, seed=2, scheme="exact_rotation", threads=2)
after = tracer.layer_metrics(1.0)
got = tuple(after[k] - before[k] for k in (
    "integrators.noise.paths", "integrators.noise.draws",
    "integrators.step.exact_rotation.calls"))
if got != (1100, 1100 * steps * 7, 2 * steps):
    sys.exit(f"traced noise paths, draws and exact rotation calls: {got}, "
             f"expected {(1100, 1100 * steps * 7, 2 * steps)}")

# the conjugation gaps step each of 2 noise paths through 63 + 125 + 250
# coarsened steps, and every step must pass the traced module attribute
from sevensphere import exotic

exotic.conjugation_gaps(exotic.ExoticMap(0.2), 1, n_noise=2)
calls = tracer.layer_metrics(1.0)["integrators.step.heun.calls"] - 5
if calls != 2 * (63 + 125 + 250):
    sys.exit(f"traced heun steps of conjugation_gaps: {calls}, expected 876")

# one Fokker-Planck residual evaluates its two stencils in two batched calls,
# each through the traced module attribute
from sevensphere import density

density.fokker_planck_residual(density.uniform_density(),
                               integrators.brownian_problem(np.eye(8)[0]), np.full(7, 1.2))
metrics = tracer.layer_metrics(1.0)
got = (metrics["density.fp_residual.calls"], metrics["density.angular_fields.calls"])
if got != (1, 2):
    sys.exit(f"traced residual and angular_fields calls: {got}, expected (1, 2)")

# a re-integrated flow takes each of its steps through the traced module
# attribute, for frame-coefficient and state-dependent fields alike
from sevensphere import flows, frames

noise = integrators.sample_brownian(6, 0.01, 1, seed=3)
for fields in ((frames.frame_field(1),),
               (frames.CombinedField(lambda z: np.repeat(z[..., :1], 7, axis=-1)),)):
    before = tracer.layer_metrics(1.0)
    flows.IntegratedFlow(integrators.SdeProblem(fields, np.eye(8)[0]), noise).apply(np.eye(8))
    after = tracer.layer_metrics(1.0)
    got = tuple(after[k] - before[k]
                for k in ("integrators.step.heun.calls", "flows.integrated.steps"))
    if got != (6, 6):
        sys.exit(f"traced heun calls and integrated steps of one apply: {got}, expected (6, 6)")
"""


def test_bench_tracer_installs_and_all_names_resolve():
    path = [str(ROOT / "sevenbench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
