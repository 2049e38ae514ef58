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
import sys

import numpy as np
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
missing = []
for name in ("quaternions", "symplectic", "frames", "geometry", "integrators",
             "flows", "density", "exotic", "cli"):
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
"""


def test_bench_tracer_installs_and_all_names_resolve():
    path = [str(ROOT / "sevenbench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
