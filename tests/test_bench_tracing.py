"""The benchmark's tracer (sevenbench/tracing.py) patches names of the
package by attribute; a renamed or removed name must fail here, not only in
a benchmark run.  It runs in a subprocess so the patching cannot leak into
other tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib
import sys

import tracing

tracing.install(tracing.Tracer())
missing = []
for name in ("quaternions", "symplectic", "frames", "geometry", "integrators",
             "flows", "density", "exotic", "cli"):
    module = importlib.import_module("sevensphere." + name)
    missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                if not hasattr(module, attr)]
if missing:
    sys.exit("names in __all__ that do not resolve: " + ", ".join(missing))
"""


def test_bench_tracer_installs_and_all_names_resolve():
    path = [str(ROOT / "sevenbench"), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
