"""Smoke test of the benchmark at tiny sizes (about a minute on two cores):

    python3 -m pytest sevenbench/test_smoke.py

Every workload runs once untraced and once traced.  The result must name
every metric BENCHMARK.json declares, with its unit, report no failed check,
and in the traced run reproduce the count formulas exactly, give self time
to every layer the workload is meant to exercise, and parent every span
correctly.
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS, expected_counts

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Independent of workloads.expected_counts: ceil(paths / 1024) * steps etc.
# at the smoke sizes (500 Heun paths x 100 steps; 3000 rotation paths x 40).
HAND_COUNTS = {
    "ensemble-csv": {
        "integrators.step.heun.calls": 1 * 100,
        "integrators.noise.paths": 500,
        "integrators.noise.draws": 500 * 100 * 7,
        "integrators.ensemble.path_steps": 500 * 100,
        "integrators.step.exact_rotation.calls": 0,
    },
    "entropy-relax": {
        "integrators.step.exact_rotation.calls": 3 * 40,
        "integrators.ensemble.path_steps": 3000 * 40,
        "density.bin.samples": 5 * 3000,
        "integrators.step.heun.calls": 0,
    },
    "surface-transport": {
        "exotic.pushforward.points": 2 * 8 * (63 + 125 + 250),
        "density.bin.samples": 1000,
    },
    "verify-suite": {
        "density.fp_residual.calls": 48,
        "flows.rotation.factors": 100,
    },
}


# Layers each workload exists to exercise (BENCHMARK.json "why"); a traced run
# must give each of them self time, so a layer left unwrapped fails here.
TRACED_LAYERS = {
    "ensemble-csv": ("integrators.csv", "integrators.step.heun", "integrators.noise",
                     "integrators.ensemble", "frames"),
    "entropy-relax": ("integrators.noise", "integrators.step.exact_rotation",
                      "integrators.ensemble", "density.bin"),
    "surface-transport": ("exotic.surface_entropy", "exotic.pushforward", "exotic.map",
                          "geometry.chart", "density.bin"),
    "verify-suite": ("density.fp_residual", "density.angular_fields",
                     "density.weak_check", "flows.rotation", "flows.integrated",
                     "geometry.chart", "exotic.circles", "frames"),
}
# Orchestration in cli.main that no layer span covers stays a small share.
MAX_CLI_SHARE = 0.25


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "sevenbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, proc.stdout
    assert ["fail_frac", "0", "ratio"] in [ln.split()[:3] for ln in lines]

    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    for key, count in expected_counts(WORKLOADS[workload]["smoke"]).items():
        assert values[key] == count, key
    for key, count in HAND_COUNTS[workload].items():
        assert values[key] == count, key
    # Self times of all spans, less chunk concurrency, cover the traced wall.
    assert values["trace.accounted_frac"] == pytest.approx(1.0, abs=0.02)
    for layer in TRACED_LAYERS[workload]:
        assert values[f"{layer}.self_s"] > 0, layer
    assert values["cli.self_s"] < MAX_CLI_SHARE * values["trace.wall_s"]
    check_span_parents(ROOT / ".sevenbench_work" / workload / "spans.csv")


def check_span_parents(path):
    """cli.main spans are the only roots; pool chunks hang off ensemble spans."""
    with open(path) as fh:
        spans = {row["id"]: row for row in csv.DictReader(fh)}
    for row in spans.values():
        parent = spans.get(row["parent"])
        if row["name"] == "cli":
            assert parent is None, row
            continue
        assert parent is not None, row
        if row["name"] == "integrators.ensemble/chunk":
            assert parent["name"] == "integrators.ensemble", row


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "sevenbench", tmp_path / "sevenbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ensemble-csv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
