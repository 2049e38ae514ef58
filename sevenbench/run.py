"""sevensphere benchmark: closed-loop CLI workloads timed end to end, with a
traced mode that splits each run by layer.

    python3 sevenbench/run.py --workload ensemble-csv --seed 1 --seconds 25 --trace 0

Each repetition runs the workload's experiments back to back in a fresh
``python3 sevenbench/worker.py`` process, so that set-up time, CPU time and
peak RSS belong to that repetition alone.  Repetitions follow one another
(one client, closed loop) until the next would end after ``--seconds``.
Every metric is the median over the run's repetitions.  Timings are in
reference seconds: ``hostspeed`` samples the shared host's speed inside each
worker and scales out its drift (the raw medians are printed beside them).
With ``--trace 1``
untraced and traced repetitions alternate: the traced ones give the
per-layer metrics, the untraced ones the overhead baseline.

Outputs are checked: every experiment's exit status and checks from its
``summary.json``, byte identity of every CSV artifact across the
repetitions of one seed, and in traced runs every count against its formula
(``workloads.expected_counts``) and across repetitions.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the fail fraction.  Infrastructure
failures (no ``src/``, a crashed worker) exit 1 without that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import corrected
from tracing import LAYER_METRICS
from workloads import EXPERIMENT_CHECKS, WORKLOADS, expected_counts, path_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".sevenbench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("path_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUPS = 9          # set-up samples per run; probes top up the repetitions
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Checks:
    """Tally of output checks; ``failed / attempted`` is the fail fraction."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, attempted: int, failed: int, problem: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if failed and problem:
            self.problems.append(problem)


def spawn_worker(spec: dict, workdir: Path) -> dict:
    spec_path = workdir / "spec.json"
    spec["result"] = str(workdir / "worker.json")
    spec_path.write_text(json.dumps(spec))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text())
    result["setup_raw_s"] = result["ready"] - spawned
    try:
        setup = result["setup_probe"]
        result["setup_s"] = corrected(result["setup_raw_s"], setup, setup["wall_s"])
        if not spec["setup_only"]:
            run = result["run_probe"]
            result["wall_ref_s"] = corrected(result["wall_s"], run, run["wall_s"])
            result["cpu_ref_s"] = corrected(result["cpu_s"], run, run["cpu_s"])
    except ValueError as exc:
        raise BenchError(str(exc)) from exc
    return result


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def inspect_outputs(result: dict, checks: Checks) -> dict:
    """Tally each experiment's checks; return the sha256 of every CSV artifact."""
    digests = {}
    for i, run in enumerate(result["runs"]):
        name = run["experiment"]
        expected = EXPERIMENT_CHECKS[name]
        summary_path = Path(run["output"]) / "summary.json"
        if run["exit"] is None or not summary_path.exists():
            why = (run["error"] or f"exit {run['exit']}, no summary.json").strip()
            checks.record(expected, expected, f"{name}: {why.splitlines()[-1]}")
            continue
        summary = json.loads(summary_path.read_text())
        results = summary["checks"]
        failed = sum(not c["passed"] for c in results) + max(0, expected - len(results))
        if run["exit"] != 0 or not summary["all_passed"]:
            failed = max(failed, 1)
        bad = [f"{c['name']}={c['value']:.4g} (tol {c['tolerance']:.4g})"
               for c in results if not c["passed"]]
        checks.record(max(expected, len(results)), failed,
                      f"{name}: exit {run['exit']}, failed {', '.join(bad) or 'checks missing'}")
        for art in summary["artifacts"]:
            if art.endswith(".csv"):
                digests[f"{i}-{name}/{Path(art).name}"] = sha256(Path(art))
    return digests


def run_repetitions(experiments, seed, seconds, trace, workdir):
    """Closed loop of worker runs until the next would pass the deadline."""
    config_dir = workdir / "configs"
    config_dir.mkdir(parents=True)
    base = []
    for i, exp in enumerate(experiments):
        cfg = config_dir / f"{i}-{exp.name}.cfg"
        cfg.write_text(exp.config_text(seed))
        base.append({"name": exp.name, "config": str(cfg), "threads": exp.threads})

    def spec(rep_dir, traced, setup_only=False):
        return {"root": str(ROOT), "seed": seed, "trace": traced,
                "setup_only": setup_only, "spans": str(workdir / "spans.csv"),
                "experiments": [dict(e, output=str(rep_dir / f"{i}-{e['name']}"))
                                for i, e in enumerate(base)]}

    # Warm-up: the first import in a fresh checkout compiles bytecode.
    spawn_worker(spec(workdir, False, setup_only=True), workdir)

    checks = Checks()
    modes = (False, True) if trace else (False,)
    reps, digests = [], None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while True:
        traced = modes[len(reps) % len(modes)]
        rep_dir = workdir / f"rep{len(reps)}"
        rep_dir.mkdir()
        started = time.perf_counter()
        result = spawn_worker(spec(rep_dir, traced), rep_dir)
        result["traced"] = traced
        rep_digests = inspect_outputs(result, checks)
        if digests is None:
            digests = rep_digests
        else:
            diff = sorted(k for k in digests.keys() | rep_digests.keys()
                          if digests.get(k) != rep_digests.get(k))
            checks.record(len(digests), len(diff),
                          f"CSV artifacts differ between repetitions: {diff}")
        shutil.rmtree(rep_dir)
        reps.append(result)
        took = time.perf_counter() - started
        if len(reps) >= len(modes) and time.perf_counter() + max(took, last) > deadline:
            break
        last = took

    setups = list(reps)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn_worker(spec(workdir, False, setup_only=True), workdir))
    return reps, setups, checks


def check_counts(traced_reps, experiments, checks: Checks):
    """Counts must repeat exactly and match their formulas."""
    count_keys = [k for k, unit in LAYER_METRICS if unit == "count"]
    first = traced_reps[0]["layers"]
    for rep in traced_reps[1:]:
        diff = [k for k in count_keys if rep["layers"][k] != first[k]]
        checks.record(len(count_keys), len(diff), f"counts differ between runs: {diff}")
    expected = expected_counts(experiments)
    wrong = [f"{k}={first[k]} (formula {v})" for k, v in expected.items() if first[k] != v]
    checks.record(len(expected), len(wrong), f"counts off their formulas: {wrong}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def provenance(workload, seed, size, numpy_version) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": workload, "seed": seed, "size": size,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "git_revision": rev,
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "smoke"), default="bench",
                        help="smoke: tiny sizes for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sevensphere" / "__init__.py").is_file():
        raise BenchError(f"no sevensphere sources under {ROOT / 'src'}")

    experiments = WORKLOADS[args.workload][args.size]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reps, setups, checks = run_repetitions(experiments, args.seed, args.seconds,
                                           bool(args.trace), workdir)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    steps = path_steps(experiments)
    samples = {
        "wall_s": [r["wall_ref_s"] for r in plain],
        "setup_s": [s["setup_s"] for s in setups],
        "cpu_s": [r["cpu_ref_s"] for r in plain],
        "path_steps_per_s": [steps / r["wall_ref_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {"wall_s": [r["wall_s"] for r in plain],
           "setup_s": [s["setup_raw_s"] for s in setups],
           "cpu_s": [r["cpu_s"] for r in plain]}
    units = dict(END_TO_END)
    if traced:
        check_counts(traced, experiments, checks)
        units = dict(LAYER_METRICS)
        for key in units:
            if key != "trace.overhead_s":
                samples[key] = [r["layers"][key] for r in traced]
        samples["trace.overhead_s"] = [statistics.median(r["wall_ref_s"] for r in traced)
                                       - statistics.median(samples["wall_s"])]
    metrics = {k: {"value": statistics.median(samples[k]), "unit": u}
               for k, u in units.items()}

    prov = provenance(args.workload, args.seed, args.size, reps[0]["numpy"])
    fail_frac = checks.failed / checks.attempted
    print(f"sevenbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced runs")
    print("provenance " + json.dumps(prov))
    for key, unit in END_TO_END:
        q1, q3 = quartiles(samples[key])
        print(f"  {key:22s} {statistics.median(samples[key]):12.6g} {unit:6s} "
              f"median of {len(samples[key])}, q1 {q1:.6g} q3 {q3:.6g}"
              + (f", raw median {statistics.median(raw[key]):.6g}" if key in raw else ""))
    print(f"  {'fail_frac':22s} {fail_frac:12.6g} ratio  "
          f"{checks.failed} of {checks.attempted} checks failed")
    for problem in checks.problems:
        print(f"  FAILED {problem}")
    if traced:
        for key, unit in LAYER_METRICS:
            print(f"  {key:40s} {metrics[key]['value']:14.6g} {unit}")
    doc = {"correct": checks.failed == 0, "attempted": checks.attempted,
           "failed": checks.failed, "metrics": metrics}
    repetitions = {key: samples[key] for key, _ in END_TO_END}
    repetitions.update({f"{key}.raw": values for key, values in raw.items()})
    (workdir / "result.json").write_text(
        json.dumps(dict(doc, provenance=prov, repetitions=repetitions), indent=1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"sevenbench: {exc}", file=sys.stderr)
        sys.exit(1)
