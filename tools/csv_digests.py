"""Print the sha256 of every CSV that a fixed list of CLI runs writes from
one checkout of this repository, and every check value and counter of its
``summary.json``.

    python3 tools/csv_digests.py /path/to/checkout > digests.txt

Each run executes ``python3 -m sevensphere.cli`` on the checkout's ``src/``
in a temporary directory, one run at a time.  The output has one line per
CSV, ``<run>/<file> <sha256>``, and one line per run with its exit status,
every check of its ``summary.json`` as ``name=PASS|FAIL:repr(value)`` and
every counter as ``name=repr(value)``.  The run list is this tool's own, so
diffing the output for two checkouts shows whether a change kept every byte,
every verdict and every checked number:

- every experiment with its default keys at seed 7; exotic-compare at seed
  3 with 10k paths and grid 3, and at seed 5 with bump-smooth at eps 0.25
  and at eps 0.29, the largest deformation the config accepts;
  circles at seed 3 with bump-kink; simulate with each scheme at seed 5 and
  1500 paths, with heun at dt 0.002 (500 steps, past one noise block), and
  with exact_rotation at dt 0.002 on 2 threads (generators re-keyed
  across chunks, a partial chunk and two workers);
  simulate with heun and ito_euler on the single frame field ``frame:3``
  and on the constant combination ``COMBO`` at seed 5, 1500 paths;
- every bench-size experiment of ``sevenbench/workloads.WORKLOADS``, with
  its thread count, at seeds 3 and 11.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "sevenbench"))

from workloads import EXPERIMENT_CHECKS, WORKLOADS, Experiment  # noqa: E402

WORKLOAD_SEEDS = (3, 11)
COMBO = "combo:0.3,-1.2,0.5,0.8,-0.1,0.7,-0.4"


def runs():
    """(name, experiment, seed) for every run of the list."""
    out = [(f"default-{name}-s7", Experiment(name, {}), 7) for name in EXPERIMENT_CHECKS]
    out += [
        ("exotic-10k-grid3-s3",
         Experiment("exotic-compare", {"n_paths": 10_000, "grid_bins": 3}), 3),
        ("exotic-smooth-s5", Experiment("exotic-compare", {
            "scaling": "bump-smooth", "deformation_eps": 0.25}), 5),
        ("exotic-smooth-eps029-s5", Experiment("exotic-compare", {
            "scaling": "bump-smooth", "deformation_eps": 0.29}), 5),
        ("circles-kink-s3", Experiment("circles", {"scaling": "bump-kink"}), 3),
    ]
    out += [(f"simulate-{scheme}-s5",
             Experiment("simulate", {"n_paths": 1500, "scheme": scheme}), 5)
            for scheme in ("heun", "ito_euler", "exact_rotation")]
    out.append(("simulate-heun-500steps-s5", Experiment("simulate", {
        "n_paths": 1500, "dt": 0.002, "scheme": "heun"}), 5))
    out.append(("simulate-exact_rotation-500steps-2threads-s5", Experiment("simulate", {
        "n_paths": 1500, "dt": 0.002, "scheme": "exact_rotation"}, threads=2), 5))
    out += [(f"simulate-{tag}-{scheme}-s5", Experiment("simulate", {
        "n_paths": 1500, "field": field, "scheme": scheme}), 5)
            for tag, field in (("frame3", "frame:3"), ("combo", COMBO))
            for scheme in ("heun", "ito_euler")]
    for workload, sizes in WORKLOADS.items():
        for seed in WORKLOAD_SEEDS:
            out += [(f"{workload}-{k}-{exp.name}-s{seed}", exp, seed)
                    for k, exp in enumerate(sizes["bench"])]
    return out


def run_one(checkout: Path, name: str, exp: Experiment, seed: int, work: Path):
    """Run one experiment; return its output lines."""
    cfg = work / f"{name}.cfg"
    cfg.write_text(exp.config_text(seed))
    outdir = work / name
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "sevensphere.cli", "--config", str(cfg),
         "--output", str(outdir), "--threads", str(exp.threads)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    lines = [f"{name}/{csv.name} {hashlib.sha256(csv.read_bytes()).hexdigest()}"
             for csv in sorted(outdir.glob("*.csv"))]
    verdicts = "none"
    summary = outdir / "summary.json"
    if summary.exists():
        data = json.loads(summary.read_text())
        verdicts = " ".join(
            [f"{c['name']}={'PASS' if c['passed'] else 'FAIL'}:{c['value']!r}"
             for c in data["checks"]]
            + [f"{k}={v!r}" for k, v in sorted(data.get("counters", {}).items())])
    lines.append(f"{name} exit={proc.returncode} {verdicts}")
    if proc.returncode not in (0, 1):
        print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository checkout to run")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "sevensphere").is_dir():
        parser.error(f"{checkout} has no src/sevensphere")
    with tempfile.TemporaryDirectory(prefix="csv_digests_") as tmp:
        for name, exp, seed in runs():
            for line in run_one(checkout, name, exp, seed, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
