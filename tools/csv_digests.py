"""Print the sha256 of every CSV that a fixed list of CLI runs writes from
one checkout of this repository, and every check value and counter of its
``summary.json``; or check them against the committed ``csv_digests.txt``.

    python3 tools/csv_digests.py /path/to/checkout > tools/csv_digests.txt
    python3 tools/csv_digests.py /path/to/checkout --check [--runs 'default-*']

Each run executes ``python3 -m sevensphere.cli`` on the checkout's ``src/``
in a temporary directory, one run at a time.  The output has one line per
CSV, ``<run>/<file> <sha256>``, and one line per run with its exit status,
every check of its ``summary.json`` as ``name=PASS|FAIL:repr(value)`` and
every counter as ``name=repr(value)``.  A header of ``# key value`` lines
comes first: the python, numpy and platform the runs used, and the
checkout's git revision.  The run list is this tool's own, so diffing the
output for two checkouts shows whether a change kept every byte, every
verdict and every checked number.

``--check`` reruns the runs that ``--runs`` selects (an fnmatch pattern on
the run names, all runs by default) and compares their lines with those of
``csv_digests.txt`` beside this tool.  It prints each differing line and
exits 1 if any line differs.  Another python, numpy or platform may move
last bits, so when those header lines differ it reports "environment differs" and
the differing lines, and exits 0.  The git revision is recorded only: every
commit has its own.

The runs:

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
import fnmatch
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "sevenbench"))

from workloads import EXPERIMENT_CHECKS, WORKLOADS, Experiment  # noqa: E402

DIGESTS = Path(__file__).with_suffix(".txt")
COMPARED = ("python", "numpy", "platform")  # the header keys --check compares
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


def provenance(checkout: Path):
    """The header: the COMPARED keys of this interpreter, then the git
    revision of ``checkout``, marked -dirty when it has uncommitted changes."""
    try:
        rev = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True).stdout.strip()
    except OSError:  # no git on this host
        rev = ""
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# platform {platform.system()} {platform.machine()}", f"# git {rev or 'unknown'}"]


def run_of(line: str) -> str:
    """The run name that a body line belongs to."""
    return line.split(" ", 1)[0].split("/", 1)[0]


def check(header, lines, selected) -> int:
    """Compare ``lines`` of the ``selected`` runs with the committed file;
    return the exit status."""
    committed = DIGESTS.read_text().splitlines()
    want = [line for line in committed if not line.startswith("#") and run_of(line) in selected]
    for line in [f"- {line}" for line in want if line not in lines] + [
            f"+ {line}" for line in lines if line not in want]:
        print(line)
    n_diff = len(set(want) ^ set(lines))
    summary = f"{n_diff} differing lines in {len(selected)} runs against {DIGESTS.name}"
    env = [line[2:] for line in header if line.split()[1] in COMPARED and line not in committed]
    if env:
        print(f"environment differs ({'; '.join(env)}): {summary}, not a failure")
        return 0
    print(f"{'FAIL' if n_diff else 'OK'}: {summary}")
    return 1 if n_diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="repository checkout to run")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {DIGESTS.name}; exit 1 on any differing line")
    parser.add_argument("--runs", default="*", help="fnmatch pattern of the run names")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "sevensphere").is_dir():
        parser.error(f"{checkout} has no src/sevensphere")
    selected = [run for run in runs() if fnmatch.fnmatchcase(run[0], args.runs)]
    if not selected:
        parser.error(f"no run matches {args.runs!r}")
    header, lines = provenance(checkout), []
    if not args.check:
        print("\n".join(header), flush=True)
    with tempfile.TemporaryDirectory(prefix="csv_digests_") as tmp:
        for name, exp, seed in selected:
            for line in run_one(checkout, name, exp, seed, Path(tmp)):
                lines.append(line)
                if not args.check:
                    print(line, flush=True)
    return check(header, lines, {name for name, _, _ in selected}) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
