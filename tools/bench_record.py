"""Run every workload of ``BENCHMARK.json`` once through the unmodified
``sevenbench/run.py`` at one seed, and write the results to one committed
record ``BENCH_<n>.json`` at the root of the checkout:

    python3 tools/bench_record.py 26 --seed 11 [--seconds 30]

For each workload the record keeps what ``run.py`` left in
``.sevenbench_work/<workload>/result.json``: the check tally (``correct``,
``attempted``, ``failed``), the median ``metrics`` with their units, the
``provenance`` (python, numpy, CPU, git revision, ``src/`` line count) and
the per-repetition values under ``repetitions``.  ``uncommitted`` lists
the tracked files that differ from the recorded git revision, so a record
made before its change was committed says so.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  The runs are untraced and follow
one another.  The tool exits 1, and writes no record, when a run fails or
reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "sevenbench/run.py", "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads((ROOT / ".sevenbench_work" / name / "result.json").read_text())
    if not result["correct"]:
        raise SystemExit(f"{name}: {result['failed']} of {result['attempted']} checks failed")
    return result


def uncommitted() -> list:
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                          cwd=ROOT, capture_output=True, text=True)
    return sorted(line[3:] for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="record number: writes BENCH_<n>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    record = {"seed": args.seed, "seconds": args.seconds,
              "command": bench["command"], "uncommitted": uncommitted(),
              "workloads": {w["name"]: run_workload(w["name"], args.seed, args.seconds)
                            for w in bench["workloads"]}}
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
