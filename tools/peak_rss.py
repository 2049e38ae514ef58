"""Print the peak resident memory of the ``entropy`` and ``fp-check``
experiments of one checkout of this repository, each at two ensemble sizes,
and each one's growth per path.

    python3 tools/peak_rss.py /path/to/checkout

Each run executes ``python3 -m sevensphere.cli`` on the checkout's ``src/``
in its own child process, in a temporary directory, with 2 threads and seed
3, and reads the child's own ``ru_maxrss`` from ``os.wait4``: ``entropy``
with grid 4 and dt 0.02 at 4e4 and 4e5 paths, then ``fp-check`` (whose weak
check sets its own dt and horizon) at 2e4 and 2e5 paths.  One line per run
gives the experiment, the paths, the peak in MB and the run's exit status;
after each experiment's two runs a line gives the slope between them in
bytes per path.  The 4e5-path entropy run and the 2e5-path fp-check run take
about 15-20 s each on two cores.  The tool is kept out of the tier-1 tests
because of that time and because peak memory depends on the host's
allocator.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3
# experiment -> (config keys beyond experiment, seed and n_paths; the two sizes)
RUNS = {
    "entropy": ("dt = 0.02\ngrid_bins = 4\n", (40_000, 400_000)),  # entropy-relax's, 100x it
    "fp-check": ("", (20_000, 200_000)),  # 10x and 100x verify-suite's fp-check
}


def peak_kb(checkout: Path, experiment: str, n_paths: int, work: Path):
    """(peak RSS in kB, exit status) of one run of ``experiment`` at ``n_paths``."""
    keys, _ = RUNS[experiment]
    cfg = work / f"{experiment}-{n_paths}.cfg"
    cfg.write_text(f"experiment = {experiment}\nseed = {SEED}\nn_paths = {n_paths}\n{keys}")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sevensphere.cli", "--config", str(cfg),
         "--output", str(work / f"out-{experiment}-{n_paths}"), "--threads", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss, proc.returncode  # kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for experiment, (_, sizes) in RUNS.items():
            peaks = []
            for n in sizes:
                kb, code = peak_kb(args.checkout.resolve(), experiment, n, Path(tmp))
                peaks.append(kb)
                print(f"{experiment} n_paths={n} peak_rss_mb={kb / 1024:.1f} exit={code}",
                      flush=True)
            slope = (peaks[1] - peaks[0]) * 1024 / (sizes[1] - sizes[0])
            print(f"{experiment} slope_bytes_per_path={slope:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
