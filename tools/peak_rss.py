"""Print the peak resident memory of the ``entropy`` experiment of one checkout
of this repository at two ensemble sizes, and its growth per path.

    python3 tools/peak_rss.py /path/to/checkout

Each size runs ``python3 -m sevensphere.cli`` on the checkout's ``src/`` in
its own child process, in a temporary directory, with grid 4, dt 0.02, 2
threads and seed 3, and reads the child's own ``ru_maxrss`` from
``os.wait4``.  One line per size gives the paths, the peak in MB and the
run's exit status; the last line gives the slope between the two sizes in
bytes per path.  A 4e5-path run takes about 15-20 s on two cores.  It is
kept out of the tier-1 tests because of that time and because peak memory
depends on the host's allocator.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (40_000, 400_000)  # entropy-relax's n_paths and 100 times it
SEED = 3


def entropy_peak_kb(checkout: Path, n_paths: int, work: Path):
    """(peak RSS in kB, exit status) of one entropy run at ``n_paths``."""
    cfg = work / f"entropy-{n_paths}.cfg"
    cfg.write_text(f"experiment = entropy\nseed = {SEED}\nn_paths = {n_paths}\n"
                   "dt = 0.02\ngrid_bins = 4\n")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sevensphere.cli", "--config", str(cfg),
         "--output", str(work / f"out-{n_paths}"), "--threads", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss, proc.returncode  # kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            kb, code = entropy_peak_kb(args.checkout.resolve(), n, Path(tmp))
            peaks.append(kb)
            print(f"entropy n_paths={n} peak_rss_mb={kb / 1024:.1f} exit={code}", flush=True)
    slope = (peaks[1] - peaks[0]) * 1024 / (SIZES[1] - SIZES[0])
    print(f"slope_bytes_per_path={slope:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
