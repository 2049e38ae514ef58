"""The committed CSV digests, rerun for the seven default-config runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_default_runs_match_committed_digests():
    # every CSV byte, verdict and counter of tools/csv_digests.txt; another
    # python, numpy or platform is reported as "environment differs" instead
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digests.py"), str(ROOT),
                           "--check", "--runs", "default-*"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith(("OK: 0 differing lines in 7 runs", "environment differs")), last
