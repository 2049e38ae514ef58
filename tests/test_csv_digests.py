"""The committed CSV digests, rerun for the seven default-config runs and for
verify-suite's bench-size flow-check and fp-check at seed 11."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_digests(runs, n_runs):
    # every CSV byte, verdict and counter of tools/csv_digests.txt; another
    # python, numpy or platform is reported as "environment differs" instead
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "csv_digests.py"), str(ROOT),
                           "--check", "--runs", runs], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith((f"OK: 0 differing lines in {n_runs} runs",
                            "environment differs")), last


def test_default_runs_match_committed_digests():
    check_digests("default-*", 7)


def test_verify_suite_bench_runs_match_committed_digests():
    # the blocked RotationFlow product (flow-check) and the streamed weak check (fp-check)
    check_digests("verify-suite-[01]-*-s11", 2)
