"""Host-speed probe: corrects timings for the speed drift of a shared host.

On a virtual machine that shares its cores with other tenants, the same
code runs up to about 1.7 times slower while a neighbour is busy, and that
contention comes and goes within seconds.  Wall and CPU time both carry it,
so the raw timings of two identical runs can differ by tens of percent.

``HostProbe`` arms an interval timer in the worker process.  Every
``INTERVAL_S`` the SIGALRM handler runs a fixed pure-Python kernel on the
interrupted (main) thread and records the kernel's thread CPU time and wall
time.  The kernel is sevensphere-independent, so only the host's speed moves
its time, and it is sampled on the same core and at the same moments as the
workload.  Thread CPU time leaves out time the probe waited for a core or for
the GIL, which would otherwise make the 2-thread workload look like a slow
host.  A timing is reported in reference seconds::

    corrected = (measured - probe wall time inside it) * REFERENCE_PROBE_S / mean probe time

that is, the time the work would take on a host where the kernel runs in
``REFERENCE_PROBE_S``.  A change to sevensphere still moves the corrected
timing in full; a busier host moves the probe and the workload together and
cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
# Fixed scale of the corrected timings, of the order of the kernel's time on
# a 2-core Intel Xeon virtual machine with Python 3.11 (median 7.2e-5 s).
# Changing it rescales every corrected timing, so it stays fixed between
# commits.
REFERENCE_PROBE_S = 8.0e-5
# A sample is capped at this multiple of the median, so that a rare stall
# inside one sample (a page fault, an interrupt) cannot swing the mean.
# Contention slows samples by less than 2x and is kept whole.
CAP = 4.0

_TABLE = [0] * 64


def kernel() -> int:
    """Fixed interpreter work of about 0.07 ms: arithmetic and list stores.

    It allocates no object the garbage collector tracks, so a collection
    the workload's allocations have made due never starts inside a sample.
    """
    acc = 0
    table = _TABLE
    for i in range(600):
        acc += (i * 7) % 13
        table[i & 63] = acc
    return acc


class HostProbe:
    """Samples the kernel's time on SIGALRM; ``take`` summarises and resets."""

    def __init__(self):
        self._cpu = []
        self._wall = 0.0

    def _sample(self, signum, frame):
        w0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        c1, w1 = time.thread_time(), time.perf_counter()
        self._cpu.append(c1 - c0)
        self._wall += w1 - w0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def take(self) -> dict:
        """Samples since the last call: count, capped mean kernel CPU time,
        and the total CPU and wall time the probe itself took."""
        cpu, wall = self._cpu, self._wall
        self._cpu, self._wall = [], 0.0
        mean = 0.0
        if cpu:
            cap = CAP * statistics.median(cpu)
            mean = sum(min(c, cap) for c in cpu) / len(cpu)
        return {"samples": len(cpu), "mean_s": mean, "cpu_s": sum(cpu), "wall_s": wall}


def corrected(seconds: float, probe: dict, probe_seconds: float) -> float:
    """``seconds`` less the probe's own ``probe_seconds``, in reference seconds."""
    if probe["samples"] == 0:
        raise ValueError("no host-speed samples in the interval")
    return (seconds - probe_seconds) * REFERENCE_PROBE_S / probe["mean_s"]
