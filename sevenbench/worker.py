"""One repetition of a workload in a fresh interpreter.

Run by ``run.py`` as ``python3 sevenbench/worker.py <spec.json>``.  The spec
names the config files, thread counts and output directories of the
workload's experiments.  The worker imports ``sevensphere`` from the
checkout's ``src/``, parses every config (the end of set-up), runs each
experiment through ``sevensphere.cli.main`` and writes a JSON result: the
set-up timestamp, wall and CPU time of the experiments, peak RSS, each
experiment's exit status and summary, and with tracing on the per-layer
metrics.  The timestamp uses ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so the parent can subtract its spawn time.
A ``hostspeed.HostProbe`` samples the host's speed from the first line of
``main`` on; the result carries its summary for set-up and for the run, so
the parent can correct both timings for host contention.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from hostspeed import HostProbe  # the script's directory is on sys.path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    probe = HostProbe()
    probe.start()
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import numpy
    import sevensphere
    from sevensphere import cli

    if not os.path.abspath(sevensphere.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"sevensphere imported from {sevensphere.__file__}, not {src}",
              file=sys.stderr)
        return 1
    for exp in spec["experiments"]:
        with open(exp["config"]) as fh:
            cli.ExperimentConfig.from_text(fh.read())
    ready = time.perf_counter()
    result = {"ready": ready, "numpy": numpy.__version__, "setup_probe": probe.take()}
    if spec["setup_only"]:
        probe.stop()
        return _write(spec, result)

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    runs = []
    probe.take()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for exp in spec["experiments"]:
        argv = ["--config", exp["config"], "--output", exp["output"],
                "--threads", str(exp["threads"]), "--seed", str(spec["seed"])]
        record = {"experiment": exp["name"], "output": exp["output"], "error": None}
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record["exit"] = cli.main(argv)
        except Exception:  # one failing experiment must not hide the others
            record["exit"] = None
            record["error"] = traceback.format_exc()
        runs.append(record)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    run_probe = probe.take()
    probe.stop()
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, run_probe=run_probe, runs=runs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        tracer.write_spans(spec["spans"])
    return _write(spec, result)


def _write(spec, result) -> int:
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
