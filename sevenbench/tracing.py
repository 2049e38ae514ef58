"""Span tracing of the sevensphere layers, installed from outside the package.

``install(tracer)`` replaces the public functions of each module (and every
name another module bound with ``from ... import``) by wrappers that record a
span (id, name, start, end, parent, thread) and per-layer counts.  Spans stay
in memory until ``Tracer.write_spans`` is called at the end of the run.

A span's self time is its duration minus the union of its children's
intervals.  Pool workers of ``simulate_ensemble`` run chunks in other threads;
those chunk spans take the ensemble span as parent, so the self times of one
run sum to its traced wall time plus the time chunks ran concurrently
(``parallel_s``).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("integrators.noise.self_s", "s"),
    ("integrators.noise.paths", "count"),
    ("integrators.noise.draws", "count"),
    ("integrators.step.heun.self_s", "s"),
    ("integrators.step.heun.calls", "count"),
    ("integrators.step.exact_rotation.self_s", "s"),
    ("integrators.step.exact_rotation.calls", "count"),
    ("integrators.ensemble.self_s", "s"),
    ("integrators.ensemble.path_steps", "count"),
    ("integrators.ensemble.busy_ratio", "ratio"),
    ("integrators.csv.self_s", "s"),
    ("integrators.csv.bytes", "count"),
    ("integrators.csv.mb_per_s", "MB/s"),
    ("density.bin.self_s", "s"),
    ("density.bin.samples", "count"),
    ("density.bin.occupied_bins", "count"),
    ("density.entropy.self_s", "s"),
    ("density.fp_residual.self_s", "s"),
    ("density.fp_residual.calls", "count"),
    ("density.angular_fields.self_s", "s"),
    ("density.angular_fields.calls", "count"),
    ("density.weak_check.self_s", "s"),
    ("geometry.chart.self_s", "s"),
    ("geometry.chart.calls", "count"),
    ("exotic.surface_entropy.self_s", "s"),
    ("exotic.surface_entropy.bins", "count"),
    ("exotic.surface_entropy.s_per_bin", "s"),
    ("exotic.pushforward.self_s", "s"),
    ("exotic.pushforward.points", "count"),
    ("exotic.map.self_s", "s"),
    ("exotic.map.points", "count"),
    ("exotic.circles.self_s", "s"),
    ("flows.rotation.self_s", "s"),
    ("flows.rotation.factors", "count"),
    ("flows.integrated.self_s", "s"),
    ("flows.integrated.steps", "count"),
    ("frames.self_s", "s"),
    ("frames.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.write_series.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.spans", "count"),
)

ENSEMBLE = "integrators.ensemble"
CHUNK = "integrators.ensemble/chunk"  # layer name is the part before "/"


class Tracer:
    """In-memory span and counter store shared by all wrappers of one run."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent, thread)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on it is atomic under the GIL
        self._adopter = None       # span adopting spans of parentless threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def call(self, name, fn, args, kwargs, counter=None, adopt=False):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._adopter
        stack.append(sid)
        if adopt:
            outer, self._adopter = self._adopter, sid
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopter = outer
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))
        if counter is not None:
            for key, n in counter(args, kwargs, result).items():
                self.add(f"{name}.{key}", n)
        return result

    def wrap(self, fn, name, counter=None, adopt=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter, adopt)
        return traced

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer self time, counts and derived ratios (LAYER_METRICS keys)."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        total_self = 0.0
        for sid, name, start, end, _, _ in self.spans:
            layer = name.split("/")[0]
            own = (end - start) - _union(children.get(sid, ()), start, end)
            self_s[layer] += own
            calls[layer + ".calls"] += 1
            incl_s[name] += end - start
            total_self += own
        parallel = 0.0
        for sid, name, start, end, _, _ in self.spans:
            if name == ENSEMBLE and sid in children:
                kids = children[sid]
                parallel += sum(e - s for s, e in kids) - _union(kids, start, end)
        out = {}
        for key, _ in LAYER_METRICS:
            layer, _, field = key.rpartition(".")
            if field == "self_s":
                out[key] = self_s[layer]
            elif field == "calls":
                out[key] = calls[key]
            elif not key.startswith("trace."):
                out[key] = self.counts[key]
        csv_s = self_s["integrators.csv"]
        out["integrators.csv.mb_per_s"] = (
            self.counts["integrators.csv.bytes"] / 1e6 / csv_s if csv_s else 0.0)
        ens_s = incl_s[ENSEMBLE]
        out["integrators.ensemble.busy_ratio"] = incl_s[CHUNK] / ens_s if ens_s else 0.0
        bins = self.counts["exotic.surface_entropy.bins"]
        out["exotic.surface_entropy.s_per_bin"] = (
            incl_s["exotic.surface_entropy"] / bins if bins else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.accounted_frac"] = (total_self - parallel) / wall_s
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread\n")
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},"
                         f"{'' if parent is None else parent},{thread}\n")


def _union(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _rows(x) -> int:
    """Number of points in a (..., 8) array or a single point."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) <= 1:
        return 1
    n = 1
    for d in shape[:-1]:
        n *= d
    return n


class _TimedGenerator:
    """Per-path generator whose ``normal`` draws are recorded as noise spans."""

    def __init__(self, tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def normal(self, *args, **kwargs):
        return self._tracer.call("integrators.noise", self._rng.normal, args, kwargs,
                                 lambda a, k, r: {"draws": r.size})

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _patch(owner, attr, wrapper_factory):
    fn = getattr(owner, attr)
    setattr(owner, attr, wrapper_factory(fn))


def _patch_method(cls, attr, tracer, name, counter=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, counter)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, counter))


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the sevensphere package in place."""
    from sevensphere import cli, density, exotic, flows, frames, geometry, integrators

    t = tracer
    span = t.wrap

    # frames: the fields returned by frame_field are traced per evaluation.
    def traced_field_factory(fn):
        def factory(*args, **kwargs):
            return span(t.call("frames", fn, args, kwargs), "frames")
        return functools.wraps(fn)(factory)

    for owner in (frames, integrators):
        _patch(owner, "frame_field", traced_field_factory)
    for attr in ("frame_eval", "frame_eval_all", "generator_matrix",
                 "killing_residual", "lie_derivative_metric"):
        _patch(frames, attr, lambda fn: span(fn, "frames"))
    _patch_method(frames.CombinedField, "__call__", t, "frames")
    _patch_method(frames.CombinedField, "constant", t, "frames")

    # geometry: chart maps, at the module and at every from-import binding.
    for owner in (geometry, density, exotic):
        for attr in ("to_cartesian", "to_spherical", "volume_element", "chart_jacobian"):
            if hasattr(owner, attr):
                _patch(owner, attr, lambda fn: span(fn, "geometry.chart"))

    # integrators: noise is drawn inline in _simulate_chunk from the generator
    # path_generator returns, so that generator is replaced by a timed one.
    def traced_generator(fn):
        def make(*args, **kwargs):
            rng = t.call("integrators.noise", fn, args, kwargs,
                         lambda a, k, r: {"paths": 1})
            return _TimedGenerator(t, rng)
        return functools.wraps(fn)(make)

    _patch(integrators, "path_generator", traced_generator)
    _patch(integrators, "heun_stratonovich_step",
           lambda fn: span(fn, "integrators.step.heun"))
    _patch(integrators, "exact_rotation_step",
           lambda fn: span(fn, "integrators.step.exact_rotation"))
    _patch(integrators, "simulate_ensemble", lambda fn: span(
        fn, ENSEMBLE, lambda a, k, r: {
            "path_steps": _arg(a, k, 1, "n_paths") * _arg(a, k, 2, "n_steps")},
        adopt=True))
    _patch(integrators, "_simulate_chunk", lambda fn: span(fn, CHUNK))
    _patch(integrators, "write_trajectories_csv", lambda fn: span(
        fn, "integrators.csv",
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "fname"))}))
    for owner in (integrators, flows):
        _patch(owner, "frame_rotation_matrix", lambda fn: span(fn, "flows.rotation"))

    # density
    _patch(density, "estimate_density", lambda fn: span(
        fn, "density.bin",
        lambda a, k, r: {"samples": r.n_samples, "occupied_bins": len(r.counts)}))
    _patch(density, "entropy", lambda fn: span(fn, "density.entropy"))
    _patch(density, "fokker_planck_residual", lambda fn: span(fn, "density.fp_residual"))
    _patch(density, "angular_fields", lambda fn: span(fn, "density.angular_fields"))
    _patch(density, "generator_weak_check", lambda fn: span(fn, "density.weak_check"))

    # exotic
    def points(args, kwargs, result):  # ExoticMap methods: (self, z)
        return {"points": _rows(args[1])}

    for attr in ("forward", "inverse", "jacobian"):
        _patch_method(exotic.ExoticMap, attr, t, "exotic.map", points)
    _patch(exotic, "entropy_on_surface", lambda fn: span(
        fn, "exotic.surface_entropy", lambda a, k, r: {"bins": r.n_occupied}))

    def traced_pushforward(fn):
        def factory(*args, **kwargs):
            return span(fn(*args, **kwargs), "exotic.pushforward",
                        lambda a, k, r: {"points": _rows(a[0])})
        return functools.wraps(fn)(factory)

    _patch(exotic, "pushforward_field", traced_pushforward)
    for attr in ("circle_images", "write_circles_csv"):
        _patch(exotic, attr, lambda fn: span(fn, "exotic.circles"))

    # flows
    _patch_method(flows.RotationFlow, "from_noise", t, "flows.rotation",
                  lambda a, k, r: {"factors": _arg(a, k, 2, "noise").n_steps})
    for attr in ("apply", "as_matrix", "compose", "invert"):
        _patch_method(flows.RotationFlow, attr, t, "flows.rotation")
    _patch_method(flows.IntegratedFlow, "apply", t, "flows.integrated",
                  lambda a, k, r: {"steps": a[0].noise.n_steps})

    # cli: everything an experiment does runs inside main.
    _patch(cli, "main", lambda fn: span(fn, "cli"))
    _patch(cli, "write_series_csv", lambda fn: span(fn, "cli.write_series"))
