"""Driving noise, midpoint (Heun) and Ito-Euler steps, the exact rotation
step for frame-generated dynamics, and deterministic parallel ensembles.

Determinism contract: every path owns a counter-based generator keyed by
(master seed, path index), and all reductions run in fixed path order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .frames import DIM, FRAME_GENERATORS, N_FRAME_FIELDS, frame_eval_all, frame_field
from .geometry import central_difference

CHUNK = 1024  # fixed path block size; independent of the worker count
ROW_BLOCK = 1024  # CSV rows formatted per write; bounds the text held in memory


@dataclass
class NoisePath:
    """Increments of the driving semimartingale on a uniform grid."""

    dt: float
    increments: np.ndarray  # (n_steps, n_channels)

    def __post_init__(self):
        self.increments = np.asarray(self.increments, dtype=float)
        if self.increments.ndim != 2:
            raise ValueError("increments must be a (n_steps, n_channels) matrix")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not np.all(np.isfinite(self.increments)):
            raise ValueError("increments must be finite")

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_channels(self) -> int:
        return self.increments.shape[1]

    def coarsened(self, level: int) -> "NoisePath":
        """Same underlying path on a grid ``level`` times coarser (increments
        summed in consecutive groups; a trailing remainder group is kept)."""
        if level < 1:
            raise ValueError("coarsening level must be >= 1")
        inc = self.increments
        n_full = inc.shape[0] // level
        head = inc[: n_full * level].reshape(n_full, level, -1).sum(axis=1)
        tail = inc[n_full * level:]
        if tail.shape[0]:
            head = np.vstack([head, tail.sum(axis=0, keepdims=True)])
        return NoisePath(self.dt * level, head)


def path_generator(master_seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based generator for one path, independent of draw order elsewhere."""
    seq = np.random.SeedSequence(entropy=int(master_seed),
                                 spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(seq))


def sample_brownian(n_steps: int, dt: float, n_channels: int,
                    seed: int, path_index: int = 0) -> NoisePath:
    """Brownian increments: i.i.d. normal with variance dt per channel."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = path_generator(seed, path_index)
    inc = rng.normal(0.0, np.sqrt(dt), size=(n_steps, n_channels))
    return NoisePath(dt, inc)


def _write_rows(fh, row_format: str, rows) -> None:
    """Write each row of the (n, k) array ``rows`` through ``row_format``.

    Every block of ROW_BLOCK rows is converted by one ``%`` over the format
    repeated per row; the conversion of each value is the one the format
    names, so the bytes equal those of a row-by-row loop.
    """
    rows = np.asarray(rows, dtype=float)
    for lo in range(0, len(rows), ROW_BLOCK):
        block = rows[lo:lo + ROW_BLOCK]
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def _float_row(k: int, lead: str = "") -> str:
    """Row format: ``lead`` then k comma-separated %.17g values."""
    return lead + ",".join(["%.17g"] * k) + "\n"


def save_noise_path(path: NoisePath, fname) -> None:
    with open(fname, "w") as fh:
        fh.write("dt,n_steps,n_channels\n")
        fh.write(f"{'%.17g' % path.dt},{path.n_steps},{path.n_channels}\n")
        _write_rows(fh, _float_row(path.n_channels), path.increments)


def load_noise_path(fname) -> NoisePath:
    with open(fname) as fh:
        header = fh.readline().strip()
        if header != "dt,n_steps,n_channels":
            raise ValueError(f"unexpected noise file header: {header!r}")
        dt_s, n_steps_s, n_channels_s = fh.readline().strip().split(",")
        inc = np.loadtxt(io.StringIO(fh.read()), delimiter=",", ndmin=2)
    n_steps, n_channels = int(n_steps_s), int(n_channels_s)
    if inc.shape != (n_steps, n_channels):
        raise ValueError(f"noise file body {inc.shape} does not match header")
    return NoisePath(float(dt_s), inc)


@dataclass
class SdeProblem:
    """Diffusion fields, optional drift and an initial point on the sphere.

    ``channel_mode`` is "independent" (one Wiener channel per field) or
    "shared" (a single channel drives the sum of the fields).  When every
    field is a fixed linear combination of the frame fields,
    ``frame_coefficients`` holds one 7-vector per field and enables the
    exact rotation scheme.  When every field is linear, V(z) = J z with the
    matrix as its ``generator`` attribute, ``generators`` stacks the
    matrices (n_fields, 8, 8); otherwise it is None.
    """

    diffusion_fields: tuple
    initial: np.ndarray
    drift: object = None  # optional callable z -> 8-vector; the zero slot
    channel_mode: str = "independent"
    frame_coefficients: np.ndarray | None = None

    def __post_init__(self):
        self.diffusion_fields = tuple(self.diffusion_fields)
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (DIM,):
            raise ValueError("initial point must be an 8-vector")
        if abs(np.linalg.norm(self.initial) - 1.0) > 1e-10:
            raise ValueError("initial point must lie on the unit sphere")
        if self.channel_mode not in ("independent", "shared"):
            raise ValueError(f"unknown channel mode {self.channel_mode!r}")
        if self.frame_coefficients is not None:
            self.frame_coefficients = np.atleast_2d(
                np.asarray(self.frame_coefficients, dtype=float))
        self.generators = _generator_stack(self.diffusion_fields)

    @property
    def n_channels(self) -> int:
        if self.channel_mode == "shared":
            return 1
        return len(self.diffusion_fields)

    @property
    def channel_fields(self) -> tuple:
        """One field per Wiener channel: the summed field when shared, which
        carries the summed ``generator`` when every field is linear."""
        if self.channel_mode == "independent":
            return self.diffusion_fields

        def summed(z):
            return self.diffusion_matrix(z)[..., 0, :]

        if self.generators is not None:
            summed.generator = self.generators.sum(axis=0)
        return (summed,)

    def diffusion_matrix(self, z) -> np.ndarray:
        """Per-channel field values at z; shape (..., n_channels, 8).

        Linear fields are evaluated together as one product with the
        stacked generators, the others one call each.
        """
        z = np.asarray(z, dtype=float)
        if self.generators is not None:
            flat = z @ self.generators.reshape(-1, DIM).T
            vals = flat.reshape(z.shape[:-1] + self.generators.shape[:-1])
        else:
            vals = np.stack([np.asarray(f(z), dtype=float)
                             for f in self.diffusion_fields], axis=-2)
        if self.channel_mode == "shared":
            vals = vals.sum(axis=-2, keepdims=True)
        return vals


def brownian_problem(initial) -> SdeProblem:
    """All seven frame fields with independent channels: Brownian motion."""
    fields = tuple(frame_field(mu) for mu in range(1, N_FRAME_FIELDS + 1))
    return SdeProblem(fields, initial, channel_mode="independent",
                      frame_coefficients=np.eye(N_FRAME_FIELDS))


def single_frame_problem(mu: int, initial) -> SdeProblem:
    """One frame field driven by one scalar channel."""
    coeffs = np.zeros((1, N_FRAME_FIELDS))
    coeffs[0, mu - 1] = 1.0
    return SdeProblem((frame_field(mu),), initial, frame_coefficients=coeffs)


def combination_problem(c, initial) -> SdeProblem:
    """Constant coefficient combination of the frame, single shared channel."""
    from .frames import CombinedField

    field = CombinedField.constant(np.asarray(c, dtype=float))
    return SdeProblem((field,), initial,
                      frame_coefficients=np.atleast_2d(np.asarray(c, dtype=float)))


def _generator_stack(fields):
    """The ``generator`` matrices J of linear fields V(z) = J z, stacked
    (n_fields, 8, 8); None when any field lacks one."""
    gens = [getattr(f, "generator", None) for f in fields]
    if not gens or any(g is None for g in gens):
        return None
    return np.array(gens, dtype=float)


def ito_correction_drift(fields, z) -> np.ndarray:
    """h(z) = sum over channels of (dV/dz) V, the Stratonovich-to-Ito drift,
    at points z (..., 8).

    The time-discretized drift enters as h/2.  For linear fields V = J z the
    sum is (sum J J) z; a single frame field therefore yields exactly -z.
    Other fields take a central-difference Jacobian each.
    """
    z = np.asarray(z, dtype=float)
    if callable(fields):
        fields = (fields,)
    gens = _generator_stack(fields)
    if gens is not None:
        return z @ np.sum(gens @ gens, axis=0).T
    total = np.zeros_like(z)
    for fld in fields:
        jac = central_difference(fld, z, 1e-6)  # (..., 8, 8)
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError("field Jacobian is not finite")
        total = total + np.einsum("...ij,...j->...i", jac, np.asarray(fld(z), dtype=float))
    return total


def _increment(problem: SdeProblem, z, dw, dt: float):
    """sum_c V_c(z) dw_c, plus dt times the drift when the problem has one."""
    incr = np.einsum("...ci,...c->...i", problem.diffusion_matrix(z), dw)
    if problem.drift is not None:
        incr = incr + dt * np.asarray(problem.drift(z), dtype=float)
    return incr


def _renormalize(z):
    """z projected back onto the sphere, and the largest norm defect absorbed."""
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    return z / norms, float(np.max(np.abs(norms - 1.0)))


def heun_stratonovich_step(problem: SdeProblem, z, dw, dt: float):
    """One predictor-corrector Stratonovich step followed by renormalization.

    ``z`` is (..., 8), ``dw`` is (..., n_channels).  Returns the new points and
    the largest norm defect absorbed by the renormalization.
    """
    z = np.asarray(z, dtype=float)
    dw = np.asarray(dw, dtype=float)
    incr = _increment(problem, z, dw, dt)
    incr2 = _increment(problem, z + incr, dw, dt)
    return _renormalize(z + 0.5 * (incr + incr2))


def ito_euler_step(problem: SdeProblem, z, dw, dt: float):
    """Euler-Maruyama step of the Ito form, drift h/2, then renormalization."""
    z = np.asarray(z, dtype=float)
    dw = np.asarray(dw, dtype=float)
    h = ito_correction_drift(problem.channel_fields, z)
    return _renormalize(z + 0.5 * dt * h + _increment(problem, z, dw, dt))


def frame_rotation_apply(a, z) -> np.ndarray:
    """Apply exp(sum_mu a_mu J_mu) to z, batched over leading axes.

    The frame generators pairwise anticommute and square to -I, so
    K = sum a_mu J_mu satisfies K^2 = -|a|^2 I and the exponential is
    cos(|a|) I + sinc(|a|) K exactly.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    kz = np.einsum("...m,...mi->...i", a, frame_eval_all(z))
    w = np.linalg.norm(a, axis=-1)[..., None]
    return np.cos(w) * z + np.sinc(w / np.pi) * kz


def frame_rotation_matrix(a) -> np.ndarray:
    """The 8x8 rotations exp(sum_mu a_mu J_mu) in closed form, (..., 8, 8)
    for coefficient vectors a (..., 7)."""
    a = np.asarray(a, dtype=float)
    k = np.tensordot(a, FRAME_GENERATORS, axes=(-1, 0))
    w = np.sqrt(np.vecdot(a, a))[..., None, None]
    return np.cos(w) * np.eye(DIM) + np.sinc(w / np.pi) * k


def exact_rotation_step(coefficients, z, dw, dt: float | None = None):
    """Exact isometric step for frame-coefficient dynamics.

    ``coefficients`` is (n_channels, 7);  ``dw`` is (..., n_channels).  The
    step applies exp(sum_c dw_c * sum_mu coeff[c, mu] J_mu) to z, which
    rotates z by the angle |a| = |dw @ coefficients|.  Exact for a single
    channel.  For n > 1 independent channels it is a geodesic random walk,
    an exact isometry every step, but its one-point law has weak order 1:
    with the seven frame channels the mean contracts per step by
    E cos(sqrt(dt) chi_7) = e^{-dt/2} (1 - 3 dt + dt^2 - dt^3/15), not by
    e^{-7 dt/2}, so the mean at t = 1 is 3.5% low at dt = 1e-2 and 0.35% low
    at dt = 1e-3.
    """
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    dw = np.asarray(dw, dtype=float)
    a = dw @ coefficients  # (..., 7)
    return frame_rotation_apply(a, z)


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_saved, 8)
    path_id: int
    seed_lineage: tuple


@dataclass
class EnsembleResult:
    times: np.ndarray
    states: np.ndarray  # (n_paths, n_saved, 8)
    seed: int
    scheme: str
    dt: float
    max_renorm_defect: float = 0.0

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def final_states(self) -> np.ndarray:
        return self.states[:, -1, :]

    def trajectory(self, i: int) -> Trajectory:
        return Trajectory(self.times, self.states[i], i, (self.seed, i))


SCHEMES = ("heun", "exact_rotation", "ito_euler")


def _save_indices(n_steps, dt, save_times):
    if save_times is None:
        return np.array([n_steps], dtype=int), np.array([n_steps * dt])
    save_times = np.asarray(save_times, dtype=float)
    idx = np.rint(save_times / dt).astype(int)
    if np.any(np.abs(idx * dt - save_times) > 1e-9 * max(1.0, n_steps * dt)):
        raise ValueError("save_times must be multiples of dt")
    if np.any(idx < 0) or np.any(idx > n_steps):
        raise ValueError("save_times outside the simulated interval")
    return idx, idx * dt


def _simulate_chunk(problem, scheme, path_lo, path_hi, n_steps, dt, seed, save_idx,
                    initial_points=None):
    n = path_hi - path_lo
    n_ch = problem.n_channels
    inc = np.empty((n, n_steps, n_ch))
    for k in range(n):
        rng = path_generator(seed, path_lo + k)
        inc[k] = rng.normal(0.0, np.sqrt(dt), size=(n_steps, n_ch))
    if initial_points is None:
        z = np.broadcast_to(problem.initial, (n, DIM)).copy()
    else:
        z = np.array(initial_points[path_lo:path_hi], dtype=float)
    out = np.empty((n, len(save_idx), DIM))
    defect = 0.0
    save_pos = {}  # step -> every output column saved at that step
    for j, s in enumerate(save_idx):
        save_pos.setdefault(int(s), []).append(j)
    if 0 in save_pos:
        out[:, save_pos[0], :] = z[:, None, :]
    for step in range(n_steps):
        dw = inc[:, step, :]
        if scheme == "exact_rotation":
            z = exact_rotation_step(problem.frame_coefficients, z, dw, dt)
        elif scheme == "heun":
            z, d = heun_stratonovich_step(problem, z, dw, dt)
            defect = max(defect, d)
        else:
            z, d = ito_euler_step(problem, z, dw, dt)
            defect = max(defect, d)
        if step + 1 in save_pos:
            out[:, save_pos[step + 1], :] = z[:, None, :]
    return out, defect


def simulate_ensemble(problem: SdeProblem, n_paths: int, n_steps: int, dt: float,
                      seed: int, scheme: str = "heun", save_times=None,
                      threads: int = 1, initial_points=None) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths; deterministic for a fixed seed
    regardless of ``threads``.

    ``initial_points`` (n_paths, 8) overrides the problem's single initial
    point.  The exact rotation scheme requires constant frame coefficients and
    rejects state-dependent problems.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    if scheme == "exact_rotation":
        if problem.frame_coefficients is None:
            raise ValueError("exact rotation scheme needs constant frame "
                             "coefficients; state-dependent coefficient fields "
                             "are not supported")
        if problem.drift is not None:
            raise ValueError("exact rotation scheme integrates pure rotations; "
                             "use heun or ito_euler for problems with drift")
    if initial_points is not None:
        initial_points = np.asarray(initial_points, dtype=float)
        if initial_points.shape != (n_paths, DIM):
            raise ValueError("initial_points must have shape (n_paths, 8)")
    save_idx, times = _save_indices(n_steps, dt, save_times)
    states = np.empty((n_paths, len(save_idx), DIM))
    bounds = [(lo, min(lo + CHUNK, n_paths)) for lo in range(0, n_paths, CHUNK)]

    def work(b):
        lo, hi = b
        return _simulate_chunk(problem, scheme, lo, hi, n_steps, dt, seed, save_idx,
                               initial_points)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, bounds))
    else:
        results = [work(b) for b in bounds]
    defect = 0.0
    for (lo, hi), (chunk_states, chunk_defect) in zip(bounds, results):
        states[lo:hi] = chunk_states
        defect = max(defect, chunk_defect)
    return EnsembleResult(times, states, seed, scheme, dt, max_renorm_defect=defect)


def write_trajectories_csv(result: EnsembleResult, fname) -> None:
    """CSV rows path_id,t,z1..z8 in path order; %.17g keeps byte determinism."""
    n_t = len(result.times)
    row_format = _float_row(DIM + 1, lead="%d,")
    paths_per_block = max(1, ROW_BLOCK // max(n_t, 1))
    with open(fname, "w") as fh:
        fh.write("path_id,t," + ",".join(f"z{i}" for i in range(1, DIM + 1)) + "\n")
        for lo in range(0, result.n_paths, paths_per_block):
            hi = min(lo + paths_per_block, result.n_paths)
            rows = np.empty(((hi - lo) * n_t, DIM + 2))
            rows[:, 0] = np.repeat(np.arange(lo, hi), n_t)
            rows[:, 1] = np.tile(result.times, hi - lo)
            rows[:, 2:] = result.states[lo:hi].reshape(-1, DIM)
            _write_rows(fh, row_format, rows)


__all__ = [
    "NoisePath", "SdeProblem", "Trajectory", "EnsembleResult", "SCHEMES",
    "path_generator", "sample_brownian", "save_noise_path", "load_noise_path",
    "brownian_problem", "single_frame_problem", "combination_problem",
    "ito_correction_drift", "heun_stratonovich_step", "ito_euler_step",
    "exact_rotation_step", "frame_rotation_apply", "frame_rotation_matrix",
    "simulate_ensemble", "write_trajectories_csv",
]
