"""Driving noise, midpoint (Heun) and Ito-Euler steps, the exact rotation
step for frame-generated dynamics, and deterministic parallel ensembles.

Determinism contract: every path owns a counter-based generator keyed by
(master seed, path index), and all reductions run in fixed path order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import io
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .frames import (DIM, FRAME_GENERATORS, N_FRAME_FIELDS, CombinedField,
                     frame_eval_all, frame_field)
from .geometry import central_difference, row_norms

CHUNK = 1024  # fixed path block size; independent of the worker count
NOISE_BLOCK = 256  # steps of noise drawn per block; bounds a chunk's noise buffer
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


# numpy's SeedSequence hash constants (after O'Neill's seed_seq_fe)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


@functools.lru_cache(maxsize=16)
def _block_keys(seed: int, block: int) -> np.ndarray:
    """Philox keys (CHUNK, 2), read-only, of paths block * CHUNK + [0, CHUNK).

    SeedSequence(entropy=seed, spawn_key=(i,)) mixes the word i into
    SeedSequence(seed)'s pool by 4 hashmix calls, after 16 calls for up to 4
    seed words and 4 per further word.  That mixing runs here for every i of
    the block in one uint32 array pass, followed by generate_state(2, uint64)."""
    from numpy.random import SeedSequence

    n_words = max(1, -(-seed.bit_length() // 32))
    hc = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, n_words - 4), 1 << 32) & _MASK32
    gen_hc, words = _INIT_B, []
    w = (block * CHUNK + np.arange(CHUNK)).astype(np.uint32)
    for p in SeedSequence(seed).pool:
        h = (w ^ hc) * (hc := hc * _MULT_A & _MASK32)  # hashmix(i)
        v = (_MIX_L * int(p) & _MASK32) - _MIX_R * (h ^ h >> 16)  # mix into p
        v = (v ^ v >> 16 ^ gen_hc) * (gen_hc := gen_hc * _MULT_B & _MASK32)
        words.append(v ^ v >> 16)
    keys = np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


@functools.cache
def _keyed_generator():
    """Generator(Philox) from a precomputed key.  numpy.random is imported
    on the first path drawn, not with the package."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for its 2 uint64 key words

    return lambda key: Generator(Philox(Key(key)))


def path_generator(master_seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based generator for one path, independent of draw order elsewhere.

    Its stream is that of Philox(SeedSequence(entropy=master_seed,
    spawn_key=(path_index,))); the key comes from the cached keys of the
    path's CHUNK-aligned block.
    """
    path_index = int(path_index)
    if not 0 <= path_index < 2 ** 32:
        raise ValueError(f"path_index must lie in [0, 2**32), got {path_index}")
    keys = _block_keys(int(master_seed), path_index // CHUNK)
    return _keyed_generator()(keys[path_index % CHUNK])


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
    """Diffusion fields, one Wiener channel each, and an initial point on
    the sphere: the Stratonovich SDE dz = sum_c V_c(z) o dW^c.

    Both stacks below are read off the fields and are None unless every
    field carries the attribute.  ``generators`` (n_fields, 8, 8) stacks the
    matrices J of linear fields V(z) = J z.  ``frame_coefficients``
    (n_fields, 7) stacks the constant frame coefficients of fixed frame
    combinations and enables the exact rotation scheme.
    """

    diffusion_fields: tuple
    initial: np.ndarray

    def __post_init__(self):
        self.diffusion_fields = tuple(self.diffusion_fields)
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (DIM,):
            raise ValueError("initial point must be an 8-vector")
        if abs(np.linalg.norm(self.initial) - 1.0) > 1e-10:
            raise ValueError("initial point must lie on the unit sphere")
        self.generators = _stack(self.diffusion_fields, "generator")
        self.frame_coefficients = _stack(self.diffusion_fields, "coefficients")

    @property
    def n_channels(self) -> int:
        return len(self.diffusion_fields)

    def diffusion_matrix(self, z) -> np.ndarray:
        """Per-channel field values at z; shape (..., n_channels, 8).

        Linear fields are evaluated together as one product with the
        stacked generators, the others one call each.
        """
        z = np.asarray(z, dtype=float)
        if self.generators is not None:
            flat = z @ self.generators.reshape(-1, DIM).T
            return flat.reshape(z.shape[:-1] + self.generators.shape[:-1])
        if len(self.diffusion_fields) == 1:
            return np.asarray(self.diffusion_fields[0](z), dtype=float)[..., None, :]
        return np.stack([np.asarray(f(z), dtype=float)
                         for f in self.diffusion_fields], axis=-2)


def brownian_problem(initial) -> SdeProblem:
    """All seven frame fields with independent channels: Brownian motion."""
    return SdeProblem([frame_field(mu) for mu in range(1, N_FRAME_FIELDS + 1)], initial)


def single_frame_problem(mu: int, initial) -> SdeProblem:
    """One frame field driven by one scalar channel."""
    return SdeProblem((frame_field(mu),), initial)


def combination_problem(c, initial) -> SdeProblem:
    """Constant coefficient combination of the frame, one scalar channel."""
    return SdeProblem((CombinedField.constant(c),), initial)


def _stack(fields, attr):
    """The array attribute ``attr`` of every field, stacked along a new first
    axis; None when any field lacks it."""
    vals = [getattr(f, attr, None) for f in fields]
    if not vals or any(v is None for v in vals):
        return None
    return np.array(vals, dtype=float)


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
    gens = _stack(fields, "generator")
    if gens is not None:
        return z @ np.sum(gens @ gens, axis=0).T
    total = np.zeros_like(z)
    for fld in fields:
        jac = central_difference(fld, z, 1e-6)  # (..., 8, 8)
        if not np.all(np.isfinite(jac)):
            raise FloatingPointError("field Jacobian is not finite")
        total = total + np.einsum("...ij,...j->...i", jac, np.asarray(fld(z), dtype=float))
    return total


def _increment(problem: SdeProblem, z, dw):
    """sum_c V_c(z) dw_c."""
    return np.einsum("...ci,...c->...i", problem.diffusion_matrix(z), dw)


def _renormalize(z):
    """z projected back onto the sphere, and the largest norm defect absorbed."""
    norms = row_norms(z)
    return z / norms, float(abs(norms - 1.0).max())


def heun_stratonovich_step(problem: SdeProblem, z, dw):
    """One predictor-corrector Stratonovich step followed by renormalization.

    ``z`` is (..., 8), ``dw`` is (..., n_channels).  Returns the new points and
    the largest norm defect absorbed by the renormalization.  Without a drift
    the step sees the time step only through ``dw``.
    """
    z = np.asarray(z, dtype=float)
    dw = np.asarray(dw, dtype=float)
    incr = _increment(problem, z, dw)
    incr2 = _increment(problem, z + incr, dw)
    return _renormalize(z + 0.5 * (incr + incr2))


def ito_euler_step(problem: SdeProblem, z, dw, dt: float):
    """Euler-Maruyama step of the Ito form, drift h/2, then renormalization."""
    z = np.asarray(z, dtype=float)
    dw = np.asarray(dw, dtype=float)
    h = ito_correction_drift(problem.diffusion_fields, z)
    return _renormalize(z + 0.5 * dt * h + _increment(problem, z, dw))


def frame_rotation_apply(a, z) -> np.ndarray:
    """Apply exp(sum_mu a_mu J_mu) to z, batched over leading axes.

    The frame generators pairwise anticommute and square to -I, so
    K = sum a_mu J_mu satisfies K^2 = -|a|^2 I and the exponential is
    cos(|a|) I + sinc(|a|) K exactly.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    kz = np.einsum("...m,...mi->...i", a, frame_eval_all(z))
    w = row_norms(a)
    return np.cos(w) * z + np.sinc(w / np.pi) * kz


def frame_rotation_matrix(a) -> np.ndarray:
    """The 8x8 rotations exp(sum_mu a_mu J_mu) in closed form, (..., 8, 8)
    for coefficient vectors a (..., 7)."""
    a = np.asarray(a, dtype=float)
    k = np.tensordot(a, FRAME_GENERATORS, axes=(-1, 0))
    w = np.sqrt(np.vecdot(a, a))[..., None, None]
    return np.cos(w) * np.eye(DIM) + np.sinc(w / np.pi) * k


def exact_rotation_step(coefficients, z, dw):
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


def _simulate_chunk(problem, scheme, out, path_lo, n_steps, dt, seed, save_idx,
                    initial_points=None):
    """Integrate paths path_lo + [0, len(out)) into ``out`` (n, n_saved, 8); return
    the largest renormalization defect.  Per-path generators fill a (b, n, n_ch)
    noise buffer NOISE_BLOCK steps at a time, kept while a later block needs them."""
    n = len(out)
    n_ch = problem.n_channels
    rngs = (path_generator(seed, i) for i in range(path_lo, path_lo + n))
    noise = np.empty((min(n_steps, NOISE_BLOCK), n, n_ch))
    if initial_points is None:
        z = np.broadcast_to(problem.initial, (n, DIM)).copy()
    else:
        z = np.array(initial_points[path_lo:path_lo + n], dtype=float)
    defect = 0.0
    save_pos = {}  # step -> every output column saved at that step
    for j, s in enumerate(save_idx):
        save_pos.setdefault(int(s), []).append(j)
    if 0 in save_pos:
        out[:, save_pos[0], :] = z[:, None, :]
    for step in range(n_steps):
        if step % NOISE_BLOCK == 0:
            block = noise[:n_steps - step]
            if n_steps - step > NOISE_BLOCK:
                rngs = list(rngs)
            for k, rng in enumerate(rngs):
                block[:, k] = rng.normal(0.0, np.sqrt(dt), size=(len(block), n_ch))
        dw = block[step % NOISE_BLOCK]
        if scheme == "exact_rotation":
            z = exact_rotation_step(problem.frame_coefficients, z, dw)
        elif scheme == "heun":
            z, d = heun_stratonovich_step(problem, z, dw)
            defect = max(defect, d)
        else:
            z, d = ito_euler_step(problem, z, dw, dt)
            defect = max(defect, d)
        if step + 1 in save_pos:
            out[:, save_pos[step + 1], :] = z[:, None, :]
    return defect


def simulate_ensemble(problem: SdeProblem, n_paths: int, n_steps: int, dt: float,
                      seed: int, scheme: str = "heun", save_times=None,
                      threads: int = 1, initial_points=None) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths; deterministic for a fixed seed
    regardless of ``threads``.

    ``initial_points`` (n_paths, 8) overrides the problem's single initial
    point.  The exact rotation scheme requires every field to carry constant
    frame ``coefficients`` and rejects state-dependent problems.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    if scheme == "exact_rotation" and problem.frame_coefficients is None:
        raise ValueError("exact rotation scheme needs every field to carry "
                         "constant frame coefficients; state-dependent "
                         "coefficient fields are not supported")
    if initial_points is not None:
        initial_points = np.asarray(initial_points, dtype=float)
        if initial_points.shape != (n_paths, DIM):
            raise ValueError("initial_points must have shape (n_paths, 8)")
    save_idx, times = _save_indices(n_steps, dt, save_times)
    states = np.empty((n_paths, len(save_idx), DIM))

    def work(lo):
        return _simulate_chunk(problem, scheme, states[lo:lo + CHUNK], lo, n_steps, dt,
                               seed, save_idx, initial_points)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            defects = list(pool.map(work, range(0, n_paths, CHUNK)))
    else:
        defects = [work(lo) for lo in range(0, n_paths, CHUNK)]
    return EnsembleResult(times, states, seed, scheme, dt,
                          max_renorm_defect=max([0.0, *defects]))


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
    "NoisePath", "SdeProblem", "EnsembleResult", "SCHEMES",
    "path_generator", "sample_brownian", "save_noise_path", "load_noise_path",
    "brownian_problem", "single_frame_problem", "combination_problem",
    "ito_correction_drift", "heun_stratonovich_step", "ito_euler_step",
    "exact_rotation_step", "frame_rotation_apply", "frame_rotation_matrix",
    "simulate_ensemble", "write_trajectories_csv",
]
