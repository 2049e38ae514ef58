"""Driving noise, midpoint (Heun) and Ito-Euler steps, the exact rotation
step for frame-generated dynamics, and deterministic parallel ensembles.

Determinism contract: every path draws from a counter-based generator keyed
by (master seed, path index) and the ensemble's work items are fixed path
ranges, so results are bit-identical for any worker count, a reducer's too
when its reduction does not depend on the order of the items.  An ensemble
worker keeps one generator per path slot of its chunk and re-keys it for each
path it runs.
"""

from __future__ import annotations

import functools
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .frames import DIM, FRAME_GENERATORS, N_FRAME_FIELDS, CombinedField, frame_field
from .geometry import off_sphere, row_norms

CHUNK = 1024  # fixed path block size; independent of the worker count
REDUCE_BLOCK = 4 * CHUNK  # paths per ensemble work item, each handed whole to its reducer
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
        head = inc[: n_full * level].reshape(n_full, level, inc.shape[1]).sum(axis=1)
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

    counter = np.zeros(4, np.uint64)  # spares Philox converting its default 0
    counter.flags.writeable = False
    return lambda key: Generator(Philox(Key(key), counter=counter))


_ZEROS = (0, 0, 0, 0)


def path_generator(master_seed: int, path_index: int = 0,
                   into: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for one path, independent of draw order elsewhere.

    Its stream is that of Philox(SeedSequence(entropy=master_seed,
    spawn_key=(path_index,))); the key comes from the cached keys of the
    path's CHUNK-aligned block.  ``into``, a Generator over a Philox, is
    re-keyed in place to that state (zero counter and buffer, no spare
    uint32) and returned, instead of a new generator being built.
    """
    path_index = int(path_index)
    if not 0 <= path_index < 2 ** 32:
        raise ValueError(f"path_index must lie in [0, 2**32), got {path_index}")
    key = _block_keys(int(master_seed), path_index // CHUNK)[path_index % CHUNK]
    if into is None:
        return _keyed_generator()(key)
    into.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return into


def sample_brownian(n_steps: int, dt: float, n_channels: int,
                    seed: int, path_index: int = 0) -> NoisePath:
    """Brownian increments: i.i.d. normal with variance dt per channel."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = path_generator(seed, path_index)
    inc = rng.normal(0.0, np.sqrt(dt), size=(n_steps, n_channels))
    return NoisePath(dt, inc)


@functools.cache
def _csv_tables():
    """Lookup tables of the CSV formatter, built on the first write.
    ``trail``/``lead``: index g < 10**4 gives the ASCII text of the 4-digit
    group g (first digit in the low byte) with its trailing/leading zeros as
    NUL, index g + 10**4 its full text.  ``head[20 e + 10 z + d]``: first word
    of %.17g at exponent -e, first digit d, z = 1 for a zero fraction.
    ``tail[e]``: exponent text.  ``scale[e]``: 10**(16 + e) and its halves."""
    g = np.arange(10_000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    text = (digits + 48).astype(np.uint64) << np.arange(0, 32, 8, dtype=np.uint64)

    def table(nul):
        return np.concatenate([np.where(nul, 0, text).sum(1), text.sum(1)])

    scale = 10.0 ** np.arange(16, 23)
    scale_hi = scale * 134217729.0 - (scale * 134217729.0 - scale)
    return dict(
        trail=table(np.flip(np.cumprod(np.flip(digits == 0, 1), 1), 1)),
        lead=table(np.cumprod(digits == 0, 1)),
        head=np.array([[[int.from_bytes(("\0" + h.replace("d", str(d)).rstrip("." * z))
                                        .encode(), "little") for d in range(10)] for z in (0, 1)]
                       for h in ["d.", "0.d", "0.0d", "0.00d", "0.000d", "d.", "d."]],
                      dtype=np.uint64).reshape(-1),
        tail=np.frombuffer(bytes(40) + b"e-05\0\0\0\0e-06\0\0\0\0", dtype="<u8"),
        scale=scale, scale_hi=scale_hi, scale_lo=scale - scale_hi)


def _group_words(n, table, order):
    """Words 1 and 2 of the text of integers 0 <= n < 10**16: four 4-digit
    groups, each from the zero-stripped half of ``table`` until a nonzero
    group has passed in ``order`` and from the full half after it."""
    q = [n // 10 ** 12, n // 10 ** 8, n // 10_000, n]
    groups = q[:1] + [q[j] - q[j - 1] * 10_000 for j in (1, 2, 3)]
    text, seen = [None] * 4, False
    for j in order:
        text[j] = table[groups[j] + 10_000 * seen]
        seen = seen | (groups[j] != 0)
    return text[0] | text[1] << np.uint64(32), text[2] | text[3] << np.uint64(32)


def _int_words(v, out):
    """'%d' text of ``v`` into ``out``; False where |v| >= 1e16 or not finite."""
    t = np.trunc(v)
    fast = np.abs(t) < 1e16
    n = np.where(fast, np.abs(t), 0).astype(np.int64)
    out[..., 0] = (t < 0) * np.uint64(45)
    out[..., 1], out[..., 2] = _group_words(n, _csv_tables()["lead"], range(4))
    out[..., 2] |= (n == 0) * np.uint64(48 << 56)
    return fast


def _float_words(x, out):
    """'%.17g' text of ``x`` into ``out``; False outside 0 and [1e-6, 10).

    The digits are |x| * 10**(16 + e) rounded half-even: the double product p
    is an even integer (p >= 2**53) and Dekker's product gives its exact
    remainder.  Taken only when the exact product lies in [1e16, 1e17)."""
    tab = _csv_tables()
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(ax))
    fast = (k >= -6) & (k <= 0)
    e = np.where(fast, -k, 0).astype(np.intp)
    a = np.where(fast, ax, 1.0)
    p = a * tab["scale"][e]
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)
    hi, lo = tab["scale_hi"][e], tab["scale_lo"][e]
    err = ((a_hi * hi - p) + a_hi * lo + (a - a_hi) * hi) + (a - a_hi) * lo
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    fast &= ((p > 1e16) | ((p == 1e16) & (err >= 0))) & (n < 10 ** 17)
    n = np.where(fast, n, 0)
    d0 = n // 10 ** 16
    n -= d0 * 10 ** 16
    out[..., 0] = (np.signbit(x) * np.uint64(45)
                   | tab["head"].take(20 * e + 10 * (n == 0) + d0))
    out[..., 1], out[..., 2] = _group_words(n, tab["trail"], range(3, -1, -1))
    out[..., 3] = tab["tail"][e]
    return fast | (ax == 0)


def _write_rows(fh, rows, n_int: int = 0) -> None:
    """Write the (n, k) array ``rows`` as CSV lines, the first ``n_int``
    columns by '%d' and the others by '%.17g', byte for byte as Python's
    ``%``: per ROW_BLOCK rows, one ``bytes.translate`` drops the NULs of the
    texts packed in ``_int_words`` and ``_float_words``; the values they
    reject are formatted one at a time by ``%``.
    """
    rows = np.asarray(rows, dtype=float)
    seps = [","] * (rows.shape[1] - 1) + ["\n"]
    sep_words = np.array([ord(s) << 32 for s in seps], dtype=np.uint64)
    for lo in range(0, len(rows), ROW_BLOCK):
        block = rows[lo:lo + ROW_BLOCK]
        words = np.zeros(block.shape + (4,), dtype="<u8")  # text bytes low first
        fast = np.concatenate([_int_words(block[:, :n_int], words[:, :n_int]),
                               _float_words(block[:, n_int:], words[:, n_int:])], axis=1)
        words[..., 3] |= sep_words
        raw, parts, start = words.tobytes(), [], 0
        for i in np.flatnonzero(~fast).tolist():
            col = i % block.shape[1]
            text = ("%d" if col < n_int else "%.17g") % block.flat[i] + seps[col]
            parts += [raw[start:32 * i], text.encode()]
            start = 32 * (i + 1)
        parts.append(raw[start:])
        fh.write(b"".join(parts).translate(None, b"\0").decode())


@dataclass
class SdeProblem:
    """Diffusion fields, one Wiener channel each, and an initial point on
    the sphere: the Stratonovich SDE dz = sum_c V_c(z) o dW^c.

    ``frame_coefficients`` (n_fields, 7) stacks the fields' constant frame
    ``coefficients`` (None unless every field has them), which the exact
    rotation and Ito-Euler schemes need.  Such fields are linear, V_c(z) = J_c z
    with J_c = sum_mu C[c, mu] J_mu, C = ``frame_coefficients``, and their Ito
    drift h(z) = sum_c (dV_c/dz) V_c(z), the Stratonovich-to-Ito correction, is
    sum_c J_c J_c z = -|C|_F^2 z; one frame field gives h = -z exactly.
    """

    diffusion_fields: tuple
    initial: np.ndarray

    def __post_init__(self):
        self.diffusion_fields = tuple(self.diffusion_fields)
        if not self.diffusion_fields:
            raise ValueError("an SDE problem needs at least one diffusion field")
        self.initial = np.asarray(self.initial, dtype=float)
        if self.initial.shape != (DIM,):
            raise ValueError("initial point must be an 8-vector")
        if off_sphere(self.initial):
            raise ValueError(f"initial point must be a finite point of the unit sphere, "
                             f"got {self.initial}")
        coeffs = [getattr(f, "coefficients", None) for f in self.diffusion_fields]
        coeffs = None if any(c is None for c in coeffs) else np.array(coeffs, dtype=float)
        self.frame_coefficients = coeffs
        # (8, n_fields * 8) stacked J_c, F-contiguous: order "A" keeps a points-last z points-last
        self._table = (None if coeffs is None
                       else np.tensordot(coeffs, FRAME_GENERATORS, 1).reshape(-1, DIM).T)

    @property
    def n_channels(self) -> int:
        return len(self.diffusion_fields)

    def diffusion_matrix(self, z) -> np.ndarray:
        """Per-channel field values at z; shape (..., n_channels, 8).

        Linear fields are evaluated together as one product with the
        stacked generators, in the point layout of z, the others one call each.
        """
        z = np.asarray(z, dtype=float)
        if self._table is not None:
            flat = np.matmul(z, self._table, order="A")
            return flat.reshape(z.shape[:-1] + (self.n_channels, DIM))
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


# 0-d operands: numpy converts a Python float anew in every call (~0.2 us, 2-core Xeon)
_ZERO, _HALF, _ONE = np.array(0.0), np.array(0.5), np.array(1.0)


def _checked_dw(problem: SdeProblem, dw):
    """dw as floats, one channel per field: einsum broadcasts a size-1 channel
    axis and V(z) * dw an (8, 8) dw on 8 points: a mis-shaped dw would step."""
    dw = np.asarray(dw, dtype=float)
    if dw.shape[-1:] != (n := len(problem.diffusion_fields),):
        raise ValueError(f"dw of shape {dw.shape} does not end in the problem's {n} channel(s)")
    return dw


def _increment(problem: SdeProblem, z, dw):
    """sum_c V_c(z) dw_c; K z for frame-coefficient fields, K = sum_c dw_c J_c."""
    return np.einsum("...ci,...c->...i", problem.diffusion_matrix(z), dw)


def _renormalize(z):
    """z projected back onto the sphere, and the norms (..., 1) it was divided by."""
    norms = row_norms(z)
    return z / norms, norms


def _norm_defect(norms) -> float:
    """The largest renormalization defect |norms - 1| of a step."""
    d = np.abs(norms - _ONE)  # argmax: the max or the first NaN, without a reduce's set-up
    return float(d.flat[d.argmax()])


def _worst(defects) -> float:
    """The largest defect, 0.0 for none; a NaN wins (Python's max keeps a finite one)."""
    return float(np.max(defects, initial=0.0))


def _rotation_step(problem: SdeProblem, z, dw, c):
    """c z + K z renormalized: the step of both schemes on frame-coefficient fields."""
    return _renormalize(c * z + _increment(problem, z, dw))


def heun_stratonovich_step(problem: SdeProblem, z, dw):
    """One predictor-corrector Stratonovich step followed by renormalization.

    ``z`` is (..., 8), ``dw`` is (..., n_channels).  Returns the new points and
    the norms (..., 1) the renormalization divided by; its defect is
    |norms - 1|.  Without a drift the step sees the time step only through ``dw``.

    On frame-coefficient fields K = sum_c dw_c J_c has K^2 = -|a|^2 I with
    a = dw @ C, so the step (I + K + K^2/2) z is taken as (1 - |a|^2/2) z + K z:
    it turns every point by theta = atan2(|a|, 1 - |a|^2/2), so the flow is an
    exact isometry, and the norms are sqrt(1 + |a|^4/4).
    """
    z = np.asarray(z, dtype=float)
    dw = _checked_dw(problem, dw)
    if problem.frame_coefficients is not None:
        a = np.matmul(dw, problem.frame_coefficients)  # C order: |a|^2 layout-free
        return _rotation_step(problem, z, dw, _ONE - _HALF * np.vecdot(a, a)[..., None])
    fields = problem.diffusion_fields
    if len(fields) != 1:
        incr = _increment(problem, z, dw)
        return _renormalize(z + _HALF * (incr + _increment(problem, z + incr, dw)))
    # One field: V(z) dw + 0.0, the bits of an einsum over the size-1 channel
    # axis, which adds to +0.0 (-0.0 turns +0.0).  The corrector's product is
    # only added to incr, which holds no -0.0, so it needs no + 0.0.
    incr = fields[0](z) * dw + _ZERO
    return _renormalize(z + _HALF * (incr + fields[0](z + incr) * dw))


def _frame_only(problem: SdeProblem, scheme: str) -> None:
    """Reject a problem without frame coefficients for every scheme but heun."""
    if scheme != "heun" and problem.frame_coefficients is None:
        raise ValueError(f"the {scheme} scheme needs every field to be linear, V(z) = J z, "
                         "with constant frame coefficients")


def ito_euler_step(problem: SdeProblem, z, dw, dt: float):
    """Euler-Maruyama step of the Ito form, drift h/2, then renormalization;
    frame-coefficient fields only (h = -|C|_F^2 z, see ``SdeProblem``).  The
    step is c z + K z with c = 1 - dt |C|_F^2 / 2 (K and a as for Heun): it
    turns every point by theta = atan2(|a|, c), so the flow is an exact
    isometry, and the norms it returns, as Heun's, are sqrt(c^2 + |a|^2)."""
    _frame_only(problem, "ito_euler")
    c = problem.frame_coefficients
    return _rotation_step(problem, np.asarray(z, dtype=float), _checked_dw(problem, dw),
                          1.0 - 0.5 * dt * np.vdot(c, c))


def frame_rotation_matrix(a) -> np.ndarray:
    """The 8x8 rotations exp(sum_mu a_mu J_mu) in closed form, (..., 8, 8)
    for coefficient vectors a (..., 7)."""
    a = np.asarray(a, dtype=float)
    k = np.tensordot(a, FRAME_GENERATORS, axes=(-1, 0))
    w = np.sqrt(np.vecdot(a, a))[..., None, None]
    return np.cos(w) * np.eye(DIM) + np.sinc(w / np.pi) * k


def exact_rotation_step(problem: SdeProblem, z, dw):
    """Exact isometric step for frame-coefficient dynamics.

    ``z`` is (..., 8), ``dw`` is (..., n_channels).  With K and a = dw @ C as
    for Heun, K^2 = -|a|^2 I, so the step exp(K) z is cos|a| z + sinc|a| K z
    exactly: it turns every point by the angle |a|.  Exact for a single
    channel.  For n > 1 independent channels it is a geodesic random walk,
    an exact isometry every step, but its one-point law has weak order 1:
    with the seven frame channels the mean contracts per step by
    E cos(sqrt(dt) chi_7) = e^{-dt/2} (1 - 3 dt + dt^2 - dt^3/15), not by
    e^{-7 dt/2}, so the mean at t = 1 is 3.5% low at dt = 1e-2 and 0.35% low
    at dt = 1e-3.
    """
    _frame_only(problem, "exact_rotation")
    z = np.asarray(z, dtype=float)
    dw = _checked_dw(problem, dw)
    a = np.matmul(dw, problem.frame_coefficients, order="F" if dw.flags.f_contiguous else "C")
    w = row_norms(a)
    return np.cos(w) * z + np.sinc(w / np.pi) * _increment(problem, z, dw)


@dataclass
class EnsembleResult:
    times: np.ndarray
    states: np.ndarray | None  # (n_paths, n_saved, 8); None when a reducer took them
    max_renorm_defect: float = 0.0

    @property
    def n_paths(self) -> int:
        return self._kept_states().shape[0]

    @property
    def final_states(self) -> np.ndarray:
        return self._kept_states()[:, -1, :]

    def _kept_states(self) -> np.ndarray:
        if self.states is None:
            raise ValueError("this ensemble handed its states to a reduce callback and "
                             "kept none; read what the reducer kept instead")
        return self.states


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
                    initial_points, gens):
    """Integrate paths path_lo + [0, len(out)) into ``out`` (n, n_saved, 8); return
    the largest renormalization defect.  ``gens``, the calling worker's list of
    raw generators (one per path slot, grown here as needed and kept by the
    caller across chunks), is re-keyed in one pass at the first noise block,
    path k by ``path_generator(seed, path_lo + k, into=gens[k])``.  The
    generators that call returns fill a path-major (paths, steps, channels)
    noise buffer NOISE_BLOCK steps at a time.  State and step noise are
    points-last, the (n, k) transposed views of (k, n) arrays, so the steps'
    products and sums run along contiguous points."""
    n = len(out)
    n_ch = problem.n_channels
    sd = np.sqrt(dt)
    path_hi = path_lo + n
    noise = np.empty((n, min(n_steps, NOISE_BLOCK), n_ch))
    dw = np.empty((n_ch, n)).T
    z = np.empty((DIM, n)).T
    z[...] = problem.initial if initial_points is None else initial_points[path_lo:path_hi]
    defects = []
    save_pos = {}  # step -> every output column saved at that step
    for j, s in enumerate(save_idx):
        save_pos.setdefault(int(s), []).append(j)
    if 0 in save_pos:
        out[:, save_pos[0], :] = z[:, None, :]
    for step in range(n_steps):
        if step == 0:
            # any key will do: every slot is re-keyed before it draws
            gens += [_keyed_generator()(_ZEROS[:2]) for _ in range(n - len(gens))]
            rngs = [path_generator(seed, i, into=g) for i, g in zip(range(path_lo, path_hi), gens)]
        if step % NOISE_BLOCK == 0:
            block = noise[:, :n_steps - step]
            for k, rng in enumerate(rngs):
                block[k] = rng.normal(0.0, sd, size=block.shape[1:])
        dw[...] = block[:, step % NOISE_BLOCK]
        if scheme == "exact_rotation":
            z = exact_rotation_step(problem, z, dw)
        else:
            z, norms = (heun_stratonovich_step(problem, z, dw) if scheme == "heun"
                        else ito_euler_step(problem, z, dw, dt))
            defects.append(_norm_defect(norms))
        if step + 1 in save_pos:
            out[:, save_pos[step + 1], :] = z[:, None, :]
    return _worst(defects)


def simulate_ensemble(problem: SdeProblem, n_paths: int, n_steps: int, dt: float,
                      seed: int, scheme: str = "heun", save_times=None,
                      threads: int = 1, initial_points=None, reduce=None) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths; deterministic for a fixed seed
    regardless of ``threads``.

    ``initial_points`` (n_paths, 8) overrides the problem's single initial
    point; like it, each row must be finite and on the unit sphere to 1e-10.
    The exact rotation and Ito-Euler schemes require every field to carry
    constant frame ``coefficients``; both reject state-dependent problems.

    Without ``reduce`` the work items are the fixed path ranges
    lo + [0, CHUNK), each writing its slice of the returned ``states``.
    With ``reduce`` they are the fixed ranges lo + [0, REDUCE_BLOCK), each
    stepped CHUNK paths at a time by one worker, and ``reduce(lo, block)``
    receives an item's saved states ``block`` (n, n_saved, 8) in the worker
    that ran it, as soon as the item ends, so items reach it in any order and
    from several threads at once: its reduction must not depend on that order,
    and it must copy whatever it keeps of ``block``.  Integer counts merged
    under a lock are order-free, and so are per-path values written to the
    paths' own slots lo + [0, n) of a preallocated array, which need no lock
    since items are disjoint.  The result's ``states`` is then None (its
    ``n_paths`` and ``final_states`` raise ValueError), and the ensemble
    holds at most threads x REDUCE_BLOCK paths' states.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    _frame_only(problem, scheme)
    if initial_points is not None:
        initial_points = np.asarray(initial_points, dtype=float)
        if initial_points.shape != (n_paths, DIM):
            raise ValueError("initial_points must have shape (n_paths, 8)")
        for lo in range(0, n_paths, CHUNK):  # SdeProblem.initial's rule, a CHUNK at a time
            off = off_sphere(initial_points[lo:lo + CHUNK])
            if off.any():
                i = lo + int(np.argmax(off))
                raise ValueError(f"initial_points row {i} is not a finite point on the unit "
                                 f"sphere: {initial_points[i]}")
    save_idx, times = _save_indices(n_steps, dt, save_times)
    saved = (len(save_idx), DIM)
    states = np.empty((n_paths, *saved)) if reduce is None else None

    free = queue.SimpleQueue()  # one generator list per worker, reused across its chunks
    for _ in range(threads):
        free.put([])

    item = CHUNK if reduce is None else REDUCE_BLOCK  # small items keep workers balanced

    def work(lo):
        hi = min(lo + item, n_paths)
        block = states[lo:hi] if reduce is None else np.empty((hi - lo, *saved))
        gens = free.get()
        try:
            defect = _worst([_simulate_chunk(problem, scheme, block[c - lo:c - lo + CHUNK], c,
                                             n_steps, dt, seed, save_idx, initial_points, gens)
                             for c in range(lo, hi, CHUNK)])
        finally:
            free.put(gens)
        if reduce is not None:
            reduce(lo, block)
        return defect

    items = range(0, n_paths, item)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            defects = list(pool.map(work, items))
    else:
        defects = [work(lo) for lo in items]
    return EnsembleResult(times, states, max_renorm_defect=_worst(defects))


def write_trajectories_csv(result: EnsembleResult, fname) -> None:
    """CSV rows path_id,t,z1..z8 in path order; %.17g keeps byte determinism."""
    n_t = len(result.times)
    paths_per_block = max(1, ROW_BLOCK // max(n_t, 1))
    with open(fname, "w") as fh:
        fh.write("path_id,t," + ",".join(f"z{i}" for i in range(1, DIM + 1)) + "\n")
        for lo in range(0, result.n_paths, paths_per_block):
            hi = min(lo + paths_per_block, result.n_paths)
            rows = np.empty(((hi - lo) * n_t, DIM + 2))
            rows[:, 0] = np.repeat(np.arange(lo, hi), n_t)
            rows[:, 1] = np.tile(result.times, hi - lo)
            rows[:, 2:] = result.states[lo:hi].reshape(-1, DIM)
            _write_rows(fh, rows, n_int=1)


__all__ = [
    "NoisePath", "SdeProblem", "EnsembleResult", "SCHEMES",
    "path_generator", "sample_brownian",
    "brownian_problem", "single_frame_problem", "combination_problem",
    "heun_stratonovich_step", "ito_euler_step",
    "exact_rotation_step", "frame_rotation_matrix",
    "simulate_ensemble", "write_trajectories_csv",
]
