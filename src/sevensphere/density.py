"""Monte Carlo density estimation on the sphere, entropy evaluation,
pointwise Fokker-Planck residuals and weak-form generator checks.

Densities are taken with respect to the Riemannian (area) measure; bin
volumes come from per-angle integrals of the sin-power weights, so the
volumes of all bins sum to the exact total area.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import integrators as sint
from .frames import frame_eval_all
from .geometry import (ANGLE_UPPER as ANGLE_SPANS, N_ANGLES, chart_jacobian, row_norms,
                       sin_power_integral, sphere_volume, to_cartesian, to_spherical,
                       volume_element)

SIN_POWERS = tuple(range(6, 0, -1)) + (0,)  # per 0-based angle axis
WEAK_SAVES = 11  # generator_weak_check's saved slices per path
WEAK_SLICE = 256  # paths per generator evaluation; bounds the weak check's temporaries


@dataclass(frozen=True)
class GridSpec:
    """Uniform product grid over the seven angles."""

    bins: tuple

    def __post_init__(self):
        if len(self.bins) != N_ANGLES or any(b < 2 for b in self.bins):
            raise ValueError("grid needs 7 angle resolutions, each >= 2")
        if math.prod(int(b) for b in self.bins) > np.iinfo(np.intp).max:
            raise ValueError(f"grid {self.bins} has more bins than a flat intp index can number")

    @classmethod
    def uniform(cls, n: int) -> "GridSpec":
        return cls((n,) * N_ANGLES)

    def axis_weights(self, axis: int) -> np.ndarray:
        """Integral of sin^power over each bin of the axis; read-only, cached
        per bin count and axis."""
        return _axis_weights(self.bins[axis], axis)

    def bin_indices(self, phi: np.ndarray) -> np.ndarray:
        widths = ANGLE_SPANS / np.asarray(self.bins, dtype=float)
        idx = np.floor(phi / widths).astype(int)
        return np.clip(idx, 0, np.asarray(self.bins) - 1)


@functools.cache
def _axis_weights(n_bins: int, axis: int) -> np.ndarray:
    e = np.linspace(0.0, ANGLE_SPANS[axis], n_bins + 1)
    power = SIN_POWERS[axis]
    w = (np.diff(e) if power == 0
         else np.array([sin_power_integral(power, lo, hi) for lo, hi in zip(e, e[1:])]))
    w.flags.writeable = False
    return w


@dataclass
class DensityEstimate:
    """Sparse volume-weighted histogram over the angle grid."""

    grid: GridSpec
    n_samples: int
    flat: np.ndarray      # (K,) occupied bins' row-major flat numbers, ascending
    indices: np.ndarray   # (K, 7) occupied bin indices
    counts: np.ndarray    # (K,)
    volumes: np.ndarray   # (K,) Riemannian bin volumes
    densities: np.ndarray  # (K,) counts / (n * volume)


def counted_density(grid: GridSpec, flat, counts, n: int) -> DensityEstimate:
    """The histogram of n samples whose occupied bins, ascending flat numbers
    ``flat``, hold ``counts``; the volumes are the bins' round-sphere ones."""
    keys = np.column_stack(np.unravel_index(flat, grid.bins))
    volumes = np.ones(len(keys))
    for a in range(N_ANGLES):
        volumes *= grid.axis_weights(a)[keys[:, a]]
    return DensityEstimate(grid, n, flat, keys, counts, volumes, counts / (n * volumes))


def _histogram(samples, grid: GridSpec) -> DensityEstimate:
    """Histogram of (n, 8) sphere points."""
    if samples.shape[0] == 0:
        raise ValueError("density estimation needs at least one sample")
    if not np.isfinite(samples).all():
        raise ValueError("density estimation needs finite samples: got NaN or inf")
    flat = np.ravel_multi_index(grid.bin_indices(to_spherical(samples)).T, grid.bins)
    return counted_density(grid, *np.unique(flat, return_counts=True), samples.shape[0])


def estimate_density(samples, grid: GridSpec) -> DensityEstimate:
    """Histogram sphere points over the angle grid with volume weights."""
    return _histogram(np.atleast_2d(np.asarray(samples, dtype=float)), grid)


def merge_counts(flat_a, counts_a, flat_b, counts_b):
    """The bin counts of two disjoint sample sets pooled: ascending flat bin
    numbers and integer counts, whichever set comes first.  numpy's stable
    sort merges the two ascending runs, about 8x as fast as np.union1d."""
    flat = np.concatenate([flat_a, flat_b])
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    first = np.flatnonzero(np.diff(flat, prepend=-1))  # bin numbers are >= 0
    return flat[first], np.add.reduceat(np.concatenate([counts_a, counts_b])[order], first)


@dataclass
class EntropyReport:
    S: float
    stderr: float
    mm_correction: float
    n_occupied: int
    t: float | None = None

    @property
    def S_corrected(self) -> float:
        return self.S + self.mm_correction


def plugin_entropy(counts, densities, n: int, t: float | None = None) -> EntropyReport:
    """Plug-in entropy -sum p log p * vol over occupied bins (empty bins add 0),
    from the bin counts of n samples and the bin densities counts / (n vol).

    Reports the Miller-Madow bias correction (K-1)/(2n) and the sampling
    standard error of the plug-in value.
    """
    w = counts / n  # = p * vol per occupied bin
    logp = np.log(densities)
    s = float(-np.sum(w * logp))
    var = float(np.sum(w * logp ** 2) - s ** 2)
    se = float(np.sqrt(max(var, 0.0) / n))
    mm = (len(counts) - 1) / (2.0 * n)
    return EntropyReport(S=s, stderr=se, mm_correction=mm,
                         n_occupied=len(counts), t=t)


def entropy(d: DensityEstimate, t: float | None = None) -> EntropyReport:
    """Plug-in entropy of a sphere histogram; see ``plugin_entropy``."""
    return plugin_entropy(d.counts, d.densities, d.n_samples, t)


def max_entropy() -> float:
    return float(np.log(sphere_volume()))


# ---------------------------------------------------------------------------
# coordinate pushforward of fields and the Fokker-Planck machinery
# ---------------------------------------------------------------------------

def _diffusion_fields(fields):
    if isinstance(fields, sint.SdeProblem):
        return fields.diffusion_fields
    if callable(fields):
        return (fields,)
    return tuple(fields)


def angular_fields(phi, fields) -> np.ndarray:
    """Push ambient channel fields into chart coordinates: rows G^-1 J^T V,
    shape (..., n_ch, 7) at angle vectors phi (..., 7).

    The chart is orthogonal, so G is diagonal.  Where a diagonal entry
    vanishes (on the singular set) that coordinate is set to 0, the
    least-squares value.
    """
    z = to_cartesian(phi)
    jac = chart_jacobian(phi)
    g = np.sum(jac * jac, axis=-2)[..., None, :]
    rhs = np.stack([np.asarray(fld(z), dtype=float)
                    for fld in _diffusion_fields(fields)], axis=-2) @ jac
    return np.divide(rhs, g, out=np.zeros_like(rhs), where=g > 0.0)


def uniform_density():
    """The stationary density 1/Vol as a function of angles (..., 7)."""
    return lambda phi: np.full(np.shape(phi)[:-1], 1.0 / sphere_volume())


def fokker_planck_residual(p_fn, fields, phi, dp_dt: float = 0.0,
                           h: float = 5e-4) -> float:
    """Imbalance of the forward equation at one interior chart point, in the
    Stratonovich divergence form

        1/2 sum_a d_i( vtilde_a^i d_j( vtilde_a^j p m ) ) - m dp/dt

    with vtilde_a the channel fields pushed through the chart and m the
    angular volume factor.  Both divergences are central differences of step
    h: the inner one at the 14 x 14 points phi +- h e_i +- h e_j, the outer
    one at the 14 points phi +- h e_i, each set in one ``angular_fields``
    call.  ``p_fn`` maps angle arrays (..., 7) to densities.
    Points whose stencil phi +- 2h leaves [0, pi] in one of the first six
    angles, crossing the coordinate-singular set, or whose volume factor is
    below 1e-6, are rejected.
    """
    phi = np.asarray(phi, dtype=float)
    m = volume_element(phi)
    if m < 1e-6 or np.any(phi[:6] < 2.0 * h) or np.any(phi[:6] > np.pi - 2.0 * h):
        raise ValueError(f"phi = {phi} is too close to the coordinate-singular set (one "
                         f"of the first six angles at 0 or pi) for the stencil phi +- {2 * h}")
    steps = h * np.concatenate([np.eye(N_ANGLES), -np.eye(N_ANGLES)])  # +e_i, then -e_i
    outer = phi + steps                                    # (14, 7)
    inner = outer[:, None, :] + steps                      # (14, 14, 7)
    outer[:, 6] %= 2.0 * np.pi
    inner[..., 6] %= 2.0 * np.pi
    flux = angular_fields(inner, fields) * (p_fn(inner) * volume_element(inner))[..., None, None]
    # d_j(vtilde_a^j p m) at each outer point, from its +e_j and -e_j neighbours
    div_in = np.einsum("ojaj->oa", flux[:, :N_ANGLES] - flux[:, N_ANGLES:]) / (2.0 * h)
    flux = angular_fields(outer, fields) * div_in[..., None]
    div_out = np.einsum("iai->", flux[:N_ANGLES] - flux[N_ANGLES:]) / (2.0 * h)
    return float(0.5 * div_out - m * dp_dt)


# ---------------------------------------------------------------------------
# weak-form generator verification
# ---------------------------------------------------------------------------

@dataclass
class WeakCheckReport:
    lhs: float             # E f(z_t) - f(z_0)
    rhs: float             # E int_0^t L f(z_s) ds
    martingale_mean: float
    stderr: float
    n_paths: int
    max_renorm_defect: float = 0.0


def _generator_apply(problem: sint.SdeProblem, f, states, h: float = 1e-4):
    """(L f)(z) for a batch of points via second differences along the
    channel flows.

    The frame values and f(z) are taken once per batch.  Each channel's pair
    z +- = cos|a| z +- sinc(|a|/pi) K z, a = h c, has the bits of
    ``frame_rotation_apply(+-a, z)``: negating a negates K z exactly and
    keeps |a|."""
    states = np.asarray(states, dtype=float)
    u = frame_eval_all(states)
    f0 = 2.0 * f(states)
    out = np.zeros(states.shape[:-1])
    for c in problem.frame_coefficients:
        a = h * c
        kz = np.einsum("...m,...mi->...i", a, u)
        w = row_norms(a)
        cz, skz = np.cos(w) * states, np.sinc(w / np.pi) * kz
        out = out + (f(cz + skz) - f0 + f(cz - skz)) / h ** 2
    return 0.5 * out


def generator_weak_check(problem: sint.SdeProblem, f, t: float, n_paths: int,
                         dt: float, seed: int, threads: int = 1) -> WeakCheckReport:
    """Dynkin martingale test: f(z_t) - f(z_0) - int L f(z_s) ds has mean zero.

    Both sides are Monte Carlo estimates on the same paths; the time integral
    is a trapezoid over WEAK_SAVES saved slices per path.  The ensemble hands
    its blocks to a reducer that evaluates them WEAK_SLICE paths at a time and
    keeps only f(z_t) and the integral per path, each written to the path's
    own slot, so no saved state outlives its block.
    """
    if n_paths < 2:
        raise ValueError(f"the weak check's standard error needs n_paths >= 2, got {n_paths}")
    n_steps = int(round(t / dt))
    save = np.linspace(0.0, n_steps * dt, WEAK_SAVES)
    save = np.round(save / dt) * dt
    final = np.empty(n_paths)     # f(z_t) per path
    integral = np.empty(n_paths)  # trapezoid of L f over the saved slices per path

    def reduce(lo, block):
        for k in range(0, len(block), WEAK_SLICE):
            states = block[k:k + WEAK_SLICE]
            own = slice(lo + k, lo + k + len(states))
            final[own] = f(states[:, -1])
            integral[own] = np.trapezoid(_generator_apply(problem, f, states), save, axis=1)

    result = sint.simulate_ensemble(problem, n_paths, n_steps, dt, seed,
                                    scheme="exact_rotation", save_times=save,
                                    threads=threads, reduce=reduce)
    f0 = float(np.asarray(f(problem.initial)))
    d = final - f0 - integral
    lhs = float(np.mean(final) - f0)
    rhs = float(np.mean(integral))
    return WeakCheckReport(lhs=lhs, rhs=rhs,
                           martingale_mean=float(np.mean(d)),
                           stderr=float(np.std(d, ddof=1) / np.sqrt(n_paths)),
                           n_paths=n_paths,
                           max_renorm_defect=result.max_renorm_defect)


__all__ = [
    "GridSpec", "DensityEstimate", "EntropyReport", "WeakCheckReport",
    "estimate_density", "counted_density", "merge_counts", "entropy", "plugin_entropy",
    "max_entropy",
    "angular_fields", "uniform_density", "fokker_planck_residual",
    "generator_weak_check",
]
