"""Monte Carlo density estimation on the sphere, entropy and entropy-rate
evaluation, pointwise Fokker-Planck residuals and weak-form generator checks.

Densities are taken with respect to the Riemannian (area) measure; bin
volumes come from per-angle integrals of the sin-power weights, so the
volumes of all bins sum to the exact total area.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import integrators as sint
from .geometry import (ANGLE_UPPER as ANGLE_SPANS, N_ANGLES, central_difference,
                       chart_jacobian, sin_power_integral, sphere_volume, to_cartesian,
                       to_spherical, volume_element)

SIN_POWERS = tuple(range(6, 0, -1)) + (0,)  # per 0-based angle axis


@dataclass(frozen=True)
class GridSpec:
    """Uniform product grid over the seven angles."""

    bins: tuple

    def __post_init__(self):
        if len(self.bins) != N_ANGLES or any(b < 2 for b in self.bins):
            raise ValueError("grid needs 7 angle resolutions, each >= 2")

    @classmethod
    def uniform(cls, n: int) -> "GridSpec":
        return cls((n,) * N_ANGLES)

    def edges(self, axis: int) -> np.ndarray:
        return np.linspace(0.0, ANGLE_SPANS[axis], self.bins[axis] + 1)

    def centers(self, axis: int) -> np.ndarray:
        e = self.edges(axis)
        return 0.5 * (e[:-1] + e[1:])

    def axis_weights(self, axis: int) -> np.ndarray:
        """Integral of sin^power over each bin of the axis."""
        e = self.edges(axis)
        power = SIN_POWERS[axis]
        if power == 0:
            return np.diff(e)
        return np.array([sin_power_integral(power, lo, hi) for lo, hi in zip(e, e[1:])])

    def axis_total(self, axis: int) -> float:
        return float(np.sum(self.axis_weights(axis)))

    def bin_indices(self, phi: np.ndarray) -> np.ndarray:
        widths = ANGLE_SPANS / np.asarray(self.bins, dtype=float)
        idx = np.floor(phi / widths).astype(int)
        return np.clip(idx, 0, np.asarray(self.bins) - 1)


@dataclass
class DensityEstimate:
    """Sparse volume-weighted histogram over the angle grid."""

    grid: GridSpec
    n_samples: int
    indices: np.ndarray   # (K, 7) occupied bin indices
    counts: np.ndarray    # (K,)
    volumes: np.ndarray   # (K,) Riemannian bin volumes
    densities: np.ndarray  # (K,) counts / (n * volume)

    def integral(self) -> float:
        return float(np.sum(self.densities * self.volumes))

    def marginal(self, axes) -> "MarginalDensity":
        axes = tuple(axes)
        shape = tuple(self.grid.bins[a] for a in axes)
        counts = np.zeros(shape)
        np.add.at(counts, tuple(self.indices[:, a] for a in axes), self.counts)
        vol = np.ones(shape)
        for pos, a in enumerate(axes):
            w = self.grid.axis_weights(a)
            expand = [None] * len(axes)
            expand[pos] = slice(None)
            vol = vol * w[tuple(expand)]
        rest = 1.0
        for a in range(N_ANGLES):
            if a not in axes:
                rest *= self.grid.axis_total(a)
        vol = vol * rest
        dens = counts / (self.n_samples * vol)
        return MarginalDensity(axes, self.grid, counts, vol, dens, self.n_samples)


@dataclass
class MarginalDensity:
    axes: tuple
    grid: GridSpec
    counts: np.ndarray
    volumes: np.ndarray
    densities: np.ndarray
    n_samples: int

    def centers(self, pos: int = 0) -> np.ndarray:
        return self.grid.centers(self.axes[pos])


def _histogram(samples, grid: GridSpec):
    """Occupied bins of (n, 8) sphere points: keys (K, 7), counts and the
    bins' round-sphere volumes."""
    if samples.shape[0] == 0:
        raise ValueError("density estimation needs at least one sample")
    keys, counts = np.unique(grid.bin_indices(to_spherical(samples)), axis=0,
                             return_counts=True)
    volumes = np.ones(len(keys))
    for a in range(N_ANGLES):
        volumes *= grid.axis_weights(a)[keys[:, a]]
    return keys, counts, volumes


def estimate_density(samples, grid: GridSpec) -> DensityEstimate:
    """Histogram sphere points over the angle grid with volume weights."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    keys, counts, volumes = _histogram(samples, grid)
    densities = counts / (samples.shape[0] * volumes)
    return DensityEstimate(grid, samples.shape[0], keys, counts, volumes, densities)


def write_density_csv(d: DensityEstimate, fname) -> None:
    with open(fname, "w") as fh:
        fh.write(",".join(f"i{k}" for k in range(1, 8)) + ",volume,density\n")
        sint._write_rows(fh, sint._float_row(2, lead="%d," * N_ANGLES),
                         np.column_stack([d.indices, d.volumes, d.densities]))


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

def _channel_fields(fields):
    if isinstance(fields, sint.SdeProblem):
        return fields.channel_fields
    if callable(fields):
        return (fields,)
    return tuple(fields)


def angular_fields(phi, fields) -> np.ndarray:
    """Push ambient channel fields into chart coordinates: rows G^-1 J^T V.

    The chart is orthogonal, so G is diagonal.  Where a diagonal entry
    vanishes (on the singular set) that coordinate is set to 0, the
    least-squares value.
    """
    z = to_cartesian(phi)
    jac = chart_jacobian(phi)
    g = np.sum(jac * jac, axis=0)
    rhs = np.stack([np.asarray(fld(z), dtype=float)
                    for fld in _channel_fields(fields)]) @ jac
    return np.divide(rhs, g, out=np.zeros_like(rhs), where=g > 0.0)


def angular_diffusion_matrix(phi, fields) -> np.ndarray:
    """D(phi) = sum over channels of vtilde vtilde^T in chart coordinates."""
    rows = angular_fields(phi, fields)
    return rows.T @ rows


def _wrap_last_angle(phi):
    out = np.array(phi, dtype=float)
    out[6] = out[6] % (2.0 * np.pi)
    return out


def _angular_drift(phi, fields, h_inner: float) -> np.ndarray:
    """h^i = sum_{alpha, j} vtilde_alpha^j d vtilde_alpha^i / d phi_j."""
    base = angular_fields(phi, fields)  # (n_ch, 7)
    dv = central_difference(lambda q: angular_fields(_wrap_last_angle(q), fields),
                            phi, h_inner)  # (n_ch, 7, 7), last axis j
    return np.einsum("aj,aij->i", base, dv)


def uniform_density():
    """The stationary density 1/Vol as a function of angles."""
    val = 1.0 / sphere_volume()

    def p(phi):
        return val

    return p


def fokker_planck_residual(p_fn, fields, phi, dp_dt: float = 0.0,
                           h_outer: float = 1e-3, h_inner: float = 1e-4) -> float:
    """Imbalance of the forward equation at one interior chart point.

    Evaluates  -1/2 sum_i d_i[h^i p m] + 1/2 sum_ij d^2_ij[D_ij p m] - m dp/dt
    with m the angular volume factor, all coefficients obtained by pushing the
    ambient fields through the chart, and all derivatives central differences.
    Coordinate-singular points (vanishing volume factor nearby) are rejected.
    """
    phi = np.asarray(phi, dtype=float)
    if volume_element(phi) < 1e-6:
        raise ValueError("point is too close to the coordinate-singular set")

    def bracket_drift(q):
        q = _wrap_last_angle(q)
        return _angular_drift(q, fields, h_inner) * p_fn(q) * volume_element(q)

    brackets = {}

    def bracket_diff(*shifts):
        """D p m at phi moved by h_outer along each (axis, sign); each of the
        99 distinct stencil points is evaluated once, and (i, j) and (j, i)
        share theirs."""
        key = frozenset(shifts)
        if key not in brackets:
            q = np.array(phi)
            for axis, sign in shifts:
                q[axis] += sign * h_outer
            if shifts:
                q = _wrap_last_angle(q)
            brackets[key] = angular_diffusion_matrix(q, fields) * p_fn(q) * volume_element(q)
        return brackets[key]

    res = -dp_dt * float(volume_element(phi))
    res += -0.5 * np.trace(central_difference(bracket_drift, phi, h_outer))
    for i in range(N_ANGLES):
        for j in range(N_ANGLES):
            if i == j:
                d2 = (bracket_diff((i, +1.0))[i, i] - 2.0 * bracket_diff()[i, i]
                      + bracket_diff((i, -1.0))[i, i]) / h_outer ** 2
            else:
                d2 = 0.0
                for si in (+1.0, -1.0):
                    for sj in (+1.0, -1.0):
                        d2 += si * sj * bracket_diff((i, si), (j, sj))[i, j]
                d2 /= 4.0 * h_outer ** 2
            res += 0.5 * d2
    return float(res)


def _entropy_rate_parts(marginal: MarginalDensity, diffusion):
    """Quadratic (Fisher) and curvature quadrature terms of the rate integrals
    over the interior cells (one cell in from every edge of the grid)."""
    k = len(marginal.axes)
    if k not in (1, 2):
        raise ValueError("entropy rate supports marginals over 1 or 2 angles")
    spacings = [np.diff(marginal.centers(i)[:2])[0] for i in range(k)]

    def grad(a):  # (k, ...): np.gradient returns a bare array for one axis
        return np.reshape(np.gradient(a, *spacings), (k,) + a.shape)

    inner = (slice(1, -1),) * k
    g = grad(marginal.densities)
    hess = np.stack([grad(gi) for gi in g])  # (k, k, ...)
    d = np.atleast_2d(np.asarray(diffusion, dtype=float))
    p = marginal.densities[inner]
    quad = np.einsum("ij,i...,j...->...", d, g[(slice(None),) + inner],
                     g[(slice(None),) + inner])
    curv = np.einsum("ij,ij...->...", d, hess[(slice(None),) * 2 + inner])
    w = 0.5 * marginal.volumes[inner]
    occupied = p > 0.0
    if not occupied.all():
        warnings.warn(f"entropy rate skipped {np.count_nonzero(~occupied)} "
                      f"zero-density interior cells")
    return (float(np.sum(quad[occupied] / p[occupied] * w[occupied])),
            float(np.sum(curv[occupied] * w[occupied])))


def entropy_rate_formula(marginal: MarginalDensity, diffusion) -> float:
    """Entropy rate bracket on a marginal grid, as a quadrature.

    Evaluates   integral of 1/2 [ (1/p) sum D_ij d_i p d_j p - sum D_ij d^2_ij p ]
    over the tracked angles against the area measure, with the untracked
    angles integrated out.  ``diffusion`` is the constant (k, k) effective
    diffusion on the tracked angles.  Grid derivatives are central
    differences; zero-density cells inside the region are excluded with a
    warning, and so are the cells on the grid's edges.

    The curvature term integrates the bare Hessian, without transport through
    the angle-dependent volume factor; for dynamics preserving the area
    measure the production form ``entropy_rate_fisher`` is the rate that
    matches finite differences of measured entropies.
    """
    quad, curv = _entropy_rate_parts(marginal, diffusion)
    return quad - curv


def entropy_rate_fisher(marginal: MarginalDensity, diffusion) -> float:
    """Production (Fisher) form of the entropy rate:
    1/2 integral of (1/p) sum D_ij d_i p d_j p against the area measure."""
    quad, _ = _entropy_rate_parts(marginal, diffusion)
    return quad


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

    @property
    def passed(self) -> bool:
        return abs(self.martingale_mean) <= 3.0 * max(self.stderr, 1e-300)


def _generator_apply(problem: sint.SdeProblem, f, states, h: float = 1e-4):
    """(L f)(z) for a batch of points via second differences along the
    channel flows plus the optional drift term."""
    states = np.asarray(states, dtype=float)
    out = np.zeros(states.shape[:-1])
    coeffs = problem.frame_coefficients
    if coeffs is None:
        raise ValueError("weak check requires constant frame coefficients")
    for c in coeffs:
        zp = sint.frame_rotation_apply(h * c, states)
        zm = sint.frame_rotation_apply(-h * c, states)
        out = out + (f(zp) - 2.0 * f(states) + f(zm)) / h ** 2
    out = 0.5 * out
    if problem.drift is not None:
        grad = central_difference(f, states, h)
        out = out + np.sum(np.asarray(problem.drift(states)) * grad, axis=-1)
    return out


def generator_weak_check(problem: sint.SdeProblem, f, t: float, n_paths: int,
                         dt: float, seed: int, n_save: int = 11,
                         threads: int = 1) -> WeakCheckReport:
    """Dynkin martingale test: f(z_t) - f(z_0) - int L f(z_s) ds has mean zero.

    Both sides are Monte Carlo estimates on the same paths; the time integral
    is a trapezoid over ``n_save`` saved slices per path.
    """
    n_steps = int(round(t / dt))
    save = np.linspace(0.0, n_steps * dt, n_save)
    save = np.round(save / dt) * dt
    result = sint.simulate_ensemble(problem, n_paths, n_steps, dt, seed,
                                    scheme="exact_rotation", save_times=save,
                                    threads=threads)
    fvals = f(result.states)          # (n_paths, n_save)
    lf = _generator_apply(problem, f, result.states)
    integral = np.trapezoid(lf, result.times, axis=1)
    f0 = float(np.asarray(f(problem.initial)))
    d = fvals[:, -1] - f0 - integral
    lhs = float(np.mean(fvals[:, -1]) - f0)
    rhs = float(np.mean(integral))
    return WeakCheckReport(lhs=lhs, rhs=rhs,
                           martingale_mean=float(np.mean(d)),
                           stderr=float(np.std(d, ddof=1) / np.sqrt(n_paths)),
                           n_paths=n_paths,
                           max_renorm_defect=result.max_renorm_defect)


__all__ = [
    "GridSpec", "DensityEstimate", "MarginalDensity", "EntropyReport",
    "WeakCheckReport", "estimate_density", "write_density_csv", "entropy",
    "plugin_entropy", "max_entropy", "angular_fields", "angular_diffusion_matrix",
    "uniform_density", "fokker_planck_residual", "entropy_rate_formula",
    "entropy_rate_fisher", "generator_weak_check",
]
