"""Stochastic flow maps: exact factored-rotation flows with composition and
inversion, re-integrated Heun flows and their step-refinement defects, and
the isometry/continuity diagnostics for n-point motions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrators as sint
from .geometry import central_difference, geodesic_distance
from .integrators import NoisePath, SdeProblem, frame_rotation_matrix

_TIME_TOL = 1e-9


def _check_chain(left_t, right_s):
    if abs(left_t - right_s) > _TIME_TOL:
        raise ValueError(f"flow intervals do not chain: [..,{left_t}] then [{right_s},..]")


class RotationFlow:
    """Flow over [s, t] stored as an ordered product of exact rotation factors.

    Factors apply in order: the map is factors[-1] @ ... @ factors[0].
    Composition concatenates, inversion reverses transposes; both are exact.
    """

    def __init__(self, s: float, t: float, factors):
        self.s = float(s)
        self.t = float(t)
        self.factors = list(factors)

    @classmethod
    def identity(cls, s: float = 0.0) -> "RotationFlow":
        return cls(s, s, [])

    @classmethod
    def from_noise(cls, coefficients, noise: NoisePath, s: float = 0.0) -> "RotationFlow":
        """Build the factored flow of a frame-coefficient problem from increments."""
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        factors = frame_rotation_matrix(noise.increments @ coefficients)
        return cls(s, s + noise.n_steps * noise.dt, factors)

    def apply(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        for m in self.factors:
            z = z @ m.T
        return z

    def as_matrix(self) -> np.ndarray:
        out = np.eye(8)
        for m in self.factors:
            out = m @ out
        return out

    def compose(self, later: "RotationFlow") -> "RotationFlow":
        """The chained flow: self over [s, t], then ``later`` over [t, u]."""
        _check_chain(self.t, later.s)
        return RotationFlow(self.s, later.t, self.factors + later.factors)

    def invert(self) -> "RotationFlow":
        return RotationFlow(self.t, self.s, [m.T for m in reversed(self.factors)])


class IntegratedFlow:
    """Flow over [s, t] evaluated by Heun re-integration of a stored noise path."""

    def __init__(self, problem: SdeProblem, noise: NoisePath, s: float = 0.0):
        self.problem = problem
        self.noise = noise
        self.s = float(s)
        self.t = float(s + noise.n_steps * noise.dt)

    def apply(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        for dw in self.noise.increments:
            z, _ = sint.heun_stratonovich_step(self.problem, z, dw)
        return z

    def invert(self) -> "IntegratedFlow":
        """Backward integration: reversed, negated increments.

        Approximate inverse; the round-trip defect is of the scheme's order.
        """
        rev = NoisePath(self.noise.dt, -self.noise.increments[::-1].copy())
        flow = IntegratedFlow(self.problem, rev, s=self.t)
        flow.t = self.s
        return flow


def heun_refinement_residuals(problem, points, seed, n_fine=256, dt_fine=0.5 / 256,
                              levels=(8, 4, 2), n_noise=12):
    """Cocycle and round-trip defects of re-integrated flows, averaged over
    noise realizations, at a sequence of coarsening levels.

    The split time sits strictly inside one step of each coarse grid: the
    composed flow takes two partial steps across it where the direct flow
    takes one, and is otherwise identical, so the residual is the genuine
    step-splitting defect of the scheme and shrinks with the step size.
    """
    cut = n_fine // 2 + 1  # odd: interior to one step of every coarse grid
    residuals = np.zeros(len(levels))
    roundtrips = np.zeros(len(levels))
    for k in range(n_noise):
        fine = sint.sample_brownian(n_fine, dt_fine, problem.n_channels, seed,
                                    path_index=k)
        inc = fine.increments
        for li, level in enumerate(levels):
            boundary = ((cut + level - 1) // level) * level  # next grid point
            left = NoisePath(dt_fine, inc[:cut]).coarsened(level)
            bridge = inc[cut:boundary].sum(axis=0, keepdims=True)
            right_steps = NoisePath(dt_fine, inc[boundary:]).coarsened(level)
            right = NoisePath(dt_fine * level, np.vstack([bridge, right_steps.increments]))
            f1 = IntegratedFlow(problem, left)
            f2 = IntegratedFlow(problem, right, s=f1.t)
            direct = IntegratedFlow(problem, fine.coarsened(level))
            residuals[li] += float(np.mean(np.linalg.norm(
                f2.apply(f1.apply(points)) - direct.apply(points), axis=-1)))
            roundtrips[li] += float(np.mean(np.linalg.norm(
                direct.invert().apply(direct.apply(points)) - points, axis=-1)))
    return list(residuals / n_noise), list(roundtrips / n_noise)


def isometry_check(flow, points) -> float:
    """Largest distortion of pairwise geodesic distances among ``points``
    (n, 8) under the flow."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        raise ValueError("need at least two points to measure distortion")
    before = _pairwise(pts)
    after = _pairwise(flow.apply(pts))
    return float(np.max(np.abs(after - before)))


def _pairwise(pts):
    n = pts.shape[0]
    iu = np.triu_indices(n, 1)
    return geodesic_distance(pts[iu[0]], pts[iu[1]])


@dataclass
class ContinuityReport:
    max_ratio: float
    min_ratio: float
    n_pairs: int


def continuity_modulus(flow, points, max_separation: float = np.pi) -> ContinuityReport:
    """Empirical Lipschitz ratios d(gx, gy)/d(x, y) over mesh pairs.

    Numerical evidence toward the homeomorphism property, not a proof.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    before = _pairwise(pts)
    keep = (before > 1e-12) & (before <= max_separation)
    after = _pairwise(flow.apply(pts))
    ratios = after[keep] / before[keep]
    if ratios.size == 0:
        raise ValueError("no usable pairs below the separation cutoff")
    return ContinuityReport(float(ratios.max()), float(ratios.min()), int(ratios.size))


def flow_jacobian_conditioning(flow, z, h: float = 1e-6):
    """Singular values of the finite-difference flow Jacobian restricted to the
    tangent plane at z.

    Smoothness evidence only: a well-conditioned tangent Jacobian (all seven
    singular values of order one) is what differentiability of the flow map
    looks like numerically; for isometric flows they all equal one.
    """
    z = np.asarray(z, dtype=float)
    jac = central_difference(lambda y: flow.apply(y / np.linalg.norm(y)), z, h,
                             directions=_tangent_basis(z))  # 8 x 7
    return np.linalg.svd(jac, compute_uv=False)


def _tangent_basis(z):
    proj = np.eye(8) - np.outer(z, z)
    u, s, _ = np.linalg.svd(proj)
    return [u[:, k] for k in range(8) if s[k] > 0.5]


__all__ = [
    "RotationFlow", "IntegratedFlow",
    "ContinuityReport", "heun_refinement_residuals",
    "isometry_check", "continuity_modulus", "flow_jacobian_conditioning",
]
