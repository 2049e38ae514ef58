"""Stochastic flow maps: exact rotation flows held as one SO(8) matrix, with
composition and inversion, re-integrated Heun flows and their
step-refinement defects, and the isometry check for n-point motions.
"""

from __future__ import annotations

import numpy as np

from . import integrators as sint
from .geometry import geodesic_distance, row_norms
from .integrators import NoisePath, SdeProblem, frame_rotation_matrix


class RotationFlow:
    """Flow over [s, t] as its one 8x8 rotation matrix M: z -> M z.

    Composition multiplies the matrices and inversion transposes; both are
    exact up to rounding.
    """

    def __init__(self, s: float, t: float, matrix):
        self.s = float(s)
        self.t = float(t)
        self.matrix = np.asarray(matrix, dtype=float)

    @classmethod
    def identity(cls, s: float = 0.0) -> "RotationFlow":
        return cls(s, s, np.eye(8))

    @classmethod
    def from_noise(cls, coefficients, noise: NoisePath, s: float = 0.0) -> "RotationFlow":
        """The flow of a frame-coefficient problem driven by the increments:
        the product of the steps' exact rotations, later steps on the left,
        reduced pairwise in log depth (odd levels padded with I)."""
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        m = frame_rotation_matrix(noise.increments @ coefficients)
        m = m if len(m) else np.eye(8)[None]
        while len(m) > 1:
            if len(m) % 2:
                m = np.concatenate([m, np.eye(8)[None]])
            m = m[1::2] @ m[0::2]
        return cls(s, s + noise.n_steps * noise.dt, m[0])

    def apply(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float) @ self.matrix.T

    def as_matrix(self) -> np.ndarray:
        return self.matrix

    def compose(self, later: "RotationFlow") -> "RotationFlow":
        """The chained flow: self over [s, t], then ``later`` over [t, u]."""
        if abs(self.t - later.s) > 1e-9:
            raise ValueError(f"flow intervals do not chain: [..,{self.t}] then [{later.s},..]")
        return RotationFlow(self.s, later.t, later.matrix @ self.matrix)

    def invert(self) -> "RotationFlow":
        return RotationFlow(self.t, self.s, self.matrix.T)


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
            residuals[li] += float(np.mean(row_norms(
                f2.apply(f1.apply(points)) - direct.apply(points))))
            roundtrips[li] += float(np.mean(row_norms(
                direct.invert().apply(direct.apply(points)) - points)))
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


__all__ = [
    "RotationFlow", "IntegratedFlow", "heun_refinement_residuals", "isometry_check",
]
