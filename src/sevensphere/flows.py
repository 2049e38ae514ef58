"""Stochastic flow maps: exact rotation flows held as one SO(8) matrix, with
composition and inversion, re-integrated Heun flows and their
step-refinement defects, and the isometry check for n-point motions.
"""

from __future__ import annotations

import numpy as np

from . import integrators as sint
from .geometry import geodesic_distance, row_norms
from .integrators import NoisePath, SdeProblem, frame_rotation_matrix

# heun_refinement_residuals: REFINE_NOISE noise paths of REFINE_FINE steps to
# t = 0.5, each coarsened by every level of REFINE_LEVELS
REFINE_FINE, REFINE_LEVELS, REFINE_NOISE = 256, (8, 4, 2), 12
REFINE_DT = 0.5 / REFINE_FINE
ROTATION_BLOCK = 256  # steps per block of RotationFlow.from_noise's factors; a power of two


def _pairwise_product(m) -> np.ndarray:
    """The product of the stacked matrices m (k >= 1, 8, 8), later ones on the
    left, reduced pairwise in log depth: each level multiplies neighbours
    (2i, 2i + 1) and pads an odd level's end with I."""
    while len(m) > 1:
        if len(m) % 2:
            m = np.concatenate([m, np.eye(8)[None]])
        m = m[1::2] @ m[0::2]
    return m[0]


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
        reduced pairwise in log depth (odd levels padded with I).

        The factors are built ROTATION_BLOCK steps at a time, and each block's
        product is a subtree of the tree over all steps (the block is a power
        of two, and only the last block can be partial), so reducing the block
        products with the same tree gives the whole product bit for bit while
        at most one block's factors are held."""
        coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
        a = noise.increments @ coefficients  # whole: a one-row product takes other bits
        blocks = [_pairwise_product(frame_rotation_matrix(a[lo:lo + ROTATION_BLOCK]))
                  for lo in range(0, len(a), ROTATION_BLOCK)]
        return cls(s, s + noise.n_steps * noise.dt,
                   _pairwise_product(np.array(blocks)) if blocks else np.eye(8))

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
    """Flow over [s, t] evaluated by Heun re-integration of a stored noise path
    of at least one step, one channel per field of the problem."""

    def __init__(self, problem: SdeProblem, noise: NoisePath, s: float = 0.0):
        if noise.n_channels != problem.n_channels:
            raise ValueError(f"noise has {noise.n_channels} channel(s), the problem "
                             f"{problem.n_channels}")
        if noise.n_steps < 1:
            raise ValueError("noise must have at least one step")
        self.problem = problem
        self.noise = noise
        self.s = float(s)
        self.t = float(s + noise.n_steps * noise.dt)

    def apply(self, z) -> np.ndarray:
        z, problem = np.asarray(z, dtype=float), self.problem
        for dw in self.noise.increments:
            z, _ = sint.heun_stratonovich_step(problem, z, dw)  # the module attribute, as traced
        return z

    def invert(self) -> "IntegratedFlow":
        """Backward integration: reversed, negated increments.

        Approximate inverse; the round-trip defect is of the scheme's order.
        """
        rev = NoisePath(self.noise.dt, -self.noise.increments[::-1].copy())
        flow = IntegratedFlow(self.problem, rev, s=self.t)
        flow.t = self.s
        return flow


def heun_refinement_residuals(problem, points, seed):
    """Cocycle and round-trip defects of re-integrated flows, averaged over
    REFINE_NOISE noise realizations, at each coarsening level of REFINE_LEVELS.

    The split time sits strictly inside one step of each coarse grid: the
    composed flow takes two partial steps across it where the direct flow
    takes one, and is otherwise identical, so the residual is the genuine
    step-splitting defect of the scheme and shrinks with the step size.
    """
    cut = REFINE_FINE // 2 + 1  # odd: interior to one step of every coarse grid
    residuals = np.zeros(len(REFINE_LEVELS))
    roundtrips = np.zeros(len(REFINE_LEVELS))
    for k in range(REFINE_NOISE):
        fine = sint.sample_brownian(REFINE_FINE, REFINE_DT, problem.n_channels, seed,
                                    path_index=k)
        inc = fine.increments
        for li, level in enumerate(REFINE_LEVELS):
            boundary = ((cut + level - 1) // level) * level  # next grid point
            left = NoisePath(REFINE_DT, inc[:cut]).coarsened(level)
            bridge = inc[cut:boundary].sum(axis=0, keepdims=True)
            right_steps = NoisePath(REFINE_DT, inc[boundary:]).coarsened(level)
            right = NoisePath(REFINE_DT * level, np.vstack([bridge, right_steps.increments]))
            f1 = IntegratedFlow(problem, left)
            f2 = IntegratedFlow(problem, right, s=f1.t)
            direct = IntegratedFlow(problem, fine.coarsened(level))
            residuals[li] += float(np.mean(row_norms(
                f2.apply(f1.apply(points)) - direct.apply(points))))
            roundtrips[li] += float(np.mean(row_norms(
                direct.invert().apply(direct.apply(points)) - points)))
    return list(residuals / REFINE_NOISE), list(roundtrips / REFINE_NOISE)


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
