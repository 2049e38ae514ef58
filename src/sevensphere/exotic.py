"""The sphere-to-model-surface homeomorphism h, a radial graph built from a
positive scaling function beta and a ray scale s, both functions of the
direction:

    h(z)      = (beta / s)(z) z
    h^{-1}(g) = g / |g|
    G'(g)     = (I - u u^T) / |g|^2,  u = g / |g|

so the inverse and the pulled-back round metric G' are the same for every
map of the family.  The bump, and with it s = 1 + eps * bump and beta, is
zero on a neighbourhood of the circle in the (z1, z2) plane, so that circle
is fixed pointwise.  The ``bump-kink`` scaling's merely continuous beta
exercises the regularity failure of the field pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import EntropyReport, GridSpec, _histogram, plugin_entropy
from .frames import DIM
from .geometry import row_norms
from . import integrators


SCALINGS = ("constant", "bump-smooth", "bump-kink")
MAX_EPS = 0.3     # the ray scale's bump strength lies in [0, MAX_EPS)
BETA_EPS = 0.1    # the bump strength of beta for bump-smooth and bump-kink
RHO0, RHO1 = 0.15, 0.6  # the bump ramps from 0 to 1 between these plane distances
# conjugation_gaps: noise of CONJ_T / CONJ_DT steps, coarsened by each level
CONJ_T, CONJ_DT, CONJ_LEVELS = 0.5, 0.002, (4, 2, 1)


class RegularityError(ValueError):
    """Raised when an operation needs more smoothness than the map offers."""


def _ramp_parts(t):
    """t clipped into [1e-12, 1 - 1e-12], a = exp(-1/t) and b = exp(-1/(1-t)).
    At either clip edge a or b underflows to 0, so the ramp is exactly 0 or 1
    and its derivative exactly 0 outside (0, 1); NaN stays NaN."""
    tm = np.minimum(np.maximum(t, 1e-12), 1.0 - 1e-12)  # np.clip's bits, without its overhead
    return tm, np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))


def _plane_distance(u):
    """sqrt(u3^2 + ... + u8^2): distance-like coordinate off the (z1,z2) circle."""
    u = np.asarray(u, dtype=float)
    return np.sqrt(np.add.reduce(u[..., 2:] ** 2, axis=-1))


def _bump(u, kink=False):
    """The direction's profile: 0 for plane distance <= RHO0, 1 for >= RHO1, the
    C-infinity ramp a / (a + b) between them, or the linear (C0) ramp if kinked."""
    t = (_plane_distance(u) - RHO0) / (RHO1 - RHO0)
    if kink:
        return np.clip(t, 0.0, 1.0)
    _, a, b = _ramp_parts(t)
    return a / (a + b)


def _scale(eps, z, kink=False) -> np.ndarray:
    """1 + eps * bump(z), which must stay positive and not NaN."""
    if eps == 0.0:  # 1 + 0 * bump without the bump; NaN at non-finite z
        val = np.where(np.isfinite(z).all(axis=-1), 1.0, np.nan)
    else:
        val = np.asarray(1.0 + eps * _bump(z, kink))
    if not (val > 0.0).all():
        raise ValueError("scaling function must stay positive (and not NaN)")
    return val


def _scale_and_gradient(eps, z):
    """``_scale(eps, z)`` of the smooth bump and its gradient in R^8 (..., 8),
    not projected onto the sphere, from one plane distance rho and one ramp.
    The ramp's derivative is analytic, a b (1/t^2 + 1/(1-t)^2) / (a + b)^2;
    the gradient is 0 on the circle rho = 0, where the bump is flat."""
    z = np.asarray(z, dtype=float)
    if eps == 0.0:
        return _scale(0.0, z), np.zeros(z.shape)
    rho = _plane_distance(z)
    tm, a, b = _ramp_parts((rho - RHO0) / (RHO1 - RHO0))
    val = np.asarray(1.0 + eps * (a / (a + b)))
    if not (val > 0.0).all():
        raise ValueError("scaling function must stay positive (and not NaN)")
    slope = eps * a * b * (1.0 / tm ** 2 + 1.0 / (1.0 - tm) ** 2) / ((a + b) ** 2 * (RHO1 - RHO0))
    grad = np.zeros(z.shape)
    # slope is 0 for rho <= RHO0, so the guard rho > 1e-12 leaves 0 on the circle
    grad[..., 2:] = (slope / np.maximum(rho, 1e-12))[..., None] * z[..., 2:]
    return val, grad


def _unit(x):
    """x / |x| and |x| (shaped (..., 1)) for points x (..., 8)."""
    x = np.asarray(x, dtype=float)
    r = row_norms(x)
    if not np.isfinite(r).all():
        raise ValueError("the model surface needs finite points of finite norm")
    if (r < 1e-300).any():
        raise ValueError("the model surface has no point on the ray of the origin")
    return x / r, r


class ExoticMap:
    """The radial graph h(z) = (beta / s)(z) z of the sphere and its inverse,
    the normalization h^{-1}(gamma) = gamma / |gamma|.  The ray scale is
    s = 1 + eps * bump; beta is 1 for ``constant`` and 1 + BETA_EPS * bump
    for ``bump-smooth`` and ``bump-kink``, the last with the kinked bump."""

    def __init__(self, eps: float = 0.0, scaling: str = "constant"):
        if scaling not in SCALINGS:
            raise ValueError(f"unknown scaling {scaling!r}, expected one of {SCALINGS}")
        if not 0.0 <= eps < MAX_EPS:
            raise ValueError(f"deformation strength must lie in [0, {MAX_EPS})")
        self.eps, self.scaling = eps, scaling
        self.beta_eps = 0.0 if scaling == "constant" else BETA_EPS

    def beta(self, z) -> np.ndarray:
        return _scale(self.beta_eps, z, kink=self.scaling == "bump-kink")

    def ray_scale(self, u) -> np.ndarray:
        return _scale(self.eps, u)

    def forward(self, z) -> np.ndarray:
        zeta = np.asarray(z, dtype=float)
        if self.beta_eps:  # constant: beta is 1 exactly, and _unit rejects a non-finite z
            zeta = zeta * self.beta(zeta)[..., None]
        return zeta / self.ray_scale(_unit(zeta)[0])[..., None]

    def inverse(self, gamma) -> np.ndarray:
        return _unit(gamma)[0]

    def _radius(self, z):
        """r = beta / s at sphere points z (..., 8) and its ambient gradient
        (s grad beta - beta grad s) / s^2, shape (..., 8), not yet projected."""
        if self.scaling == "bump-kink":
            raise RegularityError("the kinked scaling is not C1")
        s, grad_s = _scale_and_gradient(self.eps, z)
        if not self.beta_eps:  # constant: beta is 1 exactly
            return 1.0 / s, -grad_s / (s ** 2)[..., None]
        beta, grad_beta = _scale_and_gradient(self.beta_eps, z)
        grad_r = (s[..., None] * grad_beta - beta[..., None] * grad_s) / (s ** 2)[..., None]
        return beta / s, grad_r

    def jacobian(self, z) -> np.ndarray:
        """d h / d z = r I + z (P grad r)^T, shape (..., 8, 8), at sphere points
        z (..., 8), with r = beta / s and P grad r = g - <g, z> z the tangential
        part of its gradient g; ``pushforward_field`` applies it in rank-one form."""
        z = np.asarray(z, dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("dh needs finite sphere points")
        r, g = self._radius(z)
        g = g - np.vecdot(g, z)[..., None] * z
        return r[..., None, None] * np.eye(DIM) + z[..., :, None] * g[..., None, :]

    def surface_point(self, direction) -> np.ndarray:
        """h(u) at the unit direction u of ``direction``: the surface point on that ray."""
        u = _unit(direction)[0]
        zeta = u * self.beta(u)[..., None] if self.beta_eps else u
        return zeta / self.ray_scale(u)[..., None]


def pushforward_field(V, h: ExoticMap):
    """The induced field (h_* V)(gamma) = dh(z) v at z = h^{-1}(gamma) and
    v = V(z), in the rank-one form r v + <P grad r, v> z with P = I - z z^T,
    the projection taken inside the product as <grad r, v> - <grad r, z> <z, v>:
    ``jacobian(z) @ v`` for any v, tangent or not, without the 8x8 matrix.

    Requires the scaling function to be C1; with the kinked profile the
    chain-rule factor does not exist and the construction is refused.
    """
    if h.scaling == "bump-kink":
        raise RegularityError(
            "pushforward needs a C1 scaling function; the kinked profile is "
            "only continuous, so the induced field may not exist")

    def field(gamma):
        z = h.inverse(gamma)
        v = np.asarray(V(z), dtype=float)
        r, g = h._radius(z)
        dot = np.vecdot(g, v) - np.vecdot(g, z) * np.vecdot(z, v)
        return r[..., None] * v + dot[..., None] * z

    return field


def conjugation_gaps(h: ExoticMap, seed, n_noise=8):
    """Average pathwise gap over ``n_noise`` noise paths between the
    conjugated sphere integration and the direct surface integration with
    pushforward fields, per coarsening level of CONJ_LEVELS."""
    start = np.eye(DIM)[0]
    problem = integrators.single_frame_problem(1, start)
    push = pushforward_field(problem.diffusion_fields[0], h)
    fines = [integrators.sample_brownian(int(round(CONJ_T / CONJ_DT)), CONJ_DT, 1, seed,
                                         path_index=k)
             for k in range(n_noise)]
    gaps = []
    for level in CONJ_LEVELS:
        coarse = [fine.coarsened(level) for fine in fines]
        ends = []
        for path in coarse:
            z = start
            for dw in path.increments:
                z, _ = integrators.heun_stratonovich_step(problem, z, dw)
            ends.append(z)
        # the surface side advances all noise paths at once: gamma is (n_noise, 8)
        gamma = np.tile(h.forward(start), (n_noise, 1))
        for dw in np.stack([path.increments for path in coarse], axis=1):
            v1 = push(gamma)
            pred = h.surface_point(gamma + dw * v1)
            v2 = push(pred)
            gamma = h.surface_point(gamma + 0.5 * dw * (v1 + v2))
        gaps.append(float(np.mean(row_norms(h.forward(np.array(ends)) - gamma))))
    return gaps


def entropy_on_surface(gammas, grid: GridSpec, t: float | None = None) -> EntropyReport:
    """Entropy of a transported sample cloud under the measure h carries over
    from the round sphere: the pulled-back metric G' is the round metric of
    the direction h^{-1}(gamma), so the samples are binned by direction with
    the histogram's own volumes.  dh is not used, so any scaling is accepted."""
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    d = _histogram(_unit(gammas)[0], grid)
    return plugin_entropy(d.counts, d.densities, d.n_samples, t)


@dataclass
class CircleImage:
    i: int
    j: int
    params: np.ndarray
    points: np.ndarray          # (n, 8) image of the circle under h
    closure_error: float
    max_radial_deviation: float


def circle_images(h: ExoticMap, n_points: int = 257) -> list:
    """Images under h of the 28 coordinate-plane circles.

    Circle (i, j) is the integral curve of the plane rotation generator in
    those coordinates; each image is sampled over a full period and its
    closure defect and radial deviation from 1 are reported.
    """
    out = []
    thetas = np.linspace(0.0, 2.0 * np.pi, n_points)
    for i in range(1, DIM + 1):
        for j in range(i + 1, DIM + 1):
            circle = np.zeros((n_points, DIM))
            circle[:, i - 1] = np.cos(thetas)
            circle[:, j - 1] = np.sin(thetas)
            image = h.forward(circle)
            closure = float(np.linalg.norm(image[0] - image[-1]))
            radii = row_norms(image)
            out.append(CircleImage(i, j, thetas, image, closure,
                                   float(np.max(np.abs(radii - 1.0)))))
    return out


def write_circles_csv(images, fname) -> None:
    with open(fname, "w") as fh:
        fh.write("i,j,theta," + ",".join(f"g{k}" for k in range(1, DIM + 1)) + "\n")
        for im in images:
            ij = np.broadcast_to([im.i, im.j], (len(im.params), 2))
            integrators._write_rows(fh, np.column_stack([ij, im.params, im.points]), n_int=2)


__all__ = [
    "SCALINGS", "MAX_EPS", "RegularityError", "ExoticMap", "CircleImage",
    "pushforward_field", "conjugation_gaps", "entropy_on_surface",
    "circle_images", "write_circles_csv",
]
