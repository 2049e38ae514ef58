"""The sphere-to-model-surface homeomorphism h, a radial graph built from a
positive scaling function beta and a ray scale s, both functions of the
direction:

    h(z)      = (beta / s)(z) z
    h^{-1}(g) = g / |g|
    G'(g)     = (I - u u^T) / |g|^2,  u = g / |g|

so the inverse and the pulled-back round metric G' are the same for every
map of the family.  The default ray scale s = 1 + eps * bump is one on a
neighbourhood of the circle in the (z1, z2) plane, so that circle is fixed
pointwise.  A kinked (merely continuous) scaling profile is provided to
exercise the regularity failure of the field pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import ANGLE_SPANS, EntropyReport, GridSpec, _histogram, plugin_entropy
from .frames import DIM
from .geometry import chart_jacobian, row_norms, to_cartesian, volume_element
from . import integrators


class RegularityError(ValueError):
    """Raised when an operation needs more smoothness than the map offers."""


def _ramp_parts(t):
    """t clipped into [1e-12, 1 - 1e-12], a = exp(-1/t) and b = exp(-1/(1-t)).
    At either clip edge a or b underflows to 0, so the ramp is exactly 0 or 1
    and its derivative exactly 0 outside (0, 1); NaN stays NaN."""
    tm = np.clip(np.asarray(t, dtype=float), 1e-12, 1.0 - 1e-12)
    return tm, np.exp(-1.0 / tm), np.exp(-1.0 / (1.0 - tm))


def _smooth_transition(t):
    """C-infinity ramp a / (a + b): 0 for t <= 0, 1 for t >= 1."""
    _, a, b = _ramp_parts(t)
    return a / (a + b)


def _smooth_transition_deriv(t):
    """Analytic ramp derivative a b (1/t^2 + 1/(1-t)^2) / (a + b)^2; 0 outside (0, 1)."""
    tm, a, b = _ramp_parts(t)
    return a * b * (1.0 / tm ** 2 + 1.0 / (1.0 - tm) ** 2) / (a + b) ** 2


def _plane_distance(u):
    """sqrt(u3^2 + ... + u8^2): distance-like coordinate off the (z1,z2) circle."""
    u = np.asarray(u, dtype=float)
    return np.sqrt(np.sum(u[..., 2:] ** 2, axis=-1))


class BumpProfile:
    """Scalar profile of the direction, zero near the fixed circle."""

    def __init__(self, rho0=0.15, rho1=0.6, kind="smooth"):
        if kind not in ("smooth", "kink"):
            raise ValueError(f"unknown profile kind {kind!r}")
        self.rho0 = rho0
        self.rho1 = rho1
        self.kind = kind

    def value(self, u):
        t = (_plane_distance(u) - self.rho0) / (self.rho1 - self.rho0)
        return _smooth_transition(t) if self.kind == "smooth" else np.clip(t, 0.0, 1.0)

    def gradient(self, u):
        """Ambient gradient (..., 8) at unit points u (..., 8); only available
        for the smooth profile."""
        if self.kind != "smooth":
            raise RegularityError("the kinked profile is not differentiable")
        u = np.asarray(u, dtype=float)
        rho = _plane_distance(u)[..., None]
        t = (rho - self.rho0) / (self.rho1 - self.rho0)
        dpsi = _smooth_transition_deriv(t) / (self.rho1 - self.rho0)
        off_circle = rho > 1e-12
        grad = np.zeros(u.shape)
        grad[..., 2:] = np.where(off_circle,
                                 dpsi * u[..., 2:] / np.where(off_circle, rho, 1.0), 0.0)
        # chain through the normalization u = x/|x| at |x| = 1
        proj = np.eye(DIM) - u[..., :, None] * u[..., None, :]
        return (proj @ grad[..., None])[..., 0]


class ScalingFunction:
    """Positive function on the sphere; the radius assigned to each direction."""

    def __init__(self, base: float = 1.0, eps: float = 0.0,
                 profile: BumpProfile | None = None):
        self.base = base
        self.eps = eps
        self.profile = profile or BumpProfile()

    @property
    def smoothness(self) -> str:
        if self.eps == 0.0 or self.profile.kind == "smooth":
            return "smooth"
        return "c0"

    def __call__(self, z) -> np.ndarray:
        val = np.asarray(self.base + self.eps * self.profile.value(z))
        if not np.all(val > 0.0):
            raise ValueError("scaling function must stay positive (and not NaN)")
        return val

    def gradient(self, z) -> np.ndarray:
        if self.smoothness != "smooth":
            raise RegularityError("scaling function is not C1")
        if self.eps == 0.0:
            return np.zeros(np.shape(z))
        return self.eps * self.profile.gradient(z)


class Deformation(ScalingFunction):
    """The ray scale s(u) = 1 + eps * bump(u): the ambient deformation
    x -> x s(x/|x|) stretches each ray by a factor of its direction only."""

    def __init__(self, eps: float = 0.2, profile: BumpProfile | None = None):
        if not 0.0 <= eps < 0.3:
            raise ValueError("deformation strength must lie in [0, 0.3)")
        super().__init__(1.0, eps, profile)


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
    the normalization h^{-1}(gamma) = gamma / |gamma|."""

    def __init__(self, deformation: Deformation | None = None,
                 scaling: ScalingFunction | None = None):
        self.deformation = deformation or Deformation(0.0)
        self.scaling = scaling or ScalingFunction()

    @property
    def is_identity(self) -> bool:
        return self.deformation.eps == 0.0 and self.scaling.base == 1.0 \
            and self.scaling.eps == 0.0

    def forward(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        zeta = z * self.scaling(z)[..., None]
        return zeta / self.deformation(_unit(zeta)[0])[..., None]

    def inverse(self, gamma) -> np.ndarray:
        return _unit(gamma)[0]

    def jacobian(self, z) -> np.ndarray:
        """d h / d z = r I + z grad(r)^T, shape (..., 8, 8), at sphere points
        z (..., 8), with r = beta / s and grad r = (s grad beta - beta grad s) / s^2."""
        z = np.asarray(z, dtype=float)
        beta = self.scaling(z)[..., None]
        s = self.deformation(z)[..., None]
        grad_r = (s * self.scaling.gradient(z) - beta * self.deformation.gradient(z)) / s ** 2
        return ((beta / s)[..., None] * np.eye(DIM)
                + z[..., :, None] * grad_r[..., None, :])

    def surface_point(self, direction) -> np.ndarray:
        """The model-surface point on a given ray (directions parameterize it)."""
        return self.forward(_unit(direction)[0])


def pushforward_field(V, h: ExoticMap):
    """The induced field (h_* V)(gamma) = dh(h^{-1}(gamma)) V(h^{-1}(gamma)).

    Requires the scaling function to be C1; with the kinked profile the
    chain-rule factor does not exist and the construction is refused.
    """
    if h.scaling.smoothness != "smooth":
        raise RegularityError(
            "pushforward needs a C1 scaling function; the kinked profile is "
            "only continuous, so the induced field may not exist")

    def field(gamma):
        z = h.inverse(gamma)
        return np.einsum("...ij,...j->...i", h.jacobian(z), np.asarray(V(z), dtype=float))

    return field


class ConjugatedFlow:
    """h compose g compose h^{-1}: the flow transported to the model surface."""

    def __init__(self, flow, h: ExoticMap):
        self.flow = flow
        self.h = h
        self.s = flow.s
        self.t = flow.t

    def apply(self, gamma):
        return self.h.forward(self.flow.apply(self.h.inverse(gamma)))

    def compose(self, later: "ConjugatedFlow") -> "ConjugatedFlow":
        if later.h is not self.h:
            raise ValueError("cannot chain flows conjugated by different maps")
        return ConjugatedFlow(self.flow.compose(later.flow), self.h)

    def invert(self) -> "ConjugatedFlow":
        return ConjugatedFlow(self.flow.invert(), self.h)


def conjugation_gaps(h: ExoticMap, seed, t=0.5, base_dt=0.002, levels=(4, 2, 1),
                     n_noise=8):
    """Average pathwise gap between the conjugated sphere integration and the
    direct surface integration with pushforward fields, per coarsening level."""
    start = np.eye(DIM)[0]
    problem = integrators.single_frame_problem(1, start)
    push = pushforward_field(problem.diffusion_fields[0], h)
    fines = [integrators.sample_brownian(int(round(t / base_dt)), base_dt, 1, seed,
                                         path_index=k)
             for k in range(n_noise)]
    gaps = []
    for level in levels:
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


def pullback_metric(gamma) -> np.ndarray:
    """G' = (I - u u^T) / |gamma|^2 with u = gamma / |gamma|, shape (..., 8, 8),
    at surface points gamma (..., 8): the round metric pulled back through
    h^{-1}(gamma) = u, the same for every map of the family, zero radially."""
    u, r = _unit(gamma)
    return (np.eye(DIM) - u[..., :, None] * u[..., None, :]) / r[..., None] ** 2


def surface_patch_jacobian(h: ExoticMap, phi) -> np.ndarray:
    """Derivative (..., 8, 7) of the surface parameterization angles ->
    h(chart(angles)) at angle vectors phi (..., 7), by the chain rule
    J_h(z) J_chart(phi); it needs a C1 map, as ``ExoticMap.jacobian`` does."""
    return h.jacobian(to_cartesian(phi)) @ chart_jacobian(phi)


def entropy_on_surface(gammas, h: ExoticMap, grid: GridSpec,
                       t: float | None = None) -> EntropyReport:
    """Entropy of a transported sample cloud using the pulled-back measure.

    Bins by the ray direction (the surface chart).  Each bin volume is the
    integral over the angle box of the pullback volume density
    sqrt(det M^T G' M), M being the surface patch derivative; the integral is
    evaluated against the chart's reference density, i.e. as the exact
    reference box integral times the density ratio at the box center.  A wrong
    pullback metric therefore shifts the volumes and the entropy.  M is the
    chain-rule derivative, so, as for ``pushforward_field``, the scaling
    function must be C1: the kinked profile raises RegularityError.
    """
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    keys, counts, volumes = _histogram(_unit(gammas)[0], grid)
    centers = (keys + 0.5) * (ANGLE_SPANS / np.asarray(grid.bins, dtype=float))
    m = surface_patch_jacobian(h, centers)
    gp = pullback_metric(h.forward(to_cartesian(centers)))
    gram = np.swapaxes(m, -1, -2) @ gp @ m
    volumes *= np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / volume_element(centers)
    n = gammas.shape[0]
    return plugin_entropy(counts, counts / (n * volumes), n, t)


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
            row = integrators._float_row(DIM + 1, lead=f"{im.i},{im.j},")
            integrators._write_rows(fh, row, np.column_stack([im.params, im.points]))


__all__ = [
    "RegularityError", "BumpProfile", "Deformation", "ScalingFunction",
    "ExoticMap", "ConjugatedFlow", "CircleImage",
    "pushforward_field", "conjugation_gaps", "pullback_metric",
    "surface_patch_jacobian", "entropy_on_surface",
    "circle_images", "write_circles_csv",
]
