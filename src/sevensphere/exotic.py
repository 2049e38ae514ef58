"""The sphere-to-model-surface homeomorphism h, built from a configurable
ambient deformation D and a positive scaling function beta:

    h(z)      = D^{-1}(beta(z) z)
    h^{-1}(g) = D(g) / |D(g)|

The default deformation family scales each ray by a smooth bump of the
direction that vanishes on a neighbourhood of the circle in the (z1, z2)
plane, so that circle is fixed pointwise and h has a closed-form inverse.
A kinked (merely continuous) scaling profile is provided to exercise the
regularity failure of the field pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import ANGLE_SPANS, EntropyReport, GridSpec, _histogram, plugin_entropy
from .frames import DIM
from .geometry import central_difference, to_cartesian, volume_element
from .integrators import _float_row, _write_rows


class RegularityError(ValueError):
    """Raised when an operation needs more smoothness than the map offers."""


def _smooth_transition(t):
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = np.clip(t, 1e-12, 1.0 - 1e-12)
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    return np.where(t <= 0.0, lo, np.where(t >= 1.0, hi, np.where(mid, a / (a + b), hi)))


def _smooth_transition_deriv(t):
    """Analytic ramp derivative a b (1/t^2 + 1/(1-t)^2) / (a + b)^2 on (0, 1),
    with a = exp(-1/t) and b = exp(-1/(1-t)); 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    tm = np.clip(t, 1e-12, 1.0 - 1e-12)
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    d = a * b * (1.0 / tm ** 2 + 1.0 / (1.0 - tm) ** 2) / (a + b) ** 2
    return np.where((t > 0.0) & (t < 1.0), d, 0.0)


def _kink_transition(t):
    return np.clip(t, 0.0, 1.0)


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
        if self.kind == "smooth":
            return _smooth_transition(t)
        return _kink_transition(t)

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


class Deformation:
    """Direction-dependent radial scaling D(x) = x * (1 + eps * s(x/|x|))."""

    def __init__(self, eps: float = 0.2, profile: BumpProfile | None = None):
        if not 0.0 <= eps < 0.3:
            raise ValueError("deformation strength must lie in [0, 0.3)")
        self.eps = eps
        self.profile = profile or BumpProfile()

    def scale(self, direction):
        return 1.0 + self.eps * self.profile.value(direction)

    def _ray_scale(self, x) -> np.ndarray:
        """The scale of the ray through each point, shaped to broadcast with x."""
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        if np.any(r < 1e-300):
            raise ValueError("deformation is undefined at the origin")
        s = np.asarray(self.scale(x / r))
        return s[..., None] if s.ndim else s

    def _scale_and_gradient(self, x):
        """g = scale of each point's ray, shaped (..., 1, 1) to scale the
        (..., 8, 8) Jacobians, and the gradient (..., 8) of s(x/|x|) in x."""
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        u = x / r
        return np.asarray(self.scale(u))[..., None, None], self.profile.gradient(u) / r

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x * self._ray_scale(x)

    def inverse(self, y) -> np.ndarray:
        # the scaling depends only on the direction, which forward preserves
        y = np.asarray(y, dtype=float)
        return y / self._ray_scale(y)

    def jacobian(self, x) -> np.ndarray:
        """Analytic d D / d x, shape (..., 8, 8), at points x (..., 8)."""
        x = np.asarray(x, dtype=float)
        g, grad_s = self._scale_and_gradient(x)
        return g * np.eye(DIM) + self.eps * x[..., :, None] * grad_s[..., None, :]

    def inverse_jacobian(self, y) -> np.ndarray:
        """Analytic d D^{-1} / d y, shape (..., 8, 8), at points y (..., 8)."""
        y = np.asarray(y, dtype=float)
        g, grad_s = self._scale_and_gradient(y)
        # D^{-1}(y) = y / g(y/|y|)
        return (np.eye(DIM) / g
                - self.eps * y[..., :, None] * grad_s[..., None, :] / g ** 2)


def identity_deformation() -> Deformation:
    return Deformation(eps=0.0)


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

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        val = self.base + self.eps * self.profile.value(z)
        if np.any(np.asarray(val) <= 0.0):
            raise ValueError("scaling function must stay positive")
        return val

    def gradient(self, z) -> np.ndarray:
        if self.smoothness != "smooth":
            raise RegularityError("scaling function is not C1")
        z = np.asarray(z, dtype=float)
        if self.eps == 0.0:
            return np.zeros(z.shape)
        return self.eps * self.profile.gradient(z)


def constant_scaling(value: float = 1.0) -> ScalingFunction:
    return ScalingFunction(base=value)


class ExoticMap:
    """The homeomorphism h(z) = D^{-1}(beta(z) z) and its inverse."""

    def __init__(self, deformation: Deformation | None = None,
                 scaling: ScalingFunction | None = None):
        self.deformation = deformation or identity_deformation()
        self.scaling = scaling or constant_scaling()

    @classmethod
    def bump(cls, eps: float = 0.2, **profile_kwargs) -> "ExoticMap":
        return cls(Deformation(eps, BumpProfile(**profile_kwargs)))

    @property
    def is_identity(self) -> bool:
        return self.deformation.eps == 0.0 and self.scaling.base == 1.0 \
            and self.scaling.eps == 0.0

    def forward(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        beta = np.asarray(self.scaling(z))
        zeta = z * (beta[..., None] if beta.ndim else beta)
        return self.deformation.inverse(zeta)

    def inverse(self, gamma) -> np.ndarray:
        gamma = np.asarray(gamma, dtype=float)
        d = self.deformation.forward(gamma)
        n = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(n < 1e-300):
            raise ValueError("deformation maps a surface point to the origin")
        return d / n

    def jacobian(self, z) -> np.ndarray:
        """d h / d z, shape (..., 8, 8), at sphere points z (..., 8):
        (dD^{-1})(zeta) (z grad(beta)^T + beta I)."""
        z = np.asarray(z, dtype=float)
        beta = np.asarray(self.scaling(z))[..., None]
        grad_beta = self.scaling.gradient(z)
        dinv = self.deformation.inverse_jacobian(z * beta)
        return dinv @ (z[..., :, None] * grad_beta[..., None, :]
                       + beta[..., None] * np.eye(DIM))

    def surface_point(self, direction) -> np.ndarray:
        """The model-surface point on a given ray (directions parameterize it)."""
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
        return self.forward(direction)


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

    field.label = "pushforward"
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


def pullback_metric(gamma, h: ExoticMap) -> np.ndarray:
    """G' = J^T J, shape (..., 8, 8), with J the ambient Jacobian of h^{-1} at
    surface points gamma (..., 8).

    J annihilates the ray direction, so G' is the pulled-back round metric on
    the surface tangent plane and zero radially.
    """
    gamma = np.asarray(gamma, dtype=float)
    d = h.deformation.forward(gamma)
    nd = np.linalg.norm(d, axis=-1, keepdims=True)
    if np.any(nd < 1e-300):
        raise ValueError("deformation maps the point to the origin")
    jac_d = h.deformation.jacobian(gamma)
    # d/dgamma of D/|D| = (I - u u^T)/|D| . dD with u = D/|D|
    u = d / nd
    jac = (np.eye(DIM) - u[..., :, None] * u[..., None, :]) @ jac_d / nd[..., None]
    return np.swapaxes(jac, -1, -2) @ jac


def surface_patch_jacobian(h: ExoticMap, phi, step: float = 1e-6) -> np.ndarray:
    """Derivative (..., 8, 7) of the surface parameterization angles ->
    h(chart(angles)) at angle vectors phi (..., 7)."""
    return central_difference(lambda q: h.forward(to_cartesian(q)), phi, step)


def entropy_on_surface(gammas, h: ExoticMap, grid: GridSpec,
                       t: float | None = None) -> EntropyReport:
    """Entropy of a transported sample cloud using the pulled-back measure.

    Bins by the ray direction (the surface chart).  Each bin volume is the
    integral over the angle box of the pullback volume density
    sqrt(det M^T G' M), M being the surface patch derivative; the integral is
    evaluated against the chart's reference density, i.e. as the exact
    reference box integral times the density ratio at the box center.  A wrong
    pullback metric therefore shifts the volumes and the entropy.
    """
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    dirs = gammas / np.linalg.norm(gammas, axis=-1, keepdims=True)
    keys, counts, volumes = _histogram(dirs, grid)
    centers = (keys + 0.5) * (ANGLE_SPANS / np.asarray(grid.bins, dtype=float))
    m = surface_patch_jacobian(h, centers)
    gp = pullback_metric(h.forward(to_cartesian(centers)), h)
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
            radii = np.linalg.norm(image, axis=-1)
            out.append(CircleImage(i, j, thetas, image, closure,
                                   float(np.max(np.abs(radii - 1.0)))))
    return out


def write_circles_csv(images, fname) -> None:
    with open(fname, "w") as fh:
        fh.write("i,j,theta," + ",".join(f"g{k}" for k in range(1, DIM + 1)) + "\n")
        for im in images:
            _write_rows(fh, _float_row(DIM + 1, lead=f"{im.i},{im.j},"),
                        np.column_stack([im.params, im.points]))


__all__ = [
    "RegularityError", "BumpProfile", "Deformation", "ScalingFunction",
    "ExoticMap", "ConjugatedFlow", "CircleImage",
    "identity_deformation", "constant_scaling",
    "pushforward_field", "pullback_metric",
    "surface_patch_jacobian", "entropy_on_surface",
    "circle_images", "write_circles_csv",
]
