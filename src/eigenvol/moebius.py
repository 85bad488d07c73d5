"""Conformal group of the unit sphere S^m and the associated test functions.

Sphere points are plain numpy arrays of shape (m+1,) with unit Euclidean
norm; most functions also accept batches of shape (..., m+1) and broadcast
over the leading axes.

The dilations ``xi(p, t)`` are conjugates of the Euclidean scaling v -> t*v
by the stereographic projection from the pole p onto the hyperplane
L_p = {x : x.p = 0}.  A point at geodesic angle theta from p projects to
radius cot(theta/2), so the ball of radius 2R about p corresponds to the
region *outside* radius cot(R) in L_p.  All closed forms below reproduce
t(R) = tan(R) and rho(R) = 1 + 1/cos(R) exactly under this orientation.

Rotations change no area or distance used here, and modulo rotations the
Moebius group is the ball of :func:`ball_dilation`, so a
:class:`MoebiusMap` is one dilation xi(pole, t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Annulus",
    "MoebiusMap",
    "ball_dilation",
    "bar_phi",
    "cap_parameters",
    "dilation_gradient",
    "fold_map",
    "geodesic_distance",
    "phi_cap",
    "sphere_point",
    "stereographic",
    "stereographic_inverse",
    "u_annulus",
    "xi_map",
]

_UNIT_TOL = 1e-12


def sphere_point(coords, name: str = "point") -> np.ndarray:
    """Validate and return points of the unit sphere, shape (..., m+1).

    The package's one unit-sphere rule: every norm within 1e-12 of 1, which
    a NaN coordinate fails.  Mesh vertices, immersion images, measure atoms,
    annulus centres and dilation and fold poles, named `name`, go through it.
    """
    q = np.asarray(coords, dtype=float)
    norms = np.linalg.norm(q, axis=-1)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"{name} not on the unit sphere (|norm - 1| = {worst:.3e})")
    return q


def _dot(x, y) -> np.ndarray:
    """Inner products over the last axis, broadcast over the others.

    Summed one coordinate at a time, left to right: the sum np.sum makes
    over fewer than eight coordinates, bit for bit, without its slow
    short-axis loop.
    """
    dots = x[..., 0] * y[..., 0]
    for i in range(1, x.shape[-1]):
        dots = dots + x[..., i] * y[..., i]
    return dots


def geodesic_distance(x, y) -> np.ndarray | float:
    """Intrinsic distance on S^m: arccos of the clamped inner product."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.arccos(np.clip(_dot(x, y), -1.0, 1.0))


def stereographic(p, q) -> np.ndarray:
    """Project q from the pole p onto L_p = {x : x.p = 0}.

    Returns the ambient coordinates of (q - (q.p) p) / (1 - q.p), the
    intersection of the line through p and q with L_p.  A point at angle
    theta from p lands at radius cot(theta/2).  Raises for q = p.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = np.sum(q * p, axis=-1)
    if np.any(c >= 1.0 - 1e-15):
        raise ValueError("stereographic projection undefined at the pole itself")
    return (q - c[..., None] * p) / (1.0 - c)[..., None]


def stereographic_inverse(p, v) -> np.ndarray:
    """Inverse of :func:`stereographic`: v in L_p back to the sphere.

    The point is (2v + (|v|^2 - 1) p) / (|v|^2 + 1); v = 0 goes to -p.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    r2 = np.sum(v * v, axis=-1, keepdims=True)
    return (2.0 * v + (r2 - 1.0) * p) / (r2 + 1.0)


def xi_map(p, t, q) -> np.ndarray:
    """The conformal dilation xi(p, t) applied to q (vectorized in q).

    Closed form, smooth through both fixed points p and -p:
    with c = q.p and D = t^2 (1+c) + (1-c),

        xi(p,t)(q) = c' p + (2 t / D) (q - c p),
        c' = (t^2 (1+c) - (1-c)) / D.

    xi(p,1) = id and xi(p,t) o xi(p,s) = xi(p,ts).
    """
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < np.inf)):
        raise ValueError("dilation parameter t must be positive and finite")
    q = np.asarray(q, dtype=float)
    c = _dot(q, p)
    t2 = t * t
    dd = t2 * (1.0 + c) + (1.0 - c)
    cp = (t2 * (1.0 + c) - (1.0 - c)) / dd
    out = cp[..., None] * p + (2.0 * t / dd)[..., None] * (q - c[..., None] * p)
    # renormalize to kill accumulated round-off (stays within ~1e-15 anyway)
    out /= np.sqrt(_dot(out, out))[..., None]
    return out


def ball_dilation(w) -> tuple[np.ndarray, float]:
    """Pole w/|w| and strength e^|w| of the dilation with vector w.

    Modulo rotations the Moebius group is the ball of these vectors; a
    vector shorter than 1e-15 gives the last axis at strength 1, the
    identity.
    """
    w = np.asarray(w, dtype=float)
    nw = np.linalg.norm(w)
    if nw < 1e-15:
        return np.eye(w.size)[-1], 1.0
    return w / nw, float(np.exp(nw))


def dilation_gradient(w, q, G) -> np.ndarray:
    """Gradient in w of sum_i G[i] . xi(p, t)(q[i]), with (p, t) = ball_dilation(w).

    Differentiates the closed form of :func:`xi_map` in t and in p, then
    goes through p = w/|w| and t = e^|w|.  Every derivative in p carries
    the factor t - 1, taken as expm1|w| so that dividing by |w| loses no
    digits near the identity; at w = 0 the result is the identity's
    derivative v -> v - (v.q) q, whatever the pole.
    """
    w = np.asarray(w, dtype=float)
    r = np.linalg.norm(w)
    p, t = ball_dilation(w)
    c, gp, gq = _dot(q, p), _dot(G, p), _dot(G, q)
    gu = gq - c * gp  # G . (q - c p)
    D = t * t * (1.0 + c) + (1.0 - c)
    tm1 = np.expm1(r)
    # d/dt of c' and of 2t/D, the coefficients of p and of q - c p
    dt = np.sum((4.0 * t * (1.0 - c) * (1.0 + c) * gp
                 + 2.0 * (1.0 - c - t * t * (1.0 + c)) * gu) / D**2)
    # the derivative in p over t - 1: a combination of the q[i] and G[i]
    on_q = -2.0 * t * (((1.0 + c) * tm1 + 2.0 * c) * gp + (t + 1.0) * gu) / D**2
    on_g = (t * (1.0 + c) + (1.0 - c)) / D
    dp = on_q @ q + on_g @ G
    scale = tm1 / r if r > 0.0 else 1.0
    return scale * (dp - (dp @ p) * p) + t * dt * p


def _height_after_xi(t: float, c):
    """x_p(xi(p,t)(q)) given c = cos d(p, q), without forming the point."""
    t2 = t * t
    return (t2 * (1.0 + c) - (1.0 - c)) / (t2 * (1.0 + c) + (1.0 - c))


def cap_parameters(R: float) -> tuple[float, float]:
    """Dilation and image radius for the cap function of outer radius 2R.

    t(R) = tan(R) sends B_{2R}(p) onto the open hemisphere about p;
    rho(R) = 1 + 1/cos(R) is the stereographic radius of the image of
    B_R(p), with rho >= 2 and rho -> 2 as R -> 0+.
    """
    if not 0.0 < R < np.pi / 2:
        raise ValueError(f"cap radius must lie in (0, pi/2), got {R}")
    return np.tan(R), 1.0 + 1.0 / np.cos(R)


def phi_cap(R: float, p, q) -> np.ndarray | float:
    """Cap test function: x_p(xi(p, tan R)(q)) on B_{2R}(p), zero outside.

    Takes the value 1 at p, vanishes continuously on the boundary of
    B_{2R}(p), and is at least 3/5 on B_R(p).
    """
    t, _ = cap_parameters(R)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = np.clip(np.sum(q * p, axis=-1), -1.0, 1.0)
    inside = c > np.cos(2.0 * R)
    vals = np.where(inside, _height_after_xi(t, c), 0.0)
    return np.clip(vals, 0.0, 1.0)


def bar_phi(r: float, p, q) -> np.ndarray | float:
    """Complementary test function: zero on B_{r/2}(p), -x_p(xi(p,tau)(q)) outside.

    tau = tan(r/4) is the dilation sending B_{r/2}(p) onto the hemisphere
    about p, so the function vanishes continuously on the boundary of
    B_{r/2}(p), equals 1 at -p, and is at least 3/5 outside B_r(p).
    """
    if not 0.0 < r < np.pi:
        raise ValueError(f"inner radius must lie in (0, pi), got {r}")
    tau = np.tan(r / 4.0)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = np.clip(np.sum(q * p, axis=-1), -1.0, 1.0)
    outside = c <= np.cos(r / 2.0)
    vals = np.where(outside, -_height_after_xi(tau, c), 0.0)
    return np.clip(vals, 0.0, 1.0)


@dataclass(frozen=True)
class Annulus:
    """Geodesic shell {x : inner <= d(x, center) < outer} on S^m.

    The doubled annulus 2A halves the inner and doubles the outer radius.
    """

    center: np.ndarray
    inner: float
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", sphere_point(self.center))
        if not (0.0 <= self.inner < self.outer < np.pi):
            raise ValueError(
                f"need 0 <= inner < outer < pi, got [{self.inner}, {self.outer})"
            )

    def doubled(self) -> "Annulus":
        outer = min(2.0 * self.outer, np.nextafter(np.pi, 0.0))
        return Annulus(self.center, self.inner / 2.0, outer)

    def contains(self, points) -> np.ndarray:
        d = geodesic_distance(self.center, points)
        return (d >= self.inner) & (d < self.outer)

    def as_dict(self) -> dict:
        return {
            "center": [float(x) for x in self.center],
            "inner": float(self.inner),
            "outer": float(self.outer),
        }


def u_annulus(annulus: Annulus, q) -> np.ndarray | float:
    """Annulus test function phi_cap * bar_phi, supported in 2A.

    For an annulus A = B_R(p) \\ B_r(p) with 0 <= r < R < pi/2 the product
    is at least 9/25 on A; for r = 0 the bar factor is omitted and the
    function reduces to the cap function.
    """
    R = annulus.outer
    if R >= np.pi / 2:
        raise ValueError("annulus test functions need outer radius < pi/2")
    vals = phi_cap(R, annulus.center, q)
    if annulus.inner > 0.0:
        vals = vals * bar_phi(annulus.inner, annulus.center, q)
    return vals


def fold_map(p, q) -> np.ndarray:
    """Fold of the sphere onto the closed hemisphere about p.

    Identity where q.p >= 0, reflection q - 2(q.p)p where q.p <= 0; weakly
    conformal with singular set {q.p = 0}.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    c = np.sum(q * p, axis=-1)
    reflected = q - 2.0 * c[..., None] * p
    return np.where((c >= 0.0)[..., None], q, reflected)


@dataclass(frozen=True)
class MoebiusMap:
    """The dilation xi(pole, t); any Moebius map is one of these followed
    by a rotation, which changes no area."""

    pole: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "pole", sphere_point(self.pole))
        if not 0.0 < self.t < np.inf:
            raise ValueError("dilation parameter t must be positive and finite")

    def __call__(self, q) -> np.ndarray:
        return xi_map(self.pole, self.t, q)

    def as_dict(self) -> dict:
        return {"pole": [float(x) for x in self.pole], "t": float(self.t)}
