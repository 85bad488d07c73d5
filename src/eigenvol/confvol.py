"""Sphere-valued maps of meshes and their (conformal) volume.

A :class:`SphereImmersion` is a mesh together with one unit vector per
vertex; the induced discrete map carries each face to the geodesic
triangle spanned by its corner images.  Its *pullback volume* is the sum
of spherical triangle areas, which counts the image with multiplicity --
for a map covering the sphere d times it approaches 4 pi d.  A surface
in R^d enters through :func:`inverse_stereographic`, the stereographic
chart of :mod:`eigenvol.moebius` taken from the north pole.

The *conformal volume* of a map is the supremum of pullback volumes over
the Moebius group of the target.  Rotations do not change areas, and
modulo rotations the group is the hyperbolic ball B^(m+1) (Li and Yau,
1982; El Soufi and Ilias, 1986): a dilation vector w has pole w/|w| and
strength e^|w|.  The search runs BFGS over that ball from a fixed set of
starting poles, with the strength capped at MAX_T, on the closed-form
gradient of the pullback volume, and lengthens its steps while the slope
stays steep, so that maxima at the cap are reached in few steps.  It
returns its best dilation as a :class:`~eigenvol.moebius.MoebiusMap`, as
does the Hersch centring.  The identity is always evaluated first and
retained on ties, so a flat landscape (round sphere) reports the
identity map rather than a random equivalent point.

Faces whose image triangle degenerates, or that a constructor knows to
sit on the singular set of the underlying map (the crease of a fold),
are excluded from the volume and their area is accumulated into an
explicit error bar instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import TriangleMesh, indices, integer, real
from .moebius import (
    MoebiusMap,
    _dot,
    ball_dilation,
    dilation_gradient,
    fold_map,
    sphere_point,
    stereographic,
    stereographic_inverse,
    xi_map,
)

__all__ = [
    "ConfVolResult",
    "DistortionReport",
    "HerschResult",
    "SphereImmersion",
    "conformal_distortion",
    "conformal_volume",
    "hersch_center",
    "inverse_stereographic",
    "pullback_volume",
    "spherical_face_areas",
]


def inverse_stereographic(points: np.ndarray) -> np.ndarray:
    """Lift R^d to the unit sphere S^d minus its north pole.

    R^d is the hyperplane of the last axis in R^(d+1), and the lift is
    :func:`~eigenvol.moebius.stereographic_inverse` from the north pole:
    x -> (2x, |x|^2 - 1) / (|x|^2 + 1); the origin goes to the south
    pole, infinity to the north.  Composing a surface in R^3 with this
    map preserves conformality, which is how flat-space immersions enter
    the conformal-volume machinery.
    """
    points = np.asarray(points, dtype=float)
    if np.any(np.sum(points * points, axis=-1) > 1e16):
        raise ValueError(
            "vertex too far from the origin for a stable lift; recenter first"
        )
    padded = np.concatenate([points, np.zeros_like(points[..., :1])], axis=-1)
    return stereographic_inverse(np.eye(padded.shape[-1])[-1], padded)


def _corners(images, faces):
    """Each face's corner images A, B, C and its side cosines B.C, A.C, A.B.

    The corners come one coordinate per row, shape (m+1, nf), which keeps
    every coordinate contiguous for the sums below.
    """
    A, B, C = (np.take(images.T, faces[:, i], axis=1) for i in range(3))
    return (A, B, C), (_dot(B.T, C.T), _dot(A.T, C.T), _dot(A.T, B.T))


def spherical_face_areas(images: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area of the geodesic triangle spanned by each face's images.

    Uses the half-side (l'Huilier) form of the spherical excess, which is
    stable for the nearly degenerate triangles produced by strong
    dilations.  Corner triples spanning a great circle return area zero.
    """
    return _lhuilier(*_corners(images, faces)[1])


def _lhuilier(bc, ca, ab) -> np.ndarray:
    """Spherical triangle areas from the cosines of the three sides."""
    a = np.arccos(np.clip(bc, -1.0, 1.0))
    b = np.arccos(np.clip(ca, -1.0, 1.0))
    c = np.arccos(np.clip(ab, -1.0, 1.0))
    s = 0.5 * (a + b + c)
    with np.errstate(invalid="ignore"):
        t = (
            np.tan(0.5 * s)
            * np.tan(0.5 * (s - a))
            * np.tan(0.5 * (s - b))
            * np.tan(0.5 * (s - c))
        )
    return 4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))


def _face_area_gradient(corners, faces, active, nv) -> np.ndarray:
    """Gradient in the nv image points of the summed areas of the `active` faces.

    Differentiates the Gram form of each face's area, valid on every S^m:
    E = 2 atan2(sqrt(Delta), Dn) with ab = A.B, bc = B.C, ca = C.A,
    Dn = 1 + ab + bc + ca and Delta = 1 + 2 ab bc ca - ab^2 - bc^2 - ca^2,
    so dE/dab = 2 (Dn (bc ca - ab) / sqrt(Delta) - sqrt(Delta)) / (Delta + Dn^2)
    and cyclically.  Faces with Delta <= 0 (degenerate) add nothing.
    `corners` is what :func:`_corners` returns; the result has shape
    (nv, m+1).
    """
    (A, B, C), (bc, ca, ab) = corners
    dn = 1.0 + ab + bc + ca
    delta = 1.0 + 2.0 * ab * bc * ca - ab * ab - bc * bc - ca * ca
    keep = active & (delta > 0.0)
    delta = np.where(keep, delta, 1.0)
    root = np.sqrt(delta)
    scale = np.where(keep, 2.0 / (delta + dn * dn), 0.0)
    d_ab = scale * (dn * (bc * ca - ab) / root - root)
    d_bc = scale * (dn * (ca * ab - bc) / root - root)
    d_ca = scale * (dn * (ab * bc - ca) / root - root)
    # corner A enters through ab and ca, B through ab and bc, C through bc and ca
    terms = np.hstack([d_ab * B + d_ca * C, d_ab * A + d_bc * C, d_bc * B + d_ca * A])
    index = faces.T.ravel()
    return np.column_stack([np.bincount(index, weights=row, minlength=nv) for row in terms])


@dataclass
class DistortionReport:
    """Per-face conformality diagnostics of a discrete sphere map.

    ``values[f]`` is log(sigma_max / sigma_min) of the linear map taking
    the intrinsic layout of face f to the (chordal) layout of its image;
    zero means conformal.  Faces whose image triangle is numerically
    degenerate are listed in ``singular`` and excluded from the maximum,
    as are the immersion's own singular faces; ``singular_area`` is the
    spherical image area of every face so excluded.
    """

    values: np.ndarray
    singular: np.ndarray
    max_log_distortion: float
    singular_area: float


def _layout(lens: np.ndarray) -> np.ndarray:
    """Plane coordinates of triangles with given side lengths, shape (nf, 3, 2).

    Column convention matches ``face_edge_lengths``: lens[:, i] is the
    side opposite corner i.  Corner 0 sits at the origin, corner 1 on the
    positive x axis.
    """
    l0, l1, l2 = lens[:, 0], lens[:, 1], lens[:, 2]
    x = (l2**2 + l1**2 - l0**2) / (2.0 * l2)
    y2 = l1**2 - x**2
    y = np.sqrt(np.maximum(y2, 0.0))
    nf = lens.shape[0]
    P = np.zeros((nf, 3, 2))
    P[:, 1, 0] = l2
    P[:, 2, 0] = x
    P[:, 2, 1] = y
    return P


def conformal_distortion(immersion: SphereImmersion) -> DistortionReport:
    """How far each face's image is from a conformal copy of the face.

    Source geometry comes from the mesh's own edge lengths (embedded or
    abstract); image geometry from the Euclidean chords between image
    points, which agree with geodesic lengths to second order for the
    small triangles this is used on.
    """
    mesh, images = immersion.mesh, immersion.images
    f = mesh.faces
    chord = lambda i, j: np.linalg.norm(images[f[:, i]] - images[f[:, j]], axis=1)
    img_lens = np.column_stack([chord(1, 2), chord(2, 0), chord(0, 1)])
    P = _layout(mesh.face_edge_lengths)
    with np.errstate(divide="ignore", invalid="ignore"):
        Q = _layout(img_lens)

    # linear map per face: [Q1-Q0, Q2-Q0] = A [P1-P0, P2-P0]
    dP = np.stack([P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]], axis=-1)
    dQ = np.stack([Q[:, 1] - Q[:, 0], Q[:, 2] - Q[:, 0]], axis=-1)
    A = dQ @ np.linalg.inv(dP)
    # faces with a fully collapsed image edge produce NaN layouts; leave
    # them out of the SVD and let zero singular values mark them below
    finite = np.isfinite(A).all(axis=(1, 2))
    smax = np.zeros(A.shape[0])
    smin = np.zeros(A.shape[0])
    if finite.any():
        sig = np.linalg.svd(A[finite], compute_uv=False)
        smax[finite] = sig[:, 0]
        smin[finite] = sig[:, 1]

    singular_mask = smin <= 1e-12 + 1e-8 * smax
    active = ~singular_mask
    active[immersion.singular_faces] = False

    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(singular_mask, np.inf, np.log(smax / smin))
    max_log = float(values[active].max()) if active.any() else 0.0
    return DistortionReport(
        values=values,
        singular=np.flatnonzero(singular_mask),
        max_log_distortion=max_log,
        singular_area=float(spherical_face_areas(images, f[~active]).sum()),
    )


# ---------------------------------------------------------------------- #
# immersions


_GENERIC_POLE = np.array([0.37454012, 0.95071431, 0.73199394])
_GENERIC_POLE = _GENERIC_POLE / np.linalg.norm(_GENERIC_POLE)


@dataclass
class SphereImmersion:
    """A mesh with unit-sphere images per vertex and a known singular set."""

    mesh: TriangleMesh
    images: np.ndarray
    singular_faces: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    def __post_init__(self):
        self.images = real(self.images, "images")
        if self.images.shape[0] != self.mesh.nv or self.images.ndim != 2:
            raise ValueError("need one image point per vertex")
        sphere_point(self.images)
        self.singular_faces = indices(self.singular_faces, "singular_faces", "face")
        if self.singular_faces.size and (
            self.singular_faces.min() < 0 or self.singular_faces.max() >= self.mesh.nf
        ):
            raise ValueError("singular face index out of range")

    @property
    def target_dim(self) -> int:
        """Dimension m of the target sphere S^m."""
        return self.images.shape[1] - 1

    @cached_property
    def distortion(self) -> DistortionReport:
        return conformal_distortion(self)

    # -------------------------------------------------------------- #
    # constructors

    @classmethod
    def identity(cls, mesh: TriangleMesh) -> "SphereImmersion":
        if mesh.vertices is None:
            raise ValueError("identity immersion needs a unit_sphere mesh")
        return cls(mesh, mesh.vertices)

    @classmethod
    def lifted(cls, mesh: TriangleMesh) -> "SphereImmersion":
        """Compose a Euclidean surface with the inverse stereographic lift."""
        if mesh.vertices is None:
            raise ValueError("lift needs vertex coordinates")
        return cls(mesh, inverse_stereographic(mesh.vertices))

    @classmethod
    def fold(cls, mesh: TriangleMesh, pole) -> "SphereImmersion":
        """Fold a sphere mesh onto the hemisphere about `pole`.

        Weakly conformal with the crease along {x . pole = 0}; faces whose
        corners lie strictly on both sides are the singular set.
        """
        if mesh.ambient != "unit_sphere":
            raise ValueError("fold needs a unit_sphere mesh")
        pole = sphere_point(real(pole, "pole"), "pole")
        if pole.shape != (mesh.dim,):
            raise ValueError(f"pole must have {mesh.dim} coordinates, got shape {pole.shape}")
        images = fold_map(pole, mesh.vertices)
        side = np.sign(mesh.vertices @ pole)[mesh.faces]
        crossing = (side.max(axis=1) > 0) & (side.min(axis=1) < 0)
        return cls(mesh, images, np.flatnonzero(crossing))

    @classmethod
    def power(cls, mesh: TriangleMesh, d: int) -> "SphereImmersion":
        """Degree-d power map z -> z^d in stereographic coordinates of S^2,
        for a mesh on the unit sphere of R^3.

        The projection axis is a fixed generic direction, so that no
        vertex of a symmetric mesh sits at either projection pole (such
        meshes do have vertices on every coordinate axis); a mesh with a
        vertex there is refused, and so is a degree whose z^d overflows.
        Vertices map through polar coordinates, so the result covers the
        sphere |d| times.
        """
        if mesh.ambient != "unit_sphere" or mesh.dim != 3:
            raise ValueError("power map needs a unit_sphere mesh in R^3")
        d = integer(d, "degree", None)
        if d == 0:
            raise ValueError("degree must be nonzero")
        p = _GENERIC_POLE
        if np.max(np.abs(mesh.vertices @ p)) >= 1.0 - 1e-9:
            raise ValueError("a vertex coincides with the projection axis")
        # orthonormal tangent frame at p, deterministically from the axis
        # least aligned with p
        axis = np.zeros(3)
        axis[np.argmin(np.abs(p))] = 1.0
        e1 = axis - (axis @ p) * p
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(p, e1)
        w = stereographic(p, mesh.vertices)
        z = w @ e1 + 1j * (w @ e2)
        with np.errstate(over="ignore", invalid="ignore"):
            zd = z**d
            w_img = np.real(zd)[:, None] * e1 + np.imag(zd)[:, None] * e2
            images = stereographic_inverse(p, w_img)
        if not np.isfinite(images).all():
            raise ValueError(f"degree {d} sends a vertex image past the float range")
        return cls(mesh, images)


@dataclass
class PullbackVolume:
    """Image area with multiplicity, split into trusted value and error bar."""

    value: float
    error_bar: float


def pullback_volume(immersion: SphereImmersion) -> PullbackVolume:
    """Total spherical area of the face images, excluding singular faces.

    For a map that tiles the sphere (identity on a sphere mesh, a power
    map) the value is exactly 4 pi times the covering degree, because the
    geodesic triangles partition the sphere.
    """
    areas = spherical_face_areas(immersion.images, immersion.mesh.faces)
    mask = np.zeros(immersion.mesh.nf, dtype=bool)
    mask[immersion.singular_faces] = True
    return PullbackVolume(
        value=float(areas[~mask].sum()),
        error_bar=float(areas[mask].sum()),
    )


# ---------------------------------------------------------------------- #
# conformal volume search


# the dilation ball: strengths e^|w| up to MAX_T, so |w| <= log(MAX_T)
MAX_T = 10.0
# relative margin by which a dilation must beat the incumbent volume
TIE_TOL = 1e-9
# |y| of each start: strength e^(log(MAX_T) tanh 0.5) = 2.9 along its pole
_START_RADIUS = 0.5


@dataclass
class ConfVolResult:
    """Supremum of pullback volume over the Moebius group (lower bound).

    ``map`` is the best dilation found and ``value`` its pullback volume.
    ``diverged`` means that dilation's log-strength is within 0.1% of
    log(MAX_T), the signature of a map that wants to concentrate at a
    point (conformal volume attained only in the limit).  ``evaluations``
    counts the dilations whose pullback volume was computed, the identity
    included; each objective call scores one.  ``trace`` holds one entry
    for the identity, then one per start: its best value, |w| there, the
    divergence flag, its evaluations and the largest gradient coordinate
    where its BFGS run stopped.
    """

    value: float
    error_bar: float
    map: MoebiusMap
    diverged: bool
    start: int
    trace: list
    evaluations: int


def _bfgs(fun, x) -> np.ndarray:
    """Minimize fun(x) -> (value, gradient) by BFGS from x.

    The textbook method (Nocedal and Wright, ch. 6) with scipy's defaults:
    gradient tolerance 1e-5 in every coordinate, at most 200 iterations
    per coordinate.  Returns the gradient at the last iterate.  Steps
    start at length at most 1.  One that makes an Armijo decrease while
    the slope along it stays below 0.9 times the initial slope (the weak
    Wolfe conditions, ch. 3) is lengthened 4x, and the last such step is
    kept once a longer one loses the Armijo decrease.  One that makes no
    Armijo decrease shrinks by safeguarded quadratic interpolation until
    it does; a step that cannot stops the search.  scipy.optimize is not
    used because importing it costs 0.2 s and 15 MB per process.
    """
    n = x.size
    f, g = fun(x)
    H = np.eye(n)
    for k in range(200 * n):
        if np.max(np.abs(g)) < 1e-5:
            break
        d = -H @ g
        if g @ d >= 0.0:  # not a descent direction: restart from the gradient
            H, d = np.eye(n), -g
        slope = g @ d
        a, longest, shrunk = min(1.0, 1.0 / np.linalg.norm(d)), None, False
        while True:
            trial = fun(x + a * d)
            if trial[0] >= f + 1e-4 * a * slope:
                if longest is not None:
                    a, trial = longest
                    break
                if a < 1e-10:
                    return g
                a = min(max(-slope * a * a / (2.0 * (trial[0] - f - slope * a)), 0.1 * a), 0.5 * a)
                shrunk = True
            elif not shrunk and trial[1] @ d < 0.9 * slope:
                longest, a = (a, trial), 4.0 * a
            else:
                break
        s, y = a * d, trial[1] - g
        x, (f, g) = x + s, trial
        sy = s @ y
        if sy > 0.0:
            if k == 0:
                H = (sy / (y @ y)) * H
            V = np.eye(n) - np.outer(s, y) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
    return g


def conformal_volume(
    immersion: SphereImmersion, starts: int = 4, seed: int = 0
) -> ConfVolResult:
    """Maximize pullback volume over dilations by BFGS in the ball.

    Modulo rotations, which do not change areas, the Moebius group is the
    ball of dilation vectors w (pole w/|w|, strength e^|w|), capped here
    at |w| <= log(MAX_T) through w = log(MAX_T) tanh|y| y/|y| with y free.
    Each of `starts` poles (the last axis, then poles drawn from `seed`)
    starts one BFGS run in y.  Every objective call scores one dilation,
    its value by l'Huilier's formula as :func:`pullback_volume` does, and
    its exact gradient by the chain rule through the Gram form of each
    face's area, :func:`~eigenvol.moebius.dilation_gradient` and the cap.
    The identity is scored first and kept unless a dilation beats it by
    TIE_TOL relative, so the flat landscape of a round sphere reports the
    identity map.  Deterministic for fixed seed.
    """
    starts = integer(starts, "starts", 1)
    seed = integer(seed, "seed", 0)
    mesh, images = immersion.mesh, immersion.images
    faces = mesh.faces
    sing = np.zeros(mesh.nf, dtype=bool)
    sing[immersion.singular_faces] = True
    active = ~sing
    dim = immersion.target_dim + 1
    cap = float(np.log(MAX_T))
    evals = 1

    def objective(y, run):
        nonlocal evals
        evals += 1
        r = np.sqrt(np.sum(y * y))
        th, safe_r = np.tanh(r), (r if r > 0.0 else 1.0)
        w = cap * th * y / safe_r
        corners = _corners(xi_map(*ball_dilation(w), images), faces)
        areas = _lhuilier(*corners[1])
        value = areas[active].sum()
        if value > run["value"]:
            run.update(value=float(value), error=float(areas[sing].sum()), w=w)
        grad = dilation_gradient(w, images, _face_area_gradient(corners, faces, active, mesh.nv))
        # back through w = cap tanh|y| y/|y|: along u = y/|y| the derivative
        # is cap sech^2|y|, across it |w|/|y|, which is cap at y = 0
        u, e = y / safe_r, np.exp(-2.0 * r)
        along = u @ grad
        across = th / r if r > 0.0 else 1.0
        grad = cap * (across * (grad - along * u) + 4.0 * e / (1.0 + e) ** 2 * along * u)
        return -value, -grad

    start = pullback_volume(immersion)
    best = {
        "value": start.value, "error": start.error_bar,
        "w": np.zeros(dim), "start": -1, "diverged": False,
    }
    trace = [{"start": -1, "value": best["value"], "tau": 0.0}]
    rng = np.random.default_rng(seed)
    poles = [np.eye(dim)[-1]]
    while len(poles) < starts:
        q = rng.standard_normal(dim)
        poles.append(q / np.linalg.norm(q))
    for si, pole in enumerate(poles):
        run = {"value": -np.inf, "start": si}
        before = evals
        g = _bfgs(lambda y: objective(y, run), _START_RADIUS * pole)
        tau = float(np.linalg.norm(run["w"]))
        run["diverged"] = tau >= 0.999 * cap
        trace.append({
            "start": si, "value": run["value"], "tau": tau, "diverged": run["diverged"],
            "evaluations": evals - before, "max_gradient": float(np.max(np.abs(g))),
        })
        if run["value"] > best["value"] * (1.0 + TIE_TOL):
            best = run

    return ConfVolResult(
        value=best["value"],
        error_bar=best["error"],
        map=MoebiusMap(*ball_dilation(best["w"])),
        diverged=best["diverged"],
        start=best["start"],
        trace=trace,
        evaluations=evals,
    )


# ---------------------------------------------------------------------- #
# Hersch centering


HERSCH_TOL = 1e-10
HERSCH_MAX_ITER = 500


@dataclass
class HerschResult:
    """Conformal centering of a sphere-valued map.

    The centering converged when ``moment_norm < HERSCH_TOL``.
    """

    map: MoebiusMap
    moment_norm: float
    iterations: int


def hersch_center(immersion: SphereImmersion) -> HerschResult:
    """Find a dilation making the area-weighted image barycenter vanish.

    Damped fixed-point iteration on the dilation vector w in R^(m+1)
    (pole w/|w|, strength e^|w|, as in the search): step against the
    current moment, halve the damping whenever the moment norm fails to
    decrease.  Stops once the moment norm is below HERSCH_TOL or after
    HERSCH_MAX_ITER steps.  Symmetric meshes start with a numerically
    zero moment and return the identity untouched, which downstream
    determinism tests rely on.
    """
    images = immersion.images
    weights = immersion.mesh.vertex_areas
    W = weights.sum()

    def moved(w):
        pole, t = ball_dilation(w)
        return images if t == 1.0 else xi_map(pole, t, images)

    def moment(pts):
        return (weights @ pts) / W

    w = np.zeros(images.shape[1])
    c = moment(images)
    beta = 1.0
    it = 0
    while it < HERSCH_MAX_ITER and np.linalg.norm(c) >= HERSCH_TOL:
        trial = w - beta * c
        c_trial = moment(moved(trial))
        if np.linalg.norm(c_trial) < np.linalg.norm(c):
            w, c = trial, c_trial
            beta = min(1.0, beta * 1.5)
        else:
            beta *= 0.5
            if beta < 1e-8:
                break
        it += 1

    return HerschResult(
        map=MoebiusMap(*ball_dilation(w)),
        moment_norm=float(np.linalg.norm(c)),
        iterations=it,
    )
