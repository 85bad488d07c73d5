"""Reference meshes with known geometry and spectra.

Every generator is deterministic; repeated calls return bitwise identical
meshes.  Spectra, areas and curvatures of these fixtures are known in
closed form, which is what makes them usable as test oracles:

==================  =========================================================
icosphere(L)        unit sphere, lambda_k in {0, 2, 6, 12, ...}, area 4 pi
flat_torus(a,b,n)   abstract flat torus, lambda = (2 pi j / a)^2 + (2 pi k / b)^2
clifford_torus(n)   minimal torus in S^3, lambda_1 = 2 (mult. 4), area 2 pi^2
revolution_torus    torus of revolution in R^3, |H| known pointwise
veronese(L)         projective plane minimally in S^4, lambda_1 = 2, area 6 pi
==================  =========================================================
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh, unique_edges

__all__ = [
    "clifford_torus",
    "flat_torus",
    "icosphere",
    "revolution_torus",
    "veronese",
]


# ---------------------------------------------------------------------- #
# sphere


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a, b in [(1.0, phi), (-1.0, phi), (1.0, -phi), (-1.0, -phi)]:
        verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.array(verts)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    # faces by nearest-neighbour rings: every edge has the same length
    d2 = np.sum((verts[:, None, :] - verts[None, :, :]) ** 2, axis=-1)
    edge2 = np.partition(d2[0], 1)[1] * 1.5  # between edge^2 and next distance^2
    faces = []
    for i in range(12):
        for j in range(i + 1, 12):
            if d2[i, j] > edge2:
                continue
            for k in range(j + 1, 12):
                if d2[i, k] <= edge2 and d2[j, k] <= edge2:
                    faces.append((i, j, k))
    return verts, np.array(faces, dtype=np.int64)


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One round of midpoint (Loop-connectivity) subdivision."""
    nv = verts.shape[0]
    edges, opposite = unique_edges(faces, nv)
    midpoints = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
    new_verts = np.vstack([verts, midpoints])
    mid = nv + opposite  # columns: mid of edges opp 0,1,2
    v0, v1, v2 = faces[:, 0], faces[:, 1], faces[:, 2]
    m0, m1, m2 = mid[:, 0], mid[:, 1], mid[:, 2]
    new_faces = np.concatenate(
        [
            np.column_stack([v0, m2, m1]),
            np.column_stack([v1, m0, m2]),
            np.column_stack([v2, m1, m0]),
            np.column_stack([m0, m1, m2]),
        ]
    )
    return new_verts, new_faces


def icosphere(level: int = 3) -> TriangleMesh:
    """Icosahedral triangulation of the unit sphere with 10*4^level + 2 vertices.

    Midpoint subdivision followed by projection back to the sphere.  The
    vertex set is exactly antipodally symmetric at every level: -v is a
    vertex (bitwise) whenever v is, which the projective quotient in
    :func:`veronese` relies on.
    """
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
        verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    # midpoint, sum and normalization all commute with negation in IEEE
    # arithmetic, so the symmetry survives subdivision bit-for-bit.
    return TriangleMesh(verts, faces, ambient="unit_sphere")


# ---------------------------------------------------------------------- #
# tori


def _grid_faces(n: int) -> np.ndarray:
    """Faces of the periodic n x n grid, each square (i, j) split along its
    diagonal into (v00, v10, v11) and (v00, v11, v01), vertex i * n + j."""
    k = np.arange(n, dtype=np.int64)
    i, j = np.meshgrid(k, k, indexing="ij")
    i1, j1 = (i + 1) % n, (j + 1) % n
    v00, v10, v01, v11 = i * n + j, i1 * n + j, i * n + j1, i1 * n + j1
    cells = np.stack([np.stack([v00, v10, v11], -1), np.stack([v00, v11, v01], -1)], -2)
    return cells.reshape(-1, 3)


def flat_torus(a: float = 2 * np.pi, b: float = 2 * np.pi, n: int = 32) -> TriangleMesh:
    """Abstract flat torus R^2 / (a Z x b Z) on a right-triangle grid.

    An n x n grid of squares, each split along the same diagonal.  All
    metric data is given by edge lengths; there are no coordinates.  The
    Laplace spectrum of the continuum torus is
    ``(2 pi j / a)^2 + (2 pi k / b)^2`` and the discrete operator on this
    mesh is the exact five-point stencil (the diagonal contributes
    cotangent zero), so eigenvalues converge at rate O(h^2).
    """
    if n < 3:
        raise ValueError("need at least a 3 x 3 grid")
    if a <= 0 or b <= 0:
        raise ValueError("torus side lengths must be positive")
    hx, hy = a / n, b / n
    diag = float(np.hypot(hx, hy))
    faces = _grid_faces(n)
    edges, _ = unique_edges(faces, n * n)  # in the order TriangleMesh uses
    (iu, ju), (iv, jv) = np.divmod(edges[:, 0], n), np.divmod(edges[:, 1], n)
    di = (iu - iv) % n != 0
    dj = (ju - jv) % n != 0
    lengths = np.where(di & dj, diag, np.where(di, hx, hy))
    return TriangleMesh(None, faces, edge_lengths=lengths)


def flat_torus_spectrum(a: float, b: float, n: int, count: int) -> np.ndarray:
    """Lowest eigenvalues of the *discrete* flat-torus operator, exactly.

    The five-point stencil on the periodic grid diagonalizes in the
    Fourier basis:  lambda_{jk} = (2 - 2 cos(2 pi j / n)) / hx^2
    + (2 - 2 cos(2 pi k / n)) / hy^2.
    """
    hx, hy = a / n, b / n
    j = np.arange(n)
    wx = (2.0 - 2.0 * np.cos(2.0 * np.pi * j / n)) / hx**2
    wy = (2.0 - 2.0 * np.cos(2.0 * np.pi * j / n)) / hy**2
    lam = np.sort((wx[:, None] + wy[None, :]).ravel())
    return lam[:count]


def clifford_torus(n: int = 24) -> TriangleMesh:
    """The minimal Clifford torus in S^3, embedded in R^4.

    (cos u, sin u, cos v, sin v) / sqrt(2) over an n x n right-triangle
    grid.  Intrinsically a flat square torus of side sqrt(2) pi and area
    2 pi^2; minimal in S^3 with |second fundamental form|^2 = 2, first
    eigenvalue 2 with multiplicity 4, and Morse index 5 as a minimal
    surface.
    """
    if n < 8:
        raise ValueError("need n >= 8 for a sane Clifford torus")
    u = 2.0 * np.pi * np.arange(n) / n
    uu, vv = np.meshgrid(u, u, indexing="ij")
    verts = np.column_stack(
        [np.cos(uu).ravel(), np.sin(uu).ravel(), np.cos(vv).ravel(), np.sin(vv).ravel()]
    ) / np.sqrt(2.0)
    return TriangleMesh(verts, _grid_faces(n), ambient="unit_sphere")


def revolution_torus(R: float = np.sqrt(2.0), r: float = 1.0, n: int = 24) -> TriangleMesh:
    """Torus of revolution in R^3 with tube radius r around a circle of radius R.

    Mean curvature along the tube angle theta is
    ``|H| = |1/r + cos(theta)/(R + r cos(theta))| / 2``, giving the
    Willmore energy ``pi^2 R^2 / (r sqrt(R^2 - r^2))``.  The default
    R = sqrt(2), r = 1 is the stereographic image of the Clifford torus
    and minimizes that energy at 2 pi^2.
    """
    for name, value in (("R", R), ("r", r)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0 < r < R:
        raise ValueError("need 0 < r < R for an embedded torus")
    if n < 8:
        raise ValueError("need n >= 8 segments")
    th = 2.0 * np.pi * np.arange(n) / n  # tube angle
    ph = 2.0 * np.pi * np.arange(n) / n  # revolution angle
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    rho = R + r * np.cos(tt)
    verts = np.column_stack(
        [(rho * np.cos(pp)).ravel(), (rho * np.sin(pp)).ravel(), (r * np.sin(tt)).ravel()]
    )
    return TriangleMesh(verts, _grid_faces(n), ambient="euclidean")


# ---------------------------------------------------------------------- #
# projective plane


def _veronese_map(x: np.ndarray) -> np.ndarray:
    """Quadratic map S^2 -> S^4 inducing the minimal projective plane.

    V(x,y,z) = (sqrt3 xy, sqrt3 yz, sqrt3 xz, (sqrt3/2)(x^2-y^2),
    (1/2)(x^2+y^2-2z^2)); V(-q) = V(q) and |V| = 1, and the induced
    metric is the round metric scaled by 3 (area 6 pi, curvature 1/3).
    """
    s3 = np.sqrt(3.0)
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.stack(
        [
            s3 * x0 * x1,
            s3 * x1 * x2,
            s3 * x0 * x2,
            (s3 / 2.0) * (x0**2 - x1**2),
            0.5 * (x0**2 + x1**2 - 2.0 * x2**2),
        ],
        axis=-1,
    )


def _projective_quotient(verts: np.ndarray, faces: np.ndarray):
    """Veronese images of a sphere mesh, one per antipodal vertex pair, and
    its faces on them.  V(-q) equals V(q) bit for bit, so equal images pair
    antipodes; each pair keeps the vertex whose first clearly nonzero
    coordinate is positive."""
    images = _veronese_map(verts)
    _, pair = np.unique(images, axis=0, return_inverse=True)
    lead = verts[np.arange(verts.shape[0]), np.argmax(np.abs(verts) > 1e-9, axis=1)]
    reps = np.flatnonzero(lead > 0)
    new_id = np.empty(reps.size, dtype=np.int64)
    new_id[pair[reps]] = np.arange(reps.size)
    qfaces = new_id[pair[faces]]
    # distinct faces only (each original face meets its antipode's copy)
    key = np.sort(qfaces, axis=1)
    _, keep = np.unique(key, axis=0, return_index=True)
    return images[reps], qfaces[np.sort(keep)]


def veronese(level: int = 3) -> TriangleMesh:
    """Minimal projective plane in S^4: the icosphere pushed through the
    Veronese map, with antipodal vertices identified.

    Non-orientable, Euler characteristic 1, area converging to 6 pi, first
    eigenvalue converging to 2 with multiplicity 5.  Needs ``level >= 2``
    so that no face contains an antipodal vertex pair.
    """
    if level < 2:
        raise ValueError("need level >= 2: coarser meshes have antipodal faces")
    sphere = icosphere(level)
    qverts, qfaces = _projective_quotient(sphere.vertices, sphere.faces)
    qverts /= np.linalg.norm(qverts, axis=1, keepdims=True)
    return TriangleMesh(qverts, qfaces, ambient="unit_sphere")

