"""Closed triangle meshes, their cotangent operators, and OFF file I/O.

A :class:`TriangleMesh` is either *embedded* (vertex coordinates in R^d,
possibly constrained to the unit sphere) or *abstract* (no coordinates,
just combinatorics plus one length per edge).  All metric quantities --
face areas, the lumped mass matrix, the cotangent stiffness matrix -- are
computed from edge lengths alone, so the two flavours share every code
path after `face_edge_lengths`.

Only closed connected surfaces are accepted: every edge must belong to
exactly two faces and the edge graph must be connected.  Meshes with
boundary raise at construction time.
"""

from __future__ import annotations

import logging
import time

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "TriangleMesh",
    "cotangent_stiffness",
    "load_off",
    "mean_curvature",
    "save_off",
    "willmore_energy",
]

log = logging.getLogger(__name__)

_AMBIENTS = ("euclidean", "unit_sphere")


def unique_edges(faces: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges as sorted vertex pairs in lexicographic order, shape (ne, 2),
    and per face the edge index opposite each corner, shape (nf, 3)."""
    # corner i of a face is opposite the edge formed by the other two
    opp = np.stack([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]], axis=1)
    pairs = np.sort(opp.reshape(-1, 2), axis=1)
    edge_keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edges = np.column_stack([edge_keys // nv, edge_keys % nv])
    return edges, inverse.reshape(faces.shape[0], 3)


class TriangleMesh:
    """A closed connected triangle mesh.

    Parameters
    ----------
    vertices : array_like of shape (nv, d) or None
        Vertex coordinates.  ``None`` declares an abstract mesh; then
        `edge_lengths` is required.
    faces : array_like of shape (nf, 3)
        Vertex indices of each triangle.
    ambient : {"euclidean", "unit_sphere", None}
        Geometric context of the coordinates.  ``"unit_sphere"`` asserts
        every vertex has unit norm (within 1e-12) and enables intrinsic
        sphere operations.  Must be ``None`` for abstract meshes.
    edge_lengths : array_like of shape (ne,), optional
        One positive length per edge, aligned with :attr:`edges` (the
        lexicographically sorted unique vertex pairs).  Required when
        ``vertices is None``; forbidden otherwise.

    Raises
    ------
    ValueError
        If the mesh is not closed, not connected, has an invalid face,
        or some face violates the strict triangle inequality or has an
        edge length or area that is not finite.
    """

    def __init__(self, vertices, faces, ambient=None, edge_lengths=None):
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must have shape (nf, 3), got {faces.shape}")
        self.faces = faces

        if vertices is None:
            if ambient is not None:
                raise ValueError("abstract meshes cannot declare an ambient space")
            if edge_lengths is None:
                raise ValueError("abstract meshes require edge_lengths")
            self.vertices = None
            self._nv = int(faces.max()) + 1 if faces.size else 0
        else:
            if edge_lengths is not None:
                raise ValueError("edge_lengths is only for abstract meshes")
            vertices = np.ascontiguousarray(vertices, dtype=np.float64)
            if vertices.ndim != 2:
                raise ValueError("vertices must have shape (nv, d)")
            finite = np.isfinite(vertices).all(axis=1)
            if not finite.all():
                raise ValueError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
            if ambient is not None and ambient not in _AMBIENTS:
                raise ValueError(f"unknown ambient {ambient!r}")
            self.vertices = vertices
            self._nv = vertices.shape[0]
        self.ambient = ambient

        self._cache = {}
        self._validate_faces()
        self._edges, self._face_edge_idx = unique_edges(faces, self._nv)
        self._validate_closed_connected()

        if vertices is None:
            edge_lengths = np.ascontiguousarray(edge_lengths, dtype=np.float64)
            if edge_lengths.shape != (self._edges.shape[0],):
                raise ValueError(
                    f"edge_lengths must have shape ({self._edges.shape[0]},), "
                    f"one per edge, got {edge_lengths.shape}"
                )
            if not np.all(np.isfinite(edge_lengths) & (edge_lengths > 0.0)):
                raise ValueError("edge lengths must be positive and finite")
            self.edge_lengths = edge_lengths
        else:
            # lengths that overflow are refused below, without a warning
            with np.errstate(over="ignore"):
                diffs = vertices[self._edges[:, 0]] - vertices[self._edges[:, 1]]
                self.edge_lengths = np.linalg.norm(diffs, axis=1)
            if ambient == "unit_sphere":
                norms = np.linalg.norm(vertices, axis=1)
                err = np.max(np.abs(norms - 1.0)) if norms.size else 0.0
                if err > 1e-12:
                    raise ValueError(
                        f"unit_sphere ambient but max |norm - 1| = {err:.3e}"
                    )

        # per face: edge lengths, column i opposite corner i, and areas
        self.face_edge_lengths, self.face_areas = self._face_metric()

    # ------------------------------------------------------------------ #
    # construction-time checks

    def _validate_faces(self):
        f = self.faces
        if f.size == 0:
            raise ValueError("mesh has no faces")
        if f.min() < 0 or f.max() >= self._nv:
            raise ValueError("face indices out of range")
        same = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
        if same.any():
            raise ValueError(f"degenerate face {int(np.argmax(same))} repeats a vertex")
        keys = np.sort(f, axis=1)
        order = np.lexsort(keys.T[::-1])  # stable: equal rows keep face order
        keys = keys[order]
        twin = np.all(keys[1:] == keys[:-1], axis=1)
        if twin.any():
            k = int(np.argmax(twin))
            raise ValueError(
                f"face {order[k + 1]} repeats the vertices of face {order[k]}"
            )
        if self.vertices is not None and self._nv != self.vertices.shape[0]:
            raise ValueError("vertex count does not match coordinate array")

    def _validate_closed_connected(self):
        counts = np.bincount(self._face_edge_idx.ravel(), minlength=self._edges.shape[0])
        if np.any(counts != 2):
            bad = int(np.argmax(counts != 2))
            u, v = self._edges[bad]
            raise ValueError(
                f"mesh is not closed: edge ({u}, {v}) lies in {counts[bad]} faces"
            )
        adj = sparse.coo_matrix(
            (np.ones(self._edges.shape[0]), (self._edges[:, 0], self._edges[:, 1])),
            shape=(self._nv, self._nv),
        )
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise ValueError(f"mesh has {ncomp} connected components")

    def _face_metric(self):
        """Edge lengths per face, shape (nf, 3), and face areas by the
        numerically stable Heron formula, shape (nf,).  The lengths are
        checked finite and against the strict triangle inequality before
        any area is computed, and the areas checked finite."""
        lens = self.edge_lengths[self._face_edge_idx]
        finite = np.isfinite(lens).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"face {bad} has an edge length that is not finite")
        a, b, c = lens[:, 0], lens[:, 1], lens[:, 2]
        with np.errstate(over="ignore"):
            slack = np.minimum(b + c - a, np.minimum(a + c - b, a + b - c))
        if np.any(slack <= 0.0):
            bad = int(np.argmin(slack))
            raise ValueError(
                f"face {bad} violates the strict triangle inequality "
                f"(lengths {lens[bad].tolist()})"
            )
        a, b, c = np.sort(lens, axis=1)[:, ::-1].T  # a >= b >= c
        # Kahan's rearrangement avoids cancellation for needle triangles
        with np.errstate(over="ignore"):
            prod = (a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c))
        areas = 0.25 * np.sqrt(np.maximum(prod, 0.0))
        finite = np.isfinite(areas)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"face {bad} has an area that is not finite")
        return lens, areas

    # ------------------------------------------------------------------ #
    # basic queries

    @property
    def nv(self) -> int:
        """Number of vertices."""
        return self._nv

    @property
    def nf(self) -> int:
        """Number of faces."""
        return self.faces.shape[0]

    @property
    def dim(self) -> int | None:
        """Ambient dimension, or None for abstract meshes."""
        return None if self.vertices is None else self.vertices.shape[1]

    @property
    def edges(self) -> np.ndarray:
        """Unique edges as lexicographically sorted vertex pairs, shape (ne, 2)."""
        return self._edges

    @property
    def euler_characteristic(self) -> int:
        return self._nv - self._edges.shape[0] + self.nf

    # ------------------------------------------------------------------ #
    # metric quantities (everything below works for abstract meshes too)

    @property
    def area(self) -> float:
        """Total surface area."""
        return float(self.face_areas.sum())

    @property
    def face_cotangents(self) -> np.ndarray:
        """Cotangent of the interior angle at each face corner, shape (nf, 3)."""
        if "cots" not in self._cache:
            sq = self.face_edge_lengths**2
            area4 = 4.0 * self.face_areas[:, None]
            # cot(angle at corner i) from the law of cosines, a is opposite
            a, b, c = sq[:, 0], sq[:, 1], sq[:, 2]
            cots = np.column_stack([b + c - a, c + a - b, a + b - c]) / area4
            self._cache["cots"] = cots
        return self._cache["cots"]

    @property
    def vertex_areas(self) -> np.ndarray:
        """Lumped (mixed Voronoi) vertex areas, shape (nv,).

        Inside a non-obtuse triangle each corner receives its true Voronoi
        area; obtuse triangles give half their area to the obtuse corner
        and a quarter to each of the others.  The areas sum exactly to the
        total surface area.
        """
        if "varea" not in self._cache:
            cots = self.face_cotangents
            sq = self.face_edge_lengths**2
            areas = self.face_areas
            # Voronoi area at corner i: (1/8)(|edge to j|^2 cot_k + |edge to k|^2 cot_j)
            # where the edge from corner i to corner j is opposite corner k.
            voronoi = 0.125 * (
                np.roll(sq, -1, axis=1) * np.roll(cots, -1, axis=1)
                + np.roll(sq, 1, axis=1) * np.roll(cots, 1, axis=1)
            )
            obtuse = cots < 0.0
            any_obtuse = obtuse.any(axis=1)
            contrib = np.where(
                any_obtuse[:, None],
                np.where(obtuse, 0.5 * areas[:, None], 0.25 * areas[:, None]),
                voronoi,
            )
            out = np.zeros(self._nv)
            np.add.at(out, self.faces, contrib)
            self._cache["varea"] = out
        return self._cache["varea"]

    # ------------------------------------------------------------------ #
    # topology

    @property
    def orientable(self) -> bool:
        """Whether the faces admit a consistent orientation."""
        if "orientable" not in self._cache:
            self._cache["orientable"] = self._check_orientable()
        return self._cache["orientable"]

    def _check_orientable(self) -> bool:
        # The orientation double cover has two sheets per face.  Two faces
        # traversing their shared edge in the same direction need opposite
        # orientations, so they join opposite sheets; otherwise the same
        # sheet.  The surface is orientable iff the cover splits: the two
        # sheets of face 0 lie in different components.
        f, nf = self.faces, self.nf
        forward = np.column_stack(
            [f[:, (c + 1) % 3] < f[:, (c + 2) % 3] for c in range(3)]
        ).ravel()
        corners = np.argsort(self._face_edge_idx.ravel(), kind="stable")
        a, b = corners[0::2], corners[1::2]  # the two corners facing each edge
        flip = (forward[a] == forward[b]) * nf
        rows = np.concatenate([a // 3, a // 3 + nf])
        cols = np.concatenate([b // 3 + flip, b // 3 + nf - flip])
        cover = sparse.coo_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(2 * nf, 2 * nf)
        )
        _, sheet = connected_components(cover, directed=False)
        return bool(sheet[0] != sheet[nf])

    @property
    def genus(self) -> int:
        """Genus for orientable meshes; genus of the orientable double cover otherwise."""
        chi = self.euler_characteristic
        if self.orientable:
            if chi % 2:
                raise ValueError(f"orientable surface with odd Euler characteristic {chi}")
            return (2 - chi) // 2
        return 1 - chi

    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        kind = "abstract" if self.vertices is None else f"R^{self.dim}"
        amb = f", ambient={self.ambient}" if self.ambient else ""
        return (
            f"TriangleMesh({self._nv} vertices, {self.nf} faces, {kind}{amb}, "
            f"chi={self.euler_characteristic})"
        )


def cotangent_stiffness(mesh: TriangleMesh) -> sparse.csc_matrix:
    """Cotangent stiffness matrix K of the positive Laplacian.

    ``u^T K u`` is the Dirichlet energy of the piecewise linear function
    with vertex values u; K is symmetric positive semidefinite with the
    constants in its kernel.  Assembled from edge lengths only, once per
    mesh: later calls return the same matrix, which must not be modified.

    Returns
    -------
    scipy.sparse.csc_matrix of shape (nv, nv)
    """
    if "stiffness" not in mesh._cache:
        f = mesh.faces
        cots = mesh.face_cotangents
        nv = mesh.nv
        rows, cols, vals = [], [], []
        for corner in range(3):
            j = f[:, (corner + 1) % 3]
            k = f[:, (corner + 2) % 3]
            w = 0.5 * cots[:, corner]
            rows += [j, k, j, k]
            cols += [k, j, j, k]
            vals += [-w, -w, w, w]
        K = sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nv, nv),
        )
        mesh._cache["stiffness"] = K.tocsc()
    return mesh._cache["stiffness"]


def mean_curvature(mesh: TriangleMesh, component: str = "ambient") -> np.ndarray:
    """Discrete mean curvature vector at each vertex, shape (nv, d).

    Defined through the coordinate identity  H = -(Laplacian x) / 2  for
    surfaces, with the positive lumped-FEM Laplacian: on the unit sphere
    this gives the inward normal of length one.

    Parameters
    ----------
    mesh : TriangleMesh
        Must be embedded (have vertex coordinates).
    component : {"ambient", "sphere"}
        ``"sphere"`` projects out the radial part, leaving the mean
        curvature of the surface viewed inside the unit sphere; requires
        ``ambient="unit_sphere"``.
    """
    if mesh.vertices is None:
        raise ValueError("mean curvature needs vertex coordinates")
    K = cotangent_stiffness(mesh)
    H = -(K @ mesh.vertices) / (2.0 * mesh.vertex_areas[:, None])
    if component == "ambient":
        return H
    if component == "sphere":
        if mesh.ambient != "unit_sphere":
            raise ValueError('component="sphere" requires unit_sphere ambient')
        radial = np.sum(H * mesh.vertices, axis=1, keepdims=True)
        return H - radial * mesh.vertices
    raise ValueError(f"unknown component {component!r}")


def willmore_energy(mesh: TriangleMesh, component: str = "ambient") -> float:
    """Integral of |H|^2 over the surface (lumped quadrature)."""
    H = mean_curvature(mesh, component=component)
    return float(np.sum(mesh.vertex_areas * np.sum(H * H, axis=1)))


# ---------------------------------------------------------------------- #
# OFF file I/O


def _log_io(action, path, mesh, start):
    log.debug(
        "%(action)s %(path)s: %(vertices)d vertices, %(faces)d faces in %(seconds).4f s",
        {"action": action, "path": str(path), "vertices": mesh.nv, "faces": mesh.nf,
         "seconds": time.perf_counter() - start},
    )


def save_off(mesh: TriangleMesh, path) -> None:
    """Write an embedded mesh as ASCII OFF.

    The ambient tag is preserved in a leading comment so that
    :func:`load_off` round-trips it.  Each coordinate is written as
    ``f"{x:.17g}"`` writes it, so that ``float()`` reads every coordinate
    back bit for bit; face indices are written as integers.
    """
    if mesh.vertices is None:
        raise ValueError("abstract meshes have no coordinates to export")
    start = time.perf_counter()
    nv, dim = mesh.vertices.shape
    head = "OFF\n"
    if mesh.ambient is not None:
        head += f"# ambient {mesh.ambient} {dim}\n"
    head += f"{nv} {mesh.nf} 0\n"
    row = " ".join(["%.17g"] * dim) + "\n"
    with open(path, "w") as fh:
        fh.write(head)
        fh.write((row * nv) % tuple(mesh.vertices.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * mesh.nf) % tuple(mesh.faces.ravel().tolist()))
    _log_io("wrote", path, mesh, start)


def _read_block(path, lines, numbers, width, problem, dtype, what):
    """The fields of `lines` as an array of shape (len(lines), width).

    Each value is read as ``float()`` or ``int()`` reads it (``dtype``
    float or int64).  `problem(fields)` names what is wrong with a line's
    fields, or is empty.  On the first line that `problem` names, or whose
    value does not parse, raise ValueError naming its physical line number
    from `numbers`.
    """
    tokens = []
    for line in lines:
        fields = line.split()
        if problem(fields):
            break
        tokens += fields
    else:
        try:
            return np.array(tokens, dtype=dtype).reshape(len(lines), width)
        except (ValueError, OverflowError):
            pass
    # some line is malformed: report the first, checking lines in order
    for line, lineno in zip(lines, numbers):
        fields = line.split()
        if message := problem(fields):
            raise ValueError(f"{path}:{lineno}: {message}")
        try:
            np.array(fields, dtype=dtype)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {what}") from exc
    raise AssertionError("a malformed block has a malformed line")


def load_off(path) -> TriangleMesh:
    """Read an ASCII OFF file with triangle faces.

    Vertex dimension is inferred from the first vertex line, so spheres
    in R^4 or R^5 load without extra flags.  Coordinates are read as
    ``float()`` reads them and face indices as ``int()`` does (so ``1_0``
    and ``inf`` parse, and ``3.0`` is not an index).  An ``# ambient``
    comment written by :func:`save_off` restores the ambient tag; without
    one the mesh has none.

    Raises
    ------
    ValueError
        On malformed content, with the offending line number.
    """
    start = time.perf_counter()
    with open(path) as fh:
        # split on newlines only: str.splitlines would also break lines at
        # form feeds and other separators and shift the line numbers
        raw = fh.read().split("\n")

    file_ambient = None
    file_dim = None
    numbers, content = [], []  # physical line number and text of each data line
    for lineno, line in enumerate(raw, start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) >= 2 and parts[0] == "ambient":
                file_ambient = parts[1]
                if len(parts) >= 3:
                    try:
                        file_dim = int(parts[2])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: bad ambient comment") from exc
            continue
        if stripped:
            numbers.append(lineno)
            content.append(stripped)

    if not content or content[0].split() != ["OFF"]:
        raise ValueError(f"{path}: missing OFF header")
    if len(content) < 2:
        raise ValueError(f"{path}: missing counts line")
    counts = content[1].split()
    if len(counts) != 3:
        raise ValueError(f"{path}:{numbers[1]}: counts line must have three fields")
    try:
        nv, nf, _ = (int(c) for c in counts)
    except ValueError as exc:
        raise ValueError(f"{path}:{numbers[1]}: bad counts line") from exc
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}:{numbers[1]}: bad counts line")
    if len(content) - 2 < nv + nf:
        raise ValueError(f"{path}: expected {nv} vertices and {nf} faces")

    dim = len(content[2].split()) if nv else (file_dim or 3)
    verts = _read_block(
        path, content[2 : 2 + nv], numbers[2 : 2 + nv], dim,
        lambda f: f"vertex has {len(f)} coordinates, expected {dim}" if len(f) != dim else "",
        float, "vertex coordinate",
    )
    faces = _read_block(
        path, content[2 + nv : 2 + nv + nf], numbers[2 + nv : 2 + nv + nf], 4,
        lambda f: "only triangle faces are supported" if f[0] != "3" or len(f) != 4 else "",
        np.int64, "face index",
    )[:, 1:]

    mesh = TriangleMesh(verts, faces, ambient=file_ambient)
    _log_io("read", path, mesh, start)
    return mesh
