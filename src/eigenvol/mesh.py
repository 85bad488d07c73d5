"""Closed triangle meshes, their cotangent operators, and OFF file I/O.

A :class:`TriangleMesh` is either *embedded* (vertex coordinates in R^d,
possibly constrained to the unit sphere) or *abstract* (no coordinates,
just combinatorics plus one length per edge).  All metric quantities --
face areas, the lumped mass matrix, the cotangent stiffness matrix -- are
computed from edge lengths alone, so the two flavours share every code
path after `face_edge_lengths`.  The mesh owns its Laplace pencil: the
stiffness K is :attr:`TriangleMesh.stiffness` and the lumped mass M is
:attr:`TriangleMesh.vertex_areas`, each computed once on first use.

Only closed connected surfaces are accepted: every edge must belong to
exactly two faces and the edge graph must be connected.  Meshes with
boundary raise at construction time.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import os
import time
import warnings
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "TriangleMesh",
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
        or some face violates the strict triangle inequality, has an
        edge length or area that is not finite, or has zero area.
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
                err = np.max(np.abs(norms - 1.0))
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
        any area is computed, and the areas checked finite and nonzero."""
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
        if not areas.all():
            raise ValueError(f"face {int(np.argmin(areas))} has zero area")
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

    @cached_property
    def face_cotangents(self) -> np.ndarray:
        """Cotangent of the interior angle at each face corner, shape (nf, 3)."""
        sq = self.face_edge_lengths**2
        area4 = 4.0 * self.face_areas[:, None]
        # cot(angle at corner i) from the law of cosines, a is opposite
        a, b, c = sq[:, 0], sq[:, 1], sq[:, 2]
        return np.column_stack([b + c - a, c + a - b, a + b - c]) / area4

    @cached_property
    def vertex_areas(self) -> np.ndarray:
        """Lumped (mixed Voronoi) vertex areas, shape (nv,): the mass M of
        the pencil K v = lambda M v.

        Inside a non-obtuse triangle each corner receives its true Voronoi
        area; obtuse triangles give half their area to the obtuse corner
        and a quarter to each of the others.  The areas sum exactly to the
        total surface area.
        """
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
        return out

    @cached_property
    def stiffness(self) -> sparse.csc_matrix:
        """Cotangent stiffness matrix K of the positive Laplacian, shape (nv, nv).

        ``u^T K u`` is the Dirichlet energy of the piecewise linear function
        with vertex values u; K is symmetric positive semidefinite with the
        constants in its kernel.  Assembled from edge lengths only, once per
        mesh: later reads return the same matrix, which must not be modified.
        """
        f = self.faces
        cots = self.face_cotangents
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
            shape=(self._nv, self._nv),
        )
        return K.tocsc()

    # ------------------------------------------------------------------ #
    # topology

    @cached_property
    def orientable(self) -> bool:
        """Whether the faces admit a consistent orientation."""
        return self._check_orientable()

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
    H = -(mesh.stiffness @ mesh.vertices) / (2.0 * mesh.vertex_areas[:, None])
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
    ``f"{x:.17g}"`` writes it, so that :func:`load_off` reads every
    coordinate back bit for bit; face indices are written as integers.
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


def _data_lines(path, lines, tags):
    """Physical line number and stripped text of each line of `lines` that
    is neither blank nor a comment.  An ``# ambient <name> [<dim>]`` comment
    sets ``tags["ambient"]``; a <name> other than ``euclidean`` or
    ``unit_sphere``, or a <dim> that is not an integer, is refused.

    `lines` is an open text file, which splits at newlines only:
    str.splitlines would also split at form feeds and shift the numbers."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) >= 2 and parts[0] == "ambient":
                if parts[1] not in _AMBIENTS:
                    raise ValueError(f"{path}:{lineno}: unknown ambient {parts[1]!r}")
                tags["ambient"] = parts[1]
                if len(parts) >= 3:
                    try:
                        int(parts[2])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: bad ambient comment") from exc
        elif stripped:
            yield lineno, stripped


def _counts(path, fh):
    """Vertex and face counts, counts line number and ambient tag (or None)
    of the OFF file `fh`, read from its start through its counts line."""
    tags = {}
    head = list(itertools.islice(_data_lines(path, fh, tags), 2))
    if not head or head[0][1].split() != ["OFF"]:
        raise ValueError(f"{path}: missing OFF header")
    if len(head) < 2:
        raise ValueError(f"{path}: missing counts line")
    lineno, line = head[1]
    counts = line.split()
    if len(counts) != 3:
        raise ValueError(f"{path}:{lineno}: counts line must have three fields")
    try:
        nv, nf, _ = (int(c) for c in counts)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad counts line") from exc
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}:{lineno}: bad counts line")
    return nv, nf, lineno, tags.get("ambient")


def _row(text, dtype):
    """The values of one line as np.loadtxt reads them, or None if it refuses."""
    try:
        return np.loadtxt([text], dtype=dtype, comments="#", ndmin=1).tolist()
    except ValueError:
        return None


def _name_refused_line(path, fh):
    """Raise ValueError naming the first data line of the OFF file `fh`
    that np.loadtxt refuses, or else saying that the blocks are short.
    Reads `fh` again from its start, one line at a time."""
    fh.seek(0)
    nv, nf, lineno, _ = _counts(path, fh)
    dim = row = 0
    for lineno, line in enumerate(fh, start=lineno + 1):
        fields = line.partition("#")[0].split()
        if not fields:
            continue
        problem = ""
        if row < nv:
            dim = dim or len(fields)
            if len(fields) != dim:
                problem = f"vertex has {len(fields)} coordinates, expected {dim}"
            elif _row(line, np.float64) is None:
                problem = "bad vertex coordinate"
        elif len(fields) != 4 or _row(fields[0], np.int64) != [3]:
            problem = "only triangle faces are supported"
        elif _row(line, np.int64) is None:
            problem = "bad face index"
        if problem:
            raise ValueError(f"{path}:{lineno}: {problem}")
        row += 1
    raise ValueError(f"{path}: expected {nv} vertices and {nf} faces")


def load_off(path) -> TriangleMesh:
    """Read an ASCII OFF file with triangle faces.

    Vertex dimension is inferred from the first vertex line, so spheres
    in R^4 or R^5 load without extra flags.  An ``# ambient`` comment
    before the counts line, where :func:`save_off` writes it, restores the
    ambient tag; without one the mesh has none.

    After the header, ``np.loadtxt`` reads the vertex block (``float64``)
    and then the face block (``int64``) from the open file, so no line is
    kept as a Python string.  Its rules are the file's rules:

    * ``#`` starts a comment wherever it stands: ``1 1 1 # note`` is a
      vertex of three coordinates.
    * Values read as ``np.loadtxt`` reads them: ``+10``, ``1e1`` and
      ``-10.0`` are coordinates, ``+3`` and ``03`` indices, while ``1_0``,
      ``0_3`` and non-ASCII digits such as ``٣`` are refused, and ``3.0``
      is not an index.  Each face line opens with the count 3.
    * After the counts line an ``# ambient`` comment is only a comment.

    Only when that reader refuses a block, returns it short, or returns a
    face that is not ``3 i j k`` is the file read again, from its start
    and one line at a time, to name the first line that reader refuses,
    also when the file is short.  A pipe is read once into memory.

    Raises
    ------
    ValueError
        On malformed content, with the offending line number.
    """
    start = time.perf_counter()
    with open(path) as fh:
        fh = fh if fh.seekable() else io.StringIO(fh.read())
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        nv, nf, _, ambient = _counts(path, fh)
        verts = faces = None
        # np.loadtxt reserves max_rows rows up front; n bytes hold fewer rows
        if nv + nf <= size:
            # it warns of each blank or comment line in a block, and of a block of no rows
            with warnings.catch_warnings(), contextlib.suppress(ValueError):
                warnings.simplefilter("ignore", UserWarning)
                verts = np.loadtxt(fh, dtype=np.float64, comments="#", max_rows=nv, ndmin=2)
                faces = np.loadtxt(fh, dtype=np.int64, comments="#", max_rows=nf, ndmin=2)
        # a block of no rows reads as shape (0, 1)
        triangles = faces is not None and len(faces) == nf and faces.size == 4 * nf
        if not triangles or len(verts) != nv or np.any(faces[:, 0] != 3):
            _name_refused_line(path, fh)

    mesh = TriangleMesh(verts, faces.reshape(nf, 4)[:, 1:], ambient=ambient)
    _log_io("read", path, mesh, start)
    return mesh
