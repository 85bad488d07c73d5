"""Closed triangle meshes, their cotangent operators, and OFF file I/O.

A :class:`TriangleMesh` is either *embedded* (vertex coordinates in R^d,
on the unit sphere when :func:`~eigenvol.moebius.sphere_point` accepts
them) or *abstract* (no coordinates, just combinatorics plus one length
per edge).  All metric quantities -- face areas, the lumped mass matrix,
the cotangent stiffness matrix -- are computed from edge lengths alone,
so the two flavours share every code path after `face_edge_lengths`.
The mesh owns its Laplace pencil: the stiffness K is
:attr:`TriangleMesh.stiffness` and the lumped mass M is
:attr:`TriangleMesh.vertex_areas`, each computed once on first use.

Only closed connected surfaces are accepted: every edge must belong to
exactly two faces and the edge graph must be connected.  Meshes with
boundary raise at construction time; a vertex whose faces form more than
one fan raises when the topology (orientability, genus) is first read.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import operator
import os
import time
import warnings
from functools import cached_property

import numpy as np
from scipy import sparse

from .moebius import sphere_point

__all__ = [
    "TriangleMesh",
    "indices",
    "integer",
    "load_off",
    "mean_curvature",
    "real",
    "save_off",
    "vertex_values",
    "willmore_energy",
]

log = logging.getLogger(__name__)


def unique_edges(faces: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges as sorted vertex pairs in lexicographic order, shape (ne, 2),
    and per face the edge index opposite each corner, shape (nf, 3)."""
    # corner i of a face is opposite the edge formed by the other two
    opp = np.stack([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]], axis=1)
    pairs = np.sort(opp.reshape(-1, 2), axis=1)
    edge_keys, inverse = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_inverse=True)
    edges = np.column_stack([edge_keys // nv, edge_keys % nv])
    return edges, inverse.reshape(faces.shape[0], 3)


def _components(n: int, u: np.ndarray, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on nodes 0..n-1 with
    edges (u[i], v[i]): their count and each node's component label,
    numbered in the order of each component's least node.

    Union-find over whole arrays: each round hooks the larger root of
    every edge whose ends have different roots onto the smaller one, then
    compresses every path to its root.  Pointers only ever go down, so the
    root left in each component is its least node.
    """
    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        split = ru != rv  # an edge within one component stays there
        if not split.any():
            break
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        parent[np.maximum(ru, rv)] = np.minimum(ru, rv)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    root = parent == np.arange(n)
    return int(np.count_nonzero(root)), (np.cumsum(root) - 1)[parent]


def _turn(corner, step):
    """The corner `step` places on from `corner` in its face; corner i of
    face j has index 3 j + i."""
    return corner - corner % 3 + (corner % 3 + step) % 3


class TriangleMesh:
    """A closed connected triangle mesh.

    Parameters
    ----------
    vertices : array_like of shape (nv, d) or None
        Vertex coordinates.  ``None`` declares an abstract mesh; then
        `edge_lengths` is required.
    faces : array_like of shape (nf, 3)
        Vertex indices of each triangle.
    edge_lengths : array_like of shape (ne,), optional
        One positive length per edge, aligned with :attr:`edges` (the
        lexicographically sorted unique vertex pairs).  Required when
        ``vertices is None``; forbidden otherwise.

    The :attr:`ambient` tag is not passed in: it is read off the
    coordinates by :func:`~eigenvol.moebius.sphere_point`.

    Raises
    ------
    ValueError
        If the mesh is not closed, not connected, has an invalid face,
        or some face violates the strict triangle inequality, has an
        edge length or area that is not finite, or has zero area.
    """

    def __init__(self, vertices, faces, edge_lengths=None):
        faces = np.asarray(faces)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must have shape (nf, 3), got {faces.shape}")
        faces = np.ascontiguousarray(indices(faces, "faces", "vertex"))
        self.faces = faces

        if vertices is None:
            if edge_lengths is None:
                raise ValueError("abstract meshes require edge_lengths")
            self.vertices = None
            self._nv = int(faces.max()) + 1 if faces.size else 0
        else:
            if edge_lengths is not None:
                raise ValueError("edge_lengths is only for abstract meshes")
            vertices = real(vertices, "vertices")
            if vertices.ndim != 2:
                raise ValueError("vertices must have shape (nv, d)")
            finite = np.isfinite(vertices).all(axis=1)
            if not finite.all():
                raise ValueError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
            self.vertices = vertices
            self._nv = vertices.shape[0]

        self._validate_faces()
        self._edges, self._face_edge_idx = unique_edges(faces, self._nv)
        self._validate_closed_connected()

        if vertices is None:
            edge_lengths = real(edge_lengths, "edge_lengths")
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
        ncomp, _ = _components(self._nv, self._edges[:, 0], self._edges[:, 1])
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

    @cached_property
    def ambient(self) -> str | None:
        """``"unit_sphere"`` when :func:`~eigenvol.moebius.sphere_point`
        accepts every vertex, else None (always for abstract meshes)."""
        if self.vertices is not None:
            # a norm that overflows is off the sphere, without a warning
            with contextlib.suppress(ValueError), np.errstate(over="ignore"):
                sphere_point(self.vertices)
                return "unit_sphere"
        return None

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
        """Whether the faces admit a consistent orientation.

        Raises ValueError if the faces about some vertex form more than one
        fan, as where two spheres touch: such a mesh is not a surface.
        """
        return self._check_orientable()

    def _check_orientable(self) -> bool:
        f, nf = self.faces, self.nf
        forward = np.column_stack(
            [f[:, (c + 1) % 3] < f[:, (c + 2) % 3] for c in range(3)]
        ).ravel()
        corners = np.argsort(self._face_edge_idx.ravel(), kind="stable")
        a, b = corners[0::2], corners[1::2]  # the two corners facing each edge
        same = forward[a] == forward[b]  # both faces traverse it one way
        # Each edge joins the two faces' corners at either end of it: the
        # corners after a and after b when both traverse it one way.  The
        # corners about a vertex so joined form its fans; a surface has one.
        rows = np.concatenate([_turn(a, 1), _turn(a, 2)])
        cols = np.concatenate([_turn(b, 2 - same), _turn(b, 1 + same)])
        count, fan = _components(3 * nf, rows, cols)
        if count > self._nv:
            fan_vertex = np.empty(count, dtype=np.int64)
            fan_vertex[fan] = f.ravel()
            fans = np.bincount(fan_vertex, minlength=self._nv)
            bad = int(np.argmax(fans > 1))
            raise ValueError(f"the faces about vertex {bad} form {fans[bad]} fans, not one")
        # The orientation double cover has two sheets per face.  Two faces
        # traversing their shared edge in the same direction need opposite
        # orientations, so they join opposite sheets; otherwise the same
        # sheet.  The surface is orientable iff the cover splits: the two
        # sheets of face 0 lie in different components.
        flip = same * nf
        rows = np.concatenate([a // 3, a // 3 + nf])
        cols = np.concatenate([b // 3 + flip, b // 3 + nf - flip])
        _, sheet = _components(2 * nf, rows, cols)
        return bool(sheet[0] != sheet[nf])

    @property
    def genus(self) -> int:
        """Genus for orientable meshes; genus of the orientable double cover otherwise."""
        chi = self.euler_characteristic
        if self.orientable:
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
        every vertex on the unit sphere.
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


def vertex_values(mesh: TriangleMesh, values, name: str, nonnegative: bool = True) -> np.ndarray:
    """One value per vertex: the (nv,) broadcast view of a scalar, a length-1 array or an
    (nv,) array, whose values are finite, and nonnegative when `nonnegative` is set."""
    values = real(values, name)
    if values.shape not in ((), (1,), (mesh.nv,)):
        raise ValueError(f"{name} must be a scalar or one value per vertex "
                         f"({mesh.nv}), got shape {values.shape}")
    ok = np.isfinite(values) & (values >= 0.0) if nonnegative else np.isfinite(values)
    if not np.all(ok):
        raise ValueError(f"{name} must be finite" + (" and nonnegative" if nonnegative else ""))
    return np.broadcast_to(values, (mesh.nv,))


def real(values, name: str) -> np.ndarray:
    """`values` as a contiguous float64 array of at least one dimension,
    refused in one line when complex (numpy would drop the imaginary part
    with no more than a ComplexWarning)."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, got complex values")
    return np.ascontiguousarray(values, dtype=np.float64)


def indices(values, name: str, of: str) -> np.ndarray:
    """`values` as an int64 array, refused in one line unless its dtype is an
    integer one (numpy would truncate fractions and parse strings); an empty
    array of any dtype names nothing and passes."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be {of} indices, got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


def integer(value, name: str, least: int | None, most: int | None = None) -> int:
    """A count as a plain int: a Python or numpy integer, not a bool, in
    [least, most] (no bound where None), refused otherwise in one line."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if (number is None or (least is not None and number < least)
            or (most is not None and number > most)):
        bound = ("" if least is None else f" >= {least}" if most is None
                 else f" in [{least}, {most}]")
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return number


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
    """Write an embedded mesh as plain ASCII OFF, with no comment line.

    Each coordinate is written as ``f"{x:.17g}"`` writes it, so that
    :func:`load_off` reads every coordinate back bit for bit; face indices
    are written as integers.
    """
    if mesh.vertices is None:
        raise ValueError("abstract meshes have no coordinates to export")
    start = time.perf_counter()
    nv, dim = mesh.vertices.shape
    head = f"OFF\n{nv} {mesh.nf} 0\n"
    row = " ".join(["%.17g"] * dim) + "\n"
    with open(path, "w") as fh:
        fh.write(head)
        fh.write((row * nv) % tuple(mesh.vertices.ravel().tolist()))
        fh.write(("3 %d %d %d\n" * mesh.nf) % tuple(mesh.faces.ravel().tolist()))
    _log_io("wrote", path, mesh, start)


def _data_lines(lines):
    """Physical line number and fields of each line of `lines` that has
    any once its ``#`` comment is cut off.

    `lines` is an open text file, which splits at newlines only:
    str.splitlines would also split at form feeds and shift the numbers."""
    for lineno, line in enumerate(lines, start=1):
        fields = line.partition("#")[0].split()
        if fields:
            yield lineno, fields


def _counts(path, lines):
    """Vertex and face counts of an OFF file, read through its counts line
    from `lines`, the file's :func:`_data_lines` from its start."""
    head = list(itertools.islice(lines, 2))
    if not head or head[0][1] != ["OFF"]:
        raise ValueError(f"{path}: missing OFF header")
    if len(head) < 2:
        raise ValueError(f"{path}: missing counts line")
    lineno, counts = head[1]
    if len(counts) != 3:
        raise ValueError(f"{path}:{lineno}: counts line must have three fields")
    try:
        nv, nf, _ = (int(c) for c in counts)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad counts line") from exc
    if nv < 0 or nf < 0:
        raise ValueError(f"{path}:{lineno}: bad counts line")
    return nv, nf


def _row(fields, dtype):
    """The values of one line's fields as np.loadtxt reads them, or None if it refuses."""
    try:
        return np.loadtxt([" ".join(fields)], dtype=dtype, ndmin=1).tolist()
    except ValueError:
        return None


def _name_refused_line(path, fh):
    """Raise ValueError naming the first data line of the OFF file `fh`
    that np.loadtxt refuses, or else saying that the blocks are short.
    Reads `fh` again from its start, one line at a time."""
    fh.seek(0)
    lines = _data_lines(fh)
    nv, nf = _counts(path, lines)
    dim = 0
    for row, (lineno, fields) in enumerate(lines):
        problem = ""
        if row < nv:
            dim = dim or len(fields)
            if len(fields) != dim:
                problem = f"vertex has {len(fields)} coordinates, expected {dim}"
            elif _row(fields, np.float64) is None:
                problem = "bad vertex coordinate"
        elif len(fields) != 4 or _row(fields[:1], np.int64) != [3]:
            problem = "only triangle faces are supported"
        elif _row(fields, np.int64) is None:
            problem = "bad face index"
        if problem:
            raise ValueError(f"{path}:{lineno}: {problem}")
    raise ValueError(f"{path}: expected {nv} vertices and {nf} faces")


def load_off(path) -> TriangleMesh:
    """Read an ASCII OFF file with triangle faces.

    Vertex dimension is inferred from the first vertex line, so spheres
    in R^4 or R^5 load without extra flags.  Every ``#`` line is a
    comment, also the ``# ambient`` line that earlier versions of
    :func:`save_off` wrote: the mesh reads its tag off its coordinates.

    After the header, ``np.loadtxt`` reads the vertex block (``float64``)
    and then the face block (``int64``) from the open file, so no line is
    kept as a Python string.  Its rules are the file's rules:

    * ``#`` starts a comment wherever it stands, also on the header and
      counts lines: ``OFF # from tool`` is the header, ``12 20 0 # counts``
      the counts line and ``1 1 1 # note`` a vertex of three coordinates.
    * A UTF-8 byte order mark before ``OFF`` is skipped.  A byte that is
      not UTF-8 reads as U+FFFD: fine in a comment, refused elsewhere.
    * Values read as ``np.loadtxt`` reads them: ``+10``, ``1e1`` and
      ``-10.0`` are coordinates, ``+3`` and ``03`` indices, while ``1_0``,
      ``0_3`` and non-ASCII digits such as ``٣`` are refused, and ``3.0``
      is not an index.  Each face line opens with the count 3.

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
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        fh = fh if fh.seekable() else io.StringIO(fh.read())
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        nv, nf = _counts(path, _data_lines(fh))
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

    mesh = TriangleMesh(verts, faces.reshape(nf, 4)[:, 1:])
    _log_io("read", path, mesh, start)
    return mesh
