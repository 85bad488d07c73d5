from __future__ import annotations

import logging
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from eigenvol import mesh as mesh_module
from eigenvol.confvol import SphereImmersion
from eigenvol.fixtures import clifford_torus, flat_torus, icosphere, revolution_torus, veronese
from eigenvol.mesh import (
    TriangleMesh,
    load_off,
    mean_curvature,
    save_off,
    vertex_values,
    willmore_energy,
)
from eigenvol.packing import DiscreteMeasure
from eigenvol.spectral import assemble_laplacian, negative_count


def _tetrahedron():
    verts = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    ) / np.sqrt(3.0)
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return verts, faces


def test_vertex_areas_sum_to_total_area(sphere3, fat_torus):
    for mesh in (sphere3, fat_torus):
        assert np.sum(mesh.vertex_areas) == pytest.approx(mesh.area, rel=1e-13)
        assert np.all(mesh.vertex_areas > 0)


def test_face_areas_match_cross_product(sphere3):
    v = sphere3.vertices
    f = sphere3.faces
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    ref = 0.5 * np.linalg.norm(cross, axis=1)
    assert np.max(np.abs(sphere3.face_areas - ref)) < 1e-14


def test_stiffness_rows_sum_to_zero(sphere3):
    K = sphere3.stiffness
    assert np.max(np.abs(K @ np.ones(sphere3.nv))) < 1e-12
    assert (abs(K - K.T) > 1e-14).nnz == 0


def test_stiffness_is_positive_semidefinite(sphere3):
    K = sphere3.stiffness
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(sphere3.nv)
        assert u @ (K @ u) >= -1e-10


def test_dirichlet_energy_of_linear_function():
    # on a planar-faced surface, energy of a coordinate function equals
    # the integral of |grad|^2 = sum of face areas times |grad|^2 = ...
    # easiest exact case: sphere coordinates have energy 8pi/3 each in
    # the continuum; check the discrete version converges from below of 2%
    mesh = icosphere(3)
    K = mesh.stiffness
    for i in range(3):
        x = mesh.vertices[:, i]
        assert x @ (K @ x) == pytest.approx(8 * np.pi / 3, rel=0.02)


def test_not_closed_rejected():
    verts, faces = _tetrahedron()
    with pytest.raises(ValueError, match="not closed"):
        TriangleMesh(verts, faces[:-1])


def test_degenerate_face_rejected():
    verts, faces = _tetrahedron()
    bad = faces.copy()
    bad[0] = [0, 0, 1]
    with pytest.raises(ValueError, match="degenerate"):
        TriangleMesh(verts, bad)


def test_out_of_range_index_rejected():
    verts, faces = _tetrahedron()
    bad = faces.copy()
    bad[0, 0] = 7
    with pytest.raises(ValueError, match="out of range"):
        TriangleMesh(verts, bad)


def test_disconnected_rejected():
    verts, faces = _tetrahedron()
    verts2 = np.vstack([verts, verts + 10.0])
    faces2 = np.vstack([faces, faces + 4])
    with pytest.raises(ValueError, match="^mesh has 2 connected components$"):
        TriangleMesh(verts2, faces2)


_graphs = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
))


@settings(max_examples=200, deadline=None)
@given(graph=_graphs)
@example(graph=(9, [(0, 4), (4, 0), (4, 4), (7, 2), (2, 7), (2, 5), (8, 8)]))
@example(graph=(5, []))
def test_components_partition_the_nodes_as_csgraph_does(graph):
    # isolated nodes, repeated edges, self-loops and several components;
    # scipy's csgraph is imported here only, never by the package
    from scipy.sparse.csgraph import connected_components

    n, edges = graph
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    count, labels = mesh_module._components(n, u, v)
    adj = sparse.coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    want, theirs = connected_components(adj, directed=False)
    assert count == want
    # the same partition: labels correspond one to one
    assert len(set(zip(labels.tolist(), theirs.tolist()))) == count
    # numbered 0..count-1 in the order of each component's least node
    _, least = np.unique(labels, return_index=True)
    assert np.array_equal(labels[least], np.arange(count))
    assert np.all(np.diff(least) > 0)


def test_triangle_inequality_violation_names_face():
    faces = _tetrahedron()[1]
    lengths = {}
    # abstract tetrahedron with one edge stretched past the sum of the others
    nv = 4
    pairs = np.sort(
        np.concatenate([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]]), axis=1
    )
    keys = np.unique(pairs[:, 0] * nv + pairs[:, 1])
    edge_lengths = np.ones(len(keys))
    edge_lengths[0] = 5.0
    with pytest.raises(ValueError, match="face [0-9]+ violates"):
        TriangleMesh(None, faces, edge_lengths=edge_lengths)


def test_unit_sphere_ambient_validated():
    # the tag is read off the coordinates, never declared
    verts, faces = _tetrahedron()
    assert TriangleMesh(verts, faces).ambient == "unit_sphere"
    assert TriangleMesh(verts * 1.001, faces).ambient is None


def test_euclidean_and_abstract_meshes_read_no_tag():
    sphere = icosphere(2)
    off_centre = TriangleMesh(sphere.vertices + [0.0, 0.0, 0.25], sphere.faces)
    for mesh in (revolution_torus(), flat_torus(), off_centre):
        assert mesh.ambient is None


def test_mesh_repr_names_kind_and_tag():
    assert repr(icosphere(1)) == (
        "TriangleMesh(42 vertices, 80 faces, R^3, ambient=unit_sphere, chi=2)")
    assert repr(revolution_torus(n=8)) == "TriangleMesh(64 vertices, 128 faces, R^3, chi=0)"
    assert repr(flat_torus(n=8)) == "TriangleMesh(64 vertices, 128 faces, abstract, chi=0)"


def test_abstract_mesh_requires_lengths():
    faces = _tetrahedron()[1]
    with pytest.raises(ValueError, match="edge_lengths"):
        TriangleMesh(None, faces)


def test_euler_characteristic_and_genus(sphere3, fat_torus):
    assert sphere3.euler_characteristic == 2
    assert sphere3.genus == 0
    assert fat_torus.euler_characteristic == 0
    assert fat_torus.genus == 1
    assert sphere3.orientable and fat_torus.orientable


def test_veronese_is_nonorientable():
    v = veronese(2)
    assert not v.orientable
    assert v.euler_characteristic == 1
    assert v.genus == 0  # genus of the orientable double cover


def test_mean_curvature_unit_sphere(sphere4):
    H = mean_curvature(sphere4)
    norms = np.linalg.norm(H, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-4
    # inward pointing
    assert np.max(np.sum(H * sphere4.vertices, axis=1)) < -0.999
    # as a surface inside the sphere it is totally geodesic; the discrete
    # vector keeps an O(h) tangential drift at the twelve irregular vertices
    tangential = mean_curvature(sphere4, component="sphere")
    assert np.max(np.linalg.norm(tangential, axis=1)) < 0.01


def test_mean_curvature_scaling():
    mesh = icosphere(3)
    big = TriangleMesh(mesh.vertices * 2.0, mesh.faces)
    H = mean_curvature(big)
    assert np.linalg.norm(H, axis=1) == pytest.approx(0.5, abs=1e-4)


def test_stiffness_is_assembled_once_per_mesh():
    fresh, shared = icosphere(2), icosphere(2)
    H_fresh = mean_curvature(fresh)
    K, _ = assemble_laplacian(shared)
    assert shared.stiffness is K
    assert np.array_equal(mean_curvature(shared), H_fresh)


def test_willmore_energy_torus_oracle():
    # integral of |H|^2 over a torus of revolution: pi^2 R^2 / (r sqrt(R^2 - r^2))
    for R, r in [(np.sqrt(2.0), 1.0), (3.0, 1.0)]:
        mesh = revolution_torus(R, r, 48)
        expect = np.pi**2 * R**2 / (r * np.sqrt(R**2 - r**2))
        assert willmore_energy(mesh) == pytest.approx(expect, rel=0.01)


def test_willmore_minimum_at_clifford_ratio():
    w = willmore_energy(revolution_torus(np.sqrt(2.0), 1.0, 32))
    assert w == pytest.approx(2 * np.pi**2, rel=0.01)
    assert willmore_energy(revolution_torus(3.0, 1.0, 32)) > w


def test_off_round_trip(tmp_path, sphere3):
    path = tmp_path / "sphere.off"
    save_off(sphere3, path)
    back = load_off(path)
    assert back.ambient == "unit_sphere"
    assert np.array_equal(back.vertices, sphere3.vertices)
    assert np.array_equal(back.faces, sphere3.faces)


def test_off_round_trip_r5(tmp_path):
    v = veronese(2)
    path = tmp_path / "veronese.off"
    save_off(v, path)
    back = load_off(path)
    assert back.dim == 5
    assert np.array_equal(back.vertices, v.vertices)


def _load_through_a_pipe(tmp_path, data):
    # a pipe cannot seek back to its start
    pipe = tmp_path / "pipe.off"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(data))
    writer.start()
    try:
        return load_off(pipe)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_off_round_trip_through_a_pipe(tmp_path, sphere3):
    path = tmp_path / "sphere.off"
    save_off(sphere3, path)
    back = _load_through_a_pipe(tmp_path, path.read_bytes())
    assert back.ambient == "unit_sphere"
    assert np.array_equal(back.vertices, sphere3.vertices)
    assert np.array_equal(back.faces, sphere3.faces)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_off_error_through_a_pipe_names_the_line(tmp_path):
    data = ("\n".join(_edit(_TETRA_OFF, {8: "3 0 x 1"})) + "\n").encode()
    with pytest.raises(ValueError) as exc:
        _load_through_a_pipe(tmp_path, data)
    assert str(exc.value) == f"{tmp_path / 'pipe.off'}:8: bad face index"


def test_off_refuses_abstract_mesh(tmp_path):
    faces = _tetrahedron()[1]
    mesh = TriangleMesh(None, faces, edge_lengths=np.ones(6))
    with pytest.raises(ValueError, match="abstract"):
        save_off(mesh, tmp_path / "abstract.off")


def test_off_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n2 1 0\n0 0 1\n0 nope 0\n3 0 1 1\n")
    with pytest.raises(ValueError, match="bad.off:4"):
        load_off(bad)
    bad2 = tmp_path / "bad2.off"
    bad2.write_text("NOFF\n1 0 0\n0 0 1\n")
    with pytest.raises(ValueError, match="OFF header"):
        load_off(bad2)


def test_off_rejects_quads(tmp_path):
    verts, faces = _tetrahedron()
    path = tmp_path / "quad.off"
    path.write_text(
        "OFF\n4 1 0\n"
        + "\n".join(" ".join(str(x) for x in v) for v in verts)
        + "\n4 0 1 2 3\n"
    )
    with pytest.raises(ValueError, match="triangle"):
        load_off(path)


def _reference_off(mesh, tag=None):
    # the writer formatting each value on its own, as save_off did first;
    # with a tag, the comment line that save_off once wrote after "OFF"
    lines = ["OFF"]
    if tag is not None:
        lines.append(f"# ambient {tag} {mesh.dim}")
    lines.append(f"{mesh.nv} {mesh.nf} 0")
    lines += [" ".join(f"{x:.17g}" for x in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(int(i)) for i in f) for f in mesh.faces]
    return "\n".join(lines) + "\n"


def _flat_mesh(dim):
    # the flat tetrahedron of test_obtuse_mixed_area_is_exact with -0.0,
    # subnormals and values that need all 17 digits; the constant extra
    # coordinates (1e300 first) leave every edge length as it is
    xy = np.array([[-0.0, 0.0], [4.0, 5e-324], [2.0, 0.5], [2.0000000000000004, 0.1 + 0.2]])
    extra = np.array([1e300, 1.0 / 3.0, -2.2250738585072e-310])[: dim - 2]
    verts = np.hstack([xy, np.tile(extra, (4, 1))])
    return TriangleMesh(verts, [[0, 2, 1], [3, 0, 1], [3, 1, 2], [3, 2, 0]])


# each mesh, and the tag of the "# ambient" line that save_off once wrote
# into its file (None: no such line); the file read back holds that line
_OFF_MESHES = {
    "r3-sphere": (lambda: icosphere(2), None),
    "r4-clifford": (lambda: clifford_torus(8), None),
    "r5-veronese": (lambda: veronese(2), None),
    **{
        f"r{dim}-flat-{tag}": (lambda dim=dim: _flat_mesh(dim), tag)
        for dim in (3, 4, 5)
        for tag in (None, "euclidean")
    },
}


def _namer_refused(*args):
    raise AssertionError("the error namer read a file np.loadtxt should read")


@pytest.mark.parametrize("name", sorted(_OFF_MESHES))
def test_off_writer_matches_per_value_reference(tmp_path, monkeypatch, name):
    build, tag = _OFF_MESHES[name]
    mesh = build()
    path = tmp_path / "mesh.off"
    save_off(mesh, path)
    assert path.read_bytes() == _reference_off(mesh).encode()
    if tag is not None:
        path.write_text(_reference_off(mesh, tag))
    # every file save_off writes, or wrote with a tag line, loads without
    # the error namer
    monkeypatch.setattr(mesh_module, "_name_refused_line", _namer_refused)
    back = load_off(path)
    assert back.ambient == mesh.ambient
    assert back.vertices.dtype == np.float64 and back.faces.dtype == np.int64
    assert back.vertices.tobytes() == mesh.vertices.tobytes()  # -0.0 keeps its sign
    assert back.faces.tobytes() == mesh.faces.tobytes()


_TETRA_OFF = [
    "OFF", "4 4 0", "1 1 1", "1 -1 -1", "-1 1 -1", "-1 -1 1",
    "3 0 1 2", "3 0 3 1", "3 0 2 3", "3 1 3 2",
]


def _off_error(tmp_path, lines, newline="\n"):
    path = tmp_path / "bad.off"
    path.write_bytes((newline.join(lines) + newline).encode())
    with pytest.raises(ValueError) as exc:
        load_off(path)
    message = str(exc.value)
    assert "\n" not in message
    return message.replace(str(path), "bad.off")


def _edit(lines, replace):
    # replace maps a line number, counted from 1, to the line's new text
    return [replace.get(i, line) for i, line in enumerate(lines, start=1)]


@pytest.mark.parametrize("replace, expected", [
    ({5: "-1 1"}, "bad.off:5: vertex has 2 coordinates, expected 3"),
    ({3: "1 1 1 0"}, "bad.off:4: vertex has 3 coordinates, expected 4"),
    ({6: "-1 -1 0x1"}, "bad.off:6: bad vertex coordinate"),
    ({8: "3 0 3 x"}, "bad.off:8: bad face index"),
    ({8: "3 0 3.0 1"}, "bad.off:8: bad face index"),
    ({8: "3 0 99999999999999999999 1"}, "bad.off:8: bad face index"),
    ({9: "3 0 2"}, "bad.off:9: only triangle faces are supported"),
    ({2: "4 4"}, "bad.off:2: counts line must have three fields"),
    ({2: "4 four 0"}, "bad.off:2: bad counts line"),
    ({2: "4.0 4 0"}, "bad.off:2: bad counts line"),
    ({2: "-4 4 0"}, "bad.off:2: bad counts line"),
    ({2: "4 5 0"}, "bad.off: expected 4 vertices and 5 faces"),
    # the first malformed line is named, whatever is wrong with it
    ({4: "1 nope -1", 5: "-1 1"}, "bad.off:4: bad vertex coordinate"),
    ({4: "1 -1", 5: "-1 nope -1"}, "bad.off:4: vertex has 2 coordinates, expected 3"),
    ({6: "-1 -1 x", 7: "3 0 1"}, "bad.off:6: bad vertex coordinate"),
    ({8: "3.0 0 3 1"}, "bad.off:8: only triangle faces are supported"),
    ({8: "4 0 3 1"}, "bad.off:8: only triangle faces are supported"),
    # "#" starts a comment wherever it stands: the note is not counted
    ({4: "1 1 1 1 1 # note"}, "bad.off:4: vertex has 5 coordinates, expected 3"),
    # values read as np.loadtxt reads them
    ({3: "1_0 1 1"}, "bad.off:3: bad vertex coordinate"),
    ({4: "1 \u0663 -1"}, "bad.off:4: bad vertex coordinate"),
    ({8: "3 0 3 1_0"}, "bad.off:8: bad face index"),
    ({8: "3 0 \u0663 1"}, "bad.off:8: bad face index"),
    ({8: "0_3 0 3 1"}, "bad.off:8: only triangle faces are supported"),
    ({8: "\u0663 0 3 1"}, "bad.off:8: only triangle faces are supported"),
    # counts no file could hold: a short malformed file names its first
    # malformed line, a short well-formed one what it expected
    ({2: f"{10**20} 4 0", 5: "-1 nope -1"}, "bad.off:5: bad vertex coordinate"),
    ({2: f"4 {10**20} 0", 9: "3 1 x 2"}, "bad.off:9: bad face index"),
    ({2: f"4 {10**20} 0"}, f"bad.off: expected 4 vertices and {10**20} faces"),
])
def test_off_errors_name_the_line(tmp_path, replace, expected):
    assert _off_error(tmp_path, _edit(_TETRA_OFF, replace)) == expected


def test_off_error_lines_are_physical_lines(tmp_path):
    # comments and blank lines between body lines still count
    lines = _TETRA_OFF[:4] + ["# a comment", "", "   "] + _TETRA_OFF[4:]
    assert _off_error(tmp_path, _edit(lines, {11: "3 0 x 1"})) == "bad.off:11: bad face index"
    # a form feed separates fields, not lines
    lines = _edit(_TETRA_OFF, {3: "1\x0c1 1", 8: "3 0 x 1"})
    assert _off_error(tmp_path, lines) == "bad.off:8: bad face index"


def test_off_crlf_file(tmp_path):
    crlf = _edit(_TETRA_OFF, {5: "-1 nope -1"})
    assert _off_error(tmp_path, crlf, newline="\r\n") == "bad.off:5: bad vertex coordinate"
    path = tmp_path / "crlf.off"
    path.write_bytes(("\r\n".join(_TETRA_OFF) + "\r\n").encode())
    mesh = load_off(path)
    verts, faces = _tetrahedron()
    assert np.array_equal(mesh.vertices, verts * np.sqrt(3.0))
    assert np.array_equal(mesh.faces, faces)


def test_off_values_parse_as_float_and_int(tmp_path):
    # as np.loadtxt reads them, with "#" starting a comment mid-line
    path = tmp_path / "spelled.off"
    path.write_text("OFF\n4 4 0\n10 1e1 +10 # note\n10 -1E1 -10.0\n-10 10 -010\n-10 -10 10#\n"
                    "3 0 1 2\n3 0 3 1 # 4\n3 0 +2 03\n3 1 3 2\n")
    mesh = load_off(path)
    verts, faces = _tetrahedron()
    assert np.array_equal(mesh.vertices, verts * 10 * np.sqrt(3.0))
    assert np.array_equal(mesh.faces, faces)


@pytest.mark.parametrize("comment", [False, True])
def test_off_face_count_reads_as_int(tmp_path, monkeypatch, comment):
    # "+3" and "03" are triangles, with or without a comment line inside
    # the vertex block, and neither file needs the error namer
    lines = _edit(_TETRA_OFF, {7: "+3 0 1 2", 8: "03 0 3 1"})
    if comment:
        lines.insert(4, "# inside the vertex block")
    monkeypatch.setattr(mesh_module, "_name_refused_line", _namer_refused)
    path = tmp_path / "counts.off"
    path.write_text("\n".join(lines) + "\n")
    mesh = load_off(path)
    verts, faces = _tetrahedron()
    assert np.array_equal(mesh.vertices, verts * np.sqrt(3.0))
    assert np.array_equal(mesh.faces, faces)


def test_off_from_the_tagging_writer_reads_its_tag_off_the_coordinates():
    # written by save_off when it still put "# ambient unit_sphere 3" after "OFF"
    path = os.path.join(os.path.dirname(__file__), "data", "icosphere1_ambient_comment.off")
    with open(path) as fh:
        assert fh.read().splitlines()[1] == "# ambient unit_sphere 3"
    back, sphere = load_off(path), icosphere(1)
    assert back.ambient == "unit_sphere"
    assert back.vertices.tobytes() == sphere.vertices.tobytes()
    assert back.faces.tobytes() == sphere.faces.tobytes()


def test_off_ambient_comment_after_counts_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setattr(mesh_module, "_name_refused_line", _namer_refused)
    verts, faces = _tetrahedron()
    for at in (2, 4, 8, 10):  # after the counts line, inside each block, after the faces
        lines = list(_TETRA_OFF)
        lines.insert(at, "# ambient unit_sphere three")
        path = tmp_path / "late.off"
        path.write_text("\n".join(lines) + "\n")
        mesh = load_off(path)
        assert mesh.ambient is None
        assert np.array_equal(mesh.vertices, verts * np.sqrt(3.0))
        assert np.array_equal(mesh.faces, faces)


def _icosphere1_off(tmp_path):
    # icosphere(1) as save_off writes it: header, counts, 42 vertex lines,
    # so its first face is line 45
    mesh = icosphere(1)
    path = tmp_path / "plain.off"
    save_off(mesh, path)
    return load_off(path), path.read_text().splitlines(keepends=True)


def _same_mesh(a, b):
    return a.vertices.tobytes() == b.vertices.tobytes() and a.faces.tobytes() == b.faces.tobytes()


def test_off_header_and_counts_lines_take_trailing_comments(tmp_path, monkeypatch):
    plain, lines = _icosphere1_off(tmp_path)
    lines[0], lines[1] = "OFF # from tool\n", lines[1].rstrip() + "\t# counts\n"
    path = tmp_path / "commented.off"
    path.write_text("".join(lines))
    monkeypatch.setattr(mesh_module, "_name_refused_line", _namer_refused)
    assert _same_mesh(load_off(path), plain)
    monkeypatch.undo()
    lines[44] = "3 0 x 1\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:45: bad face index$"):
        load_off(path)


def test_off_byte_order_mark_is_skipped(tmp_path):
    plain, lines = _icosphere1_off(tmp_path)
    path = tmp_path / "bom.off"
    path.write_bytes(b"\xef\xbb\xbf" + "".join(lines).encode())
    assert _same_mesh(load_off(path), plain)
    # the mark does not shift the numbers of refused lines
    lines[44] = "4 0 1 2 3\n"
    path.write_bytes(b"\xef\xbb\xbf" + "".join(lines).encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:45: only triangle faces"):
        load_off(path)


def test_off_io_logs_one_debug_record_each(tmp_path, caplog, sphere3):
    path = tmp_path / "sphere.off"
    save_off(sphere3, path)
    load_off(path)
    assert not [r for r in caplog.records if r.name == "eigenvol.mesh"]  # silent by default
    with caplog.at_level(logging.DEBUG, logger="eigenvol.mesh"):
        save_off(sphere3, path)
        load_off(path)
    records = [r for r in caplog.records if r.name == "eigenvol.mesh"]
    assert [r.args["action"] for r in records] == ["wrote", "read"]
    for r in records:
        assert r.levelno == logging.DEBUG
        assert (r.args["path"], r.args["vertices"], r.args["faces"]) == (
            str(path), sphere3.nv, sphere3.nf
        )
        assert 0.0 <= r.args["seconds"] < 60.0


def test_obtuse_mixed_area_is_exact():
    # a flat tetrahedron: the obtuse triangle ABC below, and above it the
    # fan of three triangles around D inside ABC.  Every face is obtuse
    # (ABC at C, the fan at D); an obtuse corner gets half of its face,
    # each acute corner a quarter
    verts = np.array(
        [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [2.0, 0.5, 0.0], [2.0, 0.25, 0.0]]
    )
    faces = np.array([[0, 2, 1], [3, 0, 1], [3, 1, 2], [3, 2, 0]])
    mesh = TriangleMesh(verts, faces)
    abc, dab, dbc, dca = mesh.face_areas
    areas = mesh.vertex_areas
    assert areas[0] == pytest.approx((abc + dab + dca) / 4)
    assert areas[1] == pytest.approx((abc + dab + dbc) / 4)
    assert areas[2] == pytest.approx(abc / 2 + (dbc + dca) / 4)
    assert areas[3] == pytest.approx((dab + dbc + dca) / 2)
    assert np.sum(areas) == pytest.approx(mesh.area)


def test_repeated_face_rejected():
    base = icosphere(1)
    # a face repeated on its own vertices, in either orientation, closes
    # up as a pillow, so only this check names the fault
    for extra in ([[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [0, 2, 1]]):
        with pytest.raises(ValueError, match="face 81 repeats the vertices of face 80"):
            TriangleMesh(base.vertices, np.vstack([base.faces, extra]))
    faces = np.vstack([base.faces, base.faces[5, [2, 0, 1]]])
    with pytest.raises(ValueError, match="face 80 repeats the vertices of face 5"):
        TriangleMesh(base.vertices, faces)
    with pytest.raises(ValueError, match="face 1 repeats the vertices of face 0"):
        TriangleMesh(np.eye(3), [[0, 1, 2], [0, 2, 1]])


def test_off_with_repeated_face_rejected(tmp_path):
    path = tmp_path / "repeat.off"
    path.write_text(
        "OFF\n4 5 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n3 2 1 0\n"
    )
    with pytest.raises(ValueError, match="face 4 repeats the vertices of face 0"):
        load_off(path)


@pytest.mark.parametrize("ambient", [None, "unit_sphere"])
def test_non_finite_coordinates_rejected(ambient):
    # the tag the other vertices would read: off or on the unit sphere
    verts, faces = _tetrahedron()
    if ambient is None:
        verts = verts / np.sqrt(3.0)
    verts[1, 2] = np.nan
    with pytest.raises(ValueError, match="vertex 1 has a non-finite coordinate"):
        TriangleMesh(verts, faces)
    verts[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        TriangleMesh(verts, faces)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_abstract_edge_lengths_must_be_positive_and_finite(bad):
    faces = _tetrahedron()[1]
    lengths = np.ones(6)
    lengths[5] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        TriangleMesh(None, faces, edge_lengths=lengths)


def test_overflowing_metric_rejected():
    verts, faces = _tetrahedron()
    # edges of 1e300 overflow to inf; edges of 1e100 are finite, but the
    # area product overflows once edges pass about 1e77
    with pytest.raises(ValueError, match="^face 0 has an edge length that is not finite$"):
        TriangleMesh(verts * 1e300, faces)
    with pytest.raises(ValueError, match="^face 0 has an area that is not finite$"):
        TriangleMesh(verts * 1e100, faces)
    with pytest.raises(ValueError, match="^face 0 has an area that is not finite$"):
        TriangleMesh(None, faces, edge_lengths=np.full(6, 1e100))
    assert np.isfinite(TriangleMesh(verts * 1e70, faces).area)


def test_underflowing_area_rejected():
    # edges of 1e-160 are positive, but the area product underflows to
    # zero, and the cotangent weights would divide by it
    sphere = icosphere(2)
    with pytest.raises(ValueError, match="^face 0 has zero area$"):
        TriangleMesh(sphere.vertices * 1e-160, sphere.faces)
    with pytest.raises(ValueError, match="^face 0 has zero area$"):
        flat_torus(1e-300, 1e-300, 8)
    assert TriangleMesh(sphere.vertices * 1e-70, sphere.faces).area > 0.0


def test_off_with_overflowing_edges_rejected(tmp_path):
    path = tmp_path / "huge.off"
    path.write_text(
        "OFF\n4 4 0\n1e300 1e300 1e300\n1e300 -1e300 -1e300\n-1e300 1e300 -1e300\n"
        "-1e300 -1e300 1e300\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    with pytest.raises(ValueError, match="face 0 has an edge length that is not finite"):
        load_off(path)


def test_off_with_nan_coordinate_rejected(tmp_path):
    path = tmp_path / "nan.off"
    path.write_text(
        "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 nan 1\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    with pytest.raises(ValueError, match="vertex 3 has a non-finite coordinate"):
        load_off(path)


def test_orientability_survives_reversed_faces():
    # the double cover splits however the faces are oriented
    mesh = icosphere(2)
    faces = mesh.faces.copy()
    faces[::3] = faces[::3, ::-1]
    assert TriangleMesh(mesh.vertices, faces).orientable


def _two_octahedra():
    # two octahedra on the same poles, the second's equator turned by 45 degrees
    s = np.sqrt(0.5)
    verts = np.array([
        [0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0],
        [s, s, 0], [-s, s, 0], [-s, -s, 0], [s, -s, 0],
    ], dtype=float)
    faces = []
    for ring in ([2, 3, 4, 5], [6, 7, 8, 9]):
        for u, w in zip(ring, ring[1:] + ring[:1]):
            faces += [[0, u, w], [1, w, u]]
    return verts, np.array(faces)


def _two_tetrahedra():
    # two tetrahedra sharing vertex 0, the second the first's reflection through it
    verts, faces = _tetrahedron()
    verts = np.vstack([verts, 2.0 * verts[0] - verts[1:]])
    return verts, np.vstack([faces, np.where(faces == 0, 0, faces + 3)])


@pytest.mark.parametrize("build, chi", [(_two_octahedra, 2), (_two_tetrahedra, 3)])
def test_vertex_with_two_fans_is_refused_when_topology_is_read(build, chi):
    mesh = TriangleMesh(*build())  # each edge lies in two faces: it builds
    assert mesh.euler_characteristic == chi
    for read in ("orientable", "genus"):
        with pytest.raises(ValueError, match="^the faces about vertex 0 form 2 fans, not one$"):
            getattr(mesh, read)


def test_sphere_vertices_follow_the_unit_sphere_rule():
    verts, faces = _tetrahedron()
    assert TriangleMesh(verts * (1.0 + 5e-13), faces).ambient == "unit_sphere"
    outside = TriangleMesh(verts * (1.0 + 2e-12), faces)
    assert outside.ambient is None
    with pytest.raises(ValueError, match=r"^point not on the unit sphere \(\|norm - 1\| = 2\.0"):
        SphereImmersion.identity(outside)


def _bad_mesh(vertices=None, faces=None, **kwargs):
    verts, tetra = _tetrahedron()
    return TriangleMesh(verts if vertices is None else vertices,
                        tetra if faces is None else faces, **kwargs)


@pytest.mark.parametrize("make, message", [
    (lambda: _bad_mesh(faces=np.zeros((2, 4))), r"faces must have shape \(nf, 3\), got \(2, 4\)"),
    (lambda: _bad_mesh(edge_lengths=np.ones(6)), "edge_lengths is only for abstract meshes"),
    (lambda: _bad_mesh(vertices=np.ones(4)), r"vertices must have shape \(nv, d\)"),
    (lambda: TriangleMesh(None, _tetrahedron()[1], edge_lengths=np.ones(5)),
     r"edge_lengths must have shape \(6,\), one per edge, got \(5,\)"),
    (lambda: _bad_mesh(faces=np.zeros((0, 3))), "mesh has no faces"),
    # fractional indices were truncated to the same mesh, strings parsed
    (lambda: _bad_mesh(faces=_tetrahedron()[1] + 0.5), "faces must be vertex indices, got dtype float64"),
    (lambda: _bad_mesh(faces=_tetrahedron()[1].astype(str)), "faces must be vertex indices, got dtype <U21"),
    (lambda: _bad_mesh(faces=_tetrahedron()[1] > 0), "faces must be vertex indices, got dtype bool"),
    (lambda: mean_curvature(_bad_mesh(vertices=2.0 * _tetrahedron()[0]), component="sphere"),
     'component="sphere" requires unit_sphere ambient'),
    (lambda: mean_curvature(_bad_mesh(), component="normal"), "unknown component 'normal'"),
])
def test_mesh_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda: _bad_mesh(vertices=_tetrahedron()[0] + 0.3j), "vertices"),
    (lambda: TriangleMesh(None, _tetrahedron()[1], edge_lengths=np.ones(6) + 0j), "edge_lengths"),
    (lambda: SphereImmersion(icosphere(1), icosphere(1).vertices + 0.3j), "images"),
    (lambda: DiscreteMeasure(np.eye(3) + 0j, np.ones(3)), "measure points"),
    (lambda: DiscreteMeasure(np.eye(3), [1.0, 1.0, 1.0 + 1e-3j]), "measure weights"),
    (lambda: vertex_values(icosphere(1), 2.0 + 0.5j, "potential", nonnegative=False), "potential"),
    (lambda: negative_count(icosphere(1), np.full(42, 1.0 + 0j)), "potential"),
])
def test_complex_input_is_refused_at_every_entry_point(make, name):
    # numpy dropped the imaginary part with no more than a ComplexWarning
    with pytest.raises(ValueError, match=f"^{name} must be real, got complex values$"):
        make()


def test_off_without_counts_line_is_refused(tmp_path):
    assert _off_error(tmp_path, ["OFF", "# nothing else"]) == "bad.off: missing counts line"
