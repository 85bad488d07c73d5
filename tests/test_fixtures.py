from __future__ import annotations

import numpy as np
import pytest

from eigenvol import fixtures
from eigenvol.fixtures import (
    _veronese_map,
    clifford_torus,
    flat_torus,
    flat_torus_spectrum,
    icosphere,
    revolution_torus,
    veronese,
)
from eigenvol.mesh import mean_curvature
from eigenvol.spectral import eigensolve


def test_icosphere_counts():
    for level in range(4):
        mesh = icosphere(level)
        assert mesh.nv == 10 * 4**level + 2
        assert mesh.nf == 20 * 4**level
        assert mesh.euler_characteristic == 2


def test_icosphere_antipodal_symmetry_is_exact():
    mesh = icosphere(3)
    canon = {(v + 0.0).tobytes() for v in mesh.vertices}
    for v in mesh.vertices:
        assert (-v + 0.0).tobytes() in canon


def test_icosphere_deterministic():
    a, b = icosphere(2), icosphere(2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def test_icosphere_area_converges():
    areas = [icosphere(level).area for level in (2, 3, 4)]
    errs = [abs(a - 4 * np.pi) for a in areas]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] / errs[1] == pytest.approx(0.25, abs=0.05)


def test_grid_faces_split_each_cell_in_row_major_order():
    n = 8
    vid = lambda i, j: (i % n) * n + (j % n)
    expected = []
    for i in range(n):
        for j in range(n):
            expected.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            expected.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    for mesh in (flat_torus(1.0, 2.0, n), clifford_torus(n), revolution_torus(3.0, 1.0, n)):
        assert mesh.faces.dtype == np.int64
        assert mesh.faces.tolist() == expected


def test_flat_torus_matches_exact_stencil_spectrum():
    n = 16
    mesh = flat_torus(2 * np.pi, 2 * np.pi, n)
    res = eigensolve(mesh, 12)
    exact = flat_torus_spectrum(2 * np.pi, 2 * np.pi, n, 12)
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-10


def test_flat_torus_anisotropic():
    mesh = flat_torus(2 * np.pi, 4 * np.pi, 12)
    assert mesh.area == pytest.approx(8 * np.pi**2, rel=1e-12)
    res = eigensolve(mesh, 4)
    exact = flat_torus_spectrum(2 * np.pi, 4 * np.pi, 12, 4)
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-10


def test_flat_torus_first_eigenvalue_near_continuum():
    mesh = flat_torus(2 * np.pi, 2 * np.pi, 48)
    res = eigensolve(mesh, 5)
    lam1 = res.eigenvalues[1]
    assert lam1 == pytest.approx(1.0, rel=0.0015)
    assert np.ptp(res.eigenvalues[1:5]) < 1e-9  # multiplicity four


def test_clifford_torus_geometry(clifford32, clifford32_spec):
    assert clifford32.euler_characteristic == 0
    assert clifford32.area == pytest.approx(2 * np.pi**2, rel=0.01)
    lam = clifford32_spec.eigenvalues
    assert lam[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(lam[1:5], 2.0, rtol=0.01)
    assert lam[5] > 3.5


def test_clifford_torus_is_minimal_in_sphere(clifford32):
    # tangential (in-sphere) mean curvature vanishes for a minimal surface
    H_sphere = mean_curvature(clifford32, component="sphere")
    H_amb = mean_curvature(clifford32, component="ambient")
    assert np.max(np.linalg.norm(H_sphere, axis=1)) < 0.02
    # ambient curvature is the unit normal of S^3 scaled by 1
    assert np.linalg.norm(H_amb, axis=1) == pytest.approx(1.0, abs=0.02)


def test_revolution_torus_mean_curvature_pointwise():
    R, r, n = np.sqrt(2.0), 1.0, 48
    mesh = revolution_torus(R, r, n)
    H = np.linalg.norm(mean_curvature(mesh), axis=1)
    theta = 2 * np.pi * (np.arange(mesh.nv) // n) / n
    expect = 0.5 * np.abs(1.0 / r + np.cos(theta) / (R + r * np.cos(theta)))
    assert np.max(np.abs(H - expect)) < 0.01


def test_revolution_torus_area():
    R, r = 3.0, 1.0
    mesh = revolution_torus(R, r, 64)
    assert mesh.area == pytest.approx(4 * np.pi**2 * R * r, rel=0.005)


def test_veronese_topology_and_metric():
    v = veronese(3)
    assert v.nv == 5 * 4**3 + 1
    assert v.nf == 10 * 4**3
    assert v.euler_characteristic == 1
    assert not v.orientable
    assert v.area == pytest.approx(6 * np.pi, rel=0.015)


def test_veronese_first_eigenvalue():
    res = eigensolve(veronese(3), 8)
    lam = res.eigenvalues
    assert lam[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(lam[1:6], 2.0, rtol=0.01)  # multiplicity five
    assert lam[6] > 5.0


def test_veronese_rejects_coarse_level():
    with pytest.raises(ValueError):
        veronese(1)


def test_fixture_input_validation():
    with pytest.raises(ValueError):
        flat_torus(n=2)
    with pytest.raises(ValueError):
        revolution_torus(1.0, 2.0)
    with pytest.raises(ValueError):
        icosphere(-1)


@pytest.mark.parametrize("make, message", [
    (lambda: flat_torus(0.0, 1.0, 8), "torus side lengths must be positive"),
    (lambda: clifford_torus(7), "n must be an integer >= 8, got 7"),
    (lambda: revolution_torus(2.0, 1.0, 7), "n must be an integer >= 8, got 7"),
])
def test_fixture_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_icosphere_past_the_memory_is_refused_before_it_is_built(monkeypatch):
    # level 30 ended in the OOM killer; its vertex and face arrays alone take
    # 24 (30 * 4^30 + 2) bytes, and nothing is subdivided to find that out
    def never_built():
        raise AssertionError("the icosphere was built before its size was checked")

    monkeypatch.setattr(fixtures, "_icosahedron", never_built)
    with pytest.raises(ValueError, match=rf"^icosphere level 30 needs at least "
                       rf"{24 * (30 * 4**30 + 2)} bytes, more than the \d+ bytes of physical memory$"):
        icosphere(30)


@pytest.mark.parametrize("level", [2, 3])
def test_veronese_identifies_exactly_the_antipodal_pairs(level):
    # against a pairing that searches each vertex's negation directly
    sphere, rp2 = icosphere(level), veronese(level)
    verts = sphere.vertices
    antipode = np.array([np.flatnonzero(np.all(verts == -v, axis=1))[0] for v in verts])
    lead = verts[np.arange(len(verts)), np.argmax(np.abs(verts) > 1e-9, axis=1)]
    rep = np.where(lead > 0, np.arange(len(verts)), antipode)
    reps, new_id = np.unique(rep, return_inverse=True)
    faces = new_id[rep[sphere.faces]]
    _, first = np.unique(np.sort(faces, axis=1), axis=0, return_index=True)
    assert np.array_equal(rp2.faces, faces[np.sort(first)])
    images = _veronese_map(verts[reps])
    assert np.array_equal(rp2.vertices, images / np.linalg.norm(images, axis=1, keepdims=True))
