from __future__ import annotations

import numpy as np
import pytest

from eigenvol import spectral
from eigenvol.fixtures import clifford_torus, flat_torus, flat_torus_spectrum, icosphere
from eigenvol.spectral import (
    DENSE_CUTOFF,
    assemble_laplacian,
    eigensolve,
    negative_count,
    stability_index,
    weyl_fit,
)


def test_sphere_spectrum_multiplicities(sphere3_spec):
    lam = sphere3_spec.eigenvalues
    assert sphere3_spec.num_zero == 1
    nz = sphere3_spec.nonzero()
    assert np.allclose(nz[0:3], 2.0, rtol=0.01)
    assert np.allclose(nz[3:8], 6.0, rtol=0.01)
    assert np.allclose(nz[8:15], 12.0, rtol=0.02)


def test_residuals_are_tiny(sphere3_spec, clifford32_spec):
    assert sphere3_spec.max_residual < 1e-9
    assert clifford32_spec.max_residual < 1e-9


def test_eigenvectors_mass_orthonormal(sphere3, sphere3_spec):
    areas = sphere3.vertex_areas
    V = sphere3_spec.eigenvectors
    G = V.T @ (areas[:, None] * V)
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-8


def test_arpack_path_matches_exact_spectrum():
    n = 40  # 1600 vertices, above the dense cutoff
    mesh = flat_torus(2 * np.pi, 2 * np.pi, n)
    assert mesh.nv > DENSE_CUTOFF
    res = eigensolve(mesh, 10, seed=1)
    assert res.method == "arpack"
    exact = flat_torus_spectrum(2 * np.pi, 2 * np.pi, n, 10)
    assert np.max(np.abs(res.eigenvalues - exact)) < 1e-8
    assert res.max_residual < 1e-8


def test_dense_path_used_below_cutoff(sphere3_spec):
    assert sphere3_spec.method == "dense"


def test_operator_pair_rayleigh(sphere3):
    ops = assemble_laplacian(sphere3)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(sphere3.nv)
    # Rayleigh quotient of anything is at least the first eigenvalue (0)
    assert ops.rayleigh(u) >= 0
    x = sphere3.vertices[:, 0]
    assert ops.rayleigh(x - np.sum(ops.areas * x) / ops.areas.sum()) == pytest.approx(
        2.0, rel=0.01
    )


def test_negative_count_constant_potentials(sphere3):
    # spectrum 0, 2, 2, 2, 6, ...: V=1 leaves one negative, V=2.5 leaves four
    assert negative_count(sphere3, 1.0).count == 1
    assert negative_count(sphere3, 2.5).count == 4
    assert negative_count(sphere3, 0.0).count == 0
    res = negative_count(sphere3, -5.0)
    assert res.count == 0 and res.boundary_count == 0


def test_negative_count_boundary_band(sphere3):
    # V exactly at an eigenvalue: the shifted modes are near zero and must
    # be reported as boundary modes, not silently counted
    res = negative_count(sphere3, 2.0, tol=1e-3)
    assert res.count == 1
    assert res.boundary_count == 3
    assert res.boundary_flag


def test_negative_count_monotone_in_potential(sphere3):
    rng = np.random.default_rng(3)
    ops = assemble_laplacian(sphere3)
    V = 3.0 * rng.random(sphere3.nv)
    bigger = V + 2.0 * rng.random(sphere3.nv)
    assert negative_count(ops, V).count <= negative_count(ops, bigger).count


def test_negative_count_iterative_path():
    mesh = flat_torus(2 * np.pi, 2 * np.pi, 40)
    res = negative_count(mesh, 1.5, tol=1e-6, seed=4)
    # discrete torus spectrum below 1.5: 0 and the four modes at ~0.9986
    assert res.count == 5
    assert res.method == "arpack"


def test_negative_count_starts_at_the_weyl_estimate(monkeypatch):
    # 97 eigenvalues lie below 61 on the 48-grid Clifford torus; the start
    # k = ceil(1.25 * 61 * 2 pi^2 / (4 pi)) + 8 = 128 covers them at once
    solves = []
    eigsh = spectral.eigsh

    def counting(*args, **kwargs):
        solves.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counting)
    res = negative_count(clifford_torus(48), 61.0)
    assert res.method == "arpack"
    assert res.count == 97
    assert solves == [128]


def test_stability_index_round_sphere(sphere3):
    # totally geodesic equator sphere: Jacobi operator Delta - 2,
    # one negative mode, three zero modes from rotations
    res = stability_index(sphere3, 0.0)
    assert res.count == 1
    assert res.boundary_count == 3


def test_stability_index_clifford(clifford32):
    # |A|^2 = 2 on the Clifford torus: index 5, nullity 4 at this scale
    res = stability_index(clifford32, 2.0)
    assert res.count == 5
    assert res.boundary_count == 4


def test_weyl_fit_flat_torus(torus48, torus48_spec):
    fit = weyl_fit(torus48_spec.eigenvalues, torus48.area, k_range=(20, 60))
    assert fit.target == pytest.approx(4 * np.pi)
    assert fit.relative_error < 0.10


def test_weyl_fit_sphere(sphere4, sphere4_spec):
    fit = weyl_fit(sphere4_spec.eigenvalues, sphere4.area, k_range=(20, 60))
    assert fit.relative_error < 0.10


def test_weyl_fit_range_validation(sphere3_spec):
    with pytest.raises(ValueError):
        weyl_fit(sphere3_spec.eigenvalues, 4 * np.pi, k_range=(20, 60))


def test_eigensolve_count_validation(sphere3):
    with pytest.raises(ValueError):
        eigensolve(sphere3, 0)


def test_eigensolve_every_pair_past_the_cutoff(monkeypatch):
    # ARPACK cannot return all n pairs; such requests take the dense path
    mesh = icosphere(2)  # 162 vertices
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 100)
    res = eigensolve(mesh, count=mesh.nv)
    assert res.method == "dense"
    assert res.eigenvalues.shape == (mesh.nv,)
    assert res.max_residual < 1e-9
    assert eigensolve(mesh, count=9).method == "arpack"


def test_spectrum_head_is_the_smaller_solve(sphere3, sphere3_spec):
    head = sphere3_spec.head(8)
    direct = eigensolve(sphere3, 8)
    assert np.array_equal(head.eigenvalues, direct.eigenvalues)
    assert np.array_equal(head.eigenvectors, direct.eigenvectors)
    assert np.array_equal(head.residuals, direct.residuals)
    assert head.zero_tol == direct.zero_tol and head.method == direct.method
