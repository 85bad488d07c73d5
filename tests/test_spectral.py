from __future__ import annotations

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, eigvalsh, subspace_angles
from scipy.sparse.linalg import ArpackNoConvergence

import eigenvol
from eigenvol import spectral
from eigenvol.fixtures import (
    clifford_torus,
    flat_torus,
    flat_torus_spectrum,
    icosphere,
    veronese,
)
from eigenvol.spectral import (
    DENSE_CUTOFF,
    SolverError,
    assemble_laplacian,
    eigensolve,
    negative_count,
    rayleigh,
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


def test_pencil_rayleigh(sphere3):
    K, areas = assemble_laplacian(sphere3)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(sphere3.nv)
    # Rayleigh quotient of anything is at least the first eigenvalue (0)
    assert (u @ (K @ u)) / np.sum(areas * u * u) >= 0
    x = sphere3.vertices[:, 0]
    x = x - np.sum(areas * x) / areas.sum()
    assert (x @ (K @ x)) / np.sum(areas * x * x) == pytest.approx(2.0, rel=0.01)


@pytest.mark.parametrize("strided", [True, False])
@pytest.mark.parametrize("per_vertex", [False, True])
def test_rayleigh_is_each_rows_energy_and_mass_bit_for_bit(clifford32, strided, per_vertex):
    K, m = clifford32.stiffness, clifford32.vertex_areas
    rng = np.random.default_rng(5)
    # a transposed (nv, 4) array has strided rows
    U = clifford32.vertices.T if strided else rng.standard_normal((3, clifford32.nv))
    assert U.flags.c_contiguous != strided
    w = rng.uniform(0.5, 4.0, clifford32.nv) if per_vertex else 2.5
    energies, masses = rayleigh(clifford32, U, w)
    assert np.array_equal(energies, [u @ (K @ u) for u in U])
    assert np.array_equal(masses, [np.sum(m * w * u * u) for u in U])
    assert np.array_equal(rayleigh(clifford32, U)[1], [np.sum(m * u * u) for u in U])


def test_rayleigh_of_eigenpairs_is_the_eigenvalue(sphere3_spec, clifford32_spec):
    for spec in (sphere3_spec, clifford32_spec):
        energies, masses = rayleigh(spec.mesh, spec.eigenvectors.T)
        lam = spec.eigenvalues
        assert np.all(np.abs(energies / masses - lam) <= 1e-12 * np.maximum(lam, 1.0))


def test_rayleigh_and_arpack_bits_do_not_depend_on_the_blas_thread_count():
    # icosphere(5)'s rows are past the length where OpenBLAS threads a dot,
    # and clifford_torus(36) (1296 vertices) is solved by ARPACK
    code = (
        "import numpy as np\n"
        "from eigenvol import clifford_torus, eigensolve, icosphere\n"
        "from eigenvol.spectral import rayleigh\n"
        "mesh = icosphere(5)\n"
        "U = np.random.default_rng(3).standard_normal((3, mesh.nv))\n"
        "print(rayleigh(mesh, U)[0].tobytes().hex())\n"
        "spec = eigensolve(clifford_torus(36), count=9)\n"
        "print(spec.method, spec.eigenvalues.tobytes().hex(), spec.residuals.tobytes().hex())\n"
    )
    src = os.path.dirname(os.path.dirname(eigenvol.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    (one, _), (two, _) = (run.communicate() for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert two.split()[1] == "arpack"
    assert one == two


class _FakeBLAS:
    """A thread count with a getter and a setter, as an OpenBLAS build has."""

    def __init__(self, name, threads, settable=True):
        self.threads, self.seen = threads, []
        self.build = spectral._OpenBLAS(name, lambda: self.threads,
                                        self.set if settable else None)

    def set(self, count):
        self.seen.append(count)
        self.threads = count


def _fake_builds(monkeypatch, *fakes):
    monkeypatch.setattr(spectral, "_openblas", lambda: tuple(f.build for f in fakes))


def test_one_blas_thread_pins_every_settable_build_and_restores_it(monkeypatch):
    a, b = _FakeBLAS("liba.so", 2), _FakeBLAS("libb.so", 4)
    _fake_builds(monkeypatch, a, b)
    with spectral.one_blas_thread():
        assert (a.threads, b.threads) == (1, 1)
        with spectral.one_blas_thread():  # nested: the inner block restores one
            assert (a.threads, b.threads) == (1, 1)
        assert (a.threads, b.threads) == (1, 1)
    assert (a.threads, b.threads) == (2, 4)
    assert [d["threads"] for d in spectral.blas_threads()] == [2, 4]


def test_one_blas_thread_restores_the_counts_when_the_block_raises(monkeypatch):
    a = _FakeBLAS("liba.so", 3)
    _fake_builds(monkeypatch, a)
    with pytest.raises(KeyError):
        with spectral.one_blas_thread():
            raise KeyError("inside")
    assert a.threads == 3 and a.seen == [1, 3]


def test_one_blas_thread_is_a_no_op_without_a_setter(monkeypatch):
    a = _FakeBLAS("liba.so", 2, settable=False)
    _fake_builds(monkeypatch, a)
    with spectral.one_blas_thread():
        assert a.threads == 2
    assert a.seen == []
    assert spectral.blas_threads() == [{"library": "liba.so", "threads": 2, "settable": False}]
    _fake_builds(monkeypatch)  # nothing found at all
    with spectral.one_blas_thread():
        pass
    assert spectral.blas_threads() == []


def test_no_openblas_is_found_without_proc(monkeypatch):
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    # the module's own open shadows the builtin; the cache is emptied so
    # that the builds are looked up again, and the real cache comes back
    monkeypatch.setattr(spectral, "open", no_proc, raising=False)
    monkeypatch.setattr(spectral, "_openblas_found", {})
    assert spectral._find_openblas() == ()
    assert spectral.blas_threads() == []
    with spectral.one_blas_thread():
        pass


def test_arpack_runs_with_every_settable_build_at_one_thread(monkeypatch, clifford32):
    import scipy.sparse.linalg

    during = []

    def eigsh(*args, **kwargs):
        during.append([d["threads"] for d in spectral.blas_threads() if d["settable"]])
        return real(*args, **kwargs)

    real = scipy.sparse.linalg.eigsh
    before = spectral.blas_threads()
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh)
    monkeypatch.setattr(spectral, "DENSE_CUTOFF", 100)
    assert eigensolve(clifford32, count=4).method == "arpack"
    assert during == [[1] * len(during[0])]
    assert spectral.blas_threads() == before


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
    assert res.boundary_count > 0


def test_negative_count_monotone_in_potential(sphere3):
    rng = np.random.default_rng(3)
    V = 3.0 * rng.random(sphere3.nv)
    bigger = V + 2.0 * rng.random(sphere3.nv)
    assert negative_count(sphere3, V).count <= negative_count(sphere3, bigger).count


def test_negative_count_past_the_dense_cutoff():
    mesh = flat_torus(2 * np.pi, 2 * np.pi, 40)
    assert mesh.nv > DENSE_CUTOFF
    res = negative_count(mesh, 1.5, tol=1e-6)
    # discrete torus spectrum below 1.5: 0 and the four modes at ~0.9986
    assert res.count == 5
    assert res.method == "inertia"


def test_negative_count_calls_no_eigensolver(monkeypatch):
    # 97 eigenvalues lie below 61 on the 48-grid Clifford torus
    def refuse(*args, **kwargs):
        raise AssertionError("negative_count must not solve for eigenvalues")

    monkeypatch.setattr(spectral, "eigh", refuse)
    monkeypatch.setattr(spectral, "eigsh", refuse)
    res = negative_count(clifford_torus(48), 61.0)
    assert res.count == 97
    assert res.boundary_count == 0


@pytest.mark.parametrize("kwargs", [
    {"potential": 1.0, "tol": float("nan")},
    {"potential": 1.0, "tol": float("inf")},
    {"potential": 1.0, "tol": -1e-9},
    {"potential": float("nan")},
    {"potential": float("inf")},
])
def test_negative_count_rejects_non_finite_input(sphere3, kwargs):
    with pytest.raises(ValueError):
        negative_count(sphere3, **kwargs)


def test_negative_count_rejects_a_nonsymmetric_elimination(sphere3, monkeypatch):
    class Swapped:
        perm_c = np.arange(sphere3.nv)
        perm_r = np.roll(perm_c, 1)

    monkeypatch.setattr(spectral, "splu", lambda *args, **kwargs: Swapped())
    with pytest.raises(SolverError, match="pivoted off the diagonal"):
        negative_count(sphere3, 1.0)


def test_negative_count_singular_factor_is_a_solver_error(sphere3, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spectral, "splu", singular)
    with pytest.raises(SolverError, match="exactly singular"):
        negative_count(sphere3, 1.0)


_REFERENCE_MESHES = {
    "icosphere2": lambda: icosphere(2),
    "icosphere3": lambda: icosphere(3),
    "clifford16": lambda: clifford_torus(16),
    "veronese2": lambda: veronese(2),
}


@functools.lru_cache(maxsize=None)
def _reference_pencil(name):
    """A mesh and its symmetrised M^{-1/2} K M^{-1/2}, dense."""
    mesh = _REFERENCE_MESHES[name]()
    K, areas = assemble_laplacian(mesh)
    w = 1.0 / np.sqrt(areas)
    A = w[:, None] * K.toarray() * w[None, :]
    return mesh, 0.5 * (A + A.T)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_REFERENCE_MESHES)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 80.0),
    band=st.sampled_from(["1e-9", "1e-3", "stability"]),
)
def test_negative_count_matches_a_dense_spectrum(name, seed, scale, band):
    mesh, A = _reference_pencil(name)
    V = scale * np.random.default_rng(seed).random(mesh.nv)
    tol = 0.02 * (1.0 + V.max()) if band == "stability" else float(band)
    # M^{-1/2} (K - M V) M^{-1/2} = M^{-1/2} K M^{-1/2} - diag(V)
    lam = eigvalsh(A - np.diag(V))
    res = negative_count(mesh, V, tol=tol)
    assert res.count == int(np.sum(lam < -tol))
    assert res.boundary_count == int(np.sum((lam >= -tol) & (lam < tol)))


def test_eigensolve_maps_arpack_failure_to_solver_error(sphere4, monkeypatch):
    lam, vecs = np.array([0.0, 2.0]), np.ones((sphere4.nv, 2))

    def stalls(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", lam, vecs)

    monkeypatch.setattr(spectral, "eigsh", stalls)
    with pytest.raises(SolverError, match="ARPACK converged only 2/5 pairs") as info:
        eigensolve(sphere4, count=5)
    assert info.value.eigenvalues is lam
    assert info.value.eigenvectors is vecs


def test_stability_index_round_sphere(sphere3):
    # totally geodesic equator sphere: Jacobi operator Delta - 2,
    # one negative mode, three zero modes from rotations
    res = stability_index(sphere3, 0.0)
    assert res.count == 1
    assert res.boundary_count == 3


@pytest.mark.parametrize(
    "shape_squared", [-1.0, np.nan, np.inf, np.r_[-1.0, np.zeros(641)]]
)
def test_stability_index_rejects_bad_shape_squared(sphere3, shape_squared):
    # a squared norm is finite and nonnegative; the error names it, not
    # the boundary band derived from it
    with pytest.raises(ValueError, match="^shape_squared must be finite and nonnegative$"):
        stability_index(sphere3, shape_squared)


def test_stability_index_clifford(clifford32):
    # |A|^2 = 2 on the Clifford torus: index 5, nullity 4 at this scale
    res = stability_index(clifford32, 2.0)
    assert res.count == 5
    assert res.boundary_count == 4


def test_weyl_fit_flat_torus(torus48_spec):
    fit = weyl_fit(torus48_spec, k_range=(20, 60))
    assert fit.target == pytest.approx(4 * np.pi)
    # the target is 4 pi^2 / omega_2 with the unit disc's area omega_2 = pi
    # to the bit
    assert fit.target == 4.0 * np.pi**2 / np.pi
    assert fit.relative_error < 0.10


def test_import_leaves_scipy_special_and_optimize_unloaded():
    # scipy.special costs tens of milliseconds at start-up and nothing in
    # the package needs it; scipy.optimize costs about 0.2 s and 15 MB,
    # which is why confvol carries its own BFGS.  SciPy's linear algebra
    # (about 12 MB) loads only when a pencil is solved or counted: meshes,
    # their topology, conformal volume and packings never need it
    code = (
        "import sys, eigenvol, eigenvol.cli\n"
        "from eigenvol import *\n"
        "def loaded(*names):\n"
        "    return sorted(m for m in sys.modules if m.startswith(names))\n"
        "print(loaded('scipy.special', 'scipy.optimize'))\n"
        "mesh = icosphere(2)\n"
        "assert mesh.orientable\n"
        "identity = SphereImmersion.identity(mesh)\n"
        "conformal_volume(identity)\n"
        "gny_decompose(pushforward_measure(identity), 3)\n"
        "print(loaded('scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse.csgraph'))\n"
        "eigensolve(mesh, 4)\n"
        "print('scipy.linalg' in sys.modules)\n"
        "negative_count(mesh, 1.0)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(eigenvol.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "[]", "True", "True"]


def test_weyl_fit_sphere(sphere4_spec):
    fit = weyl_fit(sphere4_spec, k_range=(20, 60))
    assert fit.relative_error < 0.10


def test_weyl_fit_range_validation(sphere3_spec):
    with pytest.raises(ValueError):
        weyl_fit(sphere3_spec, k_range=(20, 60))
    for k_range in ((12, 5), (5, 5)):
        with pytest.raises(ValueError, match=rf"^k_range \({k_range[0]}, {k_range[1]}\) must increase$"):
            weyl_fit(sphere3_spec, k_range=k_range)


def test_spectrum_head_refuses_a_negative_count_and_keeps_every_pair_past_the_end(sphere3_spec):
    # 0, 2.5 and True are among the count readers' cases in test_harness
    with pytest.raises(ValueError, match=r"^count must be an integer >= 1, got -1$"):
        sphere3_spec.head(-1)
    assert sphere3_spec.head(25).eigenvalues.tobytes() == sphere3_spec.eigenvalues.tobytes()


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


def _within(got, want):
    # the tolerance the committed verification report is held to
    return np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + 1e-12)


def test_spectrum_head_is_the_smaller_solve(sphere3, sphere3_spec):
    # a partial LAPACK solve rounds differently for another index range,
    # so the head agrees to rounding, and each eigenspace it holds whole
    # is the same subspace
    head = sphere3_spec.head(8)
    direct = eigensolve(sphere3, 8)
    assert head.zero_tol == direct.zero_tol and head.method == direct.method
    assert head.eigenvalues.shape == direct.eigenvalues.shape == (8,)
    assert head.eigenvectors.shape == direct.eigenvectors.shape == (sphere3.nv, 8)
    assert head.residuals.shape == direct.residuals.shape == (8,)
    assert _within(direct.eigenvalues, head.eigenvalues)
    assert direct.max_residual < 1e-9
    lam = sphere3_spec.eigenvalues
    cuts = np.flatnonzero(np.diff(lam) > 1e-8 * lam[-1]) + 1
    clusters = [c for c in np.split(np.arange(lam.size), cuts) if c[-1] < 8]
    assert [c.size for c in clusters] == [1, 3]
    for c in clusters:
        angles = subspace_angles(head.eigenvectors[:, c], direct.eigenvectors[:, c])
        assert angles.max() < 1e-10


def test_dense_pencil_is_the_symmetrized_matrix_bit_for_bit(fat_torus, monkeypatch):
    # written from K's entries into the one array LAPACK overwrites; the
    # torus's scaled entries differ across the diagonal in the last bit
    K, areas = assemble_laplacian(fat_torus)
    w = 1.0 / np.sqrt(areas)
    A = w[:, None] * K.toarray() * w[None, :]
    assert not np.array_equal(A, A.T)
    seen = []

    def recording_eigh(a, **kwargs):
        seen.append((a.copy(), a.flags.f_contiguous, kwargs))
        return eigh(a, **kwargs)

    monkeypatch.setattr(spectral, "eigh", recording_eigh)
    spectral._dense_pencil(K, areas, 4)
    ((a, fortran, kwargs),) = seen
    assert fortran and kwargs["overwrite_a"]
    assert np.array_equal(a.view(np.int64), (0.5 * (A + A.T)).view(np.int64))


@pytest.mark.parametrize("count", [1, 70, 642])
def test_dense_solve_computes_only_the_requested_pairs(sphere3, count, monkeypatch):
    K, areas = assemble_laplacian(sphere3)
    full = eigh(K.toarray(), np.diag(areas), eigvals_only=True)
    asked = []

    def recording_eigh(A, **kwargs):
        asked.append(kwargs["subset_by_index"])
        return eigh(A, **kwargs)

    monkeypatch.setattr(spectral, "eigh", recording_eigh)
    res = eigensolve(sphere3, count)
    assert asked == [[0, count - 1]]
    assert res.method == "dense"
    assert res.eigenvalues.shape == (count,)
    assert _within(res.eigenvalues, full[:count])
    V = res.eigenvectors
    assert np.abs(V.T @ (areas[:, None] * V) - np.eye(count)).max() < 1e-12
    i = count - 1
    mv = areas * V[:, i]
    by_definition = np.linalg.norm(K @ V[:, i] - res.eigenvalues[i] * mv)
    assert res.residuals[i] == pytest.approx(by_definition / np.linalg.norm(mv))
    assert res.max_residual < 1e-9
