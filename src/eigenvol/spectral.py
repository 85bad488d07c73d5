"""Eigenvalue computations for the lumped cotangent Laplacian.

The discrete operator is the generalized pencil  K v = lambda M v  with K
the cotangent stiffness matrix (``TriangleMesh.stiffness``) and M the
diagonal lumped mass matrix (``TriangleMesh.vertex_areas``); its
Rayleigh quotient is the Dirichlet energy over the L^2 norm, so the
discrete eigenvalues are upper-bound-consistent with the min-max
characterization used everywhere in the bounds.  Only this module reads
the vertex areas as M (:func:`rayleigh` gives test functions u K u and
u M u); elsewhere they weigh integrals, the pushforward and Hersch maps
and the centring mean, or define curvature (``mean_curvature``: M^-1 K x).

Small problems (below ``DENSE_CUTOFF`` vertices) go through dense LAPACK,
which is deterministic and computes only the requested lowest pairs (the
MRRR driver over an index range); larger problems use shift-invert
Lanczos with a seeded start vector.  Every solve reports relative
residuals.  Counts of negative eigenvalues need no eigensolve: they are
read off the pivot signs of one sparse symmetric factorization
(Sylvester's law of inertia).

ARPACK (the whole of :func:`eigsh`, its shift-invert SuperLU solves
included) and the energy dot products of :func:`rayleigh` run on one BLAS
thread (:func:`one_blas_thread`).  OpenBLAS threads a dot product past
about 10k entries, which makes a long one's last bits depend on the
host's thread count, and on two cores its helper threads spin through
these solves and dots without shortening them.  The dense solve
(:func:`eigh`) keeps the host's count until the verification report is
restated at one thread: its bits there differ from those at two, and one
thread costs it time.  The count is process-global, so eigenvol calls
running at once in several Python threads are not isolated from each
other's pins.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .mesh import TriangleMesh, integer, vertex_values

__all__ = [
    "DENSE_CUTOFF",
    "NegativeCountResult",
    "SolverError",
    "SpectrumResult",
    "assemble_laplacian",
    "blas_threads",
    "eigensolve",
    "negative_count",
    "rayleigh",
    "stability_index",
    "weyl_fit",
]

# below this many vertices, solve dense (reproducible bit-for-bit)
DENSE_CUTOFF = 1200


class SolverError(RuntimeError):
    """Eigensolver failure; carries whatever partial results converged."""

    def __init__(self, message, eigenvalues=None, eigenvectors=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors


# SciPy's dense and sparse linear algebra load at the first solve or count,
# not with the package: meshes, conformal-volume searches and packings never
# need them.  Each stays a module attribute that callers can replace.


def eigh(*args, **kwargs):
    """:func:`scipy.linalg.eigh`, imported at the first call."""
    import scipy.linalg

    return scipy.linalg.eigh(*args, **kwargs)


def eigsh(*args, **kwargs):
    """:func:`scipy.sparse.linalg.eigsh` on one BLAS thread, imported at the first call."""
    import scipy.sparse.linalg

    with one_blas_thread():
        return scipy.sparse.linalg.eigsh(*args, **kwargs)


def splu(*args, **kwargs):
    """:func:`scipy.sparse.linalg.splu`, imported at the first call."""
    import scipy.sparse.linalg

    return scipy.sparse.linalg.splu(*args, **kwargs)


class _OpenBLAS(NamedTuple):
    """An OpenBLAS build mapped into this process: its file's basename and
    its thread-count getter and setter (None when it exports none)."""

    name: str
    get: object
    set: object


# the thread-count symbols of scipy-openblas builds (numpy's ILP64 one ends
# in 64_) and of plain OpenBLAS
_OPENBLAS_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
                     for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]

# numpy maps its OpenBLAS at import and scipy its own when scipy.linalg first
# loads, so the builds are looked up at most twice: keyed by that module's presence
_openblas_found: dict[bool, tuple[_OpenBLAS, ...]] = {}


def _find_openblas() -> tuple[_OpenBLAS, ...]:
    """Every OpenBLAS build mapped into this process that reports its thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc: nothing is found, so nothing is pinned
        return ()
    found = []
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            if get is not None:
                get.restype = ctypes.c_int
                setter = getattr(lib, set_name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append(_OpenBLAS(os.path.basename(path), get, setter))
                break
    return tuple(found)


def _openblas() -> tuple[_OpenBLAS, ...]:
    key = "scipy.linalg" in sys.modules
    if key not in _openblas_found:
        _openblas_found[key] = _find_openblas()
    return _openblas_found[key]


def blas_threads() -> list[dict]:
    """Each OpenBLAS build found: its basename, its current thread count and
    whether :func:`one_blas_thread` can set that count."""
    return [{"library": lib.name, "threads": lib.get(), "settable": lib.set is not None}
            for lib in _openblas()]


@contextmanager
def one_blas_thread():
    """Run the block with every settable OpenBLAS build at one thread, and
    restore each build's previous count after it, also when it raises."""
    libs = [lib for lib in _openblas() if lib.set is not None]
    before = [lib.get() for lib in libs]
    for lib in libs:
        lib.set(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set(count)


def assemble_laplacian(mesh: TriangleMesh) -> tuple[sparse.csc_matrix, np.ndarray]:
    """The (K, M) pencil of a mesh: its cotangent stiffness matrix
    ``mesh.stiffness`` (positive semidefinite) and the diagonal of the
    lumped mass matrix, ``mesh.vertex_areas`` (mixed Voronoi vertex
    areas).  The mesh owns both and computes each once."""
    return mesh.stiffness, mesh.vertex_areas


def rayleigh(mesh: TriangleMesh, U, weight=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Energy u K u and mass sum_i m_i w_i u_i^2 of each row u of `U` on the
    pencil of `mesh`, w = `weight` being 1.0 or one value per vertex.

    Energies read the rows as passed and masses a contiguous copy: on
    strided rows (a transposed (nv, d) array) either sum rounds otherwise."""
    K, areas = assemble_laplacian(mesh)
    with one_blas_thread():  # a threaded long dot rounds by the thread count
        energies = np.array([float(u @ (K @ u)) for u in U])
    U = np.ascontiguousarray(U)
    return energies, np.sum(areas * weight * U * U, axis=1)


@dataclass
class SpectrumResult:
    """Sorted eigenvalues of the pencil of ``mesh``, M-orthonormal eigenvectors, diagnostics.

    ``residuals[i] = ||K v_i - lambda_i M v_i|| / ||M v_i||`` measures how
    well each pair solves the pencil.  ``zero_tol`` is the scale-aware
    threshold below which an eigenvalue counts as an exact kernel mode.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    zero_tol: float
    method: str
    mesh: TriangleMesh

    @property
    def num_zero(self) -> int:
        return int(np.sum(self.eigenvalues < self.zero_tol))

    def nonzero(self) -> np.ndarray:
        """Eigenvalues with the kernel modes stripped."""
        return self.eigenvalues[self.eigenvalues >= self.zero_tol]

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    def head(self, count: int) -> "SpectrumResult":
        """The lowest `count` pairs (all, when fewer), with their residuals."""
        count = integer(count, "count", 1)
        return replace(
            self,
            eigenvalues=self.eigenvalues[:count],
            eigenvectors=self.eigenvectors[:, :count],
            residuals=self.residuals[:count],
        )


def eigensolve(mesh: TriangleMesh, count: int = 10, seed: int = 0) -> SpectrumResult:
    """Lowest `count` eigenpairs of the mesh's Laplace pencil, ascending.

    The mesh caches its stiffness matrix, so the pencil is assembled
    once per mesh.  Always includes the zero mode(s).  Dense below
    :data:`DENSE_CUTOFF` vertices or when every pair is asked for,
    otherwise shift-invert Lanczos with a seeded deterministic start
    vector.

    Raises
    ------
    SolverError
        If the iterative solver fails to converge; partial results are
        attached to the exception.
    """
    n = mesh.nv
    count = integer(count, "count", 1, n)
    seed = integer(seed, "seed", 0)
    K, areas = assemble_laplacian(mesh)
    scale = float(K.diagonal().sum() / areas.sum())  # trace(K)/trace(M): mean Rayleigh scale

    if n <= DENSE_CUTOFF or count >= n:  # eigsh serves only count < n
        lam, vecs = _dense_pencil(K, areas, count)
        method = "dense"
    else:
        from scipy.sparse.linalg import ArpackNoConvergence

        # K - sigma M is positive definite for any sigma < 0, so the
        # shift-invert factorization cannot hit the kernel of K
        sigma = -1e-2 * scale
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        try:
            lam, vecs = eigsh(
                K, k=count, M=sparse.diags(areas), sigma=sigma, which="LM", v0=v0
            )
        except ArpackNoConvergence as exc:
            raise SolverError(
                f"ARPACK converged only {len(exc.eigenvalues)}/{count} pairs",
                eigenvalues=exc.eigenvalues,
                eigenvectors=exc.eigenvectors,
            ) from exc
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
        method = "arpack"

    mv = areas[:, None] * vecs
    return SpectrumResult(
        eigenvalues=lam,
        eigenvectors=vecs,
        residuals=np.linalg.norm(K @ vecs - mv * lam, axis=0) / np.linalg.norm(mv, axis=0),
        zero_tol=1e-8 * scale,
        method=method,
        mesh=mesh,
    )


def _dense_pencil(K, areas, count):
    """Lowest `count` pairs of M^{-1/2} K M^{-1/2}, M-orthonormal vectors.

    LAPACK computes only the requested index range, so the cost beyond
    the tridiagonal reduction scales with `count`, not with n.  The
    symmetrized matrix 0.5 (A + A^T), A = M^{-1/2} K M^{-1/2}, is written
    from K's entries into one Fortran-ordered array that LAPACK then
    overwrites, so no other n x n array is made.
    """
    w = 1.0 / np.sqrt(areas)
    K = K.tocoo()
    A = sparse.coo_matrix((w[K.row] * K.data * w[K.col], (K.row, K.col)), shape=K.shape)
    A = (A + A.T).tocoo()
    dense = np.zeros(K.shape, order="F")
    dense[A.row, A.col] = 0.5 * A.data
    lam, vecs = eigh(dense, overwrite_a=True, subset_by_index=[0, count - 1])
    return lam, w[:, None] * vecs


@dataclass
class NegativeCountResult:
    """Count of negative pencil eigenvalues with a boundary-mode report.

    ``count`` is the number of eigenvalues below ``-tol``; eigenvalues
    in ``[-tol, tol)`` are near-kernel modes reported separately in
    ``boundary_count`` (nonzero flags them), never silently added to the
    count.  Both come from Sylvester inertia, not from a spectrum.
    """

    count: int
    boundary_count: int
    tol: float
    method: str


def _negative_pivots(A) -> int:
    """Number of negative eigenvalues of the sparse symmetric matrix A.

    By Sylvester's law of inertia it is the number of negative pivots of
    a symmetric elimination P A P^T = L D L^T.  SuperLU keeps the
    elimination symmetric in SymmetricMode with diagonal pivots, and then
    its U factor is D L^T, so the pivots are the diagonal of U.
    """
    try:
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # a zero pivot: A is singular
        raise SolverError(f"inertia factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("inertia factorization pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def negative_count(
    mesh: TriangleMesh, potential, tol: float = 1e-9, seed: int = 0
) -> NegativeCountResult:
    """Number of negative eigenvalues of the mesh's Schroedinger pencil
    (K - diag(m_i V_i)) v = lambda M v.

    `potential` is a scalar or a per-vertex array V; the operator is the
    positive Laplacian minus V.  No eigenvalue is computed: the pencil
    has as many eigenvalues below s as K - M(V + s) has negative pivots
    (Sylvester inertia), so one sparse factorization at s = -tol gives
    the count and one at s = tol the boundary band.  `seed` is unused
    and kept for callers that pass one.

    Raises
    ------
    ValueError
        If `tol` is negative or not finite, or V fails ``vertex_values``.
    SolverError
        If a factorization is singular (an eigenvalue sits exactly at
        -tol or tol) or its elimination was not symmetric.
    """
    K, areas = assemble_laplacian(mesh)
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    V = vertex_values(mesh, potential, "potential", nonnegative=False)

    def below(shift):  # eigenvalues of the pencil below `shift`
        A = K - sparse.diags(areas * (V + shift))
        return _negative_pivots(A.tocsc())

    count = below(-tol)
    return NegativeCountResult(
        count=count, boundary_count=below(tol) - count, tol=tol, method="inertia"
    )


def stability_index(mesh: TriangleMesh, shape_squared) -> NegativeCountResult:
    """Morse index of a minimal surface in the round 3-sphere, on its mesh.

    The second variation operator is  Delta - (2 + |A|^2)  acting on
    normal variations; its number of negative eigenvalues is the index.
    `shape_squared` is |A|^2, scalar or per vertex (see ``vertex_values``);
    a negative or non-finite value raises ValueError.

    Discretization scatters exact kernel eigenvalues by O(h^2), so the
    boundary band is taken proportional to the potential scale
    (0.02 * (1 + max V)) rather than at machine precision; genuine
    negative eigenvalues of the reference surfaces sit far below it.
    """
    V = 2.0 + vertex_values(mesh, shape_squared, "shape_squared")
    tol = 0.02 * (1.0 + float(np.max(V)))
    return negative_count(mesh, V, tol=tol)


@dataclass
class WeylFit:
    """Least-squares slope of lambda_k Vol against k."""

    slope: float
    intercept: float
    target: float

    @property
    def relative_error(self) -> float:
        return abs(self.slope - self.target) / self.target


def weyl_fit(spectrum: SpectrumResult, k_range: tuple[int, int] = (20, 60)) -> WeylFit:
    """Fit the Weyl growth law of the spectrum's mesh over the index window ``k_range``.

    On a surface  lambda_k ~ 4 pi k / Vol, so the slope of lambda_k Vol
    against k should approach 4 pi.  Eigenvalues are indexed from 0 (the
    constant mode) and an intercept absorbs the low-order term.
    """
    lam = spectrum.eigenvalues
    lo, hi = (integer(end, f"k_range[{i}]", 1, lam.shape[0] - 1) for i, end in enumerate(k_range))
    if lo >= hi:
        raise ValueError(f"k_range {k_range} must increase")
    k = np.arange(lo, hi + 1)
    slope, intercept = np.polyfit(k, lam[lo : hi + 1] * spectrum.mesh.area, 1)
    return WeylFit(slope=float(slope), intercept=float(intercept), target=4.0 * np.pi)
