"""Eigenvalue computations for the lumped cotangent Laplacian.

The discrete operator is the generalized pencil  K v = lambda M v  with K
the cotangent stiffness matrix (``TriangleMesh.stiffness``) and M the
diagonal lumped mass matrix (``TriangleMesh.vertex_areas``); its
Rayleigh quotient is the Dirichlet energy over the L^2 norm, so the
discrete eigenvalues are upper-bound-consistent with the min-max
characterization used everywhere in the bounds.

Small problems (below ``DENSE_CUTOFF`` vertices) go through dense LAPACK,
which is deterministic and computes only the requested lowest pairs (the
MRRR driver over an index range); larger problems use shift-invert
Lanczos with a seeded start vector.  Every solve reports relative
residuals.  Counts of negative eigenvalues need no eigensolve: they are
read off the pivot signs of one sparse symmetric factorization
(Sylvester's law of inertia).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from .mesh import TriangleMesh

__all__ = [
    "DENSE_CUTOFF",
    "NegativeCountResult",
    "SolverError",
    "SpectrumResult",
    "assemble_laplacian",
    "eigensolve",
    "negative_count",
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


def assemble_laplacian(mesh: TriangleMesh) -> tuple[sparse.csc_matrix, np.ndarray]:
    """The (K, M) pencil of a mesh: its cotangent stiffness matrix
    ``mesh.stiffness`` (positive semidefinite) and the diagonal of the
    lumped mass matrix, ``mesh.vertex_areas`` (mixed Voronoi vertex
    areas).  The mesh owns both and computes each once."""
    return mesh.stiffness, mesh.vertex_areas


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
        """The lowest `count` pairs, with their residuals."""
        return replace(
            self,
            eigenvalues=self.eigenvalues[:count],
            eigenvectors=self.eigenvectors[:, :count],
            residuals=self.residuals[:count],
        )


def _residuals(K, areas, lam, vecs):
    mv = areas[:, None] * vecs
    return np.linalg.norm(K @ vecs - mv * lam, axis=0) / np.linalg.norm(mv, axis=0)


def _zero_tol(K, areas) -> float:
    # trace(K)/trace(M) is the mean Rayleigh scale of the pencil
    return 1e-8 * float(K.diagonal().sum() / areas.sum())


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
    K, areas = assemble_laplacian(mesh)
    n = mesh.nv
    if not 1 <= count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")

    if n <= DENSE_CUTOFF or count >= n:  # eigsh serves only count < n
        lam, vecs = _dense_pencil(K, areas, count)
        method = "dense"
    else:
        # K - sigma M is positive definite for any sigma < 0, so the
        # shift-invert factorization cannot hit the kernel of K
        sigma = -1e-2 * float(K.diagonal().sum() / areas.sum())
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

    return SpectrumResult(
        eigenvalues=lam,
        eigenvectors=vecs,
        residuals=_residuals(K, areas, lam, vecs),
        zero_tol=_zero_tol(K, areas),
        method=method,
        mesh=mesh,
    )


def _dense_pencil(K, areas, count):
    """Lowest `count` pairs of M^{-1/2} K M^{-1/2}, M-orthonormal vectors.

    LAPACK computes only the requested index range, so the cost beyond
    the tridiagonal reduction scales with `count`, not with n.
    """
    w = 1.0 / np.sqrt(areas)
    A = w[:, None] * K.toarray() * w[None, :]
    A = 0.5 * (A + A.T)
    lam, vecs = eigh(A, subset_by_index=[0, count - 1])
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
        If `tol` is negative or not finite, or V is not finite.
    SolverError
        If a factorization is singular (an eigenvalue sits exactly at
        -tol or tol) or its elimination was not symmetric.
    """
    K, areas = assemble_laplacian(mesh)
    V = np.broadcast_to(np.asarray(potential, dtype=float), (mesh.nv,))
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite")

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
    `shape_squared` is |A|^2, scalar or per vertex; a negative or
    non-finite value raises ValueError.

    Discretization scatters exact kernel eigenvalues by O(h^2), so the
    boundary band is taken proportional to the potential scale
    (0.02 * (1 + max V)) rather than at machine precision; genuine
    negative eigenvalues of the reference surfaces sit far below it.
    """
    S2 = np.asarray(shape_squared, dtype=float)
    if not np.all(np.isfinite(S2) & (S2 >= 0.0)):
        raise ValueError("shape_squared must be finite and nonnegative")
    V = 2.0 + S2
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
    lo, hi = k_range
    if not 0 < lo < hi < lam.shape[0]:
        raise ValueError(f"k_range {k_range} out of bounds for {lam.shape[0]} eigenvalues")
    k = np.arange(lo, hi + 1)
    slope, intercept = np.polyfit(k, lam[lo : hi + 1] * spectrum.mesh.area, 1)
    return WeylFit(slope=float(slope), intercept=float(intercept), target=4.0 * np.pi)
