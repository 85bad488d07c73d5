"""Eigenvalue computations for the lumped cotangent Laplacian.

The discrete operator is the generalized pencil  K v = lambda M v  with K
the cotangent stiffness matrix and M the diagonal lumped mass matrix; its
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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from .mesh import TriangleMesh, cotangent_stiffness

__all__ = [
    "DENSE_CUTOFF",
    "NegativeCountResult",
    "OperatorPair",
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


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness/mass pencil of a mesh.

    Attributes
    ----------
    stiffness : scipy.sparse.csc_matrix
        The cotangent matrix K (positive semidefinite).
    mass : scipy.sparse.dia_matrix
        Diagonal lumped mass matrix M.
    areas : numpy.ndarray
        The diagonal of M (mixed Voronoi vertex areas).
    """

    stiffness: sparse.csc_matrix
    mass: sparse.dia_matrix
    areas: np.ndarray

    @property
    def n(self) -> int:
        return self.areas.shape[0]

    def energy(self, u: np.ndarray) -> float:
        """Dirichlet energy u^T K u."""
        return float(u @ (self.stiffness @ u))

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """L^2 inner product u^T M v."""
        return float(np.sum(self.areas * u * v))


def assemble_laplacian(mesh: TriangleMesh) -> OperatorPair:
    """Assemble the (K, M) pencil of a mesh."""
    K = cotangent_stiffness(mesh)
    areas = mesh.vertex_areas
    return OperatorPair(K, sparse.diags(areas), areas)


@dataclass
class SpectrumResult:
    """Sorted eigenvalues with M-orthonormal eigenvectors and diagnostics.

    ``residuals[i] = ||K v_i - lambda_i M v_i|| / ||M v_i||`` measures how
    well each pair solves the pencil.  ``zero_tol`` is the scale-aware
    threshold below which an eigenvalue counts as an exact kernel mode.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    zero_tol: float
    method: str

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
        return SpectrumResult(
            eigenvalues=self.eigenvalues[:count],
            eigenvectors=self.eigenvectors[:, :count],
            residuals=self.residuals[:count],
            zero_tol=self.zero_tol,
            method=self.method,
        )


def _residuals(K, areas, lam, vecs):
    mv = areas[:, None] * vecs
    return np.linalg.norm(K @ vecs - mv * lam, axis=0) / np.linalg.norm(mv, axis=0)


def _zero_tol(K, areas) -> float:
    # trace(K)/trace(M) is the mean Rayleigh scale of the pencil
    return 1e-8 * float(K.diagonal().sum() / areas.sum())


def eigensolve(
    mesh_or_ops: TriangleMesh | OperatorPair, count: int = 10, seed: int = 0
) -> SpectrumResult:
    """Lowest `count` eigenpairs of the Laplace pencil, ascending.

    Always includes the zero mode(s).  Dense below :data:`DENSE_CUTOFF`
    vertices or when every pair is asked for, otherwise shift-invert
    Lanczos with a seeded deterministic start vector.

    Raises
    ------
    SolverError
        If the iterative solver fails to converge; partial results are
        attached to the exception.
    """
    ops = (
        mesh_or_ops
        if isinstance(mesh_or_ops, OperatorPair)
        else assemble_laplacian(mesh_or_ops)
    )
    K, M, areas = ops.stiffness, ops.mass, ops.areas
    n = ops.n
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
            lam, vecs = eigsh(K, k=count, M=M, sigma=sigma, which="LM", v0=v0)
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
    ``boundary_count`` (with ``boundary_flag`` set), never silently added
    to the count.  Both come from Sylvester inertia, not from a spectrum.
    """

    count: int
    boundary_count: int
    tol: float
    method: str

    @property
    def boundary_flag(self) -> bool:
        return self.boundary_count > 0


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
    mesh_or_ops: TriangleMesh | OperatorPair,
    potential,
    tol: float = 1e-9,
    seed: int = 0,
) -> NegativeCountResult:
    """Number of negative eigenvalues of the Schroedinger pencil
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
    ops = (
        mesh_or_ops
        if isinstance(mesh_or_ops, OperatorPair)
        else assemble_laplacian(mesh_or_ops)
    )
    V = np.broadcast_to(np.asarray(potential, dtype=float), (ops.n,))
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite")

    def below(shift):  # eigenvalues of the pencil below `shift`
        A = ops.stiffness - sparse.diags(ops.areas * (V + shift))
        return _negative_pivots(A.tocsc())

    count = below(-tol)
    return NegativeCountResult(
        count=count, boundary_count=below(tol) - count, tol=tol, method="inertia"
    )


def stability_index(
    mesh_or_ops: TriangleMesh | OperatorPair,
    shape_squared,
    n: int = 2,
) -> NegativeCountResult:
    """Morse index of a minimal surface in the round sphere.

    The second variation operator is  Delta - (n + |A|^2)  acting on
    normal variations; its number of negative eigenvalues is the index.
    `shape_squared` is |A|^2, scalar or per vertex.

    Discretization scatters exact kernel eigenvalues by O(h^2), so the
    boundary band is taken proportional to the potential scale
    (0.02 * (1 + max V)) rather than at machine precision; genuine
    negative eigenvalues of the reference surfaces sit far below it.
    """
    V = n + np.asarray(shape_squared, dtype=float)
    tol = 0.02 * (1.0 + float(np.max(V)))
    return negative_count(mesh_or_ops, V, tol=tol)


@dataclass
class WeylFit:
    """Least-squares slope of lambda_k Vol^{2/n} against k^{2/n}."""

    slope: float
    intercept: float
    target: float
    relative_error: float = field(init=False)

    def __post_init__(self):
        self.relative_error = abs(self.slope - self.target) / self.target


def weyl_fit(
    eigenvalues: np.ndarray,
    volume: float,
    n: int = 2,
    k_range: tuple[int, int] = (20, 60),
) -> WeylFit:
    """Fit the Weyl growth law over the index window ``k_range``.

    For an n-manifold,  lambda_k ~ C_W (k / Vol)^{2/n}  with
    C_W = 4 pi^2 / omega_n^{2/n}; the fitted slope should approach C_W
    (4 pi when n = 2).  Eigenvalues are indexed from 0 (the constant
    mode) and an intercept absorbs the low-order term.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lo, hi = k_range
    if not 0 < lo < hi < lam.shape[0]:
        raise ValueError(f"k_range {k_range} out of bounds for {lam.shape[0]} eigenvalues")
    k = np.arange(lo, hi + 1)
    x = k ** (2.0 / n)
    y = lam[lo : hi + 1] * volume ** (2.0 / n)
    slope, intercept = np.polyfit(x, y, 1)
    omega_n = np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    target = 4.0 * np.pi**2 / omega_n ** (2.0 / n)
    return WeylFit(slope=float(slope), intercept=float(intercept), target=float(target))
