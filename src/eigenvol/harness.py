"""Inequality checks with explicit constants, replayed on meshes.

Every bound verified here comes with the exact constant produced by its
proof, carried as a `fractions.Fraction` so nothing is lost to rounding.
Checks come in two strengths:

* exact links -- discrete identities that must hold to rounding error
  (disjoint supports, stiffness orthogonality of separated test
  functions, the variational principle).  A violation raises
  :class:`VerificationError`, because there is no error bar to hide
  behind.
* numeric inequalities -- continuum statements evaluated on a mesh.
  These produce :class:`CheckResult` records with the discretization
  slack spelled out, and can legitimately fail.

`run_verification` drives the whole battery over the reference surfaces
and returns a deterministic report (fixed seed in, identical bytes out).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from .confvol import (
    SphereImmersion,
    conformal_volume,
    hersch_center,
    inverse_stereographic,
)
from .fixtures import (
    clifford_torus,
    flat_torus,
    icosphere,
    revolution_torus,
    veronese,
)
from .mesh import TriangleMesh, integer, mean_curvature, vertex_values, willmore_energy
from .moebius import u_annulus
from .packing import (
    gny_decompose,
    pushforward_measure,
    select_light,
    verify_family,
)
from .spectral import (
    SpectrumResult,
    eigensolve,
    negative_count,
    rayleigh,
    stability_index,
    weyl_fit,
)

# outer radii of annuli that must carry test functions stay strictly
# below the quarter-turn where the cap function construction breaks down
R_MAX_TEST = 0.999 * np.pi / 2


class VerificationError(RuntimeError):
    """An exact discrete link failed; there is no tolerance to blame."""


# ---------------------------------------------------------------------- #
# constants


# Python's default sys.get_int_max_str_digits(): str() refuses longer integers
_INT_DIGITS = 4300


@dataclass(frozen=True)
class ProofConstants:
    """The explicit constants of the eigenvalue and counting bounds.

    All fields are exact rationals derived from the covering number
    N = 9^m of the target sphere and the annulus mass fraction
    c = 1 / (8 N^12) of the decomposition argument.
    """

    n: int
    m: int
    covering_number: int
    mass_fraction: Fraction
    higher_eigenvalue: Fraction
    curvature_eigenvalue: Fraction
    count_conformal: Fraction
    count_curvature: Fraction

    def as_dict(self) -> dict:
        out, floats = {}, {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Fraction):
                out[f.name], floats[f.name] = str(value), float(value)
            else:
                out[f.name] = value
        return {**out, "floats": floats}


def proof_constants(n: int = 2, m: int = 2) -> ProofConstants:
    """Exact constants for n-manifolds mapped into the sphere S^m.

    * ``higher_eigenvalue``: C in
      lambda_k Vol^{2/n} <= C Vc^{2/n} k^{2/n}.
    * ``curvature_eigenvalue``: C in
      lambda_k <= C avg(|H|^2 + R) k.
    * ``count_conformal``: C in
      N(V) >= (C / Vc*) Vol^{1 - n/2} (int V)^{n/2}; with m = n + 1 this
      is also the constant of the minimal-hypersurface index bound.
    * ``count_curvature``: C in  N(V) >= C int V / int(|H|^2 + R).

    Even n keeps every constant rational; odd n would put a square root
    into ``count_conformal``, which nothing here needs.  Constants that
    overflow a float, from m = 27 at n = 2, are refused, and so are those
    whose ``count_conformal`` has a denominator of more digits than
    Python's default limit for printing an integer, 4300: from n = 300 at
    m = 2 and n = 216 at m = 3.
    """
    n, m = integer(n, "n", 2), integer(m, "m", 2)
    if n % 2:
        raise ValueError("odd n makes the counting constant irrational")
    # the largest constant is 80000 n 9^(12 m) / 81, and the rest fit when
    # it does: its log, before it is formed
    log_higher = math.log10(80000 * n) - math.log10(81) + 12 * m * math.log10(9)
    if log_higher > math.log10(np.finfo(float).max):
        raise ValueError(f"the proof constants for n = {n}, m = {m} overflow a float")
    # count_conformal is 1/(20000 n 9^(12 m - 1))^(n/2): its digits, before it is formed
    digits = int(n // 2 * math.log10(20000 * n * 9 ** (12 * m - 1))) + 1
    if digits > _INT_DIGITS:
        raise ValueError(
            f"the proof constants for n = {n}, m = {m} have {digits} digits, "
            f"past Python's limit of {_INT_DIGITS} for printing an integer"
        )
    N = 9**m
    c = Fraction(1, 8 * N**12)
    return ProofConstants(
        n=n,
        m=m,
        covering_number=N,
        mass_fraction=c,
        higher_eigenvalue=Fraction(10000 * n, 81) / c,
        curvature_eigenvalue=Fraction(5000 * n, 81) / c,
        count_conformal=(Fraction(9, 2500) * c / n) ** (n // 2),
        count_curvature=Fraction(9, 1250) * c / n,
    )


def genus_conformal_volume_bound(genus: int, orientable: bool) -> float:
    """Conformal volume bound from the degree of a branched cover of S^2.

    For non-orientable surfaces `genus` means the genus of the orienting
    double cover, and the bound doubles.
    """
    deg = (integer(genus, "genus", 0) + 3) // 2
    return (4.0 if orientable else 8.0) * np.pi * deg


# ---------------------------------------------------------------------- #
# check records


@dataclass
class CheckResult:
    """One verified inequality: numbers, verdict and provenance."""

    name: str
    statement: str
    status: str  # "pass" | "fail" | "inconclusive"
    lhs: float
    rhs: float
    detail: dict = field(default_factory=dict)
    error_bars: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def line(self) -> str:
        return f"[{self.status:^12}] {self.name}: {self.statement}"

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "detail": _jsonable(self.detail),
            "error_bars": _jsonable(self.error_bars),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _ineq(
    name,
    statement,
    lhs,
    rhs,
    rel_tol=0.0,
    inconclusive_on_fail=False,
    detail=None,
    error_bars=None,
) -> CheckResult:
    """Record the claim lhs <= rhs with a relative slack allowance."""
    holds = lhs <= rhs + rel_tol * abs(rhs)
    if holds:
        status = "pass"
    elif inconclusive_on_fail:
        status = "inconclusive"
    else:
        status = "fail"
    return CheckResult(
        name=name,
        statement=statement,
        status=status,
        lhs=float(lhs),
        rhs=float(rhs),
        detail=detail or {},
        error_bars=error_bars or {},
    )


# ---------------------------------------------------------------------- #
# what the checks read of a mesh


def _own(mesh: TriangleMesh, thing, what: str) -> None:
    """Refuse an immersion or a spectrum of another mesh than `mesh`, a copy too."""
    if thing is not None and thing.mesh is not mesh:
        raise ValueError(f"the {what} belongs to another mesh than the one checked")


def _vc(vc_reference) -> float | None:
    """A known conformal volume as a float, or None when there is none.
    A bool is refused, as ``integer`` refuses one for a count."""
    if vc_reference is None:
        return None
    vc = math.nan if isinstance(vc_reference, (bool, np.bool_)) else float(vc_reference)
    if not (np.isfinite(vc) and vc > 0.0):
        raise ValueError(f"vc_reference must be finite and positive, got {vc_reference}")
    return vc


def _lowest(mesh: TriangleMesh, spectrum: SpectrumResult | None, count: int, seed: int = 0):
    """The lowest `count` pairs of `spectrum`, which must be a spectrum of
    `mesh`, or of a fresh solve when it is None."""
    if spectrum is None:
        return eigensolve(mesh, count=count, seed=seed)
    _own(mesh, spectrum, "spectrum")
    return spectrum.head(count)


def _nonzero(spec: SpectrumResult, count: int) -> np.ndarray:
    """The `count` lowest nonzero eigenvalues of `spec`."""
    lams = spec.nonzero()[:count]
    if lams.shape[0] < count:
        raise ValueError(f"spectrum only has {lams.shape[0]} nonzero eigenvalues, need {count}")
    return lams


def _component(mesh: TriangleMesh, kappa: float) -> str:
    """The mean curvature that int(|H|^2 + kappa) reads: the ambient one at
    kappa = 0, the part seen inside the sphere at kappa = 1 on a unit-sphere mesh.
    A bool is refused, as ``integer`` refuses one for a count."""
    if not isinstance(kappa, (bool, np.bool_)) and (
            kappa == 0.0 or (kappa == 1.0 and mesh.ambient == "unit_sphere")):
        return "sphere" if kappa else "ambient"
    raise ValueError(f"kappa must be 0, or 1 on a unit-sphere mesh; got {kappa}")


# eigenpairs read by the first-eigenvalue checks: the kernel, the first
# eigenvalue's multiplicity on every reference surface, and some margin
_FIRST_PAIRS = 8

# discretization slack of the first-eigenvalue checks, relative to the bound
_FIRST_REL_TOL = 0.03


# ---------------------------------------------------------------------- #
# first eigenvalue: conformal volume bound with a constructive replay


def check_first_eigenvalue(
    mesh: TriangleMesh,
    immersion: SphereImmersion | None = None,
    vc_reference: float | None = None,
    seed: int = 0,
    spectrum: SpectrumResult | None = None,
) -> CheckResult:
    """lambda_1 Vol^{2/n} <= n Vc^{2/n}, plus a test-function replay.

    With `vc_reference` (a known conformal volume) the verdict is
    conclusive.  With only an `immersion`, the search supplies a lower
    bound for Vc, so a violated inequality is reported as inconclusive
    rather than failed.  `spectrum`, pairs of `mesh` solved elsewhere,
    replaces the solve of its lowest pairs.

    When an immersion is available the proof is replayed: center the
    images so the weighted barycenter vanishes, then use the centered
    coordinates as test functions.  Each is orthogonal to constants by
    construction, so the discrete variational principle gives
    lambda_1 * sum ||u_i||^2 <= sum E(u_i) exactly; a violation beyond
    rounding aborts.
    """
    seed = integer(seed, "seed", 0)
    _own(mesh, immersion, "immersion")
    vc = _vc(vc_reference)
    if vc is None and immersion is None:
        raise ValueError("need either vc_reference or an immersion")
    spec = _lowest(mesh, spectrum, _FIRST_PAIRS, seed)
    lam1 = float(_nonzero(spec, 1)[0])
    vol = mesh.area
    lhs = lam1 * vol

    detail: dict = {"lambda_1": lam1, "volume": vol}
    if vc is not None:
        detail["vc_source"] = "reference"
        soft = False
    else:
        search = conformal_volume(immersion, seed=seed)
        vc = search.value
        detail["vc_source"] = "search lower bound"
        detail["vc_search"] = {
            "value": search.value,
            "diverged": search.diverged,
            "evaluations": search.evaluations,
        }
        soft = True
    detail["vc"] = vc
    rhs = 2.0 * vc  # n Vc^{2/n} at n = 2

    error_bars = {"spectral_residual": spec.max_residual}
    if immersion is not None:
        centering = hersch_center(immersion)
        images = centering.map(immersion.images)
        areas = mesh.vertex_areas
        centered = images - (areas @ images)[None, :] / areas.sum()
        energies, masses = rayleigh(mesh, centered.T)
        bound = float(energies.sum() / masses.sum())
        if lam1 > bound * (1.0 + 1e-9):
            raise VerificationError(
                "variational principle violated by centered coordinates: "
                f"lambda_1 = {lam1:.12g} > {bound:.12g}"
            )
        detail["replay"] = {
            "test_function_bound": bound,
            "coordinate_energies": energies,
            "centering_iterations": centering.iterations,
            "moment_norm": centering.moment_norm,
        }
        dist = immersion.distortion
        error_bars["max_log_distortion"] = dist.max_log_distortion
        error_bars["singular_area"] = dist.singular_area

    return _ineq(
        "first-eigenvalue",
        f"lambda_1 Vol = {lhs:.6f} <= 2 Vc = {rhs:.6f}",
        lhs,
        rhs,
        rel_tol=_FIRST_REL_TOL,
        inconclusive_on_fail=soft,
        detail=detail,
        error_bars=error_bars,
    )


# ---------------------------------------------------------------------- #
# curvature bound for the first eigenvalue


def check_curvature_first_eigenvalue(
    mesh: TriangleMesh,
    kappa: float = 0.0,
    spectrum: SpectrumResult | None = None,
) -> CheckResult:
    """lambda_1 <= (n / Vol) int (|H|^2 + kappa), sharp for round spheres.

    `kappa` is the sectional curvature of the ambient space: 0 for a
    surface in Euclidean space, 1 for one sitting inside the unit
    sphere (where |H| means the mean curvature seen in the sphere).
    `spectrum`, pairs of `mesh` solved elsewhere, replaces the solve of
    its lowest pairs.
    """
    w2 = willmore_energy(mesh, _component(mesh, kappa))
    spec = _lowest(mesh, spectrum, _FIRST_PAIRS)
    lam1 = float(_nonzero(spec, 1)[0])
    vol = mesh.area
    rhs = 2.0 * (w2 + kappa * vol) / vol
    return _ineq(
        "first-eigenvalue-curvature",
        f"lambda_1 = {lam1:.6f} <= (2/Vol) int(|H|^2 + {kappa:g}) = {rhs:.6f}",
        lam1,
        rhs,
        rel_tol=_FIRST_REL_TOL,
        detail={
            "lambda_1": lam1,
            "volume": vol,
            "willmore": w2,
            "kappa": kappa,
            "equality_gap": (rhs - lam1) / rhs,
        },
        error_bars={"spectral_residual": spec.max_residual},
    )


# ---------------------------------------------------------------------- #
# all eigenvalues


def check_higher_eigenvalues(
    mesh: TriangleMesh,
    kmax: int = 8,
    m: int = 2,
    vc_reference: float | None = None,
    kappa: float | None = None,
    spectrum: SpectrumResult | None = None,
) -> list[CheckResult]:
    """lambda_k bounds for k = 1..kmax, in both available forms.

    Conformal form (when `vc_reference`, a known conformal volume, is
    given):  lambda_k Vol <= C Vc k  (n = 2), with the exact constant
    `higher_eigenvalue`.  A searched Vc would
    only be a lower bound, which can never confirm this form, so none is
    searched.  Curvature form (when `kappa` is given and the mesh is
    embedded):  lambda_k <= C avg(|H|^2 + kappa) k  with
    `curvature_eigenvalue`.  At least one of `vc_reference` and `kappa`
    is needed.  The constants are astronomically generous; the point of
    evaluating them literally is that the margin, too, becomes a number.
    `spectrum`, pairs of `mesh` solved elsewhere, replaces the solve of
    its kmax + 4 lowest pairs.
    """
    kmax = integer(kmax, "kmax", 1)
    vc = _vc(vc_reference)
    if vc is None and kappa is None:
        raise ValueError("nothing to check: pass vc_reference or kappa")
    vol = mesh.area
    if kappa is not None:
        avg = (willmore_energy(mesh, _component(mesh, kappa)) + kappa * vol) / vol
    spec = _lowest(mesh, spectrum, kmax + 4)
    lams = _nonzero(spec, kmax)
    ks = np.arange(1, kmax + 1, dtype=float)
    consts = proof_constants(2, m)
    results = []

    # both forms bound lambda_k (times Vol in the conformal one) by C x k
    def form(name, claim, values, bounds, constant, **detail):
        margins = bounds / values
        worst = int(np.argmin(margins))
        results.append(
            _ineq(
                name,
                f"{claim} for k <= {kmax}; "
                f"smallest margin {margins[worst]:.3e} at k = {worst + 1}",
                float(values[worst]),
                float(bounds[worst]),
                detail=dict(detail, eigenvalues=lams, bounds=bounds, constant=str(constant)),
                error_bars={"spectral_residual": spec.max_residual},
            )
        )

    if vc is not None:
        C = consts.higher_eigenvalue
        bounds = float(C) * vc * ks
        form("higher-eigenvalues", "lambda_k Vol <= C Vc k", lams * vol, bounds, C, vc=vc)
    if kappa is not None:
        C = consts.curvature_eigenvalue
        claim = f"lambda_k <= C avg(|H|^2 + {kappa:g}) k"
        bounds = float(C) * avg * ks
        form("higher-eigenvalues-curvature", claim, lams, bounds, C, average_curvature=avg)
    return results


# ---------------------------------------------------------------------- #
# annulus replays: the shared step of the counting and eigenvalue proofs


def _exact_orthogonality(K, U) -> None:
    """Assert disjoint supports and bitwise-zero stiffness cross terms."""
    supports = U > 0.0
    empty = np.flatnonzero(~supports.any(axis=1))
    if empty.size:
        raise VerificationError(f"test function {empty[0]} vanishes identically")
    overlaps = np.argwhere(np.triu(supports @ supports.T, 1))
    if overlaps.size:
        i, j = overlaps[0]
        raise VerificationError(f"supports of test functions {i} and {j} overlap")
    off = U @ (K @ U.T)
    np.fill_diagonal(off, 0.0)
    if np.any(off != 0.0):
        worst = float(np.abs(off).max())
        raise VerificationError(
            f"stiffness cross terms not exactly zero (max |entry| {worst:.3e}); "
            "the separation gap must exceed every image edge"
        )


def _replay_family(immersion, nu, pieces, seed, weight, light=None):
    """The annulus replay of the counting and eigenvalue proofs, whole.

    Takes as gap 1.02 times the longest geodesic image edge of
    `immersion`; packs `pieces` annuli against `nu` with that gap
    between doubled shells and re-verifies them; keeps, with
    `light = (mu, count)`, the `count` of lightest doubled `mu`-mass;
    and pulls their test functions back.  Disjoint supports, bitwise-zero
    stiffness cross terms and each function's floor of 9/25 on its
    annulus (behind the 81/625 mass bound) are exact links that abort.
    Returns ``(gap, beta, chosen, shell_masses, energies, masses)``: the
    kept indices with their verified `nu`-masses, and the test functions'
    :func:`~eigenvol.spectral.rayleigh` with `weight` (V or 1.0).
    """
    images = immersion.images
    ends = immersion.mesh.edges
    chords = np.linalg.norm(images[ends[:, 0]] - images[ends[:, 1]], axis=1)
    gap = 1.02 * float(2.0 * np.arcsin(np.clip(chords.max() / 2.0, 0.0, 1.0)))

    family = gny_decompose(nu, pieces, seed=seed, r_max=R_MAX_TEST, gap=gap)
    rep = verify_family(nu, family)
    if not rep.ok:
        raise VerificationError("annulus family failed re-verification")
    if light is None:
        chosen = np.arange(len(family.annuli))
    else:
        chosen = select_light(light[0], family, light[1])
    annuli = [family.annuli[i] for i in chosen]

    U = np.stack([np.asarray(u_annulus(a, images), dtype=float) for a in annuli])
    _exact_orthogonality(immersion.mesh.stiffness, U)
    for i, a in enumerate(annuli):
        inside = U[i][a.contains(images)]
        if inside.size and inside.min() < 9.0 / 25.0 - 1e-9:
            raise VerificationError(
                f"test function {i} dips below 9/25 on its annulus: {inside.min():.12g}"
            )
    return (gap, family.beta, chosen, rep.masses[chosen], *rayleigh(immersion.mesh, U, weight))


# ---------------------------------------------------------------------- #
# negative eigenvalue counts


def check_eigenvalue_counts(
    mesh: TriangleMesh,
    potential,
    m: int = 2,
    vc_reference: float | None = None,
    immersion: SphereImmersion | None = None,
    kappa: float | None = None,
    minimal_in_sphere: bool = False,
    seed: int = 0,
) -> list[CheckResult]:
    """Lower bounds for the number of negative Schroedinger eigenvalues.

    For the operator -Laplace - V with V >= 0 the count N(V) dominates
    explicit multiples of int V.  Four forms are checked where their
    hypotheses apply: conformal (needs Vc), minimal-in-sphere, and two
    curvature forms (need an embedding, int(|H|^2 + kappa)).

    When an immersion is supplied, the proof is replayed: annuli are
    packed against the potential-weighted image measure, their test
    functions pulled back, and each verified to make the quadratic form
    strictly negative wherever the guaranteed count is positive.  At
    guaranteed count zero the constant function is the witness: its
    form value is -int V / Vol < 0, so N(V) >= 1 whenever int V > 0.
    """
    seed = integer(seed, "seed", 0)
    _own(mesh, immersion, "immersion")
    vc_reference = _vc(vc_reference)
    # a contiguous copy: vertex_areas @ V rounds otherwise on a broadcast view
    V = vertex_values(mesh, potential, "potential").copy()
    vol = mesh.area
    if kappa is not None:
        denom = willmore_energy(mesh, _component(mesh, kappa)) + kappa * vol
    with np.errstate(over="ignore"):
        intV = float(mesh.vertex_areas @ V)
    if not np.isfinite(intV):
        raise ValueError(f"int V must be finite, got {intV}")
    counted = negative_count(mesh, V)
    N = counted.count
    consts = proof_constants(2, m)
    results = []
    bars = {"boundary_modes": counted.boundary_count, "count_tol": counted.tol}

    def count_check(name, lhs, statement, detail):
        guaranteed = int(np.floor(lhs))
        detail = dict(detail, guaranteed_count=guaranteed, observed_count=N)
        results.append(
            _ineq(name, statement, lhs, float(N), detail=detail, error_bars=bars)
        )
        return guaranteed

    k_conformal = None
    if vc_reference is not None:
        C = float(consts.count_conformal)
        lhs = C / vc_reference * intV  # Vol^{1 - n/2} = 1 at n = 2
        k_conformal = count_check(
            "count-conformal",
            lhs,
            f"N(V) = {N} >= (C/Vc) int V = {lhs:.3e}",
            {"constant": str(consts.count_conformal), "vc": vc_reference, "int_V": intV},
        )
        if minimal_in_sphere:
            lhs2 = C * intV / vol
            count_check(
                "count-minimal",
                lhs2,
                f"N(V) = {N} >= C avg V = {lhs2:.3e}",
                {"constant": str(consts.count_conformal), "int_V": intV},
            )

    k_curvature = None
    if kappa is not None:
        C3 = float(consts.count_curvature)
        lhs3 = C3 * intV / denom
        k_curvature = count_check(
            "count-curvature",
            lhs3,
            f"N(V) = {N} >= C int V / int(|H|^2 + {kappa:g}) = {lhs3:.3e}",
            {"constant": str(consts.count_curvature), "curvature_integral": denom},
        )

    # ---- constructive replay -------------------------------------- #
    if immersion is not None and intV > 0.0:
        rayleigh_const = -intV / vol
        if N < 1 and abs(rayleigh_const) > counted.tol:
            raise VerificationError(
                "constant function makes the form negative "
                f"({rayleigh_const:.3e}) yet the count is zero"
            )
        replay: dict = {"constant_witness_value": rayleigh_const}
        nu = pushforward_measure(immersion, density=V)
        mu = pushforward_measure(immersion)

        # the conformal form packs twice the annuli it needs and keeps the
        # lightest; the curvature form uses every annulus it packs
        for key, guaranteed, doubled in (
            ("conformal_family", k_conformal, True),
            ("curvature_family", k_curvature, False),
        ):
            if guaranteed is None:
                continue
            kk = max(guaranteed, 0)
            pieces = 2 * (kk + 1) if doubled else kk + 1
            _, beta, chosen, _, energies, pot_masses = _replay_family(
                immersion, nu, pieces, seed, V, light=(mu, kk + 1) if doubled else None
            )
            strict = energies < pot_masses
            replay[key] = {
                "annuli": pieces,
                "beta": beta,
                "energies": energies,
                "potential_masses": pot_masses,
                "strictly_negative": strict,
            }
            if doubled:
                replay[key]["selected"] = chosen
            if guaranteed >= 1 and not strict.all():
                raise VerificationError(
                    "guaranteed count >= 1 but an annulus function fails "
                    "to make the form negative"
                )
        for r in results:
            r.detail["replay"] = replay

    return results


# ---------------------------------------------------------------------- #
# index of minimal hypersurfaces


def check_index(
    mesh: TriangleMesh,
    shape_squared,
    reference_index: int | None = None,
) -> CheckResult:
    """index >= C (n + avg |S|^2)^{n/2} for minimal surfaces in S^3.

    `shape_squared` is the squared norm of the shape operator (0 for an
    equatorial sphere, 2 for the square torus).  The sharper affine-in-
    int|S|^2 bounds known in two dimensions are noted for context; this
    check evaluates the explicit-constant form only.
    """
    S2 = vertex_values(mesh, shape_squared, "shape_squared")
    with np.errstate(over="ignore"):
        avg = float(mesh.vertex_areas @ S2) / mesh.area
    if not np.isfinite(avg):
        raise ValueError(f"avg shape_squared must be finite, got {avg}")
    if reference_index is not None:
        reference_index = integer(reference_index, "reference_index", 0)
    idx = stability_index(mesh, S2)
    constant = proof_constants(2, 3).count_conformal
    lhs = float(constant) * (2.0 + avg)  # (n + avg)^{n/2} at n = 2
    detail = {
        "index": idx.count,
        "boundary_modes": idx.boundary_count,
        "average_shape_squared": avg,
        "constant": str(constant),
        "note": "two-dimensional bounds affine in int |S|^2 are sharper",
    }
    if reference_index is not None:
        detail["reference_index"] = reference_index
    result = _ineq(
        "index",
        f"index = {idx.count} >= C (2 + avg|S|^2) = {lhs:.3e}",
        lhs,
        float(idx.count),
        detail=detail,
        error_bars={"band": idx.tol},
    )
    if reference_index is not None and idx.count != reference_index:
        result.status = "fail"
        result.statement = (
            f"index {idx.count} != reference {reference_index} "
            f"(boundary modes {idx.boundary_count})"
        )
    return result


# ---------------------------------------------------------------------- #
# pointwise conformal curvature balance


# vertices per batch of the quadratic fit: keeps the (batch, ring, 6)
# design arrays at a few MB
_FIT_BLOCK = 2048
# tilts of each vertex's frame to its fitted graph normal before the final fit
_FRAME_TILTS = 2


def _pointwise_laplacian(mesh: TriangleMesh, values):
    """Second-order pointwise estimate of -div grad at every vertex.

    The cotangent Laplacian converges weakly but not pointwise at
    irregular vertices, which is fatal for a residual that must vanish
    under refinement.  Instead each vertex fits a quadratic to the
    function over its 2-ring in a tangent frame (initial frame from a
    principal-component split of the ring, then tilted to the fitted
    graph normal); the trace of the fitted Hessian is the Laplacian.
    The estimate does not depend on face orientation.

    The fits run as array code over vertices of equal 2-ring size, at
    most ``_FIT_BLOCK`` at a time: the frame is the eigenbasis of each
    ring's 3x3 scatter matrix, and every least-squares fit solves its
    6x6 normal equations in coordinates divided by the ring radius, which
    keeps them well conditioned.  The 2-rings come from the sparsity of
    the mesh's stiffness matrix.
    """
    x = mesh.vertices
    K = mesh.stiffness
    pattern = sp.csr_matrix(
        (np.ones_like(K.data), K.indices, K.indptr), shape=K.shape
    )
    pattern.setdiag(1.0)
    ring2 = ((pattern @ pattern) > 0).tocsr()
    sizes = np.diff(ring2.indptr)
    if sizes.min() < 6:
        raise ValueError("a quadratic fit needs at least 6 vertices in every 2-ring")
    out = np.empty(x.shape[0])
    for size in np.unique(sizes):
        same = np.flatnonzero(sizes == size)
        for start in range(0, same.size, _FIT_BLOCK):
            ids = same[start : start + _FIT_BLOCK]
            nb = ring2.indices[ring2.indptr[ids, None] + np.arange(size)]
            d = x[nb] - x[ids, None]
            rho = np.linalg.norm(d, axis=2).max(axis=1)
            dc = d - d.mean(axis=1, keepdims=True)
            frames = np.linalg.eigh(dc.transpose(0, 2, 1) @ dc)[1]
            nu, t1 = frames[..., 0], frames[..., 2]
            t2 = np.cross(nu, t1)
            for _ in range(_FRAME_TILTS):
                uvw = d @ np.stack([t1, t2, nu], axis=2)
                b = _quadratic_fit(uvw[..., :2], rho, uvw[..., 2])
                nu = nu - b[:, 1, None] * t1 - b[:, 2, None] * t2
                nu /= np.linalg.norm(nu, axis=1, keepdims=True)
                t1 = t1 - np.sum(t1 * nu, axis=1, keepdims=True) * nu
                t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
                t2 = np.cross(nu, t1)
            # a constant offset moves only c; taking it out keeps the
            # normal equations' right-hand side small
            df = values[nb] - values[ids, None]
            b = _quadratic_fit(d @ np.stack([t1, t2], axis=2), rho, df)
            out[ids] = -(b[:, 3] + b[:, 5])
    return out


def _quadratic_fit(uv, rho, f):
    """Least-squares c + g.(u, v) + (1/2)(u, v) H (u, v)^T through the
    values f at ring coordinates uv, per vertex of the batch; returns
    (c, g_u, g_v, H_uu, H_uv, H_vv) in the units of uv."""
    u = uv[..., 0] / rho[:, None]
    v = uv[..., 1] / rho[:, None]
    G = np.stack([np.ones_like(u), u, v, 0.5 * u * u, u * v, 0.5 * v * v], axis=2)
    Gt = G.transpose(0, 2, 1)
    try:
        b = np.linalg.solve(Gt @ G, Gt @ f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ValueError("a 2-ring is too degenerate for a quadratic fit") from None
    return b / rho[:, None] ** np.array([0, 1, 1, 2, 2, 2])


@dataclass
class ConformalBalance:
    """Residual of the curvature identity under the stereographic lift.

    For a surface in R^3 lifted to S^3, the mean curvature, the
    conformal factor e^f = 4 / (1 + |x|^2)^2 and the lifted mean
    curvature satisfy a pointwise identity; `residuals` is the discrete
    leftover per vertex and should vanish under refinement.
    """

    residuals: np.ndarray
    l2: float
    max_abs: float
    willmore: float
    lifted_energy: float
    conformal_area: float
    integrated_ok: bool

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "residuals"}


def conformal_balance(mesh: TriangleMesh) -> ConformalBalance:
    """Check  |H|^2 = e^f (|H_lift|^2 + 1) - (1/2) div grad f  vertexwise.

    H_lift is the mean curvature of the lifted surface seen inside S^3
    and the Laplacian term uses the pointwise quadratic-fit estimator
    (see :func:`_pointwise_laplacian`).  The integrated form
    int |H|^2 >= (1/2) E(lift)  (with E the Dirichlet energy of the
    lifted coordinates) is recorded too; for a sphere centered at the
    origin both sides equal the sphere area.
    """
    if mesh.vertices is None or mesh.vertices.shape[1] != 3:
        raise ValueError("the balance needs a surface embedded in R^3")
    x = mesh.vertices
    sq = np.sum(x * x, axis=1)
    ef = 4.0 / (1.0 + sq) ** 2
    f = np.log(ef)
    lap_f = _pointwise_laplacian(mesh, f)

    H = mean_curvature(mesh)
    H2 = np.sum(H * H, axis=1)
    lift = inverse_stereographic(x)
    lifted = TriangleMesh(lift, mesh.faces)
    Ht = mean_curvature(lifted, component="sphere")
    Ht2 = np.sum(Ht * Ht, axis=1)

    res = H2 - ef * (Ht2 + 1.0) + 0.5 * lap_f
    areas = mesh.vertex_areas
    l2 = float(np.sqrt(np.sum(areas * res * res)))
    w2 = float(np.sum(areas * H2))
    energy = float(sum(rayleigh(mesh, lift.T)[0]))
    conf_area = float(np.sum(areas * ef))
    return ConformalBalance(
        residuals=res,
        l2=l2,
        max_abs=float(np.abs(res).max()),
        willmore=w2,
        lifted_energy=energy,
        conformal_area=conf_area,
        integrated_ok=bool(w2 >= 0.5 * energy * (1.0 - 0.02)),
    )


def balance_decay(levels=(3, 4, 5)) -> dict:
    """L^2 residual of the balance on refined spheres centred at (1/2, 0, 0).

    Returns the residuals per subdivision level and consecutive decay
    factors; second-order convergence gives factors near 4.  The
    translated sphere also feeds the closed form
    int e^f dA = 16 pi / (|c|^4 + 4), recorded as `oracle_gap`.
    """
    c = np.array([0.5, 0.0, 0.0])
    exact = 16.0 * np.pi / (float(c @ c) ** 2 + 4.0)
    out = {"levels": list(levels), "l2": [], "conformal_area": [], "oracle": exact}
    for lv in levels:
        base = icosphere(lv)
        mesh = TriangleMesh(base.vertices + c, base.faces)
        bal = conformal_balance(mesh)
        out["l2"].append(bal.l2)
        out["conformal_area"].append(bal.conformal_area)
    out["factors"] = [
        out["l2"][i] / out["l2"][i + 1] for i in range(len(levels) - 1)
    ]
    out["oracle_gap"] = [abs(v - exact) / exact for v in out["conformal_area"]]
    return out


# ---------------------------------------------------------------------- #
# full test-function chain for the higher-eigenvalue bound


@dataclass
class WitnessChain:
    """The eigenvalue-bound proof replayed on one mesh, with receipts."""

    selected: np.ndarray
    energies: np.ndarray
    rayleighs: np.ndarray
    lambda_k: float
    results: list
    error_bars: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def build_witness_chain(
    mesh: TriangleMesh,
    immersion: SphereImmersion,
    k: int,
    vc_reference: float,
    seed: int = 0,
    spectrum: SpectrumResult | None = None,
) -> WitnessChain:
    """Replay the eigenvalue bound: annuli, test functions, inequalities.

    Packs 2(k+1) annuli against the pushforward measure, keeps the k+1
    with lightest doubled mass, pulls their test functions back, and
    certifies every link:

    * supports pairwise disjoint and stiffness-orthogonal -- exact,
      violations abort;
    * each squared mass at least 81/625 of its annulus measure -- exact
      given the pointwise floor;
    * each energy at most 8 Vc and each Rayleigh quotient within the
      explicit constant -- numeric;
    * lambda_k at most the largest Rayleigh quotient -- the variational
      principle, allowed only the eigensolver's own residual.

    `spectrum`, pairs of `mesh` solved elsewhere, replaces the solve of
    its k + 4 lowest pairs; every pair it holds counts towards the
    spectral error bar.
    """
    k = integer(k, "k", 1)
    seed = integer(seed, "seed", 0)
    _own(mesh, immersion, "immersion")
    vc_reference = _vc(vc_reference)
    if vc_reference is None:
        raise ValueError("the witness chain needs vc_reference")
    pairs = k + 4 if spectrum is None else spectrum.eigenvalues.shape[0]
    spec = _lowest(mesh, spectrum, pairs, seed)
    lam_k = float(_nonzero(spec, k)[k - 1])
    vol = mesh.area
    mu = pushforward_measure(immersion)

    gap, beta, chosen, shell_masses, energies, sq_masses = _replay_family(
        immersion, mu, 2 * (k + 1), seed, 1.0, light=(mu, k + 1)
    )
    floor = (81.0 / 625.0) * shell_masses
    if np.any(sq_masses < floor * (1.0 - 1e-9)):
        raise VerificationError("squared mass fell below 81/625 of the annulus")

    rayleighs = energies / sq_masses
    consts = proof_constants(2, immersion.target_dim)
    punch = float(consts.higher_eigenvalue) * vc_reference / vol * k

    dist = immersion.distortion
    bars = {
        "spectral_residual": spec.max_residual,
        "max_log_distortion": dist.max_log_distortion,
        "singular_area": dist.singular_area,
        "exact_links": 0.0,
    }
    results = [
        _ineq(
            "witness-orthogonality",
            f"{k + 1} test functions with disjoint supports, "
            "stiffness cross terms exactly zero",
            0.0,
            0.0,
            detail={"gap": gap, "beta": beta},
            error_bars={"exact": 0.0},
        ),
        _ineq(
            "witness-mass-floor",
            f"min u^2-mass / (81/625 annulus mass) = "
            f"{float((sq_masses / floor).min()):.4f} >= 1",
            float((floor / sq_masses).max()),
            1.0,
            detail={"sq_masses": sq_masses, "shell_masses": shell_masses},
            error_bars={"exact": 0.0},
        ),
        _ineq(
            "witness-energy",
            f"max energy = {energies.max():.4f} <= 8 Vc = {8 * vc_reference:.4f}",
            float(energies.max()),
            8.0 * vc_reference,
            error_bars=bars,
        ),
        _ineq(
            "witness-rayleigh",
            f"max Rayleigh = {rayleighs.max():.4f} <= C Vc k / Vol = {punch:.3e}",
            float(rayleighs.max()),
            punch,
            detail={"constant": str(consts.higher_eigenvalue)},
            error_bars=bars,
        ),
        _ineq(
            "witness-minmax",
            f"lambda_{k} = {lam_k:.6f} <= max Rayleigh = {rayleighs.max():.6f}",
            lam_k,
            float(rayleighs.max()),
            rel_tol=1e-9,
            error_bars={"spectral_residual": spec.max_residual},
        ),
    ]
    return WitnessChain(
        selected=chosen,
        energies=energies,
        rayleighs=rayleighs,
        lambda_k=lam_k,
        results=results,
        error_bars=bars,
    )


# ---------------------------------------------------------------------- #
# the full battery


@dataclass
class VerificationReport:
    """All checks from one run, grouped by section, JSON-stable."""

    sections: list  # (section_name, [CheckResult, ...])
    seed: int
    kmax: int

    @property
    def checks(self) -> list:
        return [r for _, rs in self.sections for r in rs]

    @property
    def all_ok(self) -> bool:
        return all(r.status != "fail" for r in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, rs in self.sections:
            out.append(f"== {name} ==")
            out.extend(r.line() for r in rs)
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for r in self.checks:
            counts[r.status] += 1
        out.append(
            f"== total: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['inconclusive']} inconclusive =="
        )
        return out

    def as_dict(self) -> dict:
        return {
            "schema_version": 1,
            "seed": self.seed,
            "kmax": self.kmax,
            "all_ok": self.all_ok,
            "sections": [
                {"name": name, "checks": [r.as_dict() for r in rs]}
                for name, rs in self.sections
            ],
        }


# reference surfaces: name -> (mesh builder, sphere immersion, known Vc)
_REFERENCE_SURFACES = {
    "sphere": (lambda: icosphere(3), SphereImmersion.identity, 4.0 * np.pi),
    "clifford": (lambda: clifford_torus(32), SphereImmersion.identity, 2.0 * np.pi**2),
    "veronese": (lambda: veronese(3), SphereImmersion.identity, 6.0 * np.pi),
    "revolution": (lambda: revolution_torus(3.0, 1.0, 32), SphereImmersion.lifted, None),
    "flat-torus": (lambda: flat_torus(2 * np.pi, 2 * np.pi, 33), None, None),
}

# eigenpairs the Weyl fit reads, the most any battery check reads
_WEYL_PAIRS = 70


class _Reference:
    """A reference surface as the battery built it: its mesh, sphere
    immersion and known Vc (each None where there is none) and the one
    spectrum every check of it reads, solved when a check first reads it."""

    def __init__(self, name: str, kmax: int, seed: int):
        build, immerse, self.vc = _REFERENCE_SURFACES[name]
        self.name, self.seed, self.pairs = name, seed, max(_WEYL_PAIRS, kmax + 4)
        self.mesh = build()
        self.immersion = immerse(self.mesh) if immerse else None

    @cached_property
    def spectrum(self) -> SpectrumResult:
        return eigensolve(self.mesh, count=self.pairs, seed=self.seed)


def _constants_section() -> list[CheckResult]:
    rs = []
    for n, m in ((2, 2), (2, 3), (2, 4)):
        cs = proof_constants(n, m)
        N = cs.covering_number
        exact = (
            N == 9**m
            and cs.mass_fraction * 8 * N**12 == 1
            and cs.higher_eigenvalue == 4 * n / (Fraction(81, 2500) * cs.mass_fraction)
            and cs.curvature_eigenvalue * 2 == cs.higher_eigenvalue
            and cs.count_conformal
            == (Fraction(9, 2500) * cs.mass_fraction / n) ** (n // 2)
            and cs.count_curvature == Fraction(9, 1250) * cs.mass_fraction / n
        )
        if not exact:
            raise VerificationError("constant chain broke; arithmetic is rational")
        rs.append(
            _ineq(
                f"constants-n{n}-m{m}",
                f"N = 9^{m} = {N}, c = 1/(8 N^12), "
                f"C_eig = {float(cs.higher_eigenvalue):.4e} (exact rational chain)",
                0.0,
                0.0,
                detail=cs.as_dict(),
                error_bars={"exact": 0.0},
            )
        )
    return rs


def _genus_check(ref: _Reference) -> CheckResult:
    """lambda_1 Vol <= 2 Vc with Vc bounded by the covering degree."""
    mesh = ref.mesh
    lam1 = float(_nonzero(ref.spectrum, 1)[0])
    bound = 2.0 * genus_conformal_volume_bound(mesh.genus, mesh.orientable)
    return _ineq(
        f"first-eigenvalue-genus-{ref.name}",
        f"lambda_1 Vol = {lam1 * mesh.area:.4f} <= "
        f"2 Vc(genus {mesh.genus}) = {bound:.4f}",
        lam1 * mesh.area,
        bound,
        rel_tol=_FIRST_REL_TOL,
        detail={"genus": mesh.genus, "orientable": mesh.orientable},
    )


def _balance_decay_check() -> CheckResult:
    decay = balance_decay(levels=(3, 4))
    return _ineq(
        "balance-decay",
        f"residual L2 {decay['l2'][0]:.3e} -> {decay['l2'][1]:.3e}, "
        f"factor {decay['factors'][0]:.2f} >= 2.5",
        2.5,
        decay["factors"][0],
        detail=decay,
    )


def _balance_integral_check(ref: _Reference) -> CheckResult:
    bal = conformal_balance(ref.mesh)
    return _ineq(
        f"balance-integral-{ref.name}",
        f"int |H|^2 = {bal.willmore:.4f} >= E(lift)/2 = "
        f"{0.5 * bal.lifted_energy:.4f}",
        0.5 * bal.lifted_energy,
        bal.willmore,
        rel_tol=0.02,
        detail=bal.as_dict(),
    )


def _weyl_check(ref: _Reference) -> CheckResult:
    # the battery sticks to meshes small enough for the dense solver,
    # so the fit window sits below the discretization-dominated tail
    fit = weyl_fit(ref.spectrum, k_range=(15, 55))
    return _ineq(
        f"weyl-{ref.name}",
        f"slope {fit.slope:.4f} vs 4 pi = {fit.target:.4f} "
        f"({100 * fit.relative_error:.1f}%)",
        abs(fit.slope - fit.target),
        0.10 * fit.target,
        detail={"slope": fit.slope, "intercept": fit.intercept},
    )


def _battery(kmax: int, seed: int) -> list:
    """The battery as (section, report title, rows), each row a
    (surface, check) pair run in order.

    A row naming a reference surface runs ``check(ref)`` on its
    :class:`_Reference`, passing the check what it reads of it; a row
    without one runs ``check()``.  A check returns one CheckResult or a
    list of them.
    """
    k = min(kmax, 4)
    vc_known = ("sphere", "clifford", "veronese")

    def first(ref):
        return check_first_eigenvalue(ref.mesh, ref.immersion, ref.vc, seed, ref.spectrum)

    def curvature(kappa):
        return lambda ref: check_curvature_first_eigenvalue(ref.mesh, kappa, spectrum=ref.spectrum)

    def higher(m, kappa=None):
        return lambda ref: check_higher_eigenvalues(
            ref.mesh, kmax, m, ref.vc, kappa, spectrum=ref.spectrum
        )

    def counts(potential, m, kappa=None):
        return lambda ref: check_eigenvalue_counts(
            ref.mesh, potential, m, ref.vc, ref.immersion, kappa, minimal_in_sphere=True, seed=seed
        )

    def index(shape_squared, reference_index):
        return lambda ref: check_index(ref.mesh, shape_squared, reference_index)

    def witness(ref):  # its spectral error bar reads kmax + 4 pairs
        pairs = ref.spectrum.head(kmax + 4)
        chain = build_witness_chain(ref.mesh, ref.immersion, k, ref.vc, seed, pairs)
        for r in chain.results:
            r.name = f"{r.name}-{ref.name}"
        return chain.results

    return [
        ("constants", "constants", [(None, _constants_section)]),
        ("first", "first-eigenvalue",
         [(s, first) for s in (*vc_known, "revolution")]
         + [(s, _genus_check) for s in vc_known]),
        ("curvature", "curvature-first-eigenvalue",
         [(s, curvature(kappa))
          for s, kappa in (("sphere", 0.0), ("revolution", 0.0), ("clifford", 1.0))]),
        ("higher", "higher-eigenvalues", [
            ("sphere", higher(2, kappa=0.0)),
            ("clifford", higher(3, kappa=1.0)),
            ("veronese", higher(4)),
        ]),
        ("counts", "negative-counts", [
            ("sphere", counts(2.5, 2, kappa=0.0)),
            # the stability potential n + |S|^2 of the square torus
            ("clifford", counts(4.0, 3, kappa=1.0)),
            ("veronese", counts(2.5, 4)),
        ]),
        ("index", "index", [("sphere", index(0.0, 1)), ("clifford", index(2.0, 5))]),
        ("balance", "conformal-balance",
         [(None, _balance_decay_check)]
         + [(s, _balance_integral_check) for s in ("sphere", "revolution")]),
        ("witness", "witness-chain", [(s, witness) for s in ("sphere", "clifford")]),
        ("weyl", "weyl", [(s, _weyl_check) for s in ("sphere", "flat-torus")]),
    ]


def run_verification(which: str = "all", seed: int = 0, kmax: int = 8) -> VerificationReport:
    """Run the named battery (or everything) on the reference surfaces.

    All meshes are small enough for the dense eigensolver, so a fixed
    seed yields bit-identical reports.  `which` is "all" or a section of
    :func:`_battery`: constants, first, curvature, higher, counts, index,
    balance, witness, weyl.  Each reference surface is built and solved
    once: built when a row first names it, and solved when a check first
    reads its spectrum, for every check that reads it.
    """
    kmax = integer(kmax, "kmax", 1)
    seed = integer(seed, "seed", 0)
    battery = _battery(kmax, seed)
    valid = ["all"] + [section for section, _, _ in battery]
    if which not in valid:
        raise ValueError(f"unknown battery {which!r}; choose from {sorted(valid)}")

    reference = cache(_Reference)
    sections = []
    for section, title, rows in battery:
        if which not in ("all", section):
            continue
        results = []
        for name, check in rows:
            out = check(reference(name, kmax, seed)) if name else check()
            results += out if isinstance(out, list) else [out]
        sections.append((title, results))
    return VerificationReport(sections=sections, seed=seed, kmax=kmax)
