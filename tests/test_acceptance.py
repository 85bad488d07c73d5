"""Acceptance gate: one printed pass/fail line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Each criterion states its own tolerance; the asserts use exactly those.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eigenvol.confvol import SphereImmersion, conformal_volume
from eigenvol.fixtures import revolution_torus
from eigenvol.harness import (
    VerificationReport,
    balance_decay,
    build_witness_chain,
    check_eigenvalue_counts,
    check_index,
    proof_constants,
    run_verification,
)
from eigenvol.mesh import willmore_energy
from eigenvol.moebius import Annulus, cap_parameters, phi_cap, u_annulus
from eigenvol.packing import DiscreteMeasure, gny_decompose, verify_family
from eigenvol.spectral import eigensolve, negative_count, stability_index, weyl_fit

SPHERE_AREA = 4.0 * np.pi
CLIFFORD_AREA = 2.0 * np.pi**2
# json.dump(run_verification("all", 0).as_dict(), fh, sort_keys=True, indent=1);
# rewritten only by a change that states how it moves the report
REFERENCE_REPORT = Path(__file__).parent / "data" / "verify_all_seed0.json"


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {msg}")
    assert ok, f"criterion {num:02d}: {msg}"


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


def test_criterion_01_reference_spectra(sphere4, torus48):
    """Low spectra of the round sphere and flat torus match closed forms (2%),
    each solve taking under 30 s."""
    t0 = time.monotonic()
    lams = eigensolve(sphere4, count=10).nonzero()[:9]
    sphere_t = time.monotonic() - t0
    sphere_oracle = [2.0] * 3 + [6.0] * 5 + [12.0]
    ok_s = all(_close(l, o, 0.02) for l, o in zip(lams, sphere_oracle))

    t0 = time.monotonic()
    lams_t = eigensolve(torus48, count=9).nonzero()[:8]
    torus_t = time.monotonic() - t0
    torus_oracle = [1.0] * 4 + [2.0] * 4
    ok_t = all(_close(l, o, 0.02) for l, o in zip(lams_t, torus_oracle))

    ok = ok_s and ok_t and sphere_t < 30 and torus_t < 30
    _report(
        1,
        ok,
        f"sphere spectrum {np.round(lams, 3).tolist()} vs {sphere_oracle}, "
        f"torus {np.round(lams_t, 3).tolist()} vs {torus_oracle} "
        f"({sphere_t:.1f}s / {torus_t:.1f}s)",
    )


def test_criterion_02_first_eigenvalue_products(
    sphere4, sphere4_spec, clifford32, clifford32_spec
):
    """lambda_1 * Vol hits 8 pi and 4 pi^2 (3%); minimal surfaces have
    lambda_1 = 2 (2%)."""
    lam_s = float(sphere4_spec.nonzero()[0])
    prod_s = lam_s * sphere4.area
    lam_c = float(clifford32_spec.nonzero()[0])
    prod_c = lam_c * clifford32.area
    ok = (
        _close(prod_s, 8 * np.pi, 0.03)
        and _close(prod_c, 4 * np.pi**2, 0.03)
        and _close(lam_s, 2.0, 0.02)
        and _close(lam_c, 2.0, 0.02)
    )
    _report(
        2,
        ok,
        f"sphere lambda_1 Vol = {prod_s:.4f} (8 pi = {8 * np.pi:.4f}), "
        f"clifford = {prod_c:.4f} (4 pi^2 = {4 * np.pi**2:.4f}), "
        f"lambda_1 = {lam_s:.4f} / {lam_c:.4f}",
    )


def test_criterion_03_mean_curvature_bound(sphere4, sphere4_spec, fat_torus):
    """lambda_1 <= (2/Vol) int |H|^2: equality on the round sphere (3%),
    strict slack on a fat revolution torus."""
    lam_s = float(sphere4_spec.nonzero()[0])
    rhs_s = 2.0 * willmore_energy(sphere4) / sphere4.area
    lam_f = float(eigensolve(fat_torus, count=4).nonzero()[0])
    rhs_f = 2.0 * willmore_energy(fat_torus) / fat_torus.area
    ok = _close(lam_s, rhs_s, 0.03) and lam_f <= rhs_f and rhs_f - lam_f > 0.25 * rhs_f
    _report(
        3,
        ok,
        f"sphere {lam_s:.5f} vs {rhs_s:.5f} (equality), "
        f"fat torus {lam_f:.4f} <= {rhs_f:.4f} (slack {rhs_f - lam_f:.4f})",
    )


def test_criterion_04_constants_exact():
    """Covering number, mass fraction and eigenvalue constant are exact
    rationals matching independently written expressions."""
    parts = []
    for m in (2, 3, 4):
        cs = proof_constants(2, m)
        parts.append(
            cs.covering_number == 9**m
            and cs.mass_fraction == Fraction(1, 8 * 9 ** (12 * m))
            # 10000 n / (81 c) with n = 2: 20000/81 * 8 * 9^(12m)
            and cs.higher_eigenvalue == Fraction(20000 * 8 * 9 ** (12 * m), 81)
            and cs.higher_eigenvalue.denominator == 1
        )
    ok = all(parts)
    _report(
        4,
        ok,
        f"N = 9^m, 1/c = 8 N^12, C exact for m = 2, 3, 4 "
        f"(C(2,2) = {proof_constants(2, 2).higher_eigenvalue})",
    )


def test_criterion_05_test_function_floors():
    """Cap functions stay >= 3/5 on their ball and annulus functions
    >= 9/25 on their annulus: 20 radii x 10 poles x 10^4 samples."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    radii = np.linspace(0.05, 0.999 * np.pi / 2, 20)
    min_phi, min_u = np.inf, np.inf
    for R in radii:
        for _ in range(10):
            pole = rng.normal(size=3)
            pole /= np.linalg.norm(pole)
            pts = rng.normal(size=(10_000, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            d = np.arccos(np.clip(pts @ pole, -1.0, 1.0))
            in_ball = d <= R
            if in_ball.any():
                min_phi = min(min_phi, float(phi_cap(R, pole, pts[in_ball]).min()))
            r = 0.4 * R
            ann = Annulus(pole, r, R)
            in_ann = (d >= r) & (d < R)
            if in_ann.any():
                min_u = min(min_u, float(u_annulus(ann, pts[in_ann]).min()))
    elapsed = time.monotonic() - t0
    ok = min_phi >= 3 / 5 - 1e-9 and min_u >= 9 / 25 - 1e-9 and elapsed < 60
    _report(
        5,
        ok,
        f"min cap value {min_phi:.6f} >= 3/5, min annulus value {min_u:.6f} "
        f">= 9/25 ({elapsed:.1f}s)",
    )


def test_criterion_06_cap_parameters():
    """Dilation t = tan R and image radius rho = 1 + 1/cos R to machine
    precision, with rho >= 2 and rho -> 2 as R -> 0."""
    radii = np.linspace(1e-6, np.pi / 2 - 1e-6, 500)
    errs_t, errs_rho, rhos = [], [], []
    for R in radii:
        t, rho = cap_parameters(R)
        errs_t.append(abs(t - np.tan(R)) / (1.0 + np.tan(R)))
        errs_rho.append(abs(rho - (1.0 + 1.0 / np.cos(R))) / rho)
        rhos.append(rho)
    tiny_rho = cap_parameters(1e-9)[1]
    ok = (
        max(errs_t) < 1e-14
        and max(errs_rho) < 1e-14
        and min(rhos) >= 2.0
        and abs(tiny_rho - 2.0) < 1e-8
    )
    _report(
        6,
        ok,
        f"max relative error {max(max(errs_t), max(errs_rho)):.1e}, "
        f"rho >= 2 with rho(1e-9) - 2 = {tiny_rho - 2.0:.1e}",
    )


def test_criterion_07_annulus_packing():
    """Greedy packing on uniform and clustered sphere measures: exactly
    disjoint doubled annuli, masses above target, beta >= 1e-2."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    uniform_pts = rng.normal(size=(2000, 3))
    uniform_pts /= np.linalg.norm(uniform_pts, axis=1, keepdims=True)
    uniform = DiscreteMeasure(uniform_pts, np.ones(2000))

    cap = rng.normal(size=(1500, 3))
    cap /= np.linalg.norm(cap, axis=1, keepdims=True)
    cap = cap * np.array([0.1, 0.1, 1.0])  # squash toward the poles
    cap /= np.linalg.norm(cap, axis=1, keepdims=True)
    spread = rng.normal(size=(500, 3))
    spread /= np.linalg.norm(spread, axis=1, keepdims=True)
    clustered = DiscreteMeasure(
        np.vstack([cap, spread]), np.ones(2000)
    )

    checks = []
    for mu in (uniform, clustered):
        c_paper = float(proof_constants(2, 2).mass_fraction)
        for k in (1, 2, 4, 8):
            family = gny_decompose(mu, k, seed=0)
            rep = verify_family(mu, family)
            checks.append(
                rep.ok
                and rep.disjoint
                and family.beta >= 1e-2
                and rep.masses.min() >= family.target - 1e-12 * mu.total
                and rep.masses.min() >= c_paper * mu.total / k
            )
    elapsed = time.monotonic() - t0
    ok = all(checks) and elapsed < 60
    _report(
        7,
        ok,
        f"uniform + clustered measures, k in (1, 2, 4, 8): "
        f"{sum(checks)}/8 families verified ({elapsed:.1f}s)",
    )


def test_criterion_08_witness_chains(sphere3, clifford32):
    """The eigenvalue-bound replay certifies every link at k = 8 with the
    exact links carrying a zero error bar."""
    results = []
    for mesh, vc in ((sphere3, SPHERE_AREA), (clifford32, CLIFFORD_AREA)):
        chain = build_witness_chain(
            mesh, SphereImmersion.identity(mesh), k=8, vc_reference=vc
        )
        results.append(chain.ok and chain.error_bars["exact_links"] == 0.0)
    ok = all(results)
    _report(8, ok, "sphere and clifford chains at k = 8, exact links zero-error")


def test_criterion_09_conformal_volume_vs_willmore(sphere3, fat_torus):
    """Conformal volume search against the Willmore energy: near equality
    for the sphere (3%) and stereographic Clifford torus (4%), strictly
    below for a fat torus."""
    cv_s = conformal_volume(SphereImmersion.identity(sphere3), seed=0).value
    w_s = willmore_energy(sphere3)
    ok_s = _close(cv_s, SPHERE_AREA, 0.03) and cv_s <= w_s * 1.03

    proj = revolution_torus(np.sqrt(2.0), 1.0, 32)
    cv_p = conformal_volume(SphereImmersion.lifted(proj), seed=0).value
    w_p = willmore_energy(proj)
    ok_p = _close(cv_p, CLIFFORD_AREA, 0.04) and cv_p <= w_p * 1.04

    cv_f = conformal_volume(SphereImmersion.lifted(fat_torus), seed=0).value
    w_f = willmore_energy(fat_torus)
    ok_f = cv_f < 0.75 * w_f

    ok = ok_s and ok_p and ok_f
    _report(
        9,
        ok,
        f"sphere {cv_s:.4f} ~ {w_s:.4f}, projected clifford {cv_p:.4f} ~ "
        f"{w_p:.4f}, fat torus {cv_f:.4f} << {w_f:.4f}",
    )


def test_criterion_10_balance_residual_decay():
    """The curvature-balance residual drops by at least 2.5x per
    refinement level on an off-center sphere (levels 3 -> 4 -> 5)."""
    d = balance_decay(levels=(3, 4, 5))
    ok = all(f >= 2.5 for f in d["factors"])
    _report(
        10,
        ok,
        f"L2 residuals {['%.3e' % v for v in d['l2']]}, "
        f"factors {['%.2f' % f for f in d['factors']]} >= 2.5",
    )


def test_criterion_11_counts_and_index(sphere3, clifford32):
    """Exact negative counts: sphere N(1) = 1 and N(2.5) = 4, clifford
    stability index 5, with every counting bound holding."""
    n1 = negative_count(sphere3, np.full(sphere3.vertices.shape[0], 1.0))
    n25 = negative_count(sphere3, np.full(sphere3.vertices.shape[0], 2.5))
    idx = stability_index(clifford32, np.full(clifford32.vertices.shape[0], 2.0))
    counts_ok = (
        n1.count == 1
        and n25.count == 4
        and n1.boundary_count == 0
        and n25.boundary_count == 0
        and idx.count == 5
    )
    bounds = check_eigenvalue_counts(
        sphere3,
        2.5,
        vc_reference=SPHERE_AREA,
        immersion=SphereImmersion.identity(sphere3),
        kappa=0.0,
        minimal_in_sphere=True,
    )
    bounds += check_eigenvalue_counts(
        clifford32,
        4.0,
        m=3,
        vc_reference=CLIFFORD_AREA,
        immersion=SphereImmersion.identity(clifford32),
        kappa=1.0,
        minimal_in_sphere=True,
    )
    bounds.append(check_index(sphere3, 0.0, reference_index=1))
    bounds.append(check_index(clifford32, 2.0, reference_index=5))
    ok = counts_ok and all(r.ok for r in bounds)
    _report(
        11,
        ok,
        f"N(1) = {n1.count}, N(2.5) = {n25.count}, index = {idx.count}, "
        f"{sum(r.ok for r in bounds)}/{len(bounds)} bounds hold",
    )


def test_criterion_12_weyl_slope(sphere4, sphere4_spec, torus48, torus48_spec):
    """Eigenvalue growth: least-squares slope over k in [20, 60] within
    10% of 4 pi on both reference surfaces."""
    fit_s = weyl_fit(sphere4_spec.eigenvalues, sphere4.area, k_range=(20, 60))
    fit_t = weyl_fit(torus48_spec.eigenvalues, torus48.area, k_range=(20, 60))
    ok = fit_s.relative_error <= 0.10 and fit_t.relative_error <= 0.10
    _report(
        12,
        ok,
        f"sphere slope {fit_s.slope:.3f} ({100 * fit_s.relative_error:.1f}%), "
        f"torus slope {fit_t.slope:.3f} ({100 * fit_t.relative_error:.1f}%) "
        f"vs 4 pi = {4 * np.pi:.3f}",
    )


@pytest.fixture(scope="module")
def report_all():
    return run_verification("all", seed=0, kmax=8)


def test_criterion_13_deterministic_report(report_all):
    """The full verification battery is reproducible byte for byte at a
    fixed seed, equals its nine sections run one at a time, and every
    check passes."""
    a = report_all
    names = (
        "constants", "first", "curvature", "higher", "counts",
        "index", "balance", "witness", "weyl",
    )
    b = VerificationReport(
        sections=[s for name in names for s in run_verification(name, seed=0, kmax=8).sections],
        seed=0,
        kmax=8,
    )
    blob_a = json.dumps(a.as_dict(), sort_keys=True)
    blob_b = json.dumps(b.as_dict(), sort_keys=True)
    ok = blob_a == blob_b and a.all_ok
    _report(
        13,
        ok,
        f"all sections and nine single sections -> identical {len(blob_a)}-byte "
        f"reports, {len(a.checks)} checks all pass",
    )


def test_report_matches_committed_reference(report_all, assert_report_close):
    """`verify all` at seed 0 reproduces the committed report: every name,
    status, statement and other non-float leaf exactly, every float within
    1e-10 |x| + 1e-12, so the report cannot drift unnoticed."""
    want = json.loads(REFERENCE_REPORT.read_text())
    assert_report_close(json.loads(json.dumps(report_all.as_dict())), want)
