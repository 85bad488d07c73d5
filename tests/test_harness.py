"""Checks of the verification harness itself."""

from __future__ import annotations

import json
import re
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenvol import harness, moebius
from eigenvol.confvol import SphereImmersion, conformal_volume
from eigenvol.fixtures import clifford_torus, flat_torus, icosphere, revolution_torus, veronese
from eigenvol.harness import (
    CheckResult,
    VerificationError,
    _exact_orthogonality,
    _ineq,
    balance_decay,
    build_witness_chain,
    check_curvature_first_eigenvalue,
    check_eigenvalue_counts,
    check_first_eigenvalue,
    check_higher_eigenvalues,
    check_index,
    conformal_balance,
    genus_conformal_volume_bound,
    proof_constants,
    run_verification,
)
from eigenvol.mesh import TriangleMesh, integer, willmore_energy
from eigenvol.moebius import Annulus
from eigenvol.packing import AnnulusFamily, gny_decompose, pushforward_measure, select_light
from eigenvol.spectral import (
    assemble_laplacian,
    eigensolve,
    negative_count,
    stability_index,
    weyl_fit,
)

SPHERE_AREA = 4.0 * np.pi
CLIFFORD_AREA = 2.0 * np.pi**2


# ---------------------------------------------------------------------- #
# constants


def test_constants_match_independent_expressions():
    cs = proof_constants(2, 2)
    assert cs.covering_number == 81
    assert cs.mass_fraction == Fraction(1, 8 * 81**12)
    # 10000 n / (81 c) at n=2, c = 1/(8 * 9^24):
    # 20000/81 * 8 * 81^12 = 160000 * 81^11
    assert cs.higher_eigenvalue == 160000 * 81**11
    assert cs.curvature_eigenvalue == 80000 * 81**11
    # (9c / 2500n)^{n/2} at n=2: 9 / (5000 * 8 * 9^24) = 1/(40000 * 9^23)
    assert cs.count_conformal == Fraction(1, 40000 * 9**23)
    assert cs.count_curvature == Fraction(1, 20000 * 9**23)


def test_constants_scale_with_target_dimension():
    c2, c3 = proof_constants(2, 2), proof_constants(2, 3)
    assert c3.covering_number == 9 * c2.covering_number
    # c shrinks by 9^12 per target dimension, so the eigenvalue
    # constant grows by the same factor
    assert c3.higher_eigenvalue == c2.higher_eigenvalue * 9**12


def test_constants_that_overflow_a_float_are_refused(sphere3, sphere3_spec):
    assert np.isfinite(float(proof_constants(2, 26).higher_eigenvalue))
    with pytest.raises(ValueError, match="^the proof constants for n = 2, m = 27 overflow a float$"):
        proof_constants(2, 27)
    # refused before 9^(12 m), a 38-Mbit integer at this m, is formed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^the proof constants for n = 2, m = 1000000 overflow"):
        proof_constants(2, 10**6)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="m = 27 overflow a float$"):
        check_higher_eigenvalues(sphere3, vc_reference=12.0, m=27, spectrum=sphere3_spec)


@pytest.mark.parametrize("m, n", [(2, 300), (3, 216), (4, 168), (26, 30)])
def test_constants_past_the_integer_digit_limit_are_refused(m, n):
    # the last n below the limit still gives a constant Python can print
    assert len(str(proof_constants(n - 2, m).count_conformal.denominator)) <= 4300
    with pytest.raises(ValueError, match=f"^the proof constants for n = {n}, m = {m} have 4"):
        proof_constants(n, m)


def test_constants_for_a_huge_dimension_are_refused_before_they_are_formed():
    with pytest.raises(ValueError, match="have 3154964 digits, past Python's limit of 4300"):
        proof_constants(200000, 2)


def test_constants_section_refuses_a_broken_chain(monkeypatch):
    exact = harness.proof_constants

    def broken(n, m):
        cs = exact(n, m)
        return replace(cs, count_curvature=cs.count_curvature * 2)

    monkeypatch.setattr(harness, "proof_constants", broken)
    with pytest.raises(VerificationError, match="^constant chain broke; arithmetic is rational$"):
        run_verification("constants")


def test_constants_reject_bad_dimensions():
    with pytest.raises(ValueError):
        proof_constants(3, 2)
    with pytest.raises(ValueError):
        proof_constants(1, 2)
    with pytest.raises(ValueError):
        proof_constants(2, 1)


def test_index_constant_is_count_constant_in_s3(sphere3):
    r = check_index(sphere3, 0.0)
    assert r.detail["constant"] == str(proof_constants(2, 3).count_conformal)


def test_genus_bound_values():
    assert genus_conformal_volume_bound(0, True) == pytest.approx(4 * np.pi)
    assert genus_conformal_volume_bound(1, True) == pytest.approx(8 * np.pi)
    assert genus_conformal_volume_bound(2, True) == pytest.approx(8 * np.pi)
    assert genus_conformal_volume_bound(3, True) == pytest.approx(12 * np.pi)
    assert genus_conformal_volume_bound(0, False) == pytest.approx(8 * np.pi)
    with pytest.raises(ValueError):
        genus_conformal_volume_bound(-1, True)


@given(g=st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_genus_bound_monotone_and_doubling(g):
    b = genus_conformal_volume_bound
    assert b(g, False) == 2.0 * b(g, True)
    assert b(g + 1, True) >= b(g, True)


# ---------------------------------------------------------------------- #
# check records


def test_ineq_statuses():
    assert _ineq("a", "s", 1.0, 2.0).status == "pass"
    assert _ineq("a", "s", 3.0, 2.0).status == "fail"
    assert _ineq("a", "s", 3.0, 2.0, inconclusive_on_fail=True).status == "inconclusive"
    # relative tolerance is measured against the right-hand side
    assert _ineq("a", "s", 2.05, 2.0, rel_tol=0.03).status == "pass"
    assert _ineq("a", "s", 2.07, 2.0, rel_tol=0.03).status == "fail"


def test_check_result_serializes():
    r = CheckResult(
        name="x",
        statement="y",
        status="pass",
        lhs=1.0,
        rhs=2.0,
        detail={"arr": np.arange(3.0), "frac": Fraction(1, 3), "np": np.float64(2.5)},
    )
    blob = json.dumps(r.as_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["slack"] == 1.0
    assert back["detail"]["arr"] == [0.0, 1.0, 2.0]
    assert back["detail"]["frac"] == "1/3"
    assert "pass" in r.line()


# ---------------------------------------------------------------------- #
# what the checks read


def test_surface_solves_once_for_every_check(monkeypatch):
    # the battery solves each of its five reference surfaces once, for
    # the most pairs any of its checks reads, and hands that spectrum on
    counts = []
    solve = harness.eigensolve

    def counting(mesh, count=10, seed=0):
        counts.append(count)
        return solve(mesh, count, seed)

    monkeypatch.setattr(harness, "eigensolve", counting)
    run_verification("all", 0)
    assert counts == [70] * 5
    counts.clear()
    run_verification("higher", 0, kmax=70)
    assert counts == [74] * 3


@pytest.mark.parametrize("section", ["constants", "index", "counts", "balance"])
def test_sections_that_read_no_spectrum_solve_none(monkeypatch, section):
    # a reference surface is solved when a check first reads its
    # spectrum, not when a row first names it
    def solve(*args, **kwargs):
        raise AssertionError(f"verify {section} solved a spectrum no row reads")

    monkeypatch.setattr(harness, "eigensolve", solve)
    assert run_verification(section, 0).sections


def test_checks_given_a_spectrum_match_their_own_solve(sphere3, assert_report_close):
    spectrum = eigensolve(sphere3, 70)
    immersion = SphereImmersion.identity(sphere3)
    higher = {"vc_reference": SPHERE_AREA, "kappa": 0.0}
    pairs = [
        (
            check_first_eigenvalue(sphere3, immersion, SPHERE_AREA, spectrum=spectrum),
            check_first_eigenvalue(sphere3, immersion, SPHERE_AREA),
        ),
        (
            check_curvature_first_eigenvalue(sphere3, spectrum=spectrum),
            check_curvature_first_eigenvalue(sphere3),
        ),
        *zip(
            check_higher_eigenvalues(sphere3, **higher, spectrum=spectrum),
            check_higher_eigenvalues(sphere3, **higher),
        ),
        # the chain's error bar reads every pair it is given
        *zip(
            build_witness_chain(
                sphere3, immersion, 2, SPHERE_AREA, spectrum=spectrum.head(6)
            ).results,
            build_witness_chain(sphere3, immersion, 2, SPHERE_AREA).results,
        ),
    ]
    for given, own in pairs:
        given, own = (json.loads(json.dumps(r.as_dict())) for r in (given, own))
        assert_report_close(given, own)


def test_checks_refuse_a_spectrum_of_another_mesh(sphere3):
    # clifford_torus(32) and revolution_torus(3, 1, 32) have 1024 vertices
    # each, so only the spectrum's own mesh tells them apart
    revolution = revolution_torus(3.0, 1.0, 32)
    pairs = [
        (sphere3, SphereImmersion.identity(sphere3), eigensolve(icosphere(2), 12)),
        (revolution, SphereImmersion.lifted(revolution), eigensolve(clifford_torus(32), 12)),
    ]
    match = "^the spectrum belongs to another mesh than the one checked$"
    for mesh, immersion, other in pairs:
        checks = [
            lambda: check_first_eigenvalue(mesh, immersion, SPHERE_AREA, spectrum=other),
            lambda: check_curvature_first_eigenvalue(mesh, spectrum=other),
            lambda: check_higher_eigenvalues(mesh, kmax=2, kappa=0.0, spectrum=other),
            lambda: build_witness_chain(mesh, immersion, 2, SPHERE_AREA, spectrum=other),
        ]
        for check in checks:
            with pytest.raises(ValueError, match=match):
                check()


def test_checks_refuse_a_spectrum_shorter_than_they_read(sphere3, sphere3_spec):
    immersion = SphereImmersion.identity(sphere3)
    kernel, short = sphere3_spec.head(1), sphere3_spec.head(3)
    cases = [
        (lambda: check_first_eigenvalue(sphere3, immersion, SPHERE_AREA, spectrum=kernel), 0, 1),
        (lambda: check_curvature_first_eigenvalue(sphere3, spectrum=kernel), 0, 1),
        (lambda: check_higher_eigenvalues(sphere3, kmax=4, kappa=0.0, spectrum=short), 2, 4),
        (lambda: build_witness_chain(sphere3, immersion, 4, SPHERE_AREA, spectrum=short), 2, 4),
    ]
    for check, has, need in cases:
        match = f"^spectrum only has {has} nonzero eigenvalues, need {need}$"
        with pytest.raises(ValueError, match=match):
            check()


# a bool reads as 1.0 or 0.0 through float(); it is refused, as a bool
# count or kappa is
@pytest.mark.parametrize("vc", [0.0, -1.0, float("nan"), float("inf"),
                                True, False, np.True_, np.False_])
def test_checks_refuse_a_vc_reference_not_finite_and_positive(monkeypatch, sphere3, vc):
    def solve(*args, **kwargs):
        raise AssertionError("solved before vc_reference was checked")

    monkeypatch.setattr(harness, "eigensolve", solve)
    monkeypatch.setattr(harness, "negative_count", solve)
    immersion = SphereImmersion.identity(sphere3)
    checks = [
        lambda: check_first_eigenvalue(sphere3, immersion, vc),
        lambda: check_higher_eigenvalues(sphere3, vc_reference=vc),
        lambda: check_eigenvalue_counts(sphere3, 2.5, vc_reference=vc),
        lambda: build_witness_chain(sphere3, immersion, 2, vc),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="^vc_reference must be finite and positive, got "):
            check()


def test_surface_willmore_component_follows_kappa(sphere3, clifford32):
    # on the unit sphere the ambient mean curvature has length one; the
    # part seen inside the sphere vanishes for the minimal Clifford torus
    def willmore(mesh, kappa):
        return willmore_energy(mesh, harness._component(mesh, kappa))

    assert willmore(sphere3, 0.0) == pytest.approx(SPHERE_AREA, rel=0.01)
    assert willmore(clifford32, 1.0) < 1e-9
    assert willmore(clifford32, 0.0) == pytest.approx(CLIFFORD_AREA, rel=0.01)
    with pytest.raises(ValueError):
        willmore(flat_torus(2 * np.pi, 2 * np.pi, 8), 0.0)


# ---------------------------------------------------------------------- #
# eigenvalue checks


def test_first_eigenvalue_sphere_near_equality(sphere3):
    r = check_first_eigenvalue(
        sphere3,
        immersion=SphereImmersion.identity(sphere3),
        vc_reference=SPHERE_AREA,
    )
    assert r.ok
    assert r.lhs == pytest.approx(8 * np.pi, rel=0.01)
    replay = r.detail["replay"]
    # centered coordinates reproduce the variational bound lambda_1 <= 2
    assert replay["test_function_bound"] == pytest.approx(2.0, rel=1e-6)
    assert r.error_bars["max_log_distortion"] < 1e-9


def test_checks_refuse_an_immersion_of_another_mesh(sphere3):
    # the identity of a vertex-permuted copy sends vertex i of sphere3 to
    # another vertex's image; read against sphere3 it is a scrambled map
    perm = np.random.default_rng(0).permutation(sphere3.nv)
    copy = TriangleMesh(sphere3.vertices[perm], np.argsort(perm)[sphere3.faces])
    immersion = SphereImmersion.identity(copy)
    match = "^the immersion belongs to another mesh than the one checked$"
    with pytest.raises(ValueError, match=match):
        check_first_eigenvalue(sphere3, immersion=immersion, vc_reference=SPHERE_AREA)
    with pytest.raises(ValueError, match=match):
        check_eigenvalue_counts(sphere3, 2.5, vc_reference=SPHERE_AREA, immersion=immersion)
    with pytest.raises(ValueError, match=match):
        build_witness_chain(sphere3, immersion, k=2, vc_reference=SPHERE_AREA)
    # the copy checked with its own immersion replays the sphere's bound
    own = check_first_eigenvalue(copy, immersion=immersion, vc_reference=SPHERE_AREA)
    assert own.detail["replay"]["test_function_bound"] == pytest.approx(2.0, rel=1e-6)


def test_first_eigenvalue_replay_refuses_a_violated_variational_principle(
    sphere3, sphere3_spec
):
    # ten times the true eigenvalues put lambda_1 far above the Rayleigh
    # quotient of the centred coordinates
    inflated = replace(sphere3_spec, eigenvalues=10.0 * sphere3_spec.eigenvalues)
    with pytest.raises(VerificationError, match="^variational principle violated by centered"):
        check_first_eigenvalue(
            sphere3,
            immersion=SphereImmersion.identity(sphere3),
            vc_reference=SPHERE_AREA,
            spectrum=inflated,
        )


def test_first_eigenvalue_needs_a_reference(sphere3):
    with pytest.raises(ValueError):
        check_first_eigenvalue(sphere3)


def test_first_eigenvalue_search_is_soft(fat_torus):
    r = check_first_eigenvalue(fat_torus, immersion=SphereImmersion.lifted(fat_torus))
    assert r.status == "pass"
    assert r.detail["vc_source"] == "search lower bound"


def test_curvature_first_eigenvalue_equalities(sphere3, clifford32):
    r = check_curvature_first_eigenvalue(sphere3)
    assert r.ok
    assert abs(r.lhs - r.rhs) < 1e-3  # round sphere saturates the bound
    r = check_curvature_first_eigenvalue(clifford32, kappa=1.0)
    assert r.ok
    assert abs(r.lhs - r.rhs) < 1e-3  # minimal surface, lambda_1 = n


def test_curvature_first_eigenvalue_strict_on_fat_torus(fat_torus):
    r = check_curvature_first_eigenvalue(fat_torus)
    assert r.ok
    assert r.rhs > 2.0 * r.lhs


def test_curvature_bound_rejects_abstract_mesh():
    flat = flat_torus(2 * np.pi, 2 * np.pi, 12)
    with pytest.raises(ValueError):
        check_curvature_first_eigenvalue(flat)


@pytest.mark.parametrize("kappa, torus", [
    (float("nan"), False), (float("inf"), False), (-1.0, False), (0.5, False),
    (1.0, True),  # a torus in R^3 is not in the unit sphere
])
def test_curvature_checks_refuse_a_bad_kappa_before_any_solve(monkeypatch, kappa, torus):
    mesh = revolution_torus(3.0, 1.0, 16) if torus else icosphere(2)

    def solve(*args, **kwargs):
        raise AssertionError("solved before kappa was checked")

    monkeypatch.setattr(harness, "eigensolve", solve)
    monkeypatch.setattr(harness, "negative_count", solve)
    checks = [
        lambda: check_curvature_first_eigenvalue(mesh, kappa),
        lambda: check_higher_eigenvalues(mesh, kmax=2, kappa=kappa),
        lambda: check_eigenvalue_counts(mesh, 2.5, kappa=kappa),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=r"^kappa must be 0, or 1 on a unit-sphere mesh; got "):
            check()


@pytest.mark.parametrize("kappa", [True, False, np.True_])
def test_curvature_checks_refuse_a_bool_kappa(kappa):
    with pytest.raises(ValueError, match=r"^kappa must be 0, or 1 on a unit-sphere mesh; got "):
        check_curvature_first_eigenvalue(clifford_torus(8), kappa)


def test_checks_with_nothing_to_check_refuse_before_any_solve(monkeypatch, sphere3):
    def solve(*args, **kwargs):
        raise AssertionError("solved before refusing to check nothing")

    monkeypatch.setattr(harness, "eigensolve", solve)
    with pytest.raises(ValueError, match=r"^nothing to check: pass vc_reference or kappa$"):
        check_higher_eigenvalues(sphere3, kmax=2)
    with pytest.raises(ValueError, match=r"^need either vc_reference or an immersion$"):
        check_first_eigenvalue(sphere3)


def test_higher_eigenvalues_both_forms(sphere3):
    rs = check_higher_eigenvalues(
        sphere3, kmax=6, m=2, vc_reference=SPHERE_AREA, kappa=0.0
    )
    assert [r.name for r in rs] == [
        "higher-eigenvalues",
        "higher-eigenvalues-curvature",
    ]
    assert all(r.ok for r in rs)
    assert len(rs[0].detail["eigenvalues"]) == 6


def test_higher_eigenvalues_need_some_hypothesis(sphere3):
    with pytest.raises(ValueError):
        check_higher_eigenvalues(sphere3, kmax=4)


@pytest.mark.parametrize("kmax", [0, -3])
def test_kmax_below_one_is_rejected(sphere3, kmax):
    message = f"kmax must be an integer >= 1, got {kmax}"
    with pytest.raises(ValueError, match=message):
        check_higher_eigenvalues(sphere3, kmax=kmax, vc_reference=SPHERE_AREA)
    with pytest.raises(ValueError, match=message):
        run_verification("higher", kmax=kmax)


# ---------------------------------------------------------------------- #
# counting checks


def test_counts_sphere_oracle(sphere3):
    # -Laplace has eigenvalues 0, 2, 2, 2, 6, ... so V = 1 traps only the
    # constant mode and V = 2.5 traps four
    rs = check_eigenvalue_counts(
        sphere3,
        1.0,
        vc_reference=SPHERE_AREA,
        immersion=SphereImmersion.identity(sphere3),
        kappa=0.0,
    )
    assert all(r.ok for r in rs)
    assert rs[0].detail["observed_count"] == 1
    rs = check_eigenvalue_counts(
        sphere3,
        2.5,
        vc_reference=SPHERE_AREA,
        immersion=SphereImmersion.identity(sphere3),
        kappa=0.0,
    )
    assert all(r.ok for r in rs)
    assert rs[0].detail["observed_count"] == 4
    replay = rs[0].detail["replay"]
    assert replay["constant_witness_value"] < 0.0
    assert bool(np.all(replay["conformal_family"]["strictly_negative"]))


def test_counts_clifford_match_index(clifford32):
    # the stability potential n + |S|^2 = 4 of the square torus
    rs = check_eigenvalue_counts(
        clifford32,
        4.0,
        m=3,
        vc_reference=CLIFFORD_AREA,
        immersion=SphereImmersion.identity(clifford32),
        kappa=1.0,
        minimal_in_sphere=True,
    )
    assert all(r.ok for r in rs)
    assert {r.name for r in rs} == {
        "count-conformal",
        "count-minimal",
        "count-curvature",
    }
    assert rs[0].detail["observed_count"] == 5


def test_count_replay_refuses_a_zero_count_under_a_positive_potential(sphere3, monkeypatch):
    negative_count = harness.negative_count
    monkeypatch.setattr(
        harness, "negative_count", lambda mesh, V: replace(negative_count(mesh, V), count=0)
    )
    with pytest.raises(VerificationError, match="^constant function makes the form negative"):
        check_eigenvalue_counts(
            sphere3, 1.0, vc_reference=SPHERE_AREA, immersion=SphereImmersion.identity(sphere3)
        )


def test_count_replay_refuses_a_guarantee_its_annuli_do_not_meet(sphere3, monkeypatch):
    # with the counting constant set to 1, V = 1.5 guarantees a count of 1
    # that no annulus function, its Rayleigh quotient above 1.5, witnesses
    constants = harness.proof_constants
    monkeypatch.setattr(
        harness, "proof_constants",
        lambda n, m: replace(constants(n, m), count_conformal=Fraction(1)),
    )
    with pytest.raises(VerificationError, match="^guaranteed count >= 1 but an annulus function"):
        check_eigenvalue_counts(
            sphere3, 1.5, vc_reference=SPHERE_AREA, immersion=SphereImmersion.identity(sphere3)
        )


def test_counts_reject_signed_potential(sphere3):
    with pytest.raises(ValueError):
        check_eigenvalue_counts(sphere3, -1.0, vc_reference=SPHERE_AREA)


def test_counts_refuse_an_integral_past_the_float_range(sphere3):
    # each value is finite, their area-weighted sum is not; no overflow warning either
    with pytest.raises(ValueError, match="^int V must be finite, got inf$"):
        check_eigenvalue_counts(sphere3, 1e308, vc_reference=SPHERE_AREA)


def test_index_refuses_an_average_past_the_float_range(sphere3):
    # each |S|^2 value is finite, their area-weighted sum is not
    with pytest.raises(ValueError, match="^avg shape_squared must be finite, got inf$"):
        check_index(sphere3, 1e308)


# every entry point that reads a per-vertex field, with the name it gives it
_FIELD_READERS = {
    "negative_count": ("potential", negative_count),
    "stability_index": ("shape_squared", stability_index),
    "check_eigenvalue_counts": ("potential", check_eigenvalue_counts),
    "check_index": ("shape_squared", check_index),
    "pushforward_measure": (
        "density", lambda mesh, v: pushforward_measure(SphereImmersion.identity(mesh), v)
    ),
}


@pytest.mark.parametrize("reader", sorted(_FIELD_READERS))
@pytest.mark.parametrize("shape", ["nv-1", "nv,1", "0"])
def test_field_readers_refuse_a_shape_that_is_not_one_value_per_vertex(sphere3, reader, shape):
    name, read = _FIELD_READERS[reader]
    values = {
        "nv-1": np.ones(sphere3.nv - 1), "nv,1": np.ones((sphere3.nv, 1)), "0": np.ones(0)
    }[shape]
    match = f"^{name} must be a scalar or one value per vertex"
    with pytest.raises(ValueError, match=match) as got:
        read(sphere3, values)
    assert len(str(got.value).splitlines()) == 1


def _light(sphere, count):
    mu = pushforward_measure(SphereImmersion.identity(sphere))
    return select_light(mu, gny_decompose(mu, 4), count)


# every entry point that takes a count: the name it gives it, its least value
# (None: any integer) and a call on the pairs of icosphere(3)
_COUNT_READERS = {
    "icosphere": ("level", 0, lambda spec, v: icosphere(v)),
    "veronese": ("level", 2, lambda spec, v: veronese(v)),
    "flat_torus": ("n", 3, lambda spec, v: flat_torus(1.0, 1.0, v)),
    "clifford_torus": ("n", 8, lambda spec, v: clifford_torus(v)),
    "revolution_torus": ("n", 8, lambda spec, v: revolution_torus(2.0, 1.0, v)),
    "proof_constants-n": ("n", 2, lambda spec, v: proof_constants(v, 2)),
    "proof_constants-m": ("m", 2, lambda spec, v: proof_constants(2, v)),
    "genus_conformal_volume_bound": ("genus", 0, lambda spec, v: genus_conformal_volume_bound(
        v, True)),
    "check_higher_eigenvalues": ("kmax", 1, lambda spec, v: check_higher_eigenvalues(
        spec.mesh, v, vc_reference=SPHERE_AREA, spectrum=spec)),
    "run_verification": ("kmax", 1, lambda spec, v: run_verification("higher", kmax=v)),
    "build_witness_chain": ("k", 1, lambda spec, v: build_witness_chain(
        spec.mesh, SphereImmersion.identity(spec.mesh), v, SPHERE_AREA, spectrum=spec)),
    "gny_decompose": ("k", 1, lambda spec, v: gny_decompose(
        pushforward_measure(SphereImmersion.identity(spec.mesh)), v)),
    "select_light": ("count", 1, lambda spec, v: _light(spec.mesh, v)),
    "eigensolve": ("count", 1, lambda spec, v: eigensolve(spec.mesh, v)),
    "weyl_fit": ("k_range[0]", 1, lambda spec, v: weyl_fit(spec, (v, 20))),
    "conformal_volume": ("starts", 1, lambda spec, v: conformal_volume(
        SphereImmersion.identity(spec.mesh), starts=v)),
    "SphereImmersion.power": ("degree", None, lambda spec, v: SphereImmersion.power(spec.mesh, v)),
    "SpectrumResult.head": ("count", 1, lambda spec, v: spec.head(v)),
    "check_index": ("reference_index", 0, lambda spec, v: check_index(
        spec.mesh, 0.0, reference_index=v)),
}
_COUNT_CASES = [
    (reader, value)
    for reader, (_, least, _) in _COUNT_READERS.items()
    for value in [2.5, True] + ([] if least is None else [least - 1])
]


@pytest.mark.parametrize("reader, value", _COUNT_CASES)
def test_count_readers_refuse_what_is_not_an_integer_in_range(sphere3_spec, reader, value):
    name, _, read = _COUNT_READERS[reader]
    match = rf"^{re.escape(name)} must be an integer.*, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match) as got:
        read(sphere3_spec, value)
    assert len(str(got.value).splitlines()) == 1


# every public entry point that takes a seed, called on icosphere(3)
_SEED_READERS = {
    "gny_decompose": lambda spec, s: gny_decompose(
        pushforward_measure(SphereImmersion.identity(spec.mesh)), 2, seed=s),
    "eigensolve": lambda spec, s: eigensolve(spec.mesh, 2, seed=s),
    "conformal_volume": lambda spec, s: conformal_volume(
        SphereImmersion.identity(spec.mesh), seed=s),
    "build_witness_chain": lambda spec, s: build_witness_chain(
        spec.mesh, SphereImmersion.identity(spec.mesh), 1, SPHERE_AREA, seed=s, spectrum=spec),
    "check_first_eigenvalue": lambda spec, s: check_first_eigenvalue(
        spec.mesh, vc_reference=SPHERE_AREA, seed=s, spectrum=spec),
    "check_eigenvalue_counts": lambda spec, s: check_eigenvalue_counts(spec.mesh, 1.0, seed=s),
    "run_verification": lambda spec, s: run_verification("constants", s),
}


@pytest.mark.parametrize("reader", sorted(_SEED_READERS))
@pytest.mark.parametrize("seed", [None, -1, 1.5, True])
def test_seed_readers_refuse_what_is_not_a_nonnegative_integer(sphere3_spec, reader, seed):
    # None drew fresh poles under a cached table's key, -1 and 1.5 failed
    # inside numpy, and True passed as 1
    message = rf"^seed must be an integer >= 0, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message) as got:
        _SEED_READERS[reader](sphere3_spec, seed)
    assert len(str(got.value).splitlines()) == 1


def test_seeds_accept_numpy_integers():
    report = run_verification("constants", np.int64(3))
    assert type(report.seed) is int and report.as_dict()["seed"] == 3


def test_counts_accept_numpy_integers_and_refuse_past_their_most(sphere3_spec):
    sphere = sphere3_spec.mesh
    assert type(integer(np.int64(3), "k", 1)) is int
    numpy_count = eigensolve(sphere, np.int64(4))
    assert np.array_equal(numpy_count.eigenvalues, eigensolve(sphere, 4).eigenvalues)
    with pytest.raises(ValueError, match=r"^count must be an integer in \[1, 642\], got 643$"):
        eigensolve(sphere, 643)
    with pytest.raises(ValueError, match=r"^count must be an integer in \[1, 4\], got 5$"):
        _light(sphere, 5)


# ---------------------------------------------------------------------- #
# index


def test_index_reference_surfaces(sphere3, clifford32):
    r = check_index(sphere3, 0.0, reference_index=1)
    assert r.ok and r.detail["index"] == 1
    r = check_index(clifford32, 2.0, reference_index=5)
    assert r.ok and r.detail["index"] == 5


def test_index_flags_reference_mismatch(sphere3):
    r = check_index(sphere3, 0.0, reference_index=3)
    assert r.status == "fail"


# ---------------------------------------------------------------------- #
# conformal balance


def test_balance_centered_sphere_is_exact(sphere3):
    bal = conformal_balance(sphere3)
    # every term is constant on the centered sphere and the discrete
    # identity closes to rounding
    assert bal.max_abs < 1e-10
    assert bal.integrated_ok
    assert bal.willmore == pytest.approx(0.5 * bal.lifted_energy, rel=1e-3)


def test_balance_residual_decays():
    d = balance_decay(levels=(3, 4))
    assert d["factors"][0] >= 2.5
    assert d["oracle_gap"][1] < d["oracle_gap"][0]
    assert d["oracle"] == pytest.approx(16 * np.pi / (0.5**4 + 4.0))


def test_balance_needs_embedded_surface():
    with pytest.raises(ValueError):
        conformal_balance(flat_torus(2 * np.pi, 2 * np.pi, 8))


def test_balance_holds_off_the_sphere(fat_torus):
    bal = conformal_balance(fat_torus)
    assert bal.integrated_ok
    assert bal.willmore > 0.5 * bal.lifted_energy


def _reference_pointwise_laplacian(mesh, values, refine=2):
    """The quadratic fit of `_pointwise_laplacian` one vertex at a time,
    with the frame from `svd` and every fit from `lstsq`."""
    x = mesh.vertices
    K, _ = assemble_laplacian(mesh)
    pattern = sp.csr_matrix((np.ones_like(K.data), K.indices, K.indptr), shape=K.shape)
    pattern.setdiag(1.0)
    ring2 = ((pattern @ pattern) > 0).tocsr()
    out = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        nb = ring2.indices[ring2.indptr[i] : ring2.indptr[i + 1]]
        d = x[nb] - x[i]
        _, _, Vt = np.linalg.svd(d - d.mean(axis=0), full_matrices=False)
        t1, t2, nu = Vt
        for _ in range(refine):
            u, v, w = d @ t1, d @ t2, d @ nu
            G = np.stack([np.ones_like(u), u, v, 0.5 * u * u, u * v, 0.5 * v * v], axis=1)
            bw = np.linalg.lstsq(G, w, rcond=None)[0]
            nu = nu - bw[1] * t1 - bw[2] * t2
            nu /= np.linalg.norm(nu)
            t1 = t1 - (t1 @ nu) * nu
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(nu, t1)
        u, v = d @ t1, d @ t2
        G = np.stack([np.ones_like(u), u, v, 0.5 * u * u, u * v, 0.5 * v * v], axis=1)
        b = np.linalg.lstsq(G, values[nb], rcond=None)[0]
        out[i] = -(b[3] + b[5])
    return out


@pytest.fixture(scope="module")
def fit_cases():
    """(name, mesh, values, reference Laplacian) on meshes whose
    2-rings differ in size and shape."""
    s3 = icosphere(3)
    jitter = np.random.default_rng(5).normal(scale=3e-3, size=s3.vertices.shape)
    clifford = clifford_torus(16)
    x4 = clifford.vertices
    meshes = {
        # 2-rings of 16, 18 and 19 vertices
        "off-centre sphere": TriangleMesh(s3.vertices + [0.5, 0.0, 0.0], s3.faces),
        "jittered sphere": TriangleMesh(s3.vertices + jitter, s3.faces),
        "revolution torus": revolution_torus(3.0, 1.0, 24),
        # stereographic image of the Clifford torus, an embedded grid
        "projected Clifford": TriangleMesh(x4[:, :3] / (1.0 - x4[:, 3:]), clifford.faces),
    }
    cases = []
    for name, mesh in meshes.items():
        x = mesh.vertices
        for values in (
            np.log(4.0 / (1.0 + np.sum(x * x, axis=1)) ** 2),
            np.sin(x[:, 0]) * x[:, 1] + x[:, 2] ** 2,
        ):
            want = _reference_pointwise_laplacian(mesh, values)
            cases.append((name, mesh, values, want))
    return cases


@pytest.mark.parametrize("block", [1, harness._FIT_BLOCK])
def test_pointwise_laplacian_matches_scalar_reference(fit_cases, block, monkeypatch):
    monkeypatch.setattr(harness, "_FIT_BLOCK", block)
    for name, mesh, values, want in fit_cases:
        got = harness._pointwise_laplacian(mesh, values)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def test_pointwise_laplacian_rejects_underdetermined_rings():
    tetra = TriangleMesh(
        np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0),
        np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]]),
    )
    with pytest.raises(ValueError, match="at least 6 vertices"):
        conformal_balance(tetra)
    # the octahedron's 2-rings have 6 vertices, two of them over the centre
    octa = TriangleMesh(
        np.vstack([np.eye(3), -np.eye(3)]),
        np.array([[0, 1, 2], [1, 3, 2], [3, 4, 2], [4, 0, 2],
                  [1, 0, 5], [3, 1, 5], [4, 3, 5], [0, 4, 5]]),
    )
    with pytest.raises(ValueError, match="too degenerate"):
        conformal_balance(octa)


# ---------------------------------------------------------------------- #
# witness chain


def test_witness_chain_sphere(sphere3):
    chain = build_witness_chain(
        sphere3, SphereImmersion.identity(sphere3), k=2, vc_reference=SPHERE_AREA
    )
    assert chain.ok
    assert chain.selected.shape == (3,)
    assert chain.energies.max() <= 8 * SPHERE_AREA
    assert chain.lambda_k <= chain.rayleighs.max() * (1 + 1e-9)
    assert chain.error_bars["exact_links"] == 0.0


def test_witness_chain_refuses_masses_below_the_floor(sphere3, monkeypatch):
    replay = harness._replay_family

    def at_half_the_floor(*args, **kwargs):
        *receipts, shell_masses, energies, _ = replay(*args, **kwargs)
        return (*receipts, shell_masses, energies, 0.5 * 81.0 / 625.0 * shell_masses)

    monkeypatch.setattr(harness, "_replay_family", at_half_the_floor)
    with pytest.raises(VerificationError, match="^squared mass fell below 81/625"):
        build_witness_chain(
            sphere3, SphereImmersion.identity(sphere3), k=2, vc_reference=SPHERE_AREA
        )


def test_witness_chain_rejects_k_zero(sphere3):
    with pytest.raises(ValueError):
        build_witness_chain(
            sphere3, SphereImmersion.identity(sphere3), k=0, vc_reference=SPHERE_AREA
        )


def test_witness_chain_needs_a_vc_reference(sphere3, sphere3_spec):
    with pytest.raises(ValueError, match="^the witness chain needs vc_reference$"):
        build_witness_chain(
            sphere3, SphereImmersion.identity(sphere3), 2, None, spectrum=sphere3_spec
        )


# ---------------------------------------------------------------------- #
# the annulus replay and its exact links


def test_exact_orthogonality_detects_overlap(sphere3):
    K, _ = assemble_laplacian(sphere3)
    U = np.ones((2, sphere3.nv))
    with pytest.raises(VerificationError, match="^supports of test functions 0 and 1 overlap$"):
        _exact_orthogonality(K, U)


def test_exact_orthogonality_detects_a_vanishing_function(sphere3):
    K, _ = assemble_laplacian(sphere3)
    U = np.zeros((2, sphere3.nv))
    U[0, 0] = 1.0
    with pytest.raises(VerificationError, match="^test function 1 vanishes identically$"):
        _exact_orthogonality(K, U)


def test_exact_orthogonality_detects_coupled_neighbours(sphere3):
    # indicators of the two ends of one edge: disjoint supports that the
    # stiffness matrix couples
    K, _ = assemble_laplacian(sphere3)
    a, b = sphere3.edges[0]
    U = np.zeros((2, sphere3.nv))
    U[0, a] = U[1, b] = 1.0
    with pytest.raises(VerificationError, match="^stiffness cross terms not exactly zero"):
        _exact_orthogonality(K, U)


_NORTH, _SOUTH = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])


def _replay(mesh, monkeypatch, annuli=None):
    """Replay two annuli on `mesh` under the identity with unit weight:
    packed against its area measure, or the given `annuli` in their place."""
    if annuli is not None:
        family = AnnulusFamily(annuli, 0.5, 1e-3)
        monkeypatch.setattr(harness, "gny_decompose", lambda *args, **kwargs: family)
    immersion = SphereImmersion.identity(mesh)
    return harness._replay_family(immersion, pushforward_measure(immersion), 2, 0, 1.0)


def test_replay_refuses_a_family_failing_re_verification(sphere3, monkeypatch):
    # the doubles of two annuli about one centre overlap
    annuli = [Annulus(_NORTH, 0.0, 0.3), Annulus(_NORTH, 0.3, 0.6)]
    with pytest.raises(VerificationError, match="^annulus family failed re-verification$"):
        _replay(sphere3, monkeypatch, annuli)


def test_replay_refuses_test_functions_below_the_floor(sphere3, monkeypatch):
    u_annulus = harness.u_annulus
    monkeypatch.setattr(harness, "u_annulus", lambda annulus, q: 0.5 * u_annulus(annulus, q))
    with pytest.raises(VerificationError, match="^test function 0 dips below 9/25 on its annulus"):
        _replay(sphere3, monkeypatch)


def test_replay_of_an_annulus_with_a_hole(sphere3, monkeypatch):
    # packed families start at inner radius 0, so only a given family
    # makes the replay run bar_phi
    calls = []
    bar_phi = moebius.bar_phi

    def counting(*args):
        calls.append(args)
        return bar_phi(*args)

    monkeypatch.setattr(moebius, "bar_phi", counting)
    annuli = [Annulus(_NORTH, 0.3, 0.6), Annulus(_SOUTH, 0.0, 0.3)]
    gap, beta, chosen, shell_masses, energies, masses = _replay(sphere3, monkeypatch, annuli)
    assert len(calls) == 1
    assert gap > 0.0 and beta == 0.5
    assert chosen.tolist() == [0, 1]
    assert np.all(energies > 0.0)
    assert np.all(masses >= 81.0 / 625.0 * shell_masses)


# ---------------------------------------------------------------------- #
# full battery


def test_run_verification_section_subset():
    rep = run_verification("constants", seed=0)
    assert [name for name, _ in rep.sections] == ["constants"]
    assert rep.all_ok
    assert any("total:" in line for line in rep.lines())


def test_run_verification_rejects_unknown_section():
    with pytest.raises(ValueError):
        run_verification("everything")


def test_run_verification_weyl_deterministic():
    a = run_verification("weyl", seed=0)
    b = run_verification("weyl", seed=0)
    assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
        b.as_dict(), sort_keys=True
    )
    assert a.as_dict()["schema_version"] == 1
