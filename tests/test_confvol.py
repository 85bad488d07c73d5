from __future__ import annotations

import hashlib

import numpy as np
import pytest

from eigenvol import confvol
from eigenvol.confvol import (
    HERSCH_TOL,
    SphereImmersion,
    _bfgs,
    _corners,
    _face_area_gradient,
    conformal_distortion,
    conformal_volume,
    hersch_center,
    inverse_stereographic,
    pullback_volume,
    spherical_face_areas,
)
from eigenvol.fixtures import clifford_torus, flat_torus, icosphere, revolution_torus, veronese
from eigenvol.mesh import TriangleMesh, willmore_energy
from eigenvol.moebius import MoebiusMap, ball_dilation, dilation_gradient, xi_map


# ---------------------------------------------------------------------- #
# lifts and spherical areas


def test_inverse_stereographic_lands_on_sphere():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 3)) * 3.0
    y = inverse_stereographic(x)
    assert y.shape == (200, 4)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_lifts_keep_their_bytes():
    # the lift is the chart's inverse from the north pole, padded by a
    # zero coordinate; every added zero must leave the bits alone
    lifted = SphereImmersion.lifted(revolution_torus(3.0, 1.0, 32)).images
    assert _sha256(lifted) == (
        "a381d85ddd8f6f100d6c37743ab162bd7b5c8de64006dd1d22fd35803dbd8212")
    shifted = icosphere(5).vertices + np.array([0.5, 0.0, 0.0])
    assert _sha256(inverse_stereographic(shifted)) == (
        "3068ae41f2125775f8a349d5d430f4f680f982154e0d020c1e75470d5c288dd9")


def test_inverse_stereographic_origin_and_infinity():
    # origin -> south pole of the last axis, large |x| -> north pole
    y0 = inverse_stereographic(np.zeros((1, 2)))
    np.testing.assert_allclose(y0[0], [0.0, 0.0, -1.0], atol=1e-15)
    yb = inverse_stereographic(np.array([[1e8, 0.0]]))
    assert yb[0, -1] > 1.0 - 1e-10


def test_spherical_face_areas_tile_the_sphere(sphere3):
    areas = spherical_face_areas(sphere3.vertices, sphere3.faces)
    assert np.all(areas > 0)
    # geodesic triangles tile S^2 exactly; only rounding in the sum
    assert abs(areas.sum() - 4 * np.pi) < 1e-9


def test_spherical_face_areas_octant():
    # one octant face with three right angles: area pi/2
    pts = np.eye(3)
    areas = spherical_face_areas(pts, np.array([[0, 1, 2]]))
    np.testing.assert_allclose(areas[0], np.pi / 2, rtol=1e-13)


# ---------------------------------------------------------------------- #
# distortion


def test_distortion_identity_is_roundoff(sphere3):
    # source and image layouts are built from bitwise-equal lengths, so
    # only the solve itself contributes
    rep = conformal_distortion(SphereImmersion.identity(sphere3))
    assert rep.max_log_distortion <= 1e-12
    assert rep.singular.size == 0
    assert rep.singular_area == 0.0


def test_distortion_flags_collapsed_faces(sphere3):
    images = sphere3.vertices.copy()
    f = sphere3.faces[7]
    images[f[1]] = images[f[0]]  # merge two image vertices
    rep = conformal_distortion(SphereImmersion(sphere3, images))
    # both faces sharing the collapsed edge go singular; their images are
    # flattened to zero spherical area, so nothing is misattributed
    assert 7 in rep.singular
    assert rep.singular.size == 2
    assert rep.singular_area == 0.0
    assert np.isinf(rep.values[7])
    # the surviving neighbours of the merged vertex are distorted but finite
    assert np.isfinite(rep.max_log_distortion)
    assert rep.max_log_distortion > 0.5


def test_distortion_singular_area_counts_the_immersions_singular_faces(sphere3):
    # the crease faces of a fold are left out of the maximum though their
    # images are not degenerate; the area they hide is the pullback's error bar
    imm = SphereImmersion.fold(sphere3, np.array([0.0, 0.6, 0.8]))
    rep = conformal_distortion(imm)
    assert rep.singular.size == 0 and imm.singular_faces.size > 0
    assert rep.singular_area == pullback_volume(imm).error_bar > 0.25


def test_distortion_of_moebius_dilation_is_positive_but_finite(sphere3):
    g = MoebiusMap(np.array([0.0, 0.0, 1.0]), 2.0)
    rep = conformal_distortion(SphereImmersion(sphere3, g(sphere3.vertices)))
    assert rep.singular.size == 0
    # a genuine Moebius map is conformal in the limit; the PL transcription
    # keeps a small but nonzero residue
    assert 0 < rep.max_log_distortion < 0.2


# ---------------------------------------------------------------------- #
# immersions and pullback volume


def test_identity_pullback_is_total_sphere_area(sphere3, sphere4):
    for mesh in (sphere3, sphere4):
        vol = pullback_volume(SphereImmersion.identity(mesh))
        assert abs(vol.value - 4 * np.pi) < 1e-9


def test_moebius_moved_identity_still_tiles(sphere3):
    imm = SphereImmersion.identity(sphere3)
    g = MoebiusMap(np.array([0.3, -0.5, 0.81]) / np.linalg.norm([0.3, -0.5, 0.81]), 3.0)
    vol = pullback_volume(SphereImmersion(imm.mesh, g(imm.images)))
    assert abs(vol.value - 4 * np.pi) < 1e-9


def test_fold_loses_a_strip_and_reports_singular_faces(sphere3):
    imm = SphereImmersion.fold(sphere3, np.array([0.0, 0.0, 1.0]))
    vol = pullback_volume(imm)
    assert imm.singular_faces.size > 0
    # both hemispheres land on one, so the total is ~4 pi minus the crease
    assert 11.0 < vol.value < 4 * np.pi + 1e-9
    assert vol.error_bar < 0.5


def test_power_map_covers_degree_times(sphere4):
    imm = SphereImmersion.power(sphere4, 2)
    vol = pullback_volume(imm)
    assert abs(vol.value - 8 * np.pi) < 1e-3
    assert imm.singular_faces.size == 0


def test_power_map_rejects_vertex_on_axis(sphere3):
    # rotate the mesh about v x p so that vertex 0 lands on the axis p
    v, p = sphere3.vertices[0], confvol._GENERIC_POLE
    axis = np.cross(v, p)
    sin, cos = np.linalg.norm(axis), v @ p
    x, y, z = axis / sin
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    R = np.eye(3) + sin * K + (1.0 - cos) * K @ K
    rotated = TriangleMesh(sphere3.vertices @ R.T, sphere3.faces)
    with pytest.raises(ValueError, match="projection axis"):
        SphereImmersion.power(rotated, 2)


def test_immersion_validates_inputs(sphere3):
    with pytest.raises(ValueError, match="unit sphere"):
        SphereImmersion(sphere3, sphere3.vertices * 1.01)
    with pytest.raises(ValueError, match="per vertex"):
        SphereImmersion(sphere3, sphere3.vertices[:-1])


def test_lifted_torus_volume_close_to_clifford_value():
    # the stereographic image of the Clifford torus is a revolution torus
    # with R/r = sqrt 2; its lift has pullback area 2 pi^2
    mesh = revolution_torus(np.sqrt(2.0), 1.0, 32)
    vol = pullback_volume(SphereImmersion.lifted(mesh))
    assert abs(vol.value - 2 * np.pi**2) / (2 * np.pi**2) < 0.01


# ---------------------------------------------------------------------- #
# conformal volume search


def test_conformal_volume_of_round_sphere_keeps_identity(sphere3):
    res = conformal_volume(SphereImmersion.identity(sphere3), seed=0)
    assert res.start == -1  # no dilation beat the identity
    assert abs(res.value - 4 * np.pi) < 1e-9
    assert not res.diverged


def test_conformal_volume_is_deterministic(sphere3):
    imm = SphereImmersion.identity(sphere3)
    a = conformal_volume(imm, seed=7)
    b = conformal_volume(imm, seed=7)
    assert a.value == b.value
    assert a.map.as_dict() == b.map.as_dict()


def test_conformal_volume_exceeds_any_single_pullback():
    mesh = revolution_torus(3.0, 1.0, 16)
    imm = SphereImmersion.lifted(mesh)
    base = pullback_volume(imm).value
    res = conformal_volume(imm, starts=2, seed=0)
    assert res.value >= base - 1e-12


def test_fat_torus_conformal_volume_below_willmore():
    # strict inequality: conformal volume lower bound < integral of |H|^2
    mesh = revolution_torus(3.0, 1.0, 24)
    res = conformal_volume(SphereImmersion.lifted(mesh), starts=2, seed=0)
    assert res.value < willmore_energy(mesh)


@pytest.mark.parametrize("R, floor", [
    # the values the coordinate ascent over pole and strength reported on
    # these tori; a supremum search may only raise its lower bound
    (3.0, 16.328490551861975),
    (2.0, 17.685290746721062),
])
def test_conformal_volume_reaches_floor_and_map_reproduces_it(R, floor):
    imm = SphereImmersion.lifted(revolution_torus(R, 1.0, 16))
    res = conformal_volume(imm, starts=2, seed=0)
    assert res.value >= floor
    assert not res.diverged and res.map.t > 1.0
    moved = pullback_volume(SphereImmersion(imm.mesh, res.map(imm.images), imm.singular_faces))
    assert moved.value == pytest.approx(res.value, rel=1e-12)
    assert moved.error_bar == pytest.approx(res.error_bar, rel=1e-12)


def test_search_error_bar_is_the_singular_area_of_its_map():
    # the search's maximum lies inside the ball here, so a singular area
    # read at any other evaluated dilation would differ in its 8th digit
    torus = revolution_torus(3.0, 1.0, 16)
    lifted = SphereImmersion.lifted(torus)
    imm = SphereImmersion(torus, lifted.images, singular_faces=np.arange(0, torus.nf, 7))
    res = conformal_volume(imm, starts=2, seed=0)
    assert not res.diverged and res.error_bar > 0.0
    moved = pullback_volume(SphereImmersion(imm.mesh, res.map(imm.images), imm.singular_faces))
    assert moved.value == pytest.approx(res.value, rel=1e-12)
    assert moved.error_bar == pytest.approx(res.error_bar, rel=1e-12)


def test_fold_search_diverges(sphere3):
    # two sheets over a hemisphere: the volume grows toward 8 pi as the
    # dilation concentrates, so the search ends at the strength cap
    imm = SphereImmersion.fold(sphere3, np.array([0.0, 0.6, 0.8]))
    res = conformal_volume(imm, seed=0)
    assert res.diverged
    assert np.log(res.map.t) >= 0.999 * np.log(10.0)
    assert pullback_volume(imm).value < res.value < 8 * np.pi
    moved = pullback_volume(SphereImmersion(imm.mesh, res.map(imm.images), imm.singular_faces))
    assert moved.value == pytest.approx(res.value, rel=1e-12)
    assert moved.error_bar == pytest.approx(res.error_bar, rel=1e-12)
    assert res.error_bar > 0.0


def test_bfgs_minimizes_rosenbrock():
    seen = []

    def rosenbrock(x):
        f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        seen.append((f, x))
        return f, np.array([
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ])

    _bfgs(rosenbrock, np.array([-1.2, 1.0]))
    f, x = min(seen, key=lambda e: e[0])
    assert np.max(np.abs(x - 1.0)) < 1e-6
    assert len(seen) < 100


@pytest.mark.parametrize("distance", [1e2, 1e4, 1e6])
def test_bfgs_reaches_a_far_minimum_in_logarithmically_many_calls(distance):
    # sum of log cosh: the gradient saturates at 1 away from the minimum,
    # as the search's radial gradient does towards the strength cap, so
    # only steps that lengthen get there in O(log distance) calls
    target = distance * np.array([0.6, 0.8])
    seen = []

    def log_cosh(x):
        seen.append(x)
        d = x - target
        return np.sum(np.logaddexp(d, -d)), np.tanh(d)

    g = _bfgs(log_cosh, np.zeros(2))
    assert np.max(np.abs(g)) < 1e-5
    assert np.max(np.abs(seen[-1] - target)) < 1e-4
    assert len(seen) <= 8 * np.log2(distance)


def test_bfgs_stops_when_no_step_makes_an_armijo_decrease():
    # a gradient of the wrong sign points every step uphill: steps shrink
    # below 1e-10 and the search stops where it started
    seen = []

    def uphill(x):
        seen.append(x)
        return x @ x, -2.0 * x

    g = _bfgs(uphill, np.ones(2))
    assert np.array_equal(g, [-2.0, -2.0])  # the gradient at the start
    assert np.max(np.abs(seen[-1] - 1.0)) < 1e-9  # the last trial, a step under 1e-10 |d|
    assert 2 < len(seen) < 100


@pytest.mark.parametrize("starts", [0, -1])
def test_conformal_volume_rejects_no_starts(sphere3, starts):
    with pytest.raises(ValueError, match=f"^starts must be an integer >= 1, got {starts}$"):
        conformal_volume(SphereImmersion.identity(sphere3), starts=starts)


def test_search_value_is_the_pullback_volume_of_its_map():
    # each objective call scores one dilation the way pullback_volume
    # scores the moved immersion, so the reported value is that volume
    # to the bit, and so is its error bar
    torus = revolution_torus(3.0, 1.0, 16)
    imm = SphereImmersion(
        torus, SphereImmersion.lifted(torus).images, singular_faces=np.arange(0, torus.nf, 7)
    )
    res = conformal_volume(imm, starts=2, seed=0)
    moved = pullback_volume(SphereImmersion(imm.mesh, res.map(imm.images), imm.singular_faces))
    assert res.map.t > 1.0
    assert (moved.value, moved.error_bar) == (res.value, res.error_bar)


def _volume_and_gradient(imm, w):
    """Pullback volume of xi(w) and its closed-form gradient in w."""
    g = MoebiusMap(*ball_dilation(w))
    moved = SphereImmersion(imm.mesh, g(imm.images), imm.singular_faces)
    active = np.ones(imm.mesh.nf, dtype=bool)
    active[imm.singular_faces] = False
    corners = _corners(moved.images, imm.mesh.faces)
    G = _face_area_gradient(corners, imm.mesh.faces, active, imm.mesh.nv)
    return pullback_volume(moved).value, dilation_gradient(w, imm.images, G)


def _central_differences(fun, x, h=1e-6):
    return np.array([(fun(x + h * e) - fun(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


@pytest.mark.parametrize("case, scale", [
    ("lifted", 0.8),  # a torus in R^3 lifted to S^3
    ("fold", 0.8),  # singular crease faces left out of value and gradient
    ("lifted", 1e-12),  # the identity limit, v -> v - (v.q) q
    ("fold", 0.0),
])
def test_volume_gradient_matches_central_differences(sphere3, case, scale):
    if case == "lifted":
        imm = SphereImmersion.lifted(revolution_torus(3.0, 1.0, 16))
    else:
        imm = SphereImmersion.fold(sphere3, np.array([0.0, 0.6, 0.8]))
        assert imm.singular_faces.size
    rng = np.random.default_rng(11)
    for _ in range(3):
        w = scale * rng.standard_normal(imm.images.shape[1])
        _, grad = _volume_and_gradient(imm, w)
        fd = _central_differences(lambda v: _volume_and_gradient(imm, v)[0], w)
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("case", ["lifted", "fold"])
def test_search_objective_gradient_matches_central_differences(sphere3, monkeypatch, case):
    # the objective in the search coordinates y, through the strength cap
    # w = log(MAX_T) tanh|y| y/|y|, captured from the search itself
    if case == "lifted":
        imm = SphereImmersion.lifted(revolution_torus(3.0, 1.0, 16))
    else:
        imm = SphereImmersion.fold(sphere3, np.array([0.0, 0.6, 0.8]))
    objectives = []

    def capture(fun, x):
        objectives.append(fun)
        return fun(x)[1]

    monkeypatch.setattr(confvol, "_bfgs", capture)
    conformal_volume(imm, starts=1)
    (fun,) = objectives
    rng = np.random.default_rng(2)
    dim = imm.images.shape[1]
    for scale in (1e-13, 0.4, 2.5):
        y = scale * rng.standard_normal(dim)
        fd = _central_differences(lambda v: fun(v)[0], y)
        assert np.max(np.abs(fun(y)[1] - fd)) <= 1e-6 * max(np.max(np.abs(fd)), 1e-3)


# the values the forward-difference search reported on the lifted
# revolution_torus(4, 1, 20) at seeds 0-4, after creeping to the strength
# cap in 1411-4086 evaluations
_CAP_CREEP_VALUES = [
    15.83661158384407, 15.836611589032794, 15.836611589951898,
    15.836611587864068, 15.836611583423124,
]


@pytest.mark.parametrize("seed", range(5))
def test_search_reaches_the_strength_cap_without_creeping(seed):
    imm = SphereImmersion.lifted(revolution_torus(4.0, 1.0, 20))
    res = conformal_volume(imm, seed=seed)
    assert res.diverged
    assert res.evaluations < 1411
    assert res.value == pytest.approx(_CAP_CREEP_VALUES[seed], rel=1e-8)
    assert res.evaluations == 1 + sum(e["evaluations"] for e in res.trace[1:])
    assert all(e["max_gradient"] >= 0.0 for e in res.trace[1:])


# ---------------------------------------------------------------------- #
# Hersch centering


def test_hersch_center_fixes_symmetric_mesh(sphere3):
    res = hersch_center(SphereImmersion.identity(sphere3))
    assert res.moment_norm < HERSCH_TOL
    assert res.iterations == 0
    assert res.map.t == 1.0  # bitwise identity


def test_hersch_center_damps_steps_that_do_not_lower_the_moment(sphere3, monkeypatch):
    # xi(e3, 100) piles nearly all the mass at the pole: the full step
    # overshoots, and the damping halves it 30 times on the way to the centre
    areas = sphere3.vertex_areas
    imm = SphereImmersion(sphere3, xi_map(np.array([0.0, 0.0, 1.0]), 100.0, sphere3.vertices))
    trials = []

    def moved(pole, t, pts):
        out = xi_map(pole, t, pts)
        trials.append(np.linalg.norm(areas @ out) / areas.sum())
        return out

    monkeypatch.setattr(confvol, "xi_map", moved)
    res = hersch_center(imm)
    best = np.linalg.norm(areas @ imm.images) / areas.sum()
    rejected = 0
    for norm in trials:
        rejected += norm >= best
        best = min(best, norm)
    assert (res.iterations, len(trials), rejected) == (95, 95, 30)
    assert res.moment_norm < HERSCH_TOL


def test_hersch_center_stops_at_its_damping_floor(sphere3):
    # every image at one pole: no dilation moves it, the moment never
    # drops, and the damping halves from 1 below 1e-8 in 27 rejected steps
    north = np.tile([0.0, 0.0, 1.0], (sphere3.nv, 1))
    res = hersch_center(SphereImmersion(sphere3, north))
    assert res.iterations == 26
    assert res.moment_norm == pytest.approx(1.0, rel=1e-12)


def test_hersch_center_recenters_a_dilated_sphere(sphere4):
    p = np.array([0.0, 1.0, 0.0])
    g = MoebiusMap(p, 3.0)
    imm = SphereImmersion(sphere4, g(sphere4.vertices))
    areas = imm.mesh.vertex_areas
    before = np.linalg.norm(areas @ imm.images) / areas.sum()
    res = hersch_center(imm)
    after = np.linalg.norm(areas @ res.map(imm.images)) / areas.sum()
    assert before > 0.5  # the dilation really did pile mass up
    assert res.moment_norm < HERSCH_TOL
    assert after < 1e-10


# (pole, t, iterations, moment norm) of the centring as exact hex floats,
# so that a change to the dilation helper it shares with the search cannot
# move the centring, or the battery's replay built on it, unnoticed
_HERSCH_PINNED = {
    "sphere": (
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        "0x1.0000000000000p+0", 0, "0x1.b36036875d859p-56",
    ),
    "clifford": (
        ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        "0x1.0000000000000p+0", 0, "0x1.2e22596ac94e2p-53",
    ),
    "veronese": (
        ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        "0x1.0000000000000p+0", 0, "0x1.8cf18aea098b2p-56",
    ),
    "revolution": (
        ["0x1.c73fbc5ddb9e5p-56", "-0x1.c37c907eeef5dp-58", "0x1.d04d5dee45139p-55", "-0x1.0000000000000p+0"],
        "0x1.9679b2758eb00p+1", 9, "0x1.0d4055d27456ap-36",
    ),
    "replay": (
        ["-0x1.481e5cf2be54fp-3", "0x1.a2e1cb6fe1672p-1", "-0x1.1ac275dd8773cp-1"],
        "0x1.7fffffff36ce9p+0", 20, "0x1.65ad316695b62p-34",
    ),
}


def _replay_input(seed):
    # the benchmark's Hersch replay input: icosphere(4) dilated by 1.5
    # toward the second unit vector its seed draws
    rng = np.random.default_rng(seed)
    rng.standard_normal(3)
    pole = rng.standard_normal(3)
    sphere = icosphere(4)
    return SphereImmersion(sphere, xi_map(pole / np.linalg.norm(pole), 1.5, sphere.vertices))


@pytest.mark.parametrize("name, immersion", [
    ("sphere", lambda: SphereImmersion.identity(icosphere(3))),
    ("clifford", lambda: SphereImmersion.identity(clifford_torus(32))),
    ("veronese", lambda: SphereImmersion.identity(veronese(3))),
    ("revolution", lambda: SphereImmersion.lifted(revolution_torus(3.0, 1.0, 32))),
    ("replay", lambda: _replay_input(0)),
])
def test_hersch_center_is_pinned(name, immersion):
    res = hersch_center(immersion())
    got = ([float(x).hex() for x in res.map.pole], float(res.map.t).hex(),
           res.iterations, float(res.moment_norm).hex())
    assert got == _HERSCH_PINNED[name]


@pytest.mark.parametrize("row, scale, worst", [(7, np.nan, "nan"), (None, 1.0 + 5e-10, "5.0")])
def test_immersion_images_follow_the_unit_sphere_rule(row, scale, worst):
    # a NaN row used to build an immersion whose search died with KeyError,
    # and images off by 5e-10 one that no annulus could be centred on
    sphere = icosphere(2)
    images = sphere.vertices.copy()
    images[row if row is not None else slice(None)] *= scale
    with pytest.raises(ValueError, match=rf"^point not on the unit sphere \(\|norm - 1\| = {worst}"):
        SphereImmersion(sphere, images)


@pytest.mark.parametrize("make, message", [
    (lambda: inverse_stereographic(np.array([[1e9, 0.0, 0.0]])),
     "vertex too far from the origin for a stable lift; recenter first"),
    (lambda: SphereImmersion(icosphere(1), np.eye(3)), "need one image point per vertex"),
    (lambda: SphereImmersion(icosphere(1), icosphere(1).vertices, [80]),
     "singular face index out of range"),
    (lambda: SphereImmersion.identity(revolution_torus()),
     r"point not on the unit sphere \(\|norm - 1\| = 1\.414e\+00\)"),
    (lambda: SphereImmersion.identity(flat_torus(1.0, 1.0, 8)),
     "identity immersion needs a unit_sphere mesh"),
    (lambda: SphereImmersion.fold(revolution_torus(), [0.0, 0.0, 1.0]),
     "fold needs a unit_sphere mesh"),
    (lambda: SphereImmersion.fold(icosphere(2), [0.0, 1.0]),
     r"pole must have 3 coordinates, got shape \(2,\)"),
    (lambda: SphereImmersion.fold(icosphere(2), [0.0, 0.0, 2.0]),
     r"pole not on the unit sphere \(\|norm - 1\| = 1\.000e\+00\)"),
    (lambda: SphereImmersion.power(revolution_torus(), 2),
     r"power map needs a unit_sphere mesh in R\^3"),
    (lambda: SphereImmersion.power(clifford_torus(8), 2),
     r"power map needs a unit_sphere mesh in R\^3"),
    (lambda: SphereImmersion.power(icosphere(1), 0), "degree must be nonzero"),
    (lambda: SphereImmersion(icosphere(1), icosphere(1).vertices, np.ones(80, bool)),
     "singular_faces must be face indices, got dtype bool"),
])
def test_immersion_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
