from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenvol.moebius import (
    Annulus,
    MoebiusMap,
    bar_phi,
    cap_parameters,
    fold_map,
    geodesic_distance,
    phi_cap,
    sphere_point,
    stereographic,
    stereographic_inverse,
    u_annulus,
    xi_map,
)


def _rand_sphere(rng, m, size):
    q = rng.standard_normal((size, m + 1))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


unit_vec3 = (
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)


def test_sphere_point_rejects_off_sphere():
    with pytest.raises(ValueError):
        sphere_point([1.0, 1.0, 0.0])


def test_stereographic_round_trip():
    rng = np.random.default_rng(7)
    p = np.array([0.0, 0.0, 1.0])
    q = _rand_sphere(rng, 2, 200)
    q = q[q[:, 2] < 0.95]
    back = stereographic_inverse(p, stereographic(p, q))
    assert np.max(np.abs(back - q)) < 1e-12


def test_stereographic_radius_is_cot_half_angle():
    p = np.array([0.0, 0.0, 1.0])
    for theta in [0.3, 1.0, 2.0, 2.9]:
        q = np.array([np.sin(theta), 0.0, np.cos(theta)])
        r = np.linalg.norm(stereographic(p, q))
        assert r == pytest.approx(1.0 / np.tan(theta / 2.0), rel=1e-12)


def test_xi_identity_and_fixed_points():
    rng = np.random.default_rng(0)
    p = _rand_sphere(rng, 2, 1)[0]
    q = _rand_sphere(rng, 2, 50)
    assert np.max(np.abs(xi_map(p, 1.0, q) - q)) < 1e-14
    for t in [0.2, 3.7]:
        assert np.max(np.abs(xi_map(p, t, p) - p)) < 1e-14
        assert np.max(np.abs(xi_map(p, t, -p) + p)) < 1e-14


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_geodesic_distance_sums_like_numpy(dim):
    # packings compare these distances bit for bit with the ones
    # Annulus.contains recomputes, so every layout must sum the same way
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((40, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    expected = np.arccos(np.clip(np.sum(x[:, None, :] * x, axis=-1), -1.0, 1.0))
    assert np.array_equal(geodesic_distance(x[:, None, :], x), expected)
    assert all(np.array_equal(geodesic_distance(p, x), row) for p, row in zip(x, expected))


@settings(max_examples=60, deadline=None)
@given(p=unit_vec3, q=unit_vec3, t=st.floats(0.05, 20.0), s=st.floats(0.05, 20.0))
def test_xi_group_law(p, q, t, s):
    lhs = xi_map(p, t, xi_map(p, s, q))
    rhs = xi_map(p, t * s, q)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(p=unit_vec3, q=unit_vec3, t=st.floats(0.05, 20.0))
def test_xi_inverse(p, q, t):
    assert np.max(np.abs(xi_map(p, 1.0 / t, xi_map(p, t, q)) - q)) < 1e-9


def test_xi_pulls_toward_pole_monotonically():
    # height along p strictly increases with t for interior points
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([np.sin(2.0), 0.0, np.cos(2.0)])
    heights = [xi_map(p, t, q)[2] for t in [0.5, 1.0, 2.0, 4.0, 8.0]]
    assert np.all(np.diff(heights) > 0)


def test_cap_parameters_closed_form():
    for R in np.linspace(0.05, np.pi / 2 - 0.05, 25):
        t, rho = cap_parameters(R)
        assert t == np.tan(R)
        assert rho == 1.0 + 1.0 / np.cos(R)
    # image radius tends to 2 for small caps
    assert cap_parameters(1e-8)[1] == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        cap_parameters(np.pi / 2)


def test_phi_cap_values_and_support():
    rng = np.random.default_rng(3)
    p = _rand_sphere(rng, 2, 1)[0]
    R = 0.7
    assert phi_cap(R, p, p) == pytest.approx(1.0)
    q = _rand_sphere(rng, 2, 5000)
    d = geodesic_distance(p, q)
    vals = phi_cap(R, p, q)
    assert np.all(vals[d >= 2 * R] == 0.0)
    assert np.all(vals[d < 2 * R] >= 0.0)
    # lower bound 3/5 on the inner ball
    assert np.min(vals[d <= R]) >= 0.6 - 1e-9


def test_phi_cap_boundary_value_matches_formula():
    # at distance R the value is (rho^2 - 1) / (rho^2 + 1)
    p = np.array([0.0, 0.0, 1.0])
    for R in [0.3, 0.8, 1.2]:
        _, rho = cap_parameters(R)
        q = np.array([np.sin(R), 0.0, np.cos(R)])
        expect = (rho**2 - 1.0) / (rho**2 + 1.0)
        assert phi_cap(R, p, q) == pytest.approx(expect, rel=1e-12)
        assert expect >= 0.6


def test_bar_phi_values_and_support():
    rng = np.random.default_rng(4)
    p = _rand_sphere(rng, 2, 1)[0]
    r = 0.9
    q = _rand_sphere(rng, 2, 5000)
    d = geodesic_distance(p, q)
    vals = bar_phi(r, p, q)
    assert np.all(vals[d <= r / 2] == 0.0)
    assert bar_phi(r, p, -p) == pytest.approx(1.0)
    assert np.min(vals[d >= r]) >= 0.6 - 1e-9


def test_u_annulus_lower_bound_on_annulus():
    rng = np.random.default_rng(5)
    p = _rand_sphere(rng, 2, 1)[0]
    ann = Annulus(p, 0.4, 1.1)
    q = _rand_sphere(rng, 2, 8000)
    d = geodesic_distance(p, q)
    vals = u_annulus(ann, q)
    on_annulus = (d >= ann.inner) & (d < ann.outer)
    assert np.min(vals[on_annulus]) >= 9.0 / 25.0 - 1e-9
    # support is contained in the doubled annulus
    outside_double = (d < ann.inner / 2) | (d >= 2 * ann.outer)
    assert np.all(vals[outside_double] == 0.0)


def test_u_annulus_degenerates_to_cap():
    p = np.array([0.0, 1.0, 0.0])
    ann = Annulus(p, 0.0, 0.8)
    q = _rand_sphere(np.random.default_rng(6), 2, 100)
    assert np.allclose(u_annulus(ann, q), phi_cap(0.8, p, q))


def test_annulus_validation_and_doubling():
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Annulus(p, 0.5, 0.4)
    a = Annulus(p, 0.4, 1.0)
    d = a.doubled()
    assert d.inner == 0.2 and d.outer == 2.0
    with pytest.raises(ValueError):
        u_annulus(Annulus(p, 0.1, 2.0), p)  # outer >= pi/2


def test_fold_map_folds_onto_hemisphere():
    rng = np.random.default_rng(8)
    p = _rand_sphere(rng, 2, 1)[0]
    q = _rand_sphere(rng, 2, 500)
    folded = fold_map(p, q)
    dots = folded @ p
    assert np.all(dots >= -1e-15)
    norms = np.linalg.norm(folded, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    upper = q @ p >= 0
    assert np.array_equal(folded[upper], q[upper])


@pytest.mark.parametrize("t", [0.0, -2.0])
def test_moebius_map_rejects_nonpositive_strength(t):
    with pytest.raises(ValueError, match="must be positive"):
        MoebiusMap(np.array([0.0, 0.0, 1.0]), t)


def test_moebius_map_rejects_off_sphere_pole():
    with pytest.raises(ValueError, match="unit sphere"):
        MoebiusMap(np.array([0.0, 0.0, 1.1]), 2.0)


def _half_radius_cover_counts(m, trials, seed, samples):
    """Greedy covers of sampled random balls of S^m by half-radius balls.

    Each trial samples a random ball B_r(a) and covers the samples by
    balls of radius r/2, each centred at the first sample still uncovered;
    returns the number of balls each trial took.
    """
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(trials):
        a = _rand_sphere(rng, m, 1)[0]
        r = float(rng.uniform(0.05, np.pi))
        cloud = _rand_sphere(rng, m, samples)
        cloud = cloud[geodesic_distance(a, cloud) < r]
        covered = np.zeros(cloud.shape[0], dtype=bool)
        count = 0
        while not covered.all():
            covered |= geodesic_distance(cloud[np.argmin(covered)], cloud) < r / 2.0
            count += 1
        counts.append(count)
    return counts


def test_covering_witness_stays_under_bound():
    # every ball is covered by 9^m balls of half its radius, the covering
    # number behind the packing floor 1/(8 9^(12 m))
    assert max(_half_radius_cover_counts(1, trials=10, seed=2, samples=800)) <= 9
    assert max(_half_radius_cover_counts(2, trials=4, seed=3, samples=1500)) <= 81


_POLE = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("make, message", [
    (lambda: stereographic(_POLE, _POLE), "stereographic projection undefined at the pole itself"),
    (lambda: bar_phi(np.pi, _POLE, _POLE), r"inner radius must lie in \(0, pi\), got 3\.14"),
    (lambda: sphere_point([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]]),
     r"point not on the unit sphere \(\|norm - 1\| = nan\)"),
] + [
    (lambda t=t: xi_map(_POLE, t, _POLE), "dilation parameter t must be positive and finite")
    for t in (0.0, -1.0, np.nan, np.inf, np.array([2.0, np.nan]))
] + [
    (lambda t=t: MoebiusMap(_POLE, t), "dilation parameter t must be positive and finite")
    for t in (np.nan, np.inf)
])
def test_moebius_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        make()
