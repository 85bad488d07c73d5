from __future__ import annotations

import gc
import itertools
import logging
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenvol import packing
from eigenvol.confvol import SphereImmersion
from eigenvol.fixtures import clifford_torus, icosphere, revolution_torus
from eigenvol.harness import R_MAX_TEST
from eigenvol.moebius import Annulus, geodesic_distance
from eigenvol.packing import (
    AnnulusFamily,
    DiscreteMeasure,
    PackingError,
    _candidate_centers,
    _center_geometry,
    gny_decompose,
    pushforward_measure,
    select_light,
    shells_disjoint,
    verify_family,
)


def _uniform_measure(n, seed=0, m=2):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, m + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return DiscreteMeasure(pts, np.full(n, 4 * np.pi / n))


def _clustered_measure(n, seed=1):
    # two tight caps plus a sprinkling of background mass
    rng = np.random.default_rng(seed)
    c1 = np.array([0.0, 0.0, 1.0])
    c2 = np.array([1.0, 0.0, 0.0])
    blobs = []
    for c in (c1, c2):
        q = c + 0.15 * rng.standard_normal((n // 2, 3))
        blobs.append(q / np.linalg.norm(q, axis=1, keepdims=True))
    bg = rng.standard_normal((n // 4, 3))
    blobs.append(bg / np.linalg.norm(bg, axis=1, keepdims=True))
    pts = np.vstack(blobs)
    w = np.concatenate([np.full(n // 2, 1.0), np.full(n // 2, 1.0), np.full(n // 4, 0.05)])
    return DiscreteMeasure(pts, w)


# ---------------------------------------------------------------------- #
# measures


def test_measure_repr_names_size_sphere_and_total():
    mu = DiscreteMeasure(np.eye(3), np.array([1.0, 2.0, 0.5]))
    assert repr(mu) == "DiscreteMeasure(3 atoms on S^2, total=3.5)"


def test_measure_merges_coincident_atoms():
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([1.0, 0.0, 0.0])
    mu = DiscreteMeasure(np.array([p, p, q]), np.array([1.0, 2.0, 3.0]))
    assert mu.size == 2
    assert mu.total == pytest.approx(6.0)
    assert mu.merged_atoms == 1
    heavier = mu.weights[np.argmax(mu.points @ p)]
    assert heavier == pytest.approx(3.0)


def test_measure_drops_zero_weights():
    pts = np.eye(3)
    mu = DiscreteMeasure(pts, np.array([1.0, 0.0, 2.0]))
    assert mu.size == 2


def test_measure_rejects_bad_input():
    pts = np.eye(3)
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteMeasure(pts, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="unit sphere"):
        DiscreteMeasure(2 * pts, np.ones(3))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_measure_rejects_non_finite_input(bad):
    pts = np.eye(3)
    with pytest.raises(ValueError, match="must be finite"):
        DiscreteMeasure(pts, np.array([1.0, bad, 1.0]))
    pts[1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        DiscreteMeasure(pts, np.ones(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measure_rejects_overflowing_total(sphere3):
    with pytest.raises(ValueError, match="finite total"):
        DiscreteMeasure(np.eye(3), np.full(3, 1e308))
    with pytest.raises(ValueError, match="finite total"):
        pushforward_measure(SphereImmersion.identity(sphere3), density=1e308)


def test_pushforward_refuses_weights_past_the_float_range():
    # each vertex area and the density are finite, their product is not
    torus = SphereImmersion.lifted(revolution_torus(300.0, 100.0, 8))
    with pytest.raises(ValueError, match="^density times vertex area must be finite$"):
        pushforward_measure(torus, density=1e308)


def test_pushforward_identity(sphere3):
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    assert mu.total == pytest.approx(sphere3.area, rel=1e-12)
    assert mu.size == sphere3.nv


def test_pushforward_density(sphere3):
    dens = np.zeros(sphere3.nv)
    dens[:10] = 2.0
    mu = pushforward_measure(SphereImmersion.identity(sphere3), density=dens)
    assert mu.size == 10
    assert mu.total == pytest.approx(2.0 * sphere3.vertex_areas[:10].sum())
    with pytest.raises(ValueError, match="nonnegative"):
        pushforward_measure(SphereImmersion.identity(sphere3), density=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="density must be finite"):
            pushforward_measure(SphereImmersion.identity(sphere3), density=bad)


# ---------------------------------------------------------------------- #
# exact shell tests


def test_shells_disjoint_concentric():
    p = np.array([0.0, 0.0, 1.0])
    assert shells_disjoint(Annulus(p, 0.1, 0.2), Annulus(p, 0.3, 0.4))
    assert shells_disjoint(Annulus(p, 0.1, 0.5), Annulus(p, 0.5, 0.9))  # touching
    assert not shells_disjoint(Annulus(p, 0.1, 0.3), Annulus(p, 0.2, 0.4))


def test_shells_disjoint_antipodal():
    p = np.array([0.0, 0.0, 1.0])
    # caps of radius .5 around antipodal centers never meet
    assert shells_disjoint(Annulus(p, 0.0, 0.5), Annulus(-p, 0.0, 0.5))
    # but radius 1.7 caps overlap near the equator
    assert not shells_disjoint(Annulus(p, 0.0, 1.7), Annulus(-p, 0.0, 1.7))
    # shells far out from both centers lie beyond d1 + d2 <= 2 pi - D:
    # antipodal at D = pi, and about centers 2.5 apart
    assert shells_disjoint(Annulus(p, 1.8, 2.5), Annulus(-p, 1.8, 2.5))
    q = np.array([np.sin(2.5), 0.0, np.cos(2.5)])
    assert shells_disjoint(Annulus(p, 2.0, 3.0), Annulus(q, 2.0, 3.0))
    # the antipodal [1.4, 2.5) shells share a band about the equator
    assert not shells_disjoint(Annulus(p, 1.4, 2.5), Annulus(-p, 1.4, 2.5))


def test_shells_disjoint_agrees_with_sampling():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((20000, 3))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    for trial in range(40):
        c1, c2 = samples[rng.integers(0, len(samples), 2)]
        r = np.sort(rng.uniform(0.05, 2.8, 4))
        A = Annulus(c1, r[0], r[1])
        B = Annulus(c2, r[2] - r[1], r[3] - r[1])
        both = A.contains(samples) & B.contains(samples)
        if shells_disjoint(A, B):
            assert not both.any(), f"trial {trial}: SAT says disjoint, sample disagrees"


# ---------------------------------------------------------------------- #
# decomposition


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_gny_uniform(k):
    mu = _uniform_measure(900, seed=5)
    fam = gny_decompose(mu, k, seed=0)
    assert len(fam.annuli) == k
    assert fam.beta >= 1e-2
    report = verify_family(mu, fam)
    assert report.ok
    assert report.disjoint
    assert report.max_double_membership <= 1
    assert np.all(report.masses >= fam.target)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_gny_clustered(k):
    mu = _clustered_measure(600)
    fam = gny_decompose(mu, k, seed=0)
    report = verify_family(mu, fam)
    assert report.ok
    assert fam.beta >= 1e-2


def test_gny_deterministic():
    mu = _uniform_measure(400, seed=6)
    f1 = gny_decompose(mu, 4, seed=3)
    f2 = gny_decompose(mu, 4, seed=3)
    assert f1.beta == f2.beta
    for a, b in zip(f1.annuli, f2.annuli):
        assert np.array_equal(a.center, b.center)
        assert a.inner == b.inner and a.outer == b.outer


def test_gny_respects_r_max():
    mu = _uniform_measure(500, seed=7)
    r_max = 0.49 * np.pi
    fam = gny_decompose(mu, 4, seed=0, r_max=r_max)
    assert max(a.outer for a in fam.annuli) <= r_max


def test_gny_gap_separates_doubles():
    mu = _uniform_measure(500, seed=8)
    gap = 0.08
    fam = gny_decompose(mu, 3, seed=0, gap=gap)
    doubles = [a.doubled() for a in fam.annuli]
    # inflating each double by gap/2 must preserve disjointness, which
    # certifies geodesic separation >= gap between the regions themselves
    eps = np.nextafter(np.pi, 0.0)
    for i in range(len(doubles)):
        for j in range(i + 1, len(doubles)):
            di, dj = doubles[i], doubles[j]
            gi = Annulus(di.center, max(0.0, di.inner - gap / 2), min(eps, di.outer + gap / 2))
            gj = Annulus(dj.center, max(0.0, dj.inner - gap / 2), min(eps, dj.outer + gap / 2))
            assert shells_disjoint(gi, gj)


def test_gny_single_atom_fails():
    mu = DiscreteMeasure(np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(PackingError):
        gny_decompose(mu, 2, seed=0)


def test_gny_input_validation():
    mu = _uniform_measure(50)
    with pytest.raises(ValueError):
        gny_decompose(mu, 0)
    with pytest.raises(ValueError):
        gny_decompose(mu, 2, gap=-0.1)
    with pytest.raises(ValueError):
        gny_decompose(mu, 2, r_max=0.0)


def test_select_light_bound():
    mu = _uniform_measure(800, seed=9)
    k = 3
    fam = gny_decompose(mu, 2 * (k + 1), seed=0)
    assert verify_family(mu, fam).ok
    chosen = select_light(mu, fam, k + 1)
    assert chosen.shape[0] == k + 1
    doubled = np.array([mu.mass(fam.annuli[i].doubled()) for i in chosen])
    assert np.all(doubled <= mu.total / (k + 1) + 1e-12)


def test_select_light_validation():
    mu = _uniform_measure(100)
    fam = gny_decompose(mu, 2, seed=0)
    with pytest.raises(ValueError):
        select_light(mu, fam, 5)


def test_select_light_refuses_overlapping_doubles():
    # two annuli about one centre whose doubles each hold over half the mass
    mu = _uniform_measure(400)
    north = np.array([0.0, 0.0, 1.0])
    fam = AnnulusFamily([Annulus(north, 0.0, 1.0), Annulus(north, 0.0, 1.1)], 0.5, 0.0)
    assert not verify_family(mu, fam).ok
    with pytest.raises(PackingError, match="are the doubles really disjoint"):
        select_light(mu, fam, 2)


# ---------------------------------------------------------------------- #
# the vectorised greedy against a scalar reference


def _reference_geometry(center, mu):
    d = geodesic_distance(center, mu.points)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    uniq, start = np.unique(ds, return_index=True)
    cum = np.cumsum(mu.weights[order])
    return uniq, cum[np.append(start[1:] - 1, len(ds) - 1)]


def _reference_gaps(center, shells, gap, distances):
    """Free distances from `center`: the complement in [0, pi] of the
    intervals each inflated shell blocks, one candidate at a time.
    `distances` keeps each scalar centre-to-centre distance, keyed by the
    two points' bytes, so that later rounds and betas read it back."""
    blocked, pole = [], center.tobytes()
    for s in shells:
        key = (pole, s.center.tobytes())
        if key not in distances:
            distances[key] = float(geodesic_distance(center, s.center))
        D = distances[key]
        lo, hi = max(0.0, s.inner - gap), min(np.pi, s.outer + gap)
        blocked.append((max(0.0, D - hi, lo - D), min(np.pi, D + hi, 2.0 * np.pi - D - lo)))
    gaps, cursor = [], 0.0
    for lo, hi in sorted(b for b in blocked if b[0] <= b[1]):
        if lo > cursor:
            gaps.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < np.pi:
        gaps.append((cursor, np.pi))
    return gaps


def _reference_gny(mu, k, seed=0, r_max=np.pi, gap=0.0):
    """The greedy of `gny_decompose` written one candidate and one gap at
    a time with scalar searches; returns (annuli, beta, tau) or raises."""
    centers = _candidate_centers(mu, seed)
    geometries = [_reference_geometry(c, mu) for c in centers]
    total = mu.total
    floor = 1.0 / (8.0 * 9.0 ** (12 * mu.dim))
    betas = [2.0 ** (-j) for j in range(1, 81) if 2.0 ** (-j) > floor] + [floor]
    attempts, distances = [], {}
    for beta in betas:
        tau = beta * total / k
        tau_greedy = tau + 1e-9 * total
        shells, annuli = [], []
        for _ in range(k):
            best = None
            for center, (uniq, cum_at) in zip(centers, geometries):
                for g_lo, g_hi in _reference_gaps(center, shells, gap, distances):
                    inner = 0.0 if g_lo == 0.0 else 2.0 * g_lo
                    upper = min(g_hi / 2.0, r_max)
                    if upper <= inner:
                        continue
                    base_idx = np.searchsorted(uniq, inner, side="left")
                    base = cum_at[base_idx - 1] if base_idx > 0 else 0.0
                    j = np.searchsorted(cum_at, base + tau_greedy, side="left")
                    if j >= uniq.shape[0]:
                        continue
                    nxt = uniq[j + 1] if j + 1 < uniq.shape[0] else np.pi
                    outer = min(0.5 * (uniq[j] + nxt), upper)
                    if outer > uniq[j] and (best is None or outer < best[0]):
                        best = (outer, Annulus(center, inner, float(outer)))
            if best is None:
                break
            annuli.append(best[1])
            shells.append(best[1].doubled())
        if len(annuli) == k:
            return annuli, beta, tau
        attempts.append((beta, len(annuli)))
    raise PackingError("reference packing failed", attempts=attempts)


@pytest.mark.parametrize("chunk", [1, packing._GEOMETRY_CHUNK])
def test_center_geometry_rows_are_prefixes(sphere3, chunk, monkeypatch):
    # icosphere atoms tie in distance, also at exactly pi/2; unequal
    # weights make the running sums depend on the order of tied atoms
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(sphere3.vertices, rng.uniform(0.1, 1.0, sphere3.nv))
    centers = _candidate_centers(mu, 0)
    length = rng.integers(1, mu.size + 1, centers.shape[0])
    reach = np.pi / 2
    monkeypatch.setattr(packing, "_GEOMETRY_CHUNK", chunk)
    radii, cum, first, last, complete = _center_geometry(centers, mu, length, reach)
    assert complete.any() and not complete.all()
    # the rows lie one after another and fill the table
    assert first[0] == 0 and last[-1] == radii.shape[0] - 1
    assert np.array_equal(first[1:], last[:-1] + 1)
    for i, c in enumerate(centers):
        uniq, cum_at = _reference_geometry(c, mu)
        d = np.sort(geodesic_distance(c, mu.points))
        # the length-th nearest atom or the first at distance >= reach,
        # whichever is nearer, ends the row together with its ties: the
        # running mass at the cut counts every atom tied there
        cut = min(d[length[i] - 1], d[min(np.searchsorted(d, reach), mu.size - 1)])
        size = np.searchsorted(uniq, cut, side="right")
        row = slice(first[i], last[i] + 1)
        assert np.array_equal(radii[row], np.append(uniq[:size], np.inf))
        assert np.array_equal(cum[row], np.append(cum_at[:size], np.inf))
        # relevant: every distance up to the first >= reach
        relevant = min(np.searchsorted(uniq, reach) + 1, uniq.shape[0])
        assert complete[i] == (size >= relevant)


def _assert_rows_match_reference(centers, mu, length, reach):
    """Every row of `_center_geometry` against the reference's full row:
    cut after the length-th atom or the first at distance >= reach, with
    every atom tied there.  Returns which rows reach `reach`."""
    radii, cum, first, last, complete = _center_geometry(centers, mu, length, reach)
    assert first[0] == 0 and last[-1] == radii.shape[0] - 1
    assert np.array_equal(first[1:], last[:-1] + 1)
    reached = np.empty(centers.shape[0], dtype=bool)
    for i, c in enumerate(centers):
        uniq, cum_at = _reference_geometry(c, mu)
        d = np.sort(geodesic_distance(c, mu.points))
        nth = d[min(length[i], mu.size) - 1]
        reached[i] = nth >= reach
        cut = min(nth, d[min(np.searchsorted(d, reach), mu.size - 1)])
        size = np.searchsorted(uniq, cut, side="right")
        row = slice(first[i], last[i] + 1)
        assert np.array_equal(radii[row], np.append(uniq[:size], np.inf))
        assert np.array_equal(cum[row], np.append(cum_at[:size], np.inf))
        relevant = min(np.searchsorted(uniq, reach) + 1, uniq.shape[0])
        assert complete[i] == (size >= relevant)
    return reached


@pytest.mark.parametrize("chunk", [1, packing._GEOMETRY_CHUNK])
def test_center_geometry_on_clifford_atoms_in_s3(chunk, monkeypatch):
    # the Clifford torus's grid ties many distances, in four coordinates;
    # start, full and random row lengths
    mesh = clifford_torus(16)
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(mesh.vertices, rng.uniform(0.1, 1.0, mesh.nv))
    centers = _candidate_centers(mu, 1)
    monkeypatch.setattr(packing, "_GEOMETRY_CHUNK", chunk)
    rows = centers.shape[0]
    for length in (np.full(rows, packing._start_length(mu.size, 8)), np.full(rows, mu.size),
                   rng.integers(1, mu.size + 1, rows)):
        for reach in (R_MAX_TEST, 0.3):
            _assert_rows_match_reference(centers, mu, length, reach)


def _rings(heights, count):
    """`count` atoms on each circle z = h: every atom of a circle lies at
    exactly the same distance from the north pole."""
    phi = 2.0 * np.pi * np.arange(count) / count
    return np.vstack([
        np.column_stack([np.sqrt(1.0 - h * h) * np.cos(phi),
                         np.sqrt(1.0 - h * h) * np.sin(phi), np.full(count, h)])
        for h in heights
    ])


@pytest.mark.parametrize("chunk", [1, packing._GEOMETRY_CHUNK])
def test_center_geometry_cut_on_a_tie_straddling_the_pivot(chunk, monkeypatch):
    # from the north pole, six atoms at each of three heights; the longest
    # row asks for 8, so the head holds 8 atoms and its pivot, the 9th,
    # ties with the cut of rows asking for 7 or 8: those rows hold all
    # twelve atoms of the first two circles, some from past the head
    rng = np.random.default_rng(2)
    pts = _rings([0.9, 0.6, 0.2], 6)
    mu = DiscreteMeasure(pts, rng.choice([0.25, 1.0, 3.0], pts.shape[0]))
    centers = np.repeat([[0.0, 0.0, 1.0]], 5, axis=0)
    length = np.array([8, 3, 6, 7, 8])
    monkeypatch.setattr(packing, "_GEOMETRY_CHUNK", chunk)
    radii, cum, first, last, complete = _center_geometry(centers, mu, length, np.pi)
    assert (last - first).tolist() == [2, 1, 1, 2, 2]
    assert not complete.any()
    _assert_rows_match_reference(centers, mu, length, np.pi)
    # a reach at the second circle ends the row there with all its atoms
    d = geodesic_distance(centers[0], pts[6])
    assert _assert_rows_match_reference(centers, mu, length, d).tolist() == [
        True, False, False, True, True
    ]


@pytest.mark.parametrize("chunk", [1, packing._GEOMETRY_CHUNK])
def test_center_geometry_rows_that_do_and_do_not_reach(chunk, monkeypatch):
    # one batch holds rows whose length-th atom lies short of the reach,
    # rows that pass it, and rows asked for every atom
    mu = _uniform_measure(300, seed=3)
    centers = _candidate_centers(mu, 0)
    rng = np.random.default_rng(6)
    length = rng.integers(1, 40, centers.shape[0])
    length[::7] = mu.size
    monkeypatch.setattr(packing, "_GEOMETRY_CHUNK", chunk)
    reached = _assert_rows_match_reference(centers, mu, length, 0.3)
    assert reached[length == mu.size].all()
    batch = reached[: max(1, packing._GEOMETRY_CHUNK // mu.size)]
    assert batch.size == 1 or (batch.any() and not batch.all())


def test_best_annulus_decides_only_what_the_full_row_decides():
    # Two copies of one candidate: its row cut after every number of
    # atoms, then its full row.  Random shells, masses and radius caps.
    # The copies tie, so the cut row must win whenever the full row wins:
    # short, or decided exactly as the full row, and never given up while
    # it could still beat the copy.
    rng = np.random.default_rng(7)
    pts = np.vstack([_symmetric_points(2), rng.standard_normal((200, 3))])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    mu = DiscreteMeasure(pts, rng.choice([0.25, 1.0, 3.0], pts.shape[0]))
    centers = _candidate_centers(mu, 0)
    lengths = np.arange(1, mu.size + 1)
    decided = short_rows = 0
    for trial in range(80):
        c = centers[rng.integers(0, centers.shape[0], 1)]
        f_radii, f_cum, _, _, _ = _center_geometry(c, mu, lengths[-1:], np.pi)
        f_size = f_radii.shape[0]
        r_max = rng.choice([np.pi, rng.uniform(0.2, np.pi)])
        shells = centers[rng.integers(0, centers.shape[0], rng.integers(0, 4))]
        tau = rng.uniform(0.01, 0.6) * mu.total
        if trial % 4 == 0:
            # no shells, tau first held at radius m, and r_max just short of
            # radius m + 1: the answer is the midpoint of the two, not r_max.
            # The closest such pair is the hardest to tell from r_max.
            m = np.argmin(np.diff(f_radii[: rng.integers(2, np.searchsorted(f_radii, 1.5))]))
            r_max = f_radii[m] + 0.75 * (f_radii[m + 1] - f_radii[m])
            shells, tau = shells[:0], f_cum[m]
        D = np.repeat(geodesic_distance(c[:, None, :], shells), 2, axis=0)
        lo = rng.uniform(0.0, 1.0, shells.shape[0])
        hi = np.minimum(lo + rng.uniform(0.05, 1.5, shells.shape[0]), np.pi)
        full = (np.tile(f_radii, 2), np.tile(f_cum, 2), np.array([0, f_size]),
                np.array([f_size - 1, 2 * f_size - 1]), np.ones(2, dtype=bool))
        want, _ = packing._best_annulus(full, D, lo, hi, tau, r_max, np.ones(D.shape[0], bool))
        radii, cum, first, last, complete = _center_geometry(
            np.repeat(c, mu.size, axis=0), mu, lengths, min(r_max, np.pi / 2)
        )
        for i in range(mu.size):
            row = slice(first[i], last[i] + 1)
            size = row.stop - row.start
            geometry = (np.append(radii[row], f_radii), np.append(cum[row], f_cum),
                        np.array([0, size]), np.array([size - 1, size + f_size - 1]),
                        np.array([complete[i], True]))
            got, short = packing._best_annulus(
                geometry, D, lo, hi, tau, r_max, np.ones(D.shape[0], bool)
            )
            short_rows += short.size
            if not short.size:
                decided += 1
                assert got == want
            else:
                assert short.tolist() == [0]
    assert decided > 1000 and short_rows > 300


def test_candidates_without_a_fitting_gap_stay_without_one_as_shells_are_added():
    # complete rows, shells added one at a time as in a beta round: the
    # mask changes no answer, and a candidate it loses fits no later query
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((150, 3))
    mu = DiscreteMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True),
                         rng.choice([0.5, 1.0, 2.0], pts.shape[0]))
    centers = _candidate_centers(mu, 0)
    geometry = _center_geometry(centers, mu, np.full(centers.shape[0], mu.size), np.pi)
    lost = 0
    for _ in range(20):
        tau = rng.uniform(0.02, 0.3) * mu.total
        r_max = rng.choice([np.pi, rng.uniform(0.3, np.pi)])
        shells = centers[rng.integers(0, centers.shape[0], 6)]
        lo = rng.uniform(0.0, 1.0, 6)
        hi = np.minimum(lo + rng.uniform(0.05, 1.0, 6), np.pi)
        alive = np.ones(centers.shape[0], dtype=bool)
        for s in range(7):
            D = geodesic_distance(centers[:, None, :], shells[:s])
            want, _ = packing._best_annulus(
                geometry, D, lo[:s], hi[:s], tau, r_max, np.ones(D.shape[0], bool)
            )
            dead = ~alive
            got, short = packing._best_annulus(geometry, D, lo[:s], hi[:s], tau, r_max, alive)
            assert got == want and short.size == 0
            assert not (dead & alive).any()
            assert packing._best_annulus(geometry, D, lo[:s], hi[:s], tau, r_max, dead)[0] is None
        lost += int((~alive).sum())
    assert lost > 100


def _symmetric_points(m):
    """Cross-polytope and cube vertices: many exactly equal distances."""
    axes = np.vstack([np.eye(m + 1), -np.eye(m + 1)])
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=m + 1)))
    return np.vstack([axes, cube / np.sqrt(m + 1)])


@st.composite
def _measures(draw):
    m = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sym = _symmetric_points(m)
    pick = draw(st.lists(st.integers(0, len(sym) - 1), max_size=12, unique=True))
    random = rng.standard_normal((draw(st.integers(0, 24)), m + 1))
    pts = np.vstack([sym[pick], random / np.linalg.norm(random, axis=1, keepdims=True)])
    if pts.shape[0] == 0:
        pts = sym[:1]
    # weights from a short list, so equal masses (and equal cumulative
    # masses) are common
    w = rng.choice([0.25, 1.0, 1.0, 3.0], size=pts.shape[0])
    return DiscreteMeasure(pts, w)


def _assert_same_packing(mu, k, **kw):
    try:
        ref = _reference_gny(mu, k, **kw)
    except PackingError as exc:
        with pytest.raises(PackingError) as got:
            gny_decompose(mu, k, **kw)
        if k > mu.size:
            # the scalar reference walks every round and fails too; the
            # decomposition refuses at once, as k disjoint annuli of
            # positive mass hold k distinct atoms
            assert str(got.value) == (
                f"cannot pack {k} disjoint annuli of positive mass around {mu.size} atoms"
            )
        else:
            assert got.value.attempts == exc.attempts
        return
    fam = gny_decompose(mu, k, **kw)
    annuli, beta, tau = ref
    assert (fam.beta, fam.target) == (beta, tau)
    assert len(fam.annuli) == len(annuli)
    for a, b in zip(fam.annuli, annuli):
        assert np.array_equal(a.center, b.center)
        assert (a.inner, a.outer) == (b.inner, b.outer)


@settings(max_examples=80, deadline=None)
@given(
    mu=_measures(),
    k=st.integers(1, 10),
    seed=st.integers(0, 3),
    gap=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    r_max=st.one_of(st.just(np.pi), st.floats(0.2, 3.0)),
)
def test_gny_matches_scalar_reference(mu, k, seed, gap, r_max):
    _assert_same_packing(mu, k, seed=seed, gap=gap, r_max=r_max)


@settings(max_examples=80, deadline=None)
@given(
    mu=_measures(),
    k=st.integers(1, 10),
    seed=st.integers(0, 3),
    gap=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    r_max=st.one_of(st.just(np.pi), st.floats(0.2, 3.0)),
)
def test_gny_matches_scalar_reference_from_one_atom_rows(mu, k, seed, gap, r_max):
    # every row starts at its nearest atoms and must be grown to decide
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_start_length", lambda n, k: 1)
        _assert_same_packing(mu, k, seed=seed, gap=gap, r_max=r_max)


@settings(max_examples=80, deadline=None)
@given(
    mu=_measures(),
    k=st.integers(1, 10),
    seed=st.integers(0, 3),
    gap=st.one_of(st.just(0.0), st.floats(0.01, 0.4)),
    r_max=st.one_of(st.just(np.pi), st.floats(0.2, 3.0)),
)
def test_gny_matches_scalar_reference_from_three_atom_rows(mu, k, seed, gap, r_max):
    # rows of a few atoms decide some queries and are cut short for later
    # ones, so cut rows are carried across rounds and rebuilt in later queries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_start_length", lambda n, k: 3)
        _assert_same_packing(mu, k, seed=seed, gap=gap, r_max=r_max)


def test_three_atom_rows_are_rebuilt_over_several_queries(caplog):
    # heavy atoms let three-atom rows decide the first queries; the rows
    # that later queries find short are rebuilt then
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 3))
    mu = DiscreteMeasure(pts / np.linalg.norm(pts, axis=1, keepdims=True),
                         rng.choice([0.25, 1.0, 1.0, 3.0], size=40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_start_length", lambda n, k: 3)
        with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
            _assert_same_packing(mu, 8)
    (record,) = caplog.records
    assert record.args["rebuilds"] > 1
    assert 0 < record.args["extended"] < record.args["candidates"]


def test_gny_failure_matches_scalar_reference():
    pts = _symmetric_points(2)[:3]
    mu = DiscreteMeasure(pts, np.ones(3))
    with pytest.raises(PackingError):
        gny_decompose(mu, 9, seed=0)
    _assert_same_packing(mu, 9, seed=0)


def test_gny_failure_at_the_atom_count_walks_every_round_like_the_reference():
    # k equal to the atom count is not refused up front: on three atoms of
    # the coordinate axes the greedy fails in every round, as the reference does
    mu = DiscreteMeasure(_symmetric_points(2)[:3], np.ones(3))
    with pytest.raises(PackingError, match="^could not pack 3 annuli") as got:
        gny_decompose(mu, 3, seed=0)
    assert len(got.value.attempts) == 80
    _assert_same_packing(mu, 3, seed=0)


@pytest.mark.parametrize(
    "r_max, gap", [(np.pi, 0.0), (0.49 * np.pi, 0.05), (R_MAX_TEST, 0.1)]
)
def test_gny_matches_scalar_reference_on_a_mesh(sphere3, r_max, gap):
    # icosphere atoms: thousands of exactly tied distances
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    _assert_same_packing(mu, 8, r_max=r_max, gap=gap)


def test_gny_matches_scalar_reference_with_holes():
    # two of these four annuli have a hole: their centers lie in an
    # earlier doubled shell, so the mass inside the inner radius counts
    mu = _clustered_measure(600)
    assert sum(a.inner > 0.0 for a in gny_decompose(mu, 4).annuli) == 2
    _assert_same_packing(mu, 4)


def test_gny_table_stays_short(sphere4, caplog):
    # the table the greedy ends with, read from the one DEBUG record of
    # the decomposition; the full table holds (n + 32)(n + 1) entries
    mu = pushforward_measure(SphereImmersion.identity(sphere4))
    with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
        fam = gny_decompose(mu, 8, r_max=R_MAX_TEST)
    (record,) = caplog.records
    stats = record.args
    assert (stats["atoms"], stats["candidates"]) == (mu.size, mu.size + 32)
    assert stats["full"] == (mu.size + 32) * (mu.size + 1)
    assert stats["entries"] <= 0.25 * stats["full"]
    assert stats["trail"][-1] == (fam.beta, 8)


def test_gny_reuses_its_table_for_the_same_seed_and_reach(sphere3, caplog):
    # a second decomposition of the same measure grows the first one's
    # table instead of building its own, and packs what a fresh one packs
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
        gny_decompose(mu, 6, r_max=R_MAX_TEST)
        again = gny_decompose(mu, 3, r_max=R_MAX_TEST)
        gny_decompose(mu, 3, seed=1, r_max=R_MAX_TEST)
        gny_decompose(mu, 3)
    assert [r.args["table"] for r in caplog.records] == ["built", "reused", "built", "built"]
    fresh = gny_decompose(
        pushforward_measure(SphereImmersion.identity(sphere3)), 3, r_max=R_MAX_TEST
    )
    assert [a.as_dict() for a in again.annuli] == [a.as_dict() for a in fresh.annuli]
    assert (again.beta, again.target) == (fresh.beta, fresh.target)


def test_a_seed_sweep_keeps_only_the_last_table(sphere3, caplog):
    # every (seed, reach) kept its own table for the measure's lifetime:
    # seeds 0-3 on icosphere(4)'s measure grew the process by 54 MB
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    reach = min(R_MAX_TEST, np.pi / 2)
    released = []
    with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
        for seed in range(4):
            gny_decompose(mu, 4, seed=seed, r_max=R_MAX_TEST)
            key, (radii, *_) = mu._table
            assert key == (seed, reach)
            released.append(weakref.ref(radii.base))
            del radii
            gc.collect()
            assert [table() is None for table in released] == [True] * seed + [False]
        gny_decompose(mu, 2, seed=3, r_max=R_MAX_TEST)
        gny_decompose(mu, 2, seed=0, r_max=R_MAX_TEST)
    assert [r.args["table"] for r in caplog.records] == ["built"] * 4 + ["reused", "built"]


def test_grown_rows_are_rebuilt_once_complete_within_the_reserved_room(sphere3, caplog):
    # every row starts at its nearest atom; two decompositions share one
    # table, and each short row is rebuilt complete after the table's last
    # entry, into room reserved with the table, at most once
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_start_length", lambda n, k: 1)
        with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
            gny_decompose(mu, 6, r_max=R_MAX_TEST)
            gny_decompose(mu, 3, r_max=R_MAX_TEST)
    key, (radii, cum, first, last, complete) = mu._table
    centers = _candidate_centers(mu, key[0])
    rows, n = centers.shape[0], mu.size
    extended = [r.args["extended"] for r in caplog.records]
    assert extended[0] > 0 and max(extended) <= rows
    # the rows as built take two entries each; rebuilt rows follow them
    grown = first >= 2 * rows
    assert grown.sum() == sum(extended)
    assert complete[grown].all()
    assert radii.shape[0] <= radii.base.shape[0] == 2 * rows + rows * (n + 1)
    assert cum.shape == radii.shape and cum.base.shape == radii.base.shape
    for i, c in enumerate(centers):
        uniq, cum_at = _reference_geometry(c, mu)
        size = last[i] - first[i]
        row = slice(first[i], last[i] + 1)
        assert np.array_equal(radii[row], np.append(uniq[:size], np.inf))
        assert np.array_equal(cum[row], np.append(cum_at[:size], np.inf))
        if grown[i]:
            # complete: every distance up to the first >= reach
            assert size == min(np.searchsorted(uniq, key[1]) + 1, uniq.shape[0])


def test_debug_record_times_the_table_and_its_grown_rows(sphere3, caplog):
    # one-atom start rows are grown; a second decomposition reuses the table
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "_start_length", lambda n, k: 1)
        with caplog.at_level(logging.DEBUG, logger="eigenvol.packing"):
            gny_decompose(mu, 6, r_max=R_MAX_TEST)
            gny_decompose(mu, 6, r_max=R_MAX_TEST)
    built, reused = (r.args for r in caplog.records)
    assert built["table"] == "built" and built["table_s"] > 0.0
    assert built["extended"] > 0 and built["grow_s"] > 0.0
    assert reused["table"] == "reused" and reused["table_s"] == 0.0
    assert reused["extended"] == 0 and reused["grow_s"] == 0.0
    assert " s, " in caplog.records[0].getMessage()


def test_unseeded_decomposition_is_refused_before_a_table_is_kept():
    # seed=None drew fresh poles under one table key, so a second call
    # read rows built for other poles
    mu = DiscreteMeasure(icosphere(2).vertices, icosphere(2).vertex_areas)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got None$"):
            gny_decompose(mu, 4, seed=None)
    assert mu._table == (None, None)


def test_unreservable_table_is_a_packing_error(sphere3, packing_without_room):
    mu = pushforward_measure(SphereImmersion.identity(sphere3))
    with pytest.raises(PackingError, match=(
        r"^cannot reserve the distance table of 642 atoms and 674 candidates: 7818400 bytes$"
    )):
        gny_decompose(mu, 8)


def test_measure_atoms_follow_the_unit_sphere_rule():
    # atoms off the sphere by 5e-10 were accepted, and then no annulus
    # could be centred at them
    sphere = icosphere(2)
    with pytest.raises(ValueError, match=r"^point not on the unit sphere \(\|norm - 1\| = 5\.0"):
        DiscreteMeasure(sphere.vertices * (1.0 + 5e-10), sphere.vertex_areas)
    DiscreteMeasure(sphere.vertices * (1.0 + 5e-13), sphere.vertex_areas)


@pytest.mark.parametrize("make, message", [
    (lambda mu: DiscreteMeasure(np.eye(3), np.ones(2)),
     r"points and weights must align, shapes \(3, 3\) / \(2,\)"),
    (lambda mu: gny_decompose(DiscreteMeasure(np.eye(3), np.zeros(3)), 1), "measure has no mass"),
] + [
    (lambda mu, gap=gap: gny_decompose(mu, 2, gap=gap), "gap must be finite and nonnegative")
    for gap in (-0.1, np.nan, np.inf)
])
def test_packing_refusals(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(_uniform_measure(50))
