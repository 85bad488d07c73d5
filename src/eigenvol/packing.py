"""Greedy decomposition of measures on the sphere into disjoint annuli.

Given a finite measure mu on S^m and a number k, the goal is a family of
k spherical annuli whose *doubled* shells (half the inner radius, twice
the outer) are pairwise disjoint while every annulus still captures a
definite fraction of the total mass.  The existence theorem guarantees
mass mu(M)/(8 * 9^(12 m) k) per annulus; the greedy search below starts
from much more ambitious targets and relaxes toward that floor, so in
practice each annulus carries a mass fraction thousands of times larger
than the guaranteed one.

Disjointness is never checked by sampling.  Two shells around centers at
geodesic distance D are compared through the exact feasibility polygon
{ |d1 - d2| <= D,  d1 + d2 >= D,  d1 + d2 <= 2 pi - D } of distance
pairs realizable on the sphere, which reduces the question to four
closed-form inequalities.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .mesh import integer, real, vertex_values
from .moebius import Annulus, geodesic_distance, sphere_point

__all__ = [
    "AnnulusFamily",
    "DiscreteMeasure",
    "FamilyReport",
    "PackingError",
    "gny_decompose",
    "pushforward_measure",
    "select_light",
    "shells_disjoint",
    "verify_family",
]

log = logging.getLogger(__name__)


class PackingError(RuntimeError):
    """Greedy decomposition failed; carries the relaxation trail."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


class DiscreteMeasure:
    """Finite atomic measure on the unit sphere.

    Coincident atoms (equal to 12 decimals) are merged on construction,
    keeping the first occurrence as the representative point; zero-weight
    atoms are dropped.  Non-finite points or weights, negative weights and
    weights whose total overflows are rejected.  Its points and weights
    are not changed after construction; :func:`gny_decompose` keeps on it
    the distance table of its last call, for a next decomposition with
    the same seed and reach.
    """

    def __init__(self, points, weights):
        points = real(points, "measure points")
        weights = real(weights, "measure weights")
        if points.ndim != 2 or points.shape[0] != weights.shape[0]:
            raise ValueError("points and weights must align, shapes "
                             f"{points.shape} / {weights.shape}")
        if not (np.isfinite(points).all() and np.isfinite(weights).all()):
            raise ValueError("measure points and weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("measure weights must be nonnegative")
        with np.errstate(over="ignore"):
            if not np.isfinite(weights.sum()):
                raise ValueError("measure weights must have a finite total")
        sphere_point(points)

        rounded = np.round(points, 12)
        _, first, inverse = np.unique(
            rounded, axis=0, return_index=True, return_inverse=True
        )
        merged_w = np.zeros(first.shape[0])
        np.add.at(merged_w, inverse, weights)
        merged_p = points[first]
        keep = merged_w > 0.0
        self.points = merged_p[keep]
        self.weights = merged_w[keep]
        self.merged_atoms = int(points.shape[0] - first.shape[0])
        self._table = (None, None)  # (seed, reach) and gny_decompose's last table

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        """Sphere dimension m (atoms live in R^(m+1))."""
        return self.points.shape[1] - 1

    def mass(self, annulus: Annulus) -> float:
        return float(self.weights[annulus.contains(self.points)].sum())

    def __repr__(self) -> str:
        return (f"DiscreteMeasure({self.size} atoms on S^{self.dim}, "
                f"total={self.total:.6g})")


def pushforward_measure(immersion, density=None) -> DiscreteMeasure:
    """Pushforward of the mesh area measure under a `SphereImmersion`.

    Each vertex becomes an atom at its image point carrying its lumped
    area, optionally multiplied by a per-vertex `density` (``vertex_values``).
    """
    weights = immersion.mesh.vertex_areas
    if density is not None:
        with np.errstate(over="ignore"):
            weights = weights * vertex_values(immersion.mesh, density, "density")
        if not np.isfinite(weights).all():
            raise ValueError("density times vertex area must be finite")
    return DiscreteMeasure(immersion.images, weights)


# ---------------------------------------------------------------------- #
# exact shell geometry


def shells_disjoint(a: Annulus, b: Annulus) -> bool:
    """Exact disjointness of two doubled-shell regions on the sphere.

    Shells are the half-open sets {alpha <= d(c, x) < beta}.  On S^m the
    pair (d(c_a, x), d(c_b, x)) ranges over the convex polygon cut out by
    |d1 - d2| <= D and D <= d1 + d2 <= 2 pi - D, with D the distance
    between the centers; the shells meet iff the product box meets that
    polygon, so separation by one of its three edges decides the question
    without any sampling.
    """
    a1, b1 = a.inner, a.outer
    a2, b2 = b.inner, b.outer
    D = float(geodesic_distance(a.center, b.center))
    if b1 + b2 <= D:  # box below d1 + d2 >= D (suprema are open)
        return True
    if a1 + a2 > 2.0 * np.pi - D:  # box above d1 + d2 <= 2 pi - D
        return True
    if a1 >= D + b2 or a2 >= D + b1:  # box outside |d1 - d2| <= D
        return True
    return False


# ---------------------------------------------------------------------- #
# greedy decomposition


@dataclass
class AnnulusFamily:
    """Result of a decomposition: annuli plus the parameters that won."""

    annuli: list
    beta: float
    target: float


# seeded random poles that join the atoms as candidate annulus centers
_EXTRA_CENTERS = 32


def _candidate_centers(mu: DiscreteMeasure, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    poles = rng.standard_normal((_EXTRA_CENTERS, mu.points.shape[1]))
    poles /= np.linalg.norm(poles, axis=1, keepdims=True)
    return np.vstack([mu.points, poles])


# candidate rows are built about this many atom distances at a time, which
# keeps each batch's temporaries near a megabyte, well below the table
_GEOMETRY_CHUNK = 1 << 15


def _start_length(n, k):
    """Atoms each table row covers at first: the beta = 1/2 ball of a
    uniform measure of n atoms holds about n / (2k) of them."""
    return -(-n // k)


def _center_geometry(centers, mu, length, reach):
    """Nearest distinct distances from each center to the atoms, with running mass.

    Row i holds every atom strictly nearer center i than its *sentinel*:
    the distance of the (``length[i]`` + 1)-th nearest atom or of the
    nearest atom at distance >= `reach`, whichever is nearer, or +inf
    when the row holds every atom.  Returns flat tables ``radii`` and
    ``cum`` with row bounds ``first`` and ``last``: center i owns
    positions ``first[i]`` to ``last[i]``, which hold its distinct
    distances in increasing order and the mass at distance <= each, then
    at ``last[i]`` the sentinel in ``radii`` and +inf in ``cum``.  The
    sentinel is the full sorted row's next distance, and no query reads
    past `reach`.

    Each batch of centers writes its distances into one buffer in
    :func:`geodesic_distance`'s order of operations, so they are that
    function's to the bit.  A partition at the batch's farthest sentinel
    keeps, sorted, each row's atoms and its sentinel.  Tied atoms are
    summed in atom order, as a stable sort of one center's distances has
    them, so every row is a prefix of the full sorted row, the same to
    the bit whatever the lengths and the chunk.  ``radii`` and ``cum``
    are views of buffers with room after the rows, for
    :func:`_grow_rows`, to rebuild out to `reach` each row short of all
    atoms.
    """
    n, rows = mu.size, centers.shape[0]
    cover = np.minimum(length, n)
    # a row holds at most cover[i] distinct distances and its sentinel, a
    # rebuilt row at most n and its sentinel; unwritten pages (repeated
    # distances, rows never rebuilt) stay virtual
    room = int(cover.sum()) + rows + (n + 1) * int(np.count_nonzero(cover < n))
    try:
        radii, cum = np.empty(room), np.empty(room)
    except MemoryError:
        raise PackingError(f"cannot reserve the distance table of {n} atoms and "
                           f"{rows} candidates: {16 * room} bytes") from None
    first, last = np.empty((2, rows), dtype=np.intp)
    end = 0
    step = min(max(1, _GEOMETRY_CHUNK // n), rows)
    coords = np.ascontiguousarray(mu.points.T)
    buffer, term = np.empty((2, step, n))
    for a in range(0, rows, step):
        b = min(a + step, rows)
        r = np.arange(b - a)
        c, d, t = centers[a:b, :, None], buffer[: b - a], term[: b - a]
        np.multiply(c[:, 0], coords[0], out=d)
        for i in range(1, coords.shape[0]):
            d += np.multiply(c[:, i], coords[i], out=t)
        np.arccos(np.clip(d, -1.0, 1.0, out=d), out=d)
        # the sentinel sits at index want of the sorted row, +inf past its
        # end: want is the length, or the count of atoms below reach if fewer
        want = np.minimum(cover[a:b], np.count_nonzero(d < reach, axis=1))
        size = min(int(want.max()) + 1, n)
        # a sorted head of each row's nearest atoms holds its atoms and
        # sentinel; rows are read through flat indices, row i's from i * n
        part = np.argpartition(d, size - 1, axis=1)
        flat = r[:, None] * n
        ds = d.ravel().take(part[:, :size] + flat)
        ids = part.ravel().take(np.argsort(ds, axis=1) + flat)
        ds = np.hstack([d.ravel().take(ids + flat), np.full((b - a, 1), np.inf)])
        # atoms: the row's atoms, all in the head, and its sentinel's column
        atoms = np.count_nonzero(ds < ds[r, want][:, None], axis=1)
        # runs of equal distances start where `new`; each ends just before
        # the next start, and the sentinel is a run of its own
        new = np.ones(ds.shape, dtype=bool)
        new[:, 1:] = ds[:, 1:] != ds[:, :-1]
        new &= np.arange(size + 1) <= atoms[:, None]
        # put each run back in atom order, a stable sort's order, found
        # faster than by a stable sort: sort by run, then atom
        run = np.cumsum(new[:, :size], axis=1)
        run *= n
        ids += run
        ids.sort(axis=1)
        ids -= run
        mass = np.empty_like(ds)
        np.cumsum(mu.weights[ids], axis=1, out=mass[:, :size])
        mass[r, atoms] = np.inf
        ends = np.zeros_like(new)
        ends[:, :size] = new[:, 1:]
        ends[r, atoms] = True
        stop = end + np.cumsum(new.sum(axis=1))  # one past each row's sentinel
        first[a:b], last[a:b] = np.append(end, stop[:-1]), stop - 1
        np.compress(new.ravel(), ds.ravel(), out=radii[end : stop[-1]])
        np.compress(ends.ravel(), mass.ravel(), out=cum[end : stop[-1]])
        end = stop[-1]
    return radii[:end], cum[:end], first, last


def _grow_rows(geometry, rows, centers, mu, reach):
    """`geometry` with `rows` rebuilt out to `reach` after its last entry.

    A rebuilt row ends at a sentinel >= `reach`, or at +inf, and so
    decides every query: no row is rebuilt twice, and the room
    :func:`_center_geometry` leaves after the table holds every rebuilt
    row.  The old entries stay, unread; `geometry`'s row bounds are
    updated in place.
    """
    radii, cum, first, last = geometry
    g_radii, g_cum, g_first, g_last = _center_geometry(
        centers[rows], mu, np.full(rows.shape[0], mu.size), reach
    )
    end, grown = radii.shape[0], radii.shape[0] + g_radii.shape[0]
    first[rows], last[rows] = end + g_first, end + g_last
    radii, cum = radii.base[:grown], cum.base[:grown]
    radii[end:], cum[end:] = g_radii, g_cum
    return radii, cum, first, last


def _searchsorted(table, lo, hi, values):
    """``lo + np.searchsorted(table[lo:hi + 1], v)``, at most ``hi``, for every query.

    Bisects all slices at once, comparing table entries with the values
    and nothing else.  Each slice must be sorted and end in its sentinel
    at ``hi``: +inf for a row of every atom, finite for a cut row.  A
    value past the sentinel returns ``hi``.
    """
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        below = table[mid] < values
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return np.minimum(lo, hi)  # a value past a finite sentinel may leave lo at hi + 1


def _best_annulus(geometry, D, shell_lo, shell_hi, tau, r_max, alive):
    """Cheapest admissible annulus over all candidate centers.

    `D` holds the distance from every candidate to every accepted shell
    center (one column per shell), whose distance ranges [shell_lo, shell_hi]
    are already inflated by the gap.  A point at distance d1 from the
    candidate and d2 from a shell center exists iff (d1, d2) lies in the
    feasibility polygon, so sweeping d2 over the shell blocks one closed
    nonempty interval of d1; the doubled new annulus must fit in a gap of
    [0, pi] between blocked intervals.  Returns ``(best, short)``: best is
    (candidate index, inner, outer) with the smallest outer radius, or None
    if nothing fits; ties go to the first candidate and, within it, to the
    first gap.  `short` lists the rows of `geometry` too short to decide
    the answer, which is then None; rebuild them out to the reach and ask
    again.

    `alive`, a mask over the candidates, limits the query to those it
    marks, and loses each whose row decides that none of its gaps holds an
    admissible annulus.  Shells added later only shrink a candidate's gaps,
    raising each inner radius and lowering each cap, so with the same
    `tau` and `r_max` such a candidate can never fit again; leaving it out
    changes neither the answer nor its ties.
    """
    radii, cum, first, last = geometry
    live = np.flatnonzero(alive)
    D = D[live]
    lower = np.maximum(np.maximum(0.0, D - shell_hi), shell_lo - D)
    upper = np.minimum(np.minimum(np.pi, D + shell_hi), 2.0 * np.pi - D - shell_lo)
    # a sentinel [pi, pi] closes the last gap at pi and blocks nothing else
    sentinel = np.full((D.shape[0], 1), np.pi)
    lower = np.hstack([lower, sentinel])
    upper = np.hstack([upper, sentinel])
    order = np.argsort(lower, axis=1)
    g_hi = np.take_along_axis(lower, order, axis=1)
    upper = np.take_along_axis(upper, order, axis=1)
    # the gap before each interval starts where all earlier ones end
    g_lo = np.maximum.accumulate(
        np.hstack([np.zeros_like(sentinel), upper[:, :-1]]), axis=1
    )
    inner = np.where(g_lo == 0.0, 0.0, 2.0 * g_lo)
    top = np.minimum(g_hi / 2.0, r_max)
    rows, cols = np.nonzero((g_hi > g_lo) & (top > inner))
    inner, top = inner[rows, cols], top[rows, cols]
    rows = live[rows]

    # mass inside the inner radius, then the first radius holding tau more
    first, last = first[rows], last[rows]
    base_idx = _searchsorted(radii, first, last, inner)
    base = np.where(base_idx > first, cum[base_idx - 1], 0.0)
    j = _searchsorted(cum, first, last, base + tau)
    lo_excl = radii[j]  # the sentinel when the row holds too little mass
    nxt = np.minimum(radii[np.minimum(j + 1, last)], np.pi)  # pi past the last
    outer = np.minimum(0.5 * (lo_excl + nxt), top)
    fits = outer > lo_excl
    # A row answers as the full row would when it holds radius j, as the
    # radius after it is the full row's next, or when its sentinel reaches
    # top, so that nothing from there on fits.  Otherwise the query fits,
    # if at all, with outer > lo_excl, beyond both the sentinel and the
    # inner radius: it can win only when that bound lies below the best
    # decided outer radius.
    sentinel = radii[last]
    decided = (j < last) | (sentinel >= top)
    alive[live] = False
    alive[rows[fits | ~decided]] = True
    outer = np.where(fits & decided, outer, np.inf)
    bound = outer.min(initial=np.inf)
    short = np.unique(rows[~decided & (np.maximum(sentinel, inner) < bound)])
    if short.size or bound == np.inf:
        return None, short
    best = np.argmin(outer)
    return (int(rows[best]), float(inner[best]), float(outer[best])), short


def gny_decompose(
    mu: DiscreteMeasure,
    k: int,
    seed: int = 0,
    r_max: float = np.pi,
    gap: float = 0.0,
) -> AnnulusFamily:
    """Decompose mu into k annuli of mass >= beta mu(M)/k with disjoint doubles.

    The mass fraction beta starts at 1/2 and halves until the greedy
    construction succeeds, stopping at the theoretically guaranteed floor
    1/(8 * 9^(12 m)).  Each round accepts, among all candidate centers
    (the support atoms plus a few seeded random poles), the admissible
    annulus with the smallest outer radius; ties break by candidate
    order, so the whole construction is deterministic for a fixed seed.
    Each candidate's row of sorted distances starts at its nearest atoms,
    ends at a sentinel, the next distance of the full row, and is rebuilt
    out to the reach, once, when a round cannot be decided without it; a
    candidate whose row shows that no gap fits is not asked again in that
    round.  The table is kept on `mu` and reused by the next call with
    the same seed and reach; as its rows are exact prefixes of the full
    rows, the result does not depend on it.  Each call logs one
    DEBUG record on the ``eigenvol.packing`` logger: table built or
    reused, its size against the full one, rows extended, the seconds
    spent building the table and growing its rows, and the beta trail.

    Parameters
    ----------
    seed : int
        Nonnegative; draws the random poles, and keys the kept table.
    r_max : float
        Upper bound on outer radii (use just under pi/2 when the annuli
        must support test functions).
    gap : float
        Extra separation between doubled shells beyond disjointness.

    Raises
    ------
    PackingError
        If `k` exceeds the atom count, at once: each annulus holds mass
        >= tau > 0, hence an atom, and the annuli are disjoint, so k of
        them hold k distinct atoms.  Also if even the theoretical floor
        cannot be packed with these candidate centers, or the distance
        table cannot be reserved.
    """
    k = integer(k, "k", 1)
    seed = integer(seed, "seed", 0)
    if not 0.0 < r_max <= np.pi:
        raise ValueError("r_max must lie in (0, pi]")
    if not 0.0 <= gap < np.inf:
        raise ValueError("gap must be finite and nonnegative")
    total = mu.total
    if total <= 0.0:
        raise ValueError("measure has no mass")
    if k > mu.size:
        raise PackingError(
            f"cannot pack {k} disjoint annuli of positive mass around {mu.size} atoms"
        )

    centers = _candidate_centers(mu, seed)
    # every admissible outer radius is at most min(g_hi / 2, r_max) <= pi / 2
    reach = min(r_max, np.pi / 2)
    key, geometry = mu._table
    mu._table = (None, None)  # only the last table is kept: drop it before building
    if key != (seed, reach):
        geometry = None
    built = geometry is None
    table_s = grow_s = 0.0
    if built:
        clock = time.perf_counter()
        length = np.full(centers.shape[0], _start_length(mu.size, k))
        geometry = _center_geometry(centers, mu, length, reach)
        table_s = time.perf_counter() - clock
    floor = 1.0 / (8.0 * 9.0 ** (12 * mu.dim))
    betas = [2.0 ** (-j) for j in range(1, 81) if 2.0 ** (-j) > floor]
    betas.append(floor)

    attempts = []
    extended = rebuilds = 0
    for beta in betas:
        tau = beta * total / k
        # overshoot by a hair so recomputing the mass in any summation
        # order still clears tau itself
        tau_greedy = tau + 1e-9 * total
        annuli: list[Annulus] = []
        to_shell = np.empty((centers.shape[0], 0))
        shell_lo, shell_hi = [], []
        alive = np.ones(centers.shape[0], dtype=bool)  # candidates that may still fit
        for _ in range(k):
            while True:
                best, short = _best_annulus(
                    geometry, to_shell, np.array(shell_lo), np.array(shell_hi),
                    tau_greedy, r_max, alive,
                )
                if not short.size:
                    break
                clock = time.perf_counter()
                geometry = _grow_rows(geometry, short, centers, mu, reach)
                grow_s += time.perf_counter() - clock
                extended += short.size
                rebuilds += 1
            if best is None:
                break
            ci, inner, outer = best
            annuli.append(Annulus(centers[ci], inner, outer))
            shell = annuli[-1].doubled()
            to_shell = np.column_stack([to_shell, geodesic_distance(centers, shell.center)])
            # inflating each shell by `gap` leaves geodesic distance >= gap
            # between the doubled regions themselves, which later makes
            # test-function supports disjoint on meshes with shorter edges
            shell_lo.append(max(0.0, shell.inner - gap))
            shell_hi.append(min(np.pi, shell.outer + gap))
        if len(annuli) == k:
            break
        attempts.append((beta, len(annuli)))
    packed = len(annuli) == k
    mu._table = ((seed, reach), geometry)

    log.debug(
        "%(atoms)d atoms, %(candidates)d candidates: table %(table)s in "
        "%(table_s).3f s, %(entries)d of %(full)d entries, %(extended)d rows "
        "extended in %(rebuilds)d queries and %(grow_s).3f s, beta trail %(trail)s",
        {
            "atoms": mu.size,
            "candidates": centers.shape[0],
            "table": "built" if built else "reused",
            "table_s": table_s,
            "entries": geometry[0].shape[0],
            "full": centers.shape[0] * (mu.size + 1),
            "extended": extended,
            "rebuilds": rebuilds,
            "grow_s": grow_s,
            "trail": attempts + ([(beta, k)] if packed else []),
        },
    )
    if packed:
        return AnnulusFamily(annuli=annuli, beta=beta, target=tau)
    raise PackingError(
        f"could not pack {k} annuli even at the guaranteed mass fraction "
        f"{floor:.3e}; progress per beta: {attempts[-3:]}",
        attempts=attempts,
    )


# ---------------------------------------------------------------------- #
# verification


@dataclass
class FamilyReport:
    """Independent re-check of a decomposition against its measure."""

    masses: np.ndarray
    doubled_masses: np.ndarray
    disjoint: bool
    max_double_membership: int
    ok: bool


def verify_family(mu: DiscreteMeasure, family: AnnulusFamily) -> FamilyReport:
    """Recompute masses and certify doubled disjointness from scratch.

    Disjointness is decided by the exact polygon criterion on every pair;
    as a redundant empirical check, each support atom is counted against
    every doubled shell and must land in at most one.
    """
    doubles = [a.doubled() for a in family.annuli]
    masses = np.array([mu.mass(a) for a in family.annuli])
    doubled_masses = np.array([mu.mass(d) for d in doubles])
    disjoint = all(
        shells_disjoint(doubles[i], doubles[j])
        for i in range(len(doubles))
        for j in range(i + 1, len(doubles))
    )
    membership = np.zeros(mu.size, dtype=int)
    for d in doubles:
        membership += d.contains(mu.points)
    most = int(membership.max()) if membership.size else 0
    return FamilyReport(
        masses=masses,
        doubled_masses=doubled_masses,
        disjoint=disjoint,
        max_double_membership=most,
        ok=bool(disjoint and most <= 1 and np.all(masses >= family.target)),
    )


def select_light(mu: DiscreteMeasure, family: AnnulusFamily, count: int) -> np.ndarray:
    """Indices of `count` annuli whose doubled mass is at most mu(M)/count.

    When the doubles are disjoint their masses sum to at most mu(M), so
    fewer than `count` of ``2 count`` annuli can exceed mu(M)/count; the
    lightest `count` therefore all satisfy the bound.  Raises if not, as
    that indicates the family was not verified.
    """
    count = integer(count, "count", 1, len(family.annuli))
    doubled = np.array([mu.mass(a.doubled()) for a in family.annuli])
    order = np.argsort(doubled, kind="stable")
    chosen = order[:count]
    bound = mu.total / count
    if np.any(doubled[chosen] > bound + 1e-12 * mu.total):
        raise PackingError(
            f"selected doubled mass {doubled[chosen].max():.6g} exceeds "
            f"mu(M)/count = {bound:.6g}; are the doubles really disjoint?"
        )
    return chosen
