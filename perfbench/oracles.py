"""Reference values computed apart from eigenvol.

Nothing here imports the library: every value comes from a closed form,
from exact rational arithmetic, or from an independent formula applied
to plain arrays.  The workloads compare the library's outputs with these.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def proof_constants(n: int, m: int) -> dict:
    """N = 9^m, c = 1/(8 N^12) and C = 10000 n / (81 c), as exact rationals."""
    N = 9**m
    c = Fraction(1, 8 * N**12)
    return {"covering_number": N, "mass_fraction": c,
            "higher_eigenvalue": Fraction(10000 * n, 81) / c}


def lattice_count(V: float) -> int:
    """#{(j, k) in Z^2 : 2 (j^2 + k^2) < V}, the negative count of
    -Laplace - V on the Clifford torus (eigenvalues 2 (j^2 + k^2))."""
    r = math.isqrt(int(V)) + 1
    return sum(1 for j in range(-r, r + 1) for k in range(-r, r + 1) if 2 * (j * j + k * k) < V)


def sphere_eigenvalues(count: int) -> list:
    """0, then l (l + 1) with multiplicity 2 l + 1, the first `count` of them."""
    out, l = [], 0
    while len(out) < count:
        out += [float(l * (l + 1))] * (2 * l + 1)
        l += 1
    return out[:count]


def clifford_eigenvalues(count: int) -> list:
    """Sorted 2 (j^2 + k^2) over Z^2, the first `count` of them."""
    r = math.isqrt(count) + 2
    vals = sorted(2.0 * (j * j + k * k) for j in range(-r, r + 1) for k in range(-r, r + 1))
    return vals[:count]


def conformal_area_translated_sphere(center) -> float:
    """int e^f dA = 16 pi / (|c|^4 + 4) for the unit sphere centred at c,
    with e^f = 4 / (1 + |x|^2)^2 the factor of the stereographic lift."""
    c2 = float(np.dot(center, center))
    return 16.0 * math.pi / (c2 * c2 + 4.0)


def torus_willmore(R: float, r: float) -> float:
    """pi^2 R^2 / (r sqrt(R^2 - r^2)), the Willmore energy of a torus of
    revolution; by Li and Yau it bounds the conformal volume from above."""
    return math.pi**2 * R**2 / (r * math.sqrt(R * R - r * r))


def geodesic_triangle_areas(images: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Spherical excess by the Van Oosterom-Strackee formula, any dimension.

    tan(E/2) = |a, b, c| / (1 + a.b + b.c + c.a), with the volume |a, b, c|
    taken as the square root of the Gram determinant so that the formula
    holds in R^(m+1) for any m.
    """
    a, b, c = images[faces[:, 0]], images[faces[:, 1]], images[faces[:, 2]]
    ab, bc, ca = (np.einsum("ij,ij->i", x, y) for x, y in ((a, b), (b, c), (c, a)))
    gram = 1.0 + 2.0 * ab * bc * ca - ab * ab - bc * bc - ca * ca
    return 2.0 * np.arctan2(np.sqrt(np.maximum(gram, 0.0)), 1.0 + ab + bc + ca)


def fold_crease_faces(vertices: np.ndarray, faces: np.ndarray, pole) -> np.ndarray:
    """Faces with corners strictly on both sides of the plane x . pole = 0."""
    side = np.sign(vertices @ np.asarray(pole, dtype=float))[faces]
    return (side.max(axis=1) > 0) & (side.min(axis=1) < 0)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)
