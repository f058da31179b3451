"""Shared fixtures, randomized-model generators, and brute-force oracles."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np

from mukaikit import (
    H11Class,
    K3Model,
    Lattice,
    MukaiVector,
    wall_bound,
)
from mukaikit.exactlin import rational_signature
from mukaikit.shortvec import short_vectors_up_to_sign

# ``pythonpath`` in pyproject.toml puts src/ on the path of this interpreter
# only; child interpreters started by tests (``python -m mukaikit``) read it
# from the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def random_unimodular(rng: random.Random, n: int, steps: int = 6):
    """Product of elementary integer row operations; determinant +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return tuple(tuple(row) for row in m)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += q * m[j][k]
    if rng.random() < 0.5 and n:
        m[0] = [-x for x in m[0]]
    return tuple(tuple(row) for row in m)


def congruent_gram(rng: random.Random, diag_entries, steps: int = 4):
    """P^T diag P for random unimodular P: same signature, messier entries."""
    n = len(diag_entries)
    p = random_unimodular(rng, n, steps)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            gram[i][j] = sum(p[k][i] * diag_entries[k] * p[k][j] for k in range(n))
    return tuple(tuple(row) for row in gram)


def random_hyperbolic_ns(rng: random.Random, rank: int) -> Lattice:
    """Random even NS Gram of signature (1, rank-1) with small entries."""
    while True:
        base = [2 * rng.choice([1, 1, 2])]
        base += [-2 * rng.randint(1, 3) for _ in range(rank - 1)]
        gram = congruent_gram(rng, base, steps=rng.randint(0, 3))
        if rational_signature(gram) == (1, 0, rank - 1):
            return Lattice(gram, "NS")


def random_negative_definite_ns(rng: random.Random, rank: int) -> Lattice:
    base = [-2 * rng.randint(1, 4) for _ in range(rank)]
    gram = congruent_gram(rng, base, steps=rng.randint(0, 3))
    return Lattice(gram, "NS")


def random_integral_vector(rng: random.Random, lattice: Lattice, span: int = 3):
    return lattice.vector(tuple(rng.randint(-span, span) for _ in range(lattice.rank)))


def random_mukai(rng: random.Random, lattice: Lattice, rmax: int = 4) -> MukaiVector:
    r = rng.randint(1, rmax)
    xi = random_integral_vector(rng, lattice)
    a = rng.randint(-6, 6)
    return MukaiVector(Fraction(r), xi, Fraction(a))


def short_vectors(q, bound) -> list[tuple[int, ...]]:
    """All nonzero integer x with x^T q x <= bound, sorted: the library's
    search of one of each pair +-x, with the negatives added back."""
    half = short_vectors_up_to_sign(q, bound)
    return sorted(half + [tuple(-c for c in x) for x in half])


def cleared_form(q, bound):
    """(s q, s bound) for the least s >= 1 that makes the rational form q integral.

    A positive scale keeps every short vector and the search order, so the
    library's integer search on the result answers for q and bound.
    """
    s = lcm(*(Fraction(c).denominator for row in q for c in row))
    return tuple(tuple(int(c * s) for c in row) for row in q), Fraction(bound) * s


def _positive_vector_exact(gram):
    """A vector of positive square found by symmetric congruence reduction.

    Tracks the basis transform during diagonalization and returns the basis
    column whose diagonal entry turns positive, cleared to integer coords.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # columns = basis
    live = list(range(n))
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is None:
            i, j = next(
                (i, j) for i in live for j in live if i != j and a[i][j] != 0
            )
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            for k in range(n):
                p[k][i] += p[k][j]
            pivot = i
        if a[pivot][pivot] > 0:
            col = [p[k][pivot] for k in range(n)]
            denom = 1
            for c in col:
                denom = denom * c.denominator // gcd(denom, c.denominator)
            return tuple(int(c * denom) for c in col)
        live.remove(pivot)
        for i in live:
            factor = a[i][pivot] / a[pivot][pivot]
            if factor:
                for k in range(n):
                    a[i][k] -= factor * a[pivot][k]
                for k in range(n):
                    a[k][i] -= factor * a[k][pivot]
                for k in range(n):
                    p[k][i] -= factor * p[k][pivot]
    raise AssertionError("form has no positive direction")


def positive_reference(lattice: Lattice, rng: random.Random):
    """Some integral class of positive square in a signature-(1,*) lattice."""
    for span in (3, 6):
        for _ in range(200):
            v = random_integral_vector(rng, lattice, span=span)
            if v.square() > 0:
                return v
    coords = _positive_vector_exact(lattice.gram)
    v = lattice.vector(coords)
    assert v.square() > 0
    return v


# -- Brute-force wall oracles over an integer coordinate box -------------------
#
# Exhaustive scans independent of the Fincke-Pohst enumeration. numpy int64
# arithmetic is exact at this scale (coordinates and Gram entries are small).


def box_vectors(rank: int, box: int) -> np.ndarray:
    axes = [np.arange(-box, box + 1, dtype=np.int64)] * rank
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


_WALL_ARRAYS: dict = {}


def _wall_array(model: K3Model, v, box: int) -> np.ndarray:
    """Primitive canonical wall classes of v in the box, one row each.

    Cached per Gram matrix, wall bound and box, since the classes do not
    depend on the polarization.
    """
    bound = wall_bound(v)
    key = (model.ns.gram, bound, box)
    if key not in _WALL_ARRAYS:
        g = np.array(model.ns.gram, dtype=np.int64)
        pts = box_vectors(model.ns.rank, box)
        sq = pts @ g
        sq *= pts
        sq = sq.sum(1)
        keep = (sq < 0) & (sq * bound.denominator >= -bound.numerator)
        walls = pts[keep]
        walls //= np.gcd.reduce(np.abs(walls), axis=1)[:, None]
        first = walls[np.arange(len(walls)), (walls != 0).argmax(1)]
        walls[first < 0] *= -1
        walls = np.unique(walls, axis=0)
        walls.flags.writeable = False
        _WALL_ARRAYS[key] = walls
    return _WALL_ARRAYS[key]


def oracle_wall_set(model: K3Model, v, box: int = 50) -> set:
    """Primitive canonical wall classes of v with all coordinates in the box."""
    return {tuple(int(c) for c in row) for row in _wall_array(model, v, box)}


def _pairings(model: K3Model, walls: np.ndarray, omega: H11Class, box: int):
    """D . omega for each row D, scaled by the positive lcm of omega's
    denominators: one integer per wall class and the scale."""
    coords = omega.ns_part.coords
    denom = 1
    for c in coords:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    form = [sum(row[j] * int(c * denom) for j, c in enumerate(coords)) for row in model.ns.gram]
    assert box * sum(abs(f) for f in form) < 2**62, "pairings would overflow int64"
    return walls @ np.array(form, dtype=np.int64), denom


def oracle_walls_through(model: K3Model, v, omega: H11Class, box: int = 50) -> set:
    walls = _wall_array(model, v, box)
    p, _ = _pairings(model, walls, omega, box)
    return {tuple(int(c) for c in row) for row in walls[p == 0]}


def oracle_crossings(model: K3Model, v, omega: H11Class, omega_prime: H11Class,
                     box: int = 50) -> dict:
    walls = _wall_array(model, v, box)
    p, dp = _pairings(model, walls, omega, box)
    q, dq = _pairings(model, walls, omega_prime, box)
    hits = {}
    for i in np.flatnonzero(((p < 0) & (q > 0)) | ((q < 0) & (p > 0))):
        # With p = P / dp and q = Q / dq, p / (p - q) = P dq / (P dq - Q dp).
        a, b = int(p[i]) * dq, int(q[i]) * dp
        hits[tuple(int(c) for c in walls[i])] = Fraction(a, a - b)
    return hits
