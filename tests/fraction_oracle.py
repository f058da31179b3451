"""The Fraction wall layer, kept as a differential oracle for the integer one.

This is the enumeration and filter that ``mukaikit.walls`` and
``mukaikit.shortvec`` ran before they moved to integers: a Fincke-Pohst
search whose intervals are cut in rational arithmetic and which returns
both x and -x, then a filter that builds a ``LatticeVector`` for every
hit, reduces it to a primitive class with canonical sign, squares it and
pairs it with the polarizations through ``K3Model.pair_ns``. It is slow
and independent of the integer code it checks, apart from the shared
LDL split and the model's own pairings.

It also keeps two exact-layer routines as they ran before: the saturated
kernel read off a Smith form, and the symmetric congruence that updated
every row and column at each step.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, isqrt

from mukaikit.exactlin import (
    hermite_normal_form,
    integer_kernel_saturated,
    mat_vec,
    matmul,
    rat_matrix,
    shape,
    smith_normal_form,
    transpose,
)
from mukaikit.shortvec import ldl_decompose
from mukaikit.surface import is_polarization
from mukaikit.walls import wall_bound, segment_candidate_bound


def _sqrt_floor(x: Fraction) -> Fraction:
    return Fraction(isqrt(x.numerator * x.denominator), x.denominator)


def _int_range(center: Fraction, radius_sq: Fraction) -> range:
    """Integers n with (n + center)^2 <= radius_sq, by exact filtering."""
    if radius_sq < 0:
        return range(0)
    s = _sqrt_floor(radius_sq)
    lo = floor(-center - s) - 1
    hi = ceil(-center + s) + 1
    while lo <= hi and (lo + center) ** 2 > radius_sq:
        lo += 1
    while hi >= lo and (hi + center) ** 2 > radius_sq:
        hi -= 1
    return range(lo, hi + 1)


def _search(d, u, n, level, x, remaining, out):
    t = sum(u[level][j] * x[j] for j in range(level + 1, n))
    for xi in _int_range(t, remaining / d[level]):
        x[level] = xi
        if level == 0:
            if any(x):
                out.append(tuple(x))
        else:
            used = d[level] * (xi + t) ** 2
            _search(d, u, n, level - 1, x, remaining - used, out)
    x[level] = 0


def fraction_short_vectors(q, bound) -> list[tuple[int, ...]]:
    """All nonzero integer x with x^T q x <= bound, both signs, sorted."""
    bound = Fraction(bound)
    n, _ = shape(rat_matrix(q))
    if n == 0 or bound < 0:
        return []
    d, u = ldl_decompose(q)
    out: list[tuple[int, ...]] = []
    x = [0] * n
    for xt in _int_range(Fraction(0), bound / d[n - 1]):
        x[n - 1] = xt
        if n == 1:
            if xt:
                out.append(tuple(x))
        else:
            _search(d, u, n, n - 2, x, bound - d[n - 1] * Fraction(xt) ** 2, out)
    return sorted(out)


def _canonical_sign(d):
    for c in d.coords:
        if c > 0:
            return d
        if c < 0:
            return -d
    return d


def _candidate_primitives(m, vectors, bound, basis=None) -> list:
    """(coords, D^2) of the primitive canonical wall classes, sorted like walls."""
    seen = {}
    for x in vectors:
        if basis is not None:
            coords = tuple(
                sum(x[i] * basis[i][j] for i in range(len(basis)))
                for j in range(m.ns.rank)
            )
        else:
            coords = x
        g = 0
        for c in coords:
            g = gcd(g, abs(c))
        if g == 0:
            continue
        coords = tuple(c // g for c in coords)
        d = _canonical_sign(m.ns.vector(coords))
        key = d.coords
        if key in seen:
            continue
        sq = d.square()
        if -bound <= sq < 0:
            seen[key] = (d, sq)
    return sorted(seen.values(), key=lambda w: (-w[1], w[0].coords))


def oracle_walls_through_class(m, v, omega) -> list[tuple[tuple, Fraction]]:
    """(coords, D^2) of every wall class orthogonal to omega."""
    assert is_polarization(m, omega)
    bound = wall_bound(v)
    if bound < 0 or m.ns.rank == 0:
        return []
    form = mat_vec(m.ns.gram, omega.ns_part.coords)
    denom = 1
    for c in form:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    row = tuple(int(c * denom) for c in form)
    if any(row):
        basis = integer_kernel_saturated((row,))
    else:
        basis = tuple(tuple(int(i == j) for j in range(m.ns.rank)) for i in range(m.ns.rank))
    if not basis:
        return []
    sub_gram = matmul(matmul(basis, m.ns.gram), transpose(basis))
    neg = tuple(tuple(-x for x in r) for r in sub_gram)
    hits = fraction_short_vectors(neg, bound)
    return [(d.coords, sq) for d, sq in _candidate_primitives(m, hits, bound, basis)]


def oracle_crossings(m, v, omega, omega_prime) -> list[tuple[tuple, Fraction, Fraction]]:
    """(coords, D^2, t) of every wall crossing the segment, sorted by t.

    The endpoints must be generic; the caller checks that with
    ``oracle_walls_through_class``.
    """
    bound = wall_bound(v)
    if bound < 0 or m.ns.rank == 0:
        return []
    mbound = segment_candidate_bound(m, omega, omega_prime, bound)
    if mbound < 0:
        return []
    w = mat_vec(m.ns.gram, omega.ns_part.coords)
    a = m.square(omega)
    n = m.ns.rank
    maj = tuple(
        tuple(2 * w[i] * w[j] / a - m.ns.gram[i][j] for j in range(n)) for i in range(n)
    )
    hits = fraction_short_vectors(maj, mbound)
    crossings = []
    for d, sq in _candidate_primitives(m, hits, bound):
        p = m.pair_ns(d, omega)
        q = m.pair_ns(d, omega_prime)
        if (p < 0 < q) or (q < 0 < p):
            crossings.append((d.coords, sq, p / (p - q)))
    crossings.sort(key=lambda c: (c[2], c[0]))
    return crossings


def smith_kernel(m) -> tuple:
    """Saturated kernel of m: the columns of Smith's ``right`` past the rank, in HNF."""
    rows, cols = shape(m)
    if cols == 0:
        return ()
    if rows == 0:
        return tuple(tuple(int(i == j) for j in range(cols)) for i in range(cols))
    diag, _left, right = smith_normal_form(m)
    rank = sum(1 for d in diag if d != 0)
    basis = tuple(tuple(right[i][j] for i in range(cols)) for j in range(rank, cols))
    return hermite_normal_form(basis) if basis else ()


def full_update_congruence_pivots(mat):
    """The symmetric congruence updating all n entries of every live row and column."""
    n, _ = shape(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    live = list(range(n))
    pivots = []
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is None:
            pair = None
            for i in live:
                for j in live:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                return pivots, len(live)
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            pivot = i
        p = a[pivot][pivot]
        pivots.append((pivot, tuple(a[pivot])))
        live.remove(pivot)
        for i in live:
            factor = a[i][pivot] / p
            if factor:
                for k in range(n):
                    a[i][k] -= factor * a[pivot][k]
                for k in range(n):
                    a[k][i] -= factor * a[k][pivot]
    return pivots, 0
