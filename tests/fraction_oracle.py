"""The Fraction wall layer, kept as a differential oracle for the integer one.

This is the enumeration and filter that ``mukaikit.walls`` and
``mukaikit.shortvec`` ran before they moved to integers: a Fincke-Pohst
search whose intervals are cut in rational arithmetic and which returns
both x and -x, then a filter that builds a ``LatticeVector`` for every
hit, reduces it to a primitive class with canonical sign, squares it and
pairs it with the polarizations. It is slow and independent of the
integer code it checks: every pairing, polarization test and the segment
bound go through ``_pair`` below, a per-coordinate sum in Fractions, and
never through ``lattice.pairing`` or ``K3Model.pair``; its LDL split
comes from the full-update congruence below.

It also keeps exact-layer routines the library no longer runs. Those on
integer matrices rest on the oracle's own row Hermite loop,
``_hermite_with_transform``, which applies each of its steps (a swap, an
xgcd step per row below the pivot, a sign, and the reduction above the
pivot) to a transform as well, with its own xgcd and diagonal test. The
library keeps no transform, and from ``mukaikit.exactlin`` the oracle
takes only ``identity``, ``int_matrix``, ``mat_vec``, ``shape`` and
``transpose``; a contract test keeps every private name and the Hermite,
Smith, kernel and completion routines out of its imports. On that loop
stand the Hermite form itself (``reference_hermite``), the Smith form
with both unimodular transforms and the saturated kernel read off it,
the saturated kernel by a Hermite pass over the whole of m^T and a
second one over the kernel rows (the library writes the Hermite basis
of one row's kernel down in closed form), the inverse of a unimodular
matrix read off its Hermite transform, and the unimodular completion
that inverts its transform by it (the library carries the inverse
through its one pass). The others are the symmetric congruence that
updated every row and column at each step in Fractions, the rational
LDL split and the signature read off it, a row-span test that reduces
against Hermite pivots, and the loop over rank splits that the
irreducibility oracle's closed form replaced.

Last, it holds checkers that the library dropped once nothing in it
called them: a dense matrix product, a determinant by Gaussian
elimination in Fractions and the coordinate radii of a ball read off its
cofactors, the Mukai unit, the trivial twist and the closed form of the
twisted Mukai square; and the generator route of the projectivity
criterion, which builds the exp(xi/r)-twists as Mukai products and
reduces their whole Gram in Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd, isqrt

from mukaikit.errors import InternalError, ValidationError
from mukaikit.exactlin import identity, int_matrix, mat_vec, shape, transpose
from mukaikit.moduli import IrreducibilityVerdict
from mukaikit.mukai import MukaiVector, exp_class, mukai_pairing, mukai_product, mukai_square
from mukaikit.twisted import TwistData
from mukaikit.walls import wall_bound


def _pair(gram, x, y) -> Fraction:
    """x^T . gram . y, one Fraction product per pair of coordinates."""
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += Fraction(xi) * gram[i][j] * Fraction(yj)
    return total


def _pair_h11(m, x, y) -> Fraction:
    """The (1,1) pairing of the model: NS and transcendental blocks are orthogonal."""
    return (_pair(m.ns.gram, x.ns_part.coords, y.ns_part.coords)
            + _pair(m.t11.gram, x.t_part.coords, y.t_part.coords))


def _is_polarization(m, omega) -> bool:
    return (_pair_h11(m, omega, omega) > 0
            and _pair_h11(m, omega, m.reference_positive) > 0
            and all(_pair(m.ns.gram, c.coords, omega.ns_part.coords) > 0
                    for c in m.curve_classes))


def segment_bound(m, omega, omega_prime, bound) -> Fraction:
    """bound * (2 b^2 - ac) / (ac), for a = w^2, b = w.w' and c = w'^2 in Fractions: the
    majorant bound of the walls meeting the segment from w to w' (``walls._majorant_bound``)."""
    a = _pair_h11(m, omega, omega)
    b = _pair_h11(m, omega, omega_prime)
    c = _pair_h11(m, omega_prime, omega_prime)
    return bound * (2 * b * b - a * c) / (a * c)


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
    n = len(q)
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


def _candidate_primitives(m, vectors, bound, basis=None) -> list:
    """(D, D^2) of the primitive canonical wall classes, sorted like walls.

    Each primitive class, first nonzero coordinate positive, is judged
    once, squared by its own loop over the Gram; a ``LatticeVector`` is
    built only for the kept ones.
    """
    gram, n = m.ns.gram, m.ns.rank
    judged = {}
    for x in vectors:
        if basis is not None:
            coords = tuple(sum(x[i] * basis[i][j] for i in range(len(basis))) for j in range(n))
        else:
            coords = x
        g = 0
        for c in coords:
            g = gcd(g, abs(c))
        if g == 0:
            continue
        if next(c for c in coords if c) < 0:
            g = -g
        coords = tuple(c // g for c in coords)
        if coords in judged:
            continue
        sq = 0
        for i in range(n):
            if coords[i]:
                for j in range(n):
                    sq += coords[i] * gram[i][j] * coords[j]
        judged[coords] = sq if -bound <= sq < 0 else None
    kept = [(m.ns.vector(c), Fraction(sq)) for c, sq in judged.items() if sq is not None]
    return sorted(kept, key=lambda w: (-w[1], w[0].coords))


def oracle_walls_through_class(m, v, omega) -> list[tuple[tuple, Fraction]]:
    """(coords, D^2) of every wall class orthogonal to omega."""
    assert _is_polarization(m, omega)
    bound = wall_bound(v)
    if bound < 0 or m.ns.rank == 0:
        return []
    form = mat_vec(m.ns.gram, omega.ns_part.coords)
    denom = 1
    for c in form:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    row = tuple(int(c * denom) for c in form)
    if any(row):
        basis = full_kernel_saturated((row,))
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
    mbound = segment_bound(m, omega, omega_prime, bound)
    if mbound < 0:
        return []
    w = mat_vec(m.ns.gram, omega.ns_part.coords)
    n, a = m.ns.rank, _pair_h11(m, omega, omega)
    maj = tuple(
        tuple(2 * w[i] * w[j] / a - m.ns.gram[i][j] for j in range(n)) for i in range(n)
    )
    hits = fraction_short_vectors(maj, mbound)
    crossings = []
    for d, sq in _candidate_primitives(m, hits, bound):
        p = _pair(m.ns.gram, d.coords, omega.ns_part.coords)
        q = _pair(m.ns.gram, d.coords, omega_prime.ns_part.coords)
        if (p < 0 < q) or (q < 0 < p):
            crossings.append((d.coords, sq, p / (p - q)))
    crossings.sort(key=lambda c: (c[2], c[0]))
    return crossings


def ldl_decompose(q) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Split a symmetric positive definite matrix as q = U^T D U, in Fractions.

    Returns ``(d, u)`` where ``u[i][j]`` (j > i) are the unit upper
    triangular coefficients, so q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2.
    The pivots of ``full_update_congruence_pivots`` are d_i and d_i u_ij.
    """
    n = len(q)
    pivots, n_zero = full_update_congruence_pivots(q)
    if n_zero or any(i != k or row[i] <= 0 for k, (i, row) in enumerate(pivots)):
        raise ValidationError("form is not positive definite")
    d = [row[i] for i, row in pivots]
    u = [[row[j] / row[i] if j > i else Fraction(0) for j in range(n)] for i, row in pivots]
    return d, u


# -- the transform-tracking Hermite loop ------------------------------------------


def _xgcd(a, b) -> tuple[int, int, int]:
    """(g, x, y) with g = x a + y b = gcd(a, b) up to sign, by the Euclidean remainders."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _xgcd_rows(a, t, i, j, c):
    """One unimodular 2-row operation on ``a`` and ``t`` making a[j][c] = 0, pivot at a[i][c]."""
    p, q = a[i][c], a[j][c]
    g, x, y = _xgcd(p, q)
    pg, qg = p // g, q // g
    for m in (a, t):
        m[i], m[j] = ([x * u + y * v for u, v in zip(m[i], m[j])],
                      [-qg * u + pg * v for u, v in zip(m[i], m[j])])


def _hermite_with_transform(a, t, rows, cols) -> None:
    """Row Hermite reduction of the lists ``a`` in place, each step applied to ``t`` too.

    For each column: a swap, one xgcd step per row below the pivot, a sign,
    and reduction of the rows above modulo the pivot.
    """
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        for m in (a, t):
            m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                _xgcd_rows(a, t, r, i, c)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            t[r] = [-x for x in t[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                for m in (a, t):
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break


def _is_diagonal(a, rows, cols) -> bool:
    return all(a[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)


def reference_hermite(m) -> tuple:
    """The row Hermite form of m by ``_hermite_with_transform``, zero rows dropped."""
    mat = int_matrix(m)
    rows, cols = shape(mat)
    a = [list(row) for row in mat]
    _hermite_with_transform(a, [[] for _ in range(rows)], rows, cols)
    return tuple(tuple(row) for row in a if any(row))


def reference_smith(m) -> tuple:
    """``(diag, left, right)`` with ``left @ m @ right`` the Smith form of m.

    ``left`` and ``right`` are unimodular; the diagonal is nonnegative with
    d1 | d2 | ... and has length ``min(rows, cols)``. Alternating row and
    column Hermite passes diagonalize m, then unimodular operations turn
    each pair diag(d_i, d_j) into diag(gcd, lcm).
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    a = [list(row) for row in mat]
    left = [list(row) for row in identity(rows)]
    right_t = [list(row) for row in identity(cols)]  # transpose of the right transform

    for _ in range(200):
        if _is_diagonal(a, rows, cols):
            break
        _hermite_with_transform(a, left, rows, cols)
        if _is_diagonal(a, rows, cols):
            break
        at = [list(col) for col in zip(*a)] if a and a[0] else [[] for _ in range(cols)]
        _hermite_with_transform(at, right_t, cols, rows)
        a = [list(col) for col in zip(*at)] if at and at[0] else [[] for _ in range(rows)]
    else:
        raise InternalError("Smith reduction did not converge")

    def add_col(dst, src, q):
        # col_dst += q * col_src, with the right transform kept transposed.
        for row in a:
            row[dst] += q * row[src]
        right_t[dst] = [x + q * y for x, y in zip(right_t[dst], right_t[src])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def pair_fix(i, j):
        add_col(i, j, 1)  # now a[j][i] = d_j
        _xgcd_rows(a, left, i, j, i)
        if a[i][i] < 0:
            negate_row(i)
        q = a[i][j] // a[i][i]
        if q:
            add_col(j, i, -q)
        if a[j][j] < 0:
            negate_row(j)

    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                di, dj = a[i][i], a[j][j]
                if (di == 0 and dj != 0) or (di != 0 and dj % di != 0):
                    pair_fix(i, j)
                    changed = True
    for i in range(n):
        if a[i][i] < 0:
            negate_row(i)

    diag = tuple(a[i][i] for i in range(n))
    right = tuple(tuple(row) for row in zip(*right_t))
    return diag, tuple(tuple(r) for r in left), right


def hermite_solve_left(h, target):
    """The integer x with ``x @ h == target`` for h in Hermite normal form, or None.

    Each pivot column fixes one coefficient by exact division; the target
    is in the row span iff every division is exact and nothing is left.
    """
    rest = list(target)
    x = []
    for row in h:
        c = next(j for j, e in enumerate(row) if e)
        q, r = divmod(rest[c], row[c])
        if r:
            return None
        x.append(q)
        rest = [u - q * e for u, e in zip(rest, row)]
    return tuple(x) if not any(rest) else None


def smith_kernel(m) -> tuple:
    """Saturated kernel of m: the columns of Smith's ``right`` past the rank, in HNF."""
    rows, cols = shape(m)
    if cols == 0:
        return ()
    if rows == 0:
        return tuple(tuple(int(i == j) for j in range(cols)) for i in range(cols))
    diag, _left, right = reference_smith(m)
    rank = sum(1 for d in diag if d != 0)
    basis = tuple(tuple(right[i][j] for i in range(cols)) for j in range(rank, cols))
    return reference_hermite(basis) if basis else ()


def full_kernel_saturated(m) -> tuple:
    """Saturated kernel of m by one Hermite pass over the whole of m^T.

    The rows of the transform whose Hermite rows vanish are rows of a
    unimodular matrix, so they span the saturated kernel; returned in HNF.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    if cols == 0:
        return ()
    a = [list(col) for col in zip(*mat)]
    t = [list(row) for row in identity(cols)]
    _hermite_with_transform(a, t, cols, rows)
    basis = [row for h, row in zip(a, t) if not any(h)]
    return reference_hermite(basis) if basis else ()


def invert_unimodular(m) -> tuple:
    """Invert an integer matrix with determinant +-1; the result is integral.

    The row Hermite form of a unimodular matrix is the identity, so the
    transform that reduces ``m`` to it is the inverse.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    if rows != cols:
        raise ValidationError("cannot invert a non-square matrix")
    a = [list(row) for row in mat]
    inv = [list(row) for row in identity(rows)]
    _hermite_with_transform(a, inv, rows, cols)
    if any(a[i][i] != 1 for i in range(rows)):
        raise ValidationError("matrix is not unimodular")
    return tuple(tuple(row) for row in inv)


def full_unimodular_completion(row) -> tuple:
    """The unimodular completion of a primitive row by a Hermite pass on all of row^T."""
    col = [[x] for x in int_matrix((row,))[0]]
    n = len(col)
    t = [list(r) for r in identity(n)]
    _hermite_with_transform(col, t, n, 1)
    if not col or col[0][0] != 1:
        raise ValidationError("cannot complete a non-primitive row to a unimodular matrix")
    return invert_unimodular(transpose(t))


def reference_signature(g) -> tuple[int, int, int]:
    """Inertia from the signs of the full-update Fraction pivots."""
    pivots, n_zero = full_update_congruence_pivots(g)
    n_plus = sum(1 for i, row in pivots if row[i] > 0)
    return (n_plus, n_zero, len(pivots) - n_plus)


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


def loop_irreducibility_oracle(r: int, xi_square: int, delta) -> IrreducibilityVerdict:
    """``moduli.irreducibility_oracle`` by trying every split r = r1 + r2, r > 1.

    For each r1 the bound -(xi_square / (2 r1 r2)) (r2/r - n2)^2 is least
    at the integers n2 nearest r2/r, its floor and ceiling; the least
    (bound, r1, n2) wins.
    """
    best, r1, n2 = min(
        (Fraction(-xi_square * (r - r1 - n2 * r) ** 2, 2 * r1 * (r - r1) * r * r), r1, n2)
        for r1 in range(1, r)
        for n2 in {(r - r1) // r, -((r1 - r) // r)}
    )
    return IrreducibilityVerdict(best > delta, best, (r1, n2))


# -- checkers the library dropped --------------------------------------------------


def matmul(a, b) -> tuple:
    """The dense product of two matrices."""
    if len(a[0] if a else ()) != len(b):
        raise ValidationError("cannot multiply: inner dimensions differ")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def determinant(m) -> Fraction:
    """Exact determinant by Gaussian elimination in Fractions."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def coordinate_radii(q, bound) -> list[Fraction]:
    """bound * (q^-1)_ii for each i: the squared radius of the ball x^T q x <= bound
    along coordinate i, so |x_i| <= sqrt of it on the ball."""
    bound = Fraction(bound)
    det = determinant(q)
    if det == 0:
        raise ValidationError("singular form has no coordinate radii")
    # (q^-1)_ii is the (i, i) cofactor over det q.
    minors = ([row[:i] + row[i + 1:] for k, row in enumerate(q) if k != i] for i in range(len(q)))
    return [bound * determinant(minor) / det for minor in minors]


def mukai_unit(lattice) -> MukaiVector:
    """(1, 0, 0), the unit of the Mukai product."""
    return MukaiVector(Fraction(1), lattice.zero(), Fraction(0))


def trivial_twist() -> TwistData:
    """The untwisted case: a rank-1 twisting sheaf with vanishing ch2."""
    return TwistData(1, Fraction(0))


def v_E_square_closed_form(f, e) -> Fraction:
    """xi^2/s^2 - 2ra/s + r^2 b/s^2 - 2r^2, bypassing the Mukai pairing."""
    s, r = Fraction(e.s), Fraction(f.r)
    return f.xi.square() / s ** 2 - 2 * r * f.a / s + r ** 2 * e.b / s ** 2 - 2 * r ** 2


def generator_projectivity(m, v) -> tuple:
    """``(gram, signature, projective_moduli, isotropy_identity)`` of the
    projectivity criterion by the generator route.

    The exp(xi/r)-twists of the NS basis and of (2r^2, 0, v^2) are built
    as Mukai products, each is checked orthogonal to v, and their whole
    Gram is formed by Mukai pairings and reduced in Fractions.
    """
    r, sq = v.v0, mukai_square(v)
    twist = exp_class(v.v1.scale(1 / r))
    gens = [mukai_product(twist, MukaiVector(Fraction(0), m.ns.basis_vector(i), Fraction(0)))
            for i in range(m.ns.rank)]
    extra = mukai_product(twist, MukaiVector(2 * r ** 2, m.ns.zero(), sq))
    gens.append(extra)
    for g in gens:
        if mukai_pairing(g, v) != 0:
            raise AssertionError(f"generator {g!r} is not orthogonal to v")
    gram = tuple(tuple(mukai_pairing(x, y) for y in gens) for x in gens)
    sig = reference_signature(gram)
    return gram, sig, sig[0] >= 1, (mukai_square(extra), -4 * r ** 2 * sq)
