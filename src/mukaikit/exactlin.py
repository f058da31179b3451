"""Exact integer and rational linear algebra.

Matrices are immutable tuples of row tuples. Integer matrices hold Python
ints (arbitrary precision); rational matrices hold ``fractions.Fraction``
entries, which are always stored in lowest terms with positive
denominator. No floating point is used anywhere: wall membership and
signature verdicts downstream are exact predicates, so every primitive
here must be exact too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalError, ValidationError

IntMatrix = tuple[tuple[int, ...], ...]


def int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """Freeze ``rows`` into an integer matrix, validating rectangularity."""
    out = tuple(tuple(entry for entry in row) for row in rows)
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValidationError("matrix rows have inconsistent lengths")
    for row in out:
        for entry in row:
            if not isinstance(entry, int):
                raise ValidationError(f"integer matrix entry {entry!r} is not an int")
    return out


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Sequence[Sequence]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValidationError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def congruence(b: Sequence[Sequence[int]], g: Sequence[Sequence[int]]) -> IntMatrix:
    """``b @ g @ b^T`` for a symmetric integer matrix ``g``.

    Walks the nonzero entries of ``g`` and of each row of ``b``, fills
    the upper triangle and mirrors it. Lattice Grams and Hermite bases are
    mostly zeros (the Mukai Gram has 52 nonzeros of 576), so this is a
    fraction of the work of two dense products. Callers check symmetry.
    """
    rows, cols = shape(b)
    n = len(g)
    if rows and cols != n:
        raise ValidationError(f"cannot form the congruence of a {n}x{n} matrix by {rows}x{cols}")
    g_rows = [[(j, y) for j, y in enumerate(row) if y] for row in g]
    b_rows = [[(i, x) for i, x in enumerate(row) if x] for row in b]
    out = [[0] * rows for _ in range(rows)]
    for k, bk in enumerate(b_rows):
        c = [0] * n  # row k of b @ g
        for i, x in bk:
            for j, y in g_rows[i]:
                c[j] += x * y
        for l in range(k, rows):
            out[k][l] = out[l][k] = sum(c[j] * y for j, y in b_rows[l])
    return tuple(tuple(row) for row in out)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    rows, cols = shape(m)
    if cols != len(v):
        raise ValidationError(f"cannot apply {rows}x{cols} matrix to length-{len(v)} vector")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_mat(v: Sequence, m: Sequence[Sequence]) -> tuple:
    rows, cols = shape(m)
    if rows != len(v):
        raise ValidationError(f"cannot apply length-{len(v)} row vector to {rows}x{cols} matrix")
    return tuple(sum(v[i] * m[i][j] for i in range(rows)) for j in range(cols))


def is_symmetric(m: Sequence[Sequence]) -> bool:
    rows, cols = shape(m)
    if rows != cols:
        return False
    return all(m[i][j] == m[j][i] for i in range(rows) for j in range(i + 1, cols))


def determinant(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant: each row cleared of denominators, then the row
    Hermite loop triangularizes the integer matrix."""
    rows, cols = shape(m)
    if rows != cols:
        raise ValidationError("determinant of a non-square matrix")
    a, denom = [], 1
    for row in m:
        ints, d = clear_denominators(row)
        a.append(list(ints))
        denom *= d
    det = _row_hermite_inplace(a, [[] for _ in range(rows)], rows, cols)
    for i in range(rows):
        det *= a[i][i]
    return Fraction(det, denom)


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Invert an integer matrix with determinant +-1; result is integral.

    The row Hermite form of a unimodular matrix is the identity, so the
    transform that reduces ``m`` to it is the inverse.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    if rows != cols:
        raise ValidationError("cannot invert a non-square matrix")
    a = [list(row) for row in mat]
    inv = [list(row) for row in identity(rows)]
    _row_hermite_inplace(a, inv, rows, cols)
    if any(a[i][i] != 1 for i in range(rows)):
        raise ValidationError("matrix is not unimodular")
    return tuple(tuple(row) for row in inv)


def unimodular_completion(row: Sequence[int]) -> IntMatrix:
    """A unimodular matrix whose first row is the primitive ``row``.

    One row Hermite pass on the column ``row^T`` gives a transform T with
    ``T @ row^T = e_1``, so ``row = e_1^T @ (T^T)^-1``. Raises
    ``ValidationError`` if the row is zero or its entries share a factor.
    """
    col = [[x] for x in int_matrix((row,))[0]]
    n = len(col)
    t = [list(r) for r in identity(n)]
    _row_hermite_inplace(col, t, n, 1)
    if not col or col[0][0] != 1:
        raise ValidationError("cannot complete a non-primitive row to a unimodular matrix")
    return invert_unimodular(transpose(t))


# -- Smith normal form -------------------------------------------------------


def _swap_rows(a, t, i, j):
    a[i], a[j] = a[j], a[i]
    t[i], t[j] = t[j], t[i]


def _add_row(a, t, dst, src, q):
    # row_dst += q * row_src
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    t[dst] = [x + q * y for x, y in zip(t[dst], t[src])]


def _xgcd_rows(a, t, i, j, c):
    """One unimodular 2-row operation making a[j][c] = 0, pivot at a[i][c]."""
    p, q = a[i][c], a[j][c]
    g, x, y = _xgcd(p, q)
    pg, qg = p // g, q // g
    a[i], a[j] = (
        [x * u + y * v for u, v in zip(a[i], a[j])],
        [-qg * u + pg * v for u, v in zip(a[i], a[j])],
    )
    t[i], t[j] = (
        [x * u + y * v for u, v in zip(t[i], t[j])],
        [-qg * u + pg * v for u, v in zip(t[i], t[j])],
    )


def _row_hermite_inplace(a, left, rows, cols) -> int:
    """Row Hermite reduction with transform; entries above pivots reduced.

    Keeping everything reduced modulo the pivots is what bounds entry
    growth (Kannan-Bachem style), unlike naive diagonal chasing. Returns
    the determinant (+-1) of the row operations: swaps and negations flip
    it, the xgcd step and ``_add_row`` have determinant 1.
    """
    sign = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            _swap_rows(a, left, r, pivot)
            sign = -sign
        for i in range(r + 1, rows):
            if a[i][c] != 0:
                _xgcd_rows(a, left, r, i, c)
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            left[r] = [-x for x in left[r]]
            sign = -sign
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                _add_row(a, left, i, r, -q)
        r += 1
        if r == rows:
            break
    return sign


def _is_diagonal(a, rows, cols) -> bool:
    return all(a[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The Smith diagonal of ``m``: its invariant factors d1 | d2 | ... .

    The entries are nonnegative, and the tuple has length
    ``min(rows, cols)`` including trailing zeros for rank deficiency.
    Alternating row and column Hermite passes diagonalize the matrix,
    then a pairwise gcd/lcm sweep over the absolute diagonal enforces the
    divisibility chain. No transform is kept.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    a = [list(row) for row in mat]

    for _ in range(200):
        if _is_diagonal(a, rows, cols):
            break
        _row_hermite_inplace(a, [[] for _ in range(rows)], rows, cols)
        if _is_diagonal(a, rows, cols):
            break
        at = [list(col) for col in zip(*a)] if a and a[0] else [[] for _ in range(cols)]
        _row_hermite_inplace(at, [[] for _ in range(cols)], cols, rows)
        a = [list(col) for col in zip(*at)] if at and at[0] else [[] for _ in range(rows)]
    else:
        raise InternalError("Smith reduction did not converge")

    n = min(rows, cols)
    diag = [abs(a[i][i]) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                di, dj = diag[i], diag[j]
                if (di == 0 and dj != 0) or (di != 0 and dj % di != 0):
                    # diag(d_i, d_j) and diag(gcd, lcm) are equivalent.
                    diag[i], diag[j] = gcd(di, dj), lcm(di, dj)
                    changed = True
    return tuple(diag)


# -- Hermite normal form and kernels ----------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hermite_normal_form(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form with positive pivots.

    Zero rows are dropped; entries above each pivot are reduced into
    ``[0, pivot)``. Unimodular row operations only, so the row span in Z^n
    is preserved. The result is the canonical basis used for kernels and
    orthogonal complements.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    a = [list(row) for row in mat]
    _row_hermite_inplace(a, [[] for _ in range(rows)], rows, cols)
    return tuple(tuple(row) for row in a if any(row))


def integer_kernel_saturated(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of the saturated kernel ``{x in Z^n : m @ x^T = 0}``.

    The rows span a primitive sublattice (equal to its saturation) and are
    returned in Hermite normal form, so the output is deterministic.
    """
    mat = int_matrix(m)
    rows, cols = shape(mat)
    if cols == 0:
        return ()
    # Row-reduce m^T with transform T, so T @ m^T = H. The rows of T whose
    # rows of H vanish span the kernel; they are rows of a unimodular
    # matrix, hence the sublattice they span is saturated.
    a = [list(col) for col in zip(*mat)]
    t = [list(row) for row in identity(cols)]
    _row_hermite_inplace(a, t, cols, rows)
    basis = [row for h, row in zip(a, t) if not any(h)]
    if not basis:
        return ()
    return hermite_normal_form(basis)


# -- Signatures --------------------------------------------------------------


def congruence_pivots(mat: Sequence[Sequence[int]]) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Fraction-free symmetric congruence reduction of a symmetric integer matrix.

    Diagonal pivots are consumed directly, lowest live index first; when
    the live block has an all-zero diagonal, the congruence x_i -> x_i + x_j
    turns a nonzero a[i][j] into a diagonal entry. The live block is updated
    as in Bareiss, a[i][k] = (p a[i][k] - a[i][piv] row[k]) // prev with p
    the pivot and prev the one before it (1 at first), an exact division:
    each live entry (i, l) is then the minor on rows {pivots, i} and columns
    {pivots, l}, so pivot k holds D_k, the k-th leading minor in elimination
    order, and D_k / D_{k-1} is the k-th pivot of the rational LDL split.
    The pair step is a unimodular congruence E M E^T on live indices only;
    as each live entry is a minor linear in its row and in its column, the
    state stays that of Bareiss on E M E^T.

    Returns the pivots in elimination order as ``(index, row)``, the row as
    it stood when eliminated, and the number of zero directions left. Only
    the live block is updated (its rows cover it, since it is symmetric),
    so a pivot row's entries at indices eliminated before it are stale.
    Callers check symmetry.
    """
    a = [list(row) for row in mat]
    live = list(range(len(a)))
    pivots = []
    prev = 1
    while live:
        pivot = next((i for i in live if a[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in live for j in live if i != j and a[i][j] != 0), None)
            if pair is None:
                return pivots, len(live)
            i, j = pair
            # Congruence x_i -> x_i + x_j makes the (i,i) entry 2*a[i][j] != 0.
            for k in live:
                a[i][k] += a[j][k]
            for k in live:
                a[k][i] += a[k][j]
            pivot = i
        row = a[pivot]
        p = row[pivot]
        pivots.append((pivot, tuple(row)))
        live.remove(pivot)
        for i in live:
            ri = a[i]
            f = ri[pivot]
            for k in live:
                ri[k] = (p * ri[k] - f * row[k]) // prev
        prev = p
    return pivots, 0


def rational_signature(g: Sequence[Sequence]) -> tuple[int, int, int]:
    """Inertia ``(n_plus, n_zero, n_minus)`` of a symmetric rational matrix.

    One positive scale clears every denominator; ``congruence_pivots``
    then runs on integers, and its k-th pivot D_k / D_{k-1} is positive
    iff D_k has the sign of D_{k-1}. Rejects non-symmetric input.
    """
    n = len(g)
    if any(len(row) != n for row in g) or not is_symmetric(g):
        raise ValidationError("signature requires a symmetric matrix")
    scale = lcm(*(c.denominator for row in g for c in row))
    pivots, n_zero = congruence_pivots(
        [[c.numerator * (scale // c.denominator) for c in row] for row in g]
    )
    minors = [1] + [row[i] for i, row in pivots]
    n_plus = sum((d > 0) == (prev > 0) for prev, d in zip(minors, minors[1:]))
    return (n_plus, n_zero, len(pivots) - n_plus)


def clear_denominators(v: Sequence) -> tuple[tuple[int, ...], int]:
    """The integer row n and least d >= 1 with v = n / d, for int or Fraction entries."""
    denom = lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (denom // c.denominator) for c in v), denom


def content_of(coords: Sequence[int]) -> int:
    """gcd of the entries; 0 for the zero vector."""
    return gcd(*coords)
