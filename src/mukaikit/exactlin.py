"""Exact integer linear algebra.

Matrices are immutable tuples of row tuples of Python ints (arbitrary
precision). Rational data stays at the API boundary: a ``LatticeVector``
keeps integer numerators over one denominator, callers hand those ints
here, and the signature and short-vector entry points reject any entry
that is not an int, and any form that is not symmetric. The reductions
(``hermite_normal_form``, ``smith_normal_form``,
``integer_kernel_saturated`` and ``unimodular_completion``) check
nothing their callers have checked: each is handed matrices built from
validated Grams and vectors, so an entry is checked once, where it
enters. A kernel is that of one linear condition (``integer_kernel_saturated``
takes one row), as every orthogonal complement the library takes is that
of one class. No floating point is used anywhere: wall membership and
signature verdicts downstream are exact predicates, so every primitive
here must be exact too.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .errors import InternalError, ValidationError

IntMatrix = tuple[tuple[int, ...], ...]

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def int_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    """Freeze ``rows`` into an integer matrix, validating rectangularity."""
    out = tuple(map(tuple, rows))
    if len(set(map(len, out))) > 1:
        raise ValidationError("matrix rows have inconsistent lengths")
    if not all(map(isinstance, chain.from_iterable(out), repeat(int))):
        entry = next(e for e in chain.from_iterable(out) if not isinstance(e, int))
        raise ValidationError(f"integer matrix entry {entry!r} is not an int")
    return out


def identity(n: int) -> IntMatrix:
    return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))


def shape(m: Sequence[Sequence]) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Sequence[Sequence]) -> tuple[tuple, ...]:
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def congruence(b: Sequence[Sequence[int]], g: Sequence[Sequence[int]]) -> IntMatrix:
    """``b @ g @ b^T`` for a symmetric integer matrix ``g``.

    Walks the nonzero entries only: row k of ``b @ g`` from the nonzero
    entries of row k of ``b`` and of the rows of ``g`` they pick, then row
    k of the result from each nonzero entry c_j of it and the nonzero
    entries of column j of ``b``. Lattice Grams and Hermite bases are
    mostly zeros (the Mukai Gram has 52 nonzeros of 576), so this is a
    fraction of the work of two dense products. Callers check symmetry.
    """
    rows, cols = shape(b)
    n = len(g)
    if rows and cols != n:
        raise ValidationError(f"cannot form the congruence of a {n}x{n} matrix by {rows}x{cols}")
    idx = range(n)
    g_rows = [[(j, row[j]) for j in compress(idx, row)] for row in g]
    b_rows = [[(i, row[i]) for i in compress(idx, row)] for row in b]
    b_cols = [[] for _ in idx]
    for l, bl in enumerate(b_rows):
        for j, y in bl:
            b_cols[j].append((l, y))
    out = []
    for bk in b_rows:
        c = [0] * n  # row k of b @ g
        for i, x in bk:
            for j, y in g_rows[i]:
                c[j] += x * y
        row = [0] * rows
        for j in compress(idx, c):
            cj = c[j]
            for l, y in b_cols[j]:
                row[l] += cj * y
        out.append(tuple(row))
    return tuple(out)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    rows, cols = shape(m)
    if cols != len(v):
        raise ValidationError(f"cannot apply {rows}x{cols} matrix to length-{len(v)} vector")
    return tuple(sum(map(mul, row, v)) for row in m)


def vec_mat(v: Sequence, m: Sequence[Sequence]) -> tuple:
    rows, cols = shape(m)
    if rows != len(v):
        raise ValidationError(f"cannot apply length-{len(v)} row vector to {rows}x{cols} matrix")
    return tuple(sum(map(mul, v, col)) for col in zip(*m))


def bilinear(g: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> int:
    """``a @ g @ b^T`` on ints: the dense rows of ``g`` where ``a`` is nonzero."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, g) if x)


def is_symmetric(m: Sequence[Sequence]) -> bool:
    """Equal to its transpose. ``zip`` stops at the shortest row, so the
    transpose has as many rows as that row is long, each of length
    ``len(m)``: a matrix with a row of another length never equals it."""
    return tuple(map(tuple, m)) == tuple(zip(*m))


def unimodular_completion(row: Sequence[int]) -> IntMatrix:
    """A unimodular matrix whose first row is the primitive ``row``.

    One row Hermite pass on the column ``row^T``, by a swap, one xgcd step
    per later nonzero entry and a sign, gives a transform T with
    ``T @ row^T = e_1``, so ``row = e_1^T @ (T^T)^-1``. The pass carries
    R = (T^T)^-1 along instead of T: each step E of T is undone on the
    rows of R by (E^-1)^T, where the xgcd step [[x, y], [-q/g, p/g]] has
    E^-1 = [[p/g, -y], [q/g, x]], and a swap or a negation is its own
    inverse. Raises ``ValidationError`` if the row is zero or its entries
    share a factor.
    """
    if gcd(*row) != 1:
        raise ValidationError("cannot complete a non-primitive row to a unimodular matrix")
    n, pivot = len(row), next(i for i, x in enumerate(row) if x)
    r = [list(e) for e in identity(n)]
    r[0], r[pivot] = r[pivot], r[0]
    # After the swap the column holds p = row[pivot] at 0 and row[j] at each j > pivot.
    p = row[pivot]
    for j in range(pivot + 1, n):
        q = row[j]
        if q:
            g, x, y = _xgcd(p, q)
            pg, qg = p // g, q // g
            r[0], r[j] = ([pg * u + qg * v for u, v in zip(r[0], r[j])],
                          [x * v - y * u for u, v in zip(r[0], r[j])])
            p = g
    if p < 0:
        r[0] = [-x for x in r[0]]
    return tuple(map(tuple, r))


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
    is preserved. The primitivity test of an NS embedding and the passes
    of ``smith_normal_form`` read it; ``integer_kernel_saturated`` writes
    this form of a one-row kernel down directly. For each column: a swap
    brings the first nonzero entry at or below row r up, one xgcd step per
    row below clears that row's entry, a sign makes the pivot positive, and
    the rows above are reduced modulo it. Keeping them reduced is what
    bounds entry growth (Kannan-Bachem).
    """
    rows, cols = shape(m)
    a = [list(row) for row in m]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        top = a[r]
        for i in range(r + 1, rows):
            q = a[i][c]
            if q:
                p = top[c]
                g, x, y = _xgcd(p, q)
                pg, qg = p // g, q // g
                top, a[i] = ([x * u + y * v for u, v in zip(top, a[i])],
                             [pg * v - qg * u for u, v in zip(top, a[i])])
        if top[c] < 0:
            top = [-x for x in top]
        a[r] = top
        for i in range(r):
            q = a[i][c] // top[c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], top)]
        r += 1
    return tuple(tuple(row) for row in a if any(row))


def integer_kernel_saturated(w: Sequence[int]) -> IntMatrix:
    """The Hermite basis of the saturated kernel ``{x in Z^n : w . x = 0}`` of one row.

    With g_i the gcd of w_i, ..., w_{n-1} and L the last index where w is
    nonzero, a kernel vector whose first nonzero entry sits at i < L has
    w_i x_i in g_{i+1} Z, so the least such entry is the pivot
    c_i = g_{i+1} / gcd(w_i, g_{i+1}). Row i is c_i e_i + t_i b, where
    t_i = -w_i / gcd(w_i, g_{i+1}) and b, with b . w = g_{i+1}, comes from
    one chain of Bezout coefficients run from L down; every index after L
    gives the unit row. These rows are echelon with the least pivots, so
    they are a basis, and reducing each row modulo the pivots below it,
    bottom up, gives the Hermite form. A zero row has the identity.
    """
    n = len(w)
    last = next((i for i in range(n - 1, -1, -1) if w[i]), None)
    if last is None:
        return identity(n)
    g = abs(w[last])
    b = [0] * n
    b[last] = 1 if w[last] > 0 else -1
    rows = []
    for i in range(last - 1, -1, -1):
        wi = w[i]
        row = [0] * n
        if not wi:
            row[i] = 1
        else:
            d, x, y = _xgcd(wi, g)
            t = -wi // d
            row[i] = g // d
            row[i + 1:last + 1] = [t * c for c in b[i + 1:last + 1]]
            b[i + 1:last + 1] = [y * c for c in b[i + 1:last + 1]]
            b[i], g = x, d
        # Reduce modulo the rows below, whose pivots are i+1, ..., L-1.
        for s, below in enumerate(rows[::-1], i + 1):
            q = row[s] // below[s]
            if q:
                row[s:last + 1] = [u - q * v for u, v in zip(row[s:last + 1], below[s:last + 1])]
        rows.append(tuple(row))
    rows.reverse()
    return tuple(rows) + identity(n)[last + 1:]


# -- Smith normal form -------------------------------------------------------


def _is_diagonal(a: Sequence[Sequence[int]]) -> bool:
    return not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The Smith diagonal of ``m``: its invariant factors d1 | d2 | ... .

    The entries are nonnegative, and the tuple has length
    ``min(rows, cols)`` including trailing zeros for rank deficiency.
    Row and column passes of ``hermite_normal_form`` alternate until the
    matrix is diagonal. A pass drops zero rows (or columns), so zeros pad
    the diagonal back to ``min(rows, cols)``. A pairwise gcd/lcm sweep over
    the absolute diagonal then enforces the divisibility chain; a 1
    divides everything, so the sweep runs on the others. No transform is
    kept.
    """
    a, n = m, min(shape(m))
    for _ in range(200):
        if _is_diagonal(a):
            break
        a = hermite_normal_form(a)
        if _is_diagonal(a):
            break
        a = transpose(hermite_normal_form(transpose(a)))
    else:
        raise InternalError("Smith reduction did not converge")
    diag = [abs(a[i][i]) for i in range(min(shape(a)))]
    diag += [0] * (n - len(diag))
    ones = diag.count(1)
    diag = [d for d in diag if d != 1]
    k = len(diag)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                di, dj = diag[i], diag[j]
                if (di == 0 and dj != 0) or (di != 0 and dj % di != 0):
                    # diag(d_i, d_j) and diag(gcd, lcm) are equivalent.
                    diag[i], diag[j] = gcd(di, dj), lcm(di, dj)
                    changed = True
    return (1,) * ones + tuple(diag)


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


def rational_signature(g: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia ``(n_plus, n_zero, n_minus)`` over Q of a symmetric integer matrix.

    One ``congruence_pivots`` run gives it. Rejects non-symmetric input
    and any entry that is not an int; a rational form is scaled to
    integers by its caller, which leaves the inertia unchanged.
    """
    if not is_symmetric(g):
        raise ValidationError("signature requires a symmetric matrix")
    pivots, n_zero = congruence_pivots(int_matrix(g))
    # The k-th pivot D_k / D_{k-1} is positive iff D_k has the sign of D_{k-1}.
    minors = [1, *(row[i] for i, row in pivots)]
    plus = sum((d > 0) == (prev > 0) for prev, d in zip(minors, minors[1:]))
    return plus, n_zero, len(pivots) - plus


def clear_denominators(v: Sequence) -> tuple[tuple[int, ...], int]:
    """The integer row n and least d >= 1 with v = n / d, for int or Fraction entries."""
    denom = lcm(*map(_denominator, v))
    if denom == 1:
        return tuple(map(_numerator, v)), 1
    return tuple(c.numerator * (denom // c.denominator) for c in v), denom
