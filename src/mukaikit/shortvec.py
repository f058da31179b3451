"""Enumeration of short vectors of positive definite rational forms.

Fincke-Pohst style search in exact arithmetic: the form is split as
q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 with d_i > 0, once, in
rationals; the split is then scaled to integers, and the search cuts
each coordinate interval with integer square roots and floor divisions
alone, so no floating point and no Fraction enters its loops. It keeps
one of each pair +-x (the one whose last nonzero coordinate is
positive), since q(-x) = q(x); ``short_vectors`` adds the negatives back.
It runs in one thread.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .exactlin import congruence_pivots, determinant, is_symmetric, rat_matrix, shape

Vec = tuple[int, ...]


def ldl_decompose(q: Sequence[Sequence]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Split a symmetric positive definite matrix as q = U^T D U.

    Returns ``(d, u)`` where ``u[i][j]`` (j > i) are the unit upper
    triangular coefficients, so q(x) = sum d_i (x_i + sum_{j>i} u_ij x_j)^2.
    Raises if the form is not positive definite (exact test).
    """
    mat = rat_matrix(q)
    n, cols = shape(mat)
    if n != cols or not is_symmetric(mat):
        raise ValidationError("ldl decomposition requires a symmetric matrix")
    # Positive definite iff every pivot is positive and none is left zero;
    # then each pivot is the lowest live index, so row i holds d_i and d_i u_ij.
    pivots, n_zero = congruence_pivots(mat)
    if n_zero or any(i != k or row[i] <= 0 for k, (i, row) in enumerate(pivots)):
        raise ValidationError("form is not positive definite")
    d = [row[i] for i, row in pivots]
    u = [[row[j] / row[i] if j > i else Fraction(0) for j in range(n)] for i, row in pivots]
    return d, u


def _integer_levels(q: Sequence[Sequence], bound: Fraction):
    """The LDL split of ``q``, scaled so the search runs on integers.

    With t_i = T_i / e_i (e_i the common denominator of row i of u, T_i
    an integer form in x_{i+1..n-1}) the level-i term of q(x) is
    d_i (x_i + t_i)^2 = d_i / e_i^2 * y_i^2 with y_i = e_i x_i + T_i.
    Scaling by s, the least common denominator of the d_i / e_i^2 and
    of ``bound``, gives integers c_i and R with s q(x) = sum c_i y_i^2
    and q(x) <= bound iff sum c_i y_i^2 <= R. Returns (c, e, rows, R),
    where rows[i][j] = e_i u_ij for j > i and 0 otherwise.
    """
    d, u = ldl_decompose(q)
    n = len(d)
    e = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    terms = [d[i] / (e[i] * e[i]) for i in range(n)]
    s = lcm(bound.denominator, *(c.denominator for c in terms))
    rows = [tuple(int(u[i][j] * e[i]) if j > i else 0 for j in range(n)) for i in range(n)]
    return [int(c * s) for c in terms], e, rows, int(bound * s)


def _search(c, e, rows, level, x, remaining, out):
    # Coordinates are fixed from the last index downwards. On level i,
    # c_i y^2 <= remaining with y = e_i x_i + T_i bounds |y| by
    # s = isqrt(remaining // c_i), exactly, since y^2 is an integer.
    t = sum(map(mul, rows[level], x))
    s = isqrt(remaining // c[level])
    den = e[level]
    span = range(-((s + t) // den), (s - t) // den + 1)
    if level == 0:
        rest = tuple(x[1:])
        out.extend((xi,) + rest for xi in span)
        return
    for xi in span:
        x[level] = xi
        y = den * xi + t
        _search(c, e, rows, level - 1, x, remaining - c[level] * y * y, out)
    x[level] = 0


def short_vectors_up_to_sign(q: Sequence[Sequence], bound) -> list[Vec]:
    """One of each pair +-x of nonzero integer vectors with x^T q x <= bound.

    ``q`` must be symmetric positive definite. The vector kept is the one
    whose last nonzero coordinate is positive: while the coordinates above
    a level are all zero its interval is symmetric about 0, so the search
    takes that level's positive half and leaves the rest free. Vectors
    come in search order.
    """
    bound = Fraction(bound)
    n, _ = shape(rat_matrix(q))
    if n == 0 or bound < 0:
        return []
    c, e, rows, total = _integer_levels(q, bound)
    out: list[Vec] = []
    x = [0] * n
    for lead in range(n - 1, -1, -1):
        # x_j = 0 above ``lead``, so T_lead = 0 and y = e_lead x_lead.
        for xl in range(1, isqrt(total // c[lead]) // e[lead] + 1):
            x[lead] = xl
            if lead == 0:
                out.append(tuple(x))
            else:
                y = e[lead] * xl
                _search(c, e, rows, lead - 1, x, total - c[lead] * y * y, out)
        x[lead] = 0
    return out


def short_vectors(q: Sequence[Sequence], bound, *, workers: int = 1) -> list[Vec]:
    """All nonzero integer vectors x with x^T q x <= bound, sorted.

    ``q`` must be symmetric positive definite; both x and -x are returned.
    ``workers`` is accepted for compatibility only: the search runs in one
    thread, and its result never depended on the worker count.
    """
    half = short_vectors_up_to_sign(q, bound)
    return sorted(half + [tuple(-c for c in x) for x in half])


def coordinate_radii(q: Sequence[Sequence], bound) -> list[Fraction]:
    """Per-coordinate bounds: |x_i| <= sqrt(bound * (q^-1)_ii) on the ball.

    Used by tests to certify that an enumeration stays inside a given box.
    Returns the exact values bound * (q^-1)_ii (squares of the radii).
    """
    bound = Fraction(bound)
    mat = rat_matrix(q)
    det = determinant(mat)
    if det == 0:
        raise ValidationError("singular form has no coordinate radii")
    n, _ = shape(mat)
    # (q^-1)_ii is the (i, i) cofactor over det q.
    minors = ([row[:i] + row[i + 1:] for k, row in enumerate(mat) if k != i] for i in range(n))
    return [bound * determinant(minor) / det for minor in minors]
