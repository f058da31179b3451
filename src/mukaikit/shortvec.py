"""Enumeration of short vectors of positive definite integer forms.

Fincke-Pohst style search in exact arithmetic: the form is split as
q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 with d_i > 0, once, read
off the leading minors and pivot rows of a fraction-free (Bareiss)
elimination of the integer form; the split is scaled to integers, and
the search cuts each coordinate interval with integer square roots and
floor divisions alone, so no floating point and no Fraction enters it.
It keeps one of each pair +-x (the one whose last nonzero coordinate is
positive), since q(-x) = q(x). It runs in one thread. The form has int
entries and the bound may be rational; a caller with a rational form
scales it and the bound by one positive common denominator, which keeps
every vector and the search order.

An optional leaf clip, a pair (p, r) of integer linear forms, keeps only
the x with p(x) r(x) <= 0. Coordinates are fixed from the last down, so
at level 0 both forms are affine in x_0: p(x) = p_0 x_0 + P and
r(x) = r_0 x_0 + R with P, R fixed integers. The product is then <= 0
exactly on
  - the closed interval between the roots -P/p_0 and -R/r_0 when
    p_0 r_0 > 0;
  - the two closed rays outside them when p_0 r_0 < 0;
  - the closed ray where the affine form has the sign opposite to the
    constant one when exactly one of p_0, r_0 is 0 (everything when that
    constant is 0);
  - everything or nothing by the sign of P R when p_0 = r_0 = 0.
Floor and ceiling divisions turn the rational roots into integer
ranges, which are cut from x_0's interval in increasing order, so the
vectors kept come in the order of the unclipped search.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from .errors import ValidationError
from .exactlin import congruence_pivots, int_matrix, is_symmetric

Vec = tuple[int, ...]


def _integer_levels(q: Sequence[Sequence[int]], bound: Fraction):
    """The LDL split of the integer form ``q``, scaled so the search runs on integers.

    Pivot row i of ``congruence_pivots`` holds D_i, the i-th leading minor,
    and a_ij = D_i u_ij, so d_i = D_i / D_{i-1}. With g_i = gcd(D_i, a_ij
    for j > i), e_i = D_i / g_i is the common denominator of row i of u,
    and with T_i = sum_{j>i} (a_ij / g_i) x_j the level-i term of q(x) is
    d_i (x_i + T_i / e_i)^2 = g_i^2 / (D_i D_{i-1}) * y_i^2, y_i = e_i x_i + T_i.
    Scaling by s, the least common denominator of those coefficients and
    of ``bound``, gives integers c_i and R with s q(x) = sum c_i y_i^2 and
    q(x) <= bound iff sum c_i y_i^2 <= R. Returns (c, e, rows, R) with
    rows[i][j] = a_ij / g_i for j > i, else 0. Raises if the form is not
    positive definite (exact test).
    """
    # Positive definite iff every D_i is positive and no direction is left
    # zero; then each pivot is the lowest live index, so row i is pivot i.
    pivots, n_zero = congruence_pivots(q)
    if n_zero or any(i != k or row[i] <= 0 for k, (i, row) in enumerate(pivots)):
        raise ValidationError("form is not positive definite")
    terms, e, rows, prev = [], [], [], 1
    for i, row in pivots:
        minor = row[i]
        g = gcd(minor, *row[i + 1:])
        h = gcd(g * g, minor * prev)
        terms.append((g * g // h, minor * prev // h))
        e.append(minor // g)
        rows.append((0,) * (i + 1) + tuple(x // g for x in row[i + 1:]))
        prev = minor
    s = lcm(bound.denominator, *(den for _, den in terms))
    c = [num * (s // den) for num, den in terms]
    return c, e, rows, bound.numerator * (s // bound.denominator)


def _clip(lo, hi, clip, x):
    """The integers x_0 in [lo, hi] with p(x) r(x) <= 0, as increasing ranges.

    ``x`` holds x_1.. with x_0 = 0, so P = p(x) and R = r(x) are the
    constant terms of the two forms, affine in x_0 (see the module notes).
    """
    p, r = clip
    p0, r0 = p[0], r[0]
    big_p, big_r = sum(map(mul, p, x)), sum(map(mul, r, x))
    if p0 and r0:
        # Roots -P/p0 and -R/r0: floors f and ceilings c.
        f1, f2 = -big_p // p0, -big_r // r0
        c1, c2 = -(big_p // p0), -(big_r // r0)
        if (p0 > 0) == (r0 > 0):
            return (range(max(lo, min(c1, c2)), min(hi, max(f1, f2)) + 1),)
        f = min(f1, f2)
        return range(lo, min(hi, f) + 1), range(max(lo, max(c1, c2), f + 1), hi + 1)
    if p0 or r0:
        # k (a x_0 + b) <= 0 with the constant factor k.
        k, a, b = (big_r, p0, big_p) if p0 else (big_p, r0, big_r)
        if k < 0:
            a, b = -a, -b
        elif not k:
            return (range(lo, hi + 1),)
        # a x_0 + b <= 0.
        if a > 0:
            return (range(lo, min(hi, -b // a) + 1),)
        return (range(max(lo, -(b // a)), hi + 1),)
    return (range(lo, hi + 1),) if big_p * big_r <= 0 else ()


def _leaves(lo, hi, clip, x, out):
    """Append (x_0, x_1, ...) for the x_0 in [lo, hi] that the clip keeps."""
    rest = tuple(x[1:])
    for span in (range(lo, hi + 1),) if clip is None else _clip(lo, hi, clip, x):
        out.extend((xi,) + rest for xi in span)


def _search(c, e, rows, level, x, remaining, out, clip):
    # Coordinates are fixed from the last index downwards. On level i,
    # c_i y^2 <= remaining with y = e_i x_i + T_i bounds |y| by
    # s = isqrt(remaining // c_i), exactly, since y^2 is an integer.
    t = sum(map(mul, rows[level], x))
    s = isqrt(remaining // c[level])
    den = e[level]
    lo, hi = -((s + t) // den), (s - t) // den
    if level == 0:
        _leaves(lo, hi, clip, x, out)
        return
    for xi in range(lo, hi + 1):
        x[level] = xi
        y = den * xi + t
        _search(c, e, rows, level - 1, x, remaining - c[level] * y * y, out, clip)
    x[level] = 0


def short_vectors_up_to_sign(q: Sequence[Sequence[int]], bound, clip=None) -> list[Vec]:
    """One of each pair +-x of nonzero integer vectors with x^T q x <= bound.

    ``q`` must be a symmetric positive definite matrix of ints; ``bound``
    is any rational. The vector kept is the one whose last nonzero
    coordinate is positive: while the coordinates above a level are all
    zero its interval is symmetric about 0, so the search takes that
    level's positive half and leaves the rest free. Vectors come in search
    order.

    ``clip``, if given, is a pair (p, r) of integer coefficient rows; then
    only the x with (p . x)(r . x) <= 0 are kept, in the same order. The
    test is exact and made on x_0's interval at level 0, where both forms
    are affine in x_0 (see the module notes), so no other vector is built.
    """
    bound = Fraction(bound)
    q = int_matrix(q)
    n = len(q)
    if n == 0 or bound < 0:
        return []
    if not is_symmetric(q):
        raise ValidationError("short vectors require a symmetric form")
    c, e, rows, total = _integer_levels(q, bound)
    out: list[Vec] = []
    x = [0] * n
    for lead in range(n - 1, 0, -1):
        # x_j = 0 above ``lead``, so T_lead = 0 and y = e_lead x_lead.
        for xl in range(1, isqrt(total // c[lead]) // e[lead] + 1):
            x[lead] = xl
            y = e[lead] * xl
            _search(c, e, rows, lead - 1, x, total - c[lead] * y * y, out, clip)
        x[lead] = 0
    # Last, x = (x_0, 0, ..., 0) with x_0 > 0.
    _leaves(1, isqrt(total // c[0]) // e[0], clip, x, out)
    return out
