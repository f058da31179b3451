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
vectors kept come in the order of the unclipped search. No clip is the
clip p = r = 0, which keeps every x_0.

Levels 1 and 0 run as one loop over x_1 (``_last_two``), where the search
spends most of its steps: with x_2.. fixed, T_0 and the clip constants
P and R are affine in x_1, so each step updates them by one addition,
x_0's interval comes from one ``isqrt`` and two floor divisions, and
``zip`` builds the vectors of each kept range. Only the levels above 1
recurse. The vectors and their order are those of the plain recursion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
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


def _clip(lo, hi, p0, r0, big_p, big_r):
    """The integers x_0 in [lo, hi] with (p_0 x_0 + P)(r_0 x_0 + R) <= 0, as increasing ranges."""
    if p0 and r0:
        # Roots -P/p0 and -R/r0: floors f1 <= f2 and ceilings c1 <= c2.
        f1, f2 = -big_p // p0, -big_r // r0
        c1, c2 = -(big_p // p0), -(big_r // r0)
        if f1 > f2:
            f1, f2 = f2, f1
        if c1 > c2:
            c1, c2 = c2, c1
        if (p0 > 0) == (r0 > 0):
            return (range(c1 if c1 > lo else lo, (f2 if f2 < hi else hi) + 1),)
        return range(lo, min(hi, f1) + 1), range(max(lo, c2, f1 + 1), hi + 1)
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


def _last_two(c, e, rows, x, remaining, lo1, hi1, t1, out, clip):
    """Levels 1 and 0 as one loop: each x_1 in [lo1, hi1], then its x_0 ranges.

    ``x`` holds the fixed x_2.. (its first two entries are not read), ``t1``
    is T_1 and ``remaining`` what levels 1 and 0 may use. T_0 and the clip
    constants P = p(x), R = r(x) at x_0 = 0 are affine in x_1, so each
    step adds rows[0][1], p_1 and r_1 to them; every x_0 interval comes from
    one ``isqrt`` and two floor divisions, and ``zip`` builds the vectors.
    """
    (p, r), rest = clip, x[2:]
    c1, e1, c0, e0, u = c[1], e[1], c[0], e[0], rows[0][1]
    p0, p1, r0, r1 = p[0], p[1], r[0], r[1]
    t0 = u * lo1 + sum(map(mul, rows[0][2:], rest))
    big_p = p1 * lo1 + sum(map(mul, p[2:], rest))
    big_r = r1 * lo1 + sum(map(mul, r[2:], rest))
    y = e1 * lo1 + t1
    fixed = [repeat(xj) for xj in rest]
    for x1 in range(lo1, hi1 + 1):
        s = isqrt((remaining - c1 * y * y) // c0)
        lo, hi = -((s + t0) // e0), (s - t0) // e0
        if lo <= hi:
            for span in _clip(lo, hi, p0, r0, big_p, big_r):
                out.extend(zip(span, repeat(x1), *fixed))
        y += e1
        t0 += u
        big_p += p1
        big_r += r1


def _search(c, e, rows, level, x, remaining, out, clip):
    # Coordinates are fixed from the last index downwards, here for level >= 1.
    # On level i, c_i y^2 <= remaining with y = e_i x_i + T_i bounds |y| by
    # s = isqrt(remaining // c_i), exactly, since y^2 is an integer.
    t = sum(map(mul, rows[level], x))
    s = isqrt(remaining // c[level])
    den = e[level]
    lo, hi = -((s + t) // den), (s - t) // den
    if level == 1:
        _last_two(c, e, rows, x, remaining, lo, hi, t, out, clip)
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
    if clip is None:
        clip = ((0,) * n, (0,) * n)  # p = r = 0 keeps every vector
    out: list[Vec] = []
    x = [0] * n
    for lead in range(n - 1, 1, -1):
        # x_j = 0 above ``lead``, so T_lead = 0 and y = e_lead x_lead.
        for xl in range(1, isqrt(total // c[lead]) // e[lead] + 1):
            x[lead] = xl
            y = e[lead] * xl
            _search(c, e, rows, lead - 1, x, total - c[lead] * y * y, out, clip)
        x[lead] = 0
    if n > 1:
        # x = (x_0, x_1, 0, ..., 0) with x_1 > 0.
        _last_two(c, e, rows, x, total, 1, isqrt(total // c[1]) // e[1], 0, out, clip)
    # Last, x = (x_0, 0, ..., 0) with x_0 > 0, where P = R = 0.
    zeros = (0,) * (n - 1)
    for span in _clip(1, isqrt(total // c[0]) // e[0], clip[0][0], clip[1][0], 0, 0):
        out.extend((xi,) + zeros for xi in span)
    return out
