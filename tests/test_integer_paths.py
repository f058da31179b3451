"""The integer paths after the crossing search.

The crossing sort key floor(N^2 p / n) against sorting by the Fraction
t = p / n, on a segment whose omega_t lies on several walls at one t;
``lattice.pairing`` against the oracle's per-coordinate Fraction pairing
on large prime denominators; ``clear_denominators`` on ints, Fractions,
empty and zero rows; and the range and sign checks of ``Wall`` on their
boundaries.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import H11Class, K3Model, Lattice, MukaiVector, Segment, diagonal_lattice
from mukaikit.errors import LatticeMismatchError, ValidationError
from mukaikit.exactlin import clear_denominators
from mukaikit.lattice import pairing
from mukaikit.walls import Wall, _sort_by_t, walls_crossing_segment

from fraction_oracle import _pair, oracle_crossings

SETTINGS = settings(deadline=None, derandomize=True)

# Five- to seven-digit primes.
PRIMES = (10007, 65537, 99991, 100003, 999983, 1000003, 9999991)


# -- Crossing sort key ------------------------------------------------------------


@st.composite
def crossing_lists(draw):
    """(p, n, key) entries with t = p / n in (0, 1), n of both signs, t often repeated."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ts = [F(rng.randint(1, d - 1), d)
          for d in (rng.choice((2, 3, 7) + PRIMES) for _ in range(rng.randint(1, 6)))]
    out = []
    for _ in range(draw(st.integers(0, 40))):
        t = rng.choice(ts)
        k = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 12))
        key = tuple(rng.randint(-3, 3) for _ in range(3))
        out.append((t.numerator * k, t.denominator * k, key))
    return out


@settings(SETTINGS, max_examples=200)
@given(crossing_lists())
def test_integer_key_sorts_like_fraction_t(crossings):
    want = sorted(crossings, key=lambda c: (F(c[0], c[1]), c[2]))
    got = list(crossings)
    _sort_by_t(got)
    assert [(F(p, n), key) for p, n, key in got] == [(F(p, n), key) for p, n, key in want]


def test_integer_key_separates_neighbours_with_large_denominators():
    # 1/q and 1/(q+1) differ by less than 1/q^2.
    q = 9999991
    crossings = [(-1, -(q + 1), (0, 1)), (1, q, (0, 0)), (2, 2 * q + 2, (1, 0)), (q, q + 1, (0, 0))]
    _sort_by_t(crossings)
    assert [(F(p, n), key) for p, n, key in crossings] == [
        (F(1, q + 1), (0, 1)), (F(1, q + 1), (1, 0)), (F(1, q), (0, 0)), (F(q, q + 1), (0, 0)),
    ]


def test_sort_by_t_of_nothing():
    crossings = []
    _sort_by_t(crossings)
    assert crossings == []


def test_rank3_segment_through_four_walls_at_one_t():
    # omega_{1/3} is (1, 1/2, 0), orthogonal to (0, 0, 1), (1, 2, 0) and (1, 2, +-1).
    ns = diagonal_lattice((2, -2, -4))
    m = K3Model(ns=ns, reference_positive=H11Class(ns.vector((1, 0, 0)), Lattice(()).zero()))
    profile = MukaiVector(2, ns.zero(), 2 * (1 - F(3, 2)))  # Delta = 3/2: bound 12
    start, end = m.h11((1, F(5, 6), F(1, 5))), m.h11((1, F(-1, 6), F(-2, 5)))
    got = walls_crossing_segment(m, profile, Segment(start, end))
    at_third = [c.wall.d.coords for c in got if c.t == F(1, 3)]
    assert at_third == [(0, 0, 1), (1, 2, -1), (1, 2, 0), (1, 2, 1)]
    assert len(Counter(c.t for c in got)) == 8
    keys = [(c.t, c.wall.d.coords) for c in got]
    assert keys == sorted(keys)
    assert [(c.wall.d.coords, c.wall.d_square, c.t) for c in got] == oracle_crossings(
        m, profile, start, end)


# -- Pairing ----------------------------------------------------------------------


@st.composite
def paired_vectors(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(1, 6)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = rng.choice((0, 0, rng.randint(-9, 9)))

    def vector():
        return tuple(rng.choice((0, rng.randint(-50, 50),
                                 F(rng.randint(-10 ** 8, 10 ** 8), rng.choice(PRIMES))))
                     for _ in range(n))

    return Lattice(tuple(map(tuple, gram))), vector(), vector()


@settings(SETTINGS, max_examples=200)
@given(paired_vectors())
def test_pairing_matches_the_oracle_pairing(case):
    lat, x, y = case
    u, v = lat.vector(x), lat.vector(y)
    assert pairing(u, v) == _pair(lat.gram, x, y)
    assert pairing(u, u) == _pair(lat.gram, x, x)
    assert pairing(u, v) == pairing(v, u)


def test_pairing_of_mismatched_lattices_raises():
    with pytest.raises(LatticeMismatchError):
        pairing(diagonal_lattice((2, -2)).vector((1, 0)), diagonal_lattice((2, -4)).vector((1, 0)))


# -- clear_denominators -----------------------------------------------------------


@pytest.mark.parametrize("row, ints, denom", [
    ((3, -4, 0), (3, -4, 0), 1),
    ((F(1, 2), F(-1, 3), 5), (3, -2, 30), 6),
    ((F(4, 6), F(1, 10007)), (20014, 3), 30021),
    ((), (), 1),
    ((0, F(0), 0), (0, 0, 0), 1),
])
def test_clear_denominators(row, ints, denom):
    got = clear_denominators(row)
    assert got == (ints, denom)
    assert all(type(c) is int for c in got[0])


# -- Wall range and sign ----------------------------------------------------------


@pytest.fixture
def ns():
    return diagonal_lattice((2, -2, -4))


def test_wall_square_at_a_non_integral_bound_is_accepted(ns):
    wall = Wall(ns.vector((0, 2, 1)), F(-12), F(25, 2))
    assert -wall.bound < wall.d_square == -12
    assert Wall(ns.vector((0, 1, 0)), -2, 12).d_square == -2


@pytest.mark.parametrize("coords, d_square, bound, message", [
    ((0, 1, 0), F(-25, 2) - F(1, 9999991), F(25, 2), "wall square out of range"),
    ((0, 1, 0), F(0), F(25, 2), "wall square out of range"),
    ((0, 1, 0), F(-2), F(-1, 2), "wall square out of range"),
    ((0, -1, 1), F(-6), F(25, 2), "wall class must be nonzero with canonical sign"),
    ((F(-1, 3), 1, 0), F(-16, 9), F(25, 2), "wall class must be nonzero with canonical sign"),
    ((0, 0, 0), F(-2), F(25, 2), "wall class must be nonzero with canonical sign"),
    ((1, 0, 0), F(2), F(25, 2), "wall square out of range"),
])
def test_wall_rejects_out_of_range_and_non_canonical(ns, coords, d_square, bound, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Wall(ns.vector(coords), d_square, bound)
