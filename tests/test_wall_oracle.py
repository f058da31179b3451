"""Differential tests of the integer wall layer against the Fraction oracle.

Random congruent rank-2 and rank-3 NS Grams at Mukai ranks 6-10, where
wall classes reach coordinates past the 50-box of the numpy oracles, and
segments with rational endpoints. The short-vector search is checked
against a brute-force box and the Fraction search on random positive
definite rational forms.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product
from math import isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mukaikit import H11Class, K3Model, Lattice, Segment, WallProfile, diagonal_lattice, wall_bound
from mukaikit.errors import HypothesisViolation
from mukaikit.exactlin import invert_unimodular, mat_vec
from mukaikit.shortvec import coordinate_radii, short_vectors, short_vectors_up_to_sign
from mukaikit.walls import segment_candidate_bound, walls_crossing_segment, walls_through_class

from conftest import random_unimodular
from fraction_oracle import fraction_short_vectors, oracle_crossings, oracle_walls_through_class

SETTINGS = settings(deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

FAMILIES = {2: (2, -2), 3: (2, -2, -4)}


def _dot(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _congruent_model(seed: int, rank: int):
    """A model on P^T diag P, and the map from diagonal coordinates to its basis."""
    rng = random.Random(seed)
    base = FAMILIES[rank]
    p = random_unimodular(rng, rank, rng.randint(0, 6))
    gram = tuple(
        tuple(sum(p[k][i] * base[k] * p[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )
    inv = invert_unimodular(p)
    ns = Lattice(gram, "NS")
    ref = mat_vec(inv, (1,) + (0,) * (rank - 1))
    model = K3Model(ns=ns, reference_positive=H11Class(ns.vector(ref), Lattice(()).zero()))
    return model, inv


def _profile(rank: int, r: int, k: int) -> WallProfile:
    # Rank 2 uses v^2 = 2 (bounds 630 to 5050); rank 3 takes v^2 = 2k - 2r^2,
    # so Delta = k / r^2 and the bound r^2 k / 2 keeps the Fraction oracle quick.
    if rank == 2:
        return WallProfile(r, F(2, 2 * r * r) + 1)
    return WallProfile(r, F(k, r * r))


@st.composite
def crossing_cases(draw):
    """A short segment anywhere in the positive cone, endpoints over primes."""
    rank = draw(st.sampled_from((2, 3)))
    model, inv = _congruent_model(draw(st.integers(0, 10**6)), rank)
    profile = _profile(rank, draw(st.integers(6, 10)), draw(st.integers(1, 8)))
    base = FAMILIES[rank]
    # Centre (1, y[, z]) in the diagonal basis with 2 y^2 (+ 4 z^2) <= 0.95^2 * 2;
    # near the boundary of the cone the crossing walls have large coordinates.
    coord = st.builds(lambda k, sign: k * sign, st.integers(300, 950), st.sampled_from((1, -1)))
    centre = draw(st.lists(coord, min_size=rank - 1, max_size=rank - 1)
                  .filter(lambda c: sum(-b * x * x for b, x in zip(base[1:], c)) <= 2 * 950**2))
    step = draw(st.lists(st.integers(-20, 20), min_size=rank - 1, max_size=rank - 1))
    ends = []
    for sign in (-1, 1):
        # Round to a prime denominator, numerators prime to it: a wall through
        # the endpoint then has coordinates divisible by the prime, so small
        # primes can put endpoints on walls and large ones cannot.
        prime = draw(st.sampled_from((99991, 10007, 1009, 101, 7)))
        nums = [(c + sign * u) * prime // 1000 for c, u in zip(centre, step)]
        x = [F(1)] + [F(k + (k % prime == 0), prime) for k in nums]
        assume(sum(b * c * c for b, c in zip(base, x)) > 0)
        ends.append(model.h11(mat_vec(inv, x)))
    return model, profile, Segment(*ends)


@settings(SETTINGS, max_examples=50)
@given(crossing_cases())
def test_crossings_match_fraction_oracle(case):
    model, profile, seg = case
    on_wall = [oracle_walls_through_class(model, profile, e) for e in (seg.start, seg.end)]
    if any(on_wall):
        try:
            walls_crossing_segment(model, profile, seg)
        except HypothesisViolation as exc:
            assert "D^2" in str(exc)
        else:
            raise AssertionError("an endpoint on a wall was accepted")
        return
    got = [(c.wall.d.coords, c.wall.d_square, c.t)
           for c in walls_crossing_segment(model, profile, seg)]
    assert got == oracle_crossings(model, profile, seg.start, seg.end)


def _check_on_wall_message(model, profile, seg):
    """An endpoint on a wall is named by walls_through_class's first wall, start before end.

    Returns the message, or None when both endpoints are generic.
    """
    for name, endpoint in (("start", seg.start), ("end", seg.end)):
        on = walls_through_class(model, profile, endpoint)
        if on:
            with pytest.raises(HypothesisViolation) as exc:
                walls_crossing_segment(model, profile, seg)
            w = on[0]
            message = f"segment {name} point lies on a wall D={w.d!r} with D^2={w.d_square}"
            assert str(exc.value) == message
            return message
    walls_crossing_segment(model, profile, seg)
    return None


def _check_candidate_bound(model, profile, seg):
    """The majorant bound holds the walls through either endpoint (t = 0 and t = 1)."""
    bound = wall_bound(profile)
    mbound = segment_candidate_bound(model, seg.start, seg.end, bound)
    assert bound <= mbound
    a, w = model.square(seg.start), seg.start.ns_part.coords
    for endpoint in (seg.start, seg.end):
        for wall in walls_through_class(model, profile, endpoint):
            dw = _dot(model.ns.gram, wall.d.coords, w)
            assert 2 * dw * dw / a - wall.d_square <= mbound


@settings(SETTINGS, max_examples=50)
@given(crossing_cases())
def test_on_wall_message_names_first_wall(case):
    _check_on_wall_message(*case)


@settings(SETTINGS, max_examples=50)
@given(crossing_cases())
def test_candidate_bound_holds_walls_through_endpoints(case):
    _check_candidate_bound(*case)


# NS entries, start, end and the message (wall bound 8).
ON_WALL = [
    # End only; two walls of D^2 = -2 through it, the smaller key named.
    ((2, -2, -2), (1, F(1, 7), F(1, 11)), (1, 0, 0),
     "segment end point lies on a wall D=(0, 0, 1) with D^2=-2"),
    # Both endpoints on D = (0, 1, 0): the start is named.
    ((2, -2, -4), (1, 0, 0), (1, 0, F(1, 5)),
     "segment start point lies on a wall D=(0, 1, 0) with D^2=-2"),
    # Four walls through the start (D^2 = -2, -4, -6, -6): the largest D^2 is named.
    ((2, -2, -4), (1, 0, 0), (1, F(1, 7), F(1, 11)),
     "segment start point lies on a wall D=(0, 1, 0) with D^2=-2"),
]


@pytest.mark.parametrize("entries, start, end, message", ON_WALL)
def test_on_wall_message_cases(entries, start, end, message):
    ns = diagonal_lattice(entries, "NS")
    model = K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))
    profile = WallProfile(2, F(1))
    seg = Segment(model.h11(start), model.h11(end))
    assert _check_on_wall_message(model, profile, seg) == message
    _check_candidate_bound(model, profile, seg)


@st.composite
def through_cases(draw):
    """A polarization on the hyperplane of a nearly isotropic negative class D."""
    rank = draw(st.sampled_from((2, 3)))
    model, inv = _congruent_model(draw(st.integers(0, 10**6)), rank)
    gram = model.ns.gram
    h = model.reference_positive.ns_part.coords
    # (a, a + e[, c]) in the diagonal basis has square -2 e (2 a + e) (- 4 c^2).
    a = draw(st.integers(0, 300 if rank == 2 else 100))
    e = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    d = mat_vec(inv, [a, a + e] + [draw(st.integers(-3, 3)) for _ in range(rank - 2)])
    if _dot(gram, d, d) >= 0:
        d = mat_vec(inv, [0] * (rank - 1) + [1])
    # -(D^2 h - (h.D) D) is orthogonal to D, of positive square, on h's side.
    dd, hd = _dot(gram, d, d), _dot(gram, h, d)
    omega = model.h11([-(dd * hc - hd * dc) for hc, dc in zip(h, d)])
    return model, _profile(rank, draw(st.integers(6, 10)), draw(st.integers(1, 8))), omega


@settings(SETTINGS, max_examples=30)
@given(through_cases())
def test_walls_through_class_match_fraction_oracle(case):
    model, profile, omega = case
    got = [(w.d.coords, w.d_square) for w in walls_through_class(model, profile, omega)]
    assert got == oracle_walls_through_class(model, profile, omega)


@st.composite
def rational_forms(draw):
    """A positive definite rational form A^T A + c I and a rational bound."""
    n = draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    c = F(draw(st.integers(1, 6)), draw(st.integers(1, 5)))
    q = tuple(
        tuple(sum(a[k][i] * a[k][j] for k in range(n)) + (c if i == j else 0) for j in range(n))
        for i in range(n)
    )
    return q, F(draw(st.integers(0, 200)), draw(st.integers(1, 7)))


@settings(SETTINGS, max_examples=60)
@given(rational_forms())
def test_half_search_matches_box_and_fraction_search(case):
    q, bound = case
    n = len(q)
    half = short_vectors_up_to_sign(q, bound)
    assert all(next(c for c in reversed(x) if c) > 0 for x in half)
    full = sorted(half + [tuple(-c for c in x) for x in half])
    assert len(set(full)) == len(full)
    assert full == short_vectors(q, bound) == fraction_short_vectors(q, bound)
    radii = [isqrt(r2.numerator // r2.denominator) for r2 in coordinate_radii(q, bound)]
    if all(r <= 12 for r in radii) and n <= 3:
        box = [
            x for x in product(*(range(-r, r + 1) for r in radii))
            if any(x) and _dot(q, x, x) <= bound
        ]
        assert full == box
