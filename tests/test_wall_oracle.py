"""Differential tests of the integer wall layer against the Fraction oracle.

Random congruent rank-2 and rank-3 NS Grams at Mukai ranks 6-10, where
wall classes reach coordinates past the 50-box of the numpy oracles, and
segments with rational endpoints, some with an endpoint orthogonal to
the first basis vector, and segments on models with a transcendental
block (NS of rank 1 to 3, projective or not), whose T parts enter the
segment set-up. The short-vector search is checked against a
brute-force box and the Fraction search on random positive definite
rational forms, which it sees with their denominators cleared, and its
leaf clip against filtering the unclipped search.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product
from math import isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mukaikit import (
    H11Class,
    K3Model,
    Lattice,
    MukaiVector,
    Segment,
    diagonal_lattice,
    is_polarization,
    wall_bound,
)
from mukaikit.errors import HypothesisViolation
from mukaikit.exactlin import clear_denominators, mat_vec
from mukaikit.shortvec import short_vectors_up_to_sign
from mukaikit.walls import _majorant, walls_crossing_segment, walls_through_class

from conftest import cleared_form, random_unimodular
from fraction_oracle import (
    _pair_h11,
    coordinate_radii,
    fraction_short_vectors,
    invert_unimodular,
    oracle_crossings,
    oracle_walls_through_class,
    segment_bound,
)

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


def _profile(ns: Lattice, r: int, k: int) -> MukaiVector:
    # (r, 0, r (1 - Delta)) has discriminant Delta. Rank 2 uses v^2 = 2 (bounds
    # 630 to 5050); rank 3 takes v^2 = 2k - 2r^2, so Delta = k / r^2 and the
    # bound r^2 k / 2 keeps the Fraction oracle quick.
    delta = F(2, 2 * r * r) + 1 if ns.rank == 2 else F(k, r * r)
    return MukaiVector(r, ns.zero(), r * (1 - delta))


@st.composite
def crossing_cases(draw):
    """A short segment anywhere in the positive cone, endpoints over primes."""
    rank = draw(st.sampled_from((2, 3)))
    model, inv = _congruent_model(draw(st.integers(0, 10**6)), rank)
    profile = _profile(model.ns, draw(st.integers(6, 10)), draw(st.integers(1, 8)))
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


@st.composite
def axis_cases(draw):
    """A segment with G.omega = 0 in its first entry at the start, the end or both.

    Such an endpoint zeroes the first coefficient of its row in the
    search's leaf clip. It is orthogonal to the first basis vector e_0,
    so e_0 must have negative square, and then e_0 is itself a wall
    through it unless e_0^2 < -bound. So the basis is the diagonal one
    with e_0 replaced by (1, k[, l]), k >= 5, of square at most -48, and
    the wall bound is below 48. Points are drawn in the diagonal basis
    with prime denominators and projected to e_0^perp, which has one
    positive direction, by omega - (omega.e_0 / e_0^2) e_0.
    """
    rank = draw(st.sampled_from((2, 3)))
    base = FAMILIES[rank]
    e0 = [1, draw(st.integers(5, 8)) * draw(st.sampled_from((1, -1)))]
    e0 += [draw(st.integers(-2, 2)) for _ in range(rank - 2)]
    # Columns of p are the basis in diagonal coordinates; inv maps diagonal to model ones.
    p = [[e0[i] if j == 0 else int(i == j) for j in range(rank)] for i in range(rank)]
    gram = tuple(tuple(sum(p[k][i] * base[k] * p[k][j] for k in range(rank))
                       for j in range(rank)) for i in range(rank))
    inv = invert_unimodular(p)
    ns = Lattice(gram, "NS")
    ref = ns.vector(mat_vec(inv, [1] + [0] * (rank - 1)))
    model = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
    # Bounds 10 or 45 on rank 2, at most 36 on rank 3.
    profile = _profile(ns, draw(st.integers(2, 3)), draw(st.integers(1, 8)))
    assert wall_bound(profile) < -gram[0][0]
    e_sq = sum(b * c * c for b, c in zip(base, e0))

    def point(centre):
        prime = draw(st.sampled_from((99991, 10007, 1009, 101)))
        return [F(1)] + [F(c * prime // 1000 + 1, prime) for c in centre]

    def project(x):
        k = sum(b * c * e for b, c, e in zip(base, x, e0)) / e_sq
        return [c - k * e for c, e in zip(x, e0)]

    centre = draw(st.lists(st.integers(-600, 600), min_size=rank - 1, max_size=rank - 1))
    step = draw(st.lists(st.integers(-300, 300), min_size=rank - 1, max_size=rank - 1))
    start = point(centre)
    end = point([c + u for c, u in zip(centre, step)])
    where = draw(st.sampled_from(("start", "end", "both")))
    first = project(start)
    shift = [f - c for f, c in zip(first, start)]
    other = project(end) if where == "both" else [c + u for c, u in zip(end, shift)]
    ends = [model.h11(mat_vec(inv, first)), model.h11(mat_vec(inv, other))]
    assume(all(is_polarization(model, e) for e in ends))
    seg = Segment(*(ends[::-1] if where == "end" else ends))
    zeroed = {"start": (seg.start,), "end": (seg.end,), "both": (seg.start, seg.end)}[where]
    assert all(mat_vec(gram, e.ns_part.coords)[0] == 0 for e in zeroed)
    return model, profile, seg


def _check_against_oracle(model, profile, seg):
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


@settings(SETTINGS, max_examples=50)
@given(crossing_cases())
def test_crossings_match_fraction_oracle(case):
    _check_against_oracle(*case)


@settings(SETTINGS, max_examples=60)
@given(axis_cases())
def test_crossings_with_axis_endpoint_match_fraction_oracle(case):
    _check_against_oracle(*case)


@st.composite
def transcendental_cases(draw):
    """A short segment on a model with a nonzero transcendental block T.

    NS has rank 1 to 3 and Gram P^T diag P. Either NS is hyperbolic and T
    negative definite, or NS is negative definite and T holds the positive
    direction (a non-projective model). Both endpoints have nonzero T parts
    over prime denominators of their own, so omega^2, omega.omega' and
    omega'^2 each carry a T term with a denominator apart from the NS one.
    """
    # <2> alone has no wall, so a projective NS has rank 2 or 3.
    projective, rank = draw(st.sampled_from(((True, 2), (True, 3), (False, 1), (False, 2),
                                             (False, 3))))
    base = (2, -2, -4)[:rank] if projective else (-2, -4, -6)[:rank]
    t_base = ((-2, -4) if projective else (6, -2))[:draw(st.integers(1, 2))]
    rng = random.Random(draw(st.integers(0, 10**6)))
    p = random_unimodular(rng, rank, rng.randint(0, 6))
    gram = tuple(tuple(sum(p[k][i] * base[k] * p[k][j] for k in range(rank))
                       for j in range(rank)) for i in range(rank))
    inv = invert_unimodular(p)
    ns, t11 = Lattice(gram, "NS"), diagonal_lattice(t_base, "T")
    if projective:
        ref = H11Class(ns.vector(mat_vec(inv, (1,) + (0,) * (rank - 1))), t11.zero())
    else:
        ref = H11Class(ns.zero(), t11.basis_vector(0))
    model = K3Model(ns=ns, reference_positive=ref, t11=t11)
    r, k = draw(st.integers(2, 5)), draw(st.integers(1, 8))
    profile = MukaiVector(r, ns.zero(), r * (1 - F(k, r * r)))  # bound r^2 k / 2
    # The unit coordinate: the first NS one if projective, else the first T one.
    free = (rank - 1, len(t_base)) if projective else (rank, len(t_base) - 1)
    centre = [draw(st.integers(-300, 300)) for _ in range(sum(free))]
    step = [draw(st.integers(-150, 150)) for _ in centre]
    prime = st.sampled_from((101, 1009, 10007, 99991))
    ends = []
    for sign in (-1, 1):
        ns_prime, t_prime = draw(prime), draw(prime)
        coords = []
        for c, u, den in zip(centre, step, [ns_prime] * free[0] + [t_prime] * free[1]):
            num = (c + sign * u) * den // 1000
            coords.append(F(num + (num % den == 0), den))
        unit = F(t_prime + draw(st.integers(-3, 3)), t_prime)
        if projective:
            x, y = [F(1)] + coords[:free[0]], coords[free[0]:]
        else:
            x, y = coords[:free[0]], [unit] + coords[free[0]:]
        sq = sum(b * c * c for b, c in zip(base + t_base, x + y))
        assume(sq > 0)
        ends.append(model.h11(mat_vec(inv, x), y))
    return model, profile, Segment(*ends)


@settings(SETTINGS, max_examples=60)
@given(transcendental_cases())
def test_crossings_with_transcendental_block_match_fraction_oracle(case):
    _check_against_oracle(*case)


@settings(SETTINGS, max_examples=40)
@given(transcendental_cases())
def test_search_gets_the_majorant_of_the_full_h11_pairing(case):
    """The form, bound and clip the search receives, from the Fraction pairings with T."""
    model, profile, seg = case
    gram = model.ns.gram
    calls = []

    def recorded(*args):
        calls.append(args)
        return short_vectors_up_to_sign(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mukaikit.walls.shortvec.short_vectors_up_to_sign", recorded)
        try:
            walls_crossing_segment(model, profile, seg)
        except HypothesisViolation:
            pass
    x, do = clear_denominators(seg.start.ns_part.coords)
    maj, an = _majorant(gram, mat_vec(gram, x),
                        *(do * do * _pair_h11(model, seg.start, seg.start)).as_integer_ratio())
    mbound = segment_bound(model, seg.start, seg.end, wall_bound(profile)) * an
    rows = tuple(mat_vec(gram, clear_denominators(e.ns_part.coords)[0])
                 for e in (seg.start, seg.end))
    assert calls == [(maj, mbound, rows)]


def test_crossings_on_zero_ns_are_empty():
    """NS = 0 with T = <2>: no class can be a wall, and no Gram entry is read."""
    ns, t11 = Lattice(()), diagonal_lattice((2,), "T")
    model = K3Model(ns=ns, reference_positive=H11Class(ns.zero(), t11.vector((1,))), t11=t11)
    seg = Segment(model.h11((), (F(1, 3),)), model.h11((), (F(7, 5),)))
    assert walls_crossing_segment(model, MukaiVector(3, ns.zero(), -5), seg) == []


def test_crossings_on_rank1_ns_match_fraction_oracle():
    """NS = <-2> with T = <2>: the wall e, crossed where the NS part changes sign."""
    ns, t11 = diagonal_lattice((-2,), "NS"), diagonal_lattice((2,), "T")
    model = K3Model(ns=ns, reference_positive=H11Class(ns.zero(), t11.vector((1,))), t11=t11)
    seg = Segment(model.h11((F(-1, 3),), (F(5, 7),)), model.h11((F(1, 5),), (1,)))
    profile = MukaiVector(2, ns.zero(), 0)  # bound 8: the walls e, 2e are one class
    got = [(c.wall.d.coords, c.wall.d_square, c.t)
           for c in walls_crossing_segment(model, profile, seg)]
    assert got == oracle_crossings(model, profile, seg.start, seg.end) == [((1,), -2, F(5, 8))]


@settings(SETTINGS, max_examples=30)
@given(st.one_of(crossing_cases(), axis_cases()))
def test_integer_majorant_scales_the_fraction_majorant(case):
    model, _, seg = case
    gram, omega = model.ns.gram, seg.start
    x, do = clear_denominators(omega.ns_part.coords)
    a = _pair_h11(model, omega, omega)
    maj, an = _majorant(gram, mat_vec(gram, x), *(do * do * a).as_integer_ratio())
    assert an > 0 and all(type(e) is int for row in maj for e in row)
    w = mat_vec(gram, omega.ns_part.coords)
    n = len(gram)
    former = [[2 * w[i] * w[j] / a - gram[i][j] for j in range(n)] for i in range(n)]
    assert maj == tuple(tuple(an * e for e in row) for row in former)


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
    mbound = segment_bound(model, seg.start, seg.end, bound)
    assert bound <= mbound
    a, w = _pair_h11(model, seg.start, seg.start), seg.start.ns_part.coords
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
    profile = MukaiVector(2, ns.zero(), 0)  # Delta = 1
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
    return model, _profile(model.ns, draw(st.integers(6, 10)), draw(st.integers(1, 8))), omega


@settings(SETTINGS, max_examples=30)
@given(through_cases())
def test_walls_through_class_match_fraction_oracle(case):
    model, profile, omega = case
    got = [(w.d.coords, w.d_square) for w in walls_through_class(model, profile, omega)]
    assert got == oracle_walls_through_class(model, profile, omega)


@st.composite
def rational_forms(draw):
    """A positive definite rational form A^T A + c I and a rational bound.

    The library searches integer forms: tests hand it ``cleared_form`` of
    these and check it against the oracles on the rational form itself.
    """
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
    cleared = cleared_form(q, bound)
    half = short_vectors_up_to_sign(*cleared)
    assert all(next(c for c in reversed(x) if c) > 0 for x in half)
    full = sorted(half + [tuple(-c for c in x) for x in half])
    assert len(set(full)) == len(full)
    assert full == fraction_short_vectors(q, bound)
    radii = [isqrt(r2.numerator // r2.denominator) for r2 in coordinate_radii(q, bound)]
    if all(r <= 12 for r in radii) and n <= 3:
        box = [
            x for x in product(*(range(-r, r + 1) for r in radii))
            if any(x) and _dot(q, x, x) <= bound
        ]
        assert full == box


CLIP_CASES = ("p0 r0 > 0", "p0 r0 < 0", "p0 = 0 != r0", "r0 = 0 != p0", "p0 = r0 = 0",
              "p = 0", "r = 0", "r = k p", "r = -k p")


@st.composite
def clipped_forms(draw, case):
    """A rational form and bound, cleared to an integer form, and integer
    rows p, r whose first entries fit ``case``."""
    q, bound = cleared_form(*draw(rational_forms()))
    n = len(q)
    coef = st.integers(-6, 6)
    p, r = [draw(coef) for _ in range(n)], [draw(coef) for _ in range(n)]
    p[0] = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
    r[0] = draw(st.integers(1, 6)) * (1 if p[0] > 0 else -1)
    if case == "p0 r0 < 0":
        r[0] = -r[0]
    elif case in ("p0 = 0 != r0", "p0 = r0 = 0"):
        p[0] = 0
    if case in ("r0 = 0 != p0", "p0 = r0 = 0"):
        r[0] = 0
    if case == "p = 0":
        p = [0] * n
    elif case == "r = 0":
        r = [0] * n
    elif case in ("r = k p", "r = -k p"):
        # One common root: p0 r0 > 0 keeps only p(x) = 0, p0 r0 < 0 keeps everything once.
        k = draw(st.integers(1, 3)) * (1 if case == "r = k p" else -1)
        r = [k * c for c in p]
    return q, bound, p, r


@pytest.mark.parametrize("case", CLIP_CASES)
@settings(SETTINGS, max_examples=25)
@given(data=st.data())
def test_clip_keeps_the_sign_change_in_search_order(case, data):
    q, bound, p, r = data.draw(clipped_forms(case))
    dot = lambda row, x: sum(a * b for a, b in zip(row, x))
    want = [x for x in short_vectors_up_to_sign(q, bound) if dot(p, x) * dot(r, x) <= 0]
    assert short_vectors_up_to_sign(q, bound, (p, r)) == want
