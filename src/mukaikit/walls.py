"""Walls and chambers for polarizations.

The wall functions take a Mukai vector v of integral positive rank r.
With discriminant Delta of v, the wall classes are the D in NS with
-r^4 Delta / 2 <= D^2 < 0; a polarization is generic when no wall class
is orthogonal to it. A twisted class enters through its twisted Mukai
vector ``twisted.v_E``, which has the same rank and the discriminant
``twisted.delta_E``, so its wall set is that of v_E.

Everything here is decided in exact arithmetic: each query runs one
search for short vectors of a definite form, one of each pair +-x (for
a segment, on a majorant ball that also holds the walls through either
endpoint, with an integer Gram and clipped to the classes D with
(D.omega)(D.omega') <= 0), and the filter after the search runs on
integers. The forms G.omega of the polarizations are built once per
call from the stored numerators (``LatticeVector.num``), and the set-up
of a segment query runs on ints: omega^2, omega.omega' and omega'^2 come
from the model's one integer pairing on H^{1,1}, ``K3Model._scaled_pair``,
each as a numerator over a product of the denominators, and give the
majorant bound as one Fraction. The filter keeps the primitive hits only
(``_in_bound`` shows that no wall is lost), and canonical sign, squares
and sign tests work on int tuples.
Crossings are sorted by an exact integer key (see
``walls_crossing_segment``).

Each fact is checked once. The search and the filter prove on ints that
a returned class is primitive, has canonical sign and satisfies
-bound <= D^2 < 0, so the returned walls are built by ``Wall._trusted``,
the unchecked constructor that ``records.record`` generates: it stores
D, D^2 and bound as given and skips the checks of ``Wall``, and only the
walls returned are built. Their D is ``LatticeVector._trusted``: the int
tuple of the search (a zip of ints, or a ``vec_mat`` of a saturated
basis) with den = 1, primitive by the filter's gcd and of canonical sign
by its flip, so no coordinate is converted and no denominator cleared.
The public constructors keep every check. ``walls_through_class`` is its
polarization check followed by the check-free ``_walls_through``, which
``moduli.moduli_report`` runs directly once its own test has passed omega.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product, starmap
from math import gcd
from operator import mul, neg

from . import shortvec
from .errors import HypothesisViolation, InternalError, ValidationError
from .exactlin import bilinear, mat_vec, vec_mat
from .lattice import LatticeVector, _exact_int, orthogonal_complement
from .mukai import MukaiVector, discriminant
from .records import record
from .surface import H11Class, K3Model, polarization_defect


def wall_bound(v: MukaiVector) -> Fraction:
    """r^4 Delta / 2 = r^2 (v^2 + 2 r^2) / 4. Negative exactly when the wall set is empty.

    ``discriminant`` reads Delta = (v^2 + 2 r^2) / (2 r^2) off the integer
    Mukai square as one Fraction n / d in lowest terms; the bound is the
    Fraction r^4 n / (2 d). A twisted class enters through its twisted
    Mukai vector ``twisted.v_E``, whose discriminant is ``delta_E``.
    """
    if not isinstance(v, MukaiVector):
        raise ValidationError(f"wall sets are defined for Mukai vectors, not {v!r}")
    if v.v0 < 1:
        raise HypothesisViolation("wall sets are defined for positive rank")
    if v.v0.denominator != 1:
        raise HypothesisViolation("wall sets are defined for integral positive rank")
    delta = discriminant(v)
    return Fraction(v.v0.numerator ** 4 * delta.numerator, 2 * delta.denominator)


@record
class Wall:
    """A primitive integral NS class D of negative square within the wall bound.

    Stored with canonical sign (first nonzero coordinate positive) so
    that D and -D, which cut the same hyperplane, coincide. A wall is
    (D, D^2, bound) however it was found, so the wall of a destabilizer
    equals the wall that a search returns.
    """

    d: LatticeVector
    d_square: Fraction
    bound: Fraction

    def __post_init__(self):
        # -bound <= D^2 < 0 on numerators and (positive) denominators.
        sq, bound, d = self.d_square, self.bound, self.d
        if not (sq.numerator < 0
                and -bound.numerator * sq.denominator <= sq.numerator * bound.denominator):
            raise ValidationError("wall square out of range")
        first = next((c for c in d.num if c), 0)
        if first <= 0:
            raise ValidationError("wall class must be nonzero with canonical sign")
        if d.den != 1 or gcd(*d.num) != 1:
            raise ValidationError(f"wall class {d!r} must be integral and primitive")
        d_square = bilinear(d.lattice.gram, d.num, d.num)
        if sq != d_square:
            raise ValidationError(f"wall square {sq} is not D^2={d_square} for D={d!r}")


def wall_set_is_empty(m: K3Model, v: MukaiVector) -> bool | None:
    """Whether no NS class at all satisfies the wall inequality.

    Decided exactly when the bound is negative or NS is negative definite
    (a finite ball); on an indefinite NS with nonnegative bound the
    answer would need representation theory, so None is returned.
    """
    bound = wall_bound(v)
    if bound < 0:
        return True
    n_plus, _, _ = m.ns.signature()
    if n_plus > 0:
        return None
    # NS is nondegenerate with no positive direction, so every nonzero
    # class has negative square.
    neg = tuple(tuple(-x for x in row) for row in m.ns.gram)
    return not shortvec.short_vectors_up_to_sign(neg, bound)


@record
class DestabilizerVerdict:
    """Classification of D = r zeta - s xi for a potential destabilizer."""

    kind: str  # "zero" | "wall" | "out_of_range"
    d: LatticeVector
    d_square: Fraction
    bound: Fraction
    wall: Wall | None
    reason: str


def destabilizer_wall(v: MukaiVector, s: int, zeta: LatticeVector) -> DestabilizerVerdict:
    """Wall attached to a rank-s subsheaf with first Chern class zeta.

    Genuine slope-equal subsheaf data always lands in the closed range
    [-r^4 Delta/2, 0]; anything outside is reported as an inconsistency
    rather than silently kept. s goes through ``lattice._exact_int``, so a
    float or a non-integral rank raises before the range check.
    """
    bound = wall_bound(v)
    r, s = v.v0.numerator, _exact_int(s)
    if not 0 < s < r:
        raise HypothesisViolation(f"subsheaf rank {s} must lie strictly between 0 and {r}")
    d = zeta.scale(r) - v.v1.scale(s)
    sq = d.square()
    if d.is_zero:
        return DestabilizerVerdict("zero", d, sq, bound, None, "proportional Chern classes")
    if sq >= 0:
        return DestabilizerVerdict(
            "out_of_range", d, sq, bound, None,
            "nonnegative square is impossible for a class orthogonal to a polarization",
        )
    if sq < -bound:
        return DestabilizerVerdict(
            "out_of_range", d, sq, bound, None,
            f"square {sq} below the wall bound {-bound}",
        )
    key = _primitive_canonical(d.num)
    key_sq = Fraction(bilinear(d.lattice.gram, key, key))
    wall = Wall(d.lattice.vector(key), key_sq, bound)
    return DestabilizerVerdict("wall", d, sq, bound, wall, "in range")


def _primitive_canonical(coords: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive vector on the line of nonzero ``coords``, first nonzero entry positive."""
    g = gcd(*coords)
    if next(c for c in coords if c) < 0:
        g = -g
    return coords if g == 1 else tuple(c // g for c in coords)


def _in_bound(gram, bound: Fraction, hits) -> list[tuple[tuple[int, ...], int]]:
    """(D, D^2) for the primitive hits D with -bound <= D^2 < 0, D with canonical sign.

    A non-primitive hit is skipped, not reduced, and no wall is lost. Each
    search keeps the x with q(x) <= B for a quadratic form q (the negated
    form on omega-perp, or the majorant), and the segment search also
    needs (p.x)(r.x) <= 0 for two linear forms p, r. If x = k y with
    k >= 2 is a hit, then q(y) = q(x) / k^2 <= B and
    (p.y)(r.y) = (p.x)(r.x) / k^2 <= 0, so y or -y, whichever of the pair
    the search keeps, is a hit too; the primitive class that reducing x
    would give is reached directly. ``walls_through_class`` searches in
    the coordinates of a saturated basis of omega-perp and hands over the
    NS vectors; saturation makes a vector primitive in NS exactly when its
    coordinates are primitive, so the argument carries over. The search
    returns distinct vectors, one of each pair +-x, so every primitive
    class comes once and nothing is deduplicated.

    The loop builds no generator: D^2 is the flat Gram times the pairs
    x_i x_j of ``product``, and a nonzero x has canonical sign exactly when
    it is lexicographically above the zero tuple.
    """
    lo = -(bound.numerator // bound.denominator)  # D^2 >= -bound iff D^2 >= ceil(-bound)
    flat = tuple(chain.from_iterable(gram))
    zero = (0,) * len(gram)
    found = []
    for x in hits:
        if gcd(*x) != 1:
            continue
        sq = sum(map(mul, flat, starmap(mul, product(x, repeat=2))))
        if lo <= sq < 0:
            found.append((x if x > zero else tuple(map(neg, x)), sq))
    return found


def walls_through_class(m: K3Model, v: MukaiVector, omega: H11Class) -> list[Wall]:
    """All wall classes of v orthogonal to the polarization omega.

    The conditions D . omega = 0 cut a saturated sublattice of NS on
    which the form is negative definite (omega has positive square), so
    the wall inequality -bound <= D^2 < 0 confines D to a finite ball
    which is enumerated exactly.
    """
    defect = polarization_defect(m, omega)
    if defect:
        raise HypothesisViolation(f"walls are computed through polarizations only ({defect})")
    return _walls_through(m, v, omega)


def _walls_through(m: K3Model, v: MukaiVector, omega: H11Class) -> list[Wall]:
    """``walls_through_class`` for an omega that the caller has proved to be a
    polarization; it checks nothing of omega."""
    bound = wall_bound(v)
    perp = orthogonal_complement(m.ns, omega.ns_part)
    neg = tuple(tuple(-x for x in r) for r in perp.sub.gram)
    hits = shortvec.short_vectors_up_to_sign(neg, bound)
    found = _in_bound(m.ns.gram, bound, (vec_mat(x, perp.basis) for x in hits))
    found.sort(key=lambda kv: (-kv[1], kv[0]))
    return [Wall._trusted(LatticeVector._trusted(m.ns, key), Fraction(sq), bound)
            for key, sq in found]


@record
class Segment:
    """The affine segment t -> (1-t) start + t end between two polarizations."""

    start: H11Class
    end: H11Class


@record
class WallCrossing:
    wall: Wall
    t: Fraction


def _majorant_bound(bound: Fraction, a: int, b: int, c: int, scale: int) -> Fraction:
    """scale * bound * (2 b^2 - ac) / (ac), for a = w^2, b = w.w' and c = w'^2.

    It bounds the majorant M(x) = 2 (x.w)^2/w^2 - x^2 on every wall D that
    meets the segment from w to w'; b > 0 and b^2 >= ac, as H^{1,1} has one
    positive direction. Through w (t = 0), M(D) = -D^2 <= bound. Through
    w_t with 0 < t <= 1, D.w and D.w' have opposite signs or D.w' = 0;
    splitting D along the span of w, w' (negative definite complement)
    gives (D.w)^2 <= bound * (b^2 - ac) / c (at t = 1: Cauchy-Schwarz in
    w'^perp). Either way M(D) <= bound * (2 b^2 - ac) / (ac), using
    b^2 >= ac at t = 0. ``walls_crossing_segment`` searches this ball of
    its integer Gram scale * M, clipped to (D.w)(D.w') <= 0.

    The value is unchanged when a, b, c are replaced by k^2 a, k l b, l^2 c
    for any k, l > 0, so the numerators of ``K3Model._scaled_pair`` serve as
    well as the Fractions; either way it is one Fraction.
    """
    return Fraction(scale * bound.numerator * (2 * b * b - a * c), bound.denominator * a * c)


def _majorant(gram, w, num: int, den: int):
    """The majorant M as an integer Gram an * M, and an.

    Here omega_ns = x / do with x integer, w = G x and do^2 omega^2 =
    num / den = an / ad in lowest terms, an > 0. Then (y.omega)^2 / omega^2 =
    ad (w.y)^2 / an, so an * M(y) = 2 ad (w.y)^2 - an y^2. The search on
    an * M with bound an * mbound finds the vectors of M with mbound, in
    the same order, since the LDL split and every interval it cuts are
    invariant under a positive scale.
    """
    g = gcd(num, den)
    an, ad = num // g, den // g
    twice = 2 * ad
    maj = tuple(tuple(twice * wi * wj - an * gij for wj, gij in zip(w, row))
                for wi, row in zip(w, gram))
    return maj, an


def _sort_by_t(crossings: list) -> None:
    """Sort (p, n, key, ...) entries by t = p / n and then by key, on ints.

    The key floor(N^2 p / n) with N = max |n| is exact; the proof is in
    ``walls_crossing_segment``.
    """
    scale = max((abs(c[1]) for c in crossings), default=0) ** 2
    crossings.sort(key=lambda c: ((c[0] * scale) // c[1], c[2]))


def walls_crossing_segment(m: K3Model, v: MukaiVector, seg: Segment) -> list[WallCrossing]:
    """All walls separating the endpoints, each with its crossing parameter.

    Both endpoints must be generic (no wall through either); walls are
    reported with the exact t in (0,1) where D . omega_t = 0, sorted by t
    and then by D. The one majorant search also finds the walls through
    the endpoints.

    Each t is kept as an integer pair (p, n) with t = p / n and sorted by
    the key floor(N^2 p / n), with N = max |n| over the crossings. The
    reduced denominator of every t divides its n, so it is at most N, and
    two different t differ by at least 1/N^2. So N^2 t values of different
    t are at least 1 apart and their floors are strictly ordered like t;
    equal t give equal floors, and ties fall back to D. Python's ``//``
    floors for either sign of n. ``Fraction(p, n)`` is built only for the
    returned list.
    """
    omega, omega_prime = seg.start, seg.end
    for name, endpoint, symbol in (("start", omega, "omega"), ("end", omega_prime, "omega'")):
        defect = polarization_defect(m, endpoint, symbol)
        if defect:
            raise HypothesisViolation(f"segment {name} point is not a polarization ({defect})")
    gram = m.ns.gram
    # NS parts x / do and x' / do' with x, x' integer, so D . omega = (w . D) / do
    # and D . omega' = (w' . D) / do' with the integer rows w = G x and w' = G x'.
    do, do_prime = omega.ns_part.den, omega_prime.ns_part.den
    w, w_prime = mat_vec(gram, omega.ns_part.num), mat_vec(gram, omega_prime.ns_part.num)
    # omega^2, omega.omega' and omega'^2 as a / k^2, b / (k l) and c / l^2, where
    # k and l are the products of the denominators of omega and of omega'.
    a, k2 = m._scaled_pair(omega, omega)
    b, kl = m._scaled_pair(omega, omega_prime)
    c, _ = m._scaled_pair(omega_prime, omega_prime)
    if b <= 0:
        # Both endpoints pair positively with the reference class, so they
        # share its cone component and b > 0 on every valid input.
        raise InternalError(f"endpoints lie in different positive-cone components "
                            f"(omega.omega'={Fraction(b, kl)})")
    bound = wall_bound(v)
    maj, an = _majorant(gram, w, do * do * a, k2)  # do^2 omega^2
    hits = shortvec.short_vectors_up_to_sign(maj, _majorant_bound(bound, a, b, c, an),
                                             (w, w_prime))
    crossings, on_wall = [], []
    for key, sq in _in_bound(gram, bound, hits):
        # p and q are D . omega and D . omega' times do * do'.
        p = sum(map(mul, w, key)) * do_prime
        q = sum(map(mul, w_prime, key)) * do
        if p and q:
            crossings.append((p, p - q, key, sq))
        else:
            # D meets an endpoint: start before end, then walls_through_class order.
            on_wall.append((p != 0, -sq, key))
    if on_wall:
        at_end, neg_sq, key = min(on_wall)
        raise HypothesisViolation(
            f"segment {'end' if at_end else 'start'} point lies on a wall "
            f"D={m.ns.vector(key)!r} with D^2={-neg_sq}"
        )
    _sort_by_t(crossings)
    return [WallCrossing(Wall._trusted(LatticeVector._trusted(m.ns, key), Fraction(sq), bound),
                         Fraction(p, n))
            for p, n, key, sq in crossings]


def is_generic(m: K3Model, v: MukaiVector, omega: H11Class) -> bool:
    """True when no wall class of v is orthogonal to omega."""
    return not walls_through_class(m, v, omega)


def same_chamber(m: K3Model, v: MukaiVector, omega: H11Class, omega_prime: H11Class) -> bool:
    """Whether two generic polarizations see the same stable sheaves.

    Chambers are convex, so this is equivalent to the segment between
    the classes crossing no wall.
    """
    return not walls_crossing_segment(m, v, Segment(omega, omega_prime))
