"""Mukai vectors over a Neron-Severi lattice.

A Mukai vector (v0, v1, v2) has rational rank and degree-4 components and
an NS-valued middle part; the pairing is v1.w1 - v0*w2 - v2*w0. Rational
components are first class citizens because twisted characters demand
them; integrality is a checked property, not a type constraint.

The pairing is written once, as a lattice: ``algebraic_mukai_lattice(ns)``
is U (+) NS, stored on the NS instance, and ``_algebraic_coords`` maps (r, xi, a) to the
int coordinates (r, -a, xi) there over one denominator. ``mukai_pairing``,
``mukai_square`` and ``discriminant`` read the Gram on those ints, and
``moduli`` reads the same map to embed v and to cut out the algebraic part
of v-perp, so no other module places (r, -a) by hand.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import HypothesisViolation
from .exactlin import bilinear
from .lattice import (
    Lattice,
    LatticeVector,
    _check_same_lattice,
    _exact,
    _exact_int,
    direct_sum,
    pairing,
    u_lattice,
)
from .records import record


@record
class MukaiVector:
    v0: Fraction
    v1: LatticeVector
    v2: Fraction

    def __post_init__(self):
        # Integer types become ints, so numpy ints cannot overflow; a float or
        # a complex raises ValidationError, as in ``LatticeVector``.
        for name in ("v0", "v2"):
            object.__setattr__(self, name, Fraction(_exact(getattr(self, name))))

    @property
    def lattice(self) -> Lattice:
        return self.v1.lattice

    @property
    def is_integral(self) -> bool:
        return (
            self.v0.denominator == 1
            and self.v2.denominator == 1
            and self.v1.is_integral
        )

    def __repr__(self):
        return f"({self.v0}, {self.v1!r}, {self.v2})"


@record
class TopologicalType:
    """Chern-class data (r, c1, c2) of a positive-rank sheaf."""

    r: int
    c1: LatticeVector
    c2: int

    def __post_init__(self):
        # Integer types become ints, so numpy ints cannot overflow; a float or
        # a non-integral value raises ValidationError.
        for name in ("r", "c2"):
            object.__setattr__(self, name, _exact_int(getattr(self, name)))
        if self.r <= 0:
            raise HypothesisViolation("topological type requires positive rank")


def algebraic_mukai_lattice(ns: Lattice) -> Lattice:
    """U (+) NS, the algebraic Mukai lattice, in the basis of ``_algebraic_coords``.

    (r, xi, a) has the coordinates (r, -a, xi), so U pairs (r, -a) with
    (r', -a') to -r a' - a r' and NS pairs xi with xi': the Gram pairs two
    classes to xi.xi' - r a' - a r', the Mukai pairing.

    Built once per NS instance and stored on it, as ``Lattice.signature`` is
    (no field: ``==``, ``hash`` and ``repr`` do not see it), so it is freed
    with the NS and a lookup hashes no Gram.
    """
    alg = ns.__dict__.get("_algebraic_mukai")
    if alg is None:
        alg = direct_sum((u_lattice(), ns))
        object.__setattr__(ns, "_algebraic_mukai", alg)
    return alg


def _algebraic_coords(v: MukaiVector) -> tuple[tuple[int, ...], int]:
    """(c, d) with v = c / d in ``algebraic_mukai_lattice``: c = (r, -a, xi) times
    d = lcm(den r, den a, den xi) as ints, so d = 1 exactly when v is integral.

    The one map from a Mukai vector to its coordinates, and the one place
    where (r, -a) is put in U.
    """
    r, a, xi = v.v0, v.v2, v.v1
    d = lcm(r.denominator, a.denominator, xi.den)
    k = d // xi.den
    return (r.numerator * (d // r.denominator), -a.numerator * (d // a.denominator),
            *(k * x for x in xi.num)), d


def mukai_pairing(x: MukaiVector, y: MukaiVector) -> Fraction:
    """v1.w1 - v0 w2 - v2 w0: the Gram of ``algebraic_mukai_lattice`` on the int
    coordinates of x and y, one Fraction over the product of their denominators."""
    _check_same_lattice(x.v1, y.v1)
    (c, d), (e, k) = _algebraic_coords(x), _algebraic_coords(y)
    return Fraction(bilinear(algebraic_mukai_lattice(x.lattice).gram, c, e), d * k)


def mukai_square(x: MukaiVector) -> Fraction:
    return mukai_pairing(x, x)


def discriminant(v: MukaiVector) -> Fraction:
    """v^2 / (2 v0^2) + 1; the Bogomolov-inequality quantity.

    Delta has degree 0 in v. With v = c / d as ``_algebraic_coords`` gives
    it, v^2 = (c G c) / d^2 and v0^2 = c0^2 / d^2 for the Gram G of
    ``algebraic_mukai_lattice``. The d^2 cancels:
    Delta = (c G c + 2 c0^2) / (2 c0^2), one Fraction built from ints.
    """
    if v.v0 == 0:
        raise HypothesisViolation("discriminant requires nonzero rank")
    c, _ = _algebraic_coords(v)
    r2 = 2 * c[0] * c[0]
    return Fraction(bilinear(algebraic_mukai_lattice(v.lattice).gram, c, c) + r2, r2)


def discriminant_from_chern(tau: TopologicalType) -> Fraction:
    """(1/r)(c2 - (r-1)/(2r) c1^2), the Chern-class form of the discriminant."""
    r = Fraction(tau.r)
    return (Fraction(tau.c2) - (r - 1) / (2 * r) * tau.c1.square()) / r


def topological_type(v: MukaiVector) -> TopologicalType:
    """(r, c1, c2) of an integral positive-rank Mukai vector."""
    if not v.is_integral:
        raise HypothesisViolation("topological type requires an integral Mukai vector")
    if v.v0 < 1:
        raise HypothesisViolation("topological type requires rank >= 1")
    c2 = v.v1.square() / 2 + v.v0 - v.v2
    if c2.denominator != 1:
        raise HypothesisViolation(f"second Chern class {c2} is not an integer")
    return TopologicalType(int(v.v0), v.v1, int(c2))


def mukai_product(x: MukaiVector, y: MukaiVector) -> MukaiVector:
    """Cup product of even-degree classes, componentwise on (r, c1, s)."""
    return MukaiVector(
        x.v0 * y.v0,
        y.v1.scale(x.v0) + x.v1.scale(y.v0),
        x.v0 * y.v2 + x.v2 * y.v0 + pairing(x.v1, y.v1),
    )


def exp_class(delta: LatticeVector) -> MukaiVector:
    """(1, delta, delta^2/2): exponential of a degree-2 class."""
    return MukaiVector(Fraction(1), delta, delta.square() / 2)
