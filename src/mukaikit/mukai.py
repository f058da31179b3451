"""Mukai vectors over a Neron-Severi lattice.

A Mukai vector (v0, v1, v2) has rational rank and degree-4 components and
an NS-valued middle part; the pairing is v1.w1 - v0*w2 - v2*w0. Rational
components are first class citizens because twisted characters demand
them; integrality is a checked property, not a type constraint.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import HypothesisViolation
from .exactlin import bilinear, clear_denominators
from .lattice import Lattice, LatticeVector, _exact, _exact_int, pairing
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


def mukai_pairing(x: MukaiVector, y: MukaiVector) -> Fraction:
    return pairing(x.v1, y.v1) - x.v0 * y.v2 - x.v2 * y.v0


def mukai_square(x: MukaiVector) -> Fraction:
    return mukai_pairing(x, x)


def discriminant(v: MukaiVector) -> Fraction:
    """v^2 / (2 v0^2) + 1; the Bogomolov-inequality quantity.

    Delta has degree 0 in v. Scaled by the denominator of v1 and cleared
    of denominators together, k v = (r, x, a) with integers, so
    v^2 = (x^2 - 2 r a) / k^2 and v0^2 = r^2 / k^2. The k^2 cancels:
    Delta = (x^2 - 2 r a + 2 r^2) / (2 r^2), one Fraction built from ints.
    """
    if v.v0 == 0:
        raise HypothesisViolation("discriminant requires nonzero rank")
    (r, a, *x), _ = clear_denominators((v.v0 * v.v1.den, v.v2 * v.v1.den) + v.v1.num)
    return Fraction(bilinear(v.lattice.gram, x, x) - 2 * r * a + 2 * r * r, 2 * r * r)


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
