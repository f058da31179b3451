"""Numerical invariants of twisted sheaves.

Twisted sheaves enter only through numbers: the rank r, the first Chern
class xi and second Chern character a of F tensored with the dual of a
locally free twisting sheaf E, together with E's rank s, its ch2(E (x) E^dual)
value b, and optionally a rational B-field class. Every formula below
consumes exactly this data.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import HypothesisViolation, IntegralityWarning, ValidationError
from .lattice import LatticeVector, _exact, _exact_int
from .mukai import MukaiVector, discriminant, exp_class, mukai_product
from .records import record


@record
class TwistData:
    """Invariants of a locally free twisting sheaf E."""

    s: int
    b: Fraction
    b_field: LatticeVector | None = None

    def __post_init__(self):
        object.__setattr__(self, "s", _exact_int(self.s))
        if self.s < 1:
            raise HypothesisViolation("twisting sheaf must have rank >= 1")
        object.__setattr__(self, "b", Fraction(_exact(self.b)))


@record
class TwistedSheafData:
    """Invariants (r, xi, a) of F relative to the twisting sheaf."""

    r: int
    xi: LatticeVector
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _exact_int(self.r))
        if self.r < 1:
            raise HypothesisViolation("sheaf rank must be >= 1")
        object.__setattr__(self, "a", Fraction(_exact(self.a)))


def ch_E(f: TwistedSheafData, e: TwistData) -> MukaiVector:
    """Twisted Chern character (r, xi/s, (2as - rb)/(2s^2))."""
    s = Fraction(e.s)
    return MukaiVector(
        Fraction(f.r),
        f.xi.scale(1 / s),
        (2 * f.a * s - f.r * e.b) / (2 * s ** 2),
    )


def v_E(f: TwistedSheafData, e: TwistData) -> MukaiVector:
    """Twisted Mukai vector: ch_E with the rank added in degree 4."""
    c = ch_E(f, e)
    return MukaiVector(c.v0, c.v1, c.v2 + f.r)


def endo_ch2(f: TwistedSheafData, e: TwistData) -> Fraction:
    """ch2 of F (x) F^dual, recovered from the relative invariants.

    Tensoring with E (x) E^dual multiplies ranks and adds ch2 blockwise:
    r^2 b + s^2 ch2(F (x) F^dual) = 2 r s a - xi^2.
    """
    s = Fraction(e.s)
    return (2 * f.r * s * f.a - f.xi.square() - f.r ** 2 * e.b) / s ** 2


def delta_E(f: TwistedSheafData, e: TwistData) -> Fraction:
    """Discriminant v_E^2/(2r^2) + 1; independent of the twisting sheaf.

    Expanding v_E gives v_E^2 = (xi^2 - 2ras + r^2 b)/s^2 - 2r^2, which is
    -endo_ch2(f, e) - 2r^2 for every input, so the discriminant is also
    (-ch2(F (x) F^dual) - 2r^2)/(2r^2) + 1, which contains no E data at all.
    """
    return discriminant(v_E(f, e))


def w_xi(w: MukaiVector, xi: LatticeVector, r: int) -> MukaiVector:
    """e^(xi/r) * w for a twisted vector w = (r, 0, a); equals (r, xi, a + xi^2/2r).

    The result of a genuine twist is an integral Mukai vector; a
    non-integral outcome is reported as a warning, not an error, since
    the inputs may be exploratory.
    """
    if not w.v1.is_zero:
        raise ValidationError("w_xi expects a twisted vector with zero middle component")
    if w.v0 != r:
        raise ValidationError("rank argument disagrees with the twisted vector")
    out = mukai_product(exp_class(xi.scale(Fraction(1, r))), w)
    if not out.is_integral:
        warnings.warn(
            f"twist of {w!r} by {xi!r} is not integral: {out!r}",
            IntegralityWarning,
            stacklevel=2,
        )
    return out


def ch_B(che: MukaiVector, e: TwistData) -> MukaiVector:
    """B-field Chern character: ch_E twisted by exp of the B-field class."""
    if e.b_field is None:
        raise ValidationError("twist data carries no B-field class")
    return mukai_product(che, exp_class(e.b_field))


@record
class SubobjectWall:
    """Wall data of a destabilizing subobject in the twisted setting."""

    d: LatticeVector
    k: Fraction
    d_square: Fraction


def twisted_subobject_wall(
    f: TwistedSheafData, sub: TwistedSheafData, e: TwistData
) -> SubobjectWall:
    """Wall class D = r xi'/s - r' xi/s of a subsheaf, with its K-invariant.

    K is the defect of additivity of v_E^2/rank across the exact sequence
    0 -> F' -> F -> F'' -> 0 defined by the subobject,
    K = v_E(F)^2/r - v_E(F')^2/r' - v_E(F'')^2/r''. The terms of v_E^2/r
    linear in (r, a) cancel across the sequence, which leaves
    -K = (xi'^2/r' + xi''^2/r'' - xi^2/r)/s^2 = (r'' xi' - r' xi'')^2/(r r' r'' s^2),
    and D = (r'' xi' - r' xi'')/s. So K = -D^2/(r r' r'') for every input,
    and K is read off D^2.
    """
    if not 0 < sub.r < f.r:
        raise HypothesisViolation(
            f"subobject rank {sub.r} must lie strictly between 0 and {f.r}"
        )
    s = Fraction(e.s)
    d = sub.xi.scale(Fraction(f.r) / s) - f.xi.scale(Fraction(sub.r) / s)
    d_square = d.square()
    return SubobjectWall(d, -d_square / (f.r * sub.r * (f.r - sub.r)), d_square)
