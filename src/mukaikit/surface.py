"""Finite-rank model of a K3 surface.

The (1,1) part of second cohomology is modelled as an orthogonal direct
sum of the Neron-Severi lattice and a transcendental block. Polarizations
are rational classes in the positive cone component selected by a
reference class, cut down by any user-supplied effective curve classes.
Reduced-rank transcendental blocks are allowed: every verdict downstream
is signature-level, so desk-scale models suffice.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LatticeMismatchError, ValidationError
from .exactlin import bilinear
from .lattice import Lattice, LatticeVector
from .records import record


@record
class H11Class:
    """A (1,1) class split into its NS and transcendental parts."""

    ns_part: LatticeVector
    t_part: LatticeVector

    def __repr__(self):
        return f"({self.ns_part!r}; {self.t_part!r})"


@record
class K3Model:
    ns: Lattice
    reference_positive: H11Class
    t11: Lattice = Lattice(())
    curve_classes: tuple[LatticeVector, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "curve_classes", tuple(self.curve_classes))
        ns_plus, ns_zero, _ = self.ns.signature()
        if ns_zero:
            raise ValidationError("NS lattice must be nondegenerate")
        if ns_plus > 1:
            raise ValidationError("NS lattice has more than one positive direction")
        t_plus, t_zero, _ = self.t11.signature()
        if t_zero:
            raise ValidationError("transcendental block must be nondegenerate")
        if ns_plus + t_plus > 1:
            raise ValidationError("H^{1,1} model has more than one positive direction")
        self._check_membership(self.reference_positive)
        for c in self.curve_classes:
            if c.lattice != self.ns:
                raise LatticeMismatchError("curve classes must live in NS")
        if self.square(self.reference_positive) <= 0:
            raise ValidationError("reference class must have positive square")

    def _check_membership(self, omega: H11Class) -> None:
        if omega.ns_part.lattice != self.ns:
            raise LatticeMismatchError("NS part lives in the wrong lattice")
        if omega.t_part.lattice != self.t11:
            raise LatticeMismatchError("transcendental part lives in the wrong lattice")

    def h11(self, ns_coords, t_coords=()) -> H11Class:
        return H11Class(self.ns.vector(ns_coords), self.t11.vector(t_coords))

    def pair(self, x: H11Class, y: H11Class) -> Fraction:
        """Intersection pairing on the full (1,1) model; blocks are orthogonal."""
        self._check_membership(x)
        self._check_membership(y)
        return Fraction(*self._scaled_pair(x, y))

    def _scaled_pair(self, x: H11Class, y: H11Class) -> tuple[int, int]:
        """x.y as ints (n, d) with x.y = n / d, for classes already checked to live here.

        With x = (a / da; b / db) and y = (c / dc; e / de) as stored,
        d = da db dc de > 0 and n = db de (a.G.c) + da dc (b.T.e).
        """
        a, b, c, e = x.ns_part, x.t_part, y.ns_part, y.t_part
        return (b.den * e.den * bilinear(self.ns.gram, a.num, c.num)
                + a.den * c.den * bilinear(self.t11.gram, b.num, e.num),
                a.den * b.den * c.den * e.den)

    def square(self, x: H11Class) -> Fraction:
        return self.pair(x, x)


def is_projective_surface(m: K3Model) -> bool:
    """True iff NS represents a positive square, i.e. n_plus(NS) >= 1."""
    n_plus, _, _ = m.ns.signature()
    return n_plus >= 1


def polarization_defect(m: K3Model, omega: H11Class, name: str = "omega") -> str | None:
    """The first polarization condition that omega fails, with its value; None if none.

    The conditions, in order: positive square, positive pairing with the
    reference class (the same cone component), positive on every curve
    class. ``name`` is how the message writes omega.

    Decided on ints: omega^2 and omega.reference are n / d from
    ``K3Model._scaled_pair``, with d > 0, so each has the sign of n; and
    C.omega = c.G.x / (dc dx) for C = c / dc and the NS part x / dx of
    omega. A Fraction is built only for the message.
    """
    m._check_membership(omega)
    square, d = m._scaled_pair(omega, omega)
    if square <= 0:
        return f"{name}^2={Fraction(square, d)} <= 0"
    paired, d = m._scaled_pair(omega, m.reference_positive)
    if paired <= 0:
        return f"{name}.reference={Fraction(paired, d)} <= 0"
    x = omega.ns_part
    for c in m.curve_classes:
        value = bilinear(m.ns.gram, c.num, x.num)
        if value <= 0:
            return f"C.{name}={Fraction(value, c.den * x.den)} <= 0 for the curve class C={c!r}"
    return None


def is_polarization(m: K3Model, omega: H11Class) -> bool:
    """Positive square, same cone component as the reference, positive on curves."""
    return polarization_defect(m, omega) is None
