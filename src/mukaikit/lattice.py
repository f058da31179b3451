"""Lattices with integer Gram matrices and their standard invariants.

Hosts the concrete lattices of the K3 world: hyperbolic planes U, the
negative definite E8 lattice, diagonal lattices and direct sums, with
pairings, saturated orthogonal complements and discriminant groups, all
in exact arithmetic. A lattice reduces its Gram for its signature once and
keeps the result, so a model's NS is reduced when ``K3Model`` is built and
every later verdict reads the kept signature. The unchecked constructors
that ``record`` generates take proved fields only: ``Lattice._trusted`` a Gram
built from validated ones, and ``LatticeVector._trusted(lattice, num)`` an
int tuple of the lattice's rank, over the default den = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd
from operator import index
from typing import Iterable, Sequence

from . import exactlin
from .errors import HypothesisViolation, LatticeMismatchError, ValidationError
from .exactlin import IntMatrix, int_matrix, rational_signature
from .records import record
from .serialize import read_p_q


@record(uncompared=("label",))
class Lattice:
    """Free abelian group of finite rank with an integer Gram matrix.

    A lattice is its Gram: ``==`` and ``hash`` read ``gram`` only, and
    ``label`` is display data for ``repr``.
    """

    gram: IntMatrix
    label: str = ""

    def __post_init__(self):
        gram = int_matrix(self.gram)
        object.__setattr__(self, "gram", gram)
        rows, cols = exactlin.shape(gram)
        if rows != cols:
            raise ValidationError("Gram matrix must be square")
        if not exactlin.is_symmetric(gram):
            raise ValidationError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def vector(self, coords: Iterable) -> "LatticeVector":
        return LatticeVector(self, coords)

    def basis_vector(self, i: int) -> "LatticeVector":
        if not 0 <= i < self.rank:
            raise ValidationError(f"basis index {i} out of range for rank {self.rank}")
        return self.vector(tuple(int(i == j) for j in range(self.rank)))

    def zero(self) -> "LatticeVector":
        return self.vector((0,) * self.rank)

    def signature(self) -> tuple[int, int, int]:
        """(n_plus, n_zero, n_minus) of the Gram, reduced once per instance.

        A lattice is its immutable Gram, so the first call stores the
        signature on the instance (no field: ``==``, ``hash`` and ``repr``
        do not see it) and later calls read it.
        """
        sig = self.__dict__.get("_signature")
        if sig is None:
            sig = rational_signature(self.gram)
            object.__setattr__(self, "_signature", sig)
        return sig

    def __repr__(self):
        name = self.label or f"rank-{self.rank} lattice"
        return f"Lattice({name})"


def _exact(x) -> int | Fraction:
    """A value-class entry as a Python int or a Fraction. Ints and Fractions pass
    as they are, other integer types (numpy's too) go through ``operator.index``,
    and a string through ``Fraction`` when it is 'p' or 'p/q' with q != 0, by the
    CLI's rule ``serialize.read_p_q``; a float, a complex or another string raises."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Fraction):
        return Fraction(x)
    if isinstance(x, str):
        q = read_p_q(x)
        if q is not None:
            return q
    try:
        return index(x)
    except TypeError:
        raise ValidationError(f"{x!r} is not an int, a Fraction or a 'p/q' string") from None


def _exact_int(x) -> int:
    """An integer field (a rank) as a Python int, through ``_exact``; a value
    that is not an integer raises too."""
    x = _exact(x)
    if x.denominator != 1:
        raise ValidationError(f"{x} is not an integer")
    return x.numerator


@record
class LatticeVector:
    """A rational vector of a fixed lattice, as ints ``num`` over one ``den``.

    Kept in lowest terms, den >= 1 and gcd(den, *num) = 1, so equal vectors
    have equal fields; ``coords`` gives the Fractions.
    """

    lattice: Lattice
    num: tuple[int, ...] = ()
    den: int = 1

    def __post_init__(self):
        if type(self.den) is not int or self.den < 1:
            raise ValidationError(f"vector denominator must be a positive int, got {self.den!r}")
        num, den = exactlin.clear_denominators(tuple(map(_exact, self.num)))
        den *= self.den
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        if len(num) != self.lattice.rank:
            raise ValidationError(
                f"vector of length {len(num)} in a rank-{self.lattice.rank} lattice"
            )

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def square(self) -> Fraction:
        return pairing(self, self)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_same_lattice(self, other)
        d, e = self.den, other.den
        num = tuple(a * e + b * d for a, b in zip(self.num, other.num))
        return LatticeVector(self.lattice, num, d * e)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + -other

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(self.lattice, tuple(-a for a in self.num), self.den)

    def scale(self, k) -> "LatticeVector":
        n, d = _exact(k).as_integer_ratio()
        return LatticeVector(self.lattice, tuple(n * a for a in self.num), d * self.den)

    def __repr__(self):
        return f"({', '.join(str(c) for c in self.coords)})"


def _check_same_lattice(x: LatticeVector, y: LatticeVector) -> None:
    if x.lattice != y.lattice:
        raise LatticeMismatchError("vectors live in different lattices")


def pairing(x: LatticeVector, y: LatticeVector) -> Fraction:
    """Intersection pairing x^T . gram . y, exact.

    With x = a / dx and y = b / dy as stored, the one Fraction built is
    (a^T gram b) / (dx dy), with ``exactlin.bilinear`` on ints.
    """
    _check_same_lattice(x, y)
    return Fraction(exactlin.bilinear(x.lattice.gram, x.num, y.num), x.den * y.den)


# -- Standard lattices --------------------------------------------------------

# Negated E8 Cartan matrix; node i is joined to node i+1 along the chain
# 0-1-2-3-4-5-6 with node 7 attached to node 4.
_E8_MINUS = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 1),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, 0, 0, -2),
)


def u_lattice() -> Lattice:
    """Hyperbolic plane: Gram [[0,1],[1,0]]."""
    return Lattice(((0, 1), (1, 0)), "U")


def e8_minus_lattice() -> Lattice:
    """Negative definite E8 lattice (even, unimodular)."""
    return Lattice(_E8_MINUS, "E8(-1)")


def diagonal_lattice(entries: Sequence[int], label: str = "") -> Lattice:
    gram = tuple(
        tuple(entries[i] if i == j else 0 for j in range(len(entries)))
        for i in range(len(entries))
    )
    return Lattice(gram, label or f"diag{tuple(entries)}")


def direct_sum(parts: Sequence[Lattice], label: str = "") -> Lattice:
    """Orthogonal direct sum, block diagonal Gram."""
    total = sum(p.rank for p in parts)
    rows = []
    offset = 0
    for part in parts:
        for row in part.gram:
            rows.append((0,) * offset + row + (0,) * (total - offset - part.rank))
        offset += part.rank
    return Lattice(tuple(rows), label or "(+)".join(p.label or "?" for p in parts))


@cache
def k3_lattice() -> Lattice:
    """U^3 (+) E8(-1)^2, the second cohomology lattice of a K3 surface."""
    u = u_lattice()
    e8 = e8_minus_lattice()
    return direct_sum((u, u, u, e8, e8), "LambdaK3")


def _mukai_summands() -> tuple[Lattice, ...]:
    u = u_lattice()
    e8 = e8_minus_lattice()
    return (u, u, u, u, e8, e8)


@cache
def full_mukai_lattice() -> Lattice:
    """U^4 (+) E8(-1)^2; the first U summand plays the role of H^0 (+) H^4."""
    return direct_sum(_mukai_summands(), "Mukai")


@cache
def full_mukai_blocks() -> tuple[int, ...]:
    """The end index of each orthogonal summand of ``full_mukai_lattice()``, in order."""
    return tuple(accumulate(part.rank for part in _mukai_summands()))


# -- Invariants ---------------------------------------------------------------


@record
class OrthogonalComplement:
    """Saturated orthogonal complement with its inclusion basis.

    ``basis`` rows are coordinates in the ambient lattice (Hermite normal
    form, hence deterministic); ``sub.gram`` is the induced Gram matrix.
    """

    sub: Lattice
    basis: IntMatrix


def orthogonal_complement(l: Lattice, v: LatticeVector) -> OrthogonalComplement:
    """Saturated sublattice of all x with pairing(x, v) = 0; ``sub``, whose Gram is
    a congruence of the validated ``l.gram``, is built by ``Lattice._trusted``."""
    if v.lattice != l:
        raise LatticeMismatchError("complement vectors must live in the given lattice")
    # x . gram . v = 0 is one integer linear condition on the numerators of v.
    basis = exactlin.integer_kernel_saturated(exactlin.mat_vec(l.gram, v.num))
    sub = Lattice._trusted(exactlin.congruence(basis, l.gram), f"{l.label}-perp")
    return OrthogonalComplement(sub, basis)


def discriminant_group(l: Lattice) -> tuple[int, ...]:
    """Invariant factors of the finite group l^* / l, unit factors dropped."""
    diag = exactlin.smith_normal_form(l.gram)
    if any(d == 0 for d in diag):
        raise HypothesisViolation("discriminant group of a degenerate lattice")
    return tuple(d for d in diag if d != 1)


def coprime_rank_class(r: int, xi: LatticeVector) -> bool:
    """The coprimality condition between a rank and a first Chern class.

    Implemented as gcd(r, content(xi)) = 1, where the content of an integral
    xi is the gcd of its coordinates, 0 for xi = 0, so the zero class is
    coprime to nothing once r >= 2.
    """
    return xi.is_integral and gcd(r, *xi.num) == 1
