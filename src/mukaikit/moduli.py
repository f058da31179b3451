"""Verdicts about moduli spaces of slope-stable sheaves.

Everything here is lattice arithmetic: dimensions and deformation classes
from the Mukai square, the second-cohomology lattice as an orthogonal
complement in the rank-24 Mukai lattice, the algebraic part of v-perp as
the orthogonal complement in U (+) NS (``algebraic_h2``), the projectivity
criterion via the signature of its rational span, the transfer isometry
between v-perp and w-perp, and the existence/irreducibility checker for
stable bundles on surfaces with cyclic Neron-Severi group.

An algebraic class enters the lattices through one map,
``mukai._algebraic_coords``, to its coordinates (r, -a, xi) in
``mukai.algebraic_mukai_lattice``: ``EmbeddedMukaiVector.from_algebraic``
sends them by the identity on U and the NS embedding, and ``algebraic_h2``
takes their complement there. ``h2_lattice`` and ``algebraic_h2`` run the
one complement and radical reduction, ``_perp``.

Each fact is checked once. An NS embedding is an ``NSEmbedding``: the
public constructor checks a given matrix, and ``standard_ns_embedding``
builds one that is valid by construction through ``NSEmbedding._trusted``,
the unchecked constructor that ``records.record`` generates, so
``EmbeddedMukaiVector.from_algebraic`` re-checks neither. The existence
checker and the irreducibility oracle take integers and exact values only,
through the converters of ``lattice``.
``moduli_report`` checks omega once and then runs the check-free wall core
``walls._walls_through`` on NS, the bound of v and the NS part of omega.
``surface.check_over_ns`` is the one check that v lives over the model's NS.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

from . import exactlin
from .errors import HypothesisViolation, InternalError, ValidationError
from .exactlin import IntMatrix, int_matrix
from .lattice import (
    Lattice,
    _exact,
    _exact_int,
    coprime_rank_class,
    discriminant_group,
    full_mukai_blocks,
    full_mukai_lattice,
    k3_lattice,
)
from .mukai import (
    MukaiVector,
    _algebraic_coords,
    algebraic_mukai_lattice,
    exp_class,
    mukai_pairing,
    mukai_product,
    mukai_square,
)
from .records import record
from .surface import H11Class, K3Model, check_over_ns, is_polarization, is_projective_surface

COPRIMALITY_NOTE = (
    "coprimality of the rank and the first Chern class is read as "
    "gcd(rank, content(c1)) = 1, a basis-independent interpretation"
)
RATIONAL_GENERICITY_NOTE = (
    "genericity is certified exactly for the given rational polarization; "
    "density of generic classes is a statement about real classes"
)


# -- Embedding into the abstract Mukai lattice --------------------------------


@record
class EmbeddedMukaiVector:
    """An integer vector of the rank-24 Mukai lattice U^4 (+) E8(-1)^2.

    The first hyperbolic plane carries the degree-0 and degree-4 parts, so
    an algebraic class (r, xi, a) embeds as (r, -a) there, followed by the
    image of xi under a primitive embedding of NS into U^3 (+) E8(-1)^2.
    """

    coords: tuple[int, ...]

    def __post_init__(self):
        ambient = full_mukai_lattice()
        coords = int_matrix((self.coords,))[0]
        if len(coords) != ambient.rank:
            raise ValidationError(f"embedded vector must have length {ambient.rank}")
        object.__setattr__(self, "coords", coords)

    def square(self) -> int:
        return exactlin.bilinear(full_mukai_lattice().gram, self.coords, self.coords)

    @property
    def is_primitive(self) -> bool:
        return gcd(*self.coords) == 1

    @classmethod
    def from_algebraic(cls, v: MukaiVector,
                       emb: NSEmbedding | IntMatrix) -> "EmbeddedMukaiVector":
        """(r, -a) in the first U, then the image of xi under ``emb``.

        An ``NSEmbedding`` of v's NS is used as it is; a matrix, or the
        rows of an embedding of another NS, are checked against v's NS by
        the public ``NSEmbedding``.
        """
        c = _integral_coords(v)
        if not isinstance(emb, NSEmbedding) or emb.ns != v.lattice:
            emb = NSEmbedding(v.lattice, emb.rows if isinstance(emb, NSEmbedding) else emb)
        # xi E, or 22 zeros for the 0 x 22 embedding of NS = 0.
        image = exactlin.vec_mat(c[2:], emb.rows) if emb.rows else (0,) * k3_lattice().rank
        # The square needs no check: the map is the identity on U (+) the
        # isometry E, as an NSEmbedding has E G_Lambda E^T = G_NS.
        return cls(c[:2] + image)


def _integral_coords(v: MukaiVector) -> tuple[int, ...]:
    """The coordinates (r, -a, xi) of v in ``algebraic_mukai_lattice``; v must be integral."""
    c, d = _algebraic_coords(v)
    if d != 1:
        raise ValidationError("only integral Mukai vectors embed in the integral lattice")
    return c


@record
class NSEmbedding:
    """A primitive isometric embedding of NS into LambdaK3 = U^3 (+) E8(-1)^2.

    Row i of ``rows`` (the matrix E) is the image of the i-th basis class
    of NS. The public constructor checks the shape, E G_Lambda E^T = G_NS
    and primitivity, in that order; the empty matrix is the 0 x 22
    embedding of NS = 0.
    """

    ns: Lattice
    rows: IntMatrix

    def __post_init__(self):
        lam = k3_lattice()
        emb = int_matrix(self.rows)
        rows, cols = exactlin.shape(emb) if emb else (0, lam.rank)
        if rows != self.ns.rank or cols != lam.rank:
            raise ValidationError(
                f"embedding must be {self.ns.rank}x{lam.rank}, got {rows}x{cols}"
            )
        if exactlin.congruence(emb, lam.gram) != self.ns.gram:
            raise ValidationError("embedding does not respect the intersection form")
        # The rows are saturated iff the columns generate Z^rows; the Hermite
        # form drops the zero rows of E^T.
        if exactlin.hermite_normal_form(exactlin.transpose(emb)) != exactlin.identity(rows):
            raise ValidationError("embedding is not primitive (image is not saturated)")
        object.__setattr__(self, "rows", emb)


def standard_ns_embedding(ns: Lattice) -> NSEmbedding:
    """Primitive embedding of a diagonal even NS of rank <= 3 into U^3.

    The generator of square 2k goes to e + k f in its own hyperbolic
    plane. Other shapes need a user-supplied embedding matrix.

    The result is proved here, so the unchecked ``NSEmbedding._trusted``
    builds it:
    - row i is e_i + k_i f_i in the i-th U, of square 2 k_i, which is the
      i-th diagonal entry of NS;
    - distinct U's are orthogonal, so rows i != j pair to 0, the
      off-diagonal entry of NS; so E G_Lambda E^T = G_NS;
    - column 2i of E is the unit vector e_i of Z^rank, so the columns
      generate Z^rank and the image is saturated.
    """
    if ns.rank > 3:
        raise ValidationError("standard embeddings cover rank <= 3 only")
    lam_rank = k3_lattice().rank
    rows = []
    for i in range(ns.rank):
        for j in range(ns.rank):
            if i != j and ns.gram[i][j] != 0:
                raise ValidationError("standard embeddings cover diagonal Gram matrices only")
        entry = ns.gram[i][i]
        if entry % 2 != 0:
            raise ValidationError("NS of a K3 is even; odd square has no standard embedding")
        row = [0] * lam_rank
        row[2 * i] = 1
        row[2 * i + 1] = entry // 2
        rows.append(tuple(row))
    return NSEmbedding._trusted(ns, tuple(rows))


# -- The second cohomology lattice of the moduli space ------------------------


@record
class H2LatticeResult:
    lattice: Lattice
    signature: tuple[int, int, int]
    discriminant: tuple[int, ...]
    perp_basis: IntMatrix
    quotient_by_v: bool


def h2_lattice(v: EmbeddedMukaiVector) -> H2LatticeResult:
    """The lattice isometric to H^2 of the moduli space.

    For v^2 > 0 this is the orthogonal complement of v in the rank-24
    Mukai lattice; for v^2 = 0 it is the quotient of that complement by
    its radical. The Mukai lattice is unimodular, so the complement of
    v-perp is the saturation of Zv, which is Zv since v is primitive; as
    v^2 = 0 the radical of v-perp is Zv itself, and no kernel is needed.

    The signature and the discriminant are read off v^2; the Mukai lattice
    is even of signature (4, 0, 20):
    - for v^2 > 0 (so v^2 >= 2), Zv and v-perp are mutually orthogonal
      primitive sublattices of a unimodular lattice, so their discriminant
      groups agree (Nikulin 1979, 1.6): v-perp has discriminant Z/v^2 and,
      as v is positive, signature (3, 0, 20);
    - for v^2 = 0, some w has v.w = 1, so U' = Zv + Zw is unimodular and
      splits off: v-perp = Zv (+) U'-perp, and v-perp/Zv is U'-perp,
      unimodular of signature (3, 0, 19).

    The work runs on the prefix S = [0, n) of U^4 (+) E8(-1)^2, where n is
    the first summand end (``full_mukai_blocks``) after which v is 0. On
    S, with G_S the Gram there, the complement (the saturated kernel of
    the one row G_S v), its Gram and the radical reduction run on ints, in
    ``_perp``, which ``algebraic_h2`` runs on U (+) NS as well.
    The summands after S lie in v-perp and are orthogonal to S, so v-perp
    is (v-perp in S) (+) Z^T, T = [n, 24), and T comes in as a constant:
    every pivot on T comes after every pivot on S, so the Hermite basis is
    the rows on S, padded with zeros, followed by the unit rows of T, and
    the Gram is diag(Gram on S, Gram on T). For v^2 = 0 the radical
    reduction acts on S only, where row 0 of the basis lies. A standard
    embedding of an NS of rank <= 3 puts v in U^4, so n <= 8.

    v is 0 off S, so v^2 is read on S. The result Gram is built from a
    congruence of G_S, a block of the validated Mukai Gram, and the
    constant block, so its ``Lattice`` comes from ``Lattice._trusted``.
    """
    if not v.is_primitive:
        raise HypothesisViolation("the second-cohomology lattice needs a primitive class")
    coords = v.coords
    gram_s, units, rest_gram = _prefix_split(
        next(end for end in full_mukai_blocks() if not any(coords[end:])))
    v_part = coords[:len(gram_s)]
    sq, basis, gram = _perp(gram_s, v_part)
    quotient = sq == 0
    pad, lead = (0,) * len(units), (0,) * len(gram)
    gram = tuple(row + pad for row in gram) + tuple(lead + row for row in rest_gram)
    return H2LatticeResult(Lattice._trusted(gram, "v-perp mod v" if quotient else "v-perp"),
                           (3, 0, 19) if quotient else (3, 0, 20), () if quotient else (sq,),
                           tuple(row + pad for row in basis) + units, quotient)


@cache
def _prefix_split(n: int):
    """The Mukai Gram on [0, n), then the unit rows and the Gram of the
    summands after it; n ends a summand."""
    gram = full_mukai_lattice().gram
    return (tuple(row[:n] for row in gram[:n]), exactlin.identity(len(gram))[n:],
            tuple(row[n:] for row in gram[n:]))


def _perp(gram: IntMatrix, v: tuple[int, ...]) -> tuple[int, IntMatrix, IntMatrix]:
    """v^2, the Hermite basis of v-perp in the lattice of ``gram``, and the Gram
    of v-perp, or of v-perp / Zv when v^2 = 0; v^2 < 0 raises.

    v is primitive and the lattice nondegenerate, so for v^2 = 0 the radical
    of v-perp is the saturation of Zv, which is Zv. It is quotiented out
    through a unimodular change of basis that puts v first: the congruent
    Gram has a zero first row and column, which are dropped.
    """
    sq = exactlin.bilinear(gram, v, v)
    if sq < 0:
        raise HypothesisViolation("negative Mukai square has no moduli interpretation here")
    basis = exactlin.integer_kernel_saturated(exactlin.mat_vec(gram, v))
    gram = exactlin.congruence(basis, gram)
    if sq:
        return sq, basis, gram
    to_new = exactlin.unimodular_completion(_hermite_coordinates(basis, v))
    new_gram = exactlin.congruence(to_new, gram)
    if any(new_gram[0]):
        raise InternalError("radical reduction failed")
    return sq, basis, tuple(row[1:] for row in new_gram[1:])


def _hermite_coordinates(basis: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    """The c with c @ basis = +-v, first nonzero entry positive.

    ``basis`` is in Hermite form, so at the pivot column of row k every
    later row is 0, and forward substitution over the pivots fixes c_k
    from c_0, ..., c_{k-1}. Raises ``InternalError`` if v is not in the
    span. For the isotropic v of ``_perp`` this is the Hermite form of the
    radical of v-perp, the one-row kernel of its Gram.
    """
    c: list[int] = []
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        c.append((v[p] - sum(ci * b[p] for ci, b in zip(c, basis))) // row[p])
    if exactlin.vec_mat(c, basis) != v:
        raise InternalError("v is not in the span of the basis of v-perp")
    return tuple(c) if next(filter(None, c), 0) >= 0 else tuple(-x for x in c)


# -- Projectivity criterion ----------------------------------------------------


@record
class ProjectivityCheck:
    projective_moduli: bool
    surface_projective: bool
    gram: tuple[tuple[Fraction, ...], ...]
    signature: tuple[int, int, int]
    isotropy_identity: tuple[Fraction, Fraction]  # (-4 r^2 v^2, -4 r^2 v^2), an identity


def projectivity_check(m: K3Model, v: MukaiVector) -> ProjectivityCheck:
    """Decide projectivity of the moduli space from the algebraic part of v-perp.

    The (1,1) part of v-perp is spanned over Q by the exp(xi/r)-twists of
    the NS classes and of (2r^2, 0, v^2). Multiplying by exp(xi/r) is an
    isometry, so the twisted NS classes have the NS Gram; the extra class
    (2r^2, 2r xi, xi^2 + v^2) is orthogonal to them and has square
    -4 r^2 v^2. The Gram is therefore NS (+) <-4 r^2 v^2>, and its
    signature is that of NS with one negative direction added (v^2 > 0)
    or one zero direction (v^2 = 0). The moduli space is projective iff
    that span represents a positive square, which happens iff the surface
    itself is projective.

    ``isotropy_identity`` is (q, q) with q = -4 r^2 v^2, the Gram's last
    entry: the extra class squares to (2r xi)^2 - 2 (2r^2)(xi^2 + v^2)
    = -4 r^2 v^2 for every input.
    """
    check_over_ns(m, v)
    sq = mukai_square(v)
    if sq < 0:
        raise HypothesisViolation("projectivity criterion requires v^2 >= 0")
    if v.v0 < 2 or v.v0.denominator != 1:
        raise HypothesisViolation("projectivity criterion requires integer rank >= 2")
    q = -4 * v.v0 ** 2 * sq
    zero = Fraction(0)
    gram = tuple((*map(Fraction, row), zero) for row in m.ns.gram)
    gram += ((zero,) * m.ns.rank + (q,),)
    n_plus, n_zero, n_minus = m.ns.signature()
    sig = (n_plus, n_zero + (sq == 0), n_minus + (sq > 0))
    return ProjectivityCheck(
        projective_moduli=n_plus >= 1, surface_projective=n_plus >= 1, gram=gram,
        signature=sig, isotropy_identity=(q, q),
    )


# -- The algebraic part of v-perp -----------------------------------------------


@record
class AlgebraicH2Result:
    lattice: Lattice
    signature: tuple[int, int, int]
    discriminant: tuple[int, ...]
    perp_basis: IntMatrix
    quotient_by_v: bool
    projective: bool


def algebraic_h2(m: K3Model, v: MukaiVector) -> AlgebraicH2Result:
    """The algebraic part of v-perp: v-perp in U (+) NS, mod v when v^2 = 0.

    The lattice is the saturated kernel of the row G c in
    ``algebraic_mukai_lattice(m.ns)``, where c are the coordinates
    (r, -a, xi) of v and G the Gram there, with the Gram of that kernel;
    for v^2 = 0 it is the quotient by the radical Zv, as in ``h2_lattice``
    and by the same reduction. ``perp_basis`` rows are coordinates in
    U (+) NS, of v-perp before any quotient. Under an NS embedding E the
    map I_2 (+) E sends the lattice into ``h2_lattice``'s v-perp.

    If the isometry v-perp = H^2(M, Z) respects Hodge structures, as it
    does in the projective case (Mukai 1987; Yoshioka 2001), this lattice
    is NS(M); that is not checked here. ``projective`` is n_plus >= 1: the
    lattice represents a positive square, which happens iff NS does.

    Its Gram is a congruence of a direct sum of validated Grams, so its
    ``Lattice`` comes from ``Lattice._trusted``; the signature and the
    discriminant group are computed on it. v must be integral, primitive
    and of square >= 0, as for ``h2_lattice``.
    """
    check_over_ns(m, v)
    c = _integral_coords(v)
    if gcd(*c) != 1:
        raise HypothesisViolation("the second-cohomology lattice needs a primitive class")
    sq, basis, gram = _perp(algebraic_mukai_lattice(m.ns).gram, c)
    lattice = Lattice._trusted(gram, "algebraic v-perp mod v" if sq == 0 else "algebraic v-perp")
    sig = lattice.signature()
    return AlgebraicH2Result(lattice, sig, discriminant_group(lattice), basis, sq == 0,
                             sig[0] >= 1)


# -- Transfer isometry ----------------------------------------------------------


def _bundle_rank(v: MukaiVector) -> Fraction:
    """The rank r of v, once v is integral with r >= 1."""
    if not v.is_integral:
        raise HypothesisViolation("transfer multiplier requires an integral Mukai vector")
    if v.v0 < 1:
        raise HypothesisViolation("transfer multiplier requires rank >= 1")
    return v.v0


def transfer_multiplier(v: MukaiVector) -> MukaiVector:
    """The class ch(F^dual)/sqrt(ch(F (x) F^dual)) of v, which is exp(-xi/r).

    ch F = (r, xi, a - r) and ch F . ch F^dual = (r^2, 0, 2r(a - r) - xi^2),
    whose root of positive rank is (r, 0, a - r - xi^2/2r); ch F^dual divided
    by that root is (1, -xi/r, xi^2/2r^2) = exp(-xi/r), returned directly.
    """
    return exp_class(v.v1.scale(-1 / _bundle_rank(v)))


def transfer_isometry(v: MukaiVector, beta: MukaiVector) -> MukaiVector:
    """Image of a class of v-perp under the isometry onto w-perp.

    w is the twisted vector (r, 0, a - xi^2/2r) of a stable bundle with
    Mukai vector v; the map multiplies by the transfer multiplier and
    preserves the Mukai pairing.
    """
    if mukai_pairing(beta, v) != 0:
        raise HypothesisViolation("transfer isometry is defined on v-perp only")
    return mukai_product(beta, transfer_multiplier(v))


def transfer_image_of_v(v: MukaiVector) -> MukaiVector:
    """Where the v-line goes: v . exp(-xi/r) = (r, 0, a - xi^2/2r)."""
    r = _bundle_rank(v)
    return MukaiVector(r, v.lattice.zero(), v.v2 - v.v1.square() / (2 * r))


# -- Existence and irreducibility on cyclic NS ---------------------------------


@record
class IrreducibilityVerdict:
    irreducible: bool
    min_lower_bound: Fraction | None
    witness: tuple[int, int] | None  # (r1, n2) minimizing the bound


def irreducibility_oracle(r: int, xi_square, delta) -> IrreducibilityVerdict:
    """Decide irreducibility by minimizing the subsheaf discriminant bound.

    On NS = Z L with L^2 = xi_square < 0, any rank decomposition
    r = r1 + r2 with sub-Chern class n2 L forces
        Delta >= LB(r1, n2) = -(xi_square / (2 r1 r2)) (r2/r - n2)^2.
    If the minimum of LB over all decompositions exceeds delta, no
    destabilizing subsheaf can exist; otherwise the minimizer is returned
    as a witness decomposition.

    As 0 < r2/r < 1, n2 is 0 or 1, where LB is -xi_square r2 / (2 r1 r^2)
    or -xi_square r1 / (2 r2 r^2): least at (r-1, 0) and (1, 1), with
    value -xi_square / (2 r^2 (r-1)). The least witness is (1, 0) when
    r = 2 and (1, 1) otherwise.

    r goes through ``lattice._exact_int``, and xi_square and delta through
    ``lattice._exact``, so a float or a non-integral rank raises.
    """
    r = _exact_int(r)
    xi_square = Fraction(_exact(xi_square))
    delta = Fraction(_exact(delta))
    if r < 1:
        raise HypothesisViolation("rank must be >= 1")
    if xi_square >= 0:
        raise HypothesisViolation("oracle requires a negative definite rank-1 NS lattice")
    if r == 1:
        return IrreducibilityVerdict(True, None, None)
    best = -xi_square / (2 * r * r * (r - 1))
    argmin = (1, 0) if r == 2 else (1, 1)
    return IrreducibilityVerdict(best > delta, best, argmin)


@record
class ExistenceVerdict:
    accepted: bool
    failures: tuple[str, ...]
    r: int
    d: int
    g: int
    xi_square: int | None = None
    delta: Fraction | None = None
    c2: int | None = None
    mukai: MukaiVector | None = None
    dim: int | None = None
    irreducibility: IrreducibilityVerdict | None = None


def bundle_existence_check(r: int, d: int, g: int) -> ExistenceVerdict:
    """Check the hypotheses for compact moduli of irreducible bundles.

    Accepts (r, d, g) iff d is even in [0, 2r-2], g <= -(r^2-1)(r-1) and
    g = d/2 (mod r); then NS = Z L with L^2 = 2g-2 carries rank-r sheaves
    with c1 = L, discriminant (d + 2r^2 - 2)/(2r^2), and their moduli
    space has dimension d. The irreducibility oracle confirms there is no
    destabilizing decomposition. r, d and g go through ``lattice._exact_int``,
    so a float or a non-integer raises.
    """
    r, d, g = map(_exact_int, (r, d, g))
    if r < 1:
        raise HypothesisViolation("rank must be >= 1")
    failures = []
    if d % 2 != 0:
        failures.append(f"d = {d} must be even")
    if not 0 <= d <= 2 * r - 2:
        failures.append(f"d = {d} must lie in [0, {2 * r - 2}]")
    g_cap = -(r ** 2 - 1) * (r - 1)
    if g > g_cap:
        failures.append(f"g = {g} must be <= {g_cap}")
    if d % 2 == 0 and (g - d // 2) % r != 0:
        failures.append(f"g = {g} must be congruent to d/2 = {d // 2} modulo {r}")
    if failures:
        return ExistenceVerdict(False, tuple(failures), r, d, g)

    xi_square = 2 * g - 2
    ns = Lattice(((xi_square,),), "ZL")
    xi = ns.basis_vector(0)
    delta = Fraction(d + 2 * r ** 2 - 2, 2 * r ** 2)
    # c2 = r delta + (r - 1) xi^2/2r, an integer as r divides d/2 - g.
    c2 = (d // 2 - g) // r + r + g - 1
    v = MukaiVector(Fraction(r), xi, xi_square // 2 + r - c2)
    oracle = irreducibility_oracle(r, xi_square, delta)
    return ExistenceVerdict(
        True, (), r, d, g,
        xi_square=xi_square, delta=delta, c2=c2, mukai=v, dim=d,
        irreducibility=oracle,
    )


# -- The moduli report -----------------------------------------------------------


@record
class ModuliReport:
    valid: bool
    reasons: tuple[str, ...]
    mukai_square: Fraction
    dim: int | None
    n: int | None
    deformation_class: str | None
    b2: int | None
    rigid: bool
    genericity: bool | None
    projective_surface: bool
    projective_moduli: bool | None
    interpretation_notes: tuple[str, ...]


def moduli_report(m: K3Model, v: MukaiVector, omega: H11Class) -> ModuliReport:
    """Everything the lattice data says about the moduli space of v.

    Hypothesis violations are enumerated in ``reasons`` instead of raised,
    so a single run reports every defect of the input at once.
    """
    check_over_ns(m, v)
    reasons: list[str] = []
    notes: list[str] = [COPRIMALITY_NOTE, RATIONAL_GENERICITY_NOTE]

    if not v.is_integral:
        reasons.append("Mukai vector must be integral")
    rank_ok = v.v0.denominator == 1 and v.v0 >= 2
    if not rank_ok:
        reasons.append(f"rank must be an integer >= 2, got {v.v0}")
    if v.is_integral and rank_ok and not coprime_rank_class(int(v.v0), v.v1):
        reasons.append("rank and first Chern class are not coprime")

    sq = mukai_square(v)
    if sq < -2:
        reasons.append(f"v^2 = {sq} < -2 admits no semistable sheaves")
    if sq.denominator == 1 and int(sq) % 2 != 0:
        reasons.append(f"v^2 = {sq} is odd; the pairing of a K3 model must be even")

    rigid = sq == -2
    dim = int(sq) + 2 if sq >= -2 and sq.denominator == 1 else None
    n = int(sq / 2 + 1) if sq >= 0 and (sq / 2).denominator == 1 else None
    b2 = None
    if sq > 0:
        b2 = 23
    elif sq == 0:
        b2 = 22
        notes.append("for isotropic v the moduli space is a K3 surface, so b2 = 22")

    genericity: bool | None = None
    if not is_polarization(m, omega):
        reasons.append("omega is not a polarization of the model")
    elif rank_ok and v.is_integral and sq >= -2:
        from .walls import _walls_through, wall_bound

        # omega passed is_polarization above, so the check-free core on (NS, bound)
        # runs; every wall it returns has passed the filter walls._in_bound.
        genericity = not _walls_through(m.ns, wall_bound(v), omega.ns_part)
        if not genericity:
            reasons.append("omega lies on a wall of v")

    # The verdict of projectivity_check, which is n_plus(NS) >= 1 as well;
    # both read the signature that K3Model stored on NS.
    projective_surface = is_projective_surface(m)
    projective_moduli = projective_surface if rank_ok and v.is_integral and sq >= 0 else None

    deformation_class: str | None = None
    if rigid:
        notes.append(
            "v^2 = -2 is the rigid case: a zero-dimensional moduli problem "
            "outside the scope of the Hilbert-scheme statement"
        )
    valid = not reasons
    if valid and sq >= 0 and n is not None:
        deformation_class = f"Hilb^{n} of a projective K3"

    return ModuliReport(
        valid=valid, reasons=tuple(reasons), mukai_square=sq, dim=dim, n=n,
        deformation_class=deformation_class, b2=b2, rigid=rigid, genericity=genericity,
        projective_surface=projective_surface, projective_moduli=projective_moduli,
        interpretation_notes=tuple(notes),
    )
