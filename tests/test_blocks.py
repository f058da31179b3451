"""Block sums against whole-matrix references, and the one block split left.

Lattice Grams are block sums: the Mukai Gram is U^4 (+) E8(-1)^2. The
first tests shuffle random blocks by a permutation, or draw sparse rows,
and compare what ``exactlin`` returns, reducing the whole matrix, with
the loops that ``tests/fraction_oracle.py`` keeps.

The Mukai lattice is split by summand in one place, ``moduli.h2_lattice``:
it computes on the shortest prefix of summands that holds v and appends
the rest as constants. Its results are checked against the whole-matrix
loops on vectors of any support, and
``test_h2_computes_on_the_prefix_that_holds_v`` guards the split by
recording the width of every matrix ``h2`` hands the exact layer, and
that none goes to a signature or Smith reduction: ``h2`` reads both
invariants off v^2, and the h2 tests check them against the oracle's
reductions of the whole Gram. ``h2`` reads the radical of an isotropic
v-perp off the coordinates of v, checked against the kernel of its Gram.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import exactlin
from mukaikit.errors import HypothesisViolation, InternalError, ValidationError
from mukaikit.exactlin import (
    integer_kernel_saturated,
    is_symmetric,
    mat_vec,
    rational_signature,
    shape,
    smith_normal_form,
    transpose,
    unimodular_completion,
)
from mukaikit.lattice import (
    Lattice,
    diagonal_lattice,
    e8_minus_lattice,
    full_mukai_lattice,
    k3_lattice,
    u_lattice,
)
from mukaikit.moduli import (
    EmbeddedMukaiVector,
    NSEmbedding,
    _hermite_coordinates,
    algebraic_h2,
    h2_lattice,
    standard_ns_embedding,
)
from mukaikit.mukai import MukaiVector, mukai_square
from mukaikit.surface import H11Class, K3Model

from conftest import positive_reference
from fraction_oracle import (
    full_kernel_saturated,
    full_unimodular_completion,
    matmul,
    reference_signature,
    reference_smith,
    smith_kernel,
)

SEEDS = st.integers(min_value=0, max_value=10**6)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _random_block(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return u_lattice().gram
    if kind == 1:
        return e8_minus_lattice().gram
    if kind == 2:
        return ((2 * rng.choice([-3, -2, -1, 0, 1, 2, 3]),),)
    n = rng.randint(2, 4)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.choice([0, 0, rng.randint(-4, 4)])
    if rng.random() < 0.3:
        g[0] = [0] * n
        for row in g:
            row[0] = 0
    return tuple(tuple(row) for row in g)


def _permuted_block_sum(rng: random.Random):
    """P^T diag(B_1, ..., B_k) P for random blocks and a random permutation P."""
    blocks = [_random_block(rng) for _ in range(rng.randint(1, 4))]
    n = sum(len(b) for b in blocks)
    m = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                m[offset + i][offset + j] = x
        offset += len(b)
    p = list(range(n))
    rng.shuffle(p)
    return tuple(tuple(m[p[i]][p[j]] for j in range(n)) for i in range(n)), blocks


@given(SEEDS)
@SETTINGS
def test_signature_of_permuted_block_sums(seed):
    m, blocks = _permuted_block_sum(random.Random(seed))
    got = rational_signature(m)
    assert got == reference_signature(m)
    assert got == tuple(map(sum, zip(*(reference_signature(b) for b in blocks))))
    # A rational form keeps its inertia once its denominators are cleared.
    scaled = tuple(tuple(Fraction(x, 3) for x in row) for row in m)
    cleared = tuple(tuple(int(3 * x) for x in row) for row in scaled)
    assert rational_signature(cleared) == reference_signature(scaled) == got


@given(SEEDS)
@SETTINGS
def test_smith_of_permuted_block_sums(seed):
    m, _ = _permuted_block_sum(random.Random(seed))
    assert smith_normal_form(m) == reference_smith(m)[0]


@given(SEEDS)
@SETTINGS
def test_kernel_of_permuted_block_sums(seed):
    rng = random.Random(seed)
    m, _ = _permuted_block_sum(rng)
    # Each row on its own: column blocks that are not square, and zero columns.
    for w in m:
        assert integer_kernel_saturated(w) == full_kernel_saturated((w,)) == smith_kernel((w,))
    # One of them with zero columns on both sides and times a factor of 1,
    # 6 or 10^20.
    factor = rng.choice([1, 6, 10**20])
    w = ((0,) * rng.randint(0, 3) + tuple(factor * x for x in m[rng.randrange(len(m))])
         + (0,) * rng.randint(0, 3))
    assert integer_kernel_saturated(w) == full_kernel_saturated((w,)) == smith_kernel((w,))


def _sparse_primitive_row(rng: random.Random):
    """A primitive row of length 2..24 whose support is not a prefix."""
    n = rng.randint(2, 24)
    while True:
        row = [0] * n
        for j in rng.sample(range(n), rng.randint(1, min(n, 5))):
            row[j] = rng.choice([-1, 1]) * rng.randint(1, 12)
        if rng.random() < 0.5:
            row[0] = 0
        support = [j for j, x in enumerate(row) if x]
        if support and support != list(range(len(support))) and gcd(*row) == 1:
            if next(x for x in row if x) < 0:
                row = [-x for x in row]
            return tuple(row)


def _zero_led_row(rng: random.Random):
    """A primitive row of length 3..24: 1 to n - 2 zeros, a first nonzero
    entry of either sign, then a negative entry among the rest; up to 22
    digits."""
    n = rng.randint(3, 24)
    zeros = rng.randint(1, n - 2)
    while True:
        tail = [rng.choice([0, rng.randint(-30, 30), rng.randint(-10**22, 10**22)])
                for _ in range(n - zeros)]
        tail[0] = rng.choice([-1, 1]) * rng.randint(1, 10**21)
        tail[rng.randrange(1, len(tail))] = -rng.randint(1, 10**21)
        if gcd(*tail) == 1:
            return (0,) * zeros + tuple(tail)


@given(SEEDS)
@SETTINGS
def test_completion_of_sparse_rows(seed):
    rng = random.Random(seed)
    row = _sparse_primitive_row(rng)
    zero_led = _zero_led_row(rng)
    for r in (row, zero_led, tuple(-x for x in zero_led)):
        u = unimodular_completion(r)
        assert u[0] == r
        assert u == full_unimodular_completion(r)


def _summand_row(rng: random.Random, where: str):
    """A primitive row of LambdaK3 inside its third U (coordinates 4, 5)
    or inside one E8(-1) summand (coordinates 6..13 or 14..21)."""
    row = [0] * k3_lattice().rank
    if where == "U3":
        row[4], row[5] = 1, rng.choice([-3, -2, -1, 1, 2, 3])
        return tuple(row)
    start = rng.choice([6, 14])
    while True:
        part = [rng.choice([0, 0, rng.randint(-2, 2)]) for _ in range(8)]
        if any(part) and gcd(*part) == 1:
            row[start:start + 8] = part
            return tuple(row)


def _full_matrix_h2(coords):
    """(perp basis, Gram) of h2 by the whole-matrix loops and two dense products."""
    gram = full_mukai_lattice().gram
    basis = full_kernel_saturated((mat_vec(gram, coords),))
    sub = matmul(matmul(basis, gram), transpose(basis))
    if sum(x * y for x, y in zip(mat_vec(gram, coords), coords)) > 0:
        return basis, sub
    (radical,) = full_kernel_saturated(sub)
    u = full_unimodular_completion(radical)
    new = matmul(matmul(u, sub), transpose(u))
    assert not any(new[0])
    return basis, tuple(row[1:] for row in new[1:])


def _closed_form(square):
    """(signature, discriminant) of H^2 for a primitive v of square ``square`` >= 0:
    v-perp for v^2 > 0, v-perp/Zv for v^2 = 0, in the unimodular Mukai lattice."""
    return ((3, 0, 20), (square,)) if square else ((3, 0, 19), ())


@pytest.mark.parametrize("where", [("U3",), ("E8",), ("U3", "E8")])
@given(seed=SEEDS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_h2_from_embeddings_into_u_and_e8(where, seed):
    rng = random.Random(seed)
    emb = tuple(_summand_row(rng, w) for w in where)
    lam = k3_lattice().gram
    ns = Lattice(tuple(tuple(sum(x * lam[i][j] * y for i, x in enumerate(a) for j, y in enumerate(b))
                             for b in emb) for a in emb))
    NSEmbedding(ns, emb)
    while True:
        xi = [rng.randint(-3, 3) for _ in emb]
        xi2 = sum(x * ns.gram[i][j] * y for i, x in enumerate(xi) for j, y in enumerate(xi))
        if rng.random() < 0.5:
            r, a = 1, xi2 // 2  # v^2 = 0
        else:
            # v^2 = xi^2 - 2ra is even; a runs over every value that puts it in [2, 200].
            r = rng.randint(1, 3)
            a = rng.randint(-((200 - xi2) // (2 * r)), (xi2 - 2) // (2 * r))
        v = MukaiVector(Fraction(r), ns.vector(xi), Fraction(a))
        embedded = EmbeddedMukaiVector.from_algebraic(v, emb)
        # The embedding is an isometry, so from_algebraic keeps the square.
        assert embedded.square() == mukai_square(v)
        if embedded.is_primitive:
            break
    res = h2_lattice(embedded)
    basis, gram = _full_matrix_h2(embedded.coords)
    assert res.perp_basis == basis
    assert res.lattice.gram == gram
    assert res.quotient_by_v == (embedded.square() == 0)
    assert res.signature == reference_signature(gram)
    assert res.discriminant == tuple(d for d in reference_smith(gram)[0] if d != 1)
    assert (res.signature, res.discriminant) == _closed_form(embedded.square())
    # -v has the same complement and radical; when v^2 = 0 its coordinates
    # in the Hermite basis start negative wherever those of v start positive.
    negated = EmbeddedMukaiVector(tuple(-c for c in embedded.coords))
    assert h2_lattice(negated) == res
    assert _full_matrix_h2(negated.coords) == (basis, gram)


def _embedded_ns(rng: random.Random, where):
    """(NS, E): a diagonal even NS of rank 1 to 3 with its standard embedding, or
    the NS that rows of ``_summand_row`` span, with those rows."""
    if where == "standard":
        entries = [rng.choice((2, 4, -2, -4, -6))]
        entries += [-2 * rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        ns = diagonal_lattice(entries)
        return ns, standard_ns_embedding(ns).rows
    emb = tuple(_summand_row(rng, w) for w in where)
    lam = k3_lattice().gram
    return Lattice(tuple(tuple(sum(x * lam[i][j] * y for i, x in enumerate(a) for j, y in enumerate(b))
                               for b in emb) for a in emb)), emb


def _model(rng: random.Random, ns: Lattice) -> K3Model:
    """A model on ns: T = 0 on a hyperbolic NS, T = <2> on a negative definite one."""
    if ns.signature()[0]:
        ref = positive_reference(ns, rng)
        return K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
    t = diagonal_lattice([2])
    return K3Model(ns=ns, t11=t, reference_positive=H11Class(ns.zero(), t.vector((1,))))


@pytest.mark.parametrize("where", ["standard", ("U3",), ("E8",), ("U3", "E8")])
@given(seed=SEEDS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_algebraic_part_maps_into_h2_by_identity_on_u_and_e(where, seed):
    """``from_algebraic`` is (r, -a) then xi E, and I_2 (+) E maps the basis of the
    algebraic part of v-perp into ``h2_lattice``'s v-perp as a saturated sublattice."""
    rng = random.Random(seed)
    ns, emb = _embedded_ns(rng, where)
    while True:
        xi = [rng.randint(-3, 3) for _ in range(ns.rank)]
        xi2 = ns.vector(xi).square().numerator
        r = rng.randint(1, 3)
        a = xi2 // (2 * r) if xi2 % (2 * r) == 0 and rng.random() < 0.5 else rng.randint(-6, 6)
        v = MukaiVector(Fraction(r), ns.vector(xi), Fraction(a))
        if mukai_square(v) >= 0 and gcd(r, a, *xi) == 1:
            break

    def image(u, w, *c):  # (u, w) in the first U, then c E
        return (u, w) + tuple(sum(x * row[j] for x, row in zip(c, emb)) for j in range(22))

    embedded = EmbeddedMukaiVector.from_algebraic(v, emb)
    assert embedded.coords == image(r, -a, *xi)
    res, h2 = algebraic_h2(_model(rng, ns), v), h2_lattice(embedded)
    assert res.quotient_by_v == h2.quotient_by_v == (mukai_square(v) == 0)
    mapped = [image(*row) for row in res.perp_basis]
    assert len(mapped) == ns.rank + 1
    assert all(_square_pair(m, embedded.coords) == 0 for m in mapped)
    # h2's basis with the mapped rows added spans a saturated lattice of the same
    # rank, so it is h2's v-perp; the mapped rows alone are saturated too.
    perp = list(h2.perp_basis)
    assert [d for d in reference_smith(perp + mapped)[0] if d] == [1] * len(perp)
    assert reference_smith(mapped)[0] == (1,) * len(mapped)


def _square_pair(x, y):
    gram = full_mukai_lattice().gram
    return sum(a * gram[i][j] * b for i, a in enumerate(x) if a for j, b in enumerate(y) if b)


# The summands U, U, U, U, E8(-1), E8(-1) of the Mukai lattice.
SPANS = (range(0, 2), range(2, 4), range(4, 6), range(6, 8), range(8, 16), range(16, 24))
SUPPORTS = {
    # Any summands, at least one U among them.
    "any": lambda rng: rng.sample(range(6), rng.randint(1, 6)),
    # Never the first U, which h2 computes on all the same.
    "no_first_u": lambda rng: rng.sample(range(1, 6), rng.randint(1, 5)),
    # One U past the first and E8(-1) summands: the prefix that h2
    # computes on holds the U summands that v misses before them.
    "one_u_and_e8": lambda rng: [rng.randint(1, 3), *rng.sample((4, 5), rng.randint(1, 2))],
}


def _square(coords):
    gram = full_mukai_lattice().gram
    return sum(x * gram[i][j] * y for i, x in enumerate(coords) if x
               for j, y in enumerate(coords) if y)


def _vector_on(rng, summands, square):
    """A primitive vector of the Mukai lattice that meets exactly ``summands``,
    of square ``square`` if a U is among them; None if the draw fails."""
    coords = [0] * 24
    for k in summands:
        while not any(coords[j] for j in SPANS[k]):
            for j in SPANS[k]:
                coords[j] = rng.choice([0, 0, rng.randint(-3, 3)])
    planes = [k for k in summands if k < 4]
    if planes:
        # The pair (x, y) of one U adds 2xy to the square; solve for y.
        i = SPANS[rng.choice(planes)].start
        rest = _square(coords) - 2 * coords[i] * coords[i + 1]
        x = coords[i] or rng.choice((1, -1, 2))
        if (square - rest) % (2 * x):
            return None
        coords[i], coords[i + 1] = x, (square - rest) // (2 * x)
    return tuple(coords) if gcd(*coords) == 1 else None


@pytest.mark.parametrize("support", sorted(SUPPORTS))
@given(seed=SEEDS, isotropic=st.booleans())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_h2_on_arbitrary_summand_supports(support, seed, isotropic):
    rng = random.Random(seed)
    square = 0 if isotropic else 2 * rng.randint(1, 100)
    while True:
        summands = SUPPORTS[support](rng)
        coords = _vector_on(rng, summands, square)
        if coords is not None and _square(coords) >= 0:
            break
    met = {k for k, span in enumerate(SPANS) if any(coords[j] for j in span)}
    assert met == set(summands)
    v = EmbeddedMukaiVector(coords)
    res = h2_lattice(v)
    basis, gram = _full_matrix_h2(coords)
    assert res.perp_basis == basis
    assert res.lattice.gram == gram
    assert res.quotient_by_v == (_square(coords) == 0)
    assert res.signature == reference_signature(gram)
    assert res.discriminant == tuple(d for d in reference_smith(gram)[0] if d != 1)
    assert (res.signature, res.discriminant) == _closed_form(square)
    assert h2_lattice(EmbeddedMukaiVector(tuple(-c for c in coords))) == res


@given(seed=SEEDS)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_h2_rejects_a_class_on_e8_summands_only(seed):
    # E8(-1) is negative definite, so such a class has a negative square.
    rng = random.Random(seed)
    coords = None
    while coords is None:
        coords = _vector_on(rng, rng.sample((4, 5), rng.randint(1, 2)), 0)
    assert _square(coords) < 0
    with pytest.raises(HypothesisViolation, match="negative Mukai square"):
        h2_lattice(EmbeddedMukaiVector(coords))


def _prefix_end(coords):
    """The end of the summand that holds the last nonzero coordinate."""
    last = max(j for j, x in enumerate(coords) if x)
    return next(span.stop for span in SPANS if last in span)


def test_h2_computes_on_the_prefix_that_holds_v(monkeypatch):
    """h2 hands the exact layer no matrix wider than the prefix end n of v,
    and takes the kernel on exactly n coordinates. A standard embedding of
    an NS of rank <= 3 puts v in U^4, so there n <= 8; vectors of any
    support reach the E8(-1) summands. It reads its signature and
    discriminant off v^2, so it makes no signature or Smith reduction."""
    rng = random.Random(2101)
    standard = []
    while len(standard) < 40:
        entries = rng.choice(((2,), (2, -2), (-4,), (2, -2, -4), (4, -2, -6), (-2, -2, -6)))
        ns = diagonal_lattice(list(entries), "NS")
        xi = [rng.randint(-4, 4) for _ in entries]
        xi2 = sum(e * x * x for e, x in zip(entries, xi))
        r = rng.randint(1, 4)
        a = xi2 // (2 * r) if len(standard) % 2 else (xi2 - 1) // (2 * r) - rng.randint(0, 3)
        if xi2 - 2 * r * a >= 0 and gcd(r, a, *xi) == 1:
            v = MukaiVector(Fraction(r), ns.vector(xi), Fraction(a))
            standard.append(EmbeddedMukaiVector.from_algebraic(v, standard_ns_embedding(ns)))
    anywhere = []
    while len(anywhere) < 20:
        coords = _vector_on(rng, SUPPORTS["any"](rng), 2 * rng.randint(0, 3))
        if coords is not None and _square(coords) >= 0:
            anywhere.append(EmbeddedMukaiVector(coords))
    widths = {}
    for name in ("congruence", "integer_kernel_saturated",
                 "congruence_pivots", "rational_signature", "smith_normal_form"):
        def recorded(m, *args, _name=name, _original=getattr(exactlin, name)):
            # The kernel takes one row w, whose width is len(w).
            widths.setdefault(_name, []).extend(
                [len(m)] if _name == "integer_kernel_saturated"
                else [shape(x)[1] for x in (m, *args)])
            return _original(m, *args)

        monkeypatch.setattr(exactlin, name, recorded)
    quotients, ends = set(), set()
    for vectors, cap in ((standard, 8), (anywhere, 24)):
        for v in vectors:
            widths.clear()
            quotients.add(h2_lattice(v).quotient_by_v)
            n = _prefix_end(v.coords)
            ends.add(n)
            assert set(widths) == {"congruence", "integer_kernel_saturated"}
            assert widths["integer_kernel_saturated"] == [n]
            assert max(max(w) for w in widths.values()) <= n <= cap
    assert quotients == {False, True}
    assert max(ends) > 8


def test_hermite_coordinates_of_an_isotropic_class():
    v = (1, -1, 1, 1) + (0,) * 20
    minus_v = tuple(-x for x in v)
    basis = full_kernel_saturated((mat_vec(full_mukai_lattice().gram, v),))
    c = _hermite_coordinates(basis, v)
    assert _hermite_coordinates(basis, minus_v) == c
    assert next(x for x in c if x) > 0
    assert tuple(sum(x * row[j] for x, row in zip(c, basis)) for j in range(24)) in (v, minus_v)


@pytest.mark.parametrize("v", [(0, 1, 0), (0, 0, 1), (1, 1, 1)])
def test_hermite_coordinates_outside_the_span(v):
    with pytest.raises(InternalError, match="not in the span"):
        _hermite_coordinates(((1, 0, 0), (0, 2, 0)), v)


def test_embedded_square_equals_the_lattice_pairing():
    rng = random.Random(11)
    for _ in range(50):
        coords = [rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(24)]
        v = EmbeddedMukaiVector(tuple(coords))
        assert v.square() == full_mukai_lattice().vector(v.coords).square()
        assert type(v.square()) is int


def test_is_symmetric_rejects_ragged_rows():
    assert not is_symmetric(((1, 2), (2,)))
    assert not is_symmetric(((1,), (1, 2)))
    assert not is_symmetric(((0, 1, 0), (1, 0, 0)))
    assert is_symmetric(((0, 1), (1, 0)))
    assert is_symmetric(())
    with pytest.raises(ValidationError, match="symmetric"):
        rational_signature(((1, 2), (2,)))
