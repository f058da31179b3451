"""Property tests for the shared exact kernels.

``hermite_normal_form`` holds the library's one row Hermite loop, and
``smith_normal_form`` alternates it on rows and columns; neither keeps a
transform. Both are checked against the oracle's own transform-tracking
loop (``reference_hermite``, ``reference_smith``), which shares no code
with them. ``integer_kernel_saturated`` writes the Hermite basis of one
row's kernel down in closed form, and ``unimodular_completion`` carries
its inverse through one pass, both checked against the Smith
construction and the oracle's ``invert_unimodular``; one fraction-free
symmetric congruence serves ``rational_signature`` and the short-vector
split ``_integer_levels``; ``congruence`` forms every induced Gram. The
checks are products with the inverse, row spans both ways, eigenvalue
signs from numpy, exact reconstruction q = U^T D U of the oracle's
rational LDL, two dense products, and the transform-tracking Smith and
full-update Fraction routines these replaced. Rational forms are scaled
to integers here before the library sees them. The oracle's own
determinant and coordinate radii, which other tests use as checkers, are
checked against a Leibniz expansion and an inverse built from a known
congruence.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction as F
from itertools import permutations, product
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import exactlin
from mukaikit.cli import run
from mukaikit.errors import InternalError, ValidationError
from mukaikit.exactlin import (
    congruence,
    congruence_pivots,
    hermite_normal_form,
    identity,
    integer_kernel_saturated,
    mat_vec,
    rational_signature,
    smith_normal_form,
    transpose,
    unimodular_completion,
)
from mukaikit.lattice import Lattice, full_mukai_lattice, k3_lattice
from mukaikit.moduli import NSEmbedding, standard_ns_embedding
from mukaikit.shortvec import _integer_levels, short_vectors_up_to_sign

from conftest import cleared_form, random_unimodular
from fraction_oracle import (
    coordinate_radii,
    determinant,
    full_update_congruence_pivots,
    hermite_solve_left,
    invert_unimodular,
    ldl_decompose,
    matmul,
    reference_hermite,
    reference_signature,
    reference_smith,
    smith_kernel,
)

SEEDS = st.integers(min_value=0, max_value=10**6)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _rank(m) -> int:
    return sum(1 for d in reference_smith(m)[0] if d)


def _diag(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _congruent(p, d):
    """P^T d P for a square P and a diagonal given by its entries."""
    return matmul(matmul(transpose(p), _diag(d)), p)


# -- the oracle's invert_unimodular, which the completion tests check with ------


@pytest.mark.parametrize("n", range(1, 25))
def test_invert_unimodular_random(n):
    rng = random.Random(900 + n)
    for _ in range(3):
        m = random_unimodular(rng, n, steps=3 * n)
        inv = invert_unimodular(m)
        assert matmul(m, inv) == identity(n)
        assert matmul(inv, m) == identity(n)


@given(SEEDS)
@SETTINGS
def test_invert_smith_right_transform_of_primitive_row(seed):
    # The h2 path once inverted the right Smith transform of a primitive row.
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    row = [rng.randint(-6, 6) for _ in range(n)]
    row[rng.randrange(n)] = 1
    assert gcd(*row) == 1
    _, _, right = reference_smith((tuple(row),))
    inv = invert_unimodular(right)
    assert matmul(right, inv) == identity(n)


@given(SEEDS)
@SETTINGS
def test_invert_rejects_singular_and_det_two(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    m = [list(row) for row in random_unimodular(rng, n, steps=2 * n)]
    i, j = rng.sample(range(n), 2)
    k = rng.choice([-2, -1, 1, 2])
    singular = [list(row) for row in m]
    singular[i] = [k * x for x in singular[j]]
    with pytest.raises(ValidationError):
        invert_unimodular(tuple(tuple(row) for row in singular))
    doubled = [list(row) for row in m]
    doubled[i] = [2 * x for x in doubled[i]]
    with pytest.raises(ValidationError):
        invert_unimodular(tuple(tuple(row) for row in doubled))


def test_invert_rejects_non_square():
    with pytest.raises(ValidationError):
        invert_unimodular(((1, 0),))


# -- hermite_normal_form ----------------------------------------------------------


def _random_int_matrix(rng: random.Random):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        # A rank deficiency: one row is a combination of two others.
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if rng.random() < 0.2:
        m[rng.randrange(rows)] = [0] * cols
    return tuple(tuple(row) for row in m)


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_hermite_normal_form_shape_and_span(seed):
    m = _random_int_matrix(random.Random(seed))
    h = hermite_normal_form(m)
    assert h == reference_hermite(m)
    assert len(h) == _rank(m)
    last = -1
    for r, row in enumerate(h):
        c = next(j for j, x in enumerate(row) if x)
        assert c > last
        last = c
        pivot = row[c]
        assert pivot > 0
        assert all(h[i][c] == 0 for i in range(r + 1, len(h)))
        assert all(0 <= h[i][c] < pivot for i in range(r))
    if not h:
        assert not any(any(row) for row in m)
        return
    # The rows of m reduce to zero against the pivots of h, so span(m) is
    # inside span(h); equal products of the invariant factors then make
    # the index 1.
    for row in m:
        x = hermite_solve_left(h, row)
        assert x is not None
        assert tuple(sum(c * r[j] for c, r in zip(x, h)) for j in range(len(row))) == row

    def volume(a):
        out = 1
        for d in reference_smith(a)[0]:
            out *= d or 1
        return out

    assert volume(m) == volume(h)


# -- rational_signature -----------------------------------------------------------


def _random_symmetric(rng: random.Random):
    n = rng.randint(1, 8)
    mode = rng.randrange(3)
    if mode == 0:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
    else:
        # Congruent to a diagonal with zeros, so the rank is below n.
        d = [rng.choice([-3, -1, 0, 0, 1, 2]) for _ in range(n)]
        g = [list(row) for row in _congruent(random_unimodular(rng, n, steps=n), d)]
    if n > 1 and mode != 1:
        # A principal block with zero diagonal sends the reduction through
        # its off-diagonal congruence step.
        block = rng.sample(range(n), rng.randint(2, n))
        for i in block:
            for j in block:
                if i == j or mode == 2:
                    g[i][j] = 0
    return tuple(tuple(row) for row in g)


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rational_signature_against_rank_and_eigenvalues(seed):
    g = _random_symmetric(random.Random(seed))
    n = len(g)
    n_plus, n_zero, n_minus = rational_signature(g)
    assert n_zero == n - _rank(g)
    eig = np.linalg.eigvalsh(np.array(g, dtype=float))
    tol = 1e-8 * max(1.0, float(np.abs(eig).max()))
    assert n_plus == int((eig > tol).sum())
    assert n_minus == int((eig < -tol).sum())


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_rational_signature_of_rational_and_row_scaled_matrices(seed):
    # Scaling row and column i by s_i != 0 is a congruence, so the
    # inertia is that of g; with a common rational factor the scale that
    # clears the denominators is no longer 1. The library sees the form
    # once its denominators are cleared, by a positive scale.
    rng = random.Random(seed)
    g = _random_symmetric(rng)
    n = len(g)
    s = [F(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7)) for _ in range(n)]
    common = F(rng.randint(1, 5), rng.randint(1, 5))
    scaled = tuple(tuple(common * s[i] * g[i][j] * s[j] for j in range(n)) for i in range(n))
    cleared, _ = cleared_form(scaled, 0)
    assert rational_signature(cleared) == reference_signature(scaled) == rational_signature(g)
    assert rational_signature(g) == reference_signature(g)


# -- the short-vector split --------------------------------------------------------


def _random_rational_diag(rng: random.Random, n: int, signs):
    return [sign * F(rng.randint(1, 9), rng.randint(1, 9)) for sign in signs]


@given(SEEDS)
@SETTINGS
def test_ldl_reconstructs_positive_definite(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    p = random_unimodular(rng, n, steps=2 * n)
    q = _congruent(p, _random_rational_diag(rng, n, [1] * n))
    d, u = ldl_decompose(q)
    unit = tuple(tuple(F(1) if i == j else u[i][j] if j > i else F(0) for j in range(n))
                 for i in range(n))
    assert all(x > 0 for x in d)
    assert _congruent(unit, d) == q


@given(SEEDS)
@SETTINGS
def test_short_vectors_reject_semidefinite_and_indefinite(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    p = random_unimodular(rng, n, steps=2 * n)
    signs = [1] * n
    signs[rng.randrange(n)] = rng.choice([0, -1])
    q = _congruent(p, _random_rational_diag(rng, n, signs))
    cleared, bound = cleared_form(q, 10)
    with pytest.raises(ValidationError, match="not positive definite"):
        short_vectors_up_to_sign(cleared, bound)
    with pytest.raises(ValidationError, match="not positive definite"):
        ldl_decompose(q)


def _levels_from_ldl(q, bound):
    """The (c, e, rows, R) of the search, built from the oracle's rational LDL."""
    d, u = ldl_decompose(q)
    n = len(d)
    e = [lcm(*(u[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    terms = [d[i] / (e[i] * e[i]) for i in range(n)]
    s = lcm(bound.denominator, *(c.denominator for c in terms))
    rows = [tuple(int(u[i][j] * e[i]) if j > i else 0 for j in range(n)) for i in range(n)]
    return [int(c * s) for c in terms], e, rows, int(bound * s)


_PRIMES = (1000003, 1299709, 2750159, 4256249, 7368787, 9999991)


def _majorant_form(rng: random.Random):
    """2 (Gx)(Gx)^T - (x^T G x) G on a hyperbolic G = P^T D P, x^T G x > 0.

    Px has 7-digit prime coordinates, its first large enough that the
    positive diagonal entry of D wins.
    """
    n = rng.randint(2, 4)
    p = random_unimodular(rng, n, steps=2 * n)
    g = _congruent(p, [2 * rng.randint(1, 3)] + [-2 * rng.randint(1, 3) for _ in range(n - 1)])
    y = [rng.choice(_PRIMES) * rng.randint(40, 60)]
    y += [rng.choice(_PRIMES) * rng.choice([-1, 1]) for _ in range(n - 1)]
    x = mat_vec(invert_unimodular(p), y)
    w = mat_vec(g, x)
    a = sum(wi * xi for wi, xi in zip(w, x))
    assert a > 0
    return tuple(tuple(2 * w[i] * w[j] - a * g[i][j] for j in range(n)) for i in range(n))


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_integer_levels_equal_the_rational_split(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        q = _majorant_form(rng)
    else:
        n = rng.randint(1, 7)
        q = _congruent(random_unimodular(rng, n, steps=2 * n), [rng.randint(1, 9) for _ in range(n)])
    bound = F(rng.randint(0, 10**6), rng.randint(1, 10**4))
    assert _integer_levels(q, bound) == _levels_from_ldl(q, bound)


# -- the oracle's coordinate_radii ---------------------------------------------------


@given(SEEDS)
@SETTINGS
def test_coordinate_radii_are_scaled_inverse_diagonal(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    p = random_unimodular(rng, n, steps=2 * n)
    d = _random_rational_diag(rng, n, [rng.choice([1, -1]) for _ in range(n)])
    q = _congruent(p, d)
    # q = P^T D P, so q^-1 = P^-1 D^-1 P^-T.
    p_inv = invert_unimodular(p)
    q_inv = matmul(matmul(p_inv, _diag([1 / x for x in d])), transpose(p_inv))
    assert matmul(q, q_inv) == identity(n)
    bound = F(rng.randint(1, 50), rng.randint(1, 7))
    assert coordinate_radii(q, bound) == [bound * q_inv[i][i] for i in range(n)]


def test_coordinate_radii_rejects_singular():
    with pytest.raises(ValidationError, match="singular form"):
        coordinate_radii(((1, 2), (2, 4)), 3)


# -- broken invariants ------------------------------------------------------------


def test_smith_non_convergence_is_internal(monkeypatch, tmp_path):
    monkeypatch.setattr(exactlin, "_is_diagonal", lambda a: False)
    with pytest.raises(InternalError):
        smith_normal_form(((2, 4), (6, 8)))
    # h2 makes no Smith reduction; it reports its own broken invariant, a
    # completion whose first row is not the radical, as an internal error.
    completion = exactlin.unimodular_completion
    monkeypatch.setattr(exactlin, "unimodular_completion", lambda row: completion(row)[::-1])
    cfg = tmp_path / "h2.json"
    cfg.write_text('{"surface": {"ns_gram": [[-10]], "t11_gram": [[2]],'
                   ' "reference_positive": [0, 1]}, "mukai": {"r": 1, "xi": [1], "a": -5}}')
    out, err = io.StringIO(), io.StringIO()
    assert run(["h2", "--config", str(cfg), "--format", "json"], stdout=out, stderr=err) == 70
    assert out.getvalue() == ""
    assert err.getvalue().startswith("internal error")
    assert "radical reduction failed" in err.getvalue()


# -- the oracle's determinant ------------------------------------------------------


def _leibniz(m):
    n = len(m)
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(sign)
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def _random_square(rng: random.Random, n: int):
    if rng.random() < 0.5:
        return tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
    return tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))
                 for _ in range(n))


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_determinant_equals_leibniz(seed):
    rng = random.Random(seed)
    m = _random_square(rng, rng.randint(1, 5))
    assert determinant(m) == _leibniz(m)


@given(SEEDS)
@SETTINGS
def test_determinant_of_singular_is_zero(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = [list(row) for row in _random_square(rng, n)]
    i = rng.randrange(n)
    if n == 1 or rng.random() < 0.3:
        m[i] = [0] * n
    else:
        j, k = rng.sample([x for x in range(n) if x != i] * 2, 2)
        a, b = F(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-3, 3)
        m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    assert determinant(m) == 0


@given(SEEDS)
@SETTINGS
def test_determinant_sign_flips_with_a_row_swap(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = [list(row) for row in _random_square(rng, n)]
    i, j = rng.sample(range(n), 2)
    swapped = [list(row) for row in m]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert determinant(swapped) == -determinant(m)
    u = random_unimodular(rng, n, steps=2 * n)
    assert determinant(u) == _leibniz(u) and abs(determinant(u)) == 1


def test_determinant_small_cases():
    assert determinant(()) == 1
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((F(1, 2), 0), (0, F(-2, 3)))) == F(-1, 3)
    with pytest.raises(ValidationError):
        determinant(((1, 2),))


# -- integer_kernel_saturated -------------------------------------------------------


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_kernel_equals_smith_construction(seed):
    rng = random.Random(seed)
    m = [list(row) for row in _random_int_matrix(rng)]
    if rng.random() < 0.3:
        c = rng.randrange(len(m[0]))
        for row in m:
            row[c] = 0
    for w in map(tuple, m):
        k = integer_kernel_saturated(w)
        assert k == smith_kernel((w,))
        for row in k:
            assert not any(mat_vec((w,), row))


@given(SEEDS)
@SETTINGS
def test_kernel_of_h2_rows_equals_smith_construction(seed):
    # orthogonal_complement in the rank-24 Mukai lattice solves one row G v.
    rng = random.Random(seed)
    gram = full_mukai_lattice().gram
    v = [rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(24)]
    v[rng.randrange(24)] = rng.randint(1, 4)
    w = mat_vec(gram, v)
    k = integer_kernel_saturated(w)
    assert len(k) == 23
    assert k == smith_kernel((w,))


def _single_row(rng: random.Random, n: int, lead: int, trail: int, big: bool, factor: int):
    """A row of length n: ``lead`` zeros first and ``trail`` zeros last where
    they fit, entries past 10^20 if ``big``, and all of it times ``factor``."""
    row = [0] * n
    for j in range(min(lead, n), max(min(lead, n), n - trail)):
        if rng.random() < 0.7:
            row[j] = rng.choice([-1, 1]) * (rng.randint(10**20, 10**22) if big and rng.random() < 0.5
                                             else rng.randint(1, 12))
    return tuple(factor * x for x in row)


@pytest.mark.parametrize("n", range(25))
def test_kernel_of_single_rows_equals_smith_construction(n):
    rng = random.Random(4400 + n)
    for lead, trail, big, factor in product((0, 1, 3), (0, 2), (False, True), (1, 6, 10**20)):
        w = _single_row(rng, n, lead, trail, big, factor)
        k = integer_kernel_saturated(w)
        assert k == smith_kernel((w,))
        assert len(k) == n - any(w)
        for r in k:
            assert not any(mat_vec((w,), r))


def test_single_rows_cover_the_listed_shapes():
    """The rows above include zero ends, entries past 10^20 and common factors."""
    rng = random.Random(0)
    rows = [_single_row(rng, 9, lead, trail, big, factor)
            for lead, trail, big, factor in product((0, 1, 3), (0, 2), (False, True), (1, 6, 10**20))]
    assert any(r[0] == 0 and any(r) for r in rows) and any(r[-1] == 0 and any(r) for r in rows)
    assert any(max(map(abs, r)) >= 10**20 for r in rows)
    assert any(gcd(*r) > 1 for r in rows) and any(gcd(*r) == 1 for r in rows)


def test_kernel_edge_shapes():
    assert integer_kernel_saturated(()) == smith_kernel(((),)) == ()
    assert integer_kernel_saturated((0, 0, 0)) == smith_kernel(((0, 0, 0),)) == identity(3)
    assert integer_kernel_saturated((0,)) == smith_kernel(((0,),)) == ((1,),)
    assert integer_kernel_saturated((-5,)) == smith_kernel(((-5,),)) == ()


# -- NSEmbedding ---------------------------------------------------------------------


def _induced(emb):
    return matmul(matmul(emb, k3_lattice().gram), transpose(emb))


def test_ns_embedding_primitivity():
    ns = Lattice(((2, 0), (0, -2)))
    emb = standard_ns_embedding(ns).rows
    NSEmbedding(ns, emb)
    # A primitive embedding whose image is not a coordinate sublattice.
    mixed = ((1, 1, 1, 0) + (0,) * 18, (0, 0, 1, 1) + (0,) * 18)
    NSEmbedding(Lattice(_induced(mixed)), mixed)
    doubled = (tuple(2 * x for x in emb[0]), emb[1])
    repeated = (emb[0], emb[0])
    for bad in (doubled, repeated):
        with pytest.raises(ValidationError, match=r"^embedding is not primitive \(image is not saturated\)$"):
            NSEmbedding(Lattice(_induced(bad)), bad)


# -- congruence_pivots ---------------------------------------------------------------


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_congruence_pivots_match_full_update(seed):
    # On the denominator-cleared matrix, pivot row k is D_{k-1} times the
    # full-update Fraction row at every live index (D_0 = 1).
    rng = random.Random(seed)
    g = _random_symmetric(rng)
    if rng.random() < 0.5:
        s = F(rng.randint(1, 5), rng.randint(1, 5))
        g = tuple(tuple(s * x for x in row) for row in g)
    scale = lcm(*(F(x).denominator for row in g for x in row))
    mat = tuple(tuple(int(x * scale) for x in row) for row in g)
    pivots, n_zero = congruence_pivots(mat)
    want, want_zero = full_update_congruence_pivots(mat)
    assert n_zero == want_zero
    assert [i for i, _ in pivots] == [i for i, _ in want]
    live = set(range(len(g)))
    prev = 1
    for (i, row), (_, ref) in zip(pivots, want):
        assert all(isinstance(row[k], int) and row[k] == prev * ref[k] for k in live)
        live.remove(i)
        prev = row[i]


# -- congruence ------------------------------------------------------------------------


def _random_b(rng: random.Random, rows: int, cols: int):
    """Mostly-zero rows, as Hermite bases are, with zero and dependent rows mixed in."""
    b = [[rng.choice([0, 0, 0, rng.randint(-7, 7)]) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(rows), 2)
        b[i] = [rng.randint(-3, 3) * x for x in b[j]]
    if rng.random() < 0.3:
        b[rng.randrange(rows)] = [0] * cols
    return tuple(tuple(row) for row in b)


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_congruence_equals_two_products(seed):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        g = full_mukai_lattice().gram
    else:
        n = rng.randint(1, 8)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.choice([0, rng.randint(-9, 9)])
        g = tuple(tuple(row) for row in g)
    n = len(g)
    rows = rng.choice([1, rng.randint(1, n + 2), n - 1 if n > 1 else 1])
    b = _random_b(rng, rows, n)
    got = congruence(b, g)
    assert got == matmul(matmul(b, g), transpose(b))
    assert all(type(x) is int for row in got for x in row)


def test_congruence_edge_shapes():
    gram = full_mukai_lattice().gram
    assert congruence((), gram) == ()
    assert congruence(((0,) * 24,), gram) == ((0,),)
    assert congruence(identity(24), gram) == gram
    with pytest.raises(ValidationError):
        congruence(((1, 0),), gram)


# -- smith_normal_form -------------------------------------------------------------------


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_smith_diagonal_equals_reference(seed):
    rng = random.Random(seed)
    m = [list(row) for row in _random_int_matrix(rng)]
    if rng.random() < 0.3:
        c = rng.randrange(len(m[0]))
        for row in m:
            row[c] = 0
    if rng.random() < 0.3:
        k = rng.choice([2, 3, 6])
        m = [[k * x for x in row] for row in m]
    m = tuple(tuple(row) for row in m)
    diag = smith_normal_form(m)
    assert diag == reference_smith(m)[0]
    assert len(diag) == min(len(m), len(m[0]))


def test_smith_diagonal_edge_shapes():
    assert smith_normal_form(()) == ()
    assert smith_normal_form(((0, 0, 0),)) == (0,)
    assert smith_normal_form(((0,), (4,), (-6,))) == (2,)
    assert smith_normal_form(((0, 0), (0, -3))) == (3, 0)
    assert smith_normal_form(_diag([4, 0, 6, -10])) == (2, 2, 60, 0)
    # A Hermite pass drops zero rows or columns; zeros pad the diagonal back.
    for m, diag in [
        (((2, 4), (1, 2)), (1, 0)),
        (((2, 4), (4, 8), (6, 12)), (2, 0)),
        (((1,), (2,), (3,)), (1,)),
        (((0,), (0,)), (0,)),
        (((0, 0), (0, 0)), (0, 0)),
    ]:
        assert smith_normal_form(m) == reference_smith(m)[0] == diag


# -- unimodular_completion -----------------------------------------------------------------


def _random_primitive_row(rng: random.Random):
    """A primitive row with first nonzero entry positive, as Hermite rows are."""
    n = rng.randint(1, 24)
    while True:
        row = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)]
        if rng.random() < 0.5:
            row[rng.randrange(n)] = rng.choice([2, 3, 6]) * rng.randint(1, 4)
        lead = next((x for x in row if x), 0)
        if gcd(*row) == 1:
            return tuple(x if lead > 0 else -x for x in row)


@given(SEEDS)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_unimodular_completion_of_primitive_row(seed):
    row = _random_primitive_row(random.Random(seed))
    n = len(row)
    u = unimodular_completion(row)
    assert u[0] == row
    assert matmul(u, invert_unimodular(u)) == identity(n)
    _, _, right = reference_smith((row,))
    assert u == invert_unimodular(right)


@given(SEEDS)
@SETTINGS
def test_unimodular_completion_of_radical_row(seed):
    # The h2 path completes the radical of an isotropic class's complement.
    rng = random.Random(seed)
    v = [rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(24)]
    v[0], v[1] = 1, 0
    v[1] = -sum(x * y for x, y in zip(mat_vec(full_mukai_lattice().gram, v), v)) // 2
    gram = full_mukai_lattice().gram
    assert sum(x * y for x, y in zip(mat_vec(gram, v), v)) == 0
    comp = integer_kernel_saturated(mat_vec(gram, v))
    sub = congruence(comp, gram)
    (radical,) = smith_kernel(sub)
    u = unimodular_completion(radical)
    assert u == invert_unimodular(reference_smith((radical,))[2])
    assert not any(congruence(u, sub)[0])


@pytest.mark.parametrize("row", [(), (0,), (0, 0, 0), (2,), (-3,), (2, 4, 0), (0, 6, -9)])
def test_unimodular_completion_rejects_non_primitive(row):
    with pytest.raises(ValidationError, match="non-primitive"):
        unimodular_completion(row)
