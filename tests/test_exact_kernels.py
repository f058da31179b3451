"""Property tests for the shared exact kernels.

One row Hermite loop serves ``hermite_normal_form`` and
``invert_unimodular``; one symmetric congruence serves
``rational_signature`` and ``ldl_decompose``; ``coordinate_radii`` reads
cofactors through ``determinant``. The checks are products with the
inverse, row spans both ways, eigenvalue signs from numpy, exact
reconstruction q = U^T D U, and inverses built from a known congruence.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import exactlin
from mukaikit.cli import run
from mukaikit.errors import InternalError, ValidationError
from mukaikit.exactlin import (
    content_of,
    hermite_normal_form,
    identity,
    invert_unimodular,
    matmul,
    rational_signature,
    smith_normal_form,
    solve_left,
    transpose,
)
from mukaikit.shortvec import coordinate_radii, ldl_decompose

from conftest import random_unimodular

SEEDS = st.integers(min_value=0, max_value=10**6)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _rank(m) -> int:
    diag, _, _ = smith_normal_form(m)
    return sum(1 for d in diag if d)


def _diag(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


def _congruent(p, d):
    """P^T d P for a square P and a diagonal given by its entries."""
    return matmul(matmul(transpose(p), _diag(d)), p)


# -- invert_unimodular -----------------------------------------------------------


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
    # The h2 path inverts the right Smith transform of a primitive row.
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    row = [rng.randint(-6, 6) for _ in range(n)]
    row[rng.randrange(n)] = 1
    assert content_of(row) == 1
    _, _, right = smith_normal_form((tuple(row),))
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
    for row in m:
        assert solve_left(h, row) is not None
    for row in h:
        assert solve_left(m, row) is not None


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


# -- ldl_decompose ---------------------------------------------------------------


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
def test_ldl_rejects_semidefinite_and_indefinite(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    p = random_unimodular(rng, n, steps=2 * n)
    signs = [1] * n
    signs[rng.randrange(n)] = rng.choice([0, -1])
    q = _congruent(p, _random_rational_diag(rng, n, signs))
    with pytest.raises(ValidationError, match="not positive definite"):
        ldl_decompose(q)


# -- coordinate_radii --------------------------------------------------------------


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
    monkeypatch.setattr(exactlin, "_is_diagonal", lambda a, rows, cols: False)
    with pytest.raises(InternalError):
        smith_normal_form(((2, 4), (6, 8)))
    cfg = tmp_path / "h2.json"
    cfg.write_text('{"surface": {"ns_gram": [[-10]], "t11_gram": [[2]],'
                   ' "reference_positive": [0, 1]}, "mukai": {"r": 2, "xi": [1], "a": -3}}')
    out, err = io.StringIO(), io.StringIO()
    assert run(["h2", "--config", str(cfg), "--format", "json"], stdout=out, stderr=err) == 70
    assert out.getvalue() == ""
    assert err.getvalue().startswith("internal error")
