import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit.errors import ValidationError
from mukaikit.exactlin import (
    bilinear,
    hermite_normal_form,
    identity,
    int_matrix,
    integer_kernel_saturated,
    mat_vec,
    rational_signature,
    smith_normal_form,
    transpose,
    vec_mat,
)
from mukaikit.lattice import diagonal_lattice, direct_sum, e8_minus_lattice, u_lattice
from mukaikit.shortvec import short_vectors_up_to_sign

from conftest import random_unimodular
from fraction_oracle import (
    determinant,
    hermite_solve_left,
    invert_unimodular,
    matmul,
    reference_signature,
    reference_smith,
    smith_kernel,
)


def diag_matrix(entries):
    n = len(entries)
    return tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n))


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(diag_matrix([2, 3])) == (1, 6)

    def test_identity(self):
        assert smith_normal_form(identity(3)) == (1, 1, 1)
        diag, left, right = reference_smith(identity(3))
        assert diag == (1, 1, 1)
        assert abs(determinant(left)) == 1 and abs(determinant(right)) == 1

    def test_worked_2x2(self):
        m = ((2, 4), (6, 8))
        assert smith_normal_form(m) == (2, 4)
        diag, left, right = reference_smith(m)
        assert diag == (2, 4)
        assert matmul(matmul(left, m), right) == diag_matrix([2, 4])

    def test_rank_deficient(self):
        assert smith_normal_form(((1, 2), (2, 4))) == (1, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_transform_identity(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        diag, left, right = reference_smith(m)
        assert smith_normal_form(m) == diag
        product = matmul(matmul(left, m), right)
        for i in range(rows):
            for j in range(cols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert product[i][j] == expected
        assert abs(determinant(left)) == 1
        assert abs(determinant(right)) == 1
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0 or diag[i] != 0:
                if diag[i] == 0:
                    assert diag[i + 1] == 0
                else:
                    assert diag[i + 1] % diag[i] == 0
        assert all(d >= 0 for d in diag)


class TestKernel:
    def test_one_equation(self):
        assert integer_kernel_saturated((1, 2)) == ((2, -1),)

    def test_zero_matrix(self):
        assert integer_kernel_saturated((0, 0)) == identity(2)

    def test_saturation_strips_content(self):
        assert integer_kernel_saturated((2, 4)) == ((2, -1),)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_kernel_properties(self, seed):
        rng = random.Random(100 + seed)
        rows, cols = rng.randint(1, 3), rng.randint(2, 5)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows))
        for w in m:
            k = integer_kernel_saturated(w)
            assert k == smith_kernel((w,))
            for row in k:
                assert sum(x * y for x, y in zip(w, row)) == 0
            if k:
                assert all(d == 1 for d in smith_normal_form(k))

    def test_hnf_is_canonical(self):
        rng = random.Random(7)
        basis = ((2, -1, 0), (0, 5, -3))
        u = random_unimodular(rng, 2)
        mixed = matmul(u, basis)
        assert hermite_normal_form(basis) == hermite_normal_form(mixed)


class TestSignature:
    def test_hyperbolic(self):
        assert rational_signature(((0, 1), (1, 0))) == (1, 0, 1)

    def test_negative_definite_single(self):
        assert rational_signature(((-10,),)) == (0, 0, 1)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValidationError):
            rational_signature(((0, 1), (2, 0)))

    def test_degenerate(self):
        assert rational_signature(((0, 0), (0, -2))) == (0, 1, 1)

    def test_rational_entries(self):
        # A rational form is scaled to integers first; 30 clears every denominator.
        g = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), Fraction(-1, 5)))
        cleared = tuple(tuple(int(30 * x) for x in row) for row in g)
        assert rational_signature(cleared) == reference_signature(g) == (1, 0, 1)
        with pytest.raises(ValidationError, match="not an int"):
            rational_signature(g)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_congruence_invariance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        g = tuple(tuple(row) for row in g)
        p = random_unimodular(rng, n)
        congruent = matmul(matmul(transpose(p), g), p)
        assert rational_signature(g) == rational_signature(congruent)


class TestSignatureAndSmith:
    """``rational_signature`` and ``smith_normal_form`` against the
    whole-matrix references, on unimodular, singular and non-unimodular Grams."""

    @staticmethod
    def _check(g):
        sig, smith = rational_signature(g), smith_normal_form(g)
        assert sig == reference_signature(g)
        assert smith == reference_smith(g)[0]
        return sig, smith

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_dense_unimodular_conjugates(self, seed):
        # P (U (+) E8(-1)) P^T for a dense unimodular P: |det| = 1, so every
        # Smith factor is 1.
        rng = random.Random(seed)
        p = random_unimodular(rng, 10, steps=40)
        g = direct_sum([u_lattice(), e8_minus_lattice()]).gram
        g = matmul(matmul(p, g), transpose(p))
        assert sum(x != 0 for row in g for x in row) > 50  # over half of the 100 entries
        assert self._check(g) == ((1, 0, 9), (1,) * 10)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_singular_and_non_unimodular(self, seed):
        # A third block <d> with d = 0 or |d| >= 2 makes |det| != 1.
        rng = random.Random(seed)
        d = rng.choice([0, 0, -2, 2, -3, 4, -6])
        g = direct_sum([u_lattice(), e8_minus_lattice(), diagonal_lattice([d])]).gram
        p = random_unimodular(rng, 11, steps=40)
        _, smith = self._check(matmul(matmul(p, g), transpose(p)))
        assert smith == (1,) * 10 + (abs(d),)

    @pytest.mark.parametrize("d", [-4, -2, -1, 0, 1, 2, 3])
    def test_one_by_one(self, d):
        assert self._check(((d,),)) == ((int(d > 0), int(d == 0), int(d < 0)), (abs(d),))

    def test_singular(self):
        # The one Hermite pass of the Smith reduction drops the zero row;
        # the padding gives the zero factor back.
        assert self._check(((2, 2), (2, 2))) == ((1, 1, 0), (2, 0))

    def test_empty(self):
        assert self._check(()) == ((0, 0, 0), ())


class TestSolveAndInverse:
    def test_invert_unimodular_roundtrip(self):
        rng = random.Random(3)
        u = random_unimodular(rng, 4)
        assert matmul(u, invert_unimodular(u)) == identity(4)

    # The span checks of the Hermite tests solve x @ h = v against the
    # pivots of h; these pin that test-side reduction down.
    def test_solve_left(self):
        basis = ((1, 2, 0), (0, 3, 1))
        target = (2, 7, 1)
        x = hermite_solve_left(basis, target)
        assert x == (2, 1)

    def test_solve_left_no_solution(self):
        assert hermite_solve_left(((2, 0),), (1, 0)) is None
        assert hermite_solve_left(((1, 0),), (0, 1)) is None


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_bilinear_matches_the_double_sum(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(0, 5), rng.randint(0, 5)
    g = [[rng.choice([0, rng.randint(-5, 5)]) for _ in range(cols)] for _ in range(rows)]
    a = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(rows)]
    b = [rng.randint(-9, 9) for _ in range(cols)]
    expected = sum(a[i] * g[i][j] * b[j] for i in range(rows) for j in range(cols))
    assert bilinear(g, a, b) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: int_matrix(((1, 2), (3,))), "matrix rows have inconsistent lengths"),
    (lambda: mat_vec(((1, 2),), (1, 2, 3)), "cannot apply 1x2 matrix to length-3 vector"),
    (lambda: vec_mat((1, 2, 3), ((1, 2),)), "cannot apply length-3 row vector to 1x2 matrix"),
    (lambda: short_vectors_up_to_sign(((2, 1), (0, 2)), 3), "short vectors require a symmetric form"),
], ids=["ragged-int-matrix", "mat-vec-shape", "vec-mat-shape", "short-vectors-non-symmetric"])
def test_shape_and_symmetry_checks(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
