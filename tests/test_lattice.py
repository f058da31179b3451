import random
import warnings
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import (
    Lattice,
    MukaiVector,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    e8_minus_lattice,
    full_mukai_lattice,
    k3_lattice,
    orthogonal_complement,
    pairing,
    u_lattice,
)
from mukaikit.errors import HypothesisViolation, LatticeMismatchError, ValidationError
from mukaikit.exactlin import smith_normal_form
from mukaikit.lattice import LatticeVector, coprime_rank_class

from conftest import random_unimodular
from fraction_oracle import _pair as fraction_pair


class TestConstructors:
    def test_u(self):
        u = u_lattice()
        assert u.gram == ((0, 1), (1, 0))
        assert u.signature() == (1, 0, 1)

    def test_k3_lattice(self):
        lam = k3_lattice()
        assert lam.rank == 22
        assert lam.signature() == (3, 0, 19)
        assert discriminant_group(lam) == ()

    def test_full_mukai_lattice(self):
        muk = full_mukai_lattice()
        assert muk.rank == 24
        assert muk.signature() == (4, 0, 20)
        assert discriminant_group(muk) == ()

    def test_e8_even_and_unimodular(self):
        e8 = e8_minus_lattice()
        assert e8.signature() == (0, 0, 8)
        assert discriminant_group(e8) == ()
        assert all(e8.gram[i][i] % 2 == 0 for i in range(8))

    def test_gram_must_be_symmetric(self):
        with pytest.raises(ValidationError):
            Lattice(((0, 1), (2, 0)))


class TestIdentity:
    """A lattice is its Gram; the label is display data."""

    G = ((2, 1), (1, -2))

    def test_labels_do_not_distinguish_lattices(self):
        a, b = Lattice(self.G, "A"), Lattice(self.G, "B")
        assert a == b
        assert hash(a) == hash(b)
        assert (repr(a), repr(b)) == ("Lattice(A)", "Lattice(B)")
        assert a != Lattice(((2, 0), (0, -2)), "A")

    def test_vectors_over_relabelled_lattices_agree(self):
        ns, zl = Lattice(self.G, "NS"), Lattice(self.G, "ZL")
        x, y = ns.vector((1, 2)), zl.vector((1, 2))
        assert x == y
        assert hash(x) == hash(y)
        assert x != ns.vector((2, 1))
        assert pairing(x, y) == x.square() == -2
        assert x + y == x.scale(2)
        assert orthogonal_complement(zl, x).basis == orthogonal_complement(ns, x).basis


class TestEntries:
    """A vector stores Python ints: numpy ints are converted, floats refused."""

    def test_numpy_ints_do_not_overflow(self):
        v = diagonal_lattice([2, -2]).vector(np.array([2**40, 1]))
        assert all(type(c) is int for c in v.num)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert v.square() == 2**81 - 2

    @pytest.mark.parametrize("entry", [0.1, 1.0, np.float64(0.5), 1j])
    def test_float_and_complex_entries_are_refused(self, entry):
        with pytest.raises(ValidationError, match="is not an int, a Fraction or a 'p/q' string$"):
            diagonal_lattice([2, -2]).vector((entry, 1))

    def test_strings_and_fractions_are_read_exactly(self):
        v = diagonal_lattice([2, -2]).vector(("1/2", Fraction(-3, 4)))
        assert (v.num, v.den) == ((2, -3), 4)


class TestPairing:
    @pytest.mark.parametrize("i", [-1, 2])
    def test_basis_index_out_of_range(self, i):
        with pytest.raises(ValidationError, match=f"^basis index {i} out of range for rank 2$"):
            u_lattice().basis_vector(i)

    def test_u_basis(self):
        u = u_lattice()
        assert pairing(u.basis_vector(0), u.basis_vector(1)) == 1

    def test_negative_square(self):
        l = diagonal_lattice([-10])
        v = l.basis_vector(0)
        assert v.square() == -10

    def test_mixed_diagonal(self):
        l = diagonal_lattice([2, -2])
        x, y = l.vector((1, 1)), l.vector((1, -1))
        assert pairing(x, y) == 4

    def test_mismatch_raises(self):
        with pytest.raises(LatticeMismatchError):
            pairing(u_lattice().basis_vector(0), diagonal_lattice([2, -2]).basis_vector(0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        l = Lattice(tuple(tuple(r) for r in g))
        x = l.vector(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)))
        y = l.vector(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)))
        assert pairing(x, y) == pairing(y, x)


class TestOrthogonalComplement:
    def test_u_complement(self):
        u = u_lattice()
        oc = orthogonal_complement(u, u.vector((1, 1)))
        assert oc.basis == ((1, -1),)
        assert oc.sub.gram == ((-2,),)

    def test_zero_vector_returns_whole_lattice(self):
        l = diagonal_lattice([2, -2])
        oc = orthogonal_complement(l, l.zero())
        assert oc.basis == ((1, 0), (0, 1))
        assert oc.sub.gram == l.gram

    def test_saturated(self):
        l = diagonal_lattice([2, -2, -4])
        oc = orthogonal_complement(l, l.vector((2, 2, 0)))
        diag = smith_normal_form(oc.basis)
        assert all(d == 1 for d in diag)
        for row in oc.basis:
            assert pairing(l.vector(row), l.vector((2, 2, 0))) == 0

    def test_rank_additivity(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 4)
            entries = [rng.choice([-4, -2, 2]) for _ in range(n)]
            l = diagonal_lattice(entries)
            v = l.vector(tuple(rng.randint(-3, 3) for _ in range(n)))
            if v.is_zero:
                continue
            oc = orthogonal_complement(l, v)
            assert len(oc.basis) == n - 1

    def test_rational_vector_allowed(self):
        l = diagonal_lattice([2, -2])
        oc = orthogonal_complement(l, l.vector((Fraction(1, 2), Fraction(1, 2))))
        assert oc.basis == ((1, 1),)

    def test_vector_from_another_lattice(self):
        with pytest.raises(LatticeMismatchError,
                           match="^complement vectors must live in the given lattice$"):
            orthogonal_complement(diagonal_lattice([2, -2]), diagonal_lattice([2]).basis_vector(0))


class TestDiscriminantGroup:
    def test_minus_two(self):
        assert discriminant_group(diagonal_lattice([-2])) == (2,)

    def test_unimodular(self):
        assert discriminant_group(u_lattice()) == ()
        assert discriminant_group(Lattice(())) == ()

    def test_minus_eight(self):
        assert discriminant_group(diagonal_lattice([-8])) == (8,)

    def test_degenerate_rejected(self):
        with pytest.raises(HypothesisViolation):
            discriminant_group(Lattice(((0, 0), (0, 2))))


class TestContent:
    """A rank r and a class xi are coprime when gcd(r, content(xi)) = 1, the
    content being the gcd of the coordinates of xi."""

    def test_examples(self):
        l = diagonal_lattice([2, -2, 2])
        assert coprime_rank_class(3, l.vector((2, 4, 6)))
        assert not coprime_rank_class(4, l.vector((2, 4, 6)))
        l2 = diagonal_lattice([2, -2])
        assert coprime_rank_class(2, l2.vector((1, 0)))
        assert not coprime_rank_class(6, l2.vector((-4, 6)))
        assert not coprime_rank_class(3, l2.vector((Fraction(1, 2), 0)))

    def test_zero_rejected(self):
        zero = diagonal_lattice([2]).zero()
        assert coprime_rank_class(1, zero)
        assert not any(coprime_rank_class(r, zero) for r in range(2, 8))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unimodular_invariance(self, seed):
        rng = random.Random(seed)
        n, r = rng.randint(1, 4), rng.randint(1, 12)
        coords = [rng.randint(-6, 6) for _ in range(n)]
        u = random_unimodular(rng, n)
        image = tuple(sum(coords[i] * u[i][j] for i in range(n)) for j in range(n))
        l = diagonal_lattice([2] * n)
        assert coprime_rank_class(r, l.vector(coords)) == coprime_rank_class(r, l.vector(image))


def test_direct_sum_block_structure():
    l = direct_sum([u_lattice(), diagonal_lattice([-2])])
    assert l.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -2))


# -- Vectors in lowest terms ------------------------------------------------------

_ENTRY = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=60))


@st.composite
def _lattice_and_entries(draw):
    """A random symmetric Gram of rank 1-4, two coordinate tuples and a scalar."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-4, 4))
    entries = st.lists(_ENTRY, min_size=n, max_size=n).map(tuple)
    return Lattice(tuple(map(tuple, gram))), draw(entries), draw(entries), draw(_ENTRY)


class TestNormalForm:
    """A vector is stored as ints ``num`` over one ``den``, in lowest terms."""

    @given(_lattice_and_entries())
    @settings(max_examples=60, deadline=None)
    def test_lowest_terms_and_round_trip(self, case):
        l, a, _, _ = case
        x = l.vector(a)
        assert all(type(c) is int for c in x.num) and type(x.den) is int
        assert x.den >= 1 and gcd(x.den, *x.num) == 1
        assert x.coords == tuple(Fraction(c) for c in a)
        assert all(type(c) is Fraction for c in x.coords)
        assert LatticeVector(l, x.num, x.den) == x == LatticeVector(l, x.coords)

    @given(_lattice_and_entries())
    @settings(max_examples=60, deadline=None)
    def test_every_route_gives_equal_fields_and_hash(self, case):
        l, a, b, k = case
        x, y = l.vector(a), l.vector(b)
        routes = [
            (x + y, [p + q for p, q in zip(a, b)]),
            (x - y, [p - q for p, q in zip(a, b)]),
            (-x, [-p for p in a]),
            (x.scale(k), [k * p for p in a]),
            (x + y - y, a),
            (y + x, [q + p for p, q in zip(a, b)]),
        ]
        for got, coords in routes:
            want = l.vector(coords)
            assert (got.lattice, got.num, got.den) == (want.lattice, want.num, want.den)
            assert got == want and hash(got) == hash(want)

    @given(_lattice_and_entries())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_the_fraction_oracle(self, case):
        l, a, b, k = case
        x, y = l.vector(a), l.vector(b)
        fa, fb, fk = [Fraction(c) for c in a], [Fraction(c) for c in b], Fraction(k)
        assert (x + y).coords == tuple(p + q for p, q in zip(fa, fb))
        assert (x - y).coords == tuple(p - q for p, q in zip(fa, fb))
        assert x.scale(k).coords == tuple(fk * p for p in fa)
        assert pairing(x, y) == fraction_pair(l.gram, fa, fb)
        assert x.square() == fraction_pair(l.gram, fa, fa)

    @pytest.mark.parametrize("den", [0, -1, Fraction(1, 2)])
    def test_denominator_must_be_a_positive_int(self, den):
        with pytest.raises(ValidationError, match="denominator must be a positive int"):
            LatticeVector(diagonal_lattice([2, -2]), (1, 1), den)

    def test_given_denominator_divides_the_entries(self):
        ns = diagonal_lattice([2, -2])
        x = LatticeVector(ns, (Fraction(2, 3), 4), 6)
        assert (x.num, x.den) == ((1, 6), 9)
        assert x.coords == (Fraction(1, 9), Fraction(2, 3))

    def test_entries_that_fraction_reads_are_accepted(self):
        ns = diagonal_lattice([2, -2])
        x = LatticeVector(ns, ("1/2", 3))
        assert (x.num, x.den) == ((1, 6), 2)
        assert x == ns.vector((Fraction(1, 2), 3)) == ns.vector(["1/2", "3"])
        assert LatticeVector(ns, (True, "-4/6")) == ns.vector((1, Fraction(-2, 3)))
        assert LatticeVector(ns, ("1/3", 1), 5).coords == (Fraction(1, 15), Fraction(1, 5))
        with pytest.raises(ValidationError, match=r"^'x' is not an int, a Fraction or a 'p/q' string$"):
            LatticeVector(ns, ("x", 1))

    @pytest.mark.parametrize("text", ["1.5", "1e3", " 1/2 ", "1_000", "abc", "1/0", "-3/00",
                                      "1e1000000", "1/-2", "",
                                      pytest.param("1" * 5000, id="5000-digits")])
    def test_only_p_q_strings_are_read(self, text):
        """A string entry is read only when it is 'p' or 'p/q' with q != 0, the CLI's
        rule: decimals, exponents, blanks, underscores and a zero denominator raise
        ``ValidationError``, never a bare ``ValueError`` or ``ZeroDivisionError``, and
        an exponent is refused before ``Fraction`` expands it."""
        ns = diagonal_lattice([2, -2])
        message = r" is not an int, a Fraction or a 'p/q' string$"
        with pytest.raises(ValidationError, match=message):
            ns.vector((text, 0))
        with pytest.raises(ValidationError, match=message):
            MukaiVector(text, ns.zero(), 0)
        with pytest.raises(ValidationError, match=message):
            ns.vector((1, 0)).scale(text)

    @pytest.mark.parametrize("k", [0.1, 1e-300, 2.0, np.float64(2), complex(2, 0)])
    def test_scale_refuses_a_float(self, k):
        """A scale factor goes through the entry converter, so a float raises instead
        of scaling by its binary expansion (0.1 would give a 2^55 denominator)."""
        with pytest.raises(ValidationError, match=r" is not an int, a Fraction or a 'p/q' string$"):
            diagonal_lattice([2, -2]).vector((1, 0)).scale(k)

    def test_scale_takes_exact_factors(self):
        x = diagonal_lattice([2, -2]).vector((1, Fraction(1, 3)))
        want = x.lattice.vector((Fraction(3, 2), Fraction(1, 2)))
        assert x.scale(Fraction(3, 2)) == x.scale("3/2") == want
        assert x.scale(np.int64(3)) == x.scale(3) == x.lattice.vector((3, 1))
