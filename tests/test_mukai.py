import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from mukaikit import (
    MukaiVector,
    TopologicalType,
    diagonal_lattice,
    discriminant,
    exp_class,
    mukai_pairing,
    mukai_product,
    mukai_square,
    topological_type,
)
from mukaikit.errors import HypothesisViolation, LatticeMismatchError, ValidationError
from mukaikit.mukai import discriminant_from_chern

from conftest import random_mukai, random_integral_vector, random_hyperbolic_ns
from fraction_oracle import mukai_unit as unit


@pytest.fixture
def zl():
    return diagonal_lattice([-10], "ZL")


@pytest.fixture
def L(zl):
    return zl.basis_vector(0)


class TestConstruction:
    def test_from_chern(self):
        # (r, c1, c2) has ch2 = c1^2/2 - c2 and Mukai vector (r, c1, ch2 + r).
        rng = random.Random(19)
        for _ in range(50):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            tau = TopologicalType(rng.randint(1, 6), random_integral_vector(rng, ns),
                                  rng.randint(-9, 9))
            ch2 = tau.c1.square() / 2 - tau.c2
            assert topological_type(MukaiVector(tau.r, tau.c1, ch2 + tau.r)) == tau

    def test_rank_zero_passthrough(self, L):
        # (0, L, 5) is a Mukai vector, but a rank-0 class has no (r, c1, c2).
        with pytest.raises(HypothesisViolation, match="rank >= 1"):
            topological_type(MukaiVector(0, L, 5))

    def test_equality_ignores_lattice_labels(self, L):
        other = diagonal_lattice([-10], "other")
        v, w = MukaiVector(F(2), L, F(-2)), MukaiVector(F(2), other.basis_vector(0), F(-2))
        assert v == w
        assert hash(v) == hash(w)
        assert v != MukaiVector(F(2), diagonal_lattice([-12]).basis_vector(0), F(-2))
        assert mukai_pairing(v, w) == mukai_square(v) == -2


class TestComponents:
    """v0 and v2 store Python ints and Fractions: numpy ints are converted, floats refused."""

    def test_numpy_ints_do_not_overflow(self, zl):
        v = MukaiVector(np.int64(2**40), zl.zero(), np.int64(2**40))
        assert type(v.v0.numerator) is int and type(v.v2.numerator) is int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mukai_square(v) == -2**81

    def test_strings_are_read_exactly(self, zl):
        assert MukaiVector("3/2", zl.zero(), "-1/3") == MukaiVector(F(3, 2), zl.zero(), F(-1, 3))

    @pytest.mark.parametrize("value", [2.5, 0.1, np.float64(2.0)])
    def test_floats_are_refused(self, zl, value):
        """A float v0 or v2 raises at construction, as a float ``LatticeVector`` entry
        does; 0.1 would otherwise be held as 3602879701896397/36028797018963968."""
        for v0, v2 in ((value, 0), (2, value)):
            with pytest.raises(ValidationError,
                               match="^.* is not an int, a Fraction or a 'p/q' string$"):
                MukaiVector(v0, zl.zero(), v2)


class TestPairing:
    def test_ideal_sheaf_square(self, zl):
        for n in range(0, 5):
            v = MukaiVector(F(1), zl.zero(), F(1 - n))
            assert mukai_square(v) == 2 * n - 2

    def test_worked_squares(self, zl, L):
        assert mukai_square(MukaiVector(F(2), L, F(-2))) == -2
        assert mukai_square(MukaiVector(F(2), L, F(-3))) == 2

    def test_lattice_mismatch(self, zl, L):
        other = diagonal_lattice([2, -2])
        w = MukaiVector(F(1), other.zero(), F(0))
        with pytest.raises(LatticeMismatchError):
            mukai_pairing(MukaiVector(F(1), L, F(0)), w)
        # Both operations leave the check to the lattice layer.
        with pytest.raises(LatticeMismatchError, match="^vectors live in different lattices$"):
            mukai_pairing(w, MukaiVector(F(1), L, F(0)))
        with pytest.raises(LatticeMismatchError, match="^vectors live in different lattices$"):
            mukai_product(MukaiVector(F(1), L, F(0)), w)


class TestDiscriminant:
    def test_worked(self, zl, L):
        assert discriminant(MukaiVector(F(2), L, F(-2))) == F(3, 4)
        assert discriminant(MukaiVector(F(2), L, F(-3))) == F(5, 4)

    def test_zero_square(self, zl):
        for r in (1, 2, 5):
            assert discriminant(MukaiVector(F(r), zl.zero(), F(0))) == 1

    def test_rank_zero_rejected(self, zl, L):
        with pytest.raises(HypothesisViolation):
            discriminant(MukaiVector(F(0), L, F(1)))

    def test_agrees_with_chern_form(self):
        rng = random.Random(42)
        for _ in range(100):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            v = random_mukai(rng, ns)
            tau = topological_type(v)
            assert discriminant(v) == discriminant_from_chern(tau)


class TestTopologicalType:
    @pytest.mark.parametrize("rank", [2.5, np.float64(2.0), 1j, F(3, 2)])
    def test_float_and_non_integral_ranks_are_refused(self, L, rank):
        with pytest.raises(ValidationError,
                           match="^.* is not an int(eger|, a Fraction or a 'p/q' string)$"):
            TopologicalType(rank, L, 0)

    def test_numpy_rank_becomes_an_int(self, L):
        tau = TopologicalType(np.int64(2**40), L, 0)
        assert tau.r == 2**40 and type(tau.r) is int
        assert TopologicalType(F(2), L, 0) == TopologicalType(2, L, 0)

    @pytest.mark.parametrize("c2", [0.1, 2.5, np.float64(2.0), 1j, F(3, 2)])
    def test_float_and_non_integral_c2_are_refused(self, L, c2):
        """0.1 would otherwise be held, and give discriminant_from_chern a binary fraction."""
        with pytest.raises(ValidationError,
                           match="^.* is not an int(eger|, a Fraction or a 'p/q' string)$"):
            TopologicalType(2, L, c2)

    def test_numpy_c2_becomes_an_int(self, L):
        tau = TopologicalType(2, L, np.int64(2**62))
        assert tau.c2 == 2**62 and type(tau.c2) is int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tau.c2 * 4 == 2**64
        assert TopologicalType(2, L, F(-1)) == TopologicalType(2, L, -1)

    def test_worked(self, zl, L):
        tau = topological_type(MukaiVector(F(2), L, F(-2)))
        assert (tau.r, tau.c1, tau.c2) == (2, L, -1)

    def test_structure_sheaf(self, zl):
        tau = topological_type(MukaiVector(F(1), zl.zero(), F(1)))
        assert (tau.r, tau.c2) == (1, 0)

    def test_rank2_h(self):
        ns = diagonal_lattice([2])
        h = ns.basis_vector(0)
        tau = topological_type(MukaiVector(F(2), h, F(0)))
        assert tau.c2 == 3

    def test_non_integral_v(self, zl):
        with pytest.raises(HypothesisViolation,
                           match="^topological type requires an integral Mukai vector$"):
            topological_type(MukaiVector(F(2), zl.vector((F(1, 2),)), F(0)))

    def test_c2_not_an_integer(self):
        # On the odd lattice <1>, c2 = xi^2/2 + r - a = 1/2 + 2.
        with pytest.raises(HypothesisViolation,
                           match="^second Chern class 5/2 is not an integer$"):
            topological_type(MukaiVector(F(2), diagonal_lattice([1]).basis_vector(0), F(0)))


class TestProductAndExp:
    def test_exp_scale(self, zl, L):
        e = exp_class(L.scale(F(1, 2)))
        assert e == MukaiVector(F(1), L.scale(F(1, 2)), F(-5, 4))
        y = MukaiVector(F(8), zl.zero(), F(-2))
        assert mukai_product(e, y) == MukaiVector(F(8), L.scale(4), F(-12))

    def test_unit(self, zl, L):
        y = MukaiVector(F(3), L, F(7))
        assert mukai_product(unit(zl), y) == y

    def test_exp_group_law(self, zl, L):
        d = L.scale(F(2, 3))
        assert mukai_product(exp_class(d), exp_class(-d)) == unit(zl)

    def test_transfer_factorization(self, zl, L):
        x = MukaiVector(F(2), zl.zero(), F(-5, 2))
        y = MukaiVector(F(1), L.scale(F(-1, 2)), F(-5, 4))
        assert mukai_product(x, y) == MukaiVector(F(2), -L, F(-5))

    def test_exp_twist_is_isometry(self):
        rng = random.Random(5)
        for _ in range(60):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            d = random_integral_vector(rng, ns)
            e = exp_class(d)
            x, y = random_mukai(rng, ns), random_mukai(rng, ns)
            assert mukai_pairing(mukai_product(e, x), mukai_product(e, y)) == mukai_pairing(x, y)

