import random
from fractions import Fraction as F

import numpy as np
import pytest

from mukaikit import (
    MukaiVector,
    TwistData,
    TwistedSheafData,
    ch_B,
    ch_E,
    delta_E,
    diagonal_lattice,
    discriminant,
    exp_class,
    mukai_product,
    mukai_square,
    pairing,
    twisted_subobject_wall,
    v_E,
    w_xi,
)
from mukaikit.errors import HypothesisViolation, IntegralityWarning, ValidationError
from mukaikit.twisted import endo_ch2

from conftest import random_hyperbolic_ns, random_integral_vector
from fraction_oracle import trivial_twist, v_E_square_closed_form


@pytest.fixture
def zl():
    return diagonal_lattice([-10], "ZL")


@pytest.fixture
def L(zl):
    return zl.basis_vector(0)


def tensor_dual_data(r, c1f, ch2f, s, c1e, ch2e):
    """Invariants of F (x) E^dual from untwisted Chern data of F and E."""
    xi = c1f.scale(s) - c1e.scale(r)
    a = F(r) * ch2e + F(s) * ch2f - pairing(c1f, c1e)
    b = 2 * F(s) * ch2e - c1e.square()
    return TwistedSheafData(r, xi, a), TwistData(s, b)


NON_INTEGRAL_RANK = "^.* is not an int(eger|, a Fraction or a 'p/q' string)$"


class TestEntries:
    """b and a store Python ints and Fractions, the ranks s and r Python ints:
    numpy ints are converted, floats and non-integral ranks refused."""

    def test_numpy_ints_become_ints(self, L):
        e = TwistData(1, np.int64(2**40))
        f = TwistedSheafData(1, L, np.int64(-(2**40)))
        assert (e.b, f.a) == (2**40, -(2**40))
        assert type(e.b.numerator) is int and type(f.a.numerator) is int

    @pytest.mark.parametrize("entry", [0.5, np.float64(2.0), 1j])
    def test_float_and_complex_entries_are_refused(self, L, entry):
        with pytest.raises(ValidationError, match="is not an int, a Fraction or a 'p/q' string$"):
            TwistData(1, entry)
        with pytest.raises(ValidationError, match="is not an int, a Fraction or a 'p/q' string$"):
            TwistedSheafData(1, L, entry)

    @pytest.mark.parametrize("rank", [1.5, 2.5, np.float64(2.0), 1j, F(3, 2), "5/2"])
    def test_float_and_non_integral_ranks_are_refused(self, L, rank):
        """1.5 was read as s = 3/2, and a float r failed later as '0.0 is not an int'."""
        with pytest.raises(ValidationError, match=NON_INTEGRAL_RANK):
            TwistData(rank, 0)
        with pytest.raises(ValidationError, match=NON_INTEGRAL_RANK):
            TwistedSheafData(rank, L, 0)

    def test_numpy_and_fraction_ranks_become_ints(self, L):
        e, f = TwistData(np.int64(3), 0), TwistedSheafData(np.int64(2), L, 0)
        assert (e.s, f.r) == (3, 2) and type(e.s) is int and type(f.r) is int
        assert (TwistData(F(3), 0).s, TwistedSheafData("2", L, 0).r) == (3, 2)
        # A numpy s failed in ch_E as a non-int vector denominator.
        assert ch_E(f, e) == ch_E(TwistedSheafData(2, L, 0), TwistData(3, 0))

    def test_numpy_rank_does_not_overflow(self, L):
        # (2 r s a - xi^2 - r^2 b) / s^2 with L^2 = -10 and b = 1; int64 read 10.
        f = TwistedSheafData(np.int64(2**40), L, 0)
        assert endo_ch2(f, TwistData(1, 1)) == 10 - 2**80


class TestChE:
    def test_worked(self, zl, L):
        f = TwistedSheafData(2, L, F(1))
        e = TwistData(2, F(0))
        assert ch_E(f, e) == MukaiVector(F(2), L.scale(F(1, 2)), F(1, 2))

    def test_self_twist(self, zl):
        f = TwistedSheafData(2, zl.zero(), F(4))
        e = TwistData(2, F(4))
        assert ch_E(f, e) == MukaiVector(F(2), zl.zero(), F(1))

    def test_trivial_twist_is_chern_character(self, zl, L):
        f = TwistedSheafData(3, L, F(-2))
        assert ch_E(f, trivial_twist()) == MukaiVector(F(3), L, F(-2))


class TestVE:
    def test_worked(self, zl, L):
        f = TwistedSheafData(2, L, F(1))
        e = TwistData(2, F(0))
        assert v_E(f, e) == MukaiVector(F(2), L.scale(F(1, 2)), F(5, 2))
        assert mukai_square(v_E(f, e)) == F(-25, 2)
        assert v_E_square_closed_form(f, e) == F(-25, 2)

    def test_square_identity_random(self):
        rng = random.Random(77)
        for _ in range(80):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            f = TwistedSheafData(
                rng.randint(1, 4), random_integral_vector(rng, ns),
                F(rng.randint(-8, 8), rng.randint(1, 3)),
            )
            e = TwistData(rng.randint(1, 4), F(rng.randint(-8, 8), rng.randint(1, 3)))
            assert mukai_square(v_E(f, e)) == v_E_square_closed_form(f, e)

    def test_trivial_twist_matches_mukai_vector(self, zl, L):
        f = TwistedSheafData(2, L, F(-4))
        got = v_E(f, trivial_twist())
        assert got == MukaiVector(F(2), L, F(-2))


class TestDeltaE:
    def test_untwisted_is_discriminant(self, zl, L):
        f = TwistedSheafData(2, L, F(-4))
        v = MukaiVector(F(2), L, F(-2))
        assert delta_E(f, trivial_twist()) == discriminant(v) == F(3, 4)

    def test_worked_twisted_value(self, zl, L):
        f = TwistedSheafData(2, L, F(1))
        e = TwistData(2, F(0))
        assert delta_E(f, e) == F(-25, 2) / 8 + 1 == F(-9, 16)

    def test_independent_of_twisting_sheaf(self):
        rng = random.Random(123)
        for _ in range(60):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            r = rng.randint(1, 4)
            c1f = random_integral_vector(rng, ns)
            ch2f = F(rng.randint(-6, 6))
            datasets = []
            for _ in range(2):
                s = rng.randint(1, 4)
                c1e = random_integral_vector(rng, ns)
                ch2e = F(rng.randint(-6, 6))
                datasets.append(tensor_dual_data(r, c1f, ch2f, s, c1e, ch2e))
            deltas = {delta_E(f, e) for f, e in datasets}
            assert len(deltas) == 1
            untwisted = discriminant(MukaiVector(F(r), c1f, ch2f + r))
            assert deltas == {untwisted}

    def test_self_twist_consistency(self, zl):
        s, b = 3, F(7)
        f = TwistedSheafData(s, zl.zero(), b)
        e = TwistData(s, b)
        assert delta_E(f, e) == (-endo_ch2(f, e) - 2 * s * s) / (2 * s * s) + 1


class TestWXi:
    def test_roundtrip_value(self, zl, L):
        w = MukaiVector(F(2), zl.zero(), F(1, 2))
        assert w_xi(w, L, 2) == MukaiVector(F(2), L, F(-2))

    def test_zero_xi(self, zl):
        w = MukaiVector(F(3), zl.zero(), F(-7))
        assert w_xi(w, zl.zero(), 3) == w

    def test_formula(self, zl, L):
        w = MukaiVector(F(2), zl.zero(), F(-1, 2))
        out = w_xi(w, L, 2)
        assert out == MukaiVector(F(2), L, F(-1, 2) + F(-10, 4))
        assert out.v2 == -3

    def test_nonzero_middle_rejected(self, zl, L):
        with pytest.raises(ValidationError):
            w_xi(MukaiVector(F(2), L, F(0)), L, 2)

    def test_rank_must_agree_with_w(self, zl, L):
        with pytest.raises(ValidationError,
                           match="^rank argument disagrees with the twisted vector$"):
            w_xi(MukaiVector(F(2), zl.zero(), F(1)), L, 3)

    def test_twisted_sheaf_of_rank_zero(self, zl):
        with pytest.raises(HypothesisViolation, match="^sheaf rank must be >= 1$"):
            TwistedSheafData(0, zl.zero(), F(0))

    def test_non_integral_warns(self, zl, L):
        w = MukaiVector(F(2), zl.zero(), F(0))
        with pytest.warns(IntegralityWarning):
            out = w_xi(w, L, 2)
        assert out.v2 == F(-5, 2)


class TestChB:
    def test_zero_b_field_is_identity(self, zl, L):
        e = TwistData(2, F(0), b_field=zl.zero())
        che = MukaiVector(F(2), L.scale(F(1, 2)), F(1, 2))
        assert ch_B(che, e) == che

    def test_product_formula(self, zl, L):
        delta = L.scale(F(1, 3))
        e = TwistData(2, F(0), b_field=delta)
        che = MukaiVector(F(2), L.scale(F(1, 2)), F(1, 2))
        expected = mukai_product(che, exp_class(delta))
        got = ch_B(che, e)
        assert got == expected
        assert got.v1 == L.scale(F(1, 2)) + delta.scale(2)
        assert got.v2 == F(1, 2) + pairing(delta, L.scale(F(1, 2))) + 2 * delta.square() / 2

    def test_rank_zero_passthrough(self, zl, L):
        e = TwistData(1, F(0), b_field=L)
        che = MukaiVector(F(0), L, F(2))
        assert ch_B(che, e).v0 == 0

    def test_missing_b_field(self, zl, L):
        with pytest.raises(ValidationError):
            ch_B(MukaiVector(F(1), L, F(0)), TwistData(2, F(0)))


class TestSubobjectWall:
    def test_worked_instance(self, zl, L):
        f = TwistedSheafData(2, zl.zero(), F(0))
        sub = TwistedSheafData(1, L, F(3))
        res = twisted_subobject_wall(f, sub, trivial_twist())
        assert res.d == L.scale(2)
        assert res.d_square == -40
        assert res.k == 20

    def test_proportional_sub(self, zl, L):
        f = TwistedSheafData(2, L.scale(2), F(0))
        sub = TwistedSheafData(1, L, F(-1))
        res = twisted_subobject_wall(f, sub, trivial_twist())
        assert res.d.is_zero and res.d_square == 0

    def test_untwisted_reduction_wall_class(self, zl, L):
        # With s = 1 the wall class is r zeta - r' xi.
        f = TwistedSheafData(3, L, F(2))
        sub = TwistedSheafData(1, L.scale(-1), F(0))
        res = twisted_subobject_wall(f, sub, trivial_twist())
        assert res.d == L.scale(-1).scale(3) - L.scale(1)

    def test_identity_on_random_splittings(self):
        rng = random.Random(31)
        for _ in range(60):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            r = rng.randint(2, 5)
            rp = rng.randint(1, r - 1)
            f = TwistedSheafData(r, random_integral_vector(rng, ns),
                                 F(rng.randint(-6, 6), rng.randint(1, 2)))
            sub = TwistedSheafData(rp, random_integral_vector(rng, ns),
                                   F(rng.randint(-6, 6), rng.randint(1, 2)))
            e = TwistData(rng.randint(1, 3), F(rng.randint(-4, 4)))
            res = twisted_subobject_wall(f, sub, e)
            rpp = r - rp
            assert res.d_square == -r * rp * rpp * res.k

    def test_rank_violation(self, zl, L):
        f = TwistedSheafData(2, L, F(0))
        with pytest.raises(HypothesisViolation):
            twisted_subobject_wall(f, TwistedSheafData(2, L, F(0)), trivial_twist())
