import random
from fractions import Fraction as F

import pytest

from mukaikit import (
    H11Class,
    K3Model,
    Lattice,
    diagonal_lattice,
    is_polarization,
    is_projective_surface,
    pairing,
)
from mukaikit.errors import LatticeMismatchError, ValidationError
from mukaikit.surface import polarization_defect

from conftest import random_hyperbolic_ns, random_negative_definite_ns, positive_reference


@pytest.fixture
def nonprojective():
    ns = diagonal_lattice([-10], "ZL")
    t11 = diagonal_lattice([2], "T")
    return K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))


@pytest.fixture
def projective():
    ns = diagonal_lattice([2, -2], "NS")
    return K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))


class TestModelValidation:
    def test_two_positive_directions_rejected(self):
        ns = diagonal_lattice([2, 2])
        with pytest.raises(ValidationError):
            K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))

    def test_positive_split_between_blocks_rejected(self):
        ns = diagonal_lattice([2])
        t11 = diagonal_lattice([4])
        with pytest.raises(ValidationError):
            K3Model(ns=ns, t11=t11,
                    reference_positive=H11Class(ns.basis_vector(0), t11.zero()))

    def test_degenerate_ns_rejected(self):
        ns = Lattice(((0,),))
        with pytest.raises(ValidationError):
            K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))

    def test_reference_must_be_positive(self):
        ns = diagonal_lattice([2, -2])
        with pytest.raises(ValidationError):
            K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(1), Lattice(()).zero()))

    def test_curve_class_lattice_checked(self):
        ns = diagonal_lattice([2, -2])
        other = diagonal_lattice([2])
        with pytest.raises(LatticeMismatchError):
            K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()),
                    curve_classes=(other.basis_vector(0),))

    def test_membership_reads_the_gram_not_the_label(self):
        ns, relabelled = diagonal_lattice([2, -2], "NS"), diagonal_lattice([2, -2], "other")
        reference = H11Class(relabelled.basis_vector(0), Lattice(()).zero())
        m = K3Model(ns=ns, reference_positive=reference, curve_classes=(relabelled.vector((1, 1)),))
        assert pairing(relabelled.basis_vector(1), m.h11((1, 1)).ns_part) == -2
        with pytest.raises(LatticeMismatchError, match="^vectors live in different lattices$"):
            pairing(diagonal_lattice([2, -4]).basis_vector(1), m.h11((1, 1)).ns_part)


class TestProjectivity:
    def test_negative_definite_is_not_projective(self, nonprojective):
        assert not is_projective_surface(nonprojective)

    def test_hyperbolic_is_projective(self, projective):
        assert is_projective_surface(projective)

    def test_two_negatives(self):
        ns = diagonal_lattice([-2, -4])
        t11 = diagonal_lattice([2])
        m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
        assert not is_projective_surface(m)


class TestPolarization:
    def test_worked_positive(self, nonprojective):
        omega = nonprojective.h11((1,), (3,))
        assert nonprojective.square(omega) == 8
        assert is_polarization(nonprojective, omega)

    def test_worked_negative_square(self, nonprojective):
        omega = nonprojective.h11((1,), (1,))
        assert nonprojective.square(omega) == -8
        assert not is_polarization(nonprojective, omega)

    def test_wrong_component(self, nonprojective):
        ref = nonprojective.reference_positive
        flipped = H11Class(-ref.ns_part, -ref.t_part)
        assert not is_polarization(nonprojective, flipped)

    def test_curve_class_cuts_cone(self):
        ns = diagonal_lattice([2, -2], "NS")
        curve = ns.vector((1, 1))  # square 0, an effective boundary class
        m = K3Model(
            ns=ns,
            reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()),
            curve_classes=(curve,),
        )
        inside = m.h11((1, F(1, 4)))
        outside = m.h11((1, F(-2)))
        assert is_polarization(m, inside)
        assert m.square(outside) < 0 or pairing(curve, outside.ns_part) <= 0
        assert not is_polarization(m, outside)

    def test_defect_names_the_failed_condition(self, projective):
        assert polarization_defect(projective, projective.h11((1, F(1, 4)))) is None
        assert polarization_defect(projective, projective.h11((0, 1))) == "omega^2=-2 <= 0"
        flipped = projective.h11((-1, F(1, 2)))
        assert polarization_defect(projective, flipped, "omega'") == "omega'.reference=-2 <= 0"
        ns = projective.ns
        m = K3Model(ns=ns, reference_positive=projective.reference_positive,
                    curve_classes=(ns.vector((1, 2)),))
        # Square 7/8 and reference pairing 2 pass; (1, 2).omega = 2 - 3 fails.
        assert polarization_defect(m, m.h11((1, F(3, 4)))) == (
            "C.omega=-1 <= 0 for the curve class C=(1, 2)"
        )


class TestProjection:
    def test_pairing_agreement_random(self, nonprojective):
        # An NS class pairs with omega through the NS part of omega only.
        rng = random.Random(6)
        omega = nonprojective.h11((F(1, 3),), (2,))
        for _ in range(20):
            xi = nonprojective.ns.vector((rng.randint(-4, 4),))
            assert pairing(xi, omega.ns_part) == nonprojective.pair(
                H11Class(xi, nonprojective.t11.zero()), omega)

    def test_nonprojective_projection_fails_positivity(self, nonprojective):
        omega = nonprojective.h11((1,), (3,))
        assert is_polarization(nonprojective, omega)
        projected = H11Class(omega.ns_part, nonprojective.t11.zero())
        assert projected.ns_part.square() == -10
        assert not is_polarization(nonprojective, projected)


class TestSignatureConsequences:
    def test_projection_keeps_positivity_when_t11_negative(self):
        # omega^2 > 0 and omega_T^2 <= 0 force omega_NS^2 >= omega^2 > 0.
        rng = random.Random(88)
        for _ in range(25):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            t11 = random_negative_definite_ns(rng, rng.randint(0, 2))
            ref = positive_reference(ns, rng)
            m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ref, t11.zero()))
            for _ in range(10):
                ns_part = ns.vector(tuple(F(rng.randint(-6, 6), rng.randint(1, 2))
                                          for _ in range(ns.rank)))
                t_part = t11.vector(tuple(F(rng.randint(-3, 3), rng.randint(1, 2))
                                          for _ in range(t11.rank)))
                omega = H11Class(ns_part, t_part)
                if not is_polarization(m, omega):
                    continue
                assert omega.ns_part.square() >= m.square(omega) > 0

    def test_hodge_index_on_orthogonal_classes(self):
        # D in NS with D . omega = 0 has D^2 <= 0, zero only for D = 0:
        # the orthogonal complement of a polarization is negative definite.
        from mukaikit.exactlin import (
            integer_kernel_saturated,
            rational_signature,
            transpose,
        )

        from fraction_oracle import matmul

        rng = random.Random(99)
        for _ in range(20):
            ns = random_hyperbolic_ns(rng, rng.randint(2, 3))
            ref = positive_reference(ns, rng)
            m = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
            omega = H11Class(ref, Lattice(()).zero())
            assert is_polarization(m, omega)
            row = tuple(int(sum(ns.gram[i][j] * ref.coords[j] for j in range(ns.rank)))
                        for i in range(ns.rank))
            basis = integer_kernel_saturated(row)
            induced = matmul(matmul(basis, ns.gram), transpose(basis))
            assert rational_signature(induced) == (0, 0, len(basis))
