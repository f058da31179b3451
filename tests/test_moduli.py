import random
from fractions import Fraction as F
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukaikit import (
    EmbeddedMukaiVector,
    Segment,
    H11Class,
    K3Model,
    Lattice,
    MukaiVector,
    bundle_existence_check,
    diagonal_lattice,
    discriminant,
    exp_class,
    h2_lattice,
    irreducibility_oracle,
    moduli_report,
    algebraic_h2,
    mukai_pairing,
    mukai_product,
    mukai_square,
    projectivity_check,
    standard_ns_embedding,
    topological_type,
    transfer_image_of_v,
    transfer_isometry,
    transfer_multiplier,
    wall_set_is_empty,
    walls_crossing_segment,
    walls_through_class,
)
from mukaikit.errors import HypothesisViolation, ValidationError
from mukaikit.moduli import IrreducibilityVerdict, NSEmbedding
from mukaikit.mukai import discriminant_from_chern

from conftest import positive_reference, random_hyperbolic_ns, random_negative_definite_ns
from fraction_oracle import generator_projectivity, loop_irreducibility_oracle


def random_positive_embedded(rng: random.Random) -> EmbeddedMukaiVector:
    """Primitive vector of positive square: weight on the hyperbolic planes,
    sparse tail in the negative definite part."""
    while True:
        coords = [0] * 24
        for block in range(4):
            coords[2 * block] = rng.randint(-3, 3)
            coords[2 * block + 1] = rng.randint(-3, 3)
        for _ in range(rng.randint(0, 2)):
            coords[rng.randint(8, 23)] = rng.choice([-1, 1])
        ev = EmbeddedMukaiVector(tuple(coords))
        if ev.is_primitive and ev.square() > 0:
            return ev


@pytest.fixture
def zl():
    return diagonal_lattice([-10], "ZL")


@pytest.fixture
def nonprojective(zl):
    t11 = diagonal_lattice([2], "T")
    return K3Model(ns=zl, t11=t11, reference_positive=H11Class(zl.zero(), t11.vector((1,))))


@pytest.fixture
def projective():
    ns = diagonal_lattice([2, -2], "NS")
    return K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))


class TestEmbedding:
    def test_standard_rank1(self, zl):
        emb = standard_ns_embedding(zl)
        assert NSEmbedding(zl, emb.rows) == emb
        assert emb.rows[0][:2] == (1, -5)

    def test_standard_rank2(self):
        ns = diagonal_lattice([2, -2])
        emb = standard_ns_embedding(ns)
        assert NSEmbedding(ns, emb.rows) == emb

    def test_rejects_odd(self):
        with pytest.raises(ValidationError):
            standard_ns_embedding(diagonal_lattice([3]))

    def test_rejects_non_diagonal(self):
        with pytest.raises(ValidationError):
            standard_ns_embedding(Lattice(((2, 1), (1, -2))))

    def test_from_algebraic_preserves_square(self, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-3))
        ev = EmbeddedMukaiVector.from_algebraic(v, standard_ns_embedding(zl))
        assert ev.square() == mukai_square(v) == 2

    def test_ns_zero_has_the_empty_embedding(self):
        ns = Lattice(())
        emb = standard_ns_embedding(ns)
        assert emb.rows == ()
        assert NSEmbedding(ns, ()) == emb
        ev = EmbeddedMukaiVector.from_algebraic(MukaiVector(F(2), ns.zero(), F(-1)), emb)
        assert ev.coords == (2, 1) + (0,) * 22

    @pytest.mark.parametrize("bad", [F(1, 2), F(3), 2.7, "3", None])
    def test_coordinates_must_be_ints(self, bad):
        coords = [1, 0] + [0] * 22
        coords[3] = bad
        with pytest.raises(ValidationError, match="not an int"):
            EmbeddedMukaiVector(tuple(coords))

    def test_bad_embedding_rejected(self, zl):
        bad = tuple((0,) * 22 for _ in range(1))
        with pytest.raises(ValidationError):
            EmbeddedMukaiVector.from_algebraic(
                MukaiVector(F(2), zl.basis_vector(0), F(-3)), bad
            )


class TestH2Lattice:
    def test_ideal_sheaf_v(self):
        ns = diagonal_lattice([2])
        v = MukaiVector(F(1), ns.zero(), F(-1))  # v^2 = 2
        ev = EmbeddedMukaiVector.from_algebraic(v, standard_ns_embedding(ns))
        res = h2_lattice(ev)
        assert res.lattice.rank == 23
        assert res.signature == (3, 0, 20)
        assert res.discriminant == (2,)

    def test_isotropic_generator(self):
        ev = EmbeddedMukaiVector((1, 0) + (0,) * 22)
        res = h2_lattice(ev)
        assert res.quotient_by_v
        assert res.lattice.rank == 22
        assert res.signature == (3, 0, 19)
        assert res.discriminant == ()

    def test_positive_square_signature_generic(self):
        rng = random.Random(15)
        done = 0
        while done < 5:
            ev = random_positive_embedded(rng)
            res = h2_lattice(ev)
            assert res.lattice.rank == 23
            assert res.signature == (3, 0, 20)
            order = 1
            for d in res.discriminant:
                order *= d
            assert order == ev.square()
            done += 1

    def test_rejects_non_primitive(self):
        with pytest.raises(HypothesisViolation):
            h2_lattice(EmbeddedMukaiVector((2, 0) + (0,) * 22))

    def test_rejects_negative_square(self, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-2))  # v^2 = -2
        ev = EmbeddedMukaiVector.from_algebraic(v, standard_ns_embedding(zl))
        with pytest.raises(HypothesisViolation):
            h2_lattice(ev)


class TestProjectivityCheck:
    def test_nonprojective_witness(self, nonprojective, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-3))
        chk = projectivity_check(nonprojective, v)
        assert chk.signature == (0, 0, 2)
        assert chk.gram == ((F(-10), F(0)), (F(0), F(-32)))
        assert not chk.projective_moduli and not chk.surface_projective
        assert chk.isotropy_identity == (F(-32), F(-32))

    def test_projective_witness(self, projective):
        h = projective.ns.basis_vector(0)
        chk = projectivity_check(projective, MukaiVector(F(2), h, F(0)))
        assert chk.projective_moduli and chk.surface_projective
        # e^{h/2}(0,h,0) = (0,h,1) has square 2.
        assert chk.gram[0][0] == 2

    def test_identity_random(self):
        rng = random.Random(55)
        for _ in range(30):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
            r = rng.randint(2, 4)
            xi = ns.vector(tuple(rng.randint(-3, 3) for _ in range(ns.rank)))
            c = F(rng.randint(0, 9))
            e = exp_class(xi.scale(F(1, r)))
            vec = MukaiVector(F(2 * r * r), ns.zero(), c)
            assert mukai_square(mukai_product(e, vec)) == -4 * r * r * c

    @given(st.integers(0, 10**6), st.integers(1, 3), st.booleans(), st.integers(2, 6),
           st.sampled_from(("isotropic", "positive")))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_closed_form_matches_generator_route(self, seed, rank, hyperbolic, r, kind):
        rng = random.Random(seed)
        if hyperbolic:
            ns = random_hyperbolic_ns(rng, rank)
            m = K3Model(ns=ns, reference_positive=H11Class(positive_reference(ns, rng),
                                                           Lattice(()).zero()))
        else:
            ns = random_negative_definite_ns(rng, rank)
            t11 = diagonal_lattice([2], "T")
            m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
        xi = ns.vector([rng.randint(-4, 4) for _ in range(rank)])
        xi2 = int(xi.square())
        if kind == "isotropic":
            if xi2 % (2 * r):
                xi, xi2 = xi.scale(r), xi2 * r * r
            a = xi2 // (2 * r)
        else:
            a = (xi2 - 1) // (2 * r) - rng.randint(0, 3)
        v = MukaiVector(F(r), xi, F(a))
        assert (mukai_square(v) == 0) == (kind == "isotropic") and mukai_square(v) >= 0
        chk = projectivity_check(m, v)
        gram, sig, projective_moduli, identity = generator_projectivity(m, v)
        assert chk.gram == gram
        assert all(type(x) is F for row in chk.gram for x in row)
        assert chk.signature == sig
        assert chk.projective_moduli == projective_moduli == chk.surface_projective
        assert chk.isotropy_identity == identity

    def test_requires_nonnegative_square(self, nonprojective, zl):
        with pytest.raises(HypothesisViolation):
            projectivity_check(nonprojective, MukaiVector(F(2), zl.basis_vector(0), F(-2)))


class TestAlgebraicH2:
    """The algebraic part of v-perp, v-perp in U (+) NS (mod v when v^2 = 0)."""

    def test_nonprojective_fixture(self, nonprojective, zl):
        res = algebraic_h2(nonprojective, MukaiVector(F(2), zl.basis_vector(0), F(-3)))
        assert (res.signature, res.discriminant) == ((0, 0, 2), (2, 10))
        assert res.lattice.gram == ((-2, 0), (0, -10))
        assert not res.quotient_by_v and not res.projective

    def test_projective_positive_square(self, projective):
        ns = projective.ns
        res = algebraic_h2(projective, MukaiVector(F(2), ns.vector((1, 0)), F(0)))
        assert (res.signature, res.discriminant) == ((1, 0, 2), (2,))
        assert not res.quotient_by_v and res.projective

    def test_isotropic_v_is_quotiented_out(self, projective):
        ns = projective.ns
        res = algebraic_h2(projective, MukaiVector(F(2), ns.vector((1, 1)), F(0)))
        assert res.lattice.rank == 2 and res.quotient_by_v and res.projective
        assert (res.signature, res.discriminant) == ((1, 0, 1), ())
        assert len(res.perp_basis) == 3

    def test_ns_zero(self):
        ns, t = Lattice(()), diagonal_lattice([2], "T")
        model = K3Model(ns=ns, t11=t, reference_positive=H11Class(ns.zero(), t.vector((1,))))
        iso = algebraic_h2(model, MukaiVector(F(1), ns.zero(), F(0)))
        assert (iso.lattice.rank, iso.signature, iso.discriminant) == (0, (0, 0, 0), ())
        pos = algebraic_h2(model, MukaiVector(F(1), ns.zero(), F(-1)))
        assert (pos.lattice.gram, pos.discriminant, pos.projective) == (((-2,),), (2,), False)

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_projectivity_check(self, seed):
        """Same signature as the rational Gram NS (+) <-4 r^2 v^2>, less its zero
        direction when v^2 = 0; for v^2 > 0 the two determinants differ by the
        square of an integer."""
        rng = random.Random(seed)
        seen = set()
        for _ in range(60):
            rank = rng.randint(1, 3)
            if rng.random() < 0.5:
                ns, t = random_hyperbolic_ns(rng, rank), Lattice(())
                ref = H11Class(positive_reference(ns, rng), t.zero())
            else:
                ns, t = random_negative_definite_ns(rng, rank), diagonal_lattice([2])
                ref = H11Class(ns.zero(), t.vector((1,)))
            model = K3Model(ns=ns, t11=t, reference_positive=ref)
            v = _primitive_mukai(rng, ns)
            res, check = algebraic_h2(model, v), projectivity_check(model, v)
            n_plus, n_zero, n_minus = check.signature
            sq = mukai_square(v)
            assert res.signature == (n_plus, n_zero - (sq == 0), n_minus)
            assert res.projective == check.projective_moduli
            assert res.lattice.rank == ns.rank + (sq > 0)
            if sq > 0:
                ratio = _det(check.gram) / _det(res.lattice.gram)
                assert ratio.denominator == 1 and ratio > 0
                assert isqrt(ratio.numerator) ** 2 == ratio.numerator
            seen.add((sq == 0, res.projective))
        assert len(seen) >= 3

    def test_input_checks_follow_h2(self, projective):
        ns = projective.ns
        with pytest.raises(ValidationError, match="^only integral Mukai vectors embed"):
            algebraic_h2(projective, MukaiVector(F(3, 2), ns.vector((1, 0)), F(0)))
        with pytest.raises(HypothesisViolation, match="^the second-cohomology lattice needs"):
            algebraic_h2(projective, MukaiVector(F(2), ns.vector((2, 0)), F(0)))
        with pytest.raises(HypothesisViolation, match="^negative Mukai square"):
            algebraic_h2(projective, MukaiVector(F(2), ns.vector((0, 1)), F(1)))


def _primitive_mukai(rng: random.Random, ns: Lattice) -> MukaiVector:
    """An integral primitive Mukai vector of rank >= 2 and square >= 0 over ns,
    isotropic a third of the time when one is found."""
    while True:
        r = rng.randint(2, 4)
        xi = ns.vector(tuple(rng.randint(-3, 3) for _ in range(ns.rank)))
        xi2 = xi.square().numerator
        if rng.random() < 1 / 3 and xi2 % (2 * r) == 0:
            a = xi2 // (2 * r)
        else:
            a = rng.randint(-6, 6)
        v = MukaiVector(F(r), xi, F(a))
        if mukai_square(v) >= 0 and gcd(r, a, *xi.num) == 1:
            return v


def _det(gram) -> F:
    """Determinant by Fraction elimination."""
    m = [[F(x) for x in row] for row in gram]
    det = F(1)
    for i in range(len(m)):
        p = next((k for k in range(i, len(m)) if m[k][i]), None)
        if p is None:
            return F(0)
        if p != i:
            m[i], m[p], det = m[p], m[i], -det
        det *= m[i][i]
        for k in range(i + 1, len(m)):
            f = m[k][i] / m[i][i]
            m[k] = [a - f * b for a, b in zip(m[k], m[i])]
    return det


class TestTransfer:
    def test_worked_multiplier(self, zl):
        L = zl.basis_vector(0)
        v = MukaiVector(F(2), L, F(-3))
        mult = transfer_multiplier(v)
        assert mult == exp_class(L.scale(F(-1, 2)))
        assert mult == MukaiVector(F(1), L.scale(F(-1, 2)), F(-5, 4))
        w = transfer_image_of_v(v)
        assert w == MukaiVector(F(2), zl.zero(), F(-1, 2))

    def test_trivial_for_zero_xi(self, zl):
        v = MukaiVector(F(3), zl.zero(), F(5))
        mult = transfer_multiplier(v)
        assert (mult.v0, mult.v2) == (1, 0) and mult.v1.is_zero

    def test_isometry_on_orthogonal_classes(self, zl):
        L = zl.basis_vector(0)
        v = MukaiVector(F(2), L, F(-3))
        beta = mukai_product(exp_class(L.scale(F(1, 2))), MukaiVector(F(0), L, F(0)))
        assert mukai_pairing(beta, v) == 0
        image = transfer_isometry(v, beta)
        assert mukai_pairing(image, image) == mukai_pairing(beta, beta)

    def test_rejects_non_orthogonal(self, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-3))
        with pytest.raises(HypothesisViolation):
            transfer_isometry(v, MukaiVector(F(1), zl.zero(), F(0)))


class TestIrreducibilityOracle:
    def test_worked_case(self):
        verdict = irreducibility_oracle(2, -10, F(3, 4))
        assert verdict.irreducible
        assert verdict.min_lower_bound == F(5, 4)

    def test_reducible_witness(self):
        verdict = irreducibility_oracle(2, -10, F(3, 2))
        assert not verdict.irreducible
        assert verdict.min_lower_bound == F(5, 4)
        assert verdict.witness in ((1, 0), (1, 1))

    def test_rank_one_trivial(self):
        assert irreducibility_oracle(1, -10, F(1)).min_lower_bound is None

    def test_requires_negative_square(self):
        with pytest.raises(HypothesisViolation):
            irreducibility_oracle(2, 2, F(1))

    def test_min_bound_closed_form(self):
        # min LB = -xi^2 / (2 r^2 (r-1)) for cyclic NS.
        for r in range(2, 6):
            for g in range(-60, -29):
                xi2 = 2 * g - 2
                verdict = irreducibility_oracle(r, xi2, F(0))
                assert verdict.min_lower_bound == F(-xi2, 2 * r * r * (r - 1))

    def test_large_rank_is_closed_form(self):
        verdict = irreducibility_oracle(10**12, -10, F(0))
        assert verdict.witness == (1, 1)
        assert verdict.min_lower_bound == F(10, 2 * 10**24 * (10**12 - 1))

    @pytest.mark.parametrize("args, message", [
        ((2.5, -2, 0), "^2.5 is not an int"),
        ((F(5, 2), -2, 0), "^5/2 is not an integer$"),
        ((2, -2.0, 0), "^-2.0 is not an int"),
        ((2, -2, 0.5), "^0.5 is not an int"),
    ])
    def test_refuses_a_float_and_a_non_integral_rank(self, args, message):
        """No float reaches the verdict: 2.5 gave a float ``min_lower_bound``."""
        with pytest.raises(ValidationError, match=message):
            irreducibility_oracle(*args)

    def test_closed_form_matches_the_loop(self):
        for r in range(2, 201):
            for xi2 in (-2, -6, -10, -58, -122, -2 * r * r):
                want = loop_irreducibility_oracle(r, xi2, 0)
                assert want.irreducible and irreducibility_oracle(r, xi2, 0) == want
                # At delta equal to the least bound the sheaf may be reducible.
                least = want.min_lower_bound
                assert irreducibility_oracle(r, xi2, least) == IrreducibilityVerdict(
                    False, want.min_lower_bound, want.witness)


class TestExistence:
    def test_accepted_worked(self):
        verdict = bundle_existence_check(2, 0, -4)
        assert verdict.accepted
        assert verdict.xi_square == -10
        assert verdict.delta == F(3, 4)
        assert verdict.c2 == -1
        assert (verdict.mukai.v0, verdict.mukai.v2) == (2, -2)
        assert verdict.dim == 0
        assert verdict.irreducibility.irreducible

    def test_rejected_congruence(self):
        verdict = bundle_existence_check(2, 0, -3)
        assert not verdict.accepted
        assert any("congruent" in f for f in verdict.failures)

    def test_rejected_range(self):
        verdict = bundle_existence_check(2, 4, -4)
        assert not verdict.accepted
        assert any("[0, 2]" in f for f in verdict.failures)

    @pytest.mark.parametrize("args, message", [
        ((F(5, 2), 0, -30), "^5/2 is not an integer$"),
        ((2.0, 0, -3), "^2.0 is not an int"),
        ((2, F(1, 2), -4), "^1/2 is not an integer$"),
        ((2, 0, -4.0), "^-4.0 is not an int"),
    ])
    def test_refuses_a_float_and_a_non_integer(self, args, message):
        """r = 5/2 was accepted with the Mukai vector (5/2, (1), -12), and r = 2.0
        printed "modulo 2.0"."""
        with pytest.raises(ValidationError, match=message):
            bundle_existence_check(*args)

    def test_accepts_other_integer_types(self):
        verdict = bundle_existence_check(F(2), np.int64(0), F(-4))
        assert verdict == bundle_existence_check(2, 0, -4)
        assert (type(verdict.r), type(verdict.d), type(verdict.g)) == (int, int, int)

    def test_accepted_family_consistency(self):
        # Valid inputs across ranks: induced invariants satisfy both
        # discriminant formulas and land on dimension d. d = 0 is always
        # strictly inside the irreducibility bound; positive d can sit on
        # the boundary, where the oracle reports the closest decomposition.
        for r in range(2, 13):
            g_cap = -(r * r - 1) * (r - 1)
            for d in range(0, 2 * r - 1, 2):
                g = g_cap - ((g_cap - d // 2) % r)
                verdict = bundle_existence_check(r, d, g)
                assert verdict.accepted, verdict.failures
                assert verdict.dim == d
                assert verdict.c2 == (d // 2 - g) // r + r + g - 1
                v = verdict.mukai
                assert discriminant(v) == verdict.delta \
                    == discriminant_from_chern(topological_type(v))
                assert topological_type(v).c2 == verdict.c2
                assert mukai_square(v) + 2 == d
                oracle = verdict.irreducibility
                if d == 0:
                    assert oracle.irreducible
                if not oracle.irreducible:
                    assert oracle.witness is not None
                    assert oracle.min_lower_bound <= verdict.delta


class TestModuliReport:
    def test_projective_worked(self, projective):
        h = projective.ns.basis_vector(0)
        v = MukaiVector(F(2), h, F(0))
        omega = projective.h11((1, F(1, 4)))
        rep = moduli_report(projective, v, omega)
        assert rep.valid
        assert rep.dim == 4 and rep.n == 2 and rep.b2 == 23
        assert rep.deformation_class == "Hilb^2 of a projective K3"
        assert rep.projective_moduli and rep.projective_surface
        assert rep.genericity

    def test_nonprojective_worked(self, nonprojective, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-3))
        rep = moduli_report(nonprojective, v, nonprojective.h11((1,), (3,)))
        assert rep.valid
        assert rep.dim == 4 and rep.n == 2
        assert not rep.projective_moduli and not rep.projective_surface

    def test_rigid_case(self, nonprojective, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(-2))
        rep = moduli_report(nonprojective, v, nonprojective.h11((1,), (3,)))
        assert rep.valid and rep.rigid
        assert rep.dim == 0
        assert rep.n is None and rep.b2 is None
        assert rep.deformation_class is None
        assert any("rigid" in note for note in rep.interpretation_notes)

    def test_dim_parity(self):
        rng = random.Random(71)
        for _ in range(40):
            ns = random_hyperbolic_ns(rng, rng.randint(1, 2))
            ref = positive_reference(ns, rng)
            m = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
            v = MukaiVector(
                F(rng.randint(2, 4)),
                ns.vector(tuple(rng.randint(-3, 3) for _ in range(ns.rank))),
                F(rng.randint(-4, 4)),
            )
            rep = moduli_report(m, v, H11Class(ref, Lattice(()).zero()))
            if rep.valid:
                assert rep.dim is not None and rep.dim % 2 == 0 and rep.dim >= 0

    def test_projective_moduli_is_the_projectivity_verdict(self):
        # The report reads the verdict of projectivity_check wherever that
        # check is defined (integral v, integer rank >= 2, v^2 >= 0), else None.
        rng = random.Random(72)
        t11 = diagonal_lattice([2], "T")
        seen = set()
        for _ in range(60):
            if rng.random() < 0.5:
                ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
                omega = H11Class(positive_reference(ns, rng), Lattice(()).zero())
                m = K3Model(ns=ns, reference_positive=omega)
            else:
                ns = random_negative_definite_ns(rng, rng.randint(1, 2))
                omega = H11Class(ns.zero(), t11.vector((1,)))
                m = K3Model(ns=ns, t11=t11, reference_positive=omega)
            r = rng.choice((F(1), F(2), F(3), F(5, 2)))
            xi = ns.vector([F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(ns.rank)])
            v = MukaiVector(r, xi, F(rng.randint(-10, 2)))
            rep = moduli_report(m, v, omega)
            defined = v.is_integral and r.denominator == 1 and r >= 2 and mukai_square(v) >= 0
            want = projectivity_check(m, v).projective_moduli if defined else None
            assert rep.projective_moduli == want
            seen.add(want)
        assert seen == {True, False, None}

    def test_hypotheses_enumerated(self, nonprojective, zl):
        v = MukaiVector(F(1), zl.basis_vector(0).scale(2), F(-20))
        rep = moduli_report(nonprojective, v, nonprojective.h11((1,), (1,)))
        assert not rep.valid
        assert any("rank" in r for r in rep.reasons)
        assert any("polarization" in r for r in rep.reasons)

    def test_coprimality_checked(self, projective):
        ns = projective.ns
        v = MukaiVector(F(2), ns.vector((2, 0)), F(0))
        rep = moduli_report(projective, v, projective.h11((1, F(1, 4))))
        assert any("coprime" in r for r in rep.reasons)

    def test_square_below_minus_two(self, nonprojective, zl):
        v = MukaiVector(F(2), zl.basis_vector(0), F(0))  # v^2 = -10
        rep = moduli_report(nonprojective, v, nonprojective.h11((1,), (3,)))
        assert not rep.valid
        assert rep.dim is None
        assert any("-2" in r for r in rep.reasons)


# -- input checks: the error type and message ----------------------------------------

_NS = diagonal_lattice([2, -2], "NS")
_ZL = diagonal_lattice([-10], "ZL")
_MODEL = K3Model(ns=_NS, reference_positive=H11Class(_NS.basis_vector(0), Lattice(()).zero()))
_V_OVER_ZL = MukaiVector(F(2), _ZL.basis_vector(0), F(-3))
# Over <2> (+) <-2> (+) <-4>: the wall search on the model's NS would find walls
# at its bound 6, and the wall set on an indefinite NS would be undecided.
_V_OVER_RANK3 = MukaiVector(F(2), diagonal_lattice([2, -2, -4]).vector((1, 0, 1)), F(0))
_OTHER_NS = "Mukai vector must live over the model's NS lattice"


@pytest.mark.parametrize("call, error, message", [
    (lambda: standard_ns_embedding(diagonal_lattice([2, -2, -2, -2])),
     ValidationError, "standard embeddings cover rank <= 3 only"),
    (lambda: EmbeddedMukaiVector.from_algebraic(
        MukaiVector(F(1, 2), _ZL.basis_vector(0), F(0)), standard_ns_embedding(_ZL)),
     ValidationError, "only integral Mukai vectors embed in the integral lattice"),
    (lambda: EmbeddedMukaiVector.from_algebraic(_V_OVER_ZL, ((0,) * 21,)),
     ValidationError, "embedding must be 1x22, got 1x21"),
    (lambda: EmbeddedMukaiVector((0,) * 23), ValidationError, "embedded vector must have length 24"),
    (lambda: EmbeddedMukaiVector((0,) * 25), ValidationError, "embedded vector must have length 24"),
    (lambda: projectivity_check(_MODEL, _V_OVER_ZL), ValidationError, _OTHER_NS),
    (lambda: moduli_report(_MODEL, _V_OVER_ZL, _MODEL.h11((1, 0))), ValidationError, _OTHER_NS),
    (lambda: algebraic_h2(_MODEL, _V_OVER_ZL), ValidationError, _OTHER_NS),
    (lambda: walls_through_class(_MODEL, _V_OVER_RANK3, _MODEL.h11((1, 0))),
     ValidationError, _OTHER_NS),
    (lambda: wall_set_is_empty(_MODEL, _V_OVER_RANK3), ValidationError, _OTHER_NS),
    (lambda: walls_crossing_segment(
        _MODEL, _V_OVER_RANK3, Segment(_MODEL.h11((1, F(1, 3))), _MODEL.h11((1, F(-1, 3))))),
     ValidationError, _OTHER_NS),
    (lambda: transfer_multiplier(MukaiVector(F(0), _ZL.basis_vector(0), F(0))),
     HypothesisViolation, "transfer multiplier requires rank >= 1"),
    (lambda: irreducibility_oracle(0, -10, F(1)), HypothesisViolation, "rank must be >= 1"),
    (lambda: bundle_existence_check(0, 0, -4), HypothesisViolation, "rank must be >= 1"),
], ids=["standard-embedding-rank-4", "from-algebraic-non-integral", "from-algebraic-1x21",
        "length-23", "length-25", "projectivity-other-ns", "report-other-ns",
        "algebraic-h2-other-ns", "walls-through-other-ns", "wall-set-other-ns",
        "crossings-other-ns",
        "transfer-rank-0", "irreducibility-rank-0", "existence-rank-0"])
def test_input_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
