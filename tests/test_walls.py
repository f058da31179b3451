import random
from fractions import Fraction as F
from math import gcd, isqrt

import numpy as np
import pytest

from mukaikit import (
    H11Class,
    K3Model,
    Lattice,
    MukaiVector,
    Segment,
    TwistData,
    TwistedSheafData,
    Wall,
    delta_E,
    destabilizer_wall,
    diagonal_lattice,
    discriminant,
    is_generic,
    is_polarization,
    pairing,
    same_chamber,
    v_E,
    wall_bound,
    wall_set_is_empty,
    walls_crossing_segment,
    walls_through_class,
)
from mukaikit.errors import HypothesisViolation, InternalError, ValidationError
from mukaikit.walls import _walls_through

from conftest import (
    box_vectors,
    oracle_crossings,
    oracle_wall_set,
    oracle_walls_through,
    positive_reference,
    random_hyperbolic_ns,
    random_integral_vector,
    random_negative_definite_ns,
    short_vectors,
)
from fraction_oracle import coordinate_radii


# -- Short-vector enumeration ---------------------------------------------------


class TestShortVectors:
    def test_one_dimensional(self):
        assert short_vectors(((2,),), 8) == [(-2,), (-1,), (1,), (2,)]

    def test_matches_box_scan(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 3)
            # Random positive definite Gram: A^T A + I on small integer A.
            a = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            q = a.T @ a + np.eye(n, dtype=np.int64) * rng.randint(1, 3)
            bound = rng.randint(1, 30)
            got = set(short_vectors(tuple(tuple(int(x) for x in row) for row in q), bound))
            pts = box_vectors(n, 12)
            sq = np.einsum("ij,jk,ik->i", pts, q.astype(np.int64), pts)
            expected = {tuple(int(c) for c in row) for row in pts[(sq <= bound)]}
            expected.discard((0,) * n)
            assert got == expected

    def test_coordinate_radii_cover(self):
        q = ((2, 1), (1, 4))
        radii = coordinate_radii(q, 20)
        for vec in short_vectors(q, 20):
            for c, r2 in zip(vec, radii):
                assert F(c) ** 2 <= r2


# -- Wall bound and membership ---------------------------------------------------


@pytest.fixture
def rank2_model():
    ns = diagonal_lattice([2, -2], "NS")
    return K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))


class TestBoundAndMembership:
    def test_worked_bounds(self, rank2_model):
        ns = diagonal_lattice([-10], "ZL")
        L = ns.basis_vector(0)
        assert wall_bound(MukaiVector(F(2), L, F(-2))) == 6
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        assert wall_bound(MukaiVector(F(2), h + f, F(0))) == 8
        ns2 = diagonal_lattice([2])
        assert wall_bound(MukaiVector(F(2), ns2.basis_vector(0), F(0))) == 10

    def test_negative_delta_empty(self):
        ns = diagonal_lattice([-10], "ZL")
        v = MukaiVector(F(2), ns.basis_vector(0), F(2))  # Delta = -30/8+1 < 0
        assert wall_bound(v) < 0

    @pytest.mark.parametrize("coords, d_square, bound, message", [
        ((0, 1), -1, 5, r"^wall square -1 is not D\^2=-2 for D=\(0, 1\)$"),
        ((0, 2), -8, 10, r"^wall class \(0, 2\) must be integral and primitive$"),
        ((0, F(1, 2)), F(-1, 2), 10, r"^wall class \(0, 1/2\) must be integral and primitive$"),
    ])
    def test_wall_checks_its_class(self, rank2_model, coords, d_square, bound, message):
        with pytest.raises(ValidationError, match=message):
            Wall(rank2_model.ns.vector(coords), F(d_square), F(bound))

    def test_profile_requires_positive_rank(self):
        ns = diagonal_lattice([-10], "ZL")
        with pytest.raises(HypothesisViolation):
            wall_bound(MukaiVector(F(0), ns.basis_vector(0), F(1)))
        # A twisted class enters as v_E, never as its raw data.
        data = TwistedSheafData(2, ns.basis_vector(0), F(1))
        with pytest.raises(ValidationError, match="^wall sets are defined for Mukai vectors"):
            wall_bound(data)


class TestDestabilizer:
    def test_in_range(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h, F(0))
        got = destabilizer_wall(v, 1, f)
        assert got.kind == "wall"
        assert got.d_square == -6 and got.bound == 10
        assert got.wall.d.coords == (1, -2)

    def test_zero(self, rank2_model):
        h = rank2_model.ns.basis_vector(0)
        v = MukaiVector(F(2), h.scale(2), F(0))
        got = destabilizer_wall(v, 1, h)
        assert got.kind == "zero"

    def test_out_of_range(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h, F(0))
        got = destabilizer_wall(v, 1, f.scale(3))
        assert got.kind == "out_of_range" and got.d_square == -70
        assert got.reason == "square -70 below the wall bound -10"
        # D = 2 zeta has positive square, which no wall class has.
        got = destabilizer_wall(MukaiVector(F(2), rank2_model.ns.zero(), F(0)), 1, h)
        assert (got.kind, got.d.coords, got.d_square, got.wall) == ("out_of_range", (2, 0), 8, None)
        assert got.reason == ("nonnegative square is impossible for a class orthogonal"
                              " to a polarization")

    def test_non_integral_class_is_made_primitive(self, rank2_model):
        """The wall of a non-integral D is the primitive class on its line, which can
        fall below the bound even when D does not: then the wall check raises."""
        ns = rank2_model.ns
        v = MukaiVector(F(2), ns.basis_vector(0), F(0))  # bound 10
        # D = 2 (0, 3/4) - (1, 0) = (-1, 3/2), D^2 = -5/2; its wall is (2, -3), square -10.
        got = destabilizer_wall(v, 1, ns.vector((0, F(3, 4))))
        assert (got.kind, got.d_square) == ("wall", F(-5, 2))
        assert got.wall == Wall(ns.vector((2, -3)), F(-10), F(10))
        # D = (-1/2, 3/2) has D^2 = -4, but (1, -3) has square -16 < -10.
        with pytest.raises(ValidationError, match="^wall square out of range$"):
            destabilizer_wall(v, 1, ns.vector((F(1, 4), F(3, 4))))

    def test_wall_is_a_searched_wall(self, rank2_model):
        """The wall of a destabilizer is returned by the search through a
        polarization on its hyperplane: the reference projected onto D-perp."""
        # D = 2 (1, 1) - (1, 0) = (1, 2), D^2 = -6, D . (2, 1) = 4 - 4 = 0.
        v = MukaiVector(F(2), rank2_model.ns.vector((1, 0)), F(0))
        wall = destabilizer_wall(v, 1, rank2_model.ns.vector((1, 1))).wall
        assert wall.d.coords == (1, 2)
        assert wall in walls_through_class(rank2_model, v, rank2_model.h11((2, 1)))
        rng = random.Random(24)
        checked = 0
        for _ in range(500):
            ns = random_hyperbolic_ns(rng, rng.choice((2, 3)))
            ref = positive_reference(ns, rng)
            m = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
            r, xi = rng.randint(2, 5), random_integral_vector(rng, ns)
            v = MukaiVector(F(r), xi, F(rng.randint(-6, 6)))
            s = rng.randint(1, r - 1)
            # zeta near s xi / r, so that D = r zeta - s xi is short.
            zeta = ns.vector(tuple(s * c // r + rng.randint(-1, 1) for c in xi.num))
            got = destabilizer_wall(v, s, zeta)
            if got.kind != "wall":
                continue
            d = got.wall.d
            ns_part = ref - d.scale(pairing(ref, d) / got.wall.d_square)
            omega = H11Class(ns_part, Lattice(()).zero())
            assert got.wall in walls_through_class(m, v, omega)
            checked += 1
        assert checked >= 80

    @pytest.mark.parametrize("s", [0, 2])
    def test_subsheaf_rank_must_lie_strictly_between_0_and_r(self, rank2_model, s):
        v = MukaiVector(F(2), rank2_model.ns.basis_vector(0), F(0))
        with pytest.raises(HypothesisViolation,
                           match=f"^subsheaf rank {s} must lie strictly between 0 and 2$"):
            destabilizer_wall(v, s, rank2_model.ns.zero())

    @pytest.mark.parametrize("s, message", [
        (1.5, "^1.5 is not an int, a Fraction or a 'p/q' string$"),
        (F(3, 2), "^3/2 is not an integer$"),
        (0.1, "^0.1 is not an int, a Fraction or a 'p/q' string$"),
    ])
    def test_subsheaf_rank_must_be_an_integer(self, rank2_model, s, message):
        """A subsheaf rank is an integer: 3/2, as a float or a Fraction, gives no wall
        D = (-3/2, 3), and 0.1 is refused for its type, not for its square."""
        v = MukaiVector(F(3), rank2_model.ns.vector((1, 0)), F(-1))
        with pytest.raises(ValidationError, match=message):
            destabilizer_wall(v, s, rank2_model.ns.vector((0, 1)))
        assert destabilizer_wall(v, np.int64(1), rank2_model.ns.vector((0, 1))) \
            == destabilizer_wall(v, 1, rank2_model.ns.vector((0, 1)))


class TestWallsThroughClass:
    def test_generic_class_sees_no_walls(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        omega = rank2_model.h11((1, F(1, 4)))
        assert walls_through_class(rank2_model, v, omega) == []
        assert is_generic(rank2_model, v, omega)

    def test_wall_through_h(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        omega = rank2_model.h11((1, 0))
        found = walls_through_class(rank2_model, v, omega)
        assert [w.d.coords for w in found] == [(0, 1)]
        assert not is_generic(rank2_model, v, omega)

    def test_empty_wall_set_always_generic(self):
        ns = diagonal_lattice([-10], "ZL")
        t11 = diagonal_lattice([2], "T")
        m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
        v = MukaiVector(F(2), ns.basis_vector(0), F(-2))
        omega = m.h11((1,), (3,))
        assert walls_through_class(m, v, omega) == []
        # Three ways to an empty wall set: no class in the ball of a negative
        # definite NS, a negative bound (v^2 = -18 < -2r^2), and NS of rank 0.
        ns0 = Lattice(())
        m0 = K3Model(ns=ns0, t11=t11, reference_positive=H11Class(ns0.zero(), t11.vector((1,))))
        negative = MukaiVector(F(2), ns.basis_vector(0), F(2))
        assert wall_bound(negative) < 0
        for model, vec, pol in [(m, v, omega), (m, negative, omega),
                                (m0, MukaiVector(F(2), ns0.zero(), F(-1)), m0.h11((), (1,)))]:
            assert wall_set_is_empty(model, vec) is True
            assert walls_through_class(model, vec, pol) == []

    def test_requires_polarization(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        with pytest.raises(HypothesisViolation,
                           match=r"polarizations only \(omega\^2=-2 <= 0\)$"):
            walls_through_class(rank2_model, v, rank2_model.h11((0, 1)))

    def test_multiples_collapsed(self, rank2_model):
        # Bound large enough to include f and 2f; only the primitive survives.
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(4), h, F(-6))
        omega = rank2_model.h11((1, 0))
        found = walls_through_class(rank2_model, v, omega)
        assert [w.d.coords for w in found] == [(0, 1)]


def _box_for(q, bound) -> int:
    """The least box that holds every x with x^T q x <= bound, for a positive definite q."""
    return max(isqrt(max(0, r2.numerator // r2.denominator)) for r2 in coordinate_radii(q, bound))


class TestWallCore:
    """The one through-search ``_walls_through(ns, bound, x)`` against box oracles."""

    def test_zero_class_on_negative_definite_ns_gives_the_whole_wall_set(self):
        """With x = 0 on a negative definite NS the core lists every wall of v, in
        (-D^2, D) order, and ``wall_set_is_empty`` is its emptiness."""
        rng = random.Random(38)
        t11 = diagonal_lattice([2], "T")
        sizes = []
        for _ in range(150):
            ns = random_negative_definite_ns(rng, rng.randint(1, 3))
            m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
            xi = random_integral_vector(rng, ns, span=2)
            v = MukaiVector(rng.randint(1, 4), xi, rng.randint(-6, 2))
            bound = wall_bound(v)
            got = _walls_through(ns, bound, ns.zero())
            neg = tuple(tuple(-c for c in row) for row in ns.gram)
            want = oracle_wall_set(m, v, box=_box_for(neg, bound))
            squares = {d: sum(a * g * b for a, row in zip(d, ns.gram) for g, b in zip(row, d))
                       for d in want}
            assert [(w.d.num, w.d_square) for w in got] \
                == sorted(squares.items(), key=lambda kv: (-kv[1], kv[0]))
            assert all(w == Wall(w.d, w.d_square, bound) for w in got)
            assert wall_set_is_empty(m, v) is (not want)
            sizes.append(len(want))
        assert sizes.count(0) >= 60 and sum(n >= 5 for n in sizes) >= 20

    def test_polarization_on_hyperbolic_ns_at_bound_2_gives_its_roots(self):
        """At bound 2 on an even NS, the core through the NS part x of a polarization
        lists the D with D^2 = -2 and D.x = 0, the roots on x-perp."""
        rng = random.Random(8)
        counts = []
        for _ in range(120):
            ns = random_hyperbolic_ns(rng, rng.choice((2, 3)))
            ref = positive_reference(ns, rng)
            m = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
            x = ref
            d = random_integral_vector(rng, ns, span=2)
            if d.square() == -2:  # x on d-perp, on ref's side: x^2 = ref^2 + (ref.d)^2 / 2
                x = ref + d.scale(pairing(ref, d) / 2)
            assert is_polarization(m, H11Class(x, Lattice(()).zero()))
            got = _walls_through(ns, F(2), x)
            # Every root D on x-perp has majorant 2 (D.x)^2 / x^2 - D^2 = 2.
            gx = [sum(g * c for g, c in zip(row, x.num)) for row in ns.gram]  # G x, times den
            majorant = [[2 * a * b / (x.den ** 2 * x.square()) - g for b, g in zip(gx, row)]
                        for a, row in zip(gx, ns.gram)]
            pts = box_vectors(ns.rank, _box_for(majorant, 2))
            sq = np.einsum("ij,jk,ik->i", pts, np.array(ns.gram), pts)
            pts = pts[(sq == -2) & (pts @ np.array(gx) == 0)]
            want = sorted({y for y in map(tuple, pts.tolist())
                           if gcd(*y) == 1 and y > (0,) * ns.rank})
            assert [w.d.num for w in got] == want
            assert all(w.d_square == -2 and w.bound == 2 for w in got)
            counts.append(len(want))
        assert counts.count(0) >= 60 and sum(n >= 1 for n in counts) >= 30 and max(counts) >= 2


class TestCrossings:
    def test_symmetric_crossing(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        seg = Segment(rank2_model.h11((1, F(1, 4))), rank2_model.h11((1, F(-1, 4))))
        got = walls_crossing_segment(rank2_model, v, seg)
        assert len(got) == 1
        assert got[0].wall.d.coords == (0, 1)
        assert got[0].t == F(1, 2)
        # The wall is orthogonal to the segment point at its parameter.
        s, e, t = seg.start, seg.end, got[0].t
        mid = H11Class(s.ns_part.scale(1 - t) + e.ns_part.scale(t),
                       s.t_part.scale(1 - t) + e.t_part.scale(t))
        assert pairing(got[0].wall.d, mid.ns_part) == 0

    def test_same_side_no_crossing(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        seg = Segment(rank2_model.h11((1, F(1, 4))), rank2_model.h11((1, F(1, 8))))
        assert walls_crossing_segment(rank2_model, v, seg) == []
        assert same_chamber(rank2_model, v, seg.start, seg.end)

    def test_empty_wall_set(self):
        ns = diagonal_lattice([-10], "ZL")
        t11 = diagonal_lattice([2], "T")
        m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
        v = MukaiVector(F(2), ns.basis_vector(0), F(-2))
        seg = Segment(m.h11((1,), (3,)), m.h11((-1,), (3,)))
        assert walls_crossing_segment(m, v, seg) == []

    def test_crossing_on_nonprojective_surface(self):
        # W_v = {L} here (bound 10, L^2 = -10); the segment passes through
        # the transcendental direction where L . omega_t flips sign.
        ns = diagonal_lattice([-10], "ZL")
        t11 = diagonal_lattice([2], "T")
        m = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ns.zero(), t11.vector((1,))))
        v = MukaiVector(F(2), ns.basis_vector(0), F(-3))
        seg = Segment(m.h11((1,), (3,)), m.h11((-1,), (3,)))
        got = walls_crossing_segment(m, v, seg)
        assert len(got) == 1
        assert got[0].wall.d.coords == (1,)
        assert got[0].t == F(1, 2)
        s, e, t = seg.start, seg.end, F(1, 2)
        mid = H11Class(s.ns_part.scale(1 - t) + e.ns_part.scale(t),
                       s.t_part.scale(1 - t) + e.t_part.scale(t))
        assert mid.ns_part.is_zero and m.square(mid) == 18

    def test_endpoint_on_wall_rejected(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        seg = Segment(rank2_model.h11((1, 0)), rank2_model.h11((1, F(1, 4))))
        with pytest.raises(HypothesisViolation):
            walls_crossing_segment(rank2_model, v, seg)

    @pytest.mark.parametrize("start, end, message", [
        ((0, 1), (1, 0), "segment start point is not a polarization (omega^2=-2 <= 0)"),
        ((1, 0), (-1, F(1, 2)),
         "segment end point is not a polarization (omega'.reference=-2 <= 0)"),
    ])
    def test_endpoint_errors_name_the_failed_condition(self, rank2_model, start, end, message):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        seg = Segment(rank2_model.h11(start), rank2_model.h11(end))
        with pytest.raises(HypothesisViolation) as exc:
            walls_crossing_segment(rank2_model, v, seg)
        assert str(exc.value) == message

    def test_cone_component_message_states_the_pairing(self, rank2_model, monkeypatch):
        # Polarizations all pair positively with the reference, so they share a
        # cone component; the check is reached only past a stubbed polarization
        # test, and firing it is an internal error.
        monkeypatch.setattr("mukaikit.walls.polarization_defect", lambda m, omega, name: None)
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        seg = Segment(rank2_model.h11((1, F(1, 4))), rank2_model.h11((-1, F(1, 4))))
        with pytest.raises(InternalError, match=r"omega\.omega'=-17/8"):
            walls_crossing_segment(rank2_model, v, seg)

    def test_chamber_relation_reflexive_symmetric(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        a = rank2_model.h11((1, F(1, 4)))
        b = rank2_model.h11((1, F(1, 8)))
        assert same_chamber(rank2_model, v, a, a)
        assert same_chamber(rank2_model, v, a, b) == same_chamber(rank2_model, v, b, a)

    def test_chamber_relation_transitive_on_triples(self, rank2_model):
        h, f = rank2_model.ns.basis_vector(0), rank2_model.ns.basis_vector(1)
        v = MukaiVector(F(2), h + f, F(0))
        rng = random.Random(17)
        checked = 0
        while checked < 10:
            classes = []
            for _ in range(3):
                omega = rank2_model.h11(
                    (1 + F(rng.randint(-1, 1), 9), F(rng.randint(-3, 3), 16))
                )
                if rank2_model.square(omega) > 0 and is_generic(rank2_model, v, omega):
                    classes.append(omega)
            if len(classes) < 3:
                continue
            a, b, c = classes
            if same_chamber(rank2_model, v, a, b) and same_chamber(rank2_model, v, b, c):
                assert same_chamber(rank2_model, v, a, c)
                checked += 1


class TestTwistedWalls:
    def test_profile_from_twisted_data(self):
        # v_E has rank r and discriminant delta_E, so its bound is r^4 delta_E / 2.
        ns = diagonal_lattice([2, -2], "NS")
        f = TwistedSheafData(2, ns.vector((1, 1)), F(1))
        e = TwistData(2, F(0))
        v = v_E(f, e)
        assert v.v0 == f.r and discriminant(v) == delta_E(f, e)
        assert wall_bound(v) == F(16) * delta_E(f, e) / 2

    def test_twisted_profile_drives_enumeration(self, rank2_model):
        # Same machinery as the untwisted case: the walls of v_E under the
        # trivial twist are those of the untwisted v.
        ns = rank2_model.ns
        h, f = ns.basis_vector(0), ns.basis_vector(1)
        data = TwistedSheafData(2, h + f, F(-2))
        twisted = v_E(data, TwistData(1, F(0)))
        v = MukaiVector(F(2), h + f, F(0))  # v(F) for ch2 = -2
        assert delta_E(data, TwistData(1, F(0))) == discriminant(v) == F(1)
        omega = rank2_model.h11((1, 0))
        via_twisted = walls_through_class(rank2_model, twisted, omega)
        via_vector = walls_through_class(rank2_model, v, omega)
        assert via_twisted == via_vector
        assert [w.d.coords for w in via_twisted] == [(0, 1)]


class TestDenseRank3:
    def test_many_crossings_match_box_oracle(self):
        # A rank-3 instance with bound 54: thousands of wall classes in the
        # box and dozens of genuine crossings along one segment.
        ns = Lattice(((2, 1, 0), (1, -4, 1), (0, 1, -6)), "NS")
        ref = next(
            ns.vector((a, b, c))
            for a in range(1, 4) for b in range(-3, 4) for c in range(-3, 4)
            if ns.vector((a, b, c)).square() > 0
        )
        model = K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero()))
        v = MukaiVector(F(3), ns.vector((1, 1, 0)), F(-1))
        assert wall_bound(v) == 54

        rng = random.Random(5)
        checked = 0
        while checked < 2:
            jitter = lambda: ns.vector(
                tuple(F(rng.randint(-3, 3), rng.choice([7, 9, 11])) for _ in range(3))
            )
            a = H11Class(ref + jitter(), Lattice(()).zero())
            b = H11Class(ref + jitter(), Lattice(()).zero())
            if not (is_polarization(model, a) and is_polarization(model, b)):
                continue
            if walls_through_class(model, v, a) or walls_through_class(model, v, b):
                continue
            got = {c.wall.d.coords: c.t
                   for c in walls_crossing_segment(model, v, Segment(a, b))}
            want = {tuple(F(x) for x in coords): t
                    for coords, t in oracle_crossings(model, v, a, b, box=80).items()}
            assert got == want
            assert len(got) >= 10
            checked += 1


class TestOracleParity:
    """Small-scale parity runs; the full randomized sweep is in acceptance."""

    def test_rank2_parity(self):
        rng = random.Random(21)
        checked = 0
        while checked < 12:
            ns = random_hyperbolic_ns(rng, 2)
            model = K3Model(
                ns=ns,
                reference_positive=H11Class(positive_reference(ns, rng), Lattice(()).zero()),
            )
            r = rng.randint(2, 3)
            xi = ns.vector((rng.randint(-2, 2), rng.randint(-2, 2)))
            a = rng.randint(-3, 3)
            v = MukaiVector(F(r), xi, F(a))
            bound = wall_bound(v)
            if bound < 0 or bound > 60:
                continue
            ref = model.reference_positive
            omega = H11Class(
                ref.ns_part + ns.vector((F(rng.randint(-2, 2), 7), F(rng.randint(-2, 2), 7))),
                Lattice(()).zero(),
            )
            if model.square(omega) <= 0 or model.pair(omega, ref) <= 0:
                continue
            got = {w.d.coords for w in walls_through_class(model, v, omega)}
            want = {tuple(F(c) for c in coords)
                    for coords in oracle_walls_through(model, v, omega, box=50)}
            assert got == want
            checked += 1
