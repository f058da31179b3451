"""Acceptance suite: one test per criterion, exact tolerances, no floats.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion. Every assertion is an exact equality of rationals or integers;
randomized sweeps are seeded and deterministic.
"""

from __future__ import annotations

import io
import json
import random
import time
from fractions import Fraction as F

from mukaikit import (
    EmbeddedMukaiVector,
    H11Class,
    K3Model,
    Lattice,
    MukaiVector,
    Segment,
    TwistData,
    TwistedSheafData,
    bundle_existence_check,
    diagonal_lattice,
    discriminant,
    exp_class,
    h2_lattice,
    is_generic,
    is_projective_surface,
    mukai_pairing,
    mukai_product,
    mukai_square,
    pairing,
    projectivity_check,
    same_chamber,
    topological_type,
    transfer_image_of_v,
    transfer_isometry,
    transfer_multiplier,
    v_E,
    w_xi,
    wall_bound,
    walls_crossing_segment,
    walls_through_class,
)
from mukaikit.cli import run as cli_run
from mukaikit.mukai import discriminant_from_chern
from mukaikit.twisted import endo_ch2, twisted_subobject_wall

from conftest import (
    oracle_crossings,
    oracle_walls_through,
    positive_reference,
    random_hyperbolic_ns,
    random_integral_vector,
    random_negative_definite_ns,
)
from fraction_oracle import coordinate_radii, segment_bound

EMPTY = Lattice(())


def _pass(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {label}")


def test_criterion_01_exp_twist_isometry():
    rng = random.Random(101)
    start = time.monotonic()
    lattices = [random_hyperbolic_ns(rng, k) for k in (1, 2, 3, 2, 3)]
    for i in range(1000):
        ns = lattices[i % len(lattices)]
        delta = random_integral_vector(rng, ns)
        e = exp_class(delta)
        x = MukaiVector(F(rng.randint(-4, 4)), random_integral_vector(rng, ns),
                        F(rng.randint(-6, 6)))
        y = MukaiVector(F(rng.randint(-4, 4)), random_integral_vector(rng, ns),
                        F(rng.randint(-6, 6)))
        assert mukai_pairing(mukai_product(e, x), mukai_product(e, y)) == mukai_pairing(x, y)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"exp-twist sweep took {elapsed:.2f}s"
    _pass(1, f"exp-twist isometry, 1000 cases in {elapsed:.2f}s")


def test_criterion_02_discriminant_coherence():
    rng = random.Random(202)
    for _ in range(1000):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        v = MukaiVector(F(rng.randint(1, 5)), random_integral_vector(rng, ns),
                        F(rng.randint(-8, 8)))
        assert discriminant(v) == discriminant_from_chern(topological_type(v))
    _pass(2, "discriminant coherence, 1000 cases")


def test_criterion_03_twisted_discriminant_two_routes():
    rng = random.Random(303)
    for _ in range(1000):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        f = TwistedSheafData(
            rng.randint(1, 5),
            random_integral_vector(rng, ns),
            F(rng.randint(-9, 9), rng.randint(1, 3)),
        )
        e = TwistData(rng.randint(1, 5), F(rng.randint(-9, 9), rng.randint(1, 3)))
        r2 = 2 * F(f.r) ** 2
        via_square = mukai_square(v_E(f, e)) / r2 + 1
        via_endomorphisms = (-endo_ch2(f, e) - r2) / r2 + 1
        assert via_square == via_endomorphisms
    _pass(3, "twisted discriminant two-route agreement, 1000 cases")


def test_criterion_04_twisted_wall_identity():
    # Worked instance: NS = ZL with L^2 = -10, untwisted, F:(2,0), sub:(1,L).
    zl = diagonal_lattice([-10], "ZL")
    L = zl.basis_vector(0)
    res = twisted_subobject_wall(
        TwistedSheafData(2, zl.zero(), F(0)),
        TwistedSheafData(1, L, F(1)),
        TwistData(1, F(0)),
    )
    assert res.d == L.scale(2) and res.d_square == -40 and res.k == 20
    assert res.d_square == -2 * 1 * 1 * res.k

    rng = random.Random(404)
    for _ in range(500):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        r = rng.randint(2, 5)
        rp = rng.randint(1, r - 1)
        rpp = r - rp
        f = TwistedSheafData(r, random_integral_vector(rng, ns),
                             F(rng.randint(-8, 8), rng.randint(1, 2)))
        sub = TwistedSheafData(rp, random_integral_vector(rng, ns),
                               F(rng.randint(-8, 8), rng.randint(1, 2)))
        e = TwistData(rng.randint(1, 4), F(rng.randint(-6, 6)))
        quot = TwistedSheafData(rpp, f.xi - sub.xi, f.a - sub.a)
        # Both sides recomputed here, independently of the library check.
        d = sub.xi.scale(F(r, e.s)) - f.xi.scale(F(rp, e.s))
        k = (mukai_square(v_E(f, e)) / r
             - mukai_square(v_E(sub, e)) / rp
             - mukai_square(v_E(quot, e)) / rpp)
        assert d.square() == -r * rp * rpp * k
        got = twisted_subobject_wall(f, sub, e)
        assert got.d == d and got.k == k
    _pass(4, "twisted wall identity, 500 splittings plus worked instance")


# -- Criterion 5: oracle parity for the wall enumeration -----------------------


def _jitter_polarization(model: K3Model, rng: random.Random, ref):
    for _ in range(50):
        jitter = model.ns.vector(
            tuple(F(rng.randint(-3, 3), rng.choice([4, 5, 7])) for _ in range(model.ns.rank))
        )
        omega = H11Class(ref + jitter, EMPTY.zero())
        if model.square(omega) > 0 and model.pair(omega, model.reference_positive) > 0:
            return omega
    return None


def _small_wall_instance(rng: random.Random, rank: int):
    """Model, Mukai vector and two polarizations whose wall balls certifiably
    fit inside the [-50, 50] coordinate box."""
    while True:
        ns = random_hyperbolic_ns(rng, rank)
        ref = positive_reference(ns, rng)
        if ref.square() > 40:
            continue
        model = K3Model(ns=ns, reference_positive=H11Class(ref, EMPTY.zero()))
        r = rng.choice([2, 2, 3])
        xi = random_integral_vector(rng, ns, span=2)
        a = rng.randint(-4, 4)
        v = MukaiVector(F(r), xi, F(a))
        bound = wall_bound(v)
        if not 0 <= bound <= 40:
            continue
        omega = _jitter_polarization(model, rng, ref)
        omega_prime = _jitter_polarization(model, rng, ref)
        if omega is None or omega_prime is None:
            continue
        if omega.ns_part == omega_prime.ns_part:
            continue
        mbound = segment_bound(model, omega, omega_prime, bound)
        if mbound < 0:
            continue
        w = [sum(model.ns.gram[i][j] * omega.ns_part.coords[j] for j in range(rank))
             for i in range(rank)]
        a2 = model.square(omega)
        majorant = tuple(
            tuple(2 * w[i] * w[j] / a2 - model.ns.gram[i][j] for j in range(rank))
            for i in range(rank)
        )
        if any(r2 >= 2401 for r2 in coordinate_radii(majorant, mbound)):
            continue
        return model, v, omega, omega_prime


def _onwall_polarization(model: K3Model, v, omega):
    """A polarization orthogonal to some wall class of v, if one exists and
    its enumeration ball certifiably fits the oracle box."""
    bound = wall_bound(v)
    for coords in sorted(oracle_wall_set_cached(model, v)):
        d = model.ns.vector(coords)
        shift = pairing(d, omega.ns_part) / d.square()
        ns_part = omega.ns_part - d.scale(shift)
        onwall = H11Class(ns_part, EMPTY.zero())
        if model.square(onwall) <= 0:
            continue
        if model.pair(onwall, model.reference_positive) <= 0:
            continue
        rank = model.ns.rank
        w = [sum(model.ns.gram[i][j] * ns_part.coords[j] for j in range(rank))
             for i in range(rank)]
        a2 = model.square(onwall)
        majorant = tuple(
            tuple(2 * w[i] * w[j] / a2 - model.ns.gram[i][j] for j in range(rank))
            for i in range(rank)
        )
        if any(r2 >= 2401 for r2 in coordinate_radii(majorant, bound)):
            continue
        return onwall
    return None


_WALL_SET_CACHE: dict = {}


def oracle_wall_set_cached(model: K3Model, v):
    from conftest import oracle_wall_set

    key = (model.ns.gram, v.v0, v.v1.coords, v.v2)
    if key not in _WALL_SET_CACHE:
        _WALL_SET_CACHE[key] = oracle_wall_set(model, v)
    return _WALL_SET_CACHE[key]


def test_criterion_05_wall_enumeration_oracle():
    rng = random.Random(505)
    start = time.monotonic()
    walls_seen = 0
    crossings_seen = 0
    onwall_checked = 0
    for rank, count in ((2, 50), (3, 20)):
        for _ in range(count):
            model, v, omega, omega_prime = _small_wall_instance(rng, rank)

            got = {w.d.coords for w in walls_through_class(model, v, omega)}
            want = {tuple(F(c) for c in x)
                    for x in oracle_walls_through(model, v, omega)}
            assert got == want
            got_p = {w.d.coords for w in walls_through_class(model, v, omega_prime)}
            want_p = {tuple(F(c) for c in x)
                      for x in oracle_walls_through(model, v, omega_prime)}
            assert got_p == want_p
            walls_seen += len(got) + len(got_p)

            if not got and not got_p:
                seg = Segment(omega, omega_prime)
                crossings = walls_crossing_segment(model, v, seg)
                oracle = {tuple(F(c) for c in x): t
                          for x, t in oracle_crossings(model, v, omega, omega_prime).items()}
                assert {c.wall.d.coords: c.t for c in crossings} == oracle
                assert [c.t for c in crossings] == sorted(c.t for c in crossings)
                crossings_seen += len(crossings)

            # Force the nonempty side: project the polarization onto a wall
            # hyperplane and demand exact parity there as well.
            onwall = _onwall_polarization(model, v, omega)
            if onwall is not None:
                got_w = {w.d.coords for w in walls_through_class(model, v, onwall)}
                want_w = {tuple(F(c) for c in x)
                          for x in oracle_walls_through(model, v, onwall)}
                assert got_w == want_w
                assert got_w, "projected polarization must lie on its wall"
                walls_seen += len(got_w)
                onwall_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.2f}s"
    assert crossings_seen > 0, "sweep never exercised a nonempty crossing set"
    assert onwall_checked >= 10, "sweep never exercised nonempty wall fibres"
    _pass(5, f"wall enumeration matches box oracle on 70 models in {elapsed:.1f}s "
             f"({crossings_seen} crossings, {walls_seen} through-walls, "
             f"{onwall_checked} on-wall classes)")


def test_criterion_06_twisted_isotropy_square_identity():
    zl = diagonal_lattice([-10], "ZL")
    L = zl.basis_vector(0)
    v = MukaiVector(F(2), L, F(-3))
    twisted = mukai_product(exp_class(L.scale(F(1, 2))),
                            MukaiVector(F(8), zl.zero(), mukai_square(v)))
    assert mukai_square(twisted) == -32

    rng = random.Random(606)
    for _ in range(500):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        r = rng.randint(2, 6)
        xi = random_integral_vector(rng, ns)
        c = F(rng.randint(-12, 12))
        e = exp_class(xi.scale(F(1, r)))
        vec = MukaiVector(F(2 * r * r), ns.zero(), c)
        assert mukai_square(mukai_product(e, vec)) == -4 * r * r * c
    _pass(6, "exp-twisted isotropy square identity, 500 cases plus worked -32")


def _random_projectivity_model(rng: random.Random, projective: bool):
    if projective:
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        ref = positive_reference(ns, rng)
        return K3Model(ns=ns, reference_positive=H11Class(ref, EMPTY.zero()))
    ns = random_negative_definite_ns(rng, rng.randint(1, 3))
    t11 = diagonal_lattice([2 * rng.randint(1, 3)], "T")
    return K3Model(ns=ns, t11=t11,
                   reference_positive=H11Class(ns.zero(), t11.vector((1,))))


def test_criterion_07_projectivity_equivalence():
    # The worked non-projective witness: NS = <-10>, v = (2, L, -3).
    zl = diagonal_lattice([-10], "ZL")
    t11 = diagonal_lattice([2], "T")
    m = K3Model(ns=zl, t11=t11, reference_positive=H11Class(zl.zero(), t11.vector((1,))))
    chk = projectivity_check(m, MukaiVector(F(2), zl.basis_vector(0), F(-3)))
    assert chk.signature == (0, 0, 2)
    assert chk.projective_moduli is False and chk.surface_projective is False

    rng = random.Random(707)
    disagreements = 0
    for i in range(50):
        model = _random_projectivity_model(rng, projective=(i % 2 == 0))
        for _ in range(200):
            r = rng.randint(2, 4)
            xi = random_integral_vector(rng, model.ns)
            bound_a = xi.square() / (2 * r)
            a = bound_a.__floor__() - rng.randint(0, 3)
            v = MukaiVector(F(r), xi, F(a))
            if mukai_square(v) >= 0:
                break
        else:
            raise AssertionError("could not build v with nonnegative square")
        chk = projectivity_check(model, v)
        if chk.projective_moduli != is_projective_surface(model):
            disagreements += 1
    assert disagreements == 0
    _pass(7, "projectivity criterion equals surface projectivity on 50 models")


def test_criterion_08_h2_lattices():
    rng = random.Random(808)
    done = 0
    while done < 10:
        coords = [0] * 24
        for block in range(4):
            coords[2 * block] = rng.randint(-3, 3)
            coords[2 * block + 1] = rng.randint(-3, 3)
        for _ in range(rng.randint(0, 2)):
            coords[rng.randint(8, 23)] = rng.choice([-1, 1])
        ev = EmbeddedMukaiVector(tuple(coords))
        if not ev.is_primitive or ev.square() <= 0:
            continue
        res = h2_lattice(ev)
        assert res.lattice.rank == 23
        assert res.signature == (3, 0, 20)
        order = 1
        for d in res.discriminant:
            order *= d
        assert order == ev.square()
        done += 1

    e8_root = [0] * 24
    e8_root[8] = 1  # square -2 in the E8 block
    isotropics = [
        EmbeddedMukaiVector((1, 0) + (0,) * 22),
        EmbeddedMukaiVector((1, 0, 1, 0) + (0,) * 20),
        EmbeddedMukaiVector(tuple([1, 1] + e8_root[2:])),
    ]
    for ev in isotropics:
        assert ev.square() == 0 and ev.is_primitive
        res = h2_lattice(ev)
        assert res.quotient_by_v
        assert res.lattice.rank == 22
        assert res.signature == (3, 0, 19)
        assert res.discriminant == ()
        assert all(res.lattice.gram[i][i] % 2 == 0 for i in range(22))
    _pass(8, "v-perp lattices: 10 positive, 3 isotropic, exact signatures")


def test_criterion_09_self_twist_roundtrip():
    zl = diagonal_lattice([-10], "ZL")
    L = zl.basis_vector(0)
    # Worked vectors: w = (2,0,-1/2) belongs to v = (2,L,-3) and
    # w = (2,0,1/2) to v = (2,L,-2); each returns to its v.
    assert w_xi(MukaiVector(F(2), zl.zero(), F(-1, 2)), L, 2) == MukaiVector(F(2), L, F(-3))
    assert w_xi(MukaiVector(F(2), zl.zero(), F(1, 2)), L, 2) == MukaiVector(F(2), L, F(-2))

    rng = random.Random(909)
    for _ in range(500):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        r = rng.randint(1, 5)
        xi = random_integral_vector(rng, ns)
        c = rng.randint(-8, 8)
        v = MukaiVector(F(r), xi, F(r + c))
        w = MukaiVector(F(r), ns.zero(), F(r + c) - xi.square() / (2 * r))
        assert w_xi(w, xi, r) == v
    _pass(9, "self-twist round trip, 500 cases plus both worked vectors")


def test_criterion_10_existence_checker():
    accepted = bundle_existence_check(2, 0, -4)
    assert accepted.accepted
    assert accepted.delta == F(3, 4)
    assert accepted.c2 == -1
    assert accepted.dim == 0
    oracle = accepted.irreducibility
    assert oracle.irreducible
    r, g = 2, -4
    assert oracle.min_lower_bound == F(1 - g, (r - 1) * r * r) == F(5, 4)

    rejected_parity = bundle_existence_check(2, 0, -3)
    assert not rejected_parity.accepted
    assert rejected_parity.failures == ("g = -3 must be congruent to d/2 = 0 modulo 2",)

    rejected_range = bundle_existence_check(2, 4, -4)
    assert not rejected_range.accepted
    assert rejected_range.failures == ("d = 4 must lie in [0, 2]",)
    _pass(10, "existence checker: worked acceptance and named rejections")


def test_criterion_11_transfer_isometry():
    zl = diagonal_lattice([-10], "ZL")
    L = zl.basis_vector(0)
    v = MukaiVector(F(2), L, F(-3))
    assert transfer_multiplier(v) == exp_class(L.scale(F(-1, 2)))
    assert transfer_image_of_v(v) == MukaiVector(F(2), zl.zero(), F(-1, 2))

    rng = random.Random(111)
    for _ in range(200):
        ns = random_hyperbolic_ns(rng, rng.randint(1, 3))
        r = rng.randint(1, 5)
        xi = random_integral_vector(rng, ns)
        v = MukaiVector(F(r), xi, F(rng.randint(-6, 6)))
        mult = transfer_multiplier(v)
        assert mult == exp_class(xi.scale(F(-1, r)))
        # The route the closed form replaces: the positive-rank root R of
        # ch F . ch F^dual, and ch F^dual = multiplier . R.
        ch_f = MukaiVector(F(r), xi, v.v2 - r)
        ch_f_dual = MukaiVector(F(r), -xi, v.v2 - r)
        root = MukaiVector(F(r), ns.zero(), v.v2 - r - xi.square() / (2 * r))
        assert mukai_product(root, root) == mukai_product(ch_f, ch_f_dual)
        assert mukai_product(mult, root) == ch_f_dual
        w = transfer_image_of_v(v)
        assert w == MukaiVector(F(r), ns.zero(), v.v2 - xi.square() / (2 * r))
        assert w == mukai_product(v, exp_class(xi.scale(F(-1, r))))
        # Random classes of v-perp: rational combinations of the twisted NS
        # classes and the twisted isotropy generator.
        twist = exp_class(xi.scale(F(1, r)))
        basis = [mukai_product(twist, MukaiVector(F(0), ns.basis_vector(i), F(0)))
                 for i in range(ns.rank)]
        basis.append(mukai_product(twist, MukaiVector(2 * F(r) ** 2, ns.zero(), mukai_square(v))))

        def combine():
            beta = MukaiVector(F(0), ns.zero(), F(0))
            for b in basis:
                c = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                beta = MukaiVector(beta.v0 + c * b.v0, beta.v1 + b.v1.scale(c),
                                   beta.v2 + c * b.v2)
            return beta

        b1, b2 = combine(), combine()
        assert mukai_pairing(b1, v) == 0 and mukai_pairing(b2, v) == 0
        assert mukai_pairing(transfer_isometry(v, b1), transfer_isometry(v, b2)) \
            == mukai_pairing(b1, b2)
    _pass(11, "transfer isometry: multiplier, pairing, image of v; 200 cases")


def test_criterion_12_chamber_reaches_algebraic_part():
    rng = random.Random(112)
    done = 0
    while done < 20:
        ns = random_hyperbolic_ns(rng, rng.randint(2, 3))
        ref = positive_reference(ns, rng)
        if ref.square() > 60:
            continue
        t11 = random_negative_definite_ns(rng, rng.randint(1, 2))
        model = K3Model(ns=ns, t11=t11, reference_positive=H11Class(ref, t11.zero()))
        r = rng.choice([2, 3])
        v = MukaiVector(F(r), random_integral_vector(rng, ns, span=2),
                        F(rng.randint(-4, 4)))
        if wall_bound(v) < 0:
            continue
        found = False
        for _ in range(40):
            ns_part = ref + ns.vector(tuple(F(rng.randint(-2, 2), rng.choice([3, 5]))
                                            for _ in range(ns.rank)))
            t_part = t11.vector(tuple(F(rng.randint(-2, 2), 3) for _ in range(t11.rank)))
            omega = H11Class(ns_part, t_part)
            omega_ns = H11Class(ns_part, t11.zero())
            if not (model.square(omega) > 0
                    and model.pair(omega, model.reference_positive) > 0):
                continue
            if not is_generic(model, v, omega_ns):
                continue
            assert is_generic(model, v, omega)
            assert same_chamber(model, v, omega, omega_ns)
            found = True
            break
        if found:
            done += 1
    _pass(12, "segment to the algebraic projection crosses no wall, 20 models")


CLI_FIXTURES = {
    "projective": {
        "surface": {"ns_gram": [[2, 0], [0, -2]], "reference_positive": [1, 0]},
        "mukai": {"r": 2, "xi": [1, 0], "a": 0},
        "omega": {"ns": [1, "1/4"], "t": []},
        "omega_prime": {"ns": [1, "-1/4"], "t": []},
        "twist": {"s": 2, "b": 0, "b_field": [0, "1/2"]},
        "existence": {"r": 3, "d": 2, "g": -25},
    },
    "crossing": {
        "surface": {"ns_gram": [[2, 0], [0, -2]], "reference_positive": [1, 0]},
        "mukai": {"r": 2, "xi": [1, 1], "a": 0},
        "omega": {"ns": [1, "1/4"], "t": []},
        "omega_prime": {"ns": [1, "-1/4"], "t": []},
        "twist": {"s": 1, "b": 0},
    },
    "nonprojective": {
        "surface": {"ns_gram": [[-10]], "t11_gram": [[2]], "reference_positive": [0, 1]},
        "mukai": {"r": 2, "xi": [1], "a": -3},
        "omega": {"ns": [1], "t": [3]},
        "omega_prime": {"ns": ["1/2"], "t": [3]},
        "existence": {"r": 2, "d": 0, "g": -4},
    },
}

CLI_COMMANDS = (
    "pairing", "type", "walls", "generic", "chamber", "crossings",
    "twist", "report", "h2", "projective", "exists",
)


def test_criterion_13_cli_determinism(tmp_path):
    paths = {}
    for name, cfg in CLI_FIXTURES.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        paths[name] = str(p)

    runs = 0
    for name, path in paths.items():
        for command in CLI_COMMANDS:
            if command == "twist" and "twist" not in CLI_FIXTURES[name]:
                continue
            if command == "exists" and "existence" not in CLI_FIXTURES[name]:
                continue
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli_run([command, "--config", path, "--format", "json"],
                               stdout=out, stderr=err)
                assert code == 0, f"{command} on {name}: {err.getvalue()}"
                outputs.append(out.getvalue())
            assert outputs[0] == outputs[1], f"{command} on {name} not deterministic"
            parsed = json.loads(outputs[0])
            canonical = json.dumps(parsed, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
            assert canonical == outputs[0], f"{command} on {name} not canonical JSON"
            runs += 1
    assert runs >= 30
    _pass(13, f"CLI determinism: {runs} command runs byte-identical on repeat")
