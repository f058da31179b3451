"""Checks made once on the wall path.

``walls_crossing_segment`` and ``walls_through_class`` build their results
through private trusted constructors, keep only the primitive search hits,
and read the wall bound off a closed form; ``h2_lattice`` builds its
result lattice through ``Lattice._trusted``, as ``orthogonal_complement``
builds ``sub``. Here:
- every returned ``LatticeVector``, ``Wall`` and ``WallCrossing`` equals,
  hashes and prints like its rebuild through the public constructors, its
  Fraction fields are Fractions, and the wall vector, which
  ``LatticeVector._trusted`` builds, stores a tuple of ints over the
  denominator 1;
- the lattice of every ``h2`` result, and the ``sub`` of every
  ``orthogonal_complement`` in the Mukai lattice, equals, hashes and prints
  like ``Lattice(gram, label)``, and its Gram is a symmetric tuple of int
  tuples;
- on balls that hold 2D and 3D for a wall D, the walls equal the Fraction
  oracle's ``_candidate_primitives``, which reduces every hit and
  deduplicates;
- ``polarization_defect`` and ``K3Model.pair``, decided on ints, give the
  verdict, message and value of the oracle's Fraction pairings;
- ``wall_bound`` equals r^4 Delta / 2 computed in Fractions, and on a
  twisted v_E it is r^4 delta_E / 2;
- the public ``LatticeVector`` keeps the checks the trusted one skips
  (``tests/test_integer_paths.py`` has those of ``Wall``).
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest

from mukaikit import (
    H11Class,
    K3Model,
    Lattice,
    LatticeVector,
    MukaiVector,
    Segment,
    TwistData,
    TwistedSheafData,
    delta_E,
    diagonal_lattice,
    discriminant,
    v_E,
    wall_bound,
    walls_crossing_segment,
    walls_through_class,
)
from mukaikit import lattice as lattice_module
from mukaikit import shortvec
from mukaikit import surface as surface_module
from mukaikit import walls as walls_module
from mukaikit.errors import HypothesisViolation, LatticeMismatchError, ValidationError
from mukaikit.exactlin import bilinear, is_symmetric, mat_vec, vec_mat
from mukaikit.lattice import full_mukai_lattice, orthogonal_complement
from mukaikit.moduli import (
    EmbeddedMukaiVector,
    NSEmbedding,
    h2_lattice,
    moduli_report,
    standard_ns_embedding,
)
from mukaikit.surface import polarization_defect
from mukaikit.walls import Wall, WallCrossing

from conftest import random_unimodular
from fraction_oracle import (
    _candidate_primitives,
    _pair,
    _pair_h11,
    invert_unimodular,
    oracle_crossings,
    oracle_walls_through_class,
)


def _model(rng, base):
    """A model on P^T diag(base) P, P random unimodular (often not the identity),
    and the map from diagonal coordinates to its basis."""
    n = len(base)
    p = random_unimodular(rng, n, rng.randint(0, 6))
    gram = tuple(tuple(sum(p[k][i] * base[k] * p[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))
    inv = invert_unimodular(p)
    ns = Lattice(gram, "NS")
    ref = ns.vector(mat_vec(inv, (1,) + (0,) * (n - 1)))
    return K3Model(ns=ns, reference_positive=H11Class(ref, Lattice(()).zero())), inv


def _profile(ns: Lattice, r: int) -> MukaiVector:
    """v^2 = 2 at rank r, as (r, 0, r (1 - Delta)): bound r^2 (r^2 + 1) / 2."""
    delta = F(1, r * r) + 1
    return MukaiVector(r, ns.zero(), r * (1 - delta))


def _recording(monkeypatch) -> list:
    """Record every hit list the search hands to the wall filter."""
    calls = []
    search = shortvec.short_vectors_up_to_sign

    def recorded(*args):
        hits = search(*args)
        calls.append(hits)
        return hits

    monkeypatch.setattr(shortvec, "short_vectors_up_to_sign", recorded)
    return calls


def _holds_multiples(walls, vectors) -> bool:
    """Some wall D has 2D and 3D, up to sign, among ``vectors``."""
    seen = set(vectors) | {tuple(-c for c in x) for x in vectors}
    return any(all(tuple(k * int(c) for c in d) in seen for k in (2, 3)) for d in walls)


def _segment(rng, model, inv, base):
    """Two points (1, y, ...) of the positive cone in the diagonal basis, over primes."""
    ends = []
    for prime in rng.sample((101, 1009, 10007, 99991), 2):
        while True:
            y = [F(1)] + [F(rng.randint(-prime // 3, prime // 3), prime) for _ in base[1:]]
            if sum(b * c * c for b, c in zip(base, y)) > 0:
                break
        ends.append(model.h11(mat_vec(inv, y)))
    return Segment(*ends)


def _crossing_cases():
    """(model, profile, segment, crossings) with generic endpoints, rank-2 and rank-3 NS."""
    rng = random.Random(1311)
    cases = []
    for base in ((2, -2), (2, -2, -4), (2, -2), (2, -2, -2)):
        found = 0
        while found < 4:
            model, inv = _model(rng, base)
            profile = _profile(model.ns, rng.randint(3, 5 if len(base) == 2 else 4))
            seg = _segment(rng, model, inv, base)
            try:
                crossings = walls_crossing_segment(model, profile, seg)
            except HypothesisViolation:
                continue
            if crossings:
                cases.append((model, profile, seg, crossings))
                found += 1
    return cases


CROSSING_CASES = _crossing_cases()


def _through_cases():
    """(model, profile, omega) with omega on walls; NS of rank 2 to 4 (perp rank 1 to 3)."""
    rng = random.Random(1312)
    cases = []
    for base in ((2, -2), (2, -2, -4), (2, -2, -2, -4), (2, -2, -2, -4), (4, -2, -2, -6)):
        for _ in range(3):
            model, inv = _model(rng, base)
            while True:
                y = [rng.randint(3, 6)] + [rng.randint(-1, 1) for _ in base[1:]]
                y[rng.randrange(1, len(base))] = 0  # a basis vector of negative square is a wall
                if sum(b * c * c for b, c in zip(base, y)) > 0:
                    break
            omega = model.h11([F(c, 7) for c in mat_vec(inv, y)])
            cases.append((model, _profile(model.ns, rng.randint(3, 4)), omega))
    return cases


THROUGH_CASES = _through_cases()


# -- Trusted objects against their public rebuilds ---------------------------------


def _rebuilt_wall(wall: Wall) -> Wall:
    d = wall.d
    vector = LatticeVector(Lattice(d.lattice.gram, d.lattice.label),
                           tuple(int(c) for c in d.coords))
    return Wall(vector, F(int(wall.d_square)), F(wall.bound.numerator, wall.bound.denominator))


def _assert_twins(trusted, public) -> None:
    assert trusted == public
    assert hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)


def _assert_wall_matches_public(wall: Wall) -> Wall:
    public = _rebuilt_wall(wall)
    _assert_twins(wall.d, public.d)
    _assert_twins(wall, public)
    assert len(wall.d.coords) == wall.d.lattice.rank
    # The fields ``LatticeVector._trusted`` stores: an int tuple over the int 1.
    assert type(wall.d.num) is tuple and all(type(c) is int for c in wall.d.num)
    assert type(wall.d.den) is int and wall.d.den == 1
    for value in wall.d.coords + (wall.d_square, wall.bound):
        assert type(value) is F
    return public


@pytest.mark.parametrize("case", range(len(CROSSING_CASES)))
def test_trusted_crossings_match_public_constructors(case):
    _, _, _, crossings = CROSSING_CASES[case]
    for crossing in crossings:
        wall = _assert_wall_matches_public(crossing.wall)
        public = WallCrossing(wall, F(crossing.t.numerator, crossing.t.denominator))
        _assert_twins(crossing, public)
        assert type(crossing.t) is F


def test_crossing_cases_include_rank3_and_non_identity_bases():
    ranks = {model.ns.rank for model, _, _, _ in CROSSING_CASES}
    diagonal = sum(all(model.ns.gram[i][j] == 0 for i in range(model.ns.rank)
                       for j in range(model.ns.rank) if i != j)
                   for model, _, _, _ in CROSSING_CASES)
    assert ranks == {2, 3} and diagonal < len(CROSSING_CASES)


@pytest.mark.parametrize("case", range(len(THROUGH_CASES)))
def test_trusted_walls_through_class_match_public_constructors(case):
    model, profile, omega = THROUGH_CASES[case]
    walls = walls_through_class(model, profile, omega)
    assert walls
    for wall in walls:
        _assert_wall_matches_public(wall)


def _h2_vector(rng, square: int) -> EmbeddedMukaiVector:
    """(x, y) on the first U with x = +-1, sparse entries elsewhere, v^2 = ``square``."""
    coords = [0] * 24
    for j in rng.sample(range(2, 24), rng.randint(0, 6)):
        coords[j] = rng.randint(-3, 3)
    rest = bilinear(full_mukai_lattice().gram, coords, coords)
    x = rng.choice((1, -1))
    coords[0], coords[1] = x, (square - rest) // (2 * x)
    return EmbeddedMukaiVector(tuple(coords))


def _assert_trusted_lattice(lattice: Lattice, label: str, rank: int) -> None:
    """``lattice`` equals, hashes and prints like ``Lattice(gram, label)``, has ``label``,
    and its Gram is a symmetric tuple of ``rank`` int tuples of length ``rank``."""
    public = Lattice(lattice.gram, lattice.label)
    _assert_twins(lattice, public)
    assert lattice.label == public.label == label
    assert type(lattice.gram) is tuple and len(lattice.gram) == rank
    assert all(type(row) is tuple and len(row) == rank for row in lattice.gram)
    assert all(type(x) is int for row in lattice.gram for x in row)
    assert is_symmetric(lattice.gram)


@pytest.mark.parametrize("square", [0, 2, 8])
def test_trusted_h2_lattice_matches_public_constructor(square):
    """The h2 lattice, and the ``sub`` of ``orthogonal_complement`` of v in the Mukai
    lattice."""
    rng = random.Random(1315 + square)
    mukai = full_mukai_lattice()
    for _ in range(20):
        v = _h2_vector(rng, square)
        assert v.square() == square
        _assert_trusted_lattice(h2_lattice(v).lattice,
                                "v-perp mod v" if square == 0 else "v-perp", 22 + (square > 0))
        comp = orthogonal_complement(mukai, mukai.vector(v.coords))
        assert len(comp.basis) == 23
        _assert_trusted_lattice(comp.sub, "Mukai-perp", 23)


# -- The trusted NS embedding ---------------------------------------------------------


def _diagonal_even_ns(entries: range):
    """Every diagonal NS of rank 0 to 3 whose entries are the even numbers of ``entries``."""
    evens = [e for e in entries if e % 2 == 0]
    for rank in range(4):
        for diag in product(evens, repeat=rank):
            yield diagonal_lattice(list(diag))


def test_standard_embedding_matches_the_public_constructor():
    """``standard_ns_embedding`` builds through ``NSEmbedding._trusted``; the public
    constructor, which checks isometry and primitivity, gives the same record."""
    count = 0
    for ns in _diagonal_even_ns(range(-12, 13)):
        trusted = standard_ns_embedding(ns)
        public = NSEmbedding(ns, trusted.rows)
        _assert_twins(trusted, public)
        assert type(trusted.rows) is tuple
        assert all(type(row) is tuple and all(type(x) is int for x in row)
                   for row in trusted.rows)
        count += 1
    assert count == 1 + 13 + 13 ** 2 + 13 ** 3


def test_public_embedding_rejects_one_entry_changed():
    """Each entry of row i on its own U (e_i, f_i) and on an E8(-1) summand, moved by
    +-1, breaks the square of row i, a pairing or the saturation; the public
    constructor refuses it with one of its messages."""
    messages = {"embedding does not respect the intersection form",
                "embedding is not primitive (image is not saturated)"}
    for ns in _diagonal_even_ns(range(-4, 5)):
        rows = standard_ns_embedding(ns).rows
        for i, j, step in product(range(ns.rank), range(3), (1, -1)):
            col = (2 * i, 2 * i + 1, 6 + 8 * (i % 2) + i)[j]
            bad = [list(row) for row in rows]
            bad[i][col] += step
            with pytest.raises(ValidationError) as info:
                NSEmbedding(ns, bad)
            assert str(info.value) in messages


@pytest.mark.parametrize("other, message", [
    (diagonal_lattice([-2]), "embedding does not respect the intersection form"),
    (diagonal_lattice([2, -2]), "embedding must be 1x22, got 2x22"),
    (Lattice(()), "embedding must be 1x22, got 0x22"),
])
def test_from_algebraic_checks_an_embedding_of_another_ns(other, message):
    """An ``NSEmbedding`` of another Gram is checked against v's NS, with the message
    that its rows as a bare matrix give."""
    v = MukaiVector(F(2), diagonal_lattice([-10]).basis_vector(0), F(-3))
    emb = standard_ns_embedding(other)
    for given in (emb, emb.rows):
        with pytest.raises(ValidationError) as info:
            EmbeddedMukaiVector.from_algebraic(v, given)
        assert str(info.value) == message


def test_from_algebraic_maps_xi_by_the_whole_matrix():
    """The image of xi is xi times the whole embedding matrix, 22 zeros for NS = 0."""
    rng = random.Random(3401)
    for ns in _diagonal_even_ns(range(-6, 7)):
        emb = standard_ns_embedding(ns)
        xi = tuple(rng.randint(-4, 4) for _ in range(ns.rank))
        xi2 = bilinear(ns.gram, xi, xi)
        v = MukaiVector(F(2), ns.vector(xi), F(rng.randint(-3, 3)))
        embedded = EmbeddedMukaiVector.from_algebraic(v, emb)
        whole = vec_mat(xi, emb.rows) if ns.rank else (0,) * 22
        assert embedded.coords == (2, -int(v.v2)) + whole
        assert embedded.square() == xi2 - 4 * v.v2


# -- Each report fact once ------------------------------------------------------------


def _counting(monkeypatch, module, name: str, seen: list) -> None:
    """Record the first argument of every call of ``module.name``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_report_reduces_ns_once_and_checks_omega_once(monkeypatch):
    """``K3Model`` reduces NS for its signature and ``moduli_report`` reads the kept
    one; ``moduli_report`` tests omega once and runs the check-free wall body."""
    signatures, defects = [], []
    _counting(monkeypatch, lattice_module, "rational_signature", signatures)
    for module in (surface_module, walls_module):
        _counting(monkeypatch, module, "polarization_defect", defects)
    ns = Lattice(((2, 0), (0, -2)), "NS")  # a fresh instance: nothing kept yet
    t11 = Lattice(((-2,),), "T")
    model = K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), t11.zero()), t11=t11)
    v = MukaiVector(F(2), ns.vector((1, 0)), F(-1))
    report = moduli_report(model, v, model.h11((3, 1), (1,)))
    assert report.genericity is not None and report.projective_surface
    assert [g for g in signatures if g == ns.gram] == [ns.gram]
    assert defects == [model]


def test_kept_signature_is_invisible_to_identity_and_repr():
    fresh, kept = Lattice(((2, 1), (1, -2)), "L"), Lattice(((2, 1), (1, -2)), "L")
    assert kept.signature() == (1, 0, 1)
    assert "_signature" in vars(kept) and "_signature" not in vars(fresh)
    _assert_twins(kept, fresh)
    assert kept.signature() == fresh.signature()


# -- Primitive hits only --------------------------------------------------------------


@pytest.mark.parametrize("case", range(len(CROSSING_CASES)))
def test_crossing_walls_match_reduced_and_deduplicated_hits(case, monkeypatch):
    model, profile, seg, crossings = CROSSING_CASES[case]
    calls = _recording(monkeypatch)
    assert walls_crossing_segment(model, profile, seg) == crossings
    (hits,) = calls
    # Generic endpoints: every wall in the clipped ball changes sign on the segment.
    want = {(d.coords, sq) for d, sq in _candidate_primitives(model, hits, wall_bound(profile))}
    assert {(c.wall.d.coords, c.wall.d_square) for c in crossings} == want
    assert [(c.wall.d.coords, c.wall.d_square, c.t) for c in crossings] == \
        oracle_crossings(model, profile, seg.start, seg.end)


def test_crossing_balls_hold_double_and_triple_walls(monkeypatch):
    """The comparison above is made on balls that hold 2D and 3D for a wall D."""
    calls = _recording(monkeypatch)
    ranks = []
    for model, profile, seg, crossings in CROSSING_CASES:
        walls_crossing_segment(model, profile, seg)
        if _holds_multiples([c.wall.d.coords for c in crossings], calls[-1]):
            ranks.append(model.ns.rank)
    assert ranks.count(2) >= 3 and ranks.count(3) >= 3


@pytest.mark.parametrize("case", range(len(THROUGH_CASES)))
def test_walls_through_class_match_reduced_and_deduplicated_hits(case, monkeypatch):
    model, profile, omega = THROUGH_CASES[case]
    calls = _recording(monkeypatch)
    walls = walls_through_class(model, profile, omega)
    (hits,) = calls
    basis = orthogonal_complement(model.ns, omega.ns_part).basis
    assert len(basis) == model.ns.rank - 1
    assert _holds_multiples([w.d.coords for w in walls], [vec_mat(h, basis) for h in hits])
    got = [(w.d.coords, w.d_square) for w in walls]
    assert got == [(d.coords, sq) for d, sq in
                   _candidate_primitives(model, hits, wall_bound(profile), basis)]
    assert got == oracle_walls_through_class(model, profile, omega)


def test_through_cases_include_rank3_perp_and_non_identity_bases():
    perps = [orthogonal_complement(m.ns, omega.ns_part).basis for m, _, omega in THROUGH_CASES]
    rank3 = [b for b in perps if len(b) == 3]
    assert rank3
    assert any(b != tuple(tuple(int(i == j) for j in range(4)) for i in (1, 2, 3))
               for b in rank3)


# -- Polarization tests on ints ----------------------------------------------------------


def _fraction_defect(m, omega, name="omega"):
    """The polarization test in Fractions, through the oracle's per-coordinate pairings."""
    square = _pair_h11(m, omega, omega)
    if square <= 0:
        return f"{name}^2={square} <= 0"
    paired = _pair_h11(m, omega, m.reference_positive)
    if paired <= 0:
        return f"{name}.reference={paired} <= 0"
    for c in m.curve_classes:
        value = _pair(m.ns.gram, c.coords, omega.ns_part.coords)
        if value <= 0:
            return f"C.{name}={value} <= 0 for the curve class C={c!r}"
    return None


# NS and transcendental entries: one positive direction in all, in either block.
POLARIZATION_MODELS = [((2, -2), ()), ((2, -2, -4), (-2,)), ((-2,), (2,)),
                       ((-4, -2), (2, -2)), ((6,), (-2, -6))]


def test_polarization_defect_matches_the_fraction_pairings():
    rng = random.Random(1315)
    q = lambda lo, hi: F(rng.randint(lo, hi), rng.randint(1, 6))
    kinds = {}
    for _ in range(600):
        ns_entries, t_entries = rng.choice(POLARIZATION_MODELS)
        ns, t11 = diagonal_lattice(ns_entries), diagonal_lattice(t_entries)
        # The reference: a rational multiple of the positive axis, nudged.
        axis = [e > 0 for e in ns_entries + t_entries]
        coords = [F(rng.randint(1, 5), rng.randint(1, 4)) if pos else q(-1, 1) / 8
                  for pos in axis]
        ref = H11Class(ns.vector(coords[:ns.rank]), t11.vector(coords[ns.rank:]))
        if sum(e * c * c for e, c in zip(ns_entries + t_entries, coords)) <= 0:
            continue
        curves = tuple(ns.vector([q(-4, 4) for _ in ns_entries]) for _ in range(rng.randint(0, 2)))
        m = K3Model(ns=ns, reference_positive=ref, t11=t11, curve_classes=curves)
        omega = m.h11([q(-6, 6) for _ in ns_entries], [q(-6, 6) for _ in t_entries])
        name = rng.choice(("omega", "omega'"))
        want = _fraction_defect(m, omega, name)
        assert polarization_defect(m, omega, name) == want
        kind = "ok" if want is None else want.split("=")[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert {"ok", "omega^2", "omega'^2", "omega.reference", "omega'.reference",
            "C.omega", "C.omega'"} <= set(kinds)


def test_model_pair_matches_the_fraction_pairing():
    """``K3Model.pair``, on the integer pairing ``_scaled_pair``, against the oracle, on NS
    of rank 0-3 and T of rank 0-2 with unimodular changes of basis, and rational classes
    whose NS and T parts have different denominators."""
    rng = random.Random(3030)
    q = lambda den: F(rng.randint(-9, 9), den)
    shapes, split = set(), 0
    for _ in range(400):
        ns_rank, t_rank = rng.choice([(n, t) for n in range(4) for t in range(3) if n + t])
        entries = [rng.choice((-2, -4, -6)) for _ in range(ns_rank + t_rank)]
        pos = rng.randrange(ns_rank + t_rank)
        entries[pos] = rng.choice((2, 4))  # the one positive direction
        blocks, ref = [], []
        for part, start in ((entries[:ns_rank], 0), (entries[ns_rank:], ns_rank)):
            n = len(part)
            p = random_unimodular(rng, n)
            gram = tuple(tuple(sum(p[k][i] * part[k] * p[k][j] for k in range(n))
                               for j in range(n)) for i in range(n))
            blocks.append(Lattice(gram))
            # The diagonal basis vector of the positive entry, in the new basis.
            axis = tuple(int(start + i == pos) for i in range(n))
            ref.append(blocks[-1].vector(mat_vec(invert_unimodular(p), axis) if n else ()))
        ns, t11 = blocks
        ref = H11Class(*ref)
        m = K3Model(ns=ns, reference_positive=ref, t11=t11)
        x, y = (m.h11([q(dn) for _ in range(ns_rank)], [q(dt) for _ in range(t_rank)])
                for dn, dt in (rng.sample(range(1, 13), 2) for _ in range(2)))
        for a, b in ((x, y), (x, x), (y, ref)):
            assert m.pair(a, b) == _pair_h11(m, a, b)
        shapes.add((ns_rank, t_rank))
        split += ns_rank > 0 < t_rank and x.ns_part.den != x.t_part.den
    assert len(shapes) == 11 and split > 100


def test_polarization_defect_checks_membership_first():
    ns, other = diagonal_lattice([2, -2]), diagonal_lattice([2, -4])
    m = K3Model(ns=ns, reference_positive=H11Class(ns.basis_vector(0), Lattice(()).zero()))
    with pytest.raises(LatticeMismatchError, match="^NS part lives in the wrong lattice$"):
        polarization_defect(m, H11Class(other.vector((0, 1)), Lattice(()).zero()))
    with pytest.raises(LatticeMismatchError,
                       match="^transcendental part lives in the wrong lattice$"):
        polarization_defect(m, H11Class(ns.vector((0, 1)), diagonal_lattice([2]).zero()))


# -- The closed-form wall bound --------------------------------------------------------


def test_wall_bound_closed_form_on_random_vectors():
    rng = random.Random(1313)
    for _ in range(300):
        ns = diagonal_lattice([rng.choice((2, 4, -2, -4, -6)) for _ in range(rng.randint(1, 3))])
        r = rng.randint(1, 8)
        xi = tuple(rng.randint(-9, 9) for _ in range(ns.rank))
        v = MukaiVector(F(r), ns.vector(xi), F(rng.randint(-30, 30)))
        # Delta = v^2 / (2 r^2) + 1, v^2 squared one coordinate pair at a time.
        square = _pair(ns.gram, xi, xi) - 2 * v.v0 * v.v2
        delta = square / (2 * v.v0 ** 2) + 1
        assert discriminant(v) == delta
        assert wall_bound(v) == F(r) ** 4 * discriminant(v) / 2 == F(r) ** 4 * delta / 2
        assert wall_bound(v) == F(r * r) * (square + 2 * r * r) / 4
        assert type(wall_bound(v)) is F


def test_wall_bound_closed_form_on_rational_components():
    # Integral rank, rational xi and v2: the joint denominator cancels.
    ns = diagonal_lattice([2, -2])
    v = MukaiVector(F(3), ns.vector((F(1, 2), F(-1, 3))), F(5, 7))
    square = _pair(ns.gram, v.v1.coords, v.v1.coords) - 2 * v.v0 * v.v2
    assert discriminant(v) == square / 18 + 1
    assert wall_bound(v) == F(81) * (square / 18 + 1) / 2


def test_twisted_profile_bounds_unchanged():
    rng = random.Random(1314)
    for _ in range(100):
        ns = diagonal_lattice([rng.choice((2, -2, -4)) for _ in range(rng.randint(1, 3))])
        xi = ns.vector(tuple(rng.randint(-5, 5) for _ in range(ns.rank)))
        f = TwistedSheafData(rng.randint(1, 8), xi, F(rng.randint(-20, 20), rng.randint(1, 4)))
        e = TwistData(rng.randint(1, 4), F(rng.randint(-6, 6), rng.randint(1, 3)))
        v = v_E(f, e)
        assert v.v0 == f.r and discriminant(v) == delta_E(f, e)
        assert wall_bound(v) == F(f.r) ** 4 * delta_E(f, e) / 2


@pytest.mark.parametrize("rank", [F(3, 2), F(7, 3)])
def test_profile_rejects_a_non_integral_rank(rank):
    ns = diagonal_lattice([2, -2])
    with pytest.raises(HypothesisViolation, match="^wall sets are defined for integral positive rank$"):
        wall_bound(MukaiVector(rank, ns.vector((1, 0)), F(0)))


# -- The public vector keeps its checks ----------------------------------------------------


def test_vector_length_must_match_the_rank():
    ns = diagonal_lattice([2, -2, -4])
    for coords in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValidationError,
                           match=rf"^vector of length {len(coords)} in a rank-3 lattice$"):
            LatticeVector(ns, coords)


def test_vector_coordinates_become_fractions():
    ns = diagonal_lattice([2, -2])
    for coords in ((1, -2), (F(1, 2), 3), (True, 0)):
        vector = LatticeVector(ns, coords)
        assert all(type(c) is F for c in vector.coords)
        assert vector.coords == tuple(F(c) for c in coords)
