"""The record contract: what every frozen value class of the library does.

Every class in ``src/mukaikit/`` that carries ``__match_args__`` in its
own namespace is a record. Each record must have an example below, so a
new record class fails ``test_every_record_class_has_an_example`` until
it is covered. For every example: equality is strict on type, equal
records hash alike and the hash is the hash of the tuple of compared
fields (every field but ``Lattice.label``), fields cannot be assigned or
deleted, positional, keyword and default construction agree,
``__post_init__`` normalises, and ``repr`` reads as it always has. Every
record has the generated unchecked constructor ``_trusted``: it takes the
parameters and defaults of ``__init__``, stores each field as given, runs no
``__post_init__``, and on valid fields equals the public record.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import mukaikit
from mukaikit.config import Config
from mukaikit.errors import HypothesisViolation, ValidationError
from mukaikit.lattice import Lattice, LatticeVector, OrthogonalComplement
from mukaikit.moduli import (
    AlgebraicH2Result,
    EmbeddedMukaiVector,
    ExistenceVerdict,
    H2LatticeResult,
    IrreducibilityVerdict,
    ModuliReport,
    NSEmbedding,
    ProjectivityCheck,
)
from mukaikit.mukai import MukaiVector, TopologicalType
from mukaikit.records import record
from mukaikit.surface import H11Class, K3Model
from mukaikit.twisted import SubobjectWall, TwistData, TwistedSheafData
from mukaikit.walls import DestabilizerVerdict, Segment, Wall, WallCrossing

# Fields left out of == and hash; every other field is compared.
UNCOMPARED = {"Lattice": {"label"}}


def _record_classes() -> dict[str, type]:
    found = {}
    for path in sorted(Path(mukaikit.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"mukaikit.{path.stem}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__match_args__" in vars(obj)):
                found[obj.__name__] = obj
    return found


RECORDS = _record_classes()


def _examples() -> dict:
    ns = Lattice(((2, 0), (0, -2)), "NS")
    xi = ns.vector((1, 1))
    omega = H11Class(ns.vector((1, Fraction(1, 4))), Lattice(()).zero())
    omega_prime = H11Class(ns.vector((1, Fraction(-1, 4))), Lattice(()).zero())
    model = K3Model(ns, H11Class(ns.vector((1, 0)), Lattice(()).zero()))
    wall = Wall(ns.vector((0, 1)), Fraction(-2), Fraction(5, 2))
    v = MukaiVector(2, xi, 0)
    irreducible = IrreducibilityVerdict(True, Fraction(1, 8), (1, 0))
    return {
        "Lattice": ns,
        "LatticeVector": xi,
        "OrthogonalComplement": OrthogonalComplement(Lattice(((-2,),), "NS-perp"), ((0, 1),)),
        "MukaiVector": v,
        "TopologicalType": TopologicalType(2, xi, 3),
        "H11Class": omega,
        "K3Model": model,
        "Config": Config(model, v, omega, omega_prime, None, None, (2, 0, -4)),
        "Wall": wall,
        "DestabilizerVerdict": DestabilizerVerdict(
            "wall", ns.vector((0, 2)), Fraction(-8), Fraction(10), wall, "in range"),
        "Segment": Segment(omega, omega_prime),
        "WallCrossing": WallCrossing(wall, Fraction(1, 2)),
        "EmbeddedMukaiVector": EmbeddedMukaiVector((2, 0, 1, 1) + (0,) * 20),
        "NSEmbedding": NSEmbedding(ns, ((1, 1) + (0,) * 20, (0, 0, 1, -1) + (0,) * 18)),
        "AlgebraicH2Result": AlgebraicH2Result(
            Lattice(((-2,),), "A"), (0, 0, 1), (2,), ((1, 1),), False, False),
        "H2LatticeResult": H2LatticeResult(
            Lattice(((-2,),), "H2"), (0, 0, 1), (2,), ((1, 0),), False),
        "ProjectivityCheck": ProjectivityCheck(
            True, True, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-8))), (1, 0, 1),
            (Fraction(-8), Fraction(-8))),
        "IrreducibilityVerdict": irreducible,
        "ExistenceVerdict": ExistenceVerdict(True, (), 2, 0, -4, irreducibility=irreducible),
        "ModuliReport": ModuliReport(
            True, (), Fraction(2), 4, 2, "K3^[2]", 23, False, True, True, True, ("note",)),
        "TwistData": TwistData(2, Fraction(1, 2), ns.vector((0, Fraction(1, 2)))),
        "TwistedSheafData": TwistedSheafData(2, xi, Fraction(-1)),
        "SubobjectWall": SubobjectWall(ns.vector((1, 0)), Fraction(1, 2), Fraction(2)),
    }


EXAMPLES = _examples()

# repr strings of the examples as the dataclass-era classes printed them.
REPRS = {
    "Config": (
        "Config(model=K3Model(ns=Lattice(NS), reference_positive=((1, 0); ()), "
        "t11=Lattice(rank-0 lattice), curve_classes=()), mukai=(2, (1, 1), 0), omega=((1, "
        "1/4); ()), omega_prime=((1, -1/4); ()), twist=None, embedding=None, existence=(2, 0, "
        "-4))"
    ),
    "DestabilizerVerdict": (
        "DestabilizerVerdict(kind='wall', d=(0, 2), d_square=Fraction(-8, 1), "
        "bound=Fraction(10, 1), wall=Wall(d=(0, 1), d_square=Fraction(-2, 1), "
        "bound=Fraction(5, 2)), reason='in range')"
    ),
    "EmbeddedMukaiVector": (
        "EmbeddedMukaiVector(coords=(2, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
        "0, 0, 0, 0, 0))"
    ),
    "ExistenceVerdict": (
        "ExistenceVerdict(accepted=True, failures=(), r=2, d=0, g=-4, xi_square=None, "
        "delta=None, c2=None, mukai=None, dim=None, "
        "irreducibility=IrreducibilityVerdict(irreducible=True, min_lower_bound=Fraction(1, "
        "8), witness=(1, 0)))"
    ),
    "H11Class": "((1, 1/4); ())",
    "AlgebraicH2Result": (
        "AlgebraicH2Result(lattice=Lattice(A), signature=(0, 0, 1), discriminant=(2,), "
        "perp_basis=((1, 1),), quotient_by_v=False, projective=False)"
    ),
    "H2LatticeResult": (
        "H2LatticeResult(lattice=Lattice(H2), signature=(0, 0, 1), discriminant=(2,), "
        "perp_basis=((1, 0),), quotient_by_v=False)"
    ),
    "IrreducibilityVerdict": (
        "IrreducibilityVerdict(irreducible=True, min_lower_bound=Fraction(1, 8), witness=(1, "
        "0))"
    ),
    "K3Model": (
        "K3Model(ns=Lattice(NS), reference_positive=((1, 0); ()), t11=Lattice(rank-0 lattice), "
        "curve_classes=())"
    ),
    "Lattice": "Lattice(NS)",
    "LatticeVector": "(1, 1)",
    "ModuliReport": (
        "ModuliReport(valid=True, reasons=(), mukai_square=Fraction(2, 1), dim=4, n=2, "
        "deformation_class='K3^[2]', b2=23, rigid=False, genericity=True, "
        "projective_surface=True, projective_moduli=True, interpretation_notes=('note',))"
    ),
    "MukaiVector": "(2, (1, 1), 0)",
    "NSEmbedding": (
        "NSEmbedding(ns=Lattice(NS), rows=((1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
        "0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)))"
    ),
    "OrthogonalComplement": "OrthogonalComplement(sub=Lattice(NS-perp), basis=((0, 1),))",
    "ProjectivityCheck": (
        "ProjectivityCheck(projective_moduli=True, surface_projective=True, gram=((Fraction(2, "
        "1), Fraction(0, 1)), (Fraction(0, 1), Fraction(-8, 1))), signature=(1, 0, 1), "
        "isotropy_identity=(Fraction(-8, 1), Fraction(-8, 1)))"
    ),
    "Segment": "Segment(start=((1, 1/4); ()), end=((1, -1/4); ()))",
    "SubobjectWall": "SubobjectWall(d=(1, 0), k=Fraction(1, 2), d_square=Fraction(2, 1))",
    "TopologicalType": "TopologicalType(r=2, c1=(1, 1), c2=3)",
    "TwistData": "TwistData(s=2, b=Fraction(1, 2), b_field=(0, 1/2))",
    "TwistedSheafData": "TwistedSheafData(r=2, xi=(1, 1), a=Fraction(-1, 1))",
    "Wall": "Wall(d=(0, 1), d_square=Fraction(-2, 1), bound=Fraction(5, 2))",
    "WallCrossing": (
        "WallCrossing(wall=Wall(d=(0, 1), d_square=Fraction(-2, 1), bound=Fraction(5, 2)), "
        "t=Fraction(1, 2))"
    ),
}


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def _compared(x) -> tuple:
    skip = UNCOMPARED.get(type(x).__name__, set())
    return tuple(getattr(x, name) for name in type(x).__match_args__ if name not in skip)


def test_every_record_class_has_an_example():
    assert len(RECORDS) >= 21
    assert set(RECORDS) == set(EXAMPLES) == set(REPRS)
    assert all(type(EXAMPLES[name]) is cls for name, cls in RECORDS.items())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_equality_is_strict_on_type(name):
    x = EXAMPLES[name]
    fields = _fields(x)
    assert x == type(x)(*fields) and not x != type(x)(*fields)
    assert x != fields and fields != x
    # A record type of its own with the same fields, and so the same values.
    annotations = dict.fromkeys(type(x).__match_args__, "object")
    twin = record(type(f"{name}Twin", (), {"__annotations__": annotations}))
    other = twin(*fields)
    assert _fields(other) == fields
    assert x != other and other != x
    assert x.__eq__(other) is NotImplemented


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_hash_is_the_hash_of_the_compared_fields(name):
    x = EXAMPLES[name]
    y = type(x)(*_fields(x))
    assert x is not y and x == y
    assert hash(x) == hash(y) == hash(_compared(x))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_fields_cannot_be_assigned_or_deleted(name):
    x = EXAMPLES[name]
    before = _fields(x)
    for field in type(x).__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(x, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert _fields(x) == before


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_positional_and_keyword_construction_agree(name):
    x = EXAMPLES[name]
    by_keyword = type(x)(**{f: getattr(x, f) for f in type(x).__match_args__})
    assert by_keyword == type(x)(*_fields(x)) == x
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\)"):
        type(x)(*_fields(x), None)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_repr_is_unchanged(name):
    assert repr(EXAMPLES[name]) == REPRS[name]


def test_defaults():
    ns = EXAMPLES["Lattice"]
    ref = EXAMPLES["K3Model"].reference_positive
    assert K3Model(ns, ref) == K3Model(ns, ref, Lattice(()), ())
    assert K3Model(ns, ref).t11 is K3Model.t11
    assert LatticeVector(Lattice(())).coords == ()
    assert Lattice(((2,),)).label == ""
    verdict = ExistenceVerdict(False, ("no",), 2, 0, -4)
    assert (verdict.xi_square, verdict.delta, verdict.c2, verdict.mukai, verdict.dim,
            verdict.irreducibility) == (None,) * 6
    assert TwistData(1, 0).b_field is None


def test_label_is_display_data():
    a, b = Lattice(((2, 1), (1, 2)), "A"), Lattice(((2, 1), (1, 2)), "B")
    assert a == b and hash(a) == hash(b) == hash((a.gram,))
    assert (repr(a), repr(b)) == ("Lattice(A)", "Lattice(B)")
    assert a != Lattice(((2, 0), (0, 2)), "A")


def test_post_init_normalises():
    ns = EXAMPLES["Lattice"]
    v = MukaiVector(2, ns.vector((1, 1)), 0)
    assert type(v.v0) is Fraction and type(v.v2) is Fraction
    assert type(TwistData(2, 3).b) is Fraction
    assert type(TwistedSheafData(2, ns.vector((1, 0)), 1).a) is Fraction
    assert all(type(c) is Fraction for c in LatticeVector(ns, (1, 2)).coords)
    assert Lattice([[2]]).gram == ((2,),)
    ref = EXAMPLES["K3Model"].reference_positive
    assert K3Model(ns, ref, curve_classes=[ns.vector((1, 1))]).curve_classes == (ns.vector((1, 1)),)
    assert EmbeddedMukaiVector([1] + [0] * 23).coords == (1,) + (0,) * 23
    rows = [[1, 1] + [0] * 20, [0, 0, 1, -1] + [0] * 18]
    assert NSEmbedding(ns, rows).rows == tuple(map(tuple, rows))
    with pytest.raises(HypothesisViolation, match="rank >= 1"):
        TwistData(0, 0)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_trusted_stores_the_fields_as_given(name):
    x = EXAMPLES[name]
    cls = type(x)
    for trusted in (cls._trusted(*_fields(x)),
                    cls._trusted(**{f: getattr(x, f) for f in cls.__match_args__})):
        assert type(trusted) is cls and trusted is not x
        assert all(a is b for a, b in zip(_fields(trusted), _fields(x), strict=True))
        assert trusted == x and hash(trusted) == hash(x) and repr(trusted) == repr(x)
    with pytest.raises(TypeError, match=rf"^{name}\._trusted\(\)"):
        cls._trusted(*_fields(x), None)


def test_every_record_has_the_generated_trusted_constructor():
    """No class writes its own: ``_trusted`` is the one ``record`` generates, also on
    records that no library code builds unchecked, such as ``Segment``."""
    for name, cls in RECORDS.items():
        made = vars(cls)["_trusted"].__func__
        assert made.__qualname__ == f"{name}._trusted"
        assert made.__code__.co_filename == "<string>"
    omega, omega_prime = EXAMPLES["Segment"].start, EXAMPLES["Segment"].end
    assert Segment._trusted(omega, omega_prime) == Segment(omega, omega_prime)


def test_trusted_applies_the_defaults():
    ns = EXAMPLES["Lattice"]
    ref = EXAMPLES["K3Model"].reference_positive
    assert LatticeVector._trusted(ns, (1, 2)).den == 1
    assert LatticeVector._trusted(ns, (1, 2)) == LatticeVector(ns, (1, 2))
    assert Lattice._trusted(ns.gram).label == ""
    assert K3Model._trusted(ns, ref).t11 is K3Model.t11
    assert K3Model._trusted(ns, ref).curve_classes == ()
    verdict = ExistenceVerdict._trusted(False, ("no",), 2, 0, -4)
    assert verdict == ExistenceVerdict(False, ("no",), 2, 0, -4)
    assert TwistData._trusted(1, 0).b_field is None


def test_trusted_runs_no_post_init():
    """``MukaiVector`` refuses a float; ``_trusted`` keeps one, and a list, as given."""
    xi = EXAMPLES["LatticeVector"]
    with pytest.raises(ValidationError):
        MukaiVector(0.5, xi, 0)
    v = MukaiVector._trusted(0.5, xi, 0)
    assert type(v.v0) is float and type(v.v2) is int
    ns = EXAMPLES["Lattice"]
    rows = [[1, 1] + [0] * 20, [0, 0, 1, -1] + [0] * 18]
    assert type(NSEmbedding._trusted(ns, rows).rows) is list
    assert type(NSEmbedding(ns, rows).rows) is tuple
