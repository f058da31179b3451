"""The library's contract, read off its source: stdlib only, no floats.

Each ``src/mukaikit/*.py`` is parsed with ``ast``. Every import must name
a standard-library module or ``mukaikit`` itself (relative imports
included), and no float literal or ``float`` name may appear, so no
verdict can pass through floating point. The exact layer is integer-only:
``exactlin`` imports nothing from ``fractions``, and its signature and the
short-vector search reject a Fraction entry instead of scaling it.
Every top-level function and class is used somewhere in the library,
except the public names in ``API_ENTRY_POINTS``, each kept there with its
reason, so a deletion cannot leave a helper behind and no path is kept for
tests alone. Likewise every method and property of a library class is read
by library code outside its own body, except the members in
``MEMBER_ENTRY_POINTS``. The internal modules ``exactlin`` and ``shortvec``
export nothing through ``mukaikit.__all__``. No module imports a name that it
does not use, and none imports ``dataclasses``. The wall layer takes one
argument type, a Mukai vector: ``walls`` imports nothing from ``twisted``,
whose classes enter through ``twisted.v_E``. Only ``surface`` reads the
transcendental Gram ``t11.gram``: H^{1,1} is paired in ``K3Model`` alone.
Denominators are cleared where a ``LatticeVector`` is built and, for a whole
Mukai vector, in ``mukai._algebraic_coords`` only; every other module reads
``num`` and ``den`` or that map.
Every record has the unchecked constructor ``_trusted``, and a read of one is
allowed only where ``TRUSTED_READERS`` lists its class:
``LatticeVector._trusted`` is read in ``lattice`` and ``walls`` only,
``Lattice._trusted`` in ``lattice`` and ``moduli`` only, ``Wall._trusted`` in
``walls`` only, and ``NSEmbedding._trusted`` in ``moduli`` only. The
check-free body of ``walls_through_class``, ``walls._walls_through``, is read
in ``walls`` and ``moduli`` only.
The test oracle ``fraction_oracle`` imports no private name, no module and
none of the exact routines it checks from ``mukaikit``.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

from fractions import Fraction

import pytest

import mukaikit
from mukaikit.errors import ValidationError
from mukaikit.exactlin import rational_signature
from mukaikit.shortvec import short_vectors_up_to_sign

SOURCES = sorted(Path(mukaikit.__file__).parent.glob("*.py"))


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "mukaikit" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_mukaikit(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = {m for m in _imported_roots(tree)
               if m != "mukaikit" and m not in sys.stdlib_module_names}
    assert not foreign


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literal_or_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    floats = [node.lineno for node in ast.walk(tree)
              if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
              or (isinstance(node, ast.Name) and node.id == "float")]
    assert not floats


def _unused_imports(tree: ast.AST) -> set[str]:
    """The names that ``tree`` binds by an import, other than ``__future__``, and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert not _unused_imports(ast.parse(path.read_text(encoding="utf-8")))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exactlin.py", "shortvec.py", "walls.py", "cli.py"}


def test_exact_layer_imports_nothing_from_fractions():
    path = Path(mukaikit.__file__).parent / "exactlin.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "fractions" not in set(_imported_roots(tree))


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2)])
def test_exact_layer_rejects_fraction_entries(entry):
    form = ((entry, 0), (0, 1))
    with pytest.raises(ValidationError, match="not an int"):
        rational_signature(form)
    with pytest.raises(ValidationError, match="not an int"):
        short_vectors_up_to_sign(form, 3)


def _names(tree: ast.AST):
    """Every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


INTERNAL_MODULES = ("exactlin", "shortvec")

# The public names that no library code calls, each with the reason it stays.
API_ENTRY_POINTS = {
    "lattice.diagonal_lattice": "perfbench builds every model with it",
    "moduli.transfer_isometry": "acceptance criterion 11",
    "mukai.discriminant_from_chern": "acceptance criterion 02",
    "twisted.endo_ch2": "acceptance criterion 03",
    "twisted.twisted_subobject_wall": "acceptance criterion 04",
    "walls.is_generic": "perfbench's generic stratum calls it; moduli_report runs the "
                        "check-free body after its own polarization test",
    "walls.destabilizer_wall": "ROADMAP item 2 checks each realised wall by its round trip",
}


def _uncalled(trees: dict[str, ast.AST]) -> set[str]:
    """``module.name`` of each top-level function and class, dunders aside, named nowhere
    else in ``trees``. ``__init__.py`` names its exports as strings, so it is left out."""
    trees = {name: tree for name, tree in trees.items() if name != "__init__.py"}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    return {f"{module.removesuffix('.py')}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")
            and counts[node.name] == sum(name == node.name for name in _names(node))}


LIBRARY = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def test_every_function_and_class_has_a_library_caller():
    assert not _uncalled(LIBRARY) - set(API_ENTRY_POINTS)


def test_every_api_entry_point_exists_and_has_no_library_caller():
    assert not set(API_ENTRY_POINTS) - _uncalled(LIBRARY)


def test_internal_modules_export_nothing():
    homes = {getattr(mukaikit, name).__module__ for name in mukaikit.__all__}
    assert not homes & {f"mukaikit.{m}" for m in INTERNAL_MODULES}


# The class members that no library code reads, each with the reason it stays.
MEMBER_ENTRY_POINTS = {
    "surface.K3Model.h11": "perfbench builds every polarization with it",
}


def _attributes(tree: ast.AST):
    """Every attribute name read or written in ``tree``."""
    return (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _unread_members(trees: dict[str, ast.AST]) -> set[str]:
    """``module.Class.name`` of each method and property of a top-level class, dunders
    aside, that no attribute outside its own body names in ``trees``."""
    trees = {name: tree for name, tree in trees.items() if name != "__init__.py"}
    counts = Counter(name for tree in trees.values() for name in _attributes(tree))
    return {f"{module.removesuffix('.py')}.{cls.name}.{item.name}"
            for module, tree in trees.items() for cls in tree.body
            if isinstance(cls, ast.ClassDef) for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("__")
            and counts[item.name] == sum(name == item.name for name in _attributes(item))}


def test_every_method_and_property_has_a_library_reader():
    assert not _unread_members(LIBRARY) - set(MEMBER_ENTRY_POINTS)


def test_every_member_entry_point_exists_and_has_no_library_reader():
    assert not set(MEMBER_ENTRY_POINTS) - _unread_members(LIBRARY)


def test_member_check_covers_methods_properties_and_private_members():
    trees = {
        "surface.py": ast.parse(
            "class Model:\n"
            "    def __post_init__(self):\n        self._check()\n"
            "    def _check(self):\n        pass\n"
            "    def pair(self, x):\n        return self.pair(x)\n"
            "    @property\n    def rank(self):\n        return 1\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n"
            "def square(m):\n    return m.build()\n"),
        "__init__.py": ast.parse("def f(m):\n    return m.rank\n"),
    }
    assert _unread_members(trees) == {"surface.Model.pair", "surface.Model.rank"}


def test_caller_check_covers_internal_public_functions():
    trees = {
        "exactlin.py": ast.parse("def identity(n):\n    return identity(n - 1)\n"
                                 "def _helper():\n    pass\nclass Used:\n    pass\n"),
        "walls.py": ast.parse("from .exactlin import Used\ndef __dir__():\n    pass\n"),
        "__init__.py": ast.parse("def f():\n    return identity, _helper\n"),
    }
    assert _uncalled(trees) == {"exactlin.identity", "exactlin._helper"}


def _gram_comparisons(tree: ast.AST):
    """Line numbers of comparisons with a ``.gram`` attribute on two sides."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if sum(isinstance(s, ast.Attribute) and s.attr == "gram" for s in sides) >= 2:
                yield node.lineno


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "lattice.py"],
                         ids=lambda p: p.name)
def test_lattice_identity_is_decided_in_lattice(path):
    """A lattice is its Gram, and ``Lattice.__eq__`` says so; no other
    module compares two Grams to decide whether two lattices agree."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not list(_gram_comparisons(tree))


def test_gram_comparison_check_sees_a_membership_test():
    tree = ast.parse("if x.lattice.gram != m.ns.gram:\n    pass\n")
    assert list(_gram_comparisons(tree)) == [1]


def _t11_gram_reads(tree: ast.AST) -> list[int]:
    """Line numbers of reads of ``.t11.gram``, on any object."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "gram"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "t11"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "surface.py"],
                         ids=lambda p: p.name)
def test_h11_pairing_is_decided_in_surface(path):
    """``K3Model._scaled_pair`` is the one integer pairing on H^{1,1}: no other module
    reads the transcendental Gram to pair classes of its own."""
    assert not _t11_gram_reads(ast.parse(path.read_text(encoding="utf-8")))


def test_t11_gram_check_sees_attribute_reads_only():
    source = ("gram, tgram = m.ns.gram, m.t11.gram\nty = mat_vec(self.t11.gram, y)\n"
              "t11 = cfg['t11_gram']\ngram = t11.rank\n")
    assert _t11_gram_reads(ast.parse(source)) == [1, 2]


# The modules that may read each unchecked constructor, with what proves its input:
# the wall filter's ints (``walls``), the exact reductions of validated Grams
# (``lattice``, ``moduli``) and the construction of the standard NS embedding
# (``moduli``). ``record`` gives every record a ``_trusted``; a class that is not
# listed here may have its own read nowhere, and only ``records`` assigns one.
TRUSTED_READERS = {"LatticeVector": {"lattice.py", "walls.py"},
                   "Lattice": {"lattice.py", "moduli.py"},
                   "Wall": {"walls.py"},
                   "NSEmbedding": {"moduli.py"}}


def _stray_trusted_reads(tree: ast.AST, module: str) -> list[int]:
    """Line numbers of the reads of a ``_trusted``, on a bare class or on an attribute
    of a module, that ``TRUSTED_READERS`` does not allow ``module`` to make, and of
    its assignments outside ``records``."""
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_trusted":
            owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            allowed = (TRUSTED_READERS.get(owner, ()) if isinstance(node.ctx, ast.Load)
                       else {"records.py"})
            if module not in allowed:
                stray.append(node.lineno)
    return sorted(stray)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_trusted_constructors_are_confined(path):
    """An unchecked constructor takes only input that its caller has proved, so no
    unproved path, such as a config or a public argument, can reach one."""
    assert not _stray_trusted_reads(ast.parse(path.read_text(encoding="utf-8")), path.name)


def test_trusted_read_check_flags_calls_and_aliases():
    source = ("d = LatticeVector._trusted(ns, key)\nsub = lattice.Lattice._trusted(g, 'x')\n"
              "make = LatticeVector._trusted\nw = Wall._trusted(d, sq, b)\n"
              "self = cls._trusted(g, '')\ncfg = Config._trusted(m, v, w, w2, None, None, None)\n")
    tree = ast.parse(source)
    # Unlisted: ``Config`` and ``cls`` are flagged in every module.
    assert _stray_trusted_reads(tree, "config.py") == [1, 2, 3, 4, 5, 6]
    assert _stray_trusted_reads(tree, "cli.py") == [1, 2, 3, 4, 5, 6]
    assert _stray_trusted_reads(tree, "walls.py") == [2, 5, 6]
    assert _stray_trusted_reads(tree, "moduli.py") == [1, 3, 4, 5, 6]
    assert _stray_trusted_reads(tree, "lattice.py") == [4, 5, 6]
    tree = ast.parse("cls._trusted = classmethod(make)\ndel Wall._trusted\n")
    assert _stray_trusted_reads(tree, "records.py") == []
    assert _stray_trusted_reads(tree, "walls.py") == [1, 2]
    tree = ast.parse("emb = NSEmbedding._trusted(ns, rows)\nemb = moduli.NSEmbedding._trusted\n")
    assert _stray_trusted_reads(tree, "moduli.py") == []
    assert _stray_trusted_reads(tree, "lattice.py") == [1, 2]
    assert _stray_trusted_reads(tree, "cli.py") == [1, 2]


# The check-free bodies of public functions, with the modules that may read them: the
# one that defines it, and those that run the skipped check themselves first.
CHECK_FREE_READERS = {"_walls_through": {"walls.py", "moduli.py"}}


def _stray_check_free_reads(tree: ast.AST, module: str) -> list[int]:
    """Line numbers of the names, attributes and imported names of a check-free body in
    ``CHECK_FREE_READERS`` that ``module`` may not read."""
    lines = set()
    for node in ast.walk(tree):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or (node.name if isinstance(node, ast.alias) else None))
        if module not in CHECK_FREE_READERS.get(name, {module}):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_check_free_bodies_are_confined(path):
    """A check-free body runs only after its caller has made the check it skips."""
    assert not _stray_check_free_reads(ast.parse(path.read_text(encoding="utf-8")), path.name)


def test_check_free_read_check_flags_imports_calls_and_attributes():
    source = ("from .walls import _walls_through\nfound = _walls_through(m, v, omega)\n"
              "found = walls._walls_through(m, v, omega)\nf = walls_through_class\n")
    tree = ast.parse(source)
    assert _stray_check_free_reads(tree, "cli.py") == [1, 2, 3]
    assert _stray_check_free_reads(tree, "moduli.py") == []
    assert _stray_check_free_reads(tree, "walls.py") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """``records.record`` makes the value classes; ``dataclasses`` would
    load ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every CLI child."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "dataclasses" not in set(_imported_roots(tree))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_equality_is_dataclass_generated(path):
    """No class body writes ``__eq__`` or ``__hash__``: the record generator
    (``records.record``) now makes equality and hash for every value class,
    as ``dataclass`` did before it, so identity has one definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    written = [f"{node.name}:{item.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")]
    assert not written


def _calls_of(tree: ast.AST, name: str) -> list[int]:
    """Line numbers of calls to ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_denominators_are_cleared_once_in_lattice_and_mukai():
    """A ``LatticeVector`` is integer numerators over one denominator, decided
    in its constructor; a whole Mukai vector is cleared in one map,
    ``mukai._algebraic_coords``, which takes the lcm of its three denominators.
    ``exactlin`` and ``shortvec`` clear the int rows of their own arithmetic."""
    sites = [path.name for path in SOURCES
             for _ in _calls_of(LIBRARY[path.name], "clear_denominators")]
    assert sites == ["lattice.py"]
    lcm_sites = [f"{path.stem}.{node.name}" for path in SOURCES
                 if path.stem not in INTERNAL_MODULES
                 for node in ast.walk(LIBRARY[path.name])
                 if isinstance(node, ast.FunctionDef) and _calls_of(node, "lcm")]
    assert lcm_sites == ["mukai._algebraic_coords"]


def test_call_check_sees_bare_and_attribute_calls():
    tree = ast.parse("clear_denominators(v)\nexactlin.clear_denominators(w)\nf(clear_denominators)\n")
    assert _calls_of(tree, "clear_denominators") == [1, 2]


def _import_parts(tree: ast.AST):
    """Every dotted part of every module and name that ``tree`` imports, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_walls_imports_nothing_from_twisted():
    """A twisted class reaches the wall layer as ``v_E``, a ``MukaiVector``."""
    path = Path(mukaikit.__file__).parent / "walls.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "twisted" not in set(_import_parts(tree))


def test_import_check_sees_every_form_of_import():
    for source in ("from .twisted import v_E", "def f():\n    from . import shortvec, twisted",
                   "import mukaikit.twisted", "from mukaikit import twisted"):
        assert "twisted" in set(_import_parts(ast.parse(source)))
    assert "twisted" not in set(_import_parts(ast.parse("from .mukai import twisted_sign")))


ORACLE = Path(__file__).parent / "fraction_oracle.py"

# The exact routines that the oracle checks, so it must not borrow them.
ORACLE_CHECKED = {"hermite_normal_form", "smith_normal_form", "integer_kernel_saturated",
                  "unimodular_completion"}


def _borrowed(tree: ast.AST) -> set[str]:
    """The names that ``tree`` imports from ``mukaikit`` and an oracle may not: a private
    name, a routine in ``ORACLE_CHECKED``, or a module, which would open all of them."""
    modules = {"mukaikit"} | {p.stem for p in SOURCES}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mukaikit":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names
                         if alias.name.split(".")[0] == "mukaikit")
    return {name for name in names
            if name.startswith("_") or name in ORACLE_CHECKED | modules}


def test_oracle_owns_its_exact_routines():
    """The Hermite, Smith, kernel and completion references in ``fraction_oracle`` run
    the oracle's own transform-tracking loop, not the library code they check."""
    assert not _borrowed(ast.parse(ORACLE.read_text(encoding="utf-8")))


def test_borrow_check_sees_private_names_checked_routines_and_modules():
    source = ("from mukaikit.exactlin import _xgcd, hermite_normal_form, identity, shape\n"
              "from mukaikit import exactlin\nimport mukaikit.walls\n"
              "from fractions import Fraction\n")
    assert _borrowed(ast.parse(source)) == {"_xgcd", "hermite_normal_form", "exactlin", "walls"}
