"""Exact lattice arithmetic for moduli of sheaves on K3 surfaces.

Mukai-vector algebra, twisted Chern characters, wall-and-chamber
structure of polarizations, second-cohomology lattices of moduli spaces,
and projectivity/existence criteria, all over exact rational arithmetic.

The names below load on first use (PEP 562): ``import mukaikit`` imports
no submodule, and ``mukaikit.walls_crossing_segment`` imports ``walls``
(and what it imports) the first time it is read, then binds the name here
so a second read is a plain attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "HypothesisViolation",
        "IntegralityWarning",
        "InternalError",
        "LatticeMismatchError",
        "MukaikitError",
        "ValidationError",
    ),
    "lattice": (
        "Lattice",
        "LatticeVector",
        "diagonal_lattice",
        "direct_sum",
        "discriminant_group",
        "e8_minus_lattice",
        "full_mukai_lattice",
        "k3_lattice",
        "orthogonal_complement",
        "pairing",
        "u_lattice",
    ),
    "mukai": (
        "MukaiVector",
        "TopologicalType",
        "algebraic_mukai_lattice",
        "discriminant",
        "exp_class",
        "mukai_pairing",
        "mukai_product",
        "mukai_square",
        "topological_type",
    ),
    "twisted": (
        "TwistData",
        "TwistedSheafData",
        "ch_B",
        "ch_E",
        "delta_E",
        "twisted_subobject_wall",
        "v_E",
        "w_xi",
    ),
    "surface": (
        "H11Class",
        "K3Model",
        "is_polarization",
        "is_projective_surface",
    ),
    "walls": (
        "Segment",
        "Wall",
        "destabilizer_wall",
        "is_generic",
        "same_chamber",
        "wall_bound",
        "wall_set_is_empty",
        "walls_crossing_segment",
        "walls_through_class",
    ),
    "moduli": (
        "EmbeddedMukaiVector",
        "ModuliReport",
        "NSEmbedding",
        "algebraic_h2",
        "bundle_existence_check",
        "h2_lattice",
        "irreducibility_oracle",
        "moduli_report",
        "projectivity_check",
        "standard_ns_embedding",
        "transfer_isometry",
        "transfer_multiplier",
        "transfer_image_of_v",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
