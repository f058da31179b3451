"""Exact lattice arithmetic for moduli of sheaves on K3 surfaces.

Mukai-vector algebra, twisted Chern characters, wall-and-chamber
structure of polarizations, second-cohomology lattices of moduli spaces,
and projectivity/existence criteria, all over exact rational arithmetic.
"""

from .errors import (
    HypothesisViolation,
    IntegralityWarning,
    InternalError,
    LatticeMismatchError,
    MukaikitError,
    ValidationError,
)
from .lattice import (
    Lattice,
    LatticeVector,
    content,
    diagonal_lattice,
    direct_sum,
    discriminant_group,
    e8_minus_lattice,
    full_mukai_lattice,
    k3_lattice,
    orthogonal_complement,
    pairing,
    standard_lattice,
    u_lattice,
)
from .mukai import (
    MukaiVector,
    TopologicalType,
    discriminant,
    dual,
    exp_class,
    mukai_from_chern,
    mukai_pairing,
    mukai_product,
    mukai_sqrt,
    mukai_square,
    topological_type,
)
from .twisted import (
    TwistData,
    TwistedSheafData,
    ch_B,
    ch_E,
    delta_E,
    slope_E,
    twisted_subobject_wall,
    v_E,
    w_xi,
)
from .surface import (
    H11Class,
    K3Model,
    is_polarization,
    is_projective_surface,
    project_to_ns,
)
from .walls import (
    Segment,
    Wall,
    WallProfile,
    destabilizer_wall,
    is_generic,
    is_wall,
    same_chamber,
    wall_bound,
    wall_set_is_empty,
    walls_crossing_segment,
    walls_through_class,
)
from .moduli import (
    EmbeddedMukaiVector,
    ModuliReport,
    bundle_existence_check,
    h2_lattice,
    irreducibility_oracle,
    moduli_report,
    projectivity_check,
    standard_ns_embedding,
    transfer_isometry,
    transfer_multiplier,
    transfer_image_of_v,
)

__version__ = "0.1.0"
