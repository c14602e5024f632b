"""Exact construction, classification, counting and geometry of the
4-dimensional point groups."""

from .algebra import (
    AlgQuat,
    AngleFraction,
    CycloQuat,
    FieldElem,
    Rational,
    angle_of,
    quat,
    quat_conj,
    quat_mul,
    quat_real,
)
from .catalog import (
    GroupSpec,
    SpecError,
    build,
    cs_name_type1,
    list_catalog,
    parse_spec,
    polyhedral_spec,
    right_variant,
    spec_order,
    toroidal_spec,
    tubical_spec,
)
from .classify import Category, ClassificationError, category, classify
from .constants import NAMED, e_n
from .counting import OrderCensus, OrderError, brute_force_census, count_order, count_self_mirror
from .group import (
    Fingerprint,
    GoursatData,
    PointGroup,
    conjugate,
    contains,
    equals,
    extend_achiral,
    fingerprint,
    generate,
    goursat_group,
    is_chiral,
    left_right_groups,
    order,
)
from .hopf import (
    CliffordTorus,
    GreatCircle,
    circle_distance,
    circle_sample,
    hopf_map,
    stabilizer_rotation_angle,
    tangential_slice_map,
    torus_distance,
    transform_circle,
)
from .orbits import (
    Mesh,
    Orbit,
    color_orbits,
    export_mesh,
    induced_group,
    orbit,
    orbit_circle_polygon,
    polar_cell,
    screw_angles,
)
from .toroidal import (
    TorusLattice,
    canonicalize_duplicates,
    classify_toroidal,
    normalize_lattice,
    to_torus_rep,
)
from .transform import (
    ElementCode,
    Transform4,
    apply,
    compose,
    element_code,
    inverse,
    to_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
