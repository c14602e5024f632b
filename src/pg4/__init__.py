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

# The float layer imports numpy and scipy, so its modules and names load on
# first use (PEP 562).
_FLOAT_LAYER = {
    "hopf": ("CliffordTorus", "GreatCircle", "circle_distance", "circle_sample", "hopf_map",
             "stabilizer_rotation_angle", "tangential_slice_map", "torus_distance",
             "transform_circle"),
    "orbits": ("Mesh", "Orbit", "color_orbits", "export_mesh", "induced_group", "orbit",
               "orbit_circle_polygon", "polar_cell", "screw_angles"),
}
_LAZY = {name: module for module, names in _FLOAT_LAYER.items() for name in (module, *names)}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))
__version__ = "0.1.0"
