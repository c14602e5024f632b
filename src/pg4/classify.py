"""End-to-end classification of a generated 4D point group into a catalog name.

The coarse category comes from the left and right quaternion groups: both
cyclic/dihedral means toroidal, exactly one polyhedral means tubical, both
polyhedral means polyhedral-or-axial.  Inputs must be in standard position
(invariant torus T_i^i, Hopf bundle H^i, or the standard quaternion groups);
there is no general O(4) conjugacy search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import quat_neg
from .catalog import (
    AXIAL_FAMILIES,
    GroupSpec,
    POLYHEDRAL_FAMILIES,
    TUBICAL_FAMILIES,
    build,
    polyhedral_spec,
    spec_order,
    tubical_spec,
)
from .constants import ONE
from .group import (
    PointGroup,
    QuatGroupType,
    classify_quat_group,
    equals,
    left_right_types,
)


class ClassificationError(ValueError):
    pass


@dataclass(frozen=True)
class Category:
    tag: str  # "toroidal" | "tubical-left" | "tubical-right" | "polyhedral-or-axial"
    # the types of the left and right quaternion groups the tag was read from
    left: QuatGroupType | None = field(default=None, compare=False, repr=False)
    right: QuatGroupType | None = field(default=None, compare=False, repr=False)


def category(G: PointGroup) -> Category:
    tl, tr = left_right_types(G)
    if tl.polyhedral and tr.polyhedral:
        return Category("polyhedral-or-axial", tl, tr)
    if tl.polyhedral:
        return Category("tubical-left", tl, tr)
    if tr.polyhedral:
        return Category("tubical-right", tl, tr)
    return Category("toroidal", tl, tr)


def _kernels(G: PointGroup) -> tuple:
    """(L0, R0): the l of the elements [l, 1] and the r of the elements [1, r], both signs."""
    L0, R0 = set(), set()
    for g in G.elements:
        if g.star:
            continue
        if g.r == ONE:
            L0.update((g.l, quat_neg(g.l)))
        if g.l == ONE:
            R0.update((g.r, quat_neg(g.r)))
    return frozenset(L0), frozenset(R0)


def _classify_tubical(G: PointGroup, cat: Category) -> GroupSpec:
    """Match the Goursat data of G, read from its polyhedral side, against the
    family table; a right group is matched with its two sides swapped."""
    right = cat.tag == "tubical-right"
    L0, R0 = _kernels(G)
    ltype, rt, L0, R0 = (cat.right, cat.left, R0, L0) if right else (cat.left, cat.right, L0, R0)
    l0, r0t = classify_quat_group(L0), classify_quat_group(R0)
    l0tag = "D4" if (l0.kind, l0.n) == ("D", 2) else l0.kind
    for fam in TUBICAL_FAMILIES.values():
        if fam.left_type != ltype.kind or fam.l0 != l0tag:
            continue
        n, rem = divmod(len(G), fam.order_factor)
        if rem or n < fam.n_min:
            continue
        (rk, rmul), (r0k, r0mul) = fam.r_shape, fam.r0_shape
        if (rt.kind, rt.n) != (rk, rmul * n) or (r0t.kind, r0t.n) != (r0k, r0mul * n):
            continue
        spec = tubical_spec(fam.mirror_name if right else fam.name, n)
        if equals(build(spec), G):
            return spec
    raise ClassificationError("no tubical catalog match (non-standard coordinates?)")


@lru_cache(maxsize=None)
def _finite_catalog_by_order():
    index = {}
    for sp in ([polyhedral_spec(name) for name in POLYHEDRAL_FAMILIES]
               + [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES]):
        index.setdefault(spec_order(sp), []).append(sp)
    return index


def _classify_finite(G: PointGroup) -> GroupSpec:
    # no fingerprint prefilter: equal element sets have equal fingerprints
    candidates = _finite_catalog_by_order().get(len(G), [])
    matches = [sp for sp in candidates if equals(build(sp), G)]
    if len(matches) == 1:
        return matches[0]
    raise ClassificationError("no catalog match among polyhedral/axial groups")


def classify(G: PointGroup) -> GroupSpec:
    cat = category(G)
    if cat.tag == "toroidal":
        from .toroidal import classify_toroidal
        return classify_toroidal(G)
    if cat.tag in ("tubical-left", "tubical-right"):
        return _classify_tubical(G, cat)
    return _classify_finite(G)
