"""End-to-end classification of a generated 4D point group into a catalog name.

The coarse category comes from the left and right quaternion groups: both
cyclic/dihedral means toroidal, exactly one polyhedral means tubical, both
polyhedral means polyhedral-or-axial.  Inputs must be in standard position
(invariant torus T_i^i, Hopf bundle H^i, or the standard quaternion groups);
there is no general O(4) conjugacy search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import (
    AXIAL_FAMILIES,
    GroupSpec,
    POLYHEDRAL_ORDERS,
    TUBICAL_FAMILIES,
    build,
    polyhedral_spec,
    right_variant,
    spec_order,
    tubical_spec,
)
from .constants import ONE
from .group import (
    PointGroup,
    Transform4,
    classify_quat_group,
    equals,
    from_elements,
    left_right_groups,
)


class ClassificationError(ValueError):
    pass


@dataclass(frozen=True)
class Category:
    tag: str  # "toroidal" | "tubical-left" | "tubical-right" | "polyhedral-or-axial"


def category(G: PointGroup) -> Category:
    L, R = left_right_groups(G)
    tl = classify_quat_group(L)
    tr = classify_quat_group(R)
    if tl.polyhedral and tr.polyhedral:
        return Category("polyhedral-or-axial")
    if tl.polyhedral:
        return Category("tubical-left")
    if tr.polyhedral:
        return Category("tubical-right")
    return Category("toroidal")


def _mirror_group(G: PointGroup) -> PointGroup:
    """Component swap [l,r] -> [r,l]; valid mirror for chiral groups."""
    els = []
    for g in G.elements:
        if g.star:
            raise ClassificationError("tubical groups are chiral")
        els.append(Transform4(False, g.r, g.l))
    return from_elements(els)


def _right_kernel(G: PointGroup) -> frozenset:
    from .algebra import quat_neg
    out = set()
    for g in G.elements:
        if not g.star and g.l == ONE:
            out.add(g.r)
            out.add(quat_neg(g.r))
    return frozenset(out)


def _left_kernel(G: PointGroup) -> frozenset:
    from .algebra import quat_neg
    out = set()
    for g in G.elements:
        if not g.star and g.r == ONE:
            out.add(g.l)
            out.add(quat_neg(g.l))
    return frozenset(out)


# family -> (left type, order factor, R type kind, R size / n, R0 kind,
#            R0 size / n, L0 type)
_TUBICAL_SHAPE = {
    "+-[IxC]": ("I", 120, "C", 1, "C", 1, "I"),
    "+-[OxC]": ("O", 48, "C", 1, "C", 1, "O"),
    "+-1/2[OxC2]": ("O", 48, "C", 2, "C", 1, "T"),
    "+-[TxC]": ("T", 24, "C", 1, "C", 1, "T"),
    "+-1/3[TxC3]": ("T", 24, "C", 3, "C", 1, "D4"),
    "+-[IxD2]": ("I", 240, "D", 1, "D", 1, "I"),
    "+-[OxD2]": ("O", 96, "D", 1, "D", 1, "O"),
    "+-1/2[OxDb4]": ("O", 96, "D", 2, "D", 1, "T"),
    "+-1/2[OxD2]": ("O", 48, "D", 1, "C", 1, "T"),
    "+-1/6[OxD6]": ("O", 48, "D", 3, "C", 1, "D4"),
    "+-[TxD2]": ("T", 48, "D", 1, "D", 1, "T"),
}


def _quat_group_shape(S: frozenset):
    t = classify_quat_group(S)
    if t.kind == "C":
        return ("C", t.n)
    if t.kind == "D":
        return ("D", t.n)
    return (t.kind, 0)


def _classify_tubical_left(G: PointGroup) -> GroupSpec:
    L, R = left_right_groups(G)
    ltype = classify_quat_group(L)
    rshape = _quat_group_shape(R)
    r0shape = _quat_group_shape(_right_kernel(G))
    l0 = classify_quat_group(_left_kernel(G))
    if l0.kind == "D" and l0.n == 2:
        l0tag = "D4"
    else:
        l0tag = l0.kind
    for fam, (P, fac, rk, rmul, r0k, r0mul, l0k) in _TUBICAL_SHAPE.items():
        if P != ltype.kind or l0k != l0tag:
            continue
        if len(G.elements) % fac:
            continue
        n = len(G.elements) // fac
        if n < TUBICAL_FAMILIES[fam].n_min:
            continue
        if rshape != (rk, rmul * n) or r0shape != (r0k, r0mul * n):
            continue
        spec = tubical_spec(fam, n)
        if equals(build(spec), G):
            return spec
    raise ClassificationError("no tubical catalog match (non-standard coordinates?)")


@lru_cache(maxsize=None)
def _finite_catalog_by_order():
    index = {}
    for name in POLYHEDRAL_ORDERS:
        index.setdefault(POLYHEDRAL_ORDERS[name], []).append(polyhedral_spec(name))
    for fam in AXIAL_FAMILIES:
        sp = GroupSpec("axial", fam)
        index.setdefault(spec_order(sp), []).append(sp)
    return index


def _classify_finite(G: PointGroup) -> GroupSpec:
    # no fingerprint prefilter: equal element sets have equal fingerprints
    candidates = _finite_catalog_by_order().get(len(G.elements), [])
    matches = [sp for sp in candidates if equals(build(sp), G)]
    if len(matches) == 1:
        return matches[0]
    raise ClassificationError("no catalog match among polyhedral/axial groups")


def classify(G: PointGroup) -> GroupSpec:
    cat = category(G)
    if cat.tag == "toroidal":
        from .toroidal import classify_toroidal
        return classify_toroidal(G)
    if cat.tag == "tubical-left":
        return _classify_tubical_left(G)
    if cat.tag == "tubical-right":
        return right_variant(_classify_tubical_left(_mirror_group(G)))
    return _classify_finite(G)
