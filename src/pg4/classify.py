"""End-to-end classification of a generated 4D point group into a catalog name.

The coarse category comes from the left and right quaternion groups: both
cyclic/dihedral means toroidal, exactly one polyhedral means tubical, both
polyhedral means polyhedral-or-axial.  An encoded group (``cyclo_codes``) has
only CycloQuat components, so its sides are cyclic or dihedral: ``classify``
hands it to ``classify_toroidal``, which reads its torus form (a lattice
basis and one offset per tag) in O(tags) steps, without a closure sweep and
without reading the side types.  Any other group goes through ``category``.  Inputs must be in
standard position (invariant torus T_i^i, Hopf bundle H^i, or the standard
quaternion groups); there is no general O(4) conjugacy search.

A tubical, polyhedral or axial group is named as the one catalog spec of its
order, among the specs of ``catalog._other_specs_of_order(len(G))`` on the
side the category was read from: the tubical specs of G's variant whose
polyhedral group is G's, or the polyhedral and axial specs.  A tubical
candidate is confirmed without a closure, by its generators lying in G:
``build`` checks the candidate's order against the closure of those
generators, and that order is ``len(G)``, so by Lagrange they generate G.  A
polyhedral or axial candidate is confirmed by set equality with its built
group.  Exactly one candidate must be confirmed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import quat_neg
from .catalog import (
    GroupSpec,
    TUBICAL_FAMILIES,
    _other_specs_of_order,
    build,
    family_row,
    tubical_generators,
)
from .constants import ONE
from .group import (
    PointGroup,
    QuatGroupType,
    classify_quat_group,
    equals,
    left_right_types,
)
from .toroidal import classify_toroidal


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


def _classify_catalog(G: PointGroup, cat: Category) -> GroupSpec:
    """The one catalog spec of order ``len(G)`` on the side ``category`` read:
    a tubical spec of G's variant and polyhedral type, confirmed by
    ``_holds_generators``, or a polyhedral or axial spec, confirmed by
    ``equals(build(spec), G)``."""
    specs = _other_specs_of_order(len(G))
    if cat.tag == "polyhedral-or-axial":
        candidates = [sp for sp in specs if sp.kind != "tubical"]
    else:
        right = cat.tag == "tubical-right"
        ptype = (cat.right if right else cat.left).kind
        candidates = [sp for sp in specs if sp.kind == "tubical"
                      and (sp.family not in TUBICAL_FAMILIES) == right
                      and family_row(sp).left_type == ptype]
    matches = [sp for sp in candidates if (_holds_generators(G, sp) if sp.kind == "tubical"
                                           else equals(build(sp), G))]
    if len(matches) == 1:
        return matches[0]
    if cat.tag == "polyhedral-or-axial":
        raise ClassificationError(
            f"classify: polyhedral-or-axial group of order {len(G)} matches {len(matches)} "
            f"of the {len(candidates)} polyhedral/axial catalog groups of that order, not one")
    l0t, r0t = map(classify_quat_group, _kernels(G))
    raise ClassificationError(
        f"classify: {cat.tag} group of order {len(G)} (L {cat.left}, R {cat.right}, "
        f"L0 {l0t}, R0 {r0t}) matches no catalog family (non-standard coordinates?)")


def _holds_generators(G: PointGroup, spec: GroupSpec) -> bool:
    """Every generator of the tubical spec lies in G; for a G of order
    ``spec_order(spec)`` this is ``equals(build(spec), G)``."""
    elements = G.elements
    return all(g in elements for g in tubical_generators(spec))


def classify(G: PointGroup) -> GroupSpec:
    if G.cyclo_codes is not None:  # CycloQuat sides only: C or D, so toroidal
        return classify_toroidal(G)
    cat = category(G)
    if cat.tag == "toroidal":
        return classify_toroidal(G)
    return _classify_catalog(G, cat)
