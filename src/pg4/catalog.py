"""Catalog of the 4-dimensional point groups.

Families and canonical parameter ranges:

* 11 left tubical one-parameter families and their 11 right mirrors,
* 25 infinite families of toroidal groups (torus translation, flip,
  reflection, swap, full-swap, full-reflection, swapturn and full torus
  groups, with wallpaper-style subtypes),
* 25 polyhedral groups,
* 21 axial groups (7 pyramidal, 7 prismatic, 7 hybrid).

The family records are the one place for family facts: ``TUBICAL_FAMILIES``
(order factor, ``n_min``, induced 3D group, generators, Goursat shape),
``TOROIDAL_FAMILIES`` (parameters, chirality, order factor, parameter range,
generators) and ``POLYHEDRAL_FAMILIES`` (order, Coxeter alias, and either the
recipe of a chiral group or the base and fixed reversing element of an
index-2 extension) hold one row per family; the axial orders and chiralities
follow from the tags of ``_G3``.
``build``, ``spec_order``, ``spec_chiral``, ``constraints_ok``,
classification and counting all read them.

``build`` turns a ``GroupSpec`` into the actual ``PointGroup``; parameter
constraints follow the overview tables, so the catalog is duplicate-free by
construction.  ``build_unchecked`` also accepts out-of-range toroidal
parameters, which is what the duplication machinery exercises; where a
lattice step would divide by zero it raises ``SpecError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable

from .algebra import CycloQuat, Quat, exp_i, quat_mul, quat_neg
from .constants import (
    MINUS_J,
    MINUS_K,
    MINUS_ONE,
    OMEGA,
    I_I,
    I_I_PRIME,
    I_O,
    ONE,
    QI,
    QJ,
    QK,
    e_n,
    quaternion_Q8,
    two_I,
    two_O,
    two_T,
)
from . import group
from .group import (
    ClosureCapExceeded,
    PointGroup,
    Transform4,
    extend_achiral,
    from_elements,
    generate,
)
from .transform import reflection, rotation

Q = Fraction


@dataclass(frozen=True, order=True)
class GroupSpec:
    """A catalog name: kind, family id and integer parameters."""

    kind: str        # "tubical" | "toroidal" | "polyhedral" | "axial"
    family: str
    params: tuple = ()   # ordered ((name, value), ...)

    def param(self, name: str) -> int:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def spec_string(self) -> str:
        if self.kind == "tubical":
            return f"tub:{self.family}:n={self.param('n')}"
        if self.kind == "toroidal":
            ps = ",".join(f"{k}={v}" for k, v in self.params)
            return f"tor:{self.family}:{ps}"
        if self.kind == "polyhedral":
            return f"poly:{self.family}"
        kind, g3 = self.family.split(":", 1)
        if kind == "hyb":
            h, g = g3.split("<", 1)
            return f"axial:hyb:{h}:in={g}"
        return f"axial:{kind}:{g3}"

    def __str__(self):
        return self.spec_string()


class SpecError(ValueError):
    pass


class ParseError(SpecError):
    pass


def tubical_spec(family: str, n: int) -> GroupSpec:
    return GroupSpec("tubical", family, (("n", n),))


def toroidal_spec(family: str, **params) -> GroupSpec:
    names = TOROIDAL_FAMILIES[family].param_names
    return GroupSpec("toroidal", family, tuple((k, int(params[k])) for k in names))


def polyhedral_spec(name: str) -> GroupSpec:
    return GroupSpec("polyhedral", name)


# ---------------------------------------------------------------------------
# tubical families

@dataclass(frozen=True)
class TubicalFamily:
    """A left tubical family +-(1/f)[P x R] with parameter n, and its mirror.

    The Goursat shape that classification matches: ``r_shape`` and
    ``r0_shape`` are (kind, k) for the right group R and the right kernel
    R0 = {r : [1, r] in G}, whose ``classify_quat_group`` type is kind with
    parameter k * n; ``l0`` tags the left kernel L0 = {l : [l, 1] in G}
    ("I", "O", "T", or "D4" for the quaternion group).
    """

    name: str          # left-variant label
    mirror_name: str   # right-variant label
    order_factor: int  # |G| = order_factor * n
    n_min: int
    induced: str       # G^h on the Hopf sphere
    pairs: Callable    # n -> (l, r) generator pairs of the left variant
    r_shape: tuple
    r0_shape: tuple
    l0: str

    @property
    def left_type(self) -> str:
        """The polyhedral left group P of the name: "I", "O" or "T"."""
        return self.name[self.name.index("[") + 1]

    def generators(self, n: int) -> list:
        """Rotations generating the left variant with parameter n."""
        return [rotation(l, r) for l, r in self.pairs(n)]


TUBICAL_FAMILIES = {f.name: f for f in (
    TubicalFamily("+-[IxC]", "+-[CxI]", 120, 1, "+I",
                  lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n))],
                  ("C", 1), ("C", 1), "I"),
    TubicalFamily("+-[OxC]", "+-[CxO]", 48, 1, "+O",
                  lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n))],
                  ("C", 1), ("C", 1), "O"),
    TubicalFamily("+-1/2[OxC2]", "+-1/2[C2xO]", 48, 1, "+O",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, e_n(2 * n))],
                  ("C", 2), ("C", 1), "T"),
    TubicalFamily("+-[TxC]", "+-[CxT]", 24, 1, "+T",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n))],
                  ("C", 1), ("C", 1), "T"),
    TubicalFamily("+-1/3[TxC3]", "+-1/3[C3xT]", 24, 1, "+T",
                  lambda n: [(QI, ONE), (ONE, e_n(n)), (OMEGA, e_n(3 * n))],
                  ("C", 3), ("C", 1), "D4"),
    TubicalFamily("+-[IxD2]", "+-[D2xI]", 240, 2, "+-I",
                  lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
                  ("D", 1), ("D", 1), "I"),
    TubicalFamily("+-[OxD2]", "+-[D2xO]", 96, 2, "+-O",
                  lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
                  ("D", 1), ("D", 1), "O"),
    TubicalFamily("+-1/2[OxDb4]", "+-1/2[Db4xO]", 96, 2, "+-O",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ), (I_O, e_n(2 * n))],
                  ("D", 2), ("D", 1), "T"),
    TubicalFamily("+-1/2[OxD2]", "+-1/2[D2xO]", 48, 2, "TO",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, QJ)],
                  ("D", 1), ("C", 1), "T"),
    TubicalFamily("+-1/6[OxD6]", "+-1/6[D6xO]", 48, 1, "TO",
                  lambda n: [(QI, ONE), (ONE, e_n(n)), (I_O, QJ), (OMEGA, e_n(3 * n))],
                  ("D", 3), ("C", 1), "D4"),
    TubicalFamily("+-[TxD2]", "+-[D2xT]", 48, 2, "+-T",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
                  ("D", 1), ("D", 1), "T"),
)}

TUBICAL_LEFT = list(TUBICAL_FAMILIES)

_TUBICAL_MIRROR = {}
for _f in TUBICAL_FAMILIES.values():
    _TUBICAL_MIRROR[_f.name] = _f.mirror_name
    _TUBICAL_MIRROR[_f.mirror_name] = _f.name


def tubical_base(family: str) -> str:
    """Left-variant family id for either chirality."""
    return family if family in TUBICAL_FAMILIES else _TUBICAL_MIRROR[family]


def right_variant(spec: GroupSpec) -> GroupSpec:
    """The mirror tubical family (pair components of every generator swapped)."""
    if spec.kind != "tubical":
        raise SpecError("right_variant expects a tubical spec")
    return tubical_spec(_TUBICAL_MIRROR[spec.family], spec.param("n"))


def tubical_generators(spec: GroupSpec) -> list:
    """The generators of a tubical spec; a right variant has the two sides
    of every left-variant generator swapped."""
    fam = TUBICAL_FAMILIES[tubical_base(spec.family)]
    gens = fam.generators(spec.param("n"))
    if spec.family != fam.name:
        gens = [rotation(g.r, g.l) for g in gens]
    return gens


def _build_tubical(spec: GroupSpec) -> PointGroup:
    return generate(tubical_generators(spec))


# ---------------------------------------------------------------------------
# toroidal families

def _grid(m: int, n: int) -> list:
    """The translations 1/m and 1/n along the two torus axes."""
    return [rotation(exp_i(Q(1, m)), ONE), rotation(ONE, exp_i(Q(1, n)))]


def _rhombic(m: int, n: int) -> list:
    """The cm lattice: the 2/m, 2/n grid and its centre (1/m, 1/n)."""
    return [
        rotation(exp_i(Q(2, m)), ONE),
        rotation(ONE, exp_i(Q(2, n))),
        rotation(exp_i(Q(1, m)), exp_i(Q(1, n))),
    ]


def _diagonal(m: int, n: int) -> list:
    """The translations 1/m along x = y and 1/n along x = -y."""
    return [
        rotation(exp_i(Q(1, m)), exp_i(Q(1, m))),
        rotation(exp_i(Q(1, n)), exp_i(Q(-1, n))),
    ]


def _mid(m: int, n: int) -> Transform4:
    """The cm mid-translation of the diagonal lattice."""
    return rotation(exp_i(Q(1, 2 * m) + Q(1, 2 * n)), exp_i(Q(1, 2 * m) - Q(1, 2 * n)))


def _glide(k: int) -> Fraction:
    """Half a turn plus half the step 1/k."""
    return Q(1, 2 * k) + Q(1, 2)


def _translations(m: int, n: int, s: int) -> list:
    """The m n translation lattice of shift s."""
    return [
        rotation(exp_i(Q(-2, m)), ONE),
        rotation(exp_i(Q(-(m + 2 * s), m * n)), exp_i(Q(1, n))),
    ]


def _swapturn(a: int, b: int) -> list:
    c2 = a * a + b * b
    return [
        rotation(exp_i(Q(-(a + b), c2)), exp_i(Q(a - b, c2))),
        rotation(exp_i(Q(a - b, c2)), exp_i(Q(a + b, c2))),
        reflection(MINUS_J, ONE),
    ]


def _even(m_min: int, n_min: int) -> Callable:
    return lambda m, n: m % 2 == 0 and n % 2 == 0 and m >= m_min and n >= n_min


def _same_parity(m_min: int, n_min: int) -> Callable:
    return lambda m, n: m >= m_min and n >= n_min and (m - n) % 2 == 0


def _positive(m: int, n: int) -> bool:
    return m >= 1 and n >= 1


def _descending(m: int, n: int) -> bool:
    return m >= n >= 1 and (m, n) != (1, 1)


def _shift_ok(m: int, n: int, s: int) -> bool:
    return m >= 1 and n >= 1 and -m <= 2 * s <= n - m


@dataclass(frozen=True)
class ToroidalFamily:
    """A toroidal family: its canonical parameter range and its generators,
    both functions of the parameters in ``param_names`` order."""

    family: str
    param_names: tuple
    chiral: bool
    order_factor: int     # |G| = order_factor * (m n, a^2 + b^2 or n^2)
    in_range: Callable    # (*params) -> bool
    generators: Callable  # (*params) -> generator transforms


TOROIDAL_FAMILIES = {f.family: f for f in (
    ToroidalFamily("1", ("m", "n", "s"), True, 1, _shift_ok, _translations),
    ToroidalFamily(".", ("m", "n", "s"), True, 2,
                   lambda m, n, s: _shift_ok(m, n, s) and (m, n) not in ((1, 1), (2, 1)),
                   lambda m, n, s: _translations(m, n, s) + [rotation(QJ, QJ)]),
    ToroidalFamily("\\/pm", ("m", "n"), True, 1, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [rotation(MINUS_K, QI)]),
    ToroidalFamily("\\/pg", ("m", "n"), True, 1, _even(4, 2),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(MINUS_K, exp_i(_glide(n // 2)))]),
    ToroidalFamily("\\/cm", ("m", "n"), True, 2, _same_parity(3, 2),
                   lambda m, n: _rhombic(m, n) + [rotation(MINUS_K, QI)]),
    ToroidalFamily("//pm", ("m", "n"), True, 1, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [rotation(QI, QK)]),
    ToroidalFamily("//pg", ("m", "n"), True, 1, _even(2, 4),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(exp_i(_glide(m // 2)), QK)]),
    ToroidalFamily("//cm", ("m", "n"), True, 2, _same_parity(2, 3),
                   lambda m, n: _rhombic(m, n) + [rotation(QI, QK)]),
    ToroidalFamily("X/p2mm", ("m", "n"), True, 2, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(QI, QK), rotation(MINUS_K, QI)]),
    ToroidalFamily("X/p2mg", ("m", "n"), True, 2, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(QI, CycloQuat(_glide(n // 2), 1)),
                       rotation(MINUS_K, exp_i(_glide(n // 2))),
                   ]),
    ToroidalFamily("X/p2gm", ("m", "n"), True, 2, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(exp_i(_glide(m // 2)), QK),
                       rotation(CycloQuat(_glide(m // 2) + 1, 1), QI),
                   ]),
    ToroidalFamily("X/p2gg", ("m", "n"), True, 2, _even(4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(exp_i(_glide(m // 2)), CycloQuat(_glide(n // 2), 1)),
                       rotation(CycloQuat(_glide(m // 2) + 1, 1), exp_i(_glide(n // 2))),
                   ]),
    ToroidalFamily("X/c2mm", ("m", "n"), True, 4, _same_parity(3, 3),
                   lambda m, n: _rhombic(m, n) + [rotation(QI, QK), rotation(MINUS_K, QI)]),
    ToroidalFamily("|/pm", ("m", "n"), False, 2, _positive,
                   lambda m, n: _diagonal(m, n) + [reflection(QI, QI)]),
    ToroidalFamily("|/pg", ("m", "n"), False, 2, _positive,
                   lambda m, n: _diagonal(m, n)
                   + [reflection(exp_i(_glide(m)), exp_i(_glide(m)))]),
    ToroidalFamily("|/cm", ("m", "n"), False, 4, _positive,
                   lambda m, n: _diagonal(m, n) + [_mid(m, n), reflection(QI, QI)]),
    ToroidalFamily("+/p2mm", ("m", "n"), False, 4, _descending,
                   lambda m, n: _diagonal(m, n) + [reflection(QI, QI), reflection(QK, QK)]),
    ToroidalFamily("+/p2mg", ("m", "n"), False, 4,
                   lambda m, n: _positive(m, n) and (m, n) != (1, 1),
                   lambda m, n: _diagonal(m, n) + [
                       reflection(exp_i(_glide(n)), exp_i(Q(1, 2) - Q(1, 2 * n))),
                       reflection(CycloQuat(Q(1, 2) - Q(1, 2 * n), 1), CycloQuat(_glide(n), 1)),
                   ]),
    ToroidalFamily("+/p2gg", ("m", "n"), False, 4, _descending,
                   lambda m, n: _diagonal(m, n) + [
                       reflection(exp_i(Q(1, 2) + Q(1, 2 * m) + Q(1, 2 * n)),
                                  exp_i(Q(1, 2) + Q(1, 2 * m) - Q(1, 2 * n))),
                       reflection(CycloQuat(Q(1, 2) - Q(1, 2 * m) - Q(1, 2 * n), 1),
                                  CycloQuat(Q(1, 2) - Q(1, 2 * m) + Q(1, 2 * n), 1)),
                   ]),
    ToroidalFamily("+/c2mm", ("m", "n"), False, 8, _descending,
                   lambda m, n: _diagonal(m, n)
                   + [_mid(m, n), reflection(QI, QI), reflection(QK, QK)]),
    ToroidalFamily("L", ("a", "b"), False, 4,
                   lambda a, b: a >= b >= 0 and a >= 2 and (a, b) != (2, 0), _swapturn),
    ToroidalFamily("*/p4mmU", ("n",), False, 8, lambda n: n >= 3,
                   lambda n: _diagonal(n, n) + [rotation(QI, QK), reflection(QI, QI)]),
    ToroidalFamily("*/p4gmU", ("n",), False, 8, lambda n: n >= 3,
                   lambda n: _diagonal(n, n) + [
                       rotation(exp_i(Q(1, 2) + Q(1, n)), QK),
                       reflection(exp_i(Q(1, 2) + Q(1, n)), QI),
                   ]),
    ToroidalFamily("*/p4mmS", ("n",), False, 16, lambda n: n >= 2,
                   lambda n: _grid(n, n) + [rotation(QI, QK), reflection(QI, QI)]),
    ToroidalFamily("*/p4gmS", ("n",), False, 16, lambda n: n >= 2,
                   lambda n: _grid(n, n) + [
                       rotation(exp_i(_glide(n)), CycloQuat(Q(1, 2) - Q(1, 2 * n), 1)),
                       reflection(exp_i(_glide(n)), exp_i(_glide(n))),
                   ]),
)}


def _lattice_size(p: dict) -> int:
    """m n, a^2 + b^2 or n^2: the order of a toroidal group over its order factor."""
    if "a" in p:
        return p["a"] ** 2 + p["b"] ** 2
    if "m" in p:
        return p["m"] * p["n"]
    return p["n"] ** 2


def _s_range(m: int, n: int):
    """The shifts s with -m <= 2 s <= n - m."""
    return range(-(m // 2), (n - m) // 2 + 1)


def _toroidal_family(spec: GroupSpec) -> ToroidalFamily:
    try:
        return TOROIDAL_FAMILIES[spec.family]
    except KeyError:
        raise SpecError(f"unknown toroidal family {spec.family}") from None


# ---------------------------------------------------------------------------
# polyhedral groups

def _pairs_group(pairs) -> PointGroup:
    return from_elements(Transform4(False, l, r) for l, r in pairs)


def _full_product(L: frozenset, R: frozenset) -> PointGroup:
    return _pairs_group((l, r) for l in L for r in R)


def _coset_index(S: frozenset, N: frozenset) -> dict:
    """Map each element of S to a frozenset coset of the normal subgroup N."""
    cosets = {}
    for q in S:
        if q not in cosets:
            cs = frozenset(quat_mul(q, h) for h in N)
            for x in cs:
                cosets[x] = cs
    return cosets


def _fraction_group(S: frozenset, N: frozenset) -> PointGroup:
    """{[l, r] : l N = r N}, the identity-pairing index-f subgroup."""
    cosets = _coset_index(S, N)
    return _pairs_group((l, r) for l in S for r in cosets[l])


def _simplex_group(r: Quat) -> PointGroup:
    """The twisted-diagonal icosahedral group of the 4-simplex generated by
    [w, w] and [i_I, r]: diploid for r = -i_I', not for r = i_I'."""
    return generate([rotation(OMEGA, OMEGA), rotation(I_I, r)])


_STAR = reflection(ONE, ONE)
_MINUS_STAR = reflection(ONE, MINUS_ONE)


@dataclass(frozen=True)
class PolyhedralFamily:
    """A polyhedral group: a chiral group and its recipe, or the index-2
    extension of the chiral group ``base`` by the reversing element ``ext``."""

    name: str      # Conway-Smith name
    order: int
    coxeter: str   # Coxeter-style alias, accepted by parse_spec
    recipe: Callable | None = None   # () -> the chiral group
    base: str | None = None
    ext: Transform4 | None = None

    @property
    def chiral(self) -> bool:
        return self.ext is None


POLYHEDRAL_FAMILIES = {f.name: f for f in (
    PolyhedralFamily("+-[TxT]", 288, "[+3,4,3+]", lambda: _full_product(two_T(), two_T())),
    PolyhedralFamily("+-1/3[TxT]", 96, "[+3,3,4+]",
                     lambda: _fraction_group(two_T(), quaternion_Q8())),
    PolyhedralFamily("+-[TxO]", 576, "[[+3,4,3+]]R", lambda: _full_product(two_T(), two_O())),
    PolyhedralFamily("+-[OxT]", 576, "[[+3,4,3+]]L", lambda: _full_product(two_O(), two_T())),
    PolyhedralFamily("+-[TxI]", 1440, "[3,3,5]+_1/5R", lambda: _full_product(two_T(), two_I())),
    PolyhedralFamily("+-[IxT]", 1440, "[3,3,5]+_1/5L", lambda: _full_product(two_I(), two_T())),
    PolyhedralFamily("+-[OxO]", 1152, "[[3,4,3]]+", lambda: _full_product(two_O(), two_O())),
    PolyhedralFamily("+-1/2[OxO]", 576, "[3,4,3]+", lambda: _fraction_group(two_O(), two_T())),
    PolyhedralFamily("+-1/6[OxO]", 192, "[3,3,4]+",
                     lambda: _fraction_group(two_O(), quaternion_Q8())),
    PolyhedralFamily("+-[OxI]", 2880, "[[3,3,5]+_1/5R]", lambda: _full_product(two_O(), two_I())),
    PolyhedralFamily("+-[IxO]", 2880, "[[3,3,5]+_1/5L]", lambda: _full_product(two_I(), two_O())),
    PolyhedralFamily("+-[IxI]", 7200, "[3,3,5]+", lambda: _full_product(two_I(), two_I())),
    PolyhedralFamily("+-1/60[IxIb]", 120, "[[3,3,3]]+",
                     lambda: _simplex_group(quat_neg(I_I_PRIME))),
    PolyhedralFamily("+1/60[IxIb]", 60, "[3,3,3]+", lambda: _simplex_group(I_I_PRIME)),
    PolyhedralFamily("+-[IxI].2", 14400, "[3,3,5]", base="+-[IxI]", ext=_STAR),
    PolyhedralFamily("+-[OxO].2", 2304, "[[3,4,3]]", base="+-[OxO]", ext=_STAR),
    PolyhedralFamily("+-1/2[OxO].2", 1152, "[3,4,3]", base="+-1/2[OxO]", ext=_STAR),
    PolyhedralFamily("+-1/2[OxO].2b", 1152, "[[3,4,3]+]", base="+-1/2[OxO]",
                     ext=reflection(ONE, I_O)),
    PolyhedralFamily("+-[TxT].2", 576, "[3,4,3+]", base="+-[TxT]", ext=_STAR),
    PolyhedralFamily("+-1/6[OxO].2", 384, "[3,3,4]", base="+-1/6[OxO]", ext=_STAR),
    PolyhedralFamily("+-1/3[TxT].2", 192, "[+3,3,4]", base="+-1/3[TxT]", ext=_STAR),
    PolyhedralFamily("+-1/3[TxT].2b", 192, "[3,3,4+]", base="+-1/3[TxT]",
                     ext=reflection(I_O, I_O)),
    PolyhedralFamily("+-1/60[IxIb].2", 240, "[[3,3,3]]", base="+-1/60[IxIb]", ext=_STAR),
    PolyhedralFamily("+1/60[IxIb].23", 120, "[3,3,3]", base="+1/60[IxIb]", ext=_MINUS_STAR),
    PolyhedralFamily("+1/60[IxIb].21", 120, "[[3,3,3]+]", base="+1/60[IxIb]", ext=_STAR),
)}


@lru_cache(maxsize=None)
def _polyhedral_group(name: str) -> PointGroup:
    fam = POLYHEDRAL_FAMILIES[name]
    if fam.chiral:
        return fam.recipe()
    return extend_achiral(_polyhedral_group(fam.base), fam.ext)


POLYHEDRAL_ORDERS = {name: f.order for name, f in POLYHEDRAL_FAMILIES.items()}


# ---------------------------------------------------------------------------
# axial groups

_G3 = {
    # proper quaternions, improper quaternions (l stands for -[l])
    "+T": ("T", None), "+O": ("O", None), "+I": ("I", None),
    "+-T": ("T", "T"), "+-O": ("O", "O"), "+-I": ("I", "I"),
    "TO": ("T", "O-T"),
}

HYBRIDS = [
    ("+I", "+-I"), ("+-T", "+-O"), ("+O", "+-O"), ("TO", "+-O"),
    ("+T", "+-T"), ("+T", "+O"), ("+T", "TO"),
]


# the quaternion set of each tag of _G3, built on first use of the tag
_G3_SETS = {"T": two_T, "O": two_O, "I": two_I, "O-T": lambda: two_O() - two_T(),
            None: frozenset}


def _g3_sets(name: str):
    """The proper and improper quaternion sets of a 3D group."""
    tag_p, tag_m = _G3[name]
    return _G3_SETS[tag_p](), _G3_SETS[tag_m]()


def _axial_elements(kind: str, g3: str, sub: str | None):
    P, M = _g3_sets(g3)
    els = set()
    if kind == "pyr":
        els.update(Transform4(False, l, l) for l in P)
        els.update(Transform4(True, l, l) for l in M)
    elif kind == "prism":
        for l in P:
            els.add(Transform4(False, l, l))
            els.add(Transform4(True, l, quat_neg(l)))
        for l in M:
            els.add(Transform4(True, l, l))
            els.add(Transform4(False, l, quat_neg(l)))
    elif kind == "hyb":
        PH, MH = _g3_sets(sub)
        els.update(Transform4(False, l, l) for l in PH)
        els.update(Transform4(True, l, l) for l in MH)
        els.update(Transform4(True, l, quat_neg(l)) for l in P - PH)
        els.update(Transform4(False, l, quat_neg(l)) for l in M - MH)
    else:
        raise SpecError(f"unknown axial kind {kind}")
    return els


def _axial_parse(family: str):
    kind, rest = family.split(":", 1)
    if kind == "hyb":
        sub, g3 = rest.split("<", 1)
        return kind, g3, sub
    return kind, rest, None


@lru_cache(maxsize=None)
def _axial_group(family: str) -> PointGroup:
    return from_elements(_axial_elements(*_axial_parse(family)))


# |2T|, |2O|, |2I| and |2O - 2T|, keyed by the tags of _G3
_G3_SIZES = {"T": 24, "O": 48, "I": 120, "O-T": 24, None: 0}


def _axial_order(family: str) -> int:
    kind, g3, _ = _axial_parse(family)
    tag_p, tag_m = _G3[g3]
    base = (_G3_SIZES[tag_p] + _G3_SIZES[tag_m]) // 2
    return base * 2 if kind == "prism" else base


def _axial_chiral(family: str) -> bool:
    """Pyramidal groups are chiral iff the 3D group has no improper part;
    prismatic groups never are; a hybrid h<g is chiral iff h has no improper
    part and the same proper part as g."""
    kind, g3, sub = _axial_parse(family)
    if kind == "prism":
        return False
    if kind == "pyr":
        return _G3[g3][1] is None
    return _G3[sub][1] is None and _G3[sub][0] == _G3[g3][0]


AXIAL_FAMILIES = (
    [f"pyr:{g}" for g in _G3]
    + [f"prism:{g}" for g in _G3]
    + [f"hyb:{h}<{g}" for h, g in HYBRIDS]
)


# ---------------------------------------------------------------------------
# build / order / constraints

def spec_order(spec: GroupSpec) -> int:
    if spec.kind == "tubical":
        fam = TUBICAL_FAMILIES[tubical_base(spec.family)]
        return fam.order_factor * spec.param("n")
    if spec.kind == "toroidal":
        return TOROIDAL_FAMILIES[spec.family].order_factor * _lattice_size(dict(spec.params))
    if spec.kind == "polyhedral":
        return POLYHEDRAL_ORDERS[spec.family]
    return _axial_order(spec.family)


def spec_chiral(spec: GroupSpec) -> bool:
    """True if the catalog group has no orientation-reversing element."""
    if spec.kind == "tubical":
        return True
    if spec.kind == "toroidal":
        return TOROIDAL_FAMILIES[spec.family].chiral
    if spec.kind == "polyhedral":
        return POLYHEDRAL_FAMILIES[spec.family].chiral
    return _axial_chiral(spec.family)


def constraints_ok(spec: GroupSpec) -> bool:
    if spec.kind == "tubical":
        fam = TUBICAL_FAMILIES[tubical_base(spec.family)]
        return spec.param("n") >= fam.n_min
    if spec.kind == "toroidal":
        return _toroidal_family(spec).in_range(*[v for _, v in spec.params])
    if spec.kind == "polyhedral":
        return spec.family in POLYHEDRAL_ORDERS
    return spec.family in AXIAL_FAMILIES


def build_unchecked(spec: GroupSpec) -> PointGroup:
    if spec.kind == "tubical":
        return _build_tubical(spec)
    if spec.kind == "toroidal":
        fam = _toroidal_family(spec)
        try:
            gens = fam.generators(*[v for _, v in spec.params])
        except ZeroDivisionError:
            raise SpecError(f"no toroidal group {spec.spec_string()}: "
                            "a lattice step divides by zero") from None
        return generate(gens)
    if spec.kind == "polyhedral":
        return _polyhedral_group(spec.family)
    return _axial_group(spec.family)


def build(spec: GroupSpec) -> PointGroup:
    """Construct the catalog group; rejects out-of-range parameters, and an
    order above ``group.DEFAULT_CAP`` before any closure."""
    if not constraints_ok(spec):
        raise SpecError(f"parameters out of range for {spec.spec_string()}")
    expected = spec_order(spec)
    if expected > group.DEFAULT_CAP:
        raise ClosureCapExceeded(f"{spec.spec_string()} has order {expected}, "
                                 f"above the cap {group.DEFAULT_CAP}")
    G = build_unchecked(spec)
    if len(G) != expected:
        raise SpecError(f"{spec.spec_string()}: built order {len(G)} != expected {expected}")
    return G


# ---------------------------------------------------------------------------
# Conway-Smith name for torus translation groups

def _cs_lattice_counts(m: int, n: int, s: int):
    """(diploid, k_r) of the tor:1 lattice (m, n, s): whether it holds the
    point (1/2, 1/2), and how many of its points lie on x + y = 0 (mod 1)."""
    # The translation lattice, in units of 2pi/(2mn), is the set of points
    # (2na + 2b(m+s), 2na + 2b(s-m)) mod 2mn, a in [0, m), b in [0, n).
    # Row b is m distinct points; rows b and b + n/2 coincide when n and
    # m + s are even, and rows are otherwise disjoint.
    rows = n // 2 if n % 2 == 0 and (m + s) % 2 == 0 else n
    # (1/2, 1/2) = (mn, mn) lies on row 0 (a = m/2) or on row n/2 (2a = -s mod 2m)
    diploid = m % 2 == 0 or (n % 2 == 0 and s % 2 == 0)
    # on the anti-diagonal x + y = 0: 2n a = -2b s (mod mn), which has
    # gcd(2, m) solutions a in [0, m) when n gcd(2, m) divides 2bs, else none
    g = n * gcd(2, m)
    k_r = gcd(2, m) * sum(1 for b in range(rows) if (2 * b * s) % g == 0)
    return diploid, k_r


def cs_name_type1(spec: GroupSpec) -> str:
    """Conway-Smith name ±(1/f)[C_m^(s') x C_n] / +(1/f)[...] of a ⊙1 group."""
    if spec.kind != "toroidal" or spec.family != "1":
        raise SpecError("cs_name_type1 expects a torus translation spec")
    m, n, s = spec.param("m"), spec.param("n"), spec.param("s")
    diploid, k_r = _cs_lattice_counts(m, n, s)
    f = (2 * n if diploid else n) // k_r
    if diploid:
        m_cs = m * f // 2
        s_cs = ((-s * f - m_cs) // n) % f if f > 1 else 0
        pre = "+-"
    else:
        m_cs = m * f
        s_cs = ((-2 * f * s - m_cs) // n) % (2 * f)
        pre = "+"
    sup = f"({s_cs})"
    name_m = m_cs
    frac = f"1/{f}" if f > 1 else ""
    sup = sup if f > 1 else ""
    return f"{pre}{frac}[C{name_m}{sup}xC{n}]"


# ---------------------------------------------------------------------------
# catalog enumeration

def _toroidal_specs_of_order(N: int):
    specs = []
    for fam, info in TOROIDAL_FAMILIES.items():
        if N % info.order_factor:
            continue
        size = N // info.order_factor
        names = info.param_names
        if names == ("m", "n", "s"):
            for m in range(1, size + 1):
                if size % m:
                    continue
                n = size // m
                for s in _s_range(m, n):
                    if info.in_range(m, n, s):
                        specs.append(toroidal_spec(fam, m=m, n=n, s=s))
        elif names == ("m", "n"):
            for m in range(1, size + 1):
                if size % m == 0 and info.in_range(m, size // m):
                    specs.append(toroidal_spec(fam, m=m, n=size // m))
        elif names == ("a", "b"):
            for b in range(isqrt(size // 2) + 1):
                a2 = size - b * b
                a = isqrt(a2)
                if a * a == a2 and a >= b and info.in_range(a, b):
                    specs.append(toroidal_spec(fam, a=a, b=b))
        else:  # ("n",)
            k = isqrt(size)
            if k * k == size and info.in_range(k):
                specs.append(toroidal_spec(fam, n=k))
    return specs


def list_catalog(max_order: int):
    """All catalog specs with order <= max_order, duplicate-free."""
    specs = []
    for N in range(1, max_order + 1):
        specs.extend(_toroidal_specs_of_order(N))
    for fam in TUBICAL_LEFT:
        info = TUBICAL_FAMILIES[fam]
        n = info.n_min
        while info.order_factor * n <= max_order:
            specs.append(tubical_spec(fam, n))
            specs.append(tubical_spec(info.mirror_name, n))
            n += 1
    for name, order_ in POLYHEDRAL_ORDERS.items():
        if order_ <= max_order:
            specs.append(polyhedral_spec(name))
    for fam in AXIAL_FAMILIES:
        if _axial_order(fam) <= max_order:
            specs.append(GroupSpec("axial", fam))
    specs.sort(key=lambda s: (spec_order(s), s.kind, s.family, s.params))
    return specs


# ---------------------------------------------------------------------------
# spec-string grammar

_TOR_RE = re.compile(r"^tor:([1.|\-/\\X+L*](?:/[a-z0-9]+[US]?)?):(.*)$")


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar, e.g. tub:+-[IxC]:n=5 or tor:1:m=2,n=5,s=1."""
    text = text.strip()
    if text.startswith("tub:"):
        try:
            _, fam, ps = text.split(":", 2)
        except ValueError:
            raise ParseError(f"bad tubical spec {text!r}") from None
        if fam not in TUBICAL_FAMILIES and fam not in _TUBICAL_MIRROR:
            raise ParseError(f"unknown tubical family {fam!r}")
        return tubical_spec(fam, _parse_params(ps, ("n",))["n"])
    if text.startswith("tor:"):
        m = _TOR_RE.match(text)
        if not m:
            raise ParseError(f"bad toroidal spec {text!r}")
        fam, ps = m.group(1), m.group(2)
        if fam not in TOROIDAL_FAMILIES:
            raise ParseError(f"unknown toroidal family {fam!r}")
        return toroidal_spec(fam, **_parse_params(ps, TOROIDAL_FAMILIES[fam].param_names))
    if text.startswith("poly:"):
        name = text[5:]
        name = next((f.name for f in POLYHEDRAL_FAMILIES.values() if f.coxeter == name), name)
        if name not in POLYHEDRAL_FAMILIES:
            raise ParseError(f"unknown polyhedral group {name!r}")
        return polyhedral_spec(name)
    if text.startswith("axial:"):
        parts = text.split(":")
        if len(parts) == 3:
            kind, g3 = parts[1], parts[2]
            fam = f"{kind}:{g3}"
        elif len(parts) == 4 and parts[3].startswith("in="):
            fam = f"hyb:{parts[2]}<{parts[3][3:]}"
        else:
            raise ParseError(f"bad axial spec {text!r}")
        if fam not in AXIAL_FAMILIES:
            raise ParseError(f"unknown axial group {fam!r}")
        return GroupSpec("axial", fam)
    raise ParseError(f"unrecognized spec {text!r}")


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_params(ps: str, names: tuple) -> dict:
    """``name=INT`` items, comma-separated: each of ``names`` exactly once, and
    nothing else; INT is an optional sign and ASCII digits."""
    params = {}
    for item in ps.split(",") if ps else ():
        if "=" not in item:
            raise ParseError(f"bad parameter {item!r}")
        k, v = (x.strip() for x in item.split("=", 1))
        if k not in names:
            raise ParseError(f"unknown parameter {k!r}: expected {', '.join(names)}")
        if k in params:
            raise ParseError(f"parameter {k!r} given twice")
        if not _INT_RE.fullmatch(v):
            raise ParseError(f"bad integer in {item!r}")
        params[k] = int(v)
    missing = [k for k in names if k not in params]
    if missing:
        raise ParseError(f"missing parameters {missing}")
    return params
