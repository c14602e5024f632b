"""Catalog of the 4-dimensional point groups.

Families and canonical parameter ranges:

* 11 left tubical one-parameter families and their 11 right mirrors,
* 25 infinite families of toroidal groups (torus translation, flip,
  reflection, swap, full-swap, full-reflection, swapturn and full torus
  groups, with wallpaper-style subtypes),
* 25 polyhedral groups,
* 21 axial groups (7 pyramidal, 7 prismatic, 7 hybrid).

The family records are the one place for family facts: ``TUBICAL_FAMILIES``
(order factor, ``n_min``, induced 3D group, generators),
``TOROIDAL_FAMILIES`` (parameters, chirality, order factor, parameter range,
generators), ``POLYHEDRAL_FAMILIES`` (order, Coxeter alias, and either the
recipe of a chiral group or the base and fixed reversing element of an
index-2 extension) and ``AXIAL_FAMILIES`` (pyramidal, prismatic or hybrid,
over 3D groups whose tags in ``_G3`` give the order and chirality) hold one
row per family.  ``family_row`` is the one lookup of a spec's row (both
tubical variants under their own names), read by everything that needs a
family fact; an unknown kind or family is a ``SpecError``.  ``make_spec``
is the one checked spec constructor, called by the ``*_spec`` helpers and
``parse_spec``.  The per-order enumerators make specs already in
``GroupSpec`` order, so ``list_catalog`` sorts nothing.

``build`` turns a ``GroupSpec`` into the actual ``PointGroup``; parameter
constraints follow the overview tables, so the catalog is duplicate-free by
construction.  ``build_unchecked`` also accepts out-of-range toroidal
parameters, which is what the duplication machinery exercises; where a
lattice step would divide by zero it raises ``SpecError``.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable

from .algebra import CycloQuat, Quat, exp_i, quat_neg
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
    GoursatData,
    PointGroup,
    Transform4,
    extend_achiral,
    from_elements,
    generate,
    identity_pairing,
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
        return dict(self.params)[name]

    def spec_string(self) -> str:
        """The CLI text of the spec, formatted from its family row."""
        row = family_row(self)
        ps = ",".join(f"{k}={v}" for k, v in self.params)
        text = f"{_PREFIXES[self.kind]}:{row.spec_text if self.kind == 'axial' else self.family}"
        return f"{text}:{ps}" if ps else text

    __str__ = spec_string


class SpecError(ValueError):
    pass


class ParseError(SpecError):
    pass


def make_spec(kind: str, family: str, /, **params) -> GroupSpec:
    """The one checked spec constructor: the family's row must exist and
    ``params`` be exactly its ``param_names``, each an ``int`` (not a
    ``bool``).  Ranges are left to ``constraints_ok``."""
    names = family_row(GroupSpec(kind, family)).param_names
    for k, v in params.items():
        if k not in names:
            raise SpecError(f"unknown parameter {k!r} of {kind} family {family}: "
                            f"expected {', '.join(names) or 'none'}")
        if type(v) is not int:
            raise SpecError(f"{kind} family {family}: parameter {k}={v!r} is not an int")
    if len(params) < len(names):
        missing = [k for k in names if k not in params]
        raise SpecError(f"{kind} family {family} needs parameters {missing}")
    return GroupSpec(kind, family, tuple((k, params[k]) for k in names))


def tubical_spec(family: str, n: int) -> GroupSpec:
    return make_spec("tubical", family, n=n)


def toroidal_spec(family: str, **params) -> GroupSpec:
    return make_spec("toroidal", family, **params)


def polyhedral_spec(name: str) -> GroupSpec:
    return make_spec("polyhedral", name)


# ---------------------------------------------------------------------------
# tubical families

@dataclass(frozen=True)
class TubicalFamily:
    """A left tubical family +-(1/f)[P x R] with parameter n, and its mirror."""

    name: str          # left-variant label
    mirror_name: str   # right-variant label
    order_factor: int  # |G| = order_factor * n
    n_min: int
    induced: str       # G^h on the Hopf sphere
    pairs: Callable    # n -> (l, r) generator pairs of the left variant

    chiral = True      # no tubical group reverses orientation
    param_names = ("n",)

    @property
    def left_type(self) -> str:
        """The polyhedral left group P of the name: "I", "O" or "T"."""
        return self.name[self.name.index("[") + 1]

    def generators(self, n: int) -> list:
        """Rotations generating the left variant with parameter n."""
        return [rotation(l, r) for l, r in self.pairs(n)]


TUBICAL_FAMILIES = {f.name: f for f in (
    TubicalFamily("+-[IxC]", "+-[CxI]", 120, 1, "+I",
                  lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n))]),
    TubicalFamily("+-[OxC]", "+-[CxO]", 48, 1, "+O",
                  lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n))]),
    TubicalFamily("+-1/2[OxC2]", "+-1/2[C2xO]", 48, 1, "+O",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, e_n(2 * n))]),
    TubicalFamily("+-[TxC]", "+-[CxT]", 24, 1, "+T",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n))]),
    TubicalFamily("+-1/3[TxC3]", "+-1/3[C3xT]", 24, 1, "+T",
                  lambda n: [(QI, ONE), (ONE, e_n(n)), (OMEGA, e_n(3 * n))]),
    TubicalFamily("+-[IxD2]", "+-[D2xI]", 240, 2, "+-I",
                  lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)]),
    TubicalFamily("+-[OxD2]", "+-[D2xO]", 96, 2, "+-O",
                  lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)]),
    TubicalFamily("+-1/2[OxDb4]", "+-1/2[Db4xO]", 96, 2, "+-O",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ), (I_O, e_n(2 * n))]),
    TubicalFamily("+-1/2[OxD2]", "+-1/2[D2xO]", 48, 2, "TO",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, QJ)]),
    TubicalFamily("+-1/6[OxD6]", "+-1/6[D6xO]", 48, 1, "TO",
                  lambda n: [(QI, ONE), (ONE, e_n(n)), (I_O, QJ), (OMEGA, e_n(3 * n))]),
    TubicalFamily("+-[TxD2]", "+-[D2xT]", 48, 2, "+-T",
                  lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)]),
)}

TUBICAL_LEFT = list(TUBICAL_FAMILIES)


def right_variant(spec: GroupSpec) -> GroupSpec:
    """The mirror tubical family (pair components of every generator swapped)."""
    if spec.kind != "tubical":
        raise SpecError("right_variant expects a tubical spec")
    fam = family_row(spec)
    mirror = fam.mirror_name if spec.family == fam.name else fam.name
    return tubical_spec(mirror, spec.param("n"))


def tubical_generators(spec: GroupSpec) -> list:
    """The generators of a tubical spec; a right variant has the two sides
    of every left-variant generator swapped."""
    if spec.kind != "tubical":
        raise SpecError("tubical_generators expects a tubical spec")
    fam = family_row(spec)
    gens = fam.generators(spec.param("n"))
    if spec.family != fam.name:
        gens = [rotation(g.r, g.l) for g in gens]
    return gens


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


def _s_range(m: int, n: int):
    """The shifts s with -m <= 2 s <= n - m."""
    return range(-(m // 2), (n - m) // 2 + 1)


@dataclass(frozen=True)
class ToroidalFamily:
    """A toroidal family: its generators, a function of the parameters in
    ``param_names`` order, and its canonical range as data read by
    ``in_range`` and the census: ``mins`` of the leading parameters (m, n;
    a, b; or n), ``parity`` "even" (both) or "same", ``descending`` (m >= n),
    the ``excluded`` pairs, and any shift s over ``_s_range(m, n)``."""

    family: str
    param_names: tuple
    chiral: bool
    order_factor: int     # a power of 2; |G| = order_factor * (m n, a^2 + b^2 or n^2)
    mins: tuple
    generators: Callable  # (*params) -> generator transforms
    _: KW_ONLY
    parity: str | None = None
    descending: bool = False
    excluded: tuple = ()

    def in_range(self, *params) -> bool:
        """Whether params lie in the canonical range; for a family with a
        shift, (m, n) alone checks the lattice and (m, n, s) the shift too."""
        if len(params) == 1:
            return params[0] >= self.mins[0]
        m, n = params[:2]
        if m < self.mins[0] or n < self.mins[1] or self.excluded and (m, n) in self.excluded:
            return False
        if self.parity and ((m - n) % 2 or self.parity == "even" and m % 2):
            return False
        if self.descending and m < n:
            return False
        return len(params) == 2 or params[2] in _s_range(m, n)


TOROIDAL_FAMILIES = {f.family: f for f in (
    ToroidalFamily("1", ("m", "n", "s"), True, 1, (1, 1), _translations),
    ToroidalFamily(".", ("m", "n", "s"), True, 2, (1, 1),
                   lambda m, n, s: _translations(m, n, s) + [rotation(QJ, QJ)],
                   excluded=((1, 1), (2, 1))),
    ToroidalFamily("\\/pm", ("m", "n"), True, 1, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [rotation(MINUS_K, QI)], parity="even"),
    ToroidalFamily("\\/pg", ("m", "n"), True, 1, (4, 2),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(MINUS_K, exp_i(_glide(n // 2)))], parity="even"),
    ToroidalFamily("\\/cm", ("m", "n"), True, 2, (3, 2),
                   lambda m, n: _rhombic(m, n) + [rotation(MINUS_K, QI)], parity="same"),
    ToroidalFamily("//pm", ("m", "n"), True, 1, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [rotation(QI, QK)], parity="even"),
    ToroidalFamily("//pg", ("m", "n"), True, 1, (2, 4),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(exp_i(_glide(m // 2)), QK)], parity="even"),
    ToroidalFamily("//cm", ("m", "n"), True, 2, (2, 3),
                   lambda m, n: _rhombic(m, n) + [rotation(QI, QK)], parity="same"),
    ToroidalFamily("X/p2mm", ("m", "n"), True, 2, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2)
                   + [rotation(QI, QK), rotation(MINUS_K, QI)], parity="even"),
    ToroidalFamily("X/p2mg", ("m", "n"), True, 2, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(QI, CycloQuat(_glide(n // 2), 1)),
                       rotation(MINUS_K, exp_i(_glide(n // 2))),
                   ], parity="even"),
    ToroidalFamily("X/p2gm", ("m", "n"), True, 2, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(exp_i(_glide(m // 2)), QK),
                       rotation(CycloQuat(_glide(m // 2) + 1, 1), QI),
                   ], parity="even"),
    ToroidalFamily("X/p2gg", ("m", "n"), True, 2, (4, 4),
                   lambda m, n: _grid(m // 2, n // 2) + [
                       rotation(exp_i(_glide(m // 2)), CycloQuat(_glide(n // 2), 1)),
                       rotation(CycloQuat(_glide(m // 2) + 1, 1), exp_i(_glide(n // 2))),
                   ], parity="even"),
    ToroidalFamily("X/c2mm", ("m", "n"), True, 4, (3, 3),
                   lambda m, n: _rhombic(m, n) + [rotation(QI, QK), rotation(MINUS_K, QI)],
                   parity="same"),
    ToroidalFamily("|/pm", ("m", "n"), False, 2, (1, 1),
                   lambda m, n: _diagonal(m, n) + [reflection(QI, QI)]),
    ToroidalFamily("|/pg", ("m", "n"), False, 2, (1, 1),
                   lambda m, n: _diagonal(m, n)
                   + [reflection(exp_i(_glide(m)), exp_i(_glide(m)))]),
    ToroidalFamily("|/cm", ("m", "n"), False, 4, (1, 1),
                   lambda m, n: _diagonal(m, n) + [_mid(m, n), reflection(QI, QI)]),
    ToroidalFamily("+/p2mm", ("m", "n"), False, 4, (1, 1),
                   lambda m, n: _diagonal(m, n) + [reflection(QI, QI), reflection(QK, QK)],
                   descending=True, excluded=((1, 1),)),
    ToroidalFamily("+/p2mg", ("m", "n"), False, 4, (1, 1),
                   lambda m, n: _diagonal(m, n) + [
                       reflection(exp_i(_glide(n)), exp_i(Q(1, 2) - Q(1, 2 * n))),
                       reflection(CycloQuat(Q(1, 2) - Q(1, 2 * n), 1), CycloQuat(_glide(n), 1)),
                   ], excluded=((1, 1),)),
    ToroidalFamily("+/p2gg", ("m", "n"), False, 4, (1, 1),
                   lambda m, n: _diagonal(m, n) + [
                       reflection(exp_i(Q(1, 2) + Q(1, 2 * m) + Q(1, 2 * n)),
                                  exp_i(Q(1, 2) + Q(1, 2 * m) - Q(1, 2 * n))),
                       reflection(CycloQuat(Q(1, 2) - Q(1, 2 * m) - Q(1, 2 * n), 1),
                                  CycloQuat(Q(1, 2) - Q(1, 2 * m) + Q(1, 2 * n), 1)),
                   ], descending=True, excluded=((1, 1),)),
    ToroidalFamily("+/c2mm", ("m", "n"), False, 8, (1, 1),
                   lambda m, n: _diagonal(m, n)
                   + [_mid(m, n), reflection(QI, QI), reflection(QK, QK)],
                   descending=True, excluded=((1, 1),)),
    ToroidalFamily("L", ("a", "b"), False, 4, (2, 0), _swapturn,
                   descending=True, excluded=((2, 0),)),
    ToroidalFamily("*/p4mmU", ("n",), False, 8, (3,),
                   lambda n: _diagonal(n, n) + [rotation(QI, QK), reflection(QI, QI)]),
    ToroidalFamily("*/p4gmU", ("n",), False, 8, (3,),
                   lambda n: _diagonal(n, n) + [
                       rotation(exp_i(Q(1, 2) + Q(1, n)), QK),
                       reflection(exp_i(Q(1, 2) + Q(1, n)), QI),
                   ]),
    ToroidalFamily("*/p4mmS", ("n",), False, 16, (2,),
                   lambda n: _grid(n, n) + [rotation(QI, QK), reflection(QI, QI)]),
    ToroidalFamily("*/p4gmS", ("n",), False, 16, (2,),
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


# ---------------------------------------------------------------------------
# polyhedral groups

def _full_product(L: frozenset, R: frozenset) -> PointGroup:
    return GoursatData(L, R, L, R).rotations()


def _fraction_group(S: frozenset, N: frozenset) -> PointGroup:
    """{[l, r] : l N = r N}, the identity-pairing index-f subgroup."""
    return GoursatData(S, S, N, N, identity_pairing(S, N)).rotations()


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
    param_names = ()

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

# the quaternion set of each tag of _G3, built on first use of the tag
_G3_SETS = {"T": two_T, "O": two_O, "I": two_I, "O-T": lambda: two_O() - two_T(),
            None: frozenset}

# |2T|, |2O|, |2I| and |2O - 2T|, keyed by the tags of _G3
_G3_SIZES = {"T": 24, "O": 48, "I": 120, "O-T": 24, None: 0}


def _g3_sets(name: str):
    """The proper and improper quaternion sets of a 3D group."""
    tag_p, tag_m = _G3[name]
    return _G3_SETS[tag_p](), _G3_SETS[tag_m]()


@dataclass(frozen=True)
class AxialFamily:
    """An axial group: the pyramidal ("pyr") or prismatic ("prism") group of
    the 3D group ``g3``, or the hybrid ("hyb") of ``g3`` over its index-2
    subgroup ``sub``; the 3D groups are keys of ``_G3``."""

    kind: str
    g3: str
    sub: str | None = None
    param_names = ()

    @property
    def name(self) -> str:
        if self.kind == "hyb":
            return f"hyb:{self.sub}<{self.g3}"
        return f"{self.kind}:{self.g3}"

    @property
    def spec_text(self) -> str:
        """The spec text after ``axial:``, e.g. ``pyr:+T`` or ``hyb:+T:in=TO``."""
        return self.name.replace("<", ":in=")

    @property
    def order(self) -> int:
        tag_p, tag_m = _G3[self.g3]
        base = (_G3_SIZES[tag_p] + _G3_SIZES[tag_m]) // 2
        return base * 2 if self.kind == "prism" else base

    @property
    def chiral(self) -> bool:
        """Pyramidal groups are chiral iff the 3D group has no improper part;
        prismatic groups never are; a hybrid h<g is chiral iff h has no
        improper part and the same proper part as g."""
        if self.kind == "prism":
            return False
        if self.kind == "pyr":
            return _G3[self.g3][1] is None
        return _G3[self.sub][1] is None and _G3[self.sub][0] == _G3[self.g3][0]


AXIAL_FAMILIES = {f.name: f for f in (
    [AxialFamily("pyr", g) for g in _G3]
    + [AxialFamily("prism", g) for g in _G3]
    + [AxialFamily("hyb", g, h) for h, g in (
        ("+I", "+-I"), ("+-T", "+-O"), ("+O", "+-O"), ("TO", "+-O"),
        ("+T", "+-T"), ("+T", "+O"), ("+T", "TO"),
    )]
)}


def _axial_elements(fam: AxialFamily):
    P, M = _g3_sets(fam.g3)
    els = set()
    if fam.kind == "pyr":
        els.update(Transform4(False, l, l) for l in P)
        els.update(Transform4(True, l, l) for l in M)
    elif fam.kind == "prism":
        for l in P:
            els.add(Transform4(False, l, l))
            els.add(Transform4(True, l, quat_neg(l)))
        for l in M:
            els.add(Transform4(True, l, l))
            els.add(Transform4(False, l, quat_neg(l)))
    else:  # hybrid
        PH, MH = _g3_sets(fam.sub)
        els.update(Transform4(False, l, l) for l in PH)
        els.update(Transform4(True, l, l) for l in MH)
        els.update(Transform4(True, l, quat_neg(l)) for l in P - PH)
        els.update(Transform4(False, l, quat_neg(l)) for l in M - MH)
    return els


@lru_cache(maxsize=None)
def _axial_group(family: str) -> PointGroup:
    return from_elements(_axial_elements(AXIAL_FAMILIES[family]))


# ---------------------------------------------------------------------------
# build / order / constraints

# the rows of each kind, keyed by family; a tubical row under both variants
_FAMILY_ROWS = {
    "tubical": {**TUBICAL_FAMILIES, **{f.mirror_name: f for f in TUBICAL_FAMILIES.values()}},
    "toroidal": TOROIDAL_FAMILIES,
    "polyhedral": POLYHEDRAL_FAMILIES,
    "axial": AXIAL_FAMILIES,
}


def family_row(spec: GroupSpec):
    """The family record of a spec: a ``TubicalFamily`` (for either variant),
    ``ToroidalFamily``, ``PolyhedralFamily`` or ``AxialFamily``."""
    try:
        return _FAMILY_ROWS[spec.kind][spec.family]
    except KeyError:
        raise SpecError(f"unknown {spec.kind} family {spec.family}") from None


def spec_order(spec: GroupSpec) -> int:
    fam = family_row(spec)
    if spec.kind == "tubical":
        return fam.order_factor * spec.param("n")
    if spec.kind == "toroidal":
        return fam.order_factor * _lattice_size(dict(spec.params))
    return fam.order


def spec_chiral(spec: GroupSpec) -> bool:
    """True if the catalog group has no orientation-reversing element."""
    return family_row(spec).chiral


def constraints_ok(spec: GroupSpec) -> bool:
    fam = family_row(spec)
    if spec.kind == "tubical":
        return spec.param("n") >= fam.n_min
    if spec.kind == "toroidal":
        return fam.in_range(*[v for _, v in spec.params])
    return True


def build_unchecked(spec: GroupSpec) -> PointGroup:
    fam = family_row(spec)
    if spec.kind == "tubical":
        return generate(tubical_generators(spec))
    if spec.kind == "toroidal":
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
    # gcd(2, m) solutions a in [0, m) when g = n gcd(2, m) divides 2bs, else
    # none; g divides 2bs exactly when t = g / gcd(g, 2s) divides b
    g = n * gcd(2, m)
    t = g // gcd(g, 2 * s)
    return diploid, gcd(2, m) * -(-rows // t)


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
    frac, sup = (f"1/{f}", f"({s_cs})") if f > 1 else ("", "")
    return f"{pre}{frac}[C{m_cs}{sup}xC{n}]"


# ---------------------------------------------------------------------------
# catalog enumeration

# the toroidal rows, and both variants of each tubical row, in family order
_TOROIDAL_SORTED = [TOROIDAL_FAMILIES[f] for f in sorted(TOROIDAL_FAMILIES)]
_TUBICAL_SORTED = sorted((name, f.order_factor, f.n_min)
                         for name, f in _FAMILY_ROWS["tubical"].items())


def _toroidal_specs_of_order(N: int) -> list:
    """The toroidal specs of order N in ``GroupSpec`` order: families by
    name, then parameters ascending.  Each spec is made directly from the
    row's ``param_names``, since the row's range holds for it."""
    specs = []
    for row in _TOROIDAL_SORTED:
        size, rem = divmod(N, row.order_factor)
        if rem:
            continue
        names = row.param_names
        if names == ("n",):
            k = isqrt(size)
            params = [(k,)] if k * k == size and row.in_range(k) else []
        elif names == ("a", "b"):  # a >= b, so b descending puts a ascending
            params = [(isqrt(size - b * b), b) for b in range(isqrt(size // 2), -1, -1)]
            params = [(a, b) for a, b in params if a * a + b * b == size and row.in_range(a, b)]
        else:  # m n = size from the divisors d <= isqrt(size), m ascending
            small = [(d, size // d) for d in range(1, isqrt(size) + 1) if not size % d]
            pairs = small + [(n, m) for m, n in reversed(small) if m != n]
            params = [(m, n) for m, n in pairs if row.in_range(m, n)]
            if len(names) == 3:
                params = [(m, n, s) for m, n in params for s in _s_range(m, n)]
        specs += [GroupSpec("toroidal", row.family, tuple(zip(names, p))) for p in params]
    return specs


# the polyhedral and axial specs, keyed by order, each list in GroupSpec order
_FINITE_BY_ORDER = {}
for _sp in sorted([polyhedral_spec(name) for name in POLYHEDRAL_FAMILIES]
                  + [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES]):
    _FINITE_BY_ORDER.setdefault(spec_order(_sp), []).append(_sp)


def _tubical_specs_of_order(N: int) -> list:
    """The tubical specs of order N, both variants, in ``GroupSpec`` order;
    made directly, since ``count_order`` reads them on every call."""
    return [GroupSpec("tubical", name, (("n", N // f),))
            for name, f, n_min in _TUBICAL_SORTED if not N % f and N // f >= n_min]


def _other_specs_of_order(N: int) -> list:
    """The polyhedral and axial specs of order N, then its tubical specs."""
    return _FINITE_BY_ORDER.get(N, []) + _tubical_specs_of_order(N)


def list_catalog(max_order: int):
    """All catalog specs with order <= max_order, duplicate-free: by order,
    then in ``GroupSpec`` order (kind, family, params).  Each order's specs
    are emitted in that order: axial and polyhedral, toroidal, tubical."""
    specs = []
    for N in range(1, max_order + 1):
        specs += _FINITE_BY_ORDER.get(N, [])
        specs += _toroidal_specs_of_order(N)
        specs += _tubical_specs_of_order(N)
    return specs


# ---------------------------------------------------------------------------
# spec-string grammar

_PREFIXES = {"tubical": "tub", "toroidal": "tor", "polyhedral": "poly", "axial": "axial"}
_KINDS = {prefix: kind for kind, prefix in _PREFIXES.items()}

# the family named by each spec text: a polyhedral name or Coxeter alias, and
# an axial family's spec text (never its internal key)
_ALIASES = {"polyhedral": {**{f.name: f.name for f in POLYHEDRAL_FAMILIES.values()},
                           **{f.coxeter: f.name for f in POLYHEDRAL_FAMILIES.values()}},
            "axial": {f.spec_text: f.name for f in AXIAL_FAMILIES.values()}}


def parse_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar, e.g. tub:+-[IxC]:n=5 or tor:1:m=2,n=5,s=1."""
    text = text.strip()
    prefix, _, rest = text.partition(":")
    kind = _KINDS.get(prefix)
    if kind is None:
        raise ParseError(f"unrecognized spec {text!r}")
    if kind in _ALIASES:
        family, ps = _ALIASES[kind].get(rest), ""
        if family is None:
            raise ParseError(f"unknown {kind} family {rest}")
    else:
        family, _, ps = rest.partition(":")
    try:
        return make_spec(kind, family, **_parse_params(ps))
    except SpecError as e:
        raise ParseError(str(e)) from None


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_params(ps: str) -> dict:
    """``name=INT`` items, comma-separated, each name once; INT is an optional
    sign and ASCII digits.  ``make_spec`` checks the names."""
    params = {}
    for item in ps.split(",") if ps else ():
        if "=" not in item:
            raise ParseError(f"bad parameter {item!r}")
        k, v = (x.strip() for x in item.split("=", 1))
        if k in params:
            raise ParseError(f"parameter {k!r} given twice")
        if not _INT_RE.fullmatch(v):
            raise ParseError(f"bad integer in {item!r}")
        params[k] = int(v)
    return params
