"""Catalog of the 4-dimensional point groups.

Families and canonical parameter ranges:

* 11 left tubical one-parameter families and their 11 right mirrors,
* 25 infinite families of toroidal groups (torus translation, flip,
  reflection, swap, full-swap, full-reflection, swapturn and full torus
  groups, with wallpaper-style subtypes),
* 25 polyhedral groups,
* 21 axial groups (7 pyramidal, 7 prismatic, 7 hybrid).

``build`` turns a ``GroupSpec`` into the actual ``PointGroup``; parameter
constraints follow the overview tables, so the catalog is duplicate-free by
construction.  ``build_unchecked`` also accepts out-of-range toroidal
parameters, which is what the duplication machinery exercises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, isqrt

from .algebra import CycloQuat, exp_i, quat_mul, quat_neg
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
from .group import (
    PointGroup,
    Transform4,
    extend_achiral,
    from_elements,
    generate,
)
from .transform import reflection, rotation, to_matrix

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


def axial_spec(kind: str, g3: str, subgroup: str | None = None) -> GroupSpec:
    fam = f"{kind}:{subgroup}<{g3}" if kind == "hyb" else f"{kind}:{g3}"
    return GroupSpec("axial", fam)


# ---------------------------------------------------------------------------
# tubical families

@dataclass(frozen=True)
class TubicalFamily:
    name: str          # left-variant label
    mirror_name: str   # right-variant label
    order_factor: int
    n_min: int
    induced: str       # G^h on the Hopf sphere
    dihedral: bool

    def generators(self, n):
        raise NotImplementedError


_TUBICAL_GENS = {
    # family -> callable n -> list of (star, l, r)
    "+-[IxC]": lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n))],
    "+-[OxC]": lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n))],
    "+-1/2[OxC2]": lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, e_n(2 * n))],
    "+-[TxC]": lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n))],
    "+-1/3[TxC3]": lambda n: [(QI, ONE), (ONE, e_n(n)), (OMEGA, e_n(3 * n))],
    "+-[IxD2]": lambda n: [(I_I, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
    "+-[OxD2]": lambda n: [(I_O, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
    "+-1/2[OxDb4]": lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ), (I_O, e_n(2 * n))],
    "+-1/2[OxD2]": lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (I_O, QJ)],
    "+-1/6[OxD6]": lambda n: [(QI, ONE), (ONE, e_n(n)), (I_O, QJ), (OMEGA, e_n(3 * n))],
    "+-[TxD2]": lambda n: [(QI, ONE), (OMEGA, ONE), (ONE, e_n(n)), (ONE, QJ)],
}

_TUBICAL_TABLE = [
    # name, mirror, order factor, n_min, induced 3D group, dihedral type
    ("+-[IxC]", "+-[CxI]", 120, 1, "+I", False),
    ("+-[OxC]", "+-[CxO]", 48, 1, "+O", False),
    ("+-1/2[OxC2]", "+-1/2[C2xO]", 48, 1, "+O", False),
    ("+-[TxC]", "+-[CxT]", 24, 1, "+T", False),
    ("+-1/3[TxC3]", "+-1/3[C3xT]", 24, 1, "+T", False),
    ("+-[IxD2]", "+-[D2xI]", 240, 2, "+-I", True),
    ("+-[OxD2]", "+-[D2xO]", 96, 2, "+-O", True),
    ("+-1/2[OxDb4]", "+-1/2[Db4xO]", 96, 2, "+-O", True),
    ("+-1/2[OxD2]", "+-1/2[D2xO]", 48, 2, "TO", True),
    ("+-1/6[OxD6]", "+-1/6[D6xO]", 48, 1, "TO", True),
    ("+-[TxD2]", "+-[D2xT]", 48, 2, "+-T", True),
]

TUBICAL_FAMILIES = {}
_TUBICAL_MIRROR = {}
for _name, _mirror, _fac, _nmin, _ind, _dih in _TUBICAL_TABLE:
    TUBICAL_FAMILIES[_name] = TubicalFamily(_name, _mirror, _fac, _nmin, _ind, _dih)
    _TUBICAL_MIRROR[_name] = _mirror
    _TUBICAL_MIRROR[_mirror] = _name

TUBICAL_LEFT = [row[0] for row in _TUBICAL_TABLE]


def is_tubical_left(family: str) -> bool:
    return family in TUBICAL_FAMILIES


def tubical_base(family: str) -> str:
    """Left-variant family id for either chirality."""
    return family if family in TUBICAL_FAMILIES else _TUBICAL_MIRROR[family]


def right_variant(spec: GroupSpec) -> GroupSpec:
    """The mirror tubical family (pair components of every generator swapped)."""
    if spec.kind != "tubical":
        raise SpecError("right_variant expects a tubical spec")
    return tubical_spec(_TUBICAL_MIRROR[spec.family], spec.param("n"))


def _build_tubical(spec: GroupSpec) -> PointGroup:
    base = tubical_base(spec.family)
    n = spec.param("n")
    gens = [(l, r) for l, r in _TUBICAL_GENS[base](n)]
    if spec.family != base:
        gens = [(r, l) for l, r in gens]
    return generate([rotation(l, r) for l, r in gens])


# ---------------------------------------------------------------------------
# toroidal families

@dataclass(frozen=True)
class ToroidalFamily:
    family: str
    param_names: tuple
    chiral: bool

    def order(self, params: dict) -> int:
        return _toroidal_order(self.family, params)

    def in_range(self, params: dict) -> bool:
        return _toroidal_in_range(self.family, params)


def _s_range(m: int, n: int):
    lo, hi = -Q(m, 2), Q(n - m, 2)
    return range(ceil(lo), floor(hi) + 1)


def _toroidal_order(family: str, p: dict) -> int:
    m, n = p.get("m", 0), p.get("n", 0)
    if family == "1":
        return m * n
    if family == ".":
        return 2 * m * n
    if family in ("\\/pm", "\\/pg", "//pm", "//pg"):
        return m * n
    if family in ("\\/cm", "//cm"):
        return 2 * m * n
    if family in ("X/p2mm", "X/p2mg", "X/p2gm", "X/p2gg"):
        return 2 * m * n
    if family == "X/c2mm":
        return 4 * m * n
    if family in ("|/pm", "|/pg"):
        return 2 * m * n
    if family == "|/cm":
        return 4 * m * n
    if family in ("+/p2mm", "+/p2mg", "+/p2gg"):
        return 4 * m * n
    if family == "+/c2mm":
        return 8 * m * n
    if family == "L":
        a, b = p["a"], p["b"]
        return 4 * (a * a + b * b)
    if family in ("*/p4mmU", "*/p4gmU"):
        return 8 * p["n"] ** 2
    if family in ("*/p4mmS", "*/p4gmS"):
        return 16 * p["n"] ** 2
    raise SpecError(f"unknown toroidal family {family}")


def _toroidal_in_range(family: str, p: dict) -> bool:
    m, n = p.get("m", 0), p.get("n", 0)
    if family in ("1", "."):
        s = p["s"]
        if m < 1 or n < 1 or not (-Q(m, 2) <= s <= Q(n - m, 2)):
            return False
        return family == "1" or (m, n) not in ((1, 1), (2, 1))
    if family == "\\/pm":
        return m % 2 == 0 and n % 2 == 0 and m >= 4 and n >= 4
    if family == "\\/pg":
        return m % 2 == 0 and n % 2 == 0 and m >= 4 and n >= 2
    if family == "\\/cm":
        return m >= 3 and n >= 2 and (m - n) % 2 == 0
    if family == "//pm":
        return m % 2 == 0 and n % 2 == 0 and m >= 4 and n >= 4
    if family == "//pg":
        return m % 2 == 0 and n % 2 == 0 and m >= 2 and n >= 4
    if family == "//cm":
        return m >= 2 and n >= 3 and (m - n) % 2 == 0
    if family in ("X/p2mm", "X/p2mg", "X/p2gm", "X/p2gg"):
        return m % 2 == 0 and n % 2 == 0 and m >= 4 and n >= 4
    if family == "X/c2mm":
        return m >= 3 and n >= 3 and (m - n) % 2 == 0
    if family in ("|/pm", "|/pg", "|/cm"):
        return m >= 1 and n >= 1
    if family in ("+/p2mm", "+/p2gg"):
        return m >= n >= 1 and (m, n) != (1, 1)
    if family == "+/p2mg":
        return m >= 1 and n >= 1 and (m, n) != (1, 1)
    if family == "+/c2mm":
        return m >= n >= 1 and (m, n) != (1, 1)
    if family == "L":
        a, b = p["a"], p["b"]
        return a >= b >= 0 and a >= 2 and (a, b) != (2, 0)
    if family in ("*/p4mmU", "*/p4gmU"):
        return p["n"] >= 3
    if family in ("*/p4mmS", "*/p4gmS"):
        return p["n"] >= 2
    raise SpecError(f"unknown toroidal family {family}")


_TOROIDAL_PARAMS = {
    "1": ("m", "n", "s"), ".": ("m", "n", "s"),
    "\\/pm": ("m", "n"), "\\/pg": ("m", "n"), "\\/cm": ("m", "n"),
    "//pm": ("m", "n"), "//pg": ("m", "n"), "//cm": ("m", "n"),
    "X/p2mm": ("m", "n"), "X/p2mg": ("m", "n"), "X/p2gm": ("m", "n"),
    "X/p2gg": ("m", "n"), "X/c2mm": ("m", "n"),
    "|/pm": ("m", "n"), "|/pg": ("m", "n"), "|/cm": ("m", "n"),
    "+/p2mm": ("m", "n"), "+/p2mg": ("m", "n"), "+/p2gg": ("m", "n"),
    "+/c2mm": ("m", "n"),
    "L": ("a", "b"),
    "*/p4mmU": ("n",), "*/p4gmU": ("n",), "*/p4mmS": ("n",), "*/p4gmS": ("n",),
}

_TOROIDAL_CHIRAL = {
    "1": True, ".": True,
    "\\/pm": True, "\\/pg": True, "\\/cm": True,
    "//pm": True, "//pg": True, "//cm": True,
    "X/p2mm": True, "X/p2mg": True, "X/p2gm": True, "X/p2gg": True, "X/c2mm": True,
    "|/pm": False, "|/pg": False, "|/cm": False,
    "+/p2mm": False, "+/p2mg": False, "+/p2gg": False, "+/c2mm": False,
    "L": False,
    "*/p4mmU": False, "*/p4gmU": False, "*/p4mmS": False, "*/p4gmS": False,
}

TOROIDAL_FAMILIES = {
    fam: ToroidalFamily(fam, _TOROIDAL_PARAMS[fam], _TOROIDAL_CHIRAL[fam])
    for fam in _TOROIDAL_PARAMS
}


def _toroidal_generators(family: str, p: dict):
    m, n = p.get("m", 0), p.get("n", 0)
    if family in ("1", "."):
        s = p["s"]
        gens = [
            rotation(exp_i(Q(-2, m)), ONE),
            rotation(exp_i(Q(-(m + 2 * s), m * n)), exp_i(Q(1, n))),
        ]
        if family == ".":
            gens.append(rotation(QJ, QJ))
        return gens
    if family.startswith("\\/") or family.startswith("//"):
        swap = QK if family.startswith("//") else None
        if family.endswith("cm"):
            gens = [
                rotation(exp_i(Q(2, m)), ONE),
                rotation(ONE, exp_i(Q(2, n))),
                rotation(exp_i(Q(1, m)), exp_i(Q(1, n))),
            ]
            half = None
        else:
            mh, nh = m // 2, n // 2
            gens = [rotation(exp_i(Q(1, mh)), ONE), rotation(ONE, exp_i(Q(1, nh)))]
            half = (mh, nh)
        if family == "\\/pm" or family == "\\/cm":
            gens.append(rotation(MINUS_K, QI))
        elif family == "\\/pg":
            gens.append(rotation(MINUS_K, exp_i(Q(1, 2 * half[1]) + Q(1, 2))))
        elif family == "//pm" or family == "//cm":
            gens.append(rotation(QI, QK))
        elif family == "//pg":
            gens.append(rotation(exp_i(Q(1, 2 * half[0]) + Q(1, 2)), QK))
        return gens
    if family.startswith("X/"):
        sub = family[2:]
        if sub == "c2mm":
            return [
                rotation(exp_i(Q(2, m)), ONE),
                rotation(ONE, exp_i(Q(2, n))),
                rotation(exp_i(Q(1, m)), exp_i(Q(1, n))),
                rotation(QI, QK),
                rotation(MINUS_K, QI),
            ]
        mh, nh = m // 2, n // 2
        base = [rotation(exp_i(Q(1, mh)), ONE), rotation(ONE, exp_i(Q(1, nh)))]
        if sub == "p2mm":
            return base + [rotation(QI, QK), rotation(MINUS_K, QI)]
        if sub == "p2mg":
            sh = Q(1, 2 * nh)
            return base + [
                rotation(QI, CycloQuat(sh + Q(1, 2), 1)),
                rotation(MINUS_K, exp_i(sh + Q(1, 2))),
            ]
        if sub == "p2gm":
            sh = Q(1, 2 * mh)
            return base + [
                rotation(exp_i(sh + Q(1, 2)), QK),
                rotation(CycloQuat(sh + Q(3, 2), 1), QI),
            ]
        if sub == "p2gg":
            shm, shn = Q(1, 2 * mh), Q(1, 2 * nh)
            return base + [
                rotation(exp_i(shm + Q(1, 2)), CycloQuat(shn + Q(1, 2), 1)),
                rotation(CycloQuat(shm + Q(3, 2), 1), exp_i(shn + Q(1, 2))),
            ]
    if family.startswith("|/"):
        base = [
            rotation(exp_i(Q(1, m)), exp_i(Q(1, m))),
            rotation(exp_i(Q(1, n)), exp_i(Q(-1, n))),
        ]
        sub = family[2:]
        if sub == "pm":
            return base + [reflection(QI, QI)]
        if sub == "pg":
            g = exp_i(Q(1, 2) + Q(1, 2 * m))
            return base + [reflection(g, g)]
        if sub == "cm":
            mid = rotation(exp_i(Q(1, 2 * m) + Q(1, 2 * n)), exp_i(Q(1, 2 * m) - Q(1, 2 * n)))
            return base + [mid, reflection(QI, QI)]
    if family.startswith("+/"):
        base = [
            rotation(exp_i(Q(1, m)), exp_i(Q(1, m))),
            rotation(exp_i(Q(1, n)), exp_i(Q(-1, n))),
        ]
        sub = family[2:]
        if sub == "p2mm":
            return base + [reflection(QI, QI), reflection(QK, QK)]
        if sub == "p2mg":
            sh = Q(1, 2 * n)
            return base + [
                reflection(exp_i(Q(1, 2) + sh), exp_i(Q(1, 2) - sh)),
                reflection(CycloQuat(Q(1, 2) - sh, 1), CycloQuat(Q(1, 2) + sh, 1)),
            ]
        if sub == "p2gg":
            u, v = Q(1, 2 * m) + Q(1, 2 * n), Q(1, 2 * m) - Q(1, 2 * n)
            return base + [
                reflection(exp_i(Q(1, 2) + u), exp_i(Q(1, 2) + v)),
                reflection(CycloQuat(Q(1, 2) - u, 1), CycloQuat(Q(1, 2) - v, 1)),
            ]
        if sub == "c2mm":
            mid = rotation(exp_i(Q(1, 2 * m) + Q(1, 2 * n)), exp_i(Q(1, 2 * m) - Q(1, 2 * n)))
            return base + [mid, reflection(QI, QI), reflection(QK, QK)]
    if family == "L":
        a, b = p["a"], p["b"]
        c2 = a * a + b * b
        return [
            rotation(exp_i(Q(-(a + b), c2)), exp_i(Q(a - b, c2))),
            rotation(exp_i(Q(a - b, c2)), exp_i(Q(a + b, c2))),
            reflection(MINUS_J, ONE),
        ]
    if family.startswith("*/"):
        nn = p["n"]
        sub = family[2:]
        if sub == "p4mmU":
            return [
                rotation(exp_i(Q(1, nn)), exp_i(Q(1, nn))),
                rotation(exp_i(Q(1, nn)), exp_i(Q(-1, nn))),
                rotation(QI, QK),
                reflection(QI, QI),
            ]
        if sub == "p4gmU":
            sh = Q(1, nn)
            return [
                rotation(exp_i(Q(1, nn)), exp_i(Q(1, nn))),
                rotation(exp_i(Q(1, nn)), exp_i(Q(-1, nn))),
                rotation(exp_i(Q(1, 2) + sh), QK),
                reflection(exp_i(Q(1, 2) + sh), QI),
            ]
        if sub == "p4mmS":
            return [
                rotation(exp_i(Q(1, nn)), ONE),
                rotation(ONE, exp_i(Q(1, nn))),
                rotation(QI, QK),
                reflection(QI, QI),
            ]
        if sub == "p4gmS":
            sh = Q(1, 2 * nn)
            return [
                rotation(exp_i(Q(1, nn)), ONE),
                rotation(ONE, exp_i(Q(1, nn))),
                rotation(exp_i(Q(1, 2) + sh), CycloQuat(Q(1, 2) - sh, 1)),
                reflection(exp_i(Q(1, 2) + sh), exp_i(Q(1, 2) + sh)),
            ]
    raise SpecError(f"unknown toroidal family {family}")



def _build_toroidal(spec: GroupSpec) -> PointGroup:
    p = dict(spec.params)
    return generate(_toroidal_generators(spec.family, p))


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


def _simplex_group(diploid: bool) -> PointGroup:
    """The twisted-diagonal icosahedral groups of the 4-simplex."""
    for sign in (1, -1):
        gen2 = rotation(I_I, I_I_PRIME if sign > 0 else quat_neg(I_I_PRIME))
        G = generate([rotation(OMEGA, OMEGA), gen2])
        has_neg = Transform4(False, ONE, MINUS_ONE) in G.elements
        if has_neg == diploid:
            return G
    raise SpecError("simplex group construction failed")


def _has_hyperplane_mirror(G: PointGroup) -> bool:
    """True if some reversing element is a reflection R̄_0 (trace +2)."""
    for g in G.elements:
        if g.star and abs(to_matrix(g).trace() - 2.0) < 1e-9:
            return True
    return False


@lru_cache(maxsize=None)
def _polyhedral_chiral(name: str) -> PointGroup:
    T, O, I2 = two_T(), two_O(), two_I()
    full = {
        "+-[TxT]": (T, T), "+-[TxO]": (T, O), "+-[OxT]": (O, T),
        "+-[OxO]": (O, O), "+-[TxI]": (T, I2), "+-[IxT]": (I2, T),
        "+-[OxI]": (O, I2), "+-[IxO]": (I2, O), "+-[IxI]": (I2, I2),
    }
    if name in full:
        return _full_product(*full[name])
    if name == "+-1/2[OxO]":
        return _fraction_group(O, T)
    if name == "+-1/6[OxO]":
        return _fraction_group(O, quaternion_Q8())
    if name == "+-1/3[TxT]":
        return _fraction_group(T, quaternion_Q8())
    if name == "+-1/60[IxIb]":
        return _simplex_group(diploid=True)
    if name == "+1/60[IxIb]":
        return _simplex_group(diploid=False)
    raise SpecError(f"unknown polyhedral group {name}")


_STAR = reflection(ONE, ONE)
_MINUS_STAR = reflection(ONE, MINUS_ONE)


@lru_cache(maxsize=None)
def _polyhedral_group(name: str) -> PointGroup:
    if name in POLYHEDRAL_CHIRAL:
        return _polyhedral_chiral(name)
    base, ext = name.rsplit(".", 1)
    G = _polyhedral_chiral(base)
    if ext == "2":
        e = _STAR
    elif ext == "2b":
        e = reflection(ONE, I_O) if base == "+-1/2[OxO]" else reflection(I_O, I_O)
    elif ext == "23":
        e = _STAR if _has_hyperplane_mirror(extend_achiral(G, _STAR)) else _MINUS_STAR
    elif ext == "21":
        e = _MINUS_STAR if _has_hyperplane_mirror(extend_achiral(G, _STAR)) else _STAR
    else:
        raise SpecError(f"unknown polyhedral group {name}")
    return extend_achiral(G, e)


POLYHEDRAL_CHIRAL = {
    "+-[TxT]": 288, "+-1/3[TxT]": 96, "+-[TxO]": 576, "+-[OxT]": 576,
    "+-[TxI]": 1440, "+-[IxT]": 1440, "+-[OxO]": 1152, "+-1/2[OxO]": 576,
    "+-1/6[OxO]": 192, "+-[OxI]": 2880, "+-[IxO]": 2880, "+-[IxI]": 7200,
    "+-1/60[IxIb]": 120, "+1/60[IxIb]": 60,
}

POLYHEDRAL_ACHIRAL = {
    "+-[IxI].2": 14400, "+-[OxO].2": 2304, "+-1/2[OxO].2": 1152,
    "+-1/2[OxO].2b": 1152, "+-[TxT].2": 576, "+-1/6[OxO].2": 384,
    "+-1/3[TxT].2": 192, "+-1/3[TxT].2b": 192, "+-1/60[IxIb].2": 240,
    "+1/60[IxIb].23": 120, "+1/60[IxIb].21": 120,
}

POLYHEDRAL_ORDERS = {**POLYHEDRAL_CHIRAL, **POLYHEDRAL_ACHIRAL}

# Coxeter-style aliases for the polyhedral groups
POLYHEDRAL_COXETER = {
    "+-[IxI].2": "[3,3,5]", "+-[IxI]": "[3,3,5]+",
    "+-[IxT]": "[3,3,5]+_1/5L", "+-[TxI]": "[3,3,5]+_1/5R",
    "+-[IxO]": "[[3,3,5]+_1/5L]", "+-[OxI]": "[[3,3,5]+_1/5R]",
    "+-[OxO].2": "[[3,4,3]]", "+-[OxO]": "[[3,4,3]]+",
    "+-1/2[OxO].2": "[3,4,3]", "+-1/2[OxO]": "[3,4,3]+",
    "+-1/2[OxO].2b": "[[3,4,3]+]",
    "+-[TxT].2": "[3,4,3+]", "+-[TxT]": "[+3,4,3+]",
    "+-[OxT]": "[[+3,4,3+]]L", "+-[TxO]": "[[+3,4,3+]]R",
    "+-1/6[OxO].2": "[3,3,4]", "+-1/6[OxO]": "[3,3,4]+",
    "+-1/3[TxT].2": "[+3,3,4]", "+-1/3[TxT].2b": "[3,3,4+]",
    "+-1/3[TxT]": "[+3,3,4+]",
    "+-1/60[IxIb].2": "[[3,3,3]]", "+-1/60[IxIb]": "[[3,3,3]]+",
    "+1/60[IxIb]": "[3,3,3]+", "+1/60[IxIb].23": "[3,3,3]",
    "+1/60[IxIb].21": "[[3,3,3]+]",
}


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


def _g3_sets(name: str):
    tag_p, tag_m = _G3[name]
    sets = {"T": two_T(), "O": two_O(), "I": two_I()}
    proper = sets[tag_p]
    if tag_m is None:
        improper = frozenset()
    elif tag_m == "O-T":
        improper = sets["O"] - sets["T"]
    else:
        improper = sets[tag_m]
    return proper, improper


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


AXIAL_FAMILIES = (
    [f"pyr:{g}" for g in _G3]
    + [f"prism:{g}" for g in _G3]
    + [f"hyb:{h}<{g}" for h, g in HYBRIDS]
)

# Conway-Smith names for the axial groups (for display only)
AXIAL_CS_NAMES = {
    "pyr:+-I": "+1/60[IxI].23", "pyr:+I": "+1/60[IxI]",
    "pyr:+-O": "+1/24[OxO].23", "pyr:+O": "+1/24[OxO]",
    "pyr:TO": "+1/12[TxTb].21", "pyr:+-T": "+1/12[TxT].23",
    "pyr:+T": "+1/12[TxT]",
    "prism:+-I": "+-1/60[IxI].2", "prism:+I": "+1/60[IxI].21",
    "prism:+-O": "+-1/24[OxO].2", "prism:+O": "+1/24[OxO].21",
    "prism:TO": "+1/24[OxOb].21", "prism:+-T": "+-1/12[TxT].2",
    "prism:+T": "+1/12[TxT].21",
    "hyb:+I<+-I": "+-1/60[IxI]", "hyb:+-T<+-O": "+1/24[OxOb].23",
    "hyb:+O<+-O": "+-1/24[OxO]", "hyb:TO<+-O": "+-1/12[TxTb].2",
    "hyb:+T<+-T": "+-1/12[TxT]", "hyb:+T<+O": "+1/12[TxTb].23",
    "hyb:+T<TO": "+1/24[OxOb]",
}


# ---------------------------------------------------------------------------
# build / order / constraints

def spec_order(spec: GroupSpec) -> int:
    if spec.kind == "tubical":
        fam = TUBICAL_FAMILIES[tubical_base(spec.family)]
        return fam.order_factor * spec.param("n")
    if spec.kind == "toroidal":
        return _toroidal_order(spec.family, dict(spec.params))
    if spec.kind == "polyhedral":
        return POLYHEDRAL_ORDERS[spec.family]
    return _axial_order(spec.family)


def constraints_ok(spec: GroupSpec) -> bool:
    if spec.kind == "tubical":
        fam = TUBICAL_FAMILIES[tubical_base(spec.family)]
        return spec.param("n") >= fam.n_min
    if spec.kind == "toroidal":
        return _toroidal_in_range(spec.family, dict(spec.params))
    if spec.kind == "polyhedral":
        return spec.family in POLYHEDRAL_ORDERS
    return spec.family in AXIAL_FAMILIES


def build_unchecked(spec: GroupSpec) -> PointGroup:
    if spec.kind == "tubical":
        return _build_tubical(spec)
    if spec.kind == "toroidal":
        return _build_toroidal(spec)
    if spec.kind == "polyhedral":
        return _polyhedral_group(spec.family)
    return _axial_group(spec.family)


def build(spec: GroupSpec) -> PointGroup:
    """Construct the catalog group; rejects out-of-range parameters."""
    if not constraints_ok(spec):
        raise SpecError(f"parameters out of range for {spec.spec_string()}")
    G = build_unchecked(spec)
    expected = spec_order(spec)
    if len(G.elements) != expected:
        raise SpecError(
            f"{spec.spec_string()}: built order {len(G.elements)} != expected {expected}")
    return G


# ---------------------------------------------------------------------------
# Conway-Smith name for torus translation groups

def cs_name_type1(spec: GroupSpec) -> str:
    """Conway-Smith name ±(1/f)[C_m^(s') x C_n] / +(1/f)[...] of a ⊙1 group."""
    if spec.kind != "toroidal" or spec.family != "1":
        raise SpecError("cs_name_type1 expects a torus translation spec")
    m, n, s = spec.param("m"), spec.param("n"), spec.param("s")
    # translation lattice in units of 2pi
    pts = set()
    for a in range(m):
        for b in range(n):
            x = Q(a, m) + b * (Q(1, n) + Q(s, m * n))
            y = Q(a, m) + b * Q(s, m * n) - Q(b, n)
            pts.add((x % 1, y % 1))
    diploid = (Q(1, 2), Q(1, 2)) in pts
    k_r = sum(1 for x, y in pts if (x + y) % 1 == 0)
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
        names = info.param_names
        if names == ("m", "n", "s"):
            half = N if fam == "1" else (N // 2 if N % 2 == 0 else 0)
            if not half:
                continue
            for m in range(1, half + 1):
                if half % m:
                    continue
                n = half // m
                for s in _s_range(m, n):
                    sp = toroidal_spec(fam, m=m, n=n, s=s)
                    if constraints_ok(sp):
                        specs.append(sp)
        elif names == ("m", "n"):
            base = _toroidal_order(fam, {"m": 1, "n": 1})
            if N % base:
                continue
            mn = N // base
            for m in range(1, mn + 1):
                if mn % m:
                    continue
                sp = toroidal_spec(fam, m=m, n=mn // m)
                if constraints_ok(sp):
                    specs.append(sp)
        elif names == ("a", "b"):
            if N % 4:
                continue
            c2 = N // 4
            for b in range(isqrt(c2 // 2) + 1):
                a2 = c2 - b * b
                a = isqrt(a2)
                if a * a == a2 and a >= b:
                    sp = toroidal_spec(fam, a=a, b=b)
                    if constraints_ok(sp):
                        specs.append(sp)
        else:  # ("n",)
            base = 8 if fam.endswith("U") else 16
            if N % base:
                continue
            k = isqrt(N // base)
            if base * k * k == N:
                sp = toroidal_spec(fam, n=k)
                if constraints_ok(sp):
                    specs.append(sp)
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
        params = _parse_params(ps)
        if "n" not in params:
            raise ParseError("tubical spec needs n=")
        return tubical_spec(fam, params["n"])
    if text.startswith("tor:"):
        m = _TOR_RE.match(text)
        if not m:
            raise ParseError(f"bad toroidal spec {text!r}")
        fam, ps = m.group(1), m.group(2)
        if fam not in TOROIDAL_FAMILIES:
            raise ParseError(f"unknown toroidal family {fam!r}")
        params = _parse_params(ps)
        missing = [k for k in TOROIDAL_FAMILIES[fam].param_names if k not in params]
        if missing:
            raise ParseError(f"missing parameters {missing} for {fam}")
        return toroidal_spec(fam, **params)
    if text.startswith("poly:"):
        name = text[5:]
        for cs, cox in POLYHEDRAL_COXETER.items():
            if name == cox:
                name = cs
                break
        if name not in POLYHEDRAL_ORDERS:
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


def _parse_params(ps: str) -> dict:
    params = {}
    if not ps:
        return params
    for item in ps.split(","):
        if "=" not in item:
            raise ParseError(f"bad parameter {item!r}")
        k, v = item.split("=", 1)
        try:
            params[k.strip()] = int(v)
        except ValueError:
            raise ParseError(f"bad integer in {item!r}") from None
    return params
