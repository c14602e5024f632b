"""Torus coordinates, lattice normalization, and toroidal classification.

On the standard Clifford torus (coordinates phi1, phi2, both mod 2pi) every
toroidal transformation is a directional part from the dihedral group D8 of
the square grid plus a translation.  The directional tag is read off the
quaternion pair: the reversing flag together with the two j-bits.

All torus data here lives in units of 2*pi.  A translation is a pair of ints
(u1, u2) modulo one positive modulus den, standing for (u1/den, u2/den) mod 1;
``to_torus_rep`` puts every element of a group over the same modulus, twice
the lcm of the group's angle denominators, so lattice and mirror tests are
plain int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .algebra import CycloQuat, RepresentationError, _cyc_make
from .catalog import (
    TOROIDAL_FAMILIES,
    GroupSpec,
    SpecError,
    build_unchecked,
    constraints_ok,
    spec_order,
    toroidal_spec,
)
from .constants import MINUS_K, ONE, QI, QJ, QK
from .group import PointGroup, conjugate, equals
from .transform import Transform4, rotation

# (reversing, jbit_l, jbit_r) -> directional tag
TAG_OF_BITS = {
    (False, 0, 0): "1", (False, 1, 1): ".",
    (False, 0, 1): "/", (False, 1, 0): "\\",
    (True, 0, 0): "|", (True, 1, 1): "-",
    (True, 1, 0): "L", (True, 0, 1): "R",
}

# directional action on (phi1, phi2): (phi1, phi2) -> A(phi1, phi2) + t
TAG_ACTION = {
    "1": lambda u, v: (u, v),
    ".": lambda u, v: (-u, -v),
    "/": lambda u, v: (v, u),
    "\\": lambda u, v: (-v, -u),
    "|": lambda u, v: (-u, v),
    "-": lambda u, v: (u, -v),
    "L": lambda u, v: (-v, u),
    "R": lambda u, v: (v, -u),
}


class TorusElement:
    """Directional tag and translation (u1/den, u2/den) mod 1, 0 <= u < den."""

    __slots__ = ("tag", "u1", "u2", "den")

    def __init__(self, tag: str, u1: int, u2: int, den: int):
        self.tag = tag
        self.u1 = u1
        self.u2 = u2
        self.den = den

    @property
    def t1(self) -> Fraction:
        return Fraction(self.u1, self.den)

    @property
    def t2(self) -> Fraction:
        return Fraction(self.u2, self.den)

    def lifted(self, den: int) -> TorusElement:
        """The same element over a multiple den of its modulus."""
        k = den // self.den
        return TorusElement(self.tag, self.u1 * k, self.u2 * k, den)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (self.tag == other.tag and self.u1 * other.den == other.u1 * self.den
                and self.u2 * other.den == other.u2 * self.den)

    def __hash__(self):
        return hash((self.tag, self.t1, self.t2))

    def __repr__(self):
        return f"TorusElement({self.tag!r}, {self.u1}/{self.den}, {self.u2}/{self.den})"


class NotToroidalError(ValueError):
    pass


def torus_element(g: Transform4, den: int | None = None) -> TorusElement:
    """Directional tag and exact translation part of a torus-standard element.

    The translation is given over ``den``, a multiple of twice both angle
    denominators of ``g``; by default the least such modulus.
    """
    l, r = g.l, g.r
    if not isinstance(l, CycloQuat) or not isinstance(r, CycloQuat):
        raise NotToroidalError("element is not toroidal in standard coordinates")
    if den is None:
        den = 2 * lcm(l.den, r.den)
    elif den % (2 * l.den) or den % (2 * r.den):
        raise ValueError(f"modulus {den} is not a multiple of 2*{l.den} and 2*{r.den}")
    # rotation angles in units of 2*pi, times den
    a = l.num * (den // (2 * l.den))
    b = r.num * (den // (2 * r.den))
    h = den // 2
    tag = TAG_OF_BITS[(g.star, l.jbit, r.jbit)]
    if tag == "1":
        t1, t2 = b - a, -a - b
    elif tag == ".":
        t1, t2 = a - b, a + b
    elif tag == "/":
        t1, t2 = h - a - b, b - a
    elif tag == "\\":
        t1, t2 = a + b, a - b + h
    elif tag == "|":
        t1, t2 = b - a, h - a - b
    elif tag == "-":
        t1, t2 = a - b, a + b - h
    elif tag == "L":
        t1, t2 = a + b - h, a - b + h
    else:  # "R"
        t1, t2 = -a - b, b - a
    return TorusElement(tag, t1 % den, t2 % den, den)


def to_torus_rep(G: PointGroup) -> list:
    """Torus elements of G, all over one modulus: twice the lcm of its angle denominators."""
    # an element off the standard torus is rejected by torus_element
    den = 2 * lcm(*{q.den for g in G.elements for q in (g.l, g.r)
                    if isinstance(q, CycloQuat)})
    return [torus_element(g, den) for g in G.elements]


# ---------------------------------------------------------------------------
# translation lattices

@dataclass(frozen=True)
class TorusLattice:
    m: int
    n: int
    s: int


def _lattice_points(translations):
    """(pts, den): the translations and the origin as int pairs over one modulus."""
    dens = {t.den for t in translations}
    if len(dens) > 1:
        den = lcm(*dens)
        translations = [t.lifted(den) for t in translations]
    else:
        den = dens.pop() if dens else 1
    pts = {(t.u1, t.u2) for t in translations}
    pts.add((0, 0))
    return pts, den


def normalize_lattice(translations) -> TorusLattice:
    """Unique (m, n, s) of a translation lattice, s in the canonical range."""
    return _lattice_params(*_lattice_points(translations))


def _lattice_params(pts: set, den: int) -> TorusLattice:
    m = sum(1 for x, y in pts if x == y)
    offsets = {(x - y) % den for x, y in pts}
    n = len(offsets)
    if m * n != len(pts):
        raise NotToroidalError("translation set is not a lattice")
    if n == 1:
        s0 = 0
    else:
        delta = den // n
        xs = [x for x, y in pts if (x - y) % den == delta] if den % n == 0 else []
        if not xs:
            raise NotToroidalError("missing first lattice line")
        val = (xs[0] - delta) * m * n
        if val % den:
            raise NotToroidalError("lattice point off the parameter grid")
        s0 = (val // den) % n
    s = _canonical_s(m, n, s0)
    return TorusLattice(m, n, s)


def _canonical_s(m: int, n: int, s0: int) -> int:
    """In-range representative; prefers the unflipped class s0 + nZ."""
    for base in (s0, (-m - s0) % n):
        for k in range(-(m // n + 2), 2):
            s = base + k * n
            if -m <= 2 * s <= n - m:
                return s
    raise NotToroidalError(f"no canonical s for (m={m}, n={n}, s0={s0})")


# ---------------------------------------------------------------------------
# classification

def _axis_counts(pts, den):
    """(m, n, rhombic) for axis-aligned lattices: y-step 1/m, x-step 1/n."""
    sx = min((x for x, y in pts if y == 0 and x > 0), default=den)
    sy = min((y for x, y in pts if x == 0 and y > 0), default=den)
    m, n = den // sy, den // sx
    return m, n, len(pts) == 2 * m * n


def _diag_counts(pts, den):
    """(M, N, rhombic): points on the principal and secondary diagonals."""
    M = sum(1 for x, y in pts if x == y)
    N = sum(1 for x, y in pts if (x + y) % den == 0)
    return M, N, len(pts) == M * N


# the torus swap (phi1, phi2) -> (phi2, phi1), conjugation by [i, k], on directional tags
_SWAPPED_TAG = {"|": "-", "-": "|", "L": "R", "R": "L"}


def _has_mirror(by_tag, tag: str) -> bool:
    """Some element with directional part tag fixes a line: a mirror, not a glide."""
    reps = by_tag[tag]
    if tag == "|":
        return any(r.u2 == 0 for r in reps)
    if tag == "-":
        return any(r.u1 == 0 for r in reps)
    if tag == "/":
        return any((r.u1 + r.u2) % r.den == 0 for r in reps)
    return any(r.u1 == r.u2 for r in reps)  # "\\"


def _one_mirror_subtype(mirror: bool, rhombic: bool) -> str:
    return "cm" if (mirror and rhombic) else ("pm" if mirror else "pg")


def _two_mirror_subtype(mirror_a: bool, mirror_b: bool, rhombic: bool) -> str:
    if mirror_a and mirror_b:
        return "c2mm" if rhombic else "p2mm"
    if mirror_a:
        return "p2mg"
    return "p2gm" if mirror_b else "p2gg"


def classify_toroidal(G: PointGroup) -> GroupSpec:
    """The catalog spec of G, read from its torus data ``to_torus_rep(G)`` alone."""
    reps = to_torus_rep(G)
    tags = frozenset(r.tag for r in reps)
    if tags == {"1", "-"}:  # read the group as its torus swap, a |/ group
        reps = [TorusElement(_SWAPPED_TAG.get(r.tag, r.tag), r.u2, r.u1, r.den) for r in reps]
        tags = frozenset(("1", "|"))
    by_tag = {}
    for r in reps:
        by_tag.setdefault(r.tag, []).append(r)
    pts, den = _lattice_points(by_tag.get("1", []))

    if tags <= {"1"} or tags == {"1", "."}:
        lat = _lattice_params(pts, den)
        fam = "1" if tags <= {"1"} else "."
        params = {"m": lat.m, "n": lat.n, "s": lat.s}
    elif tags == {"1", "|"}:
        m, n, rhombic = _axis_counts(pts, den)
        fam = "|/" + _one_mirror_subtype(_has_mirror(by_tag, "|"), rhombic)
        params = {"m": m, "n": n}
    elif tags == {"1", "/"} or tags == {"1", "\\"}:
        M, N, rhombic = _diag_counts(pts, den)
        tag = "/" if "/" in tags else "\\"
        fam = tag + "/" + _one_mirror_subtype(_has_mirror(by_tag, tag), rhombic)
        params = {"m": M, "n": N}
    elif tags == {"1", ".", "/", "\\"}:
        M, N, rhombic = _diag_counts(pts, den)
        sub = _two_mirror_subtype(_has_mirror(by_tag, "/"), _has_mirror(by_tag, "\\"), rhombic)
        fam, params = "X/" + sub, {"m": M, "n": N}
    elif tags == {"1", "|", "-", "."}:
        m, n, rhombic = _axis_counts(pts, den)
        sub = _two_mirror_subtype(_has_mirror(by_tag, "|"), _has_mirror(by_tag, "-"), rhombic)
        if sub == "p2gm":  # the swap of a +/p2mg group
            sub, m, n = "p2mg", n, m
        fam, params = "+/" + sub, {"m": m, "n": n}
    elif tags == {"1", ".", "L", "R"}:
        a, b = _square_lattice_params(pts, den)
        fam, params = "L", {"a": a, "b": b}
    elif tags == {"1", ".", "/", "\\", "|", "-", "L", "R"}:
        c2 = len(pts)
        k = _isqrt_exact(c2)
        if k is not None:
            sub_kind, nn = "U", k
        else:
            k = _isqrt_exact(c2 // 2) if c2 % 2 == 0 else None
            if k is None:
                raise NotToroidalError("full torus group with non-square lattice")
            sub_kind, nn = "S", k
        sub = "p4mm" if all(_has_mirror(by_tag, t) for t in "|-/\\") else "p4gm"
        fam, params = "*/" + sub + sub_kind, {"n": nn}
    else:
        raise NotToroidalError(f"unrecognized directional group {sorted(tags)}")
    return canonicalize_duplicates(toroidal_spec(fam, **params))


def _isqrt_exact(x: int):
    k = isqrt(x)
    return k if k * k == x else None


def _square_lattice_params(pts, den):
    """(a, b), both >= 0 and in either order, for a square lattice of a^2 + b^2
    points; ``canonicalize_duplicates`` puts a >= b."""
    c2 = len(pts)
    best = min(((x * x + y * y, x, y) for x, y in pts if (x, y) != (0, 0)), default=None)
    if best is None:
        return (1, 0) if c2 == 1 else (0, 0)
    _, x, y = best
    if (x * c2) % den or (y * c2) % den:
        raise NotToroidalError("lattice is not a square sublattice of the grid")
    a, b = x * c2 // den, y * c2 // den
    if a * a + b * b != c2:
        raise NotToroidalError("minimal vector does not generate the square lattice")
    return a, b


# ---------------------------------------------------------------------------
# duplications

# The overview table keeps one spec per conjugacy class; the parameter ranges
# of ``constraints_ok`` exclude every other spec of the class.  Each excluded
# (family, parameter class) has one canonical partner whose parameters are
# linear in the source's, and ``_DUPLICATION_RULES`` lists them:
#
#   family -> rows (where, target family, target parameters), first match wins.
#
# ``where`` holds one parameter class per parameter of the family, in its
# ``param_names`` order: an int is that value, and a name from
# ``_PARAM_CLASSES`` is the positive ints with that residue.  The target
# parameters are a function of the source parameters.  The source is first
# put in order by ``_in_order``, so a ``.`` spec has its in-range s.

_PARAM_CLASSES = {"odd": (2, 1), "even": (2, 0), "0 mod 4": (4, 0), "2 mod 4": (4, 2)}


def _in_class(k: int, where) -> bool:
    if isinstance(where, int):
        return k == where
    q, r = _PARAM_CLASSES[where]
    return k > 0 and k % q == r


def _odd_s(m: int) -> int:
    """The odd s in range for (m, 2): -(m - 2)/2 if 4 | m, else -m/2."""
    return 1 - 2 * ((m + 2) // 4)


_DUPLICATION_RULES = {
    ".": [
        ((1, 1, 0), "1", lambda m, n, s: (1, 2, 0)),
        ((2, 1, -1), "1", lambda m, n, s: (2, 2, 0)),
    ],
    "//cm": [
        (("odd", 1), "1", lambda m, n: (m, 2, -(m - 1) // 2)),
        ((1, "odd"), ".", lambda m, n: (1, n, (n - 1) // 2)),
        ((2, 2), ".", lambda m, n: (2, 2, -1)),
        (("0 mod 4", 2), "//pg", lambda m, n: (m, 4)),
        (("2 mod 4", 2), "//pm", lambda m, n: (m, 4)),
    ],
    "\\/cm": [
        ((1, "odd"), "1", lambda m, n: (1, 2 * n, (n - 1) // 2)),
        (("odd", 1), ".", lambda m, n: (m, 1, -(m - 1) // 2)),
        ((2, 2), ".", lambda m, n: (4, 1, -2)),
        ((2, "0 mod 4"), "\\/pg", lambda m, n: (4, n)),
        ((2, "2 mod 4"), "\\/pm", lambda m, n: (4, n)),
    ],
    "X/c2mm": [
        ((1, "odd"), ".", lambda m, n: (1, 2 * n, (n - 1) // 2)),
        (("odd", 1), ".", lambda m, n: (m, 2, -(m - 1) // 2)),
        ((2, 2), ".", lambda m, n: (4, 2, -2)),
        ((2, "0 mod 4"), "X/p2mg", lambda m, n: (4, n)),
        ((2, "2 mod 4"), "X/p2mm", lambda m, n: (4, n)),
        (("0 mod 4", 2), "X/p2gm", lambda m, n: (m, 4)),
        (("2 mod 4", 2), "X/p2mm", lambda m, n: (m, 4)),
    ],
    "//pm": [
        (("even", 2), "1", lambda m, n: (m, 2, -2 * (m // 4))),
        ((2, "even"), ".", lambda m, n: (2, n // 2, -1)),
    ],
    "\\/pm": [
        ((2, "2 mod 4"), "1", lambda m, n: (2, n, (n - 2) // 2)),
        ((2, "0 mod 4"), "1", lambda m, n: (4, n // 2, -2)),
        (("even", 2), ".", lambda m, n: (m, 1, -m // 2)),
    ],
    "//pg": [
        (("even", 2), "1", lambda m, n: (m, 2, _odd_s(m))),
    ],
    "\\/pg": [
        ((2, "0 mod 4"), "1", lambda m, n: (2, n, (n - 2) // 2)),
        ((2, "2 mod 4"), "1", lambda m, n: (4, n // 2, -2)),
    ],
    "X/p2mm": [
        ((2, "2 mod 4"), ".", lambda m, n: (2, n, (n - 2) // 2)),
        ((2, "0 mod 4"), ".", lambda m, n: (4, n // 2, -2)),
        (("even", 2), ".", lambda m, n: (m, 2, -2 * (m // 4))),
    ],
    "X/p2mg": [
        ((2, "2 mod 4"), ".", lambda m, n: (4, n // 2, -2)),
        ((2, "0 mod 4"), ".", lambda m, n: (2, n, (n - 2) // 2)),
        (("0 mod 4", 2), "\\/pm", lambda m, n: (m, 4)),
        (("2 mod 4", 2), "\\/cm", lambda m, n: (m, 2)),
    ],
    "X/p2gm": [
        ((2, 2), ".", lambda m, n: (2, 2, -1)),
        ((2, "0 mod 4"), "//pm", lambda m, n: (4, n)),
        ((2, "2 mod 4"), "//cm", lambda m, n: (2, n)),
        (("even", 2), ".", lambda m, n: (m, 2, _odd_s(m))),
    ],
    "X/p2gg": [
        ((2, 2), "1", lambda m, n: (4, 2, -2)),
        ((2, "0 mod 4"), "//cm", lambda m, n: (2, n)),
        ((2, "2 mod 4"), "//pm", lambda m, n: (4, n)),
        (("0 mod 4", 2), "\\/cm", lambda m, n: (m, 2)),
        (("2 mod 4", 2), "\\/pm", lambda m, n: (m, 4)),
    ],
    "+/p2mm": [((1, 1), "|/pm", lambda m, n: (1, 2))],
    "+/p2mg": [((1, 1), "|/pm", lambda m, n: (2, 1))],
    "+/p2gg": [((1, 1), "|/pg", lambda m, n: (1, 2))],
    "+/c2mm": [((1, 1), "|/pm", lambda m, n: (2, 2))],
    "L": [
        ((1, 0), "|/pg", lambda a, b: (2, 1)),
        ((1, 1), "|/pg", lambda a, b: (2, 2)),
        ((2, 0), "+/p2gg", lambda a, b: (2, 2)),
    ],
    "*/p4mmU": [
        ((1,), "+/p2mg", lambda n: (1, 2)),
        ((2,), "+/c2mm", lambda n: (2, 2)),
    ],
    "*/p4gmU": [
        ((1,), "+/p2gg", lambda n: (2, 1)),
        ((2,), "L", lambda n: (2, 2)),
    ],
    "*/p4mmS": [((1,), "+/p2mg", lambda n: (2, 2))],
    "*/p4gmS": [((1,), "|/cm", lambda n: (2, 2))],
}


def _in_order(spec: GroupSpec) -> GroupSpec:
    """The spec with its parameters in standard order: the in-range s of a
    ``1`` or ``.`` lattice, m >= n in the swap-symmetric ``+/`` families and
    a >= b for ``L``.  Specs that differ only there are the same group up to
    the torus swap."""
    fam = spec.family
    p = dict(spec.params)
    if fam in ("1", ".") and p["m"] >= 1 and p["n"] >= 1:
        return toroidal_spec(fam, m=p["m"], n=p["n"],
                             s=_canonical_s(p["m"], p["n"], p["s"] % p["n"]))
    if fam in ("+/p2mm", "+/p2gg", "+/c2mm") and p["m"] < p["n"]:
        return toroidal_spec(fam, m=p["n"], n=p["m"])
    if fam == "L" and p["a"] < p["b"]:
        return toroidal_spec("L", a=p["b"], b=p["a"])
    return spec


def _dup_target(spec: GroupSpec):
    """Canonical partner of a constraint-excluded toroidal spec, or None."""
    vals = tuple(v for _, v in spec.params)
    for where, fam, params in _DUPLICATION_RULES.get(spec.family, ()):
        if all(_in_class(v, w) for v, w in zip(vals, where)):
            names = TOROIDAL_FAMILIES[fam].param_names
            return _in_order(toroidal_spec(fam, **dict(zip(names, params(*vals)))))
    return None


def canonicalize_duplicates(spec: GroupSpec) -> GroupSpec:
    """Map a toroidal spec to the representative kept in the overview table."""
    if spec.kind != "toroidal":
        return spec
    cur = _in_order(spec)
    if constraints_ok(cur):
        return cur
    target = _dup_target(cur)
    if target is None or not constraints_ok(target):
        raise SpecError(f"no duplication rule covers {spec.spec_string()}")
    return target


def _alt_torus_quats():
    """Representatives of quaternions moving the standard torus axis i."""
    from .algebra import HALF, SQRT2, quat
    h2 = HALF * SQRT2
    return [
        ONE,
        quat(h2, 0, h2, 0), quat(h2, 0, -h2, 0),   # (1±j)/sqrt2: i -> ∓k
        quat(h2, 0, 0, h2), quat(h2, 0, 0, -h2),   # (1±k)/sqrt2: i -> ±j
        quat(0, 0, h2, h2),                         # i_O: i -> -i
    ]


def _translation_conj(u1: int, u2: int, den: int) -> Transform4:
    """The torus translation R_{2pi u1/den, 2pi u2/den} as a conjugator."""
    return rotation(_cyc_make(-(u1 + u2), den, 0), _cyc_make(u1 - u2, den, 0))


_D8_CHIRAL = None


def _d8_chiral():
    global _D8_CHIRAL
    if _D8_CHIRAL is None:
        _D8_CHIRAL = [
            rotation(ONE, ONE),
            rotation(QJ, QJ),
            rotation(QI, QK),
            rotation(MINUS_K, QI),
        ]
    return _D8_CHIRAL


def _delta_candidates(tag: str, src: TorusElement, targets) -> list:
    """Solutions delta of (A_tag - I) delta = t_src - t_tgt (mod 1), sorted.

    src and targets share one modulus den; each delta is a pair (d1, d2)
    standing for (d1, d2) / (2 den), so that halving stays exact.
    """
    den = src.den
    M = 2 * den
    out = set()
    for tgt in targets:
        # conjugation by R_delta sends t to t - (A - I) delta; D over den
        D1, D2 = (src.u1 - tgt.u1) % den, (src.u2 - tgt.u2) % den
        if tag == ".":
            # -2 delta = D: delta = -D/2 + (0 or 1/2) per coordinate
            out.update(((k1 - D1) % M, (k2 - D2) % M)
                       for k1 in (0, den) for k2 in (0, den))
        elif tag == "|":
            if D2 == 0:
                out.update(((k - D1) % M, 0) for k in (0, den))
        elif tag == "-":
            if D1 == 0:
                out.update((0, (k - D2) % M) for k in (0, den))
        elif tag == "/":
            # (A-I)delta = (d2-d1, d1-d2)
            if (D1 + D2) % den == 0:
                out.add((0, 2 * D1))
                out.add((den, (2 * D1 + den) % M))
        elif tag == "\\":
            # (A-I)delta = -(d1+d2)*(1,1)
            if D1 == D2:
                out.add((-2 * D1 % M, 0))
        elif tag == "L":
            # A delta = (-d2, d1): solve d1+d2 = -D1, d1-d2 = D2
            out.update(((k - D1 + D2) % M, (k - D1 - D2) % M) for k in (0, den))
        elif tag == "R":
            # A delta = (d2, -d1): solve d2-d1 = D1, -(d1+d2) = D2
            out.update(((k - D1 - D2) % M, (k + D1 - D2) % M) for k in (0, den))
    return sorted(out)


def _probe_equal(G1: PointGroup, G2: PointGroup, h: Transform4) -> bool:
    from .transform import conjugate_elem
    probes = sorted(G2.elements, key=lambda g: (not g.star, g._hash))[:4]
    try:
        if any(conjugate_elem(g, h) not in G1.elements for g in probes):
            return False
        return equals(conjugate(G2, h), G1)
    except (RepresentationError, NotToroidalError):
        return False


def _standard_conjugator(G1: PointGroup, G2: PointGroup):
    """Torus-preserving h (directional part + origin shift) with h^-1 G2 h = G1."""
    from collections import Counter
    from .transform import compose
    try:
        reps1 = to_torus_rep(G1)
    except NotToroidalError:
        return None
    tags1 = Counter(r.tag for r in reps1)
    for hd in _d8_chiral():
        try:
            G2d = conjugate(G2, hd)
            reps2 = to_torus_rep(G2d)
        except (RepresentationError, NotToroidalError):
            continue
        if Counter(r.tag for r in reps2) != tags1:
            continue
        nontriv = sorted((r for r in reps2 if r.tag != "1"),
                         key=lambda r: (r.tag, r.u1, r.u2))
        if not nontriv:
            if G2d.elements == G1.elements:
                return hd
            continue
        pref = ["L", "R", ".", "|", "-", "/", "\\"]
        tag = next(t for t in pref if tags1.get(t))
        # src and targets over one shared modulus; the deltas over twice it
        den = lcm(reps1[0].den, reps2[0].den)
        src = next(r for r in nontriv if r.tag == tag).lifted(den)
        targets = [r.lifted(den) for r in reps1 if r.tag == tag]
        for d1, d2 in _delta_candidates(tag, src, targets):
            hdelta = _translation_conj(d1, d2, 2 * den)
            if _probe_equal(G1, G2d, hdelta):
                return compose(hd, hdelta)
    return None


@lru_cache(maxsize=None)
def _built(spec: GroupSpec) -> PointGroup:
    return build_unchecked(spec)


@lru_cache(maxsize=None)
def _fp_string(spec: GroupSpec) -> str:
    from .group import fingerprint
    return str(fingerprint(_built(spec)))


def conjugate_seq(G: PointGroup, hs) -> PointGroup:
    """Conjugate by the product of the given transformations, stepwise exact."""
    for h in hs:
        G = conjugate(G, h)
    return G


@lru_cache(maxsize=None)
def duplication_conjugator(spec1: GroupSpec, spec2: GroupSpec):
    """Conjugation chain hs with build(spec1) = conjugate_seq(build(spec2), hs).

    A single transformation when the composite is exactly representable,
    otherwise the exact two-step chain (alternate-torus part, standard part).
    """
    from .transform import compose
    G1 = _built(spec1)
    G2 = _built(spec2)
    if len(G1.elements) != len(G2.elements):
        return None
    for ul in _alt_torus_quats():
        for ur in _alt_torus_quats():
            h1 = rotation(ul, ur)
            try:
                G2a = conjugate(G2, h1)
                to_torus_rep(G2a)
            except (RepresentationError, NotToroidalError):
                continue
            h2 = _standard_conjugator(G1, G2a)
            if h2 is None:
                continue
            try:
                h = compose(h1, h2)
                if _probe_equal(G1, G2, h):
                    return (h,)
            except (RepresentationError, NotToroidalError):
                pass
            return (h1, h2)
    return None


def _searched_duplicate(spec: GroupSpec):
    """The in-range spec conjugate to spec: the first same-order catalog spec
    with the same fingerprint and a conjugator, or None.

    The reference that the tests check ``_DUPLICATION_RULES`` against; no
    library path calls it.  It builds and fingerprints every candidate, so it
    costs seconds per spec at parameters near 40."""
    from .catalog import _toroidal_specs_of_order
    fp = _fp_string(spec)
    for cand in _toroidal_specs_of_order(spec_order(spec)):
        if _fp_string(cand) == fp and duplication_conjugator(spec, cand) is not None:
            return cand
    return None


def duplication_rows(max_param: int = 20):
    """All constraint-excluded toroidal specs with parameters <= max_param."""
    rows = []
    for m in (1, 2):
        for n in range(1, max_param + 1):
            for fam in ("\\/cm", "//cm", "X/c2mm"):
                if (m - n) % 2 == 0:
                    rows.append(toroidal_spec(fam, m=m, n=n))
                    if m != n:
                        rows.append(toroidal_spec(fam, m=n, n=m))
    for N in range(2, max_param + 1, 2):
        for fam in ("\\/pm", "//pm", "X/p2mm", "X/p2mg", "X/p2gm", "X/p2gg"):
            rows.append(toroidal_spec(fam, m=2, n=N))
            if N != 2:
                rows.append(toroidal_spec(fam, m=N, n=2))
        rows.append(toroidal_spec("\\/pg", m=2, n=N))
        rows.append(toroidal_spec("//pg", m=N, n=2))
    rows.append(toroidal_spec(".", m=1, n=1, s=0))
    rows.append(toroidal_spec(".", m=2, n=1, s=-1))
    for fam in ("+/p2mm", "+/p2mg", "+/p2gg", "+/c2mm"):
        rows.append(toroidal_spec(fam, m=1, n=1))
    rows += [toroidal_spec("L", a=1, b=0), toroidal_spec("L", a=1, b=1),
             toroidal_spec("L", a=2, b=0)]
    rows += [toroidal_spec("*/p4mmU", n=1), toroidal_spec("*/p4mmU", n=2),
             toroidal_spec("*/p4gmU", n=1), toroidal_spec("*/p4gmU", n=2),
             toroidal_spec("*/p4mmS", n=1), toroidal_spec("*/p4gmS", n=1)]
    return [r for r in rows if not constraints_ok(r)]
