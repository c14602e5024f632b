"""Torus coordinates, lattice normalization, and toroidal classification.

On the standard Clifford torus (coordinates phi1, phi2, both mod 2pi) every
toroidal transformation is a directional part from the dihedral group D8 of
the square grid plus a translation.  The directional tag is read off the
quaternion pair: the reversing flag together with the two j-bits.

All torus data here lives in units of 2*pi.  A translation is a pair of ints
(u1, u2) modulo one positive modulus den, standing for (u1/den, u2/den) mod 1.
Every element of a group is put over the same modulus, twice the lcm of the
group's angle denominators, so lattice and mirror tests are plain int
arithmetic.  ``group._torus_point`` reads an element's tag and translation
by the eight-tag formula, and ``group.TAG_ACTION`` (re-exported here) is each
tag's directional part A, so that the element maps x to A·x + t.

A group has one torus view, ``_torus_view(G)``, its ``group.TorusForm``: the
Hermite normal form of its translation lattice and one coset offset per
directional tag.  An encoded group holds it from ``generate``; an
element-backed group gets it from ``group._torus_form`` on its elements, the
same Schreier search, and is refused unless the form counts its elements.
``classify_toroidal`` reads the form in O(tags) steps: it lists no
translation and makes no ``TorusElement``.  ``to_torus_rep`` lists the form
as ``TorusElement``s.  The duplication conjugator search reads forms too:
it conjugates a group's generators and compares the torus form of the
conjugated generators with the target's, with no element set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .algebra import HALF, SQRT2, CycloQuat, RepresentationError, _cyc_make, quat
from .catalog import (
    TOROIDAL_FAMILIES,
    GroupSpec,
    SpecError,
    _s_range,
    _toroidal_specs_of_order,
    build_unchecked,
    constraints_ok,
    family_row,
    spec_order,
    toroidal_spec,
)
from .constants import MINUS_K, ONE, QI, QJ, QK
# TAG_ACTION and TAG_OF_BITS, the tag tables, are re-exported from here
from .group import (
    TAG_ACTION,
    TAG_OF_BITS,
    PointGroup,
    TorusForm,
    _torus_form,
    _torus_point,
    _xgcd,
    conjugate,
    fingerprint,
)
from .transform import Transform4, compose, conjugate_elem, rotation


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


def torus_element(g: Transform4) -> TorusElement:
    """Directional tag and exact translation part of a torus-standard element,
    over the least modulus: twice the lcm of its angle denominators."""
    l, r = g.l, g.r
    if not isinstance(l, CycloQuat) or not isinstance(r, CycloQuat):
        raise NotToroidalError("element is not toroidal in standard coordinates")
    D = lcm(l.den, r.den)
    tag, (u1, u2) = _torus_point(g, D)
    return TorusElement(tag, u1, u2, 2 * D)


def to_torus_rep(G: PointGroup) -> list:
    """Torus elements of G, all over one modulus: twice the lcm of its angle
    denominators.  The torus view ``_torus_view(G)``, listed tag by tag."""
    form = _torus_view(G)
    return [TorusElement(tag, u1, u2, form.den)
            for tag in form.offsets for u1, u2 in form.translations(tag)]


def _torus_view(G: PointGroup) -> TorusForm:
    """G's ``TorusForm``: an encoded group's own, else the Schreier form
    ``group._torus_form`` of its elements.  A set S lies in the group it
    generates, so the form counts |S| points exactly when S is a group; any
    other set, or a component off the standard torus, raises
    ``NotToroidalError``."""
    if G.cyclo_codes is not None:
        return G.cyclo_codes
    elements = list(G.elements)
    if not all(isinstance(q, CycloQuat) for g in elements for q in (g.l, g.r)):
        raise NotToroidalError("element is not toroidal in standard coordinates")
    form = _torus_form(elements)
    if len(form) != len(elements):
        raise NotToroidalError("translation set is not a lattice")
    return form


# ---------------------------------------------------------------------------
# translation lattices

@dataclass(frozen=True)
class TorusLattice:
    m: int
    n: int
    s: int


def normalize_lattice(translations) -> TorusLattice:
    """Unique (m, n, s) of a lattice of ``TorusElement`` translations, s in the
    canonical range; the elements may have different moduli, and the origin
    counts as a point.  The points span the lattice, so they are all of it
    exactly when there are as many as its index, else ``NotToroidalError``."""
    den = lcm(*{t.den for t in translations})
    pts = [(t.u1 * (den // t.den), t.u2 * (den // t.den)) for t in translations]
    form = TorusForm(den, pts, {"1": (0, 0)})
    if len({*pts, (0, 0)}) != form.index:
        raise NotToroidalError("translation set is not a lattice")
    return _lattice_params(form)


def _lattice_params(form: TorusForm) -> TorusLattice:
    """(m, n, s) of the 1 lattice: m points on the diagonal u1 = u2, and
    n = den/g lines u1 − u2 = const, g = gcd(a, b − c).  The point
    u·(a, 0) + v·(b, c), with u·a + v·(b − c) = g, lies on the first line,
    and its u1 gives s."""
    a, b, c = form.lattice
    den, size = form.den, form.index
    g, u, v = _xgcd(a, (b - c) % den)
    n = den // g
    m = size // n
    s0 = 0
    if n > 1:
        # any point of the first line gives the same s0 mod n
        val = ((u * a + v * b) % den - g) * size
        if val % den:
            raise NotToroidalError("lattice point off the parameter grid")
        s0 = (val // den) % n
    return TorusLattice(m, n, _canonical_s(m, n, s0))


def _canonical_s(m: int, n: int, s0: int) -> int:
    """In-range representative; prefers the unflipped class s0 + nZ."""
    r = _s_range(m, n)
    for base in (s0, (-m - s0) % n):
        s = r.start + (base - r.start) % n
        if s in r:
            return s
    raise NotToroidalError(f"no canonical s for (m={m}, n={n}, s0={s0})")


# ---------------------------------------------------------------------------
# classification

def _axis_counts(form: TorusForm):
    """(m, n, rhombic) for axis-aligned lattices: m points on u1 = 0 (y-step
    1/m), n on u2 = 0 (x-step 1/n)."""
    m, n = form.count("1", 1, 0), form.count("1", 0, 1)
    return m, n, form.index == 2 * m * n


def _diag_counts(form: TorusForm):
    """(M, N, rhombic): points on the principal and secondary diagonals."""
    M, N = form.count("1", 1, -1), form.count("1", 1, 1)
    return M, N, form.index == M * N


# the torus swap (phi1, phi2) -> (phi2, phi1), conjugation by [i, k], on directional tags
_SWAPPED_TAG = {"|": "-", "-": "|", "L": "R", "R": "L"}


def _swapped(form: TorusForm) -> TorusForm:
    """The form of the torus swap of the group: (u1, u2) -> (u2, u1)."""
    a, b, c = form.lattice
    return TorusForm(form.den, [(0, a), (c, b)],
                     {_SWAPPED_TAG.get(t, t): (o2, o1) for t, (o1, o2) in form.offsets.items()})


# the line p·u1 + q·u2 = 0 that an element with directional part tag fixes
# when its translation lies on it
_MIRROR_LINE = {"|": (0, 1), "-": (1, 0), "/": (1, 1), "\\": (1, -1)}


def _has_mirror(form: TorusForm, tag: str) -> bool:
    """Some element with directional part tag fixes a line: a mirror, not a glide."""
    return form.count(tag, *_MIRROR_LINE[tag]) > 0


def _one_mirror_subtype(mirror: bool, rhombic: bool) -> str:
    return "cm" if (mirror and rhombic) else ("pm" if mirror else "pg")


def _two_mirror_subtype(mirror_a: bool, mirror_b: bool, rhombic: bool) -> str:
    if mirror_a and mirror_b:
        return "c2mm" if rhombic else "p2mm"
    if mirror_a:
        return "p2mg"
    return "p2gm" if mirror_b else "p2gg"


def classify_toroidal(G: PointGroup) -> GroupSpec:
    """The catalog spec of G, read from its torus form ``_torus_view(G)`` in
    O(tags) steps, with no translation listed and no ``TorusElement``.  The
    tags pick the family, the lattice gives the parameters, and the
    wallpaper subtype comes from which mirror lines meet a tag's coset."""
    form = _torus_view(G)
    tags = frozenset(form.offsets)
    if tags == {"1", "-"}:  # read the group as its torus swap, a |/ group
        form = _swapped(form)
        tags = frozenset(("1", "|"))

    if tags <= {"1"} or tags == {"1", "."}:
        lat = _lattice_params(form)
        fam = "1" if tags <= {"1"} else "."
        params = {"m": lat.m, "n": lat.n, "s": lat.s}
    elif tags == {"1", "|"}:
        m, n, rhombic = _axis_counts(form)
        fam = "|/" + _one_mirror_subtype(_has_mirror(form, "|"), rhombic)
        params = {"m": m, "n": n}
    elif tags == {"1", "/"} or tags == {"1", "\\"}:
        M, N, rhombic = _diag_counts(form)
        tag = "/" if "/" in tags else "\\"
        fam = tag + "/" + _one_mirror_subtype(_has_mirror(form, tag), rhombic)
        params = {"m": M, "n": N}
    elif tags == {"1", ".", "/", "\\"}:
        M, N, rhombic = _diag_counts(form)
        sub = _two_mirror_subtype(_has_mirror(form, "/"), _has_mirror(form, "\\"), rhombic)
        fam, params = "X/" + sub, {"m": M, "n": N}
    elif tags == {"1", "|", "-", "."}:
        m, n, rhombic = _axis_counts(form)
        sub = _two_mirror_subtype(_has_mirror(form, "|"), _has_mirror(form, "-"), rhombic)
        if sub == "p2gm":  # the swap of a +/p2mg group
            sub, m, n = "p2mg", n, m
        fam, params = "+/" + sub, {"m": m, "n": n}
    elif tags == {"1", ".", "L", "R"}:
        a, b = _square_lattice_params(form)
        fam, params = "L", {"a": a, "b": b}
    elif tags == {"1", ".", "/", "\\", "|", "-", "L", "R"}:
        c2 = form.index
        k = _isqrt_exact(c2)
        if k is not None:
            sub_kind, nn = "U", k
        else:
            k = _isqrt_exact(c2 // 2) if c2 % 2 == 0 else None
            if k is None:
                raise NotToroidalError("full torus group with non-square lattice")
            sub_kind, nn = "S", k
        sub = "p4mm" if all(_has_mirror(form, t) for t in "|-/\\") else "p4gm"
        fam, params = "*/" + sub + sub_kind, {"n": nn}
    else:
        raise NotToroidalError(f"unrecognized directional group {sorted(tags)}")
    return canonicalize_duplicates(toroidal_spec(fam, **params))


def _isqrt_exact(x: int):
    k = isqrt(x)
    return k if k * k == x else None


def _square_lattice_params(form: TorusForm):
    """(a, b), both >= 0 and in either order, for a square lattice of
    a^2 + b^2 points; ``canonicalize_duplicates`` puts a >= b.

    A shortest lattice vector comes from Gauss reduction of the basis; the
    lattice is square when the vector turned by a quarter turn is in it.
    Of the shortest vectors, the one read is the least (x, y) with both
    coordinates >= 0: the least (x² + y², x, y) over the lattice points in
    [0, den)²."""
    size, den = form.index, form.den
    if size == 1:
        return 1, 0
    a, b, c = form.lattice
    v, w = (a, 0), (b, c)
    while True:
        nv, nw = v[0] ** 2 + v[1] ** 2, w[0] ** 2 + w[1] ** 2
        if nw < nv:
            v, w, nv, nw = w, v, nw, nv
        mu = (2 * (v[0] * w[0] + v[1] * w[1]) + nv) // (2 * nv)  # the nearest int
        if mu == 0:
            break
        w = (w[0] - mu * v[0], w[1] - mu * v[1])
    x, y = v
    if form.reduce(-y, x) != (0, 0):
        raise NotToroidalError("lattice is not a square sublattice of the grid")
    x, y = min(r for r in ((x, y), (-y, x), (-x, -y), (y, -x)) if r[0] >= 0 and r[1] >= 0)
    return x * size // den, y * size // den


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
    family with a shift (``1`` and ``.``), and the leading pair descending in
    a ``descending`` family (m >= n in the swap-symmetric ``+/`` families,
    a >= b for ``L``).  Specs that differ only there are the same group up to
    the torus swap."""
    row = family_row(spec)
    vals = [v for _, v in spec.params]
    if len(row.param_names) == 3:
        m, n, s = vals
        if m >= 1 and n >= 1:
            return toroidal_spec(spec.family, m=m, n=n, s=_canonical_s(m, n, s % n))
    elif row.descending and vals[0] < vals[1]:
        return toroidal_spec(spec.family, **dict(zip(row.param_names, vals[::-1])))
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


_D8_CHIRAL = (
    rotation(ONE, ONE),
    rotation(QJ, QJ),
    rotation(QI, QK),
    rotation(MINUS_K, QI),
)


def _delta_candidates(tag: str, src: tuple, targets, den: int) -> list:
    """Solutions delta of (A_tag - I) delta = t_src - t_tgt (mod 1), sorted.

    src and targets are translations (u1, u2) over one modulus den; each
    delta is a pair (d1, d2) standing for (d1, d2) / (2 den), so that
    halving stays exact.
    """
    M = 2 * den
    out = set()
    for t1, t2 in targets:
        # conjugation by R_delta sends t to t - (A - I) delta; D over den
        D1, D2 = (src[0] - t1) % den, (src[1] - t2) % den
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


def _conjugated(gens, h: Transform4):
    """``(gens', form)``: the generators conjugated by h and the torus form
    of the group they generate, or None when a conjugate is not exactly
    representable or leaves the standard torus."""
    try:
        gens = [conjugate_elem(g, h) for g in gens]
    except RepresentationError:
        return None
    if not all(isinstance(q, CycloQuat) for g in gens for q in (g.l, g.r)):
        return None
    return gens, _torus_form(gens)


def _standard_conjugator(form1: TorusForm, gens2):
    """Torus-preserving h (directional part + origin shift) with
    h^-1 <gens2> h the group of torus form form1, or None."""
    tags = form1.offsets.keys()
    for hd in _D8_CHIRAL:
        found = _conjugated(gens2, hd)
        if found is None or found[1].offsets.keys() != tags:
            continue
        gens2d, form2 = found
        if tags == {"1"}:
            if form2 == form1:
                return hd
            continue
        tag = next(t for t in ("L", "R", ".", "|", "-", "/", "\\") if t in tags)
        # src and targets over one shared modulus; the deltas over twice it
        den = lcm(form1.den, form2.den)
        k1, k2 = den // form1.den, den // form2.den
        u1, u2 = min(form2.translations(tag))
        src = (k2 * u1, k2 * u2)
        targets = [(k1 * u1, k1 * u2) for u1, u2 in form1.translations(tag)]
        for d1, d2 in _delta_candidates(tag, src, targets, den):
            hdelta = _translation_conj(d1, d2, 2 * den)
            found = _conjugated(gens2d, hdelta)
            if found is not None and found[1] == form1:
                return compose(hd, hdelta)
    return None


@lru_cache(maxsize=None)
def _built(spec: GroupSpec) -> PointGroup:
    return build_unchecked(spec)


@lru_cache(maxsize=None)
def _fp_string(spec: GroupSpec) -> str:
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
    The search reads torus forms only: it conjugates spec2's generators and
    accepts a candidate when their form equals spec1's, which is equality of
    the groups in standard position.  None unless both groups are encoded
    toroidal groups of one order, conjugate by such a chain.
    """
    G1 = _built(spec1)
    G2 = _built(spec2)
    if G1.cyclo_codes is None or G2.cyclo_codes is None or len(G1) != len(G2):
        return None
    form1 = _torus_view(G1)
    for ul in _alt_torus_quats():
        for ur in _alt_torus_quats():
            h1 = rotation(ul, ur)
            found = _conjugated(G2.generators, h1)
            if found is None:
                continue
            h2 = _standard_conjugator(form1, found[0])
            if h2 is None:
                continue
            try:
                h = compose(h1, h2)
            except RepresentationError:
                return (h1, h2)
            found = _conjugated(G2.generators, h)
            if found is not None and found[1] == form1:
                return (h,)
            return (h1, h2)
    return None


def _searched_duplicate(spec: GroupSpec):
    """The in-range spec conjugate to spec: the first same-order catalog spec
    with the same fingerprint and a conjugator, or None.

    The reference that the tests check ``_DUPLICATION_RULES`` against; no
    library path calls it.  It builds and fingerprints every candidate, so it
    costs seconds per spec at parameters near 40."""
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
