"""Finite groups of 4-dimensional orthogonal transformations.

Groups are plain frozensets of canonical ``Transform4`` values; closure is a
deterministic work-queue sweep.  Everything downstream (fingerprints, the
Goursat construction, achiral extensions, left/right quaternion groups) works
on that element set.  A group closed from ``CycloQuat`` generators keeps its
integer closure codes until its element set is first read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import lcm

from .algebra import (
    CycloQuat,
    _cyc_make,
    product_angle,
    quat_conj,
    quat_float4,
    quat_key,
    quat_mul,
    quat_neg,
    quat_order,
    quat_sign_flip,
    unsigned_angle,
    ONE,
    MINUS_ONE,
)
from .transform import (
    IDENTITY,
    Transform4,
    code_from_angles,
    compose,
    conjugate_elem,
)

DEFAULT_CAP = 2_000_000


class ClosureCapExceeded(RuntimeError):
    pass


class PointGroup:
    """A finite group: the frozenset ``elements`` and the ``generators`` tuple.

    ``generate`` on CycloQuat generators returns an encoded group.  It keeps
    the modulus D and the closure codes ``(star, k_l, b_l, k_r, b_r)`` in
    discovery order (``cyclo_codes``), and builds ``elements`` from them on
    first read, then drops them.  ``len``, ``==``, ``hash`` and the element
    set do not depend on which form a group is in.
    """

    def __init__(self, elements: frozenset, generators: tuple = ()):
        self._elements = elements
        self.generators = generators
        self._cyclo = None

    @classmethod
    def _encoded(cls, D: int, codes: list, generators: tuple) -> PointGroup:
        G = cls(None, generators)
        G._cyclo = (D, codes)
        return G

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            els = _cyclo_elements(*self._cyclo)
            self._cyclo = None
            self._elements = frozenset(set(els))
        return self._elements

    @property
    def cyclo_codes(self):
        """``(D, codes)`` while the group is encoded, else None: the codes
        mod 2D of ``_close_cyclo``, the identity's ``(0, 0, 0, 0, 0)`` first."""
        return self._cyclo

    def __len__(self):
        if self._cyclo is not None:
            return len(self._cyclo[1])
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.generators) == (other.elements, other.generators)

    def __hash__(self):
        return hash((self.elements, self.generators))

    def __repr__(self):
        return f"PointGroup(elements={self.elements!r}, generators={self.generators!r})"

    @cached_property
    def float_columns(self):
        """``(star, L, R)`` in ``elements`` iteration order: the reversing mask
        and the float quaternion components, ``L`` and ``R`` of shape (4, N)."""
        import numpy as np

        els = list(self.elements)
        f4 = _Memo(quat_float4)  # once per distinct quaternion
        star = np.array([g.star for g in els], dtype=bool)
        L = np.array([f4[g.l] for g in els], dtype=float).T.copy()
        R = np.array([f4[g.r] for g in els], dtype=float).T.copy()
        for a in (star, L, R):
            a.flags.writeable = False  # shared by every caller
        return star, L, R


def generate(gens, cap: int = DEFAULT_CAP) -> PointGroup:
    """Smallest closed set of transformations containing the generators.

    A breadth-first sweep from the identity that multiplies each element found
    by every generator in turn (``compose(g, h)``).  It runs on integer codes:
    ``_close_cyclo`` when every generator component is a CycloQuat,
    ``_close_indexed`` otherwise.  Each ``Transform4`` is made once, in
    discovery order, so the element set and its iteration order are those of
    the sweep on ``Transform4`` values.  The CycloQuat sweep returns an
    encoded group, whose ``Transform4``s are made when ``elements`` is read.
    """
    gens = list(gens)
    if all(type(q) is CycloQuat for h in gens for q in (h.l, h.r)):
        return PointGroup._encoded(*_close_cyclo(gens, cap), tuple(gens))
    return PointGroup(frozenset(set(_close_indexed(gens, cap))), tuple(gens))


class _Memo(dict):
    """``fn(key)``, computed on first use of each key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _close_cyclo(gens: list, cap: int) -> tuple:
    """The sweep for CycloQuat components, on ints mod 2D: ``(D, codes)``.

    With D the lcm of the generators' angle denominators, exp(kπi/D)·j^b is
    (k mod 2D, b) and an element is (star, k_l, b_l, k_r, b_r).  Products
    follow ``quat_mul``'s integer rule; the canonical sign moves k_l below D,
    adding D to both k.
    """
    D = lcm(*(q.den for h in gens for q in (h.l, h.r)))
    M = 2 * D
    steps = []
    for h in gens:
        step = [int(h.star)]
        for c in (h.l, h.r):
            k = c.num * (D // c.den)
            # exp(sπi)j^b · exp(tπi)j^c = exp((s ± t)πi)j^(b^c), with - for b = 1,
            # and j·j = -1 (t + 1) for b = c = 1: the k shift for b = 0 and b = 1
            step += (k, D * c.jbit - k, c.jbit)
        steps.append(step)
    start = (0, 0, 0, 0, 0)
    seen = {start}
    queue = [start]
    for s, kl, bl, kr, br in queue:
        for hs, l0, l1, lb, r0, r1, rb in steps:
            # g∘h = [g.l·h.l, g.r·h.r], with g's components swapped when h reverses
            if hs:
                xk, xb, yk, yb = kr, br, kl, bl
            else:
                xk, xb, yk, yb = kl, bl, kr, br
            k = (xk + (l1 if xb else l0)) % M
            kk = yk + (r1 if yb else r0)
            if k >= D:
                k -= D
                kk += D
            gh = (s ^ hs, k, xb ^ lb, kk % M, yb ^ rb)
            if gh not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"not closed within cap {cap}")
                seen.add(gh)
                queue.append(gh)
    return D, queue


def _cyclo_elements(D: int, codes: list) -> list:
    """The ``Transform4``s of ``_close_cyclo`` codes, in their order."""
    quat = [_Memo(partial(_cyc_make, den=D, jbit=b)) for b in (0, 1)]  # [b][k]
    canonical = Transform4.canonical
    return [IDENTITY] + [canonical(s == 1, quat[bl][kl], quat[br][kr])
                         for s, kl, bl, kr, br in codes[1:]]


def _close_indexed(gens: list, cap: int) -> list:
    """The sweep for any components, on indices into a per-call table.

    A quaternion with ``quat_sign_flip`` false gets an even index 2m and its
    negative 2m + 1, so the canonical sign toggles the low bit of both
    indices.  Right products by each generator component are memoized per
    index: ``quat_mul`` runs once per (quaternion, component) pair met.
    """
    table = []
    index = {}

    def index_of(q):
        i = index.get(q)
        if i is None:
            flip = quat_sign_flip(q)
            p = quat_neg(q) if flip else q
            i = len(table) + flip
            for x in (p, quat_neg(p)):
                index[x] = len(table)
                table.append(x)
        return i

    def right(c):
        return _Memo(lambda i: index_of(quat_mul(table[i], c)))

    steps = [(int(h.star), right(h.l), right(h.r)) for h in gens]
    one = index_of(ONE)
    start = (0, one, one)
    seen = {start}
    queue = [start]
    for s, a, b in queue:
        for hs, ml, mr in steps:
            if hs:
                l, r = ml[b], mr[a]
            else:
                l, r = ml[a], mr[b]
            if l & 1:
                l ^= 1
                r ^= 1
            gh = (s ^ hs, l, r)
            if gh not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"not closed within cap {cap}")
                seen.add(gh)
                queue.append(gh)
    canonical = Transform4.canonical
    return [IDENTITY] + [canonical(s == 1, table[l], table[r]) for s, l, r in queue[1:]]


def from_elements(elements, generators=()) -> PointGroup:
    return PointGroup(frozenset(elements), tuple(generators))


def order(G: PointGroup) -> int:
    return len(G)


def contains(G: PointGroup, g: Transform4) -> bool:
    return g in G.elements


def is_chiral(G: PointGroup) -> bool:
    return not any(g.star for g in G.elements)


def equals(G1: PointGroup, G2: PointGroup) -> bool:
    return G1.elements == G2.elements


def conjugate(G: PointGroup, h: Transform4) -> PointGroup:
    """h^-1 G h, elementwise; components must stay exactly representable."""
    if not h.is_unit():
        raise ValueError("conjugator must have unit components")
    return PointGroup(
        frozenset(conjugate_elem(g, h) for g in G.elements),
        tuple(conjugate_elem(g, h) for g in G.generators),
    )


def extend_achiral(G: PointGroup, e: Transform4) -> PointGroup:
    """Index-2 achiral extension G ∪ Ge."""
    if not e.star:
        raise ValueError("extending element must be orientation-reversing")
    if compose(e, e) not in G.elements:
        raise ValueError("square of extending element is not in the group")
    for g in G.generators or G.elements:
        if conjugate_elem(g, e) not in G.elements:
            raise ValueError("extending element does not normalize the group")
    coset = {compose(g, e) for g in G.elements}
    return PointGroup(G.elements | coset, G.generators + (e,))


# ---------------------------------------------------------------------------
# left and right quaternion groups

@dataclass(frozen=True)
class QuatGroupType:
    """2C_n, 2D_2n, 2T, 2O or 2I, as (kind, n)."""

    kind: str  # "C", "D", "T", "O", "I"
    n: int = 0

    def __str__(self):
        if self.kind == "C":
            return f"2C{self.n}"
        if self.kind == "D":
            return f"2D{2 * self.n}"
        return "2" + self.kind

    @property
    def polyhedral(self) -> bool:
        return self.kind in ("T", "O", "I")


def quat_closure(gens, cap: int = 100_000) -> frozenset:
    seen = {ONE}
    queue = [ONE]
    i = 0
    gens = list(gens)
    while i < len(queue):
        q = queue[i]
        i += 1
        for h in gens:
            qh = quat_mul(q, h)
            if qh not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded("quaternion set not closed within cap")
                seen.add(qh)
                queue.append(qh)
    return frozenset(seen)


def left_right_groups(G: PointGroup):
    """Left and right quaternion groups of the chiral part (both signs)."""
    L, R = set(), set()
    for g in G.elements:
        if not g.star:
            L.add(g.l)
            R.add(g.r)
    # negate each distinct quaternion once
    return (frozenset(L).union([quat_neg(q) for q in L]),
            frozenset(R).union([quat_neg(q) for q in R]))


def left_right_types(G: PointGroup) -> tuple:
    """Types of the left and right quaternion groups of the chiral part.

    An encoded group answers from its codes: ±exp(kπi/D)j^b are (k, b) and
    (k + D mod 2D, b), so each group holds twice as many quaternions as there
    are pairs (k mod D, b) among the rotations (k_l < D already)."""
    if G.cyclo_codes is None:
        L, R = left_right_groups(G)
        return classify_quat_group(L), classify_quat_group(R)
    D, codes = G.cyclo_codes
    L = {(kl, bl) for s, kl, bl, kr, br in codes if not s}
    R = {(kr % D, br) for s, kl, bl, kr, br in codes if not s}
    return tuple(_cyclo_type(2 * len(S), any(b for _, b in S)) for S in (L, R))


def _cyclo_type(n: int, dihedral: bool) -> QuatGroupType:
    """The type of a group of n CycloQuats, dihedral if one has a j."""
    return QuatGroupType("D", n // 4) if dihedral else QuatGroupType("C", n // 2)


def classify_quat_group(S: frozenset) -> QuatGroupType:
    n = len(S)
    if MINUS_ONE not in S:
        raise ValueError("quaternion group must contain -1")
    if all(isinstance(q, CycloQuat) for q in S):
        return _cyclo_type(n, any(q.jbit for q in S))
    els = list(S)
    if all(quat_mul(a, b) == quat_mul(b, a) for a in els for b in els):
        return QuatGroupType("C", n // 2)  # abelian subgroups of S^3 are cyclic
    maxorder = max(quat_order(q) for q in S)
    if (n, maxorder) == (24, 6):
        return QuatGroupType("T")
    if (n, maxorder) == (48, 8):
        return QuatGroupType("O")
    if (n, maxorder) == (120, 10):
        return QuatGroupType("I")
    if n % 4 == 0:
        return QuatGroupType("D", n // 4)
    raise ValueError(f"unrecognized quaternion group of order {n}")


# ---------------------------------------------------------------------------
# fingerprints

@dataclass(frozen=True)
class Fingerprint:
    """Multiset of element codes, multiplicity 2 per transformation."""

    counts: tuple  # sorted ((ElementCode, multiplicity), ...)

    def __str__(self):
        return " ".join(f"{code}:{mult}" for code, mult in self.counts)

    def as_dict(self):
        return {str(code): mult for code, mult in self.counts}


def fingerprint(G: PointGroup) -> Fingerprint:
    """Count the elements of G by the angles their codes are made from.

    One pass over ``G.elements``.  An angle gets an index on first sight; a
    rotation [l, r] counts under (index of l's angle, index of r's angle),
    with each quaternion's angle looked up once per call, and a reversing
    *[l, r] under the index of the angle of r·l.  Each distinct key then
    becomes its ``ElementCode`` (``code_from_angles``), and keys that give
    the same code are merged.
    """
    angle_index = _Memo(lambda u: len(angle_index))  # the next index on first sight
    quat_index = _Memo(lambda q: angle_index[unsigned_angle(q)])
    keys = Counter()
    for g in G.elements:
        if g.star:
            keys[angle_index[product_angle(g.r, g.l)]] += 1
        else:
            keys[quat_index[g.l], quat_index[g.r]] += 1
    angles = list(angle_index)
    counts = Counter()
    for key, m in keys.items():
        if type(key) is int:
            counts[code_from_angles(True, angles[key])] += m
        else:
            counts[code_from_angles(False, angles[key[0]], angles[key[1]])] += m
    items = sorted(((code, 2 * m) for code, m in counts.items()),
                   key=lambda cm: cm[0].sort_key())
    return Fingerprint(tuple(items))


# ---------------------------------------------------------------------------
# Goursat construction

@dataclass
class GoursatData:
    """(L, R, L0, R0, pairing) describing a subgroup of a direct product.

    The pairing lists coset representatives (l_i, r_i) realizing the
    isomorphism L/L0 -> R/R0.
    """

    L: frozenset
    R: frozenset
    L0: frozenset
    R0: frozenset
    pairing: list = field(default_factory=lambda: [(ONE, ONE)])

    def validate(self):
        for g in self.L:
            if any(quat_mul(quat_mul(quat_conj(g), h), g) not in self.L0 for h in self.L0):
                raise ValueError("L0 is not normal in L")
        for g in self.R:
            if any(quat_mul(quat_mul(quat_conj(g), h), g) not in self.R0 for h in self.R0):
                raise ValueError("R0 is not normal in R")
        if len(self.L) * len(self.R0) != len(self.R) * len(self.L0):
            raise ValueError("factor groups have different sizes")
        if len(self.pairing) * len(self.L0) != len(self.L):
            raise ValueError("pairing does not cover L/L0")
        # homomorphism check on representatives
        reps = self.pairing
        for li, ri in reps:
            for lj, rj in reps:
                lk = quat_mul(li, lj)
                rk = quat_mul(ri, rj)
                ok = False
                for lc, rc in reps:
                    if quat_mul(quat_conj(lc), lk) in self.L0:
                        ok = quat_mul(quat_conj(rc), rk) in self.R0
                        break
                if not ok:
                    raise ValueError("pairing is not a homomorphism")


def goursat_group(data: GoursatData) -> PointGroup:
    """All [l, r] with Φ(l L0) = r R0."""
    data.validate()
    elements = set()
    for li, ri in data.pairing:
        for l0 in data.L0:
            l = quat_mul(li, l0)
            for r0 in data.R0:
                elements.add(Transform4(False, l, quat_mul(ri, r0)))
    G = PointGroup(frozenset(elements))
    if Transform4(False, ONE, MINUS_ONE) not in G.elements:
        raise ValueError("pair set does not contain (-1,-1)")
    return G


def identity_pairing(L: frozenset, L0: frozenset) -> list:
    """Coset representatives (c, c) of L/L0, for diagonal-type pairings."""
    reps = []
    covered = set()
    for q in sorted(L, key=quat_key):
        if q not in covered:
            reps.append((q, q))
            covered.update(quat_mul(q, h) for h in L0)
    return reps
