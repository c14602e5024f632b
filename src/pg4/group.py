"""Finite groups of 4-dimensional orthogonal transformations.

Groups are plain frozensets of canonical ``Transform4`` values; closure is a
deterministic work-queue sweep.  Everything downstream (fingerprints, the
Goursat construction, achiral extensions, left/right quaternion groups) works
on that element set.  A group generated by ``CycloQuat`` generators is
encoded instead: it holds its torus form (``TorusForm``: a translation
lattice on the invariant torus and one coset offset per directional tag),
found with no sweep, and runs the sweep on the first read of its element set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd, lcm

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

    ``generate`` on CycloQuat generators returns an encoded group.  It holds
    its torus form (``cyclo_codes``, a ``TorusForm``) and no element: ``len``
    is the form's order, the number of tags times the lattice index.  The
    first read of ``elements`` runs the closure sweep ``_close_cyclo`` on the
    generators and drops the form, so the element set and its iteration
    order are the sweep's.  ``len``, ``==``, ``hash`` and the element set do
    not depend on which form a group is in.
    """

    def __init__(self, elements: frozenset, generators: tuple = ()):
        self._elements = elements
        self.generators = generators
        self._form = None

    @classmethod
    def _encoded(cls, form: TorusForm, generators: tuple) -> PointGroup:
        G = cls(None, generators)
        G._form = form
        return G

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            # the form counted the order, so the sweep closes within it
            els = _cyclo_elements(*_close_cyclo(list(self.generators), len(self._form)))
            self._form = None
            self._elements = frozenset(set(els))
        return self._elements

    @property
    def cyclo_codes(self):
        """The group's CycloQuat encoding, its ``TorusForm``, while the group
        is encoded; None once ``elements`` has been read, and for a group
        made from elements."""
        return self._form

    def __len__(self):
        if self._form is not None:
            return len(self._form)
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
        star = np.array([g.star for g in els], dtype=bool)
        # each distinct quaternion is converted once, and the columns gather
        # its row; keyed by identity, since quaternions are interned
        ls = [g.l for g in els]
        rs = [g.r for g in els]
        distinct = {id(q): q for q in ls}
        distinct.update((id(q), q) for q in rs)
        row = {i: n for n, i in enumerate(distinct)}
        table = np.array([quat_float4(q) for q in distinct.values()], dtype=float)
        L = table[[row[id(q)] for q in ls]].T.copy()
        R = table[[row[id(q)] for q in rs]].T.copy()
        for a in (star, L, R):
            a.flags.writeable = False  # shared by every caller
        return star, L, R


def generate(gens, cap: int = DEFAULT_CAP) -> PointGroup:
    """Smallest closed set of transformations containing the generators.

    When every generator component is a CycloQuat (every toroidal group), the
    group is encoded: ``_torus_form`` finds its torus form from the
    generators, with no sweep, and a group whose order, the number of tags
    times the lattice index, is above the cap is refused from that count.
    Its elements come from ``_close_cyclo`` on the first read of
    ``elements``.  Any other list is swept at once by ``_close_indexed``.
    Both sweeps are breadth-first from the identity, multiply each element
    found by every generator in turn (``compose(g, h)``) on integer codes,
    and make each ``Transform4`` once, in discovery order, so the element set
    and its iteration order are those of the sweep on ``Transform4`` values.
    Every path raises ``ClosureCapExceeded("not closed within cap N")``
    exactly when the order is above the cap.
    """
    gens = list(gens)
    if all(type(q) is CycloQuat for h in gens for q in (h.l, h.r)):
        form = _torus_form(gens)
        if len(form) > cap:
            raise ClosureCapExceeded(f"not closed within cap {cap}")
        return PointGroup._encoded(form, tuple(gens))
    return PointGroup(frozenset(set(_close_indexed(gens, cap))), tuple(gens))


class _Memo(dict):
    """``fn(key)``, computed on first use of each key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _cyclo_codes(gens: list) -> tuple:
    """``(D, codes)``: D the lcm of the generators' angle denominators, and
    each generator as its code (star, k_l, b_l, k_r, b_r), where
    exp(kπi/D)·j^b is (k mod 2D, b)."""
    D = lcm(*(q.den for h in gens for q in (h.l, h.r)))
    return D, [(int(h.star), h.l.num * (D // h.l.den), h.l.jbit,
                h.r.num * (D // h.r.den), h.r.jbit) for h in gens]


def _step(code: tuple, D: int) -> tuple:
    """A right factor h as (star, k0_l, k1_l, b_l, k0_r, k1_r, b_r): per side,
    the k that h's component adds to a left factor with j-bit 0 and with
    j-bit 1."""
    s, kl, bl, kr, br = code
    # exp(sπi)j^b · exp(tπi)j^c = exp((s ± t)πi)j^(b^c), with - for b = 1,
    # and j·j = -1 (t + 1) for b = c = 1: the k shift for b = 0 and b = 1
    return s, kl, D * bl - kl, bl, kr, D * br - kr, br


def _product(g: tuple, step: tuple, D: int) -> tuple:
    """The code of compose(g, h), for g a code and h a ``_step``; the
    canonical sign moves k_l below D, adding D to both k."""
    M = 2 * D
    s, kl, bl, kr, br = g
    hs, l0, l1, lb, r0, r1, rb = step
    # g∘h = [g.l·h.l, g.r·h.r], with g's components swapped when h reverses
    if hs:
        kl, bl, kr, br = kr, br, kl, bl
    k = (kl + (l1 if bl else l0)) % M
    kk = kr + (r1 if br else r0)
    if k >= D:
        k -= D
        kk += D
    return s ^ hs, k, bl ^ lb, kk % M, br ^ rb


def _close_cyclo(gens: list, cap: int) -> tuple:
    """The sweep for CycloQuat components, on codes mod 2D: ``(D, codes)``,
    the identity's ``(0, 0, 0, 0, 0)`` first."""
    D, codes = _cyclo_codes(gens)
    steps = [_step(c, D) for c in codes]
    start = (0, 0, 0, 0, 0)
    seen = {start}
    queue = [start]
    for g in queue:
        for step in steps:
            gh = _product(g, step, D)
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


# ---------------------------------------------------------------------------
# the torus form of a toroidal group

# (reversing, jbit_l, jbit_r) -> directional tag
TAG_OF_BITS = {
    (False, 0, 0): "1", (False, 1, 1): ".",
    (False, 0, 1): "/", (False, 1, 0): "\\",
    (True, 0, 0): "|", (True, 1, 1): "-",
    (True, 1, 0): "L", (True, 0, 1): "R",
}

# tag -> the translation (u1, u2) of [exp(2πi a/den) j^jl, exp(2πi b/den) j^jr]:
# each coordinate as its coefficients of (a, b, h), with h = den/2
_TRANSLATION = {
    "1": ((-1, 1, 0), (-1, -1, 0)),
    ".": ((1, -1, 0), (1, 1, 0)),
    "/": ((-1, -1, 1), (-1, 1, 0)),
    "\\": ((1, 1, 0), (1, -1, 1)),
    "|": ((-1, 1, 0), (-1, -1, 1)),
    "-": ((1, -1, 0), (1, 1, -1)),
    "L": ((1, 1, -1), (1, -1, 1)),
    "R": ((-1, -1, 0), (-1, 1, 0)),
}


def _translations(tag: str, codes, den: int) -> list:
    """The translations (u1, u2), 0 <= u < den, of the elements with codes
    (star, a, jl, b, jr) over den, all of directional part tag: the
    eight-tag formula."""
    h = den // 2
    (p1, q1, c1), (p2, q2, c2) = _TRANSLATION[tag]
    c1, c2 = c1 * h, c2 * h
    return [((p1 * a + q1 * b + c1) % den, (p2 * a + q2 * b + c2) % den)
            for _, a, _, b, _ in codes]


def _xgcd(x: int, y: int) -> tuple:
    """``(g, u, v)`` with g = gcd(x, y) = u·x + v·y, for x > 0 and y >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return x, u0, v0


class TorusForm:
    """A toroidal group as the paper classifies it: a translation lattice on
    the invariant torus, and one coset of it per directional tag.

    Translations are int pairs (u1, u2) mod ``den``, for (u1/den, u2/den) in
    units of 2π.  ``lattice`` is (a, b, c), the Hermite normal form
    (a, 0), (b, c) of the translation subgroup T: a and c divide den,
    0 <= b < a, and T holds (den, 0) and (0, den).  T has ``index`` =
    (den/a)·(den/c) points.  ``offsets`` maps each directional tag of the
    group, in the order found, to the translation of its coset reduced into
    [0, a) × [0, c), so equal groups have equal forms.  ``len`` is the
    group's order: the number of tags times the index.
    """

    __slots__ = ("den", "lattice", "offsets", "index")

    def __init__(self, den: int, vectors, offsets: dict):
        """The form over den whose lattice the vectors span together with
        (den, 0) and (0, den), with a coset through each tag's offset."""
        a, b, c = den, 0, den
        for x, y in vectors:
            x, y = x % den, y % den
            # (b, c) and (x, y) become (u b + v x, g), with g = gcd(c, y) =
            # u c + v y, and the combination with second coordinate 0, which
            # joins (a, 0)
            g, u, v = _xgcd(c, y)
            a = gcd(a, (c * x - y * b) // g)
            b, c = (u * b + v * x) % a, g
        self.den = den
        self.lattice = a, b, c
        self.index = (den // a) * (den // c)
        self.offsets = {tag: self.reduce(*o) for tag, o in offsets.items()}

    def reduce(self, x: int, y: int) -> tuple:
        """The representative of (x, y) + T in [0, a) × [0, c)."""
        a, b, c = self.lattice
        j, y = divmod(y % self.den, c)
        return (x - j * b) % a, y

    def count(self, tag: str, p: int, q: int, t: int = 0) -> int:
        """How many translations of tag's coset lie on p·u1 + q·u2 = t (mod den).

        The values of p·u1 + q·u2 on T are the multiples of g, the gcd of its
        values on the basis and on (den, 0), (0, den); so the coset meets the
        line in 0 points or in the index·g/den points of one kernel coset."""
        a, b, c = self.lattice
        g = gcd(p * a, p * b + q * c, self.den)
        o1, o2 = self.offsets[tag]
        return self.index * g // self.den if (t - p * o1 - q * o2) % g == 0 else 0

    def translations(self, tag: str) -> list:
        """The translations of tag's coset, listed from the lattice basis."""
        a, b, c = self.lattice
        den = self.den
        o1, o2 = self.offsets[tag]
        return [((o1 + i * a + j * b) % den, (o2 + j * c) % den)
                for j in range(den // c) for i in range(den // a)]

    def __len__(self):
        return len(self.offsets) * self.index

    def __eq__(self, other):
        if not isinstance(other, TorusForm):
            return NotImplemented
        return (self.den, self.lattice, self.offsets) == (other.den, other.lattice, other.offsets)

    __hash__ = None

    def __repr__(self):
        return f"TorusForm(den={self.den}, lattice={self.lattice}, offsets={self.offsets})"


def _torus_form(gens: list) -> TorusForm:
    """The torus form of the group of CycloQuat generators, with no sweep.

    The tag of an element is a homomorphism to the eight torus symmetries,
    with kernel T, the translations.  A breadth-first search over the tags
    finds one coset representative per tag: each representative r is
    multiplied by every generator h as r∘h (h applied first,
    ``compose(h, r)``), and a product with a new tag represents that tag.
    By Schreier's lemma T is generated by the p∘q⁻¹, for every other
    product p and q the representative of its tag.  Both have one
    directional part, so p∘q⁻¹ is the translation by t(p) − t(q), and the
    lattice is the Hermite normal form of those differences.
    """
    D, codes = _cyclo_codes(gens)
    den = 2 * D
    reps = {"1": (0, 0)}
    queue = [(0, 0, 0, 0, 0)]
    vectors = []
    for r in queue:
        step = _step(r, D)
        for h in codes:
            p = _product(h, step, D)
            tag = TAG_OF_BITS[p[0], p[2], p[4]]
            [(x, y)] = _translations(tag, (p,), den)
            if tag in reps:
                x0, y0 = reps[tag]
                vectors.append((x - x0, y - y0))
            else:
                reps[tag] = x, y
                queue.append(p)
    return TorusForm(den, vectors, reps)


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
    """Index-2 achiral extension G ∪ Ge.

    Every generator of G, or every element if it has none, must be mapped
    into G by conjugation with e (``_conjugates``).  With e = *[a, b], the
    coset element g·e is *[r·a, l·b] for g = [l, r] and [r·a, l·b] for
    g = *[l, r], made in ``G.elements`` order with each product computed once
    per distinct quaternion.
    """
    if not e.star:
        raise ValueError("extending element must be orientation-reversing")
    elements = G.elements
    if compose(e, e) not in elements:
        raise ValueError("square of extending element is not in the group")
    if any(h not in elements for h in _conjugates(G.generators or elements, e)):
        raise ValueError("extending element does not normalize the group")
    a, b = e.l, e.r
    times_a = _Memo(lambda q: quat_mul(q, a))
    times_b = _Memo(lambda q: quat_mul(q, b))
    coset = {Transform4(not g.star, times_a[g.r], times_b[g.l]) for g in elements}
    return PointGroup(elements | coset, G.generators + (e,))


def _conjugates(gs, e: Transform4):
    """e⁻¹ g e for each g of gs, for a reversing e = *[a, b].

    With A, B the conjugates of a, b: [A·r·a, B·l·b] for g = [l, r] and
    *[B·r·a, A·l·b] for g = *[l, r], each component product computed once
    per distinct quaternion; ``conjugate_elem(g, e)`` is the oracle.
    """
    a, b = e.l, e.r
    A, B = quat_conj(a), quat_conj(b)

    def sandwich(x, y):
        return _Memo(lambda q: quat_mul(quat_mul(x, q), y))

    maps = {False: (sandwich(A, a), sandwich(B, b)), True: (sandwich(B, a), sandwich(A, b))}
    for g in gs:
        on_r, on_l = maps[g.star]
        yield Transform4(g.star, on_r[g.r], on_l[g.l])


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

    An encoded group answers from its torus form.  The rotations are the
    cosets of the tags 1 . / \\, and a side's group is cyclic or, when a
    rotation has a j on that side, dihedral.  Its order is 2|G+|/|K|, with
    G+ the rotations and K the kernel of the side's projection: the
    rotations [±1, r] on the left, [l, ±1] on the right.  In translations,
    K is the points of the 1 coset on u1 + u2 = 0 and of the / coset on
    u1 + u2 = D for the left, and of the 1 coset on u1 − u2 = 0 and of the
    \\ coset on u1 − u2 = D for the right."""
    form = G.cyclo_codes
    if form is None:
        L, R = left_right_groups(G)
        return classify_quat_group(L), classify_quat_group(R)
    tags = form.offsets
    rotations = sum(t in tags for t in "1./\\") * form.index
    D = form.den // 2
    sides = []
    for q, kernel_tag, dihedral_tag in ((1, "/", "\\"), (-1, "\\", "/")):
        kernel = form.count("1", 1, q)
        if kernel_tag in tags:
            kernel += form.count(kernel_tag, 1, q, D)
        dihedral = "." in tags or dihedral_tag in tags
        sides.append(_cyclo_type(2 * rotations // kernel, dihedral))
    return tuple(sides)


def _cyclo_type(n: int, dihedral: bool) -> QuatGroupType:
    """The type of a group of n CycloQuats, dihedral if one has a j."""
    return QuatGroupType("D", n // 4) if dihedral else QuatGroupType("C", n // 2)


def classify_quat_group(S: frozenset) -> QuatGroupType:
    n = len(S)
    if MINUS_ONE not in S:
        raise ValueError("quaternion group must contain -1")
    if all(isinstance(q, CycloQuat) for q in S):
        return _cyclo_type(n, any(q.jbit for q in S))
    maxorder = max(quat_order(q) for q in S)
    if maxorder == n:
        return QuatGroupType("C", n // 2)  # an element of order |S| generates S
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
        if (len(self.pairing) * len(self.L0) != len(self.L)
                or {quat_mul(li, h) for li, _ in self.pairing for h in self.L0} != self.L
                or not all(ri in self.R for _, ri in self.pairing)):
            raise ValueError("pairing does not cover L/L0 from R")
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

    def rotations(self) -> PointGroup:
        """All [l, r] with Φ(l L0) = r R0, unchecked: l as L iterates, then r
        as its R0-coset iterates."""
        left, right = _cosets(self.L, self.L0), _cosets(self.R, self.R0)
        match = {left[li]: right[ri] for li, ri in self.pairing}
        return PointGroup(frozenset(Transform4(False, l, r)
                                    for l in self.L for r in match[left[l]]))


def _cosets(S: frozenset, N: frozenset) -> dict:
    """Each element of S to its coset qN of the normal subgroup N, a frozenset
    made from the first q of S met in it; S itself when N is all of S."""
    if len(N) == len(S):
        return dict.fromkeys(S, S)
    cosets = {}
    for q in S:
        if q not in cosets:
            cs = frozenset(quat_mul(q, h) for h in N)
            for x in cs:
                cosets[x] = cs
    return cosets


def goursat_group(data: GoursatData) -> PointGroup:
    """All [l, r] with Φ(l L0) = r R0: ``data.rotations()``, checked."""
    data.validate()
    G = data.rotations()
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
