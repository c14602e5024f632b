"""O(4) elements as quaternion pairs.

``[l, r]`` is the rotation x -> conj(l) x r and ``*[l, r]`` the
orientation-reversing map x -> conj(l) conj(x) r.  The pair is determined up
to simultaneous negation; we store the lexicographically smaller of the two
sign choices so that transformations compare and hash as values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .algebra import (
    Quat,
    product_angle,
    quat_conj,
    quat_float4,
    quat_from_json,
    quat_is_unit,
    quat_mul,
    quat_neg,
    quat_sign_flip,
    quat_to_json,
    unsigned_angle,
    ONE,
)

if TYPE_CHECKING:
    import numpy as np


class Transform4:
    """A rotation [l,r] or reversing map *[l,r], in canonical sign."""

    __slots__ = ("star", "l", "r", "_hash")

    def __init__(self, star: bool, l: Quat, r: Quat):
        if quat_sign_flip(l):
            l, r = quat_neg(l), quat_neg(r)
        self.star = bool(star)
        self.l = l
        self.r = r
        self._hash = hash((star, l._hash, r._hash))

    @classmethod
    def canonical(cls, star: bool, l: Quat, r: Quat) -> Transform4:
        """The pair as given, which must already be in canonical sign
        (``quat_sign_flip(l)`` false); skips the sign test."""
        g = cls.__new__(cls)
        g.star = star
        g.l = l
        g.r = r
        g._hash = hash((star, l._hash, r._hash))
        return g

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # quaternions are interned, so equal components are one object
        return (
            isinstance(other, Transform4)
            and self.star == other.star and self.l is other.l and self.r is other.r
        )

    def is_unit(self) -> bool:
        return quat_is_unit(self.l) and quat_is_unit(self.r)

    def __repr__(self):
        return f"{'*' if self.star else ''}[{self.l!r},{self.r!r}]"


IDENTITY = Transform4(False, ONE, ONE)


def rotation(l: Quat, r: Quat) -> Transform4:
    return Transform4(False, l, r)


def reflection(l: Quat, r: Quat) -> Transform4:
    return Transform4(True, l, r)


def compose(g: Transform4, h: Transform4) -> Transform4:
    """Apply g first, then h; componentwise quaternion products."""
    if not g.star:
        if not h.star:
            return Transform4(False, quat_mul(g.l, h.l), quat_mul(g.r, h.r))
        return Transform4(True, quat_mul(g.r, h.l), quat_mul(g.l, h.r))
    if not h.star:
        return Transform4(True, quat_mul(g.l, h.l), quat_mul(g.r, h.r))
    return Transform4(False, quat_mul(g.r, h.l), quat_mul(g.l, h.r))


def inverse(g: Transform4) -> Transform4:
    if g.star:
        return Transform4(True, quat_conj(g.r), quat_conj(g.l))
    return Transform4(False, quat_conj(g.l), quat_conj(g.r))


def conjugate_elem(g: Transform4, h: Transform4) -> Transform4:
    """h^-1 g h."""
    return compose(compose(inverse(h), g), h)


def _mul4(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def apply(g: Transform4, x) -> np.ndarray:
    """Image of a 4-vector under g (floating point)."""
    import numpy as np

    w, x1, x2, x3 = (float(v) for v in x)
    q = (w, x1, x2, x3)
    if g.star:
        q = (q[0], -q[1], -q[2], -q[3])
    lw, lx, ly, lz = quat_float4(g.l)
    lbar = (lw, -lx, -ly, -lz)
    return np.array(_mul4(_mul4(lbar, q), quat_float4(g.r)))


def apply_columns(star, l, r, x) -> np.ndarray:
    """``apply`` over numpy columns, with the images as the rows of the result.

    ``star`` is a bool or a bool array; ``l``, ``r`` and ``x`` are 4-sequences
    of floats or of equal-length arrays, and all of them broadcast.  The
    arithmetic is ``apply``'s, elementwise, so each image is bit-identical.
    """
    import numpy as np

    w, x1, x2, x3 = x
    q = (w, np.where(star, -x1, x1), np.where(star, -x2, x2), np.where(star, -x3, x3))
    lbar = (l[0], -l[1], -l[2], -l[3])
    return np.stack(_mul4(_mul4(lbar, q), r), axis=-1)


def to_matrix(g: Transform4) -> np.ndarray:
    import numpy as np

    cols = [apply(g, e) for e in np.eye(4)]
    return np.column_stack(cols)


@dataclass(frozen=True)
class ElementCode:
    """Geometric conjugacy code of a single transformation.

    Rotations carry the normalized angle-fraction pair (a, b); reversing
    elements carry c = alpha/pi in [0, 1/2] and print as the paper-style
    star code *(1-c).
    """

    reversing: bool
    a: Fraction
    b: Fraction = Fraction(0)

    def sort_key(self):
        return (self.reversing, self.a, self.b)

    def __str__(self):
        if self.reversing:
            return "*" + _frac_str(1 - self.a)
        d = lcm(self.a.denominator, self.b.denominator)
        head = f"{self.a.numerator * (d // self.a.denominator)}|{self.b.numerator * (d // self.b.denominator)}"
        return head if d == 1 else f"{head}/{d}"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def code_from_angles(reversing: bool, a: Fraction, b: Fraction = Fraction(0)) -> ElementCode:
    """The code of a rotation [l, r] with unsigned angles a of l and b of r,
    or of a reversing element *[l, r] with a the unsigned angle of r·l."""
    if reversing:
        return ElementCode(True, min(a, 1 - a))
    # (l, r) and (-l, -r) give (a, b) and (1-a, 1-b)
    if not (a < b or (a == b and a <= Fraction(1, 2))):
        a, b = 1 - a, 1 - b
    return ElementCode(False, a, b)


def element_code(g: Transform4) -> ElementCode:
    if g.star:
        return code_from_angles(True, product_angle(g.r, g.l))
    return code_from_angles(False, unsigned_angle(g.l), unsigned_angle(g.r))


def transform_to_json(g: Transform4):
    return {"star": g.star, "l": quat_to_json(g.l), "r": quat_to_json(g.r)}


def transform_from_json(obj) -> Transform4:
    """The transformation of ``transform_to_json``; raises ``ValueError`` for a
    malformed object or component (see ``quat_from_json``)."""
    if not (isinstance(obj, dict) and isinstance(obj.get("star"), bool)
            and "l" in obj and "r" in obj):
        raise ValueError('a transformation is {"star": bool, "l": quaternion, "r": quaternion}')
    return Transform4(obj["star"], quat_from_json(obj["l"]), quat_from_json(obj["r"]))
