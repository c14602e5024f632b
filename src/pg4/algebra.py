"""Exact scalars and unit quaternions.

Two scalar domains cover everything the catalog needs:

* ``FieldElem`` -- elements of the degree-4 field Q(sqrt2, sqrt5) with basis
  (1, sqrt2, sqrt5, sqrt10).  The binary polyhedral groups 2T, 2O, 2I have all
  their coordinates here.  sqrt3 is deliberately not representable.
* ``AngleFraction`` -- a rational t standing for the angle t*pi, reduced mod 2.

Quaternions come in two exact representations:

* ``AlgQuat`` -- w + x i + y j + z k with coordinates in Q(sqrt2, sqrt5), stored
  as 16 integer numerators over one denominator.
* ``CycloQuat`` -- exp(t*pi*i) or exp(t*pi*i)*j, i.e. an angle fraction plus a
  j-bit.  This covers cyclic and dihedral factors of arbitrary order, whose
  coordinates would need number fields of unbounded degree.

A quaternion that lies on the i-circle (or its j-translate) is always stored
as a CycloQuat; mixed products promote the CycloQuat side into the field,
which is possible exactly when the angle denominator divides 4.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, lcm, pi, sin
from typing import Union

Rational = Fraction

_FH = Fraction(1, 2)


class FieldElem:
    """a + b*sqrt2 + c*sqrt5 + d*sqrt10 with rational a, b, c, d.

    Stored as integer numerators ``A, B, C, D`` over one positive integer
    denominator ``den`` with gcd(A, B, C, D, den) = 1, so equal elements have
    equal fields.  The rational coordinates ``a``-``d`` are built on demand.

    ``hash(x) == hash((x.a, x.b, x.c, x.d))``: set and dict iteration orders,
    and with them the orbit point and mesh vertex orders, depend on it.  It
    is computed on first use, since most intermediate values are never hashed.
    """

    __slots__ = ("A", "B", "C", "D", "den", "_hash")

    def __init__(self, a=0, b=0, c=0, d=0):
        fa, fb, fc, fd = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        den = lcm(fa.denominator, fb.denominator, fc.denominator, fd.denominator)
        self.A = fa.numerator * (den // fa.denominator)
        self.B = fb.numerator * (den // fb.denominator)
        self.C = fc.numerator * (den // fc.denominator)
        self.D = fd.numerator * (den // fd.denominator)
        self.den = den
        self._hash = None

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.den)

    @property
    def c(self) -> Fraction:
        return Fraction(self.C, self.den)

    @property
    def d(self) -> Fraction:
        return Fraction(self.D, self.den)

    def __hash__(self):
        h = self._hash
        if h is None:
            den = self.den
            if den == 1:
                h = hash((self.A, self.B, self.C, self.D))
            else:
                h = hash((_rat_hash(self.A, den), _rat_hash(self.B, den),
                          _rat_hash(self.C, den), _rat_hash(self.D, den)))
            self._hash = h
        return h

    def __eq__(self, other):
        if type(other) is FieldElem:
            return (self.den == other.den and self.A == other.A and self.B == other.B
                    and self.C == other.C and self.D == other.D)
        if isinstance(other, (int, Fraction)):
            return not (self.B or self.C or self.D) and Fraction(self.A, self.den) == other
        return NotImplemented

    def __add__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _fe(self.A + other.A, self.B + other.B, self.C + other.C,
                       self.D + other.D, d1)
        return _fe(self.A * d2 + other.A * d1, self.B * d2 + other.B * d1,
                   self.C * d2 + other.C * d1, self.D * d2 + other.D * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _fe(self.A - other.A, self.B - other.B, self.C - other.C,
                       self.D - other.D, d1)
        return _fe(self.A * d2 - other.A * d1, self.B * d2 - other.B * d1,
                   self.C * d2 - other.C * d1, self.D * d2 - other.D * d1, d1 * d2)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _fe_reduced(-self.A, -self.B, -self.C, -self.D, self.den)

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
        a1, b1, c1, d1 = self.A, self.B, self.C, self.D
        a2, b2, c2, d2 = other.A, other.B, other.C, other.D
        return _fe(
            a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        # multiply by the three Galois conjugates; the product is rational
        A, B, C, D, den = self.A, self.B, self.C, self.D, self.den
        y = _fe(A, -B, C, -D, den) * _fe(A, B, -C, -D, den) * _fe(A, -B, -C, D, den)
        n = self * y
        if not n.is_rational():
            raise ArithmeticError(f"norm of {self!r} is not rational")
        # y / (n.A / n.den), with the sign moved into the numerators
        s = n.den if n.A > 0 else -n.den
        return _fe(y.A * s, y.B * s, y.C * s, y.D * s, y.den * abs(n.A))

    def is_zero(self):
        return not (self.A or self.B or self.C or self.D)

    def is_rational(self):
        return not (self.B or self.C or self.D)

    def __float__(self):
        return _float(self.A, self.B, self.C, self.D, self.den)

    def key(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"FieldElem({self.a},{self.b},{self.c},{self.d})"


_HASH_MODULUS = sys.hash_info.modulus


def _rat_hash(n: int, den: int) -> int:
    """hash(Fraction(n, den)) for den > 0, by Python's rule for rationals."""
    h = abs(n) % _HASH_MODULUS * pow(den, -1, _HASH_MODULUS) % _HASH_MODULUS
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def _float(A: int, B: int, C: int, D: int, den: int) -> float:
    """float((A + B sqrt2 + C sqrt5 + D sqrt10) / den): per coordinate, as
    float(Fraction) rounds it (so the same for any common den), then summed."""
    return A / den + B / den * 1.4142135623730951 \
        + C / den * 2.23606797749979 + D / den * 3.1622776601683795


def _fe_reduced(A: int, B: int, C: int, D: int, den: int) -> FieldElem:
    """FieldElem from numerators already in lowest terms over den > 0."""
    x = FieldElem.__new__(FieldElem)
    x.A = A
    x.B = B
    x.C = C
    x.D = D
    x.den = den
    x._hash = None
    return x


def _fe(A: int, B: int, C: int, D: int, den: int) -> FieldElem:
    """FieldElem (A + B sqrt2 + C sqrt5 + D sqrt10) / den, for den > 0."""
    g = gcd(A, B, C, D, den)
    if g != 1:
        A //= g
        B //= g
        C //= g
        D //= g
        den //= g
    return _fe_reduced(A, B, C, D, den)


def _coerce(x) -> FieldElem:
    if isinstance(x, FieldElem):
        return x
    if isinstance(x, int):
        return _fe_reduced(x, 0, 0, 0, 1)
    if isinstance(x, Fraction):
        return _fe_reduced(x.numerator, 0, 0, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x)} into Q(sqrt2,sqrt5)")


F = FieldElem
SQRT2 = FieldElem(0, 1)
SQRT5 = FieldElem(0, 0, 1)
SQRT10 = FieldElem(0, 0, 0, 1)
HALF = FieldElem(_FH)


class AngleFraction:
    """Rational t meaning the angle t*pi, kept in [0, 2)."""

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = Fraction(t) % 2

    def __add__(self, other):
        return AngleFraction(self.t + _angle_t(other))

    def __sub__(self, other):
        return AngleFraction(self.t - _angle_t(other))

    def __neg__(self):
        return AngleFraction(-self.t)

    def __mul__(self, k: int):
        return AngleFraction(self.t * k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, AngleFraction):
            return self.t == other.t
        if isinstance(other, (int, Fraction)):
            return self.t == Fraction(other) % 2
        return NotImplemented

    def __lt__(self, other):
        return self.t < _angle_t(other)

    def __le__(self, other):
        return self.t <= _angle_t(other)

    def __hash__(self):
        return hash(self.t)

    def __repr__(self):
        return f"AngleFraction({self.t})"


def _angle_t(x) -> Fraction:
    if isinstance(x, AngleFraction):
        return x.t
    return Fraction(x) % 2


class AlgQuat:
    """Unit quaternion w + x i + y j + z k with coordinates in Q(sqrt2, sqrt5).

    ``_ints`` is the one stored form: the 16 numerators of w, x, y, z (each as
    A, B, C, D of ``FieldElem``) over their least common denominator, then
    that denominator, in lowest terms.  Instances are interned on it, so
    equal values are one object and ``==`` is identity.  The coordinates
    ``w``-``z`` are FieldElems made on read.  ``hash(q) == hash((1, hash(w),
    hash(x), hash(y), hash(z)))``.  Interning also sets ``_flip``
    (``quat_sign_flip``).
    """

    __slots__ = ("_ints", "_hash", "_negq", "_order", "_flip")

    def __new__(cls, w, x, y, z):
        cs = [_coerce(c) for c in (w, x, y, z)]
        den = lcm(*(c.den for c in cs))
        return _alg((*(n * (den // c.den) for c in cs for n in (c.A, c.B, c.C, c.D)), den))

    w = property(lambda q: _fe(*q._ints[0:4], q._ints[16]))
    x = property(lambda q: _fe(*q._ints[4:8], q._ints[16]))
    y = property(lambda q: _fe(*q._ints[8:12], q._ints[16]))
    z = property(lambda q: _fe(*q._ints[12:16], q._ints[16]))

    def __hash__(self):
        return self._hash

    def norm2(self) -> FieldElem:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def coords(self):
        return (self.w, self.x, self.y, self.z)

    def __repr__(self):
        return f"AlgQuat({self.w},{self.x},{self.y},{self.z})"


_ALG_CACHE: dict = {}


def _alg(ints: tuple) -> AlgQuat:
    """Interned AlgQuat from its 17-int ``_ints`` form, in lowest terms."""
    q = _ALG_CACHE.get(ints)
    if q is None:
        q = object.__new__(AlgQuat)
        q._ints = ints
        # a coordinate's FieldElem hash is the rational hash of each numerator
        den = ints[16]
        q._hash = hash((1, *(hash(tuple(_rat_hash(n, den) for n in ints[u:u + 4]))
                             for u in (0, 4, 8, 12))))
        q._negq = None
        q._order = None
        # quat_key order: -q is smaller iff q's first nonzero numerator is positive
        q._flip = next((n > 0 for n in ints[:16] if n), False)
        _ALG_CACHE[ints] = q
    return q


class CycloQuat:
    """exp(t*pi*i) if jbit is 0, else exp(t*pi*i)*j; t rational in [0, 2).

    Instances are interned on the reduced (numerator, denominator, jbit)
    triple, so ``==`` is identity; the angle is stored as plain integers for
    speed.  ``hash(q) == hash((0, num, den, jbit))``.  ``_flip`` is
    ``quat_sign_flip(q)``, set when the quaternion is interned.
    """

    __slots__ = ("num", "den", "jbit", "_hash", "_neg", "_order", "_flip")

    def __new__(cls, t, jbit: int = 0):
        t = Fraction(t) % 2
        return _cyc(t.numerator, t.denominator, 1 if jbit else 0)

    @property
    def t(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CycloQuat({self.num}/{self.den},j={self.jbit})"


_CYC_CACHE: dict = {}


def _cyc(num: int, den: int, jbit: int) -> CycloQuat:
    """Interned CycloQuat from a reduced angle in [0, 2)."""
    key = (num, den, jbit)
    q = _CYC_CACHE.get(key)
    if q is None:
        q = object.__new__(CycloQuat)
        q.num = num
        q.den = den
        q.jbit = jbit
        q._hash = hash((0, num, den, jbit))
        q._neg = None
        q._order = None
        q._flip = num >= den  # -q has angle num - den
        _CYC_CACHE[key] = q
    return q


def _cyc_make(num: int, den: int, jbit: int) -> CycloQuat:
    """Interned CycloQuat from an unreduced angle numerator/denominator."""
    num %= 2 * den
    g = gcd(num, den)
    return _cyc(num // g, den // g, jbit)


Quat = Union[AlgQuat, CycloQuat]


class RepresentationError(ValueError):
    """Raised for non-promotable mixed-representation arithmetic."""


# exact cos/sin for angles t*pi with denominator dividing 4
_EIGHTH = {
    Fraction(0): (F(1), F(0)),
    Fraction(1, 4): (HALF * SQRT2, HALF * SQRT2),
    Fraction(1, 2): (F(0), F(1)),
    Fraction(3, 4): (-HALF * SQRT2, HALF * SQRT2),
    Fraction(1): (F(-1), F(0)),
    Fraction(5, 4): (-HALF * SQRT2, -HALF * SQRT2),
    Fraction(3, 2): (F(0), F(-1)),
    Fraction(7, 4): (HALF * SQRT2, -HALF * SQRT2),
}
# the _ints of each of those circle points, mapped to its CycloQuat (t, jbit)
_EIGHTH_INV = {AlgQuat(*cs, 0, 0)._ints: (t, 0) for t, cs in _EIGHTH.items()}
_EIGHTH_INV.update({AlgQuat(0, 0, *cs)._ints: (t, 1) for t, cs in _EIGHTH.items()})


def quat(w, x, y, z) -> Quat:
    """Canonical exact quaternion from field coordinates."""
    q = AlgQuat(w, x, y, z)
    return _demote(q) or q


def _demote(q: AlgQuat):
    # circle forms with angle denominator | 4 are stored as CycloQuat
    tj = _EIGHTH_INV.get(q._ints)
    return None if tj is None else CycloQuat(*tj)


@lru_cache(maxsize=None)
def _promote(c: CycloQuat) -> AlgQuat:
    cs = _EIGHTH.get(c.t)
    if cs is None:
        raise RepresentationError(f"angle {c.t}*pi does not lie in Q(sqrt2,sqrt5)")
    if c.jbit:
        return AlgQuat(F(0), F(0), cs[0], cs[1])
    return AlgQuat(cs[0], cs[1], F(0), F(0))


def _real_part(a: tuple, b: tuple) -> tuple:
    """Numerators (A, B, C, D) of Re(a*b) over ``a[16] * b[16]``, for the
    ``_ints`` forms a and b of two quaternions."""
    # coordinate c of a is (c0 + c1 sqrt2 + c2 sqrt5 + c3 sqrt10) / d, and of b
    # (C0 + ...) / e; Re(ab) = ww' - xx' - yy' - zz' by the FieldElem product
    w0, w1, w2, w3, x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3, d = a
    W0, W1, W2, W3, X0, X1, X2, X3, Y0, Y1, Y2, Y3, Z0, Z1, Z2, Z3, e = b
    return (w0 * W0 - x0 * X0 - y0 * Y0 - z0 * Z0
            + 2 * (w1 * W1 - x1 * X1 - y1 * Y1 - z1 * Z1)
            + 5 * (w2 * W2 - x2 * X2 - y2 * Y2 - z2 * Z2)
            + 10 * (w3 * W3 - x3 * X3 - y3 * Y3 - z3 * Z3),
            w0 * W1 - x0 * X1 - y0 * Y1 - z0 * Z1
            + w1 * W0 - x1 * X0 - y1 * Y0 - z1 * Z0
            + 5 * (w2 * W3 - x2 * X3 - y2 * Y3 - z2 * Z3
                   + w3 * W2 - x3 * X2 - y3 * Y2 - z3 * Z2),
            w0 * W2 - x0 * X2 - y0 * Y2 - z0 * Z2
            + w2 * W0 - x2 * X0 - y2 * Y0 - z2 * Z0
            + 2 * (w1 * W3 - x1 * X3 - y1 * Y3 - z1 * Z3
                   + w3 * W1 - x3 * X1 - y3 * Y1 - z3 * Z1),
            w0 * W3 - x0 * X3 - y0 * Y3 - z0 * Z3
            + w3 * W0 - x3 * X0 - y3 * Y0 - z3 * Z0
            + w1 * W2 - x1 * X2 - y1 * Y2 - z1 * Z2
            + w2 * W1 - x2 * X1 - y2 * Y1 - z2 * Z1)


_ALG_MUL_CACHE: dict = {}


def _alg_mul(a: AlgQuat, b: AlgQuat) -> Quat:
    key = (a, b)
    r = _ALG_MUL_CACHE.get(key)
    if r is None:
        p, n = a._ints, b._ints
        w0, w1, w2, w3, x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3, e = n
        # coordinate u of a*b is Re(a*(b*-u)); b*-i, b*-j, b*-k permute b's blocks
        ints = (*_real_part(p, n),
                *_real_part(p, (x0, x1, x2, x3, -w0, -w1, -w2, -w3,
                                -z0, -z1, -z2, -z3, y0, y1, y2, y3, e)),
                *_real_part(p, (y0, y1, y2, y3, z0, z1, z2, z3,
                                -w0, -w1, -w2, -w3, -x0, -x1, -x2, -x3, e)),
                *_real_part(p, (z0, z1, z2, z3, -y0, -y1, -y2, -y3,
                                x0, x1, x2, x3, -w0, -w1, -w2, -w3, e)),
                p[16] * e)
        g = gcd(*ints)
        q = _alg(tuple(k // g for k in ints) if g != 1 else ints)
        r = _demote(q) or q
        _ALG_MUL_CACHE[key] = r
    return r


def quat_mul(a: Quat, b: Quat) -> Quat:
    if type(a) is CycloQuat and type(b) is CycloQuat:
        # exp(sπi) j^u · exp(tπi) j^v, using j exp(tπi) = exp(−tπi) j
        n1, d1, n2, d2 = a.num, a.den, b.num, b.den
        if a.jbit:
            num = n1 * d2 - n2 * d1
            if b.jbit:
                return _cyc_make(num + d1 * d2, d1 * d2, 0)
            return _cyc_make(num, d1 * d2, 1)
        return _cyc_make(n1 * d2 + n2 * d1, d1 * d2, b.jbit)
    if type(a) is CycloQuat:
        a = _promote(a)
    if type(b) is CycloQuat:
        b = _promote(b)
    return _alg_mul(a, b)


def quat_conj(a: Quat) -> Quat:
    if type(a) is CycloQuat:
        if a.jbit:
            return _cyc_make(a.num + a.den, a.den, 1)
        return _cyc_make(-a.num, a.den, 0)
    n = a._ints
    return _alg((*n[:4], *(-k for k in n[4:16]), n[16]))


def quat_neg(a: Quat) -> Quat:
    if type(a) is CycloQuat:
        q = a._neg
        if q is None:
            q = _cyc_make(a.num + a.den, a.den, a.jbit)
            a._neg = q
        return q
    q = a._negq
    if q is None:
        n = a._ints
        q = _alg((*(-k for k in n[:16]), n[16]))
        a._negq = q
    return q


def quat_sign_flip(a: Quat) -> bool:
    """True when -a has the smaller encoding, i.e. (l, r) must be negated;
    set when ``a`` was interned."""
    return a._flip


def quat_real(a: Quat) -> FieldElem:
    """Real part; exact, so CycloQuat angles must lie in the field."""
    if isinstance(a, CycloQuat):
        if a.jbit:
            return F(0)
        return _promote(a).w
    return a.w


def quat_is_unit(a: Quat) -> bool:
    if isinstance(a, CycloQuat):
        return True
    return a.norm2() == 1


ONE = CycloQuat(0, 0)
MINUS_ONE = CycloQuat(1, 0)
I = CycloQuat(Fraction(1, 2), 0)
J = CycloQuat(0, 1)
K = CycloQuat(Fraction(1, 2), 1)


def exp_i(t) -> CycloQuat:
    """exp(t*pi*i) as a CycloQuat."""
    return CycloQuat(t, 0)


# real parts occurring in 2I ∪ 2O ∪ 2T, mapped to the unsigned angle fraction
_ARCCOS = {
    F(1): Fraction(0),
    F(-1): Fraction(1),
    F(0): Fraction(1, 2),
    HALF: Fraction(1, 3),
    -HALF: Fraction(2, 3),
    HALF * SQRT2: Fraction(1, 4),
    -HALF * SQRT2: Fraction(3, 4),
    (F(1) + SQRT5) * Fraction(1, 4): Fraction(1, 5),
    (SQRT5 - 1) * Fraction(1, 4): Fraction(2, 5),
    (F(1) - SQRT5) * Fraction(1, 4): Fraction(3, 5),
    (-F(1) - SQRT5) * Fraction(1, 4): Fraction(4, 5),
}


# the same table on the reduced numerators and denominator (A, B, C, D, den)
_ARCCOS_INTS = {(x.A, x.B, x.C, x.D, x.den): t for x, t in _ARCCOS.items()}


def _arccos(A: int, B: int, C: int, D: int, den: int) -> Fraction:
    """The ``_ARCCOS`` angle of (A + B sqrt2 + C sqrt5 + D sqrt10) / den,
    for den > 0, reduced by one gcd."""
    g = gcd(A, B, C, D, den)
    a = _ARCCOS_INTS.get((A // g, B // g, C // g, D // g, den // g))
    if a is None:
        re = _fe(A, B, C, D, den)
        raise ValueError(f"real part {re!r} outside the arccos lookup table")
    return a


def unsigned_angle(q: Quat) -> Fraction:
    """Unsigned fraction a in [0,1] with cos(a*pi) = Re(q); ``angle_of(q).t``."""
    if type(q) is CycloQuat:
        if q.jbit:
            return _FH
        return min(Fraction(q.num, q.den), Fraction(2 * q.den - q.num, q.den))
    n = q._ints
    return _arccos(n[0], n[1], n[2], n[3], n[16])


def angle_of(q: Quat) -> AngleFraction:
    """Unsigned fraction a in [0,1] with cos(a*pi) = Re(q)."""
    return AngleFraction(unsigned_angle(q))


def product_angle(a: Quat, b: Quat) -> Fraction:
    """``unsigned_angle(quat_mul(a, b))``, read from Re(a*b) alone.

    Unless both factors are CycloQuats, the real part is ``_real_part`` of
    the two ``_ints``, reduced by one gcd; the full product is neither built
    nor cached.
    """
    if type(a) is CycloQuat:
        if type(b) is CycloQuat:
            return unsigned_angle(quat_mul(a, b))
        a = _promote(a)
    elif type(b) is CycloQuat:
        b = _promote(b)
    p, n = a._ints, b._ints
    return _arccos(*_real_part(p, n), p[16] * n[16])


def quat_order(q: Quat) -> int:
    """Multiplicative order of a catalog quaternion; computed on the first
    call and kept on the interned quaternion."""
    k = q._order
    if k is None:
        k = q._order = _quat_order(q)
    return k


def _quat_order(q: Quat) -> int:
    a = unsigned_angle(q)
    if a == 0:
        return 1
    if type(q) is CycloQuat and q.jbit:
        return 4
    # q = exp(a*pi*u): order is the least k with k*a ≡ 0 (mod 2)
    k = 2 * a.denominator
    if a.numerator % 2 == 0:
        k //= 2
    return k


def quat_float4(q: Quat):
    if isinstance(q, CycloQuat):
        th = q.num * pi / q.den
        if q.jbit:
            return (0.0, 0.0, cos(th), sin(th))
        return (cos(th), sin(th), 0.0, 0.0)
    w0, w1, w2, w3, x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3, d = q._ints
    return (_float(w0, w1, w2, w3, d), _float(x0, x1, x2, x3, d),
            _float(y0, y1, y2, y3, d), _float(z0, z1, z2, z3, d))


def quat_key(q: Quat):
    """Total order on quaternion encodings, for canonical signs."""
    if isinstance(q, CycloQuat):
        return (0, q.num, q.den, q.jbit)
    return (1,) + q.w.key() + q.x.key() + q.y.key() + q.z.key()


def quat_to_json(q: Quat):
    if isinstance(q, CycloQuat):
        return {"cyc": {"t": str(q.t), "j": bool(q.jbit)}}
    return {"alg": [[str(f) for f in c.key()] for c in q.coords()]}


def _json_rational(s) -> Fraction:
    if isinstance(s, str) or (isinstance(s, int) and not isinstance(s, bool)):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{s!r} is not a rational number")


def quat_from_json(obj) -> Quat:
    """The quaternion of ``quat_to_json``.  Raises ``ValueError`` for a malformed
    object, and for an AlgQuat that is not a unit or whose real part is not in
    ``_ARCCOS``: in Q(sqrt2, sqrt5) such a unit has infinite order."""
    cyc = obj.get("cyc") if isinstance(obj, dict) else None
    if isinstance(cyc, dict) and isinstance(cyc.get("j"), bool):
        return CycloQuat(_json_rational(cyc.get("t")), 1 if cyc["j"] else 0)
    rows = obj.get("alg") if isinstance(obj, dict) else None
    if not (isinstance(rows, list) and len(rows) == 4
            and all(isinstance(row, list) and len(row) == 4 for row in rows)):
        raise ValueError('a quaternion is {"cyc": {"t": rational, "j": bool}} '
                         'or {"alg": four rows of four rationals}')
    q = quat(*(FieldElem(*map(_json_rational, row)) for row in rows))
    if type(q) is AlgQuat and (q.norm2() != 1 or q.w not in _ARCCOS):
        raise ValueError(f"{q!r} is not a unit quaternion of finite order")
    return q
