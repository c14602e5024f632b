import random
from fractions import Fraction as Fr
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg4.algebra import (
    AlgQuat,
    AngleFraction,
    CycloQuat,
    FieldElem,
    HALF,
    I,
    J,
    K,
    MINUS_ONE,
    ONE,
    RepresentationError,
    SQRT2,
    SQRT5,
    SQRT10,
    angle_of,
    exp_i,
    quat,
    quat_conj,
    quat_from_json,
    quat_is_unit,
    quat_key,
    quat_mul,
    quat_neg,
    quat_order,
    quat_real,
    quat_sign_flip,
    quat_to_json,
)
from pg4.constants import I_I, I_O, OMEGA, OMEGA_BAR

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
field_elems = st.builds(FieldElem, rationals, rationals, rationals, rationals)


def test_defining_relations():
    assert SQRT2 * SQRT2 == FieldElem(2)
    assert SQRT5 * SQRT5 == FieldElem(5)
    assert SQRT2 * SQRT5 == SQRT10
    golden = (FieldElem(1) + SQRT5) * Fr(1, 4)
    cogolden = (SQRT5 - 1) * Fr(1, 4)
    assert golden * cogolden == FieldElem(Fr(1, 4))


@settings(max_examples=150, deadline=None)
@given(field_elems, field_elems, field_elems)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=80, deadline=None)
@given(field_elems)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == FieldElem(1)


def _ref(x):
    return (x.a, x.b, x.c, x.d)


def _ref_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + 2 * b1 * b2 + 5 * c1 * c2 + 10 * d1 * d2,
            a1 * b2 + b1 * a2 + 5 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


# Hamilton's rule: coordinate u of p*q is the sum of sign * p[i] * q[j]
_HAMILTON = (((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (-1, 3, 3)),
             ((1, 0, 1), (1, 1, 0), (1, 2, 3), (-1, 3, 2)),
             ((1, 0, 2), (-1, 1, 3), (1, 2, 0), (1, 3, 1)),
             ((1, 0, 3), (1, 1, 2), (-1, 2, 1), (1, 3, 0)))


def _ref_quat(q):
    from pg4 import algebra
    if type(q) is CycloQuat:
        q = algebra._promote(q)
    return [_ref(c) for c in q.coords()]


def _ref_quat_mul(p, q):
    """The product of two quaternions given as four ``_ref`` coordinates."""
    return [tuple(map(sum, zip(*([s * v for v in _ref_mul(p[i], q[j])] for s, i, j in terms))))
            for terms in _HAMILTON]


def _dense_quats(seed, count):
    """Quaternions (not units) whose 16 numerators are all nonzero."""
    rng = random.Random(seed)

    def coord():
        return FieldElem(*(Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                           for _ in range(4)))

    return [AlgQuat(coord(), coord(), coord(), coord()) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, rationals, rationals, field_elems)
def test_field_matches_fraction_reference(a, b, c, d, y):
    """The integer representation against coordinates kept as Fractions."""
    x = FieldElem(a, b, c, d)
    p, q = (a, b, c, d), _ref(y)
    assert p == _ref(x)
    assert _ref(x + y) == tuple(s + t for s, t in zip(p, q))
    assert _ref(x - y) == tuple(s - t for s, t in zip(p, q))
    assert _ref(-x) == tuple(-s for s in p)
    assert _ref(x * y) == _ref_mul(p, q)
    assert _ref(x * a) == tuple(s * a for s in p) == _ref(a * x)
    if not y.is_zero():
        assert _ref_mul(_ref(y.inverse()), q) == (1, 0, 0, 0)
        assert _ref_mul(_ref(x / y), q) == p
    assert float(x) == float(a) + float(b) * 1.4142135623730951 \
        + float(c) * 2.23606797749979 + float(d) * 3.1622776601683795
    assert x.key() == p and (x.key() < y.key()) == (p < q)
    assert hash(x) == hash(p)
    assert (x == y) == (p == q) and (x == a) == (p == (a, 0, 0, 0))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        FieldElem(1) / FieldElem(0)


def test_quaternion_table():
    assert quat_mul(I, J) == K
    assert quat_mul(J, K) == I
    assert quat_mul(K, I) == J
    assert quat_mul(I, I) == MINUS_ONE


def test_omega_order_three():
    assert quat_mul(quat_mul(OMEGA, OMEGA), OMEGA) == ONE
    assert quat_order(OMEGA) == 3
    assert quat_real(OMEGA) == FieldElem(Fr(-1, 2))


def test_quat_order_matches_powers():
    """The kept order of each quaternion of 2I, 2O and some CycloQuats is the
    least k with q^k = 1, on the first call and on the second."""
    from pg4.group import quat_closure

    qs = quat_closure([I_I, OMEGA]) | quat_closure([I_O, OMEGA])
    qs |= {CycloQuat(Fr(k, 12), b) for k in range(24) for b in (0, 1)}
    for q in qs:
        k, p = 1, q
        while p != ONE:
            k, p = k + 1, quat_mul(p, q)
        assert quat_order(q) == k == quat_order(q), q


def test_cyclo_rules():
    c = CycloQuat(Fr(1, 3), 1)
    assert quat_mul(c, c) == CycloQuat(1, 0)  # a half-turn squared is -1
    a, b = CycloQuat(Fr(1, 5), 0), CycloQuat(Fr(1, 3), 0)
    assert quat_mul(a, b) == CycloQuat(Fr(8, 15), 0)
    assert quat_mul(CycloQuat(Fr(1, 5), 1), CycloQuat(Fr(1, 3), 0)) == \
        CycloQuat(Fr(1, 5) - Fr(1, 3), 1)


def test_conj():
    assert quat_conj(I) == quat_neg(I)
    assert quat_conj(CycloQuat(Fr(1, 4), 0)) == CycloQuat(Fr(7, 4), 0)


def test_angle_of():
    assert angle_of(MINUS_ONE).t == 1
    assert angle_of(OMEGA).t == Fr(2, 3)
    assert angle_of(I_I).t == Fr(1, 2)
    assert angle_of(exp_i(Fr(9, 5))).t == Fr(1, 5)


def test_angle_complement():
    for q in (OMEGA, I_I, I_O, exp_i(Fr(1, 7))):
        assert angle_of(q).t + angle_of(quat_neg(q)).t == 1


def test_product_angle_reads_the_real_part():
    from pg4 import algebra
    from pg4.constants import two_I, two_O
    I2, O2 = list(two_I()), list(two_O())
    # the CycloQuats of 2O, promoted against its AlgQuats
    cyclo = [CycloQuat(Fr(k, 4), b) for k in range(8) for b in (0, 1)]
    pairs = [(a, b) for a in I2 for b in I2] + [(a, b) for a in O2 for b in O2]
    pairs += [(c, q) for c in cyclo for q in O2] + [(q, c) for c in cyclo for q in O2]
    pairs += [(exp_i(Fr(1, 4)), OMEGA), (OMEGA, exp_i(Fr(1, 4))), (J, I_I), (I_I, K)]
    pairs.append((exp_i(Fr(1, 7)), exp_i(Fr(2, 7))))
    cached = len(algebra._ALG_MUL_CACHE)
    got = [algebra.product_angle(a, b) for a, b in pairs]
    assert len(algebra._ALG_MUL_CACHE) == cached
    assert got == [angle_of(quat_mul(a, b)).t for a, b in pairs]
    with pytest.raises(RepresentationError):
        algebra.product_angle(exp_i(Fr(1, 5)), OMEGA)
    # 2O x 2I: real parts with sqrt10 terms, many outside the table

    def outcome(f, *args):
        try:
            return f(*args)
        except ValueError as exc:
            return str(exc)

    mixed = [(a, b) for a in O2 for b in I2] + [(b, a) for a in O2 for b in I2[::5]]
    # and quaternions with all 16 numerators nonzero (no catalog unit has sqrt10)
    dense = _dense_quats(2405, 40)
    mixed += list(zip(dense, dense[1:] + dense[:1]))
    got = [outcome(algebra.product_angle, a, b) for a, b in mixed]
    assert got == [outcome(algebra.unsigned_angle, quat_mul(a, b)) for a, b in mixed]
    assert 0 < sum(type(x) is str for x in got) < len(got)


def test_products_match_a_fraction_reference():
    """Full products against Hamilton's rule on Fraction coordinates, which
    shares nothing with ``_real_part``: every pair of 40 quaternions with all
    16 numerators nonzero (the sqrt10 terms), and 2O x 2I; and the conjugate
    and negative of each of the 40."""
    from pg4.constants import two_I, two_O
    dense = _dense_quats(2505, 40)
    pairs = [(a, b) for a in dense for b in dense]
    pairs += [(a, b) for a in two_O() for b in two_I()]

    def scaled(q):  # integer coordinates, and the factor that made them
        ref = _ref_quat(q)
        den = lcm(*(f.denominator for c in ref for f in c))
        return [tuple(int(f * den) for f in c) for c in ref], den

    refs = {q: scaled(q) for pair in pairs for q in pair}
    for a, b in pairs:
        (p, d), (q, e) = refs[a], refs[b]
        got = [tuple(f * d * e for f in c) for c in _ref_quat(quat_mul(a, b))]
        assert got == _ref_quat_mul(p, q), (a, b)
    for a in dense:
        w, *v = _ref_quat(a)
        assert _ref_quat(quat_conj(a)) == [w] + [tuple(-f for f in c) for c in v]
        assert _ref_quat(quat_neg(a)) == [tuple(-f for f in c) for c in [w] + v]


def test_quaternion_path_does_no_field_arithmetic(monkeypatch):
    """Products, negation, conjugation and angles of AlgQuats are integer
    arithmetic on ``_ints``: no FieldElem operator runs."""
    from pg4 import algebra
    from pg4.constants import two_I, two_O

    def refuse(*args):
        raise AssertionError("FieldElem arithmetic on the quaternion path")

    I2, O2 = list(two_I()), list(two_O())
    qs = I2 + O2
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(FieldElem, op, refuse)
    products = {}
    for a in qs:
        for b in qs:
            if type(a) is AlgQuat or type(b) is AlgQuat:
                key = (algebra._promote(a) if type(a) is CycloQuat else a,
                       algebra._promote(b) if type(b) is CycloQuat else b)
                algebra._ALG_MUL_CACHE.pop(key, None)
            products[a, b] = quat_mul(a, b)
    for q in qs:
        if type(q) is AlgQuat:
            q._negq = None
        assert quat_neg(quat_neg(q)) is q and quat_conj(quat_conj(q)) is q
        algebra.unsigned_angle(q)
    angles = [algebra.product_angle(a, b) for a in I2 for b in I2]
    monkeypatch.undo()
    assert angles == [algebra.unsigned_angle(products[a, b]) for a in I2 for b in I2]


def test_quat_key_matches_coordinate_keys():
    """``quat_key`` of an AlgQuat reads ``_ints``; it equals the key made from
    the four ``FieldElem`` coordinates, so the sort order is the same."""
    from pg4.catalog import AXIAL_FAMILIES, POLYHEDRAL_ORDERS, GroupSpec, build, polyhedral_spec
    groups = [build(polyhedral_spec(name)) for name in POLYHEDRAL_ORDERS]
    groups += [build(GroupSpec("axial", fam)) for fam in AXIAL_FAMILIES]
    assert len(groups) == 46
    finite = {q for G in groups for g in G.elements for q in (g.l, g.r) if type(q) is AlgQuat}
    assert len(finite) == 128  # the AlgQuats of 2O ∪ 2I
    quats = list(finite) + _dense_quats(2405, 40) + _dense_quats(2505, 40)

    def oracle(q):
        return (1,) + q.w.key() + q.x.key() + q.y.key() + q.z.key()

    for q in quats:
        assert quat_key(q) == oracle(q), q
    assert sorted(quats, key=quat_key) == sorted(quats, key=oracle)


def test_interned_data():
    """The sign bit and integer coordinates set when a quaternion is interned,
    over every quaternion made while building the 46 finite groups."""
    from pg4 import algebra
    from pg4.catalog import AXIAL_FAMILIES, POLYHEDRAL_ORDERS, GroupSpec, build, polyhedral_spec
    for name in POLYHEDRAL_ORDERS:
        build(polyhedral_spec(name))
    for fam in AXIAL_FAMILIES:
        build(GroupSpec("axial", fam))
    quats = list(algebra._ALG_CACHE.values()) + list(algebra._CYC_CACHE.values())
    assert len(quats) >= 144  # at least 2I ∪ 2O
    for q in quats:
        assert quat_sign_flip(q) == (quat_key(quat_neg(q)) < quat_key(q)), q
    for q in algebra._ALG_CACHE.values():
        *nums, den = q._ints
        assert [Fr(n, den) for n in nums] == [f for c in q.coords() for f in c.key()], q
        assert hash(q) == hash((1, hash(q.w), hash(q.x), hash(q.y), hash(q.z))), q


def test_units_and_promotion():
    assert quat_is_unit(I_I) and quat_is_unit(OMEGA) and quat_is_unit(I_O)
    # circle forms with denominator dividing 4 promote into the field
    assert isinstance(quat_mul(exp_i(Fr(1, 4)), OMEGA), type(OMEGA))
    with pytest.raises(RepresentationError):
        quat_mul(exp_i(Fr(1, 5)), OMEGA)


def test_canonical_demotion():
    # field coordinates on the i-circle come back as CycloQuat
    q = quat(HALF * SQRT2, HALF * SQRT2, 0, 0)
    assert q == exp_i(Fr(1, 4))
    q = quat(0, 0, Fr(-1), 0)
    assert q == CycloQuat(1, 1)


def test_angle_fraction_mod_two():
    a = AngleFraction(Fr(7, 4))
    assert (a + AngleFraction(Fr(1, 2))).t == Fr(1, 4)
    assert (-a).t == Fr(1, 4)


def test_json_round_trip():
    for q in (OMEGA, I_I, exp_i(Fr(3, 7)), CycloQuat(Fr(1, 6), 1)):
        assert quat_from_json(quat_to_json(q)) == q


def test_quaternions_are_interned():
    from pg4 import algebra
    h = Fr(1, 2)
    q = AlgQuat(-h, h, h, h)
    assert q is OMEGA and q == OMEGA
    assert AlgQuat(FieldElem(-h), HALF, FieldElem(h), h) is q
    assert quat(-HALF, HALF, HALF, HALF) is q
    assert quat_neg(q) is AlgQuat(h, -h, -h, -h) and quat_neg(quat_neg(q)) is q
    assert quat_conj(q) is OMEGA_BAR and quat_conj(OMEGA_BAR) is q
    algebra._ALG_MUL_CACHE.pop((q, q), None)
    assert algebra._alg_mul(q, q) is OMEGA_BAR  # ω² = ω̄, made afresh
    assert quat_from_json(quat_to_json(q)) is q
    j = AlgQuat(0, 0, 1, 0)
    assert AlgQuat(Fr(0), FieldElem(0), Fr(1), 0) is j
    assert algebra._promote(J) is j and j is not J and j != J
    # CycloQuats: every constructor shares the closure's objects
    assert CycloQuat(Fr(5, 2)) is algebra._cyc_make(1, 2, 0) is I
    assert CycloQuat(Fr(1, 2), 1) is K and CycloQuat(Fr(-3, 2), 7) is K
    assert quat(0, 1, 0, 0) is I and quat(0, 0, 0, -1) is quat_neg(K)
    assert quat_from_json(quat_to_json(K)) is K
    assert quat_mul(I, J) is K and quat_neg(MINUS_ONE) is ONE


def test_quaternion_hash_rules():
    """Frozenset iteration order, and with it every pinned element, orbit and
    mesh order, depends on these hashes."""
    for q in (OMEGA, I_I, quat_neg(I_I), AlgQuat(0, 0, 1, 0)):
        assert type(q) is AlgQuat
        assert hash(q) == hash((1, hash(q.w), hash(q.x), hash(q.y), hash(q.z)))
        for c in q.coords():
            assert hash(c) == hash((c.a, c.b, c.c, c.d))
    for q in (ONE, MINUS_ONE, I, J, K, I_O, exp_i(Fr(3, 7)), CycloQuat(Fr(1, 6), 1)):
        assert hash(q) == hash((0, q.num, q.den, q.jbit))
    assert hash(ONE) == hash((0, 0, 1, 0))
    assert hash(CycloQuat(Fr(7, 5), 1)) == hash((0, 7, 5, 1))
