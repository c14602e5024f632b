import random
from collections import Counter
from fractions import Fraction as Fr

import pytest

from pg4.constants import (
    MINUS_ONE,
    OMEGA,
    I_I,
    ONE,
    QI,
    QJ,
    QK,
    e_n,
    quaternion_Q8,
    two_C,
    two_D,
    two_I,
    two_O,
    two_T,
)
from pg4.group import (
    GoursatData,
    QuatGroupType,
    classify_quat_group,
    conjugate,
    contains,
    equals,
    extend_achiral,
    fingerprint,
    generate,
    goursat_group,
    identity_pairing,
    is_chiral,
    left_right_groups,
    order,
)
from pg4.transform import IDENTITY, Transform4, element_code, reflection, rotation
from pg4.catalog import (
    AXIAL_FAMILIES,
    POLYHEDRAL_ORDERS,
    GroupSpec,
    build,
    build_unchecked,
    list_catalog,
    parse_spec,
    polyhedral_spec,
    tubical_spec,
)
from pg4.toroidal import duplication_rows


def test_quaternion_group_orders():
    assert len(two_I()) == 120
    assert len(two_O()) == 48
    assert len(two_T()) == 24
    for n in range(1, 13):
        assert len(two_C(n)) == 2 * n
        assert len(two_D(n)) == 4 * n


def test_closure_examples():
    assert order(generate([rotation(ONE, e_n(5))])) == 10
    G = build(tubical_spec("+-[IxC]", 1))
    assert order(G) == 120
    G = generate([rotation(QI, ONE), rotation(OMEGA, ONE), rotation(ONE, e_n(2))])
    assert order(G) == 48  # ±[T×C_2]


def test_order_contains_chiral():
    G = generate([rotation(ONE, MINUS_ONE)])
    assert order(G) == 2
    G = build(tubical_spec("+-[IxC]", 1))
    assert is_chiral(G)
    assert contains(G, rotation(OMEGA, ONE))


def test_left_right_groups():
    G = build(tubical_spec("+-[IxC]", 3))
    L, R = left_right_groups(G)
    assert classify_quat_group(L) == QuatGroupType("I")
    assert classify_quat_group(R) == QuatGroupType("C", 3)
    G = generate([rotation(ONE, MINUS_ONE)])
    L, R = left_right_groups(G)
    assert L == frozenset({ONE, MINUS_ONE}) and R == frozenset({ONE, MINUS_ONE})
    G = build(tubical_spec("+-1/2[OxC2]", 2))
    L, _ = left_right_groups(G)
    assert classify_quat_group(L) == QuatGroupType("O")


def test_fingerprint_examples():
    assert str(fingerprint(generate([IDENTITY]))) == "0|0:2"
    assert str(fingerprint(generate([rotation(ONE, MINUS_ONE)]))) == "0|0:2 0|1:2"
    G = build(parse_spec("tor:|/pg:m=2,n=4"))
    assert str(fingerprint(G)) == "0|0:2 0|1:2 1|1/4:4 1|3/4:4 1|1/2:4 *1/2:16"
    total = sum(m for _, m in fingerprint(G).counts)
    assert total == 2 * order(G)


def test_conjugate():
    G = build(parse_spec("tor:1:m=2,n=5,s=1"))
    assert equals(conjugate(G, IDENTITY), G)
    h = rotation(QI, QJ)
    Gc = conjugate(G, h)
    assert order(Gc) == order(G)
    assert fingerprint(Gc).counts == fingerprint(G).counts


def test_conjugation_componentwise():
    from pg4.transform import conjugate_elem
    from pg4.algebra import quat_mul, quat_conj
    a, b = I_I, OMEGA
    g = rotation(random.choice(list(two_T())), random.choice(list(two_T())))
    h = rotation(a, b)
    expect = rotation(quat_mul(quat_mul(quat_conj(a), g.l), a),
                      quat_mul(quat_mul(quat_conj(b), g.r), b))
    got = conjugate_elem(g, h)
    assert got in (expect, Transform4(False, expect.l, expect.r))


def test_extend_achiral():
    star = reflection(ONE, ONE)
    G = generate([IDENTITY])
    assert order(extend_achiral(G, star)) == 2
    GII = build(polyhedral_spec("+-[IxI]"))
    ext = extend_achiral(GII, star)
    assert order(ext) == 14400
    # closure: random products stay inside
    from pg4.transform import compose
    els = sorted(ext.elements, key=lambda g: g._hash)
    for _ in range(300):
        a, b = random.choice(els), random.choice(els)
        assert compose(a, b) in ext.elements
    with pytest.raises(ValueError):
        extend_achiral(build(tubical_spec("+-[IxC]", 3)), star)


def test_goursat_full_product():
    data = GoursatData(two_I(), two_C(3), two_I(), two_C(3), [(ONE, ONE)])
    G = goursat_group(data)
    assert order(G) == 360
    assert equals(G, build(tubical_spec("+-[IxC]", 3)))


def test_goursat_diagonal():
    L = two_I()
    L0 = frozenset({ONE, MINUS_ONE})
    data = GoursatData(L, L, L0, L0, identity_pairing(L, L0))
    G = goursat_group(data)
    assert order(G) == 120  # the hybrid axial group ±1/60[I×I]
    assert equals(G, build(parse_spec("axial:hyb:+I:in=+-I")))


def test_goursat_TT():
    T = two_T()
    data = GoursatData(T, T, T, T, [(ONE, ONE)])
    assert order(goursat_group(data)) == 288


def test_goursat_validation():
    with pytest.raises(ValueError):
        # pairing that is not a homomorphism: match T-cosets with wrong reps
        Q8 = quaternion_Q8()
        T = two_T()
        bad = [(ONE, ONE), (OMEGA, ONE), (OMEGA, OMEGA)]
        goursat_group(GoursatData(T, T, Q8, Q8, bad))


def test_fingerprint_conjugation_invariance():
    G = build(tubical_spec("+-[TxC]", 2))
    pool = list(two_T())
    for _ in range(20):
        h = rotation(random.choice(pool), random.choice(pool))
        assert fingerprint(conjugate(G, h)).counts == fingerprint(G).counts


def _element_code_census(G):
    """The fingerprint counts from ``element_code`` of every element."""
    counts = Counter(element_code(g) for g in G.elements)
    return tuple(sorted(((code, 2 * m) for code, m in counts.items()),
                        key=lambda cm: cm[0].sort_key()))


def test_fingerprint_matches_element_codes():
    finite = ([polyhedral_spec(name) for name in POLYHEDRAL_ORDERS]
              + [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES])
    assert len(finite) == 46
    specs = [sp for sp in list_catalog(200) if sp.kind in ("toroidal", "tubical")]
    groups = [build(sp) for sp in finite + random.Random(1401).sample(specs, 150)]
    groups += [generate(build_unchecked(sp).generators) for sp in duplication_rows(12)]
    h = rotation(QI, QK)
    for G in groups + [conjugate(G, h) for G in groups]:
        assert fingerprint(G).counts == _element_code_census(G)


def test_fingerprint_reads_each_quaternion_angle_once(monkeypatch):
    import pg4.group
    import pg4.transform
    from pg4.algebra import unsigned_angle
    calls = Counter()

    def counted(q):
        calls[q] += 1
        return unsigned_angle(q)

    G = build(parse_spec("poly:+-[IxI].2"))
    quats = {q for g in G.elements if not g.star for q in (g.l, g.r)}
    monkeypatch.setattr(pg4.group, "unsigned_angle", counted, raising=False)
    monkeypatch.setattr(pg4.transform, "unsigned_angle", counted)
    fingerprint(G)
    assert set(calls) <= quats and max(calls.values()) == 1
