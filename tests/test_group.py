import random
from collections import Counter
from fractions import Fraction as Fr

import pytest

from pg4.constants import (
    MINUS_ONE,
    OMEGA,
    I_I,
    I_O,
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
    with pytest.raises(ValueError, match="extending element must be orientation-reversing"):
        extend_achiral(GII, rotation(ONE, ONE))
    with pytest.raises(ValueError, match="square of extending element is not in the group"):
        extend_achiral(GII, reflection(ONE, I_O))
    for base in (build(tubical_spec("+-[IxC]", 3)), build(polyhedral_spec("+-[TxO]"))):
        with pytest.raises(ValueError, match="extending element does not normalize the group"):
            extend_achiral(base, star)


def test_extend_achiral_matches_the_composed_coset():
    """Each achiral catalog row against e⁻¹ g e and g·e made by ``compose``,
    in order."""
    import pg4.group
    from pg4.catalog import POLYHEDRAL_FAMILIES
    from pg4.transform import compose, conjugate_elem
    rows = [f for f in POLYHEDRAL_FAMILIES.values() if not f.chiral]
    assert len(rows) == 11
    for fam in rows:
        base = build(polyhedral_spec(fam.base))
        conjugates = list(pg4.group._conjugates(base.elements, fam.ext))
        assert conjugates == [conjugate_elem(g, fam.ext) for g in base.elements], fam.name
        got = extend_achiral(base, fam.ext)
        want = base.elements | {compose(g, fam.ext) for g in base}
        # a bool, since pytest would diff two 14,400-item reprs for minutes
        same_order = repr(list(got.elements)) == repr(list(want))
        assert got.elements == want and same_order, fam.name


@pytest.mark.parametrize("name, e, spec", [
    ("+-[TxT].2", reflection(I_O, I_O), "poly:+-1/2[OxO].2"),
    ("+-1/2[OxO].2", reflection(ONE, I_O), "poly:+-[OxO].2"),
])
def test_extend_achiral_of_a_base_with_reversing_elements(name, e, spec):
    """The *[l, r] branches: conjugates and coset of an achiral base."""
    import pg4.group
    from pg4.classify import classify
    from pg4.transform import compose, conjugate_elem
    base = build(polyhedral_spec(name))
    conjugates = list(pg4.group._conjugates(base.elements, e))
    assert conjugates == [conjugate_elem(g, e) for g in base.elements]
    assert sum(h.star for h in conjugates) == len(base) // 2
    G = extend_achiral(base, e)
    assert order(G) == 2 * len(base)
    want = base.elements | {compose(g, e) for g in base}
    same_order = repr(list(G.elements)) == repr(list(want))
    assert G.elements == want and same_order
    assert classify(G).spec_string() == spec


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


def test_goursat_group_is_the_catalog_construction():
    """The 12 Goursat rows of the catalog, element for element in order."""
    S = {"T": two_T(), "O": two_O(), "I": two_I()}
    rows = [(f"+-[{a}x{b}]", GoursatData(S[a], S[b], S[a], S[b])) for a in S for b in S]
    rows += [(name, GoursatData(L, L, N, N, identity_pairing(L, N))) for name, L, N in (
        ("+-1/3[TxT]", S["T"], quaternion_Q8()), ("+-1/2[OxO]", S["O"], S["T"]),
        ("+-1/6[OxO]", S["O"], quaternion_Q8()))]
    for name, data in rows:
        G = goursat_group(data)
        assert list(G.elements) == list(build(polyhedral_spec(name)).elements), name


def test_goursat_validation():
    Q8, T, C2, pm1 = quaternion_Q8(), two_T(), two_C(2), frozenset({ONE, MINUS_ONE})
    for data in (
        # pairing that is not a homomorphism: match T-cosets with wrong reps
        GoursatData(T, T, Q8, Q8, [(ONE, ONE), (OMEGA, ONE), (OMEGA, OMEGA)]),
        # one coset of L/L0 listed three times
        GoursatData(T, T, Q8, Q8, [(ONE, ONE), (ONE, ONE), (MINUS_ONE, MINUS_ONE)]),
        # a right representative outside R
        GoursatData(C2, C2, pm1, pm1, [(ONE, ONE), (QI, QJ)]),
    ):
        with pytest.raises(ValueError):
            goursat_group(data)


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
