import re

import pytest

from pg4.catalog import (
    AXIAL_FAMILIES,
    GroupSpec,
    POLYHEDRAL_ORDERS,
    ParseError,
    SpecError,
    TUBICAL_FAMILIES,
    TUBICAL_LEFT,
    build,
    cs_name_type1,
    list_catalog,
    parse_spec,
    polyhedral_spec,
    right_variant,
    spec_chiral,
    spec_order,
    toroidal_spec,
    tubical_spec,
)
from pg4.group import equals, fingerprint, is_chiral, left_right_groups, order


def test_build_checks_the_cap_before_closure(monkeypatch):
    from pg4 import catalog, group
    monkeypatch.setattr(group, "DEFAULT_CAP", 100)
    assert order(build(parse_spec("tor:1:m=10,n=10,s=0"))) == 100  # at the cap: built

    def no_closure(spec):
        raise AssertionError("closure started")

    monkeypatch.setattr(catalog, "build_unchecked", no_closure)
    for text, n in (("tor:1:m=10,n=11,s=0", 110), ("tub:+-[IxC]:n=1", 120)):
        with pytest.raises(group.ClosureCapExceeded, match=rf"{re.escape(text)} has order {n}"):
            build(parse_spec(text))


def test_named_constants():
    from fractions import Fraction as Fr
    from pg4.algebra import FieldElem, SQRT2, SQRT5, HALF, quat_real, quat_order
    from pg4.constants import NAMED
    w = NAMED["w"]
    assert quat_real(w) == FieldElem(Fr(-1, 2)) and quat_order(w) == 3
    assert quat_order(NAMED["iO"]) == 4
    assert quat_order(NAMED["iI"]) == 4
    iI = NAMED["iI"]
    assert iI.x == FieldElem(Fr(1, 2))
    assert iI.y == (SQRT5 - 1) * Fr(1, 4)
    assert iI.z == (SQRT5 + 1) * Fr(1, 4)
    iIp = NAMED["iI'"]
    assert iIp.x == (FieldElem(1) - SQRT5) * Fr(1, 4)
    assert iIp.z == FieldElem(Fr(1, 2))
    assert quat_order(NAMED["iIdag"]) == 4
    from pg4.constants import two_I
    assert NAMED["iI'"] in two_I()
    assert NAMED["iIdag"] not in two_I()


def test_canonical_sign_closure():
    # composing canonical elements yields canonical elements
    import random
    from pg4.constants import two_O
    from pg4.transform import Transform4, compose
    pool = list(two_O())
    random.seed(4)
    for _ in range(100):
        a = Transform4(random.random() < 0.5, random.choice(pool), random.choice(pool))
        c = compose(a, Transform4(False, random.choice(pool), random.choice(pool)))
        assert c == Transform4(c.star, c.l, c.r)


def test_tubical_orders_match_table():
    for fam in TUBICAL_LEFT:
        info = TUBICAL_FAMILIES[fam]
        for n in (info.n_min, info.n_min + 1):
            G = build(tubical_spec(fam, n))
            assert order(G) == info.order_factor * n


def test_tubical_left_right_structure():
    # the left group is polyhedral, the right group cyclic or dihedral
    from pg4.group import classify_quat_group
    for fam in TUBICAL_LEFT:
        info = TUBICAL_FAMILIES[fam]
        G = build(tubical_spec(fam, info.n_min + 1))
        L, R = left_right_groups(G)
        assert classify_quat_group(L).polyhedral
        assert not classify_quat_group(R).polyhedral


def test_right_variant():
    sp = tubical_spec("+-[IxC]", 3)
    mir = right_variant(sp)
    assert right_variant(mir) == sp
    G, Gm = build(sp), build(mir)
    assert not equals(G, Gm)  # left and right variants differ as sets
    assert order(G) == order(Gm)
    # rotation codes distinguish mirrors: (a,b) maps to (1-b,1-a)
    from fractions import Fraction as Fr
    codes = {(c.a, c.b): m for c, m in fingerprint(G).counts}
    mirrored = {((1 - b) % 1 if (a, b) != (0, 0) else 0, (1 - a) if (a, b) != (0, 0) else 0): m
                for (a, b), m in codes.items()}
    got = {(c.a, c.b): m for c, m in fingerprint(Gm).counts}
    # normalize mirrored codes the same way element_code does
    def norm(ab):
        a, b = ab
        if not (a < b or (a == b and a <= Fr(1, 2))):
            a, b = 1 - a, 1 - b
        return (a, b)
    assert {norm(k): v for k, v in mirrored.items()} == got


def test_toroidal_orders_and_chirality():
    for sp in list_catalog(40):
        if sp.kind != "toroidal":
            continue
        G = build(sp)
        assert order(G) == spec_order(sp), sp.spec_string()
        fam_chiral = sp.family[0] in "1.\\/X"
        assert is_chiral(G) == fam_chiral
        if not fam_chiral:
            rev = sum(1 for g in G.elements if g.star)
            assert 2 * rev == order(G)


def test_record_chirality_matches_built_group():
    # every finite group, and the smallest in-range member of each infinite family
    specs = ([polyhedral_spec(name) for name in POLYHEDRAL_ORDERS]
             + [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES])
    for fam in TUBICAL_LEFT:
        info = TUBICAL_FAMILIES[fam]
        specs += [tubical_spec(fam, info.n_min), tubical_spec(info.mirror_name, info.n_min)]
    smallest = {}
    for sp in list_catalog(72):
        if sp.kind == "toroidal":
            smallest.setdefault(sp.family, sp)
    assert len(smallest) == 25
    specs += smallest.values()
    assert len(specs) == 46 + 22 + 25
    for sp in specs:
        assert spec_chiral(sp) == is_chiral(build(sp)), sp.spec_string()


def test_figure_group():
    G = build(parse_spec("tor:1:m=2,n=5,s=1"))
    assert order(G) == 10


def test_swapturn_order():
    assert order(build(parse_spec("tor:L:a=4,b=3"))) == 100


def test_polyhedral_orders():
    for name, expected in POLYHEDRAL_ORDERS.items():
        assert order(build(polyhedral_spec(name))) == expected


def test_polyhedral_achiral_halves():
    for name in POLYHEDRAL_ORDERS:
        G = build(polyhedral_spec(name))
        rev = sum(1 for g in G.elements if g.star)
        if "." in name:
            assert 2 * rev == order(G)
        else:
            assert rev == 0


def test_axial_orders():
    expected = {
        "pyr:+-I": 120, "pyr:+I": 60, "pyr:+-O": 48, "pyr:+O": 24,
        "pyr:TO": 24, "pyr:+-T": 24, "pyr:+T": 12,
        "prism:+-I": 240, "prism:+I": 120, "prism:+-O": 96, "prism:+O": 48,
        "prism:TO": 48, "prism:+-T": 48, "prism:+T": 24,
        "hyb:+I<+-I": 120, "hyb:+-T<+-O": 48, "hyb:+O<+-O": 48,
        "hyb:TO<+-O": 48, "hyb:+T<+-T": 24, "hyb:+T<+O": 24, "hyb:+T<TO": 24,
    }
    assert len(AXIAL_FAMILIES) == 21
    for fam in AXIAL_FAMILIES:
        # the row's order counts from the fixed sizes of 2T, 2O, 2I without building
        assert order(build(GroupSpec("axial", fam))) == expected[fam] == AXIAL_FAMILIES[fam].order


# sha256 of "<spec>\t<fingerprint>" lines of the 46 finite groups, recorded
# from the Fraction-based field arithmetic the integer one replaced
FINITE_FINGERPRINTS_SHA256 = "532dad33ff4d1422b93248fbb4368e244fcc53def11147b202e434b764c4858f"


def test_finite_fingerprints_pinned():
    import hashlib
    specs = ([polyhedral_spec(name) for name in POLYHEDRAL_ORDERS]
             + [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES])
    assert len(specs) == 46
    text = "\n".join(f"{sp}\t{fingerprint(build(sp))}" for sp in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == FINITE_FINGERPRINTS_SHA256


# sha256 of the scripts/catalog_digest.py lines of the toroidal list_catalog(48) specs
TOROIDAL_DIGEST_SHA256 = "a816f40f788475c25f4d780703cc1a28d7377b81384eb0562e3d6249cfe2bee4"


def test_toroidal_digest_pinned():
    import hashlib
    from pg4.classify import classify
    specs = [sp for sp in list_catalog(48) if sp.kind == "toroidal"]
    assert len(specs) == 1732
    lines = []
    for sp in specs:
        G = build(sp)
        lines.append(f"{sp}\t{len(G)}\t{fingerprint(G)}\t{classify(G)}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == TOROIDAL_DIGEST_SHA256


# sha256 of repr(build_unchecked(sp).generators), one line per spec, for the
# toroidal list_catalog(48) specs and duplication_rows(12)
TOROIDAL_GENERATORS_SHA256 = "e327476a18eaabc19bdfe9e87a1cb9752cbb343f8b858506c9deed070ce9d5df"
# sha256 of repr(list(G.elements)), one line per polyhedral group
POLYHEDRAL_ELEMENTS_SHA256 = "ba79cf42b63122ad28b37c38ba0f3b63ed8d2d1a1f95e62dad5128ff53be7d71"


def test_construction_order_pinned():
    # closure runs BFS from the generators in list order, and the element
    # order drives the orbit, OFF and `pg4 orbit` bytes: both are pinned
    import hashlib
    from pg4.catalog import build_unchecked
    from pg4.toroidal import duplication_rows
    from pg4.transform import to_matrix
    specs = [sp for sp in list_catalog(48) if sp.kind == "toroidal"] + duplication_rows(12)
    text = "\n".join(repr(build_unchecked(sp).generators) for sp in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == TOROIDAL_GENERATORS_SHA256
    groups = {name: build(polyhedral_spec(name)) for name in POLYHEDRAL_ORDERS}
    text = "\n".join(repr(list(G.elements)) for G in groups.values())
    assert hashlib.sha256(text.encode()).hexdigest() == POLYHEDRAL_ELEMENTS_SHA256

    def has_hyperplane_mirror(G):
        return any(g.star and abs(to_matrix(g).trace() - 2.0) < 1e-9 for g in G.elements)

    assert has_hyperplane_mirror(groups["+1/60[IxIb].23"])
    assert has_hyperplane_mirror(groups["+-1/60[IxIb].2"])
    assert not has_hyperplane_mirror(groups["+1/60[IxIb].21"])


# sha256 of repr(list(G.elements)), one line per spec, for the toroidal
# list_catalog(48) specs: the iteration order of the closure's element set
TOROIDAL_ELEMENTS_SHA256 = "e89f94f552da020f3068c94ebaefcea08161d4c511a4026091cbcccde8f6a635"


def test_toroidal_element_order_pinned():
    import hashlib
    specs = [sp for sp in list_catalog(48) if sp.kind == "toroidal"]
    text = "\n".join(repr(list(build(sp).elements)) for sp in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == TOROIDAL_ELEMENTS_SHA256


def test_cs_name_type1():
    assert cs_name_type1(parse_spec("tor:1:m=6,n=5,s=-2")) == "+-1/5[C15(4)xC5]"
    assert cs_name_type1(parse_spec("tor:1:m=3,n=5,s=-1")) == "+1/5[C15(9)xC5]"
    assert cs_name_type1(parse_spec("tor:1:m=1,n=1,s=0")) == "+[C1xC1]"


def _cs_lattice_counts(m, n, s):
    """(diploid, k_r) from the full m*n translation lattice in Fractions."""
    from fractions import Fraction as Q
    # point (a, b) is (a/m + b(1/n + s/mn), a/m + b(s/mn - 1/n)) mod 1
    col = [Q(a, m) for a in range(m)]
    row = [(b * (Q(1, n) + Q(s, m * n)), b * (Q(s, m * n) - Q(1, n))) for b in range(n)]
    pts = {((c + rx) % 1, (c + ry) % 1) for c in col for rx, ry in row}
    diploid = (Q(1, 2), Q(1, 2)) in pts
    k_r = sum(1 for x, y in pts if (x + y) % 1 == 0)
    return diploid, k_r


def test_cs_lattice_counts_match_enumeration():
    from pg4.catalog import _cs_lattice_counts as counts
    for sp in list_catalog(150):
        if sp.kind == "toroidal" and sp.family == "1":
            mns = sp.param("m"), sp.param("n"), sp.param("s")
            assert counts(*mns) == _cs_lattice_counts(*mns), sp.spec_string()


def test_constraints():
    with pytest.raises(SpecError):
        build(toroidal_spec("X/c2mm", m=1, n=5))
    with pytest.raises(SpecError):
        build(toroidal_spec("L", a=2, b=0))
    with pytest.raises(SpecError):
        build(tubical_spec("+-[IxD2]", 1))
    # out of range, where a lattice step of the generators divides by zero
    from pg4.catalog import build_unchecked, constraints_ok
    for text in ("tor:\\/pm:m=1,n=1", "tor:\\/pg:m=2,n=1", "tor:X/p2mm:m=1,n=4",
                 "tor://pg:m=1,n=2"):
        with pytest.raises(SpecError, match=re.escape(text)):
            build_unchecked(parse_spec(text))
    unknown = GroupSpec("toroidal", "Q", (("m", 1), ("n", 1)))
    for fn in (build_unchecked, constraints_ok):
        with pytest.raises(SpecError, match="unknown toroidal family Q"):
            fn(unknown)


def test_unknown_kind_or_family_is_a_spec_error():
    from pg4.catalog import build_unchecked, constraints_ok, tubical_generators
    from pg4.toroidal import canonicalize_duplicates
    specs = [GroupSpec("tubical", "Q", (("n", 1),)),
             GroupSpec("toroidal", "Q", (("m", 1), ("n", 1))),
             GroupSpec("polyhedral", "Q"), GroupSpec("axial", "pyr:Q"), GroupSpec("axial", "Q"),
             GroupSpec("prism", "Q")]   # an unknown kind
    for sp in specs:
        fns = [spec_order, spec_chiral, constraints_ok, build, build_unchecked, str]
        fns += {"tubical": [tubical_generators, right_variant],
                "toroidal": [canonicalize_duplicates]}.get(sp.kind, [])
        for fn in fns:
            with pytest.raises(SpecError, match=re.escape(f"unknown {sp.kind} family {sp.family}")):
                fn(sp)
    for make, message in (
            (lambda: toroidal_spec("Q", m=1), "unknown toroidal family Q"),
            (lambda: tubical_spec("nope", 3), "unknown tubical family nope"),
            (lambda: polyhedral_spec("nope"), "unknown polyhedral family nope"),
            (lambda: toroidal_spec("1", m=1, n=1), "toroidal family 1 needs parameters ['s']"),
            (lambda: toroidal_spec("1", m=1, n=1, s=0, x=5), "unknown parameter 'x'"),
            (lambda: tubical_spec("+-[IxC]", "5"), "is not an int"),
            (lambda: toroidal_spec("1", m=True, n=1, s=0), "is not an int"),
            (lambda: parse_spec("tor:1:kind=3,m=1,n=1,s=0"), "unknown parameter 'kind'"),
            (lambda: tubical_generators(polyhedral_spec("+-[IxI]")),
             "tubical_generators expects a tubical spec")):
        with pytest.raises(SpecError, match=re.escape(message)):
            make()


def test_parse_spec_grammar():
    for text in ("tub:+-[IxC]:n=5", "tor:1:m=2,n=5,s=1", "tor:L:a=4,b=3",
                 "tor:X/c2mm:m=5,n=5", "tor:*/p4mmU:n=3", "poly:+-[IxI]",
                 "poly:[3,3,5]+", "axial:prism:+I", "axial:hyb:+T:in=TO"):
        sp = parse_spec(text)
        assert isinstance(sp, GroupSpec)
    assert parse_spec("poly:[3,3,5]+") == polyhedral_spec("+-[IxI]")
    assert parse_spec("tor:1: m = 2 ,n=+5,s=-1") == parse_spec("tor:1:m=2,n=5,s=-1")
    for bad in ("tub:nope:n=1", "tor:Q:m=1", "poly:whatever", "axial:x:y", "garbage",
                "axial:hyb:+T<TO",
                "tub:+-[IxC]:n=3,n=1", "tub:+-[IxC]:", "tub:+-[IxC]:m=3",
                "tor:1:m=1,n=1,s=0,x=3", "tor:1:m=1,n=1", "tor:1:m=\u0663,n=1,s=0",
                "tor:1:m=1_0,n=1,s=0", "tor:1:m=1,n=1,s"):
        with pytest.raises(ParseError):
            parse_spec(bad)


def test_list_catalog_counts():
    specs = list_catalog(32)
    assert len(specs) == len(set(specs))
    from pg4.counting import count_order
    for N in range(1, 33):
        want = count_order(N).total
        got = sum(1 for sp in specs if spec_order(sp) == N)
        assert got == want, N


# sha256 of the spec strings of list_catalog(300), one a line: all four kinds
# and their order
CATALOG_300_SHA256 = "c924531acb1085b81d242a242365ec3ca9bd45ecba884ed5ad46fb901839ee05"


def test_list_catalog_pinned():
    import hashlib
    specs = list_catalog(300)
    assert len(specs) == 52140
    text = "\n".join(map(str, specs))
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_300_SHA256


def test_catalog_no_duplicate_groups_small():
    # no two listed specs produce equal element sets at orders <= 24
    specs = [sp for sp in list_catalog(24)]
    built = [(sp, build(sp)) for sp in specs]
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            if order(built[i][1]) == order(built[j][1]):
                assert not equals(built[i][1], built[j][1]), (
                    built[i][0].spec_string(), built[j][0].spec_string())
