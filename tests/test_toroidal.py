import random
import re
import sys
from fractions import Fraction as Fr
from math import cos, lcm, pi, sin

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg4.algebra import CycloQuat
from pg4.catalog import (
    TOROIDAL_FAMILIES,
    SpecError,
    build,
    build_unchecked,
    constraints_ok,
    list_catalog,
    parse_spec,
    spec_order,
    toroidal_spec,
)
from pg4.group import conjugate, equals, order
from pg4.toroidal import (
    _DUPLICATION_RULES,
    _PARAM_CLASSES,
    _searched_duplicate,
    NotToroidalError,
    TAG_ACTION,
    canonicalize_duplicates,
    classify_toroidal,
    conjugate_seq,
    duplication_conjugator,
    duplication_rows,
    normalize_lattice,
    to_torus_rep,
    torus_element,
)
from pg4.transform import Transform4, apply


def torus_pt(u, v):
    r = 2 ** -0.5
    return np.array([r * cos(u), r * sin(u), r * cos(v), r * sin(v)])


def test_tag_table():
    cases = {
        (False, 0, 0): "1", (False, 1, 1): ".", (False, 0, 1): "/",
        (False, 1, 0): "\\", (True, 0, 0): "|", (True, 1, 1): "-",
        (True, 1, 0): "L", (True, 0, 1): "R",
    }
    for (star, jl, jr), tag in cases.items():
        g = Transform4(star, CycloQuat(Fr(1, 5), jl), CycloQuat(Fr(1, 7), jr))
        assert torus_element(g).tag == tag


def test_named_directional_elements():
    from pg4.constants import QI, QJ, QK, MINUS_K, ONE, MINUS_ONE
    from pg4.transform import reflection, rotation
    te = torus_element(rotation(ONE, MINUS_ONE))  # -id = translation by (pi, pi)
    assert te.tag == "1" and (te.t1, te.t2) == (Fr(1, 2), Fr(1, 2))
    te = torus_element(rotation(QJ, QJ))  # torus flip
    assert te.tag == "." and (te.t1, te.t2) == (0, 0)
    te = torus_element(rotation(QI, QK))  # torus swap
    assert te.tag == "/" and (te.t1, te.t2) == (0, 0)
    te = torus_element(rotation(MINUS_K, QI))
    assert te.tag == "\\" and (te.t1, te.t2) == (0, 0)
    te = torus_element(reflection(QI, QI))
    assert te.tag == "|" and (te.t1, te.t2) == (0, 0)
    te = torus_element(reflection(QK, QK))
    assert te.tag == "-" and (te.t1, te.t2) == (0, 0)


def test_action_formulas_numeric():
    random.seed(3)
    for star in (False, True):
        for jl in (0, 1):
            for jr in (0, 1):
                for _ in range(10):
                    g = Transform4(star,
                                   CycloQuat(Fr(random.randint(0, 39), 20), jl),
                                   CycloQuat(Fr(random.randint(0, 39), 20), jr))
                    te = torus_element(g)
                    act = TAG_ACTION[te.tag]
                    for _ in range(4):
                        u, v = random.uniform(0, 2 * pi), random.uniform(0, 2 * pi)
                        au, av = act(u / (2 * pi), v / (2 * pi))
                        got = apply(g, torus_pt(u, v))
                        want = torus_pt((au + float(te.t1)) * 2 * pi,
                                        (av + float(te.t2)) * 2 * pi)
                        assert np.allclose(got, want, atol=1e-9)


def test_non_toroidal_rejected():
    from pg4.constants import OMEGA, ONE
    from pg4.transform import rotation
    with pytest.raises(NotToroidalError):
        torus_element(rotation(OMEGA, ONE))


def test_normalize_lattice_figure():
    G = build(parse_spec("tor:1:m=2,n=5,s=1"))
    lat = normalize_lattice(to_torus_rep(G))
    assert (lat.m, lat.n, lat.s) == (2, 5, 1)


def test_normalize_lattice_trivial():
    G = build(parse_spec("tor:1:m=1,n=1,s=0"))
    lat = normalize_lattice(to_torus_rep(G))
    assert (lat.m, lat.n, lat.s) == (1, 1, 0)


def test_s_flip_identification():
    # s and -m-s describe swap-conjugate lattices; both normalize into range
    G1 = build_unchecked(toroidal_spec("1", m=2, n=6, s=1))
    G2 = build_unchecked(toroidal_spec("1", m=2, n=6, s=-3))  # -m-s for s=1
    lat1 = normalize_lattice(to_torus_rep(G1))
    lat2 = normalize_lattice(to_torus_rep(G2))
    assert (lat1.m, lat1.n) == (lat2.m, lat2.n) == (2, 6)
    assert lat1.s == 1 and lat2.s == 1
    from pg4.constants import QI, QK
    from pg4.transform import rotation
    assert equals(conjugate(G2, rotation(QI, QK)), G1)


def test_round_trip_small():
    for sp in list_catalog(64):
        if sp.kind != "toroidal":
            continue
        assert classify_toroidal(build(sp)) == sp, sp.spec_string()


def test_classify_handles_minus_reading():
    # a reflection group presented with '-' tags classifies through the swap
    from pg4.constants import QI, QK
    from pg4.transform import rotation
    sp = parse_spec("tor:|/pm:m=2,n=3")
    G = conjugate(build(sp), rotation(QI, QK))
    got = classify_toroidal(G)
    assert got.family == "|/pm" and dict(got.params) == {"m": 2, "n": 3}


def test_duplication_example_per_parity():
    # X/c2mm_{1,n} ≐ .^{((n-1)/2)}_{1,2n} via [1-j,1] (n=3 mod 4) / [1+j,1]
    from pg4.algebra import HALF, SQRT2, quat
    from pg4.transform import rotation
    h2 = HALF * SQRT2
    h_minus = rotation(quat(h2, 0, -h2, 0), quat(1, 0, 0, 0))
    h_plus = rotation(quat(h2, 0, h2, 0), quat(1, 0, 0, 0))
    for n, h in ((3, h_minus), (5, h_plus), (7, h_minus), (9, h_plus)):
        G1 = build_unchecked(toroidal_spec("X/c2mm", m=1, n=n))
        target = toroidal_spec(".", m=1, n=2 * n, s=(n - 1) // 2)
        assert canonicalize_duplicates(toroidal_spec("X/c2mm", m=1, n=n)) == target
        assert equals(conjugate(build(target), h), G1)


def test_duplication_rows_small():
    for sp in duplication_rows(6):
        target = canonicalize_duplicates(sp)
        hs = duplication_conjugator(sp, target)
        assert hs is not None, sp.spec_string()
        assert equals(conjugate_seq(build_unchecked(target), hs),
                      build_unchecked(sp)), sp.spec_string()


def test_duplication_conjugator_lets_real_errors_through(monkeypatch):
    # only a failed representation or a non-toroidal conjugate means "no match"
    import pg4.toroidal

    def broken(G, h):
        raise TypeError("bug")

    sp = toroidal_spec("X/c2mm", m=1, n=3)
    target = canonicalize_duplicates(sp)
    monkeypatch.setattr(pg4.toroidal, "conjugate", broken)
    with pytest.raises(TypeError):
        duplication_conjugator.__wrapped__(sp, target)


def test_canonical_spec_unchanged():
    for text in ("tor:1:m=2,n=5,s=1", "tor:X/c2mm:m=5,n=5", "tor:L:a=4,b=3"):
        sp = parse_spec(text)
        assert canonicalize_duplicates(sp) == sp


# ---------------------------------------------------------------------------
# the duplication rules against a search over the catalog

def test_rules_match_search_small():
    for sp in duplication_rows(20):
        assert canonicalize_duplicates(sp) == _searched_duplicate(sp), sp.spec_string()


def _rule_class_rows(lo, hi, rng):
    """One row per rule with a parameter class: each class parameter drawn
    from its residues in (lo, hi], the fixed parameters kept."""
    def draw(w):
        if not isinstance(w, str):
            return w
        q, r = _PARAM_CLASSES[w]
        return rng.choice([k for k in range(lo + 1, hi + 1) if k % q == r])

    rows = []
    for fam, rules in _DUPLICATION_RULES.items():
        names = TOROIDAL_FAMILIES[fam].param_names
        for where, _, _ in rules:
            if any(isinstance(w, str) for w in where):
                rows.append(toroidal_spec(fam, **dict(zip(names, map(draw, where)))))
    return rows


def test_rules_match_search_seeded_large():
    for sp in _rule_class_rows(20, 48, random.Random(20261018)):
        assert not constraints_ok(sp) and max(v for _, v in sp.params) > 20, sp.spec_string()
        assert canonicalize_duplicates(sp) == _searched_duplicate(sp), sp.spec_string()
    sp = toroidal_spec("X/c2mm", m=36, n=2)
    assert canonicalize_duplicates(sp) == toroidal_spec("X/p2gm", m=36, n=4)


def _forbid_everywhere(monkeypatch, fn):
    """Make every pg4 module's binding of fn raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} called")
    for name, mod in list(sys.modules.items()):
        if name == "pg4" or name.startswith("pg4."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, forbidden)


def test_canonicalize_builds_nothing(monkeypatch):
    import pg4.catalog
    import pg4.group
    rows = duplication_rows(50)
    for fn in (pg4.catalog.build_unchecked, pg4.group.generate, pg4.group.fingerprint):
        _forbid_everywhere(monkeypatch, fn)
    for sp in rows:
        target = canonicalize_duplicates(sp)
        assert constraints_ok(target) and spec_order(target) == spec_order(sp), sp.spec_string()


def test_classify_reads_only_the_group(monkeypatch):
    """Right tubical groups and ``|/`` groups presented with ``-`` tags are
    classified without conjugating the group or rebuilding it from elements."""
    import pg4.group
    from pg4.catalog import TUBICAL_FAMILIES, tubical_spec
    from pg4.classify import classify
    from pg4.constants import QI, QK
    from pg4.transform import rotation
    cases = [(sp, build(sp)) for fam in TUBICAL_FAMILIES.values()
             for sp in (tubical_spec(fam.mirror_name, n) for n in range(fam.n_min, 9))]
    swapped = [sp for sp in list_catalog(60) if sp.family.startswith("|/")]
    cases += [(sp, conjugate(build(sp), rotation(QI, QK))) for sp in swapped]
    assert swapped and all({r.tag for r in to_torus_rep(G)} == {"1", "-"}
                           for sp, G in cases[-len(swapped):])
    for fn in (pg4.group.conjugate, pg4.group.from_elements):
        _forbid_everywhere(monkeypatch, fn)
    for sp, G in cases:
        assert classify(G) == sp, sp.spec_string()


@pytest.mark.parametrize("text", [
    "tor://cm:m=2,n=1", "tor:X/c2mm:m=1,n=2", "tor:X/p2mm:m=3,n=2",
    "tor:\\/pg:m=3,n=2", "tor:L:a=0,b=0", "tor:.:m=0,n=3,s=0", "tor:*/p4mmS:n=0",
])
def test_uncovered_spec_is_refused(text):
    sp = parse_spec(text)
    assert not constraints_ok(sp)
    with pytest.raises(SpecError, match=re.escape(sp.spec_string())):
        canonicalize_duplicates(sp)


def test_translation_closure_under_directional_parts():
    # Lemma: the translational subgroup is closed under the directional group
    for text in ("tor:+/p2mg:m=2,n=3", "tor:X/p2gg:m=4,n=6", "tor:*/p4gmS:n=2"):
        G = build(parse_spec(text))
        reps = to_torus_rep(G)
        trans = {(r.t1, r.t2) for r in reps if r.tag == "1"}
        for r in reps:
            act = TAG_ACTION[r.tag]
            for t in trans:
                u, v = act(t[0], t[1])
                assert (u % 1, v % 1) in trans


# ---------------------------------------------------------------------------
# the int torus representation against the Fraction formulas

def _reference_torus_element(g):
    """Tag and translation in Fractions from the angle formulas: the oracle of the int path."""
    from pg4.toroidal import TAG_OF_BITS
    a, b = g.l.t / 2, g.r.t / 2
    h = Fr(1, 2)
    tag = TAG_OF_BITS[(g.star, g.l.jbit, g.r.jbit)]
    t = {
        "1": (b - a, -a - b), ".": (a - b, a + b), "/": (h - a - b, b - a),
        "\\": (a + b, a - b + h), "|": (b - a, h - a - b), "-": (a - b, a + b - h),
        "L": (a + b - h, a - b + h), "R": (-a - b, b - a),
    }[tag]
    return tag, t[0] % 1, t[1] % 1


cyclo_quats = st.builds(
    lambda den, num, jbit: CycloQuat(Fr(num % (2 * den), den), jbit),
    st.integers(1, 60), st.integers(0, 119), st.integers(0, 1))


@settings(max_examples=400, deadline=None)
@given(st.booleans(), cyclo_quats, cyclo_quats, st.integers(1, 4))
def test_torus_element_matches_fraction_reference(star, l, r, k):
    g = Transform4(star, l, r)
    want = _reference_torus_element(g)
    te = torus_element(g)
    assert (te.tag, te.t1, te.t2) == want
    assert te.den == 2 * lcm(l.den, r.den) and 0 <= te.u1 < te.den and 0 <= te.u2 < te.den
    wide = torus_element(g, k * te.den)  # any multiple of the modulus reads the same
    assert wide.den == k * te.den and wide == te and (wide.t1, wide.t2) == want[1:]


def test_torus_element_rejects_short_modulus():
    g = Transform4(False, CycloQuat(Fr(1, 5)), CycloQuat(Fr(1, 3)))
    with pytest.raises(ValueError):
        torus_element(g, 10)


def test_torus_rep_shares_one_modulus():
    for text in ("tor:1:m=10,n=20,s=3", "tor:X/p2gg:m=4,n=6", "tor:L:a=4,b=3",
                 "tor:*/p4gmS:n=3", "tor:|/cm:m=3,n=5"):
        G = build(parse_spec(text))
        reps = to_torus_rep(G)
        dens = {g.l.den for g in G.elements} | {g.r.den for g in G.elements}
        assert {r.den for r in reps} == {2 * lcm(*dens)}, text
        assert sorted((r.tag, r.t1, r.t2) for r in reps) == sorted(
            _reference_torus_element(g) for g in G.elements), text


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_normalize_lattice_recovers_spec(data):
    m = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(1, 12))
    s = data.draw(st.integers(-(m // 2), (n - m) // 2))
    G = build(toroidal_spec("1", m=m, n=n, s=s))
    lat = normalize_lattice(to_torus_rep(G))
    assert (lat.m, lat.n, lat.s) == (m, n, s)
    # elements each over their own modulus are put over a common one
    lat = normalize_lattice([torus_element(g) for g in G.elements])
    assert (lat.m, lat.n, lat.s) == (m, n, s)


def test_delta_candidates_sorted_solutions():
    from pg4.toroidal import TorusElement, _delta_candidates
    den = 12
    src = TorusElement(".", 5, 2, den)
    targets = [TorusElement(".", u1, u2, den)
               for u1, u2 in ((1, 7), (9, 0), (3, 2), (5, 11), (3, 4), (4, 1))]
    for tag in (".", "L", "R", "|", "-", "/", "\\"):
        got = _delta_candidates(tag, TorusElement(tag, src.u1, src.u2, den),
                                [TorusElement(tag, t.u1, t.u2, den) for t in targets])
        assert got and isinstance(got, list) and got == sorted(set(got)), tag
        # each delta (over 2 den) solves (A - I) delta = t_src - t_tgt for some target
        for d1, d2 in got:
            u, v = TAG_ACTION[tag](Fr(d1, 2 * den), Fr(d2, 2 * den))
            lhs = ((u - Fr(d1, 2 * den)) % 1, (v - Fr(d2, 2 * den)) % 1)
            assert any(lhs == ((src.t1 - t.t1) % 1, (src.t2 - t.t2) % 1)
                       for t in targets), (tag, d1, d2)
