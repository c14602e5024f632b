from fractions import Fraction

import pytest

from pg4.algebra import CycloQuat
from pg4.catalog import (
    AXIAL_FAMILIES,
    GroupSpec,
    POLYHEDRAL_ORDERS,
    TUBICAL_FAMILIES,
    build,
    list_catalog,
    parse_spec,
    polyhedral_spec,
    spec_order,
    tubical_spec,
)
from pg4.classify import ClassificationError, _holds_generators, category, classify
from pg4.constants import ONE, QI, QK
from pg4.group import conjugate, equals, generate
from pg4.toroidal import NotToroidalError
from pg4.transform import IDENTITY, rotation


def _tubical_specs(n_max: int) -> list:
    """Every tubical spec with n <= n_max, left and right variants."""
    return [sp for info in TUBICAL_FAMILIES.values() for n in range(info.n_min, n_max + 1)
            for sp in (tubical_spec(info.name, n), tubical_spec(info.mirror_name, n))]


def test_category():
    assert category(build(tubical_spec("+-[IxC]", 5))).tag == "tubical-left"
    assert category(build(parse_spec("tub:+-[CxI]:n=5"))).tag == "tubical-right"
    assert category(build(parse_spec("tor:1:m=2,n=5,s=1"))).tag == "toroidal"
    assert category(build(polyhedral_spec("+-[IxI]"))).tag == "polyhedral-or-axial"
    assert category(build(parse_spec("axial:pyr:+T"))).tag == "polyhedral-or-axial"


def test_trivial_group():
    sp = classify(generate([IDENTITY]))
    assert sp.spec_string() == "tor:1:m=1,n=1,s=0"


def test_tubical_round_trip():
    # oracle: the closure of the spec found equals the group it was read from
    for sp in _tubical_specs(12):
        G = build(sp)
        found = classify(G)
        assert found == sp, sp.spec_string()
        assert equals(build(found), G), sp.spec_string()


def test_tubical_membership_agrees_with_equals():
    """For same-order tubical groups, "every generator of the candidate lies
    in G" gives the verdict of ``equals(build(candidate), G)``."""
    groups = {sp: build(sp) for sp in _tubical_specs(8)}
    pairs = [(cand, sp) for cand in groups for sp in groups
             if spec_order(cand) == spec_order(sp)]
    assert len(pairs) > 1500
    for cand, sp in pairs:
        G = groups[sp]
        assert _holds_generators(G, cand) == equals(groups[cand], G), (cand, sp)


def test_tubical_classify_closes_nothing(monkeypatch):
    from importlib import import_module

    catalog, group = import_module("pg4.catalog"), import_module("pg4.group")
    classify_module = import_module("pg4.classify")  # pg4.classify is the function
    groups = {sp: build(sp) for sp in _tubical_specs(4)}

    def forbidden(*args, **kwargs):
        raise AssertionError("classify closed a group")

    for module, name in ((group, "generate"), (catalog, "generate"),
                         (classify_module, "build"), (catalog, "build")):
        monkeypatch.setattr(module, name, forbidden)
    for sp, G in groups.items():
        assert classify(G) == sp, sp.spec_string()


@pytest.mark.parametrize("h", [rotation(QI, QK),
                               rotation(CycloQuat(Fraction(1, 4)), ONE),
                               rotation(ONE, CycloQuat(Fraction(1, 4)))],
                         ids=["QI,QK", "e(1/4),1", "1,e(1/4)"])
def test_tubical_non_standard_position(h):
    """A conjugate that keeps the element set is named as before; one that
    moves it is out of standard position and is refused."""
    moved = 0
    for info in TUBICAL_FAMILIES.values():
        for n in sorted({info.n_min, info.n_min + 1, 5}):
            for sp in (tubical_spec(info.name, n), tubical_spec(info.mirror_name, n)):
                G = build(sp)
                H = conjugate(G, h)
                if equals(G, H):
                    assert classify(H) == sp, sp.spec_string()
                else:
                    moved += 1
                    with pytest.raises(ClassificationError, match="tubical"):
                        classify(H)
    assert moved > 0


def test_tubical_same_order_families_distinguished():
    # ±[T×C_n] vs ±½[O×C_2n'] at equal order are told apart by the left group
    for n in (4, 8):
        sp1 = tubical_spec("+-[TxC]", n)
        sp2 = tubical_spec("+-1/2[OxC2]", n // 2)
        G1, G2 = build(sp1), build(sp2)
        assert len(G1.elements) == len(G2.elements)
        assert classify(G1) == sp1
        assert classify(G2) == sp2


def test_finite_round_trip():
    for name in POLYHEDRAL_ORDERS:
        sp = polyhedral_spec(name)
        assert classify(build(sp)) == sp, name
    for fam in AXIAL_FAMILIES:
        sp = GroupSpec("axial", fam)
        assert classify(build(sp)) == sp, fam


def test_toroidal_round_trip_sample():
    for sp in list_catalog(48):
        if sp.kind == "toroidal":
            assert classify(build(sp)) == sp, sp.spec_string()


def test_classify_conjugated_in_standard_position():
    # conjugation by a group element keeps the set, hence the spec
    sp = polyhedral_spec("+-[OxO]")
    G = build(sp)
    g = next(iter(G.elements))
    assert classify(conjugate(G, g)) == sp


def test_no_catalog_match():
    from pg4.constants import OMEGA
    # a cyclic group around a non-standard axis is not torus-standard
    G = generate([rotation(OMEGA, ONE)])
    with pytest.raises(NotToroidalError):
        classify(G)


def test_refusals_name_stage_and_data():
    h = rotation(CycloQuat(Fraction(1, 4)), ONE)
    G = conjugate(build(parse_spec("tub:+-[IxC]:n=3")), h)
    with pytest.raises(ClassificationError, match=(
            r"^classify: tubical-left group of order 360 \(L 2I, R 2C3, L0 2I, R0 2C3\) "
            r"matches no catalog family")):
        classify(G)
    G = conjugate(build(polyhedral_spec("+1/60[IxIb]")), h)
    with pytest.raises(ClassificationError,
                       match=r"^classify: polyhedral-or-axial group of order 60 matches 0 "):
        classify(G)
