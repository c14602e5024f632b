from collections import Counter
from fractions import Fraction as Fr
from math import gcd, lcm

import numpy as np
import pytest

from pg4.catalog import build, parse_spec, polyhedral_spec, tubical_spec
from pg4.group import order
from pg4.hopf import GreatCircle
from pg4.orbits import (
    GENERIC_START,
    center_of,
    circle_polygon_exact,
    color_orbits,
    export_mesh,
    face_planarity,
    face_regularity,
    induced_group,
    lift_to_hyperplane,
    orbit,
    orbit_circle_polygon,
    parse_off,
    polar_cell,
    screw_angles,
)


def test_orbit_24_cell():
    G = build(tubical_spec("+-[TxC]", 1))
    orb = orbit(G, [1, 0, 0, 0])
    assert len(orb) == 24


def test_generic_orbit_free():
    G = build(tubical_spec("+-[OxC]", 2))
    orb = orbit(G, GENERIC_START)
    assert len(orb) == order(G) == 96


def test_orbit_trivial():
    from pg4.group import generate
    from pg4.transform import IDENTITY
    orb = orbit(generate([IDENTITY]), [0.3, 0.1, 0.2, 0.9])
    assert len(orb) == 1


def test_orbit_size_divides_order():
    for text, kind in (("tub:+-[IxC]:n=2", "5-fold"), ("tub:+-[OxC]:n=3", "4-fold")):
        sp = parse_spec(text)
        G = build(sp)
        p = center_of(sp, kind)
        v = GreatCircle.make(p, [1, 0, 0]).sample(0.02)
        orb = orbit(G, v)
        assert order(G) % len(orb) == 0


def test_cyclic_type_orbit_circle_independence():
    # orbits of two points of one fiber are congruent via a right rotation
    sp = parse_spec("tub:+-[TxC]:n=3")
    G = build(sp)
    q0 = np.array([1.0, 0, 0])
    K = GreatCircle.make([0.3, 0.5, np.sqrt(1 - 0.34)], q0)
    o1 = orbit(G, K.sample(0.0)).array()
    o2 = orbit(G, K.sample(0.8)).array()
    from pg4.hopf import _exp_pure, _qmul
    r = _exp_pure(q0, 0.8)
    moved = np.array([_qmul(x, r) for x in o1])
    for x in moved:
        assert np.min(np.linalg.norm(o2 - x, axis=1)) < 1e-9


def test_induced_groups():
    expected = {"+-[IxC]": "+I", "+-[OxC]": "+O", "+-1/2[OxC2]": "+O",
                "+-[TxC]": "+T", "+-1/3[TxC3]": "+T", "+-[IxD2]": "+-I",
                "+-[OxD2]": "+-O", "+-1/2[OxDb4]": "+-O", "+-1/2[OxD2]": "TO",
                "+-1/6[OxD6]": "TO", "+-[TxD2]": "+-T"}
    from pg4.catalog import TUBICAL_FAMILIES
    for fam, want in expected.items():
        n = max(2, TUBICAL_FAMILIES[fam].n_min)
        G = build(tubical_spec(fam, n))
        ind = induced_group(G)
        assert ind.name == want
        assert ind.order == order(G) // (2 * n)


def test_polygon_counts():
    for n in (1, 2, 3, 5, 7, 12):
        sp = tubical_spec("+-[IxC]", n)
        assert orbit_circle_polygon(build(sp), sp, "5-fold") == lcm(2 * n, 10)
    for n in (1, 2, 3, 4, 6):
        sp = tubical_spec("+-1/2[OxC2]", n)
        assert orbit_circle_polygon(build(sp), sp, "4-fold") == 8 * n // gcd(n - 2, 4)
    for n in (1, 2, 3, 4, 5):
        sp = tubical_spec("+-1/3[TxC3]", n)
        G = build(sp)
        assert orbit_circle_polygon(G, sp, "3-fold-I") == 6 * n // gcd(n - 1, 3)
        assert orbit_circle_polygon(G, sp, "3-fold-II") == 6 * n // gcd(n - 2, 3)


def test_polygon_counts_match_exact_angle_data():
    for text, kind in (("tub:+-[IxC]:n=4", "3-fold"), ("tub:+-[OxC]:n=5", "2-fold"),
                       ("tub:+-[TxC]:n=6", "3-fold")):
        sp = parse_spec(text)
        G = build(sp)
        direct = orbit_circle_polygon(G, sp, kind)
        assert direct == circle_polygon_exact(G, center_of(sp, kind))


def test_screw_angles():
    sp = tubical_spec("+-[IxC]", 12)
    angs = screw_angles(build(sp), sp, "5-fold")
    assert [a.t for a in angs] == [2 * (Fr(2, 5) + Fr(1, 120))]
    sp = tubical_spec("+-1/2[OxC2]", 3)
    angs = screw_angles(build(sp), sp, "4-fold")
    assert [a.t for a in angs] == [2 * (Fr(3, 4) + Fr(1, 24))]
    # multiples of 5 allow all five screws
    sp = tubical_spec("+-[IxC]", 25)
    angs = screw_angles(build(sp), sp, "5-fold")
    assert [a.t for a in angs] == [2 * (Fr(k, 5) + Fr(1, 50)) for k in range(5)]


def test_polar_cells_platonic():
    for fam, vfe, face_sizes in (("+-[TxC]", (6, 8, 12), {3: 8}),
                                 ("+-[OxC]", (24, 14, 36), {3: 8, 8: 6}),
                                 ("+-[IxC]", (20, 12, 30), {5: 12})):
        G = build(tubical_spec(fam, 1))
        orb = orbit(G, [1, 0, 0, 0])
        at = next(p for p in orb.points if abs(p[0] - 1) < 1e-9)
        cell = polar_cell(orb, at)
        V, F, E = cell.counts()
        assert (V, F, E) == vfe
        assert dict(Counter(len(f) for f in cell.faces)) == face_sizes
        for f in cell.faces:
            assert face_planarity(cell, f) < 1e-6


def test_dodecahedron_regular():
    G = build(tubical_spec("+-[IxC]", 1))
    orb = orbit(G, [1, 0, 0, 0])
    at = next(p for p in orb.points if abs(p[0] - 1) < 1e-9)
    cell = polar_cell(orb, at)
    for f in cell.faces:
        assert len(f) == 5 and face_regularity(cell, f) < 1e-6


def test_degenerate_orbit_rejected():
    from pg4.group import generate
    from pg4.transform import IDENTITY
    from pg4.orbits import DegenerateOrbitError
    orb = orbit(generate([IDENTITY]), [1, 0, 0, 0])
    with pytest.raises(DegenerateOrbitError):
        polar_cell(orb, [1, 0, 0, 0])


def test_colorings():
    # 6 x 48 on the 48-cell
    GOC1 = build(tubical_spec("+-[OxC]", 1))
    orb48 = orbit(GOC1, [1, 0, 0, 0])
    at = next(p for p in orb48.points if abs(p[0] - 1) < 1e-9)
    cell = polar_cell(orb48, at)
    v4 = lift_to_hyperplane(at, cell.vertices)
    v0 = v4[0] / np.linalg.norm(v4[0])
    GOO = build(polyhedral_spec("+-[OxO]"))
    verts = orbit(GOO, v0)
    assert len(verts) == 288
    classes = color_orbits(GOC1, verts.points)
    assert sorted(len(c) for c in classes) == [48] * 6
    assert len(color_orbits(GOO, verts.points)) == 1


def test_export_round_trip():
    G = build(tubical_spec("+-[TxC]", 1))
    orb = orbit(G, [1, 0, 0, 0])
    cell = polar_cell(orb, orb.points[0])
    off = export_mesh(cell, "OFF")
    head = off.decode().splitlines()
    assert head[0] == "OFF" and head[1] == "6 8 12"
    again = parse_off(off)
    assert np.allclose(np.array(again.vertices), np.array(cell.vertices))
    assert again.faces == cell.faces
    obj = export_mesh(cell, "OBJ").decode()
    assert obj.count("\nf ") + obj.startswith("f ") == 8 or obj.count("f ") == 8


def test_parse_off_rejects_other_formats():
    for data in (b"", b"v 1 0 0\nf 1 2 3\n"):
        with pytest.raises(ValueError, match="OFF header"):
            parse_off(data)
