from collections import Counter
from fractions import Fraction as Fr
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg4.catalog import build, parse_spec, polyhedral_spec, tubical_spec
from pg4.group import order
from pg4.hopf import GreatCircle
from pg4.orbits import (
    GENERIC_START,
    center_of,
    center_start,
    circle_angle_data,
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
from pg4.transform import apply, apply_columns


def test_orbit_24_cell():
    G = build(tubical_spec("+-[TxC]", 1))
    orb = orbit(G, [1, 0, 0, 0])
    assert len(orb) == 24


@pytest.mark.parametrize("v", [[0, 0, 0, 0], [np.nan, 0, 0, 1], [np.inf, 0, 0, 1],
                               [1e200, 0, 0, 0]])
def test_orbit_refuses_degenerate_start(v):
    import warnings
    G = build(tubical_spec("+-[TxC]", 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before numpy warns
        with pytest.raises(ValueError, match=r"start point \[.*\] has no finite nonzero norm"):
            orbit(G, v)


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


def test_induced_group_refuses_other_categories():
    # a ValueError naming the category, not a 3D name (+T) or a bare KeyError
    for text, tag in (("tor:1:m=1,n=12,s=0", "toroidal"), ("tor:1:m=2,n=5,s=1", "toroidal"),
                      ("tub:+-[CxI]:n=3", "tubical-right")):
        with pytest.raises(ValueError, match=tag):
            induced_group(build(parse_spec(text)))


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


def test_right_variant_centers():
    # the right variant is the left one conjugated by x -> x-bar: its start
    # point and its orbit are the mirror images of the left ones
    left, right = tubical_spec("+-[IxC]", 5), tubical_spec("+-[CxI]", 5)
    mirror = np.array([1.0, -1.0, -1.0, -1.0])
    v = center_start(left, "5-fold")
    assert np.array_equal(center_start(right, "5-fold"), v * mirror)
    G = build(right)
    a = orbit(build(left), v).array() * mirror
    b = orbit(G, v * mirror).array()
    assert len(a) == len(b) == 120
    assert np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2).min(axis=0).max() < 1e-9
    # the left-only functions refuse it
    for fn in (screw_angles, orbit_circle_polygon):
        with pytest.raises(ValueError, match="expects a left tubical group"):
            fn(G, right, "5-fold")
    for fn in (circle_angle_data, circle_polygon_exact):  # these take a point, not a spec
        with pytest.raises(ValueError, match="expects a left tubical group"):
            fn(G, center_of(right, "5-fold"))


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


_TRIANGLE = b"OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n"


@pytest.mark.parametrize("data, message", [
    (b"OFF\n3 1 3\n0 0 0\n", "truncated"),
    (_TRIANGLE + b"3 0 1 3\n", "vertex index outside 0..2"),
    (_TRIANGLE + b"4 0 1 2\n", "fewer indices than its length"),
    (_TRIANGLE + b"x 0 1 2\n", "does not start with its length"),
    (b"OFF\n3 x 3\n", "not three counts"),
    (b"OFF\n3 1\n", "not three counts"),
    (b"OFF\n", "not three counts"),
    (b"OFF\n1 0 0\n0 0\n", "vertex 0 has 2 coordinates, not 3"),
], ids=["truncated", "index-past-count", "short-face", "face-length-not-int",
        "counts-not-int", "two-counts", "no-counts", "two-coordinates"])
def test_parse_off_refuses_bad_input(data, message):
    assert parse_off(_TRIANGLE + b"3 0 1 2\n").faces == ((0, 1, 2),)
    with pytest.raises(ValueError, match=message):
        parse_off(data)


# sha256 of the OFF bytes of the scripts/export_cells.py cases
EXPORT_CELL_OFF_SHA256 = {
    ("+-[IxC]", 1, "5-fold"): "300c6b2e8bf5ce96930383ecb5c5e9d6b6100a033bbd8ebcdff11f582fab7b39",
    ("+-[IxC]", 2, "5-fold"): "b89aa0b549cbedf71d4db5ae9856240d091ee7ed7f319788e243b431d992a9a4",
    ("+-[IxC]", 3, "5-fold"): "7cafebd250feb374034e9da468e08a7b4f0c900be0cdbd6bd562585dfb5232fa",
    ("+-[OxC]", 1, "4-fold"): "0a8fab0137172bddf751039bd46ce127a9b67286146ae95546affb3eb6219e90",
    ("+-[OxC]", 2, "4-fold"): "24d97b7615a750d23cbdb51f216ec9cee407c1dc6b5e7066658ff1518f15be92",
    ("+-[TxC]", 1, "3-fold"): "f8fe602ca4c0200592503e2fa1c01f75ad43ea63e373c7e3ed2716b67d07fe1f",
    ("+-1/2[OxC2]", 3, "4-fold"): "d745bc07685f5e9575ab35a4c2eb5ac9796edcbedf244c757de480dd46685388",
    ("+-1/3[TxC3]", 2, "3-fold-I"): "6702280f85085e6d4a1219e3096f5a0c8c29524546218ad546b79accadf075a5",
}
# sha256 of the stdout of: pg4 orbit "tub:+-[TxC]:n=1" --point 1,0,0,0
ORBIT_STDOUT_SHA256 = "8d28445904f307a967cd5e2942e6f619f8d2b590584316bd26c55cccc50d0779"
# sha256 of repr(color_orbits(cell group, vertex orbit)) for the test_c11 pairs
COLORING_SHA256 = {
    ("tub:+-[IxC]:n=1", "poly:+-[IxI]"): "3803c9e244c8bb9ea39c9350fe39ed6af53addc2f876be11080005b907cead35",
    ("tub:+-[OxC]:n=1", "poly:+-[OxO]"): "b887e108f4c73a4b6195e69c4eaa5b95ae7c3712d52bb668e588b6e91c493f2f",
}


def test_float_layer_pinned():
    import hashlib
    import subprocess
    import sys
    for (fam, n, kind), want in EXPORT_CELL_OFF_SHA256.items():
        spec = tubical_spec(fam, n)
        v = GreatCircle.make(center_of(spec, kind), [1.0, 0.0, 0.0]).sample(0.05)
        orb = orbit(build(spec), v)
        pts = orb.array()
        at = pts[int(np.argmin(((pts - v) ** 2).sum(axis=1)))]
        off = export_mesh(polar_cell(orb, at), "OFF")
        assert hashlib.sha256(off).hexdigest() == want, (fam, n, kind)
    out = subprocess.run([sys.executable, "-m", "pg4.cli", "orbit", "tub:+-[TxC]:n=1",
                          "--point", "1,0,0,0"], capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == ORBIT_STDOUT_SHA256
    for (cell_spec, big), want in COLORING_SHA256.items():
        G = build(parse_spec(cell_spec))
        orb = orbit(G, [1, 0, 0, 0])
        at = next(p for p in orb.points if abs(p[0] - 1) < 1e-9)
        v4 = lift_to_hyperplane(at, polar_cell(orb, at).vertices)
        verts = orbit(build(parse_spec(big)), v4[0] / np.linalg.norm(v4[0]))
        classes = color_orbits(G, verts.points)
        assert len({len(c) for c in classes}) == 1
        assert hashlib.sha256(repr(classes).encode()).hexdigest() == want, cell_spec


# sha256 of the stdout of: pg4 orbit "tor:1:m=3,n=5,s=1" --point 1,0,0,0
TOROIDAL_ORBIT_STDOUT_SHA256 = "c0f6284fdcdeae7f6a9528805f23a36af37612f497be71a288f463d8884c8133"


def test_toroidal_orbit_stdout_pinned():
    import hashlib
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-m", "pg4.cli", "orbit", "tor:1:m=3,n=5,s=1",
                          "--point", "1,0,0,0"], capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == TOROIDAL_ORBIT_STDOUT_SHA256


def _greedy_keep_first(points, tol):
    """The O(n^2) dedup of the per-element path: keep a point unless
    np.linalg.norm puts it closer than tol to a kept one."""
    kept = []
    for p in points:
        if kept:
            # |p - q|_inf < tol is necessary for |p - q| < tol
            cand = np.flatnonzero(np.all(np.abs(np.array(kept) - p) < tol, axis=1))
            if any(np.linalg.norm(p - kept[k]) < tol for k in cand):
                continue
        kept.append(p)
    return kept


ORACLE_GROUPS = {text: build(parse_spec(text))
                 for text in ("poly:+-[TxT].2", "tub:+-[OxC]:n=2", "tor:|/pg:m=2,n=4")}
SPECIAL_POINTS = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (0, 1, 2, 0), (1, 1, 1, 0)]
coords = st.floats(min_value=-1, max_value=1, allow_nan=False)
start_points = st.one_of(
    st.sampled_from(SPECIAL_POINTS),
    st.tuples(coords, coords, coords, coords).filter(lambda v: np.linalg.norm(v) > 0.1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ORACLE_GROUPS)), start_points)
def test_orbit_matches_per_element_path(text, v):
    G = ORACLE_GROUPS[text]
    u = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    images = [apply(g, u) for g in G.elements]
    assert np.array_equal(apply_columns(*G.float_columns, u), np.array(images))
    want = tuple(tuple(p) for p in _greedy_keep_first(images, 1e-7))
    assert orbit(G, v).points == want


def test_orbit_points_are_lazy_and_unchanged():
    from pg4.orbits import Orbit, _dedup, unit_vector
    G = ORACLE_GROUPS["poly:+-[TxT].2"]
    pts = apply_columns(*G.float_columns, unit_vector(GENERIC_START))
    old = tuple(tuple(p) for p in pts[_dedup(pts, 1e-7)])
    orb = orbit(G, GENERIC_START)
    assert len(orb) == len(old) == len(G) and orb._points is None
    assert orb.points == old and orb.points is orb.points
    assert all(type(c) is np.float64 for p in orb.points for c in p)
    a = orb.array()
    assert a.flags.writeable and a.tobytes() == np.array(old).tobytes()
    a[:] = 0
    assert not np.shares_memory(a, orb.array()) and orb.array().tobytes() == np.array(old).tobytes()
    again = Orbit(orb.base, old)
    assert again == orb and len(again) == len(orb) and hash(again) == hash(orb)
    assert again.array().tobytes() == np.array(old).tobytes()
    assert again != Orbit(orb.base, old[1:])
    with pytest.raises(AttributeError):
        orb.base = old[1]


def test_float_columns_built_once_in_element_order():
    from pg4.algebra import quat_float4
    G = ORACLE_GROUPS["poly:+-[TxT].2"]
    star, L, R = G.float_columns
    assert G.float_columns[1] is L and not L.flags.writeable
    assert L.shape == R.shape == (4, len(G)) and star.sum() == len(G) // 2
    for k, g in enumerate(G.elements):
        assert star[k] == g.star
        assert tuple(L[:, k]) == quat_float4(g.l) and tuple(R[:, k]) == quat_float4(g.r)


@pytest.mark.parametrize("tol, dim", [(1e-7, 4), (1e-9, 3)])
def test_dedup_keeps_first_with_strict_tolerance(tol, dim):
    from pg4.orbits import _SWEEP, _dedup
    e = np.eye(dim)
    a, b = 0.3 * np.ones(dim), -0.2 * np.ones(dim)
    # a later near-copy goes, whichever copy comes first; exact copies go too
    pts = np.array([a, a + 0.5 * tol * e[0], b, a + 0.4 * tol * e[1], b, a])
    assert _dedup(pts, tol).tolist() == [0, 2]
    # at exactly tol the later point stays
    assert _dedup(np.array([0 * e[0], tol * e[0]]), tol).tolist() == [0, 1]
    # a chain: only kept points drop their neighbours
    chain = np.array([0.6 * k * tol * e[0] for k in range(5)])
    assert _dedup(chain, tol).tolist() == [0, 2, 4]
    assert _dedup(chain[::-1].copy(), tol).tolist() == [0, 2, 4]
    # random clusters against the O(n^2) rule
    rng = np.random.default_rng(7)
    centers = rng.normal(size=(6, dim))
    pts = centers[rng.integers(0, 6, 200)] + rng.uniform(-tol, tol, (200, dim))
    want = _greedy_keep_first(list(pts), tol)
    assert np.array_equal(pts[_dedup(pts, tol)], np.array(want))
    # the sweep's worst case: every projection on its direction ties
    d = _SWEEP[:dim] / np.linalg.norm(_SWEEP[:dim])
    flat = pts - np.outer(pts @ d, d)
    assert np.abs(flat @ d).max() < tol
    want = _greedy_keep_first(list(flat), tol)
    assert np.array_equal(flat[_dedup(flat, tol)], np.array(want))
    # rows a little under and a little over 2 tol apart along the direction stay
    for step in (1.999 * tol, 2.001 * tol):
        line = np.outer(step * np.arange(50), d) + 0.3
        assert _dedup(line, tol).tolist() == list(range(50))


def test_color_orbits_rejects_open_point_set():
    G = build(tubical_spec("+-[TxC]", 1))
    pts = orbit(G, GENERIC_START).points
    assert len(color_orbits(G, pts)) == 1
    with pytest.raises(ValueError, match="not closed"):
        color_orbits(G, pts[1:])


def test_polar_cell_lets_real_errors_through(monkeypatch):
    import pg4.orbits

    def broken(*args, **kw):
        raise TypeError("broken halfspace intersection")

    orb = orbit(build(tubical_spec("+-[TxC]", 1)), [1, 0, 0, 0])
    monkeypatch.setattr(pg4.orbits, "HalfspaceIntersection", broken)
    with pytest.raises(TypeError, match="broken"):
        polar_cell(orb, orb.points[0])
