"""Cross-module property tests: float oracles, supergroup-table polygon
counts, conjugation covariance, and the fingerprint collision scan."""

import random
from fractions import Fraction as Fr
from math import gcd, lcm

import numpy as np
import pytest

from pg4.algebra import angle_of, exp_i, quat_float4, quat_is_unit, quat_mul
from pg4.catalog import (
    build,
    list_catalog,
    parse_spec,
    spec_order,
    tubical_spec,
)
from pg4.classify import classify
from pg4.constants import two_I, two_O, two_T
from pg4.counting import count_order
from pg4.group import (
    classify_quat_group,
    conjugate,
    fingerprint,
    left_right_groups,
    order,
)
from pg4.orbits import center_of, circle_polygon_exact, orbit_circle_polygon
from pg4.toroidal import _translation_conj


def _qmul4(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def test_quat_mul_float_oracle():
    random.seed(11)
    pool = list(two_I()) + list(two_O()) + [exp_i(Fr(k, 4)) for k in range(8)]
    for _ in range(1000):
        a, b = random.choice(pool), random.choice(pool)
        got = np.array(quat_float4(quat_mul(a, b)))
        want = _qmul4(np.array(quat_float4(a)), np.array(quat_float4(b)))
        assert np.abs(got - want).max() < 1e-12


def test_catalog_quaternions_unit_with_angles():
    for S in (two_I(), two_O(), two_T()):
        for q in S:
            assert quat_is_unit(q)
            angle_of(q)  # must be defined


def test_left_right_types_conjugation_covariant():
    # conjugators compatible with each side: algebraic left, circle right
    from pg4.algebra import CycloQuat
    from pg4.transform import rotation
    lpool = list(two_O())
    rpool = [exp_i(Fr(k, 4)) for k in range(8)] + \
        [CycloQuat(Fr(k, 4), 1) for k in range(8)]
    for text in ("tub:+-[TxC]:n=3", "tub:+-1/2[OxD2]:n=2"):
        G = build(parse_spec(text))
        L1, R1 = left_right_groups(G)
        for _ in range(6):
            h = rotation(random.choice(lpool), random.choice(rpool))
            L2, R2 = left_right_groups(conjugate(G, h))
            assert classify_quat_group(L1) == classify_quat_group(L2)
            assert classify_quat_group(R1) == classify_quat_group(R2)


# cells per tube for every cyclic-type family and rotation center
_SUPERGROUP_POLYGONS = {
    ("+-[IxC]", "5-fold"): lambda n: lcm(2 * n, 10),
    ("+-[IxC]", "3-fold"): lambda n: lcm(2 * n, 6),
    ("+-[IxC]", "2-fold"): lambda n: lcm(2 * n, 4),
    ("+-[OxC]", "4-fold"): lambda n: lcm(2 * n, 8),
    ("+-[OxC]", "3-fold"): lambda n: lcm(2 * n, 6),
    ("+-[OxC]", "2-fold"): lambda n: lcm(2 * n, 4),
    ("+-1/2[OxC2]", "4-fold"): lambda n: 8 * n // gcd(n - 2, 4),
    ("+-1/2[OxC2]", "3-fold"): lambda n: lcm(2 * n, 6),
    ("+-1/2[OxC2]", "2-fold"): lambda n: 4 * n // gcd(n - 1, 2),
    ("+-[TxC]", "3-fold"): lambda n: lcm(2 * n, 6),
    ("+-[TxC]", "2-fold"): lambda n: lcm(2 * n, 4),
    ("+-1/3[TxC3]", "3-fold-I"): lambda n: 6 * n // gcd(n - 1, 3),
    ("+-1/3[TxC3]", "3-fold-II"): lambda n: 6 * n // gcd(n - 2, 3),
    ("+-1/3[TxC3]", "2-fold"): lambda n: lcm(2 * n, 4),
}


@pytest.mark.parametrize("fam,kind", sorted(_SUPERGROUP_POLYGONS))
def test_supergroup_table_polygon_counts(fam, kind):
    formula = _SUPERGROUP_POLYGONS[(fam, kind)]
    for n in range(1, 13):
        sp = tubical_spec(fam, n)
        G = build(sp)
        assert orbit_circle_polygon(G, sp, kind) == formula(n), (fam, kind, n)
        assert circle_polygon_exact(G, center_of(sp, kind)) == formula(n)


def test_classify_invariant_under_standard_conjugation():
    # torus-preserving origin shifts keep the classification
    for text in ("tor:|/pg:m=2,n=4", "tor:X/p2gg:m=4,n=6", "tor:L:a=2,b=1"):
        sp = parse_spec(text)
        G = build(sp)
        base = classify(G)
        for u1, u2, den in ((1, 0, 3), (7, 5, 35)):  # (1/3, 0) and (1/5, 1/7)
            got = classify(conjugate(G, _translation_conj(u1, u2, den)))
            assert got == base, (text, u1, u2, den)


def test_orders_match_formulas_to_120():
    for sp in list_catalog(120):
        assert order(build(sp)) == spec_order(sp), sp.spec_string()


def test_count_lower_bound_to_1000():
    for N in range(1, 1001):
        assert count_order(N).total >= N / 2


def test_fingerprint_collision_scan_to_100():
    """Fingerprints separate the catalog up to order 100 except documented
    cases: enantiomorphic pairs and the reversing-code fold."""
    index = {}
    for sp in list_catalog(100):
        G = build(sp)
        index.setdefault((order(G), str(fingerprint(G))), []).append((sp, G))
    collisions = []
    for (N, fp), entries in index.items():
        if len(entries) > 1:
            collisions.append((N, [sp.spec_string() for sp, _ in entries]))
    for N, names in collisions:
        specs = [parse_spec(t) for t in names]
        # every colliding pair must be tied by a documented mechanism:
        # mirror partners, or reversing elements (the alpha-fold)
        mirrorish = all(_mirror_partner_in(sp, specs) for sp in specs)
        reversing = all(not _is_chiral_spec(sp) for sp in specs)
        assert mirrorish or reversing, (N, names)


def _is_chiral_spec(sp):
    from pg4.group import is_chiral
    return is_chiral(build(sp))


def _mirror_partner_in(sp, specs):
    from pg4.catalog import right_variant
    if sp.kind == "tubical":
        return right_variant(sp) in specs
    if sp.kind == "toroidal":
        fam = sp.family
        mirror_fam = {"//pm": "\\/pm", "\\/pm": "//pm", "//pg": "\\/pg",
                      "\\/pg": "//pg", "//cm": "\\/cm", "\\/cm": "//cm",
                      "X/p2mg": "X/p2gm", "X/p2gm": "X/p2mg"}.get(fam)
        if mirror_fam is None:
            return True  # self-mirror family: collisions within it allowed
        return any(o.family == mirror_fam for o in specs)
    return True
