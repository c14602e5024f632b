import pytest

from pg4.counting import (
    _circle_points,
    _square_lattices,
    _unordered_factorizations,
    brute_force_census,
    count_order,
    count_self_mirror,
)
from pg4.catalog import spec_order


def test_order_100_breakdown():
    c = count_order(100)
    assert c.per_family["tor:1"] == 113
    assert c.per_family["tor:."] == 48
    assert c.per_family["tor:\\"] == 3
    assert c.per_family["tor:/"] == 3
    assert c.per_family["tor:X"] == 1
    assert c.chiral_toroidal == 168
    assert c.per_family["tor:|"] == 15
    assert c.per_family["tor:+"] == 7
    assert c.per_family["tor:L"] == 2
    assert c.achiral_toroidal == 24
    assert c.tubical == 0 and c.polyhedral == 0 and c.axial == 0
    assert c.total == 192


def test_order_7200():
    c = count_order(7200)
    assert c.chiral_toroidal == 19319
    assert c.achiral_toroidal == 216
    assert c.tubical == 22
    assert c.polyhedral == 1
    assert c.chiral == 19342 and c.achiral == 216


def test_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        assert count_order(p).total == (p + 3) // 2


def test_lower_bound():
    for N in range(1, 400):
        assert count_order(N).total >= N / 2


def test_cumulative_growth_quadratic():
    totals = {}
    for M in (100, 200, 400):
        totals[M] = sum(count_order(N).total for N in range(1, M + 1))
    r1 = totals[200] / (4 * totals[100])
    r2 = totals[400] / (4 * totals[200])
    assert 0.5 < r1 < 2 and 0.5 < r2 < 2


def test_self_mirror():
    assert count_self_mirror(100) == 16
    assert count_self_mirror(1) == 1
    t1_100 = (_unordered_factorizations(100) + _unordered_factorizations(50)
              + _circle_points(100) - _square_lattices(100))
    assert t1_100 == 9  # the type-1 part of the 16


def test_brute_force_agreement():
    for N in range(1, 33):
        b = brute_force_census(N)
        c = count_order(N)
        assert b.total == c.total, N
        assert (b.chiral, b.achiral) == (c.chiral, c.achiral), N
        for key, val in b.per_family.items():
            assert c.per_family.get(key, 0) == val, (N, key)


def test_census_matches_catalog_specs():
    # the closed forms against spec-level enumeration, split by record chirality
    from collections import Counter, defaultdict
    from pg4.catalog import list_catalog, spec_chiral
    per_family, chiral = defaultdict(Counter), defaultdict(Counter)
    for sp in list_catalog(1000):
        N = spec_order(sp)
        per_family[N]["tor:" + sp.family[0] if sp.kind == "toroidal" else sp.kind] += 1
        chiral[N][spec_chiral(sp)] += 1
    for N in range(1, 1001):
        c = count_order(N)
        assert {k: v for k, v in c.per_family.items() if v} == per_family[N], N
        assert (c.chiral, c.achiral) == (chiral[N][True], chiral[N][False]), N


def test_brute_force_examples():
    assert brute_force_census(2).total > 0
    c4 = brute_force_census(4)
    assert c4.per_family.get("tor:1", 0) >= 2  # includes the Vierergruppe chain rep
    with pytest.raises(ValueError):
        brute_force_census(33)


def test_quotients_stay_exact_past_2_53(monkeypatch):
    # (2**56 + 2) / 4 is 2**54 as a float, yet N is not a multiple of 4
    from pg4 import counting

    def no_scan(x):
        raise AssertionError(f"divisor scan of {x}")

    monkeypatch.setattr(counting, "_divisors", no_scan)
    N = 2**56 + 2
    assert counting._part(N, 2) == 2**55 + 1
    for k in (4, 8):
        x = counting._part(N, k)
        assert counting._count_pairs(x, lambda m, n: True) == 0
        assert counting._sigma0(x) == 0
        assert _unordered_factorizations(x) == 0
        assert _circle_points(x) == 0
        assert _square_lattices(x) == 0
