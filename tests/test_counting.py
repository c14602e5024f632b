import random
import time
from math import isqrt, prod

import pytest

from pg4 import counting
from pg4.catalog import (
    AXIAL_FAMILIES,
    POLYHEDRAL_FAMILIES,
    TUBICAL_FAMILIES,
    spec_order,
)
from pg4.counting import (
    OrderError,
    _circle_points,
    _factor,
    _odd_part,
    brute_force_census,
    count_order,
    count_self_mirror,
)


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


def _mirror_lattices(e, s0, circle):
    """Mirror-symmetric lattices of size 2^e y, y odd with sigma0(y) = s0:
    rectangular (m >= n, m n = 2^e y), rhombic (m >= n, m n = 2^(e-1) y) and
    ``circle`` circle points that are neither."""
    return ((e + 1) * s0 + 1) // 2 + (e * s0 + 1) // 2 + circle


def test_self_mirror():
    assert count_self_mirror(100) == 16
    assert count_self_mirror(1) == 1
    e, (s0, _, odd_square, fy) = _odd_part(100)
    t1_100 = _mirror_lattices(e, s0, _circle_points(fy, odd_square) - odd_square)
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
    N = 2**56 + 2
    e, (s0, s1, odd_square, fy) = _odd_part(N)
    assert e == 1 and prod(p**k for p, k in fy.items()) == 2**55 + 1
    assert s0 == prod(k + 1 for k in fy.values()) and not odd_square
    factored = []

    def factor_once(x):
        factored.append(x)
        return _factor(x)

    monkeypatch.setattr(counting, "_factor", factor_once)
    t0 = time.perf_counter()
    c = count_order(N)
    sm = count_self_mirror(N)
    assert time.perf_counter() - t0 < 1.0
    assert factored == [N, N]  # one factorization per call, none of a quotient
    for key in ("tor:X", "tor:L", "tor:*", "tor:+"):  # each needs 4 | N
        assert c.per_family[key] == 0, key
    assert (c.total, c.achiral, sm) == (105795287875598060, 96, 96)
    c = count_order(2**70)
    assert (c.total, count_self_mirror(2**70)) == (1770887431076116956391, 142)


# ---------------------------------------------------------------------------
# the closed forms against the scans they replaced

def _divisor_sieve(M):
    divs = [[] for _ in range(M + 1)]
    for d in range(1, M + 1):
        for x in range(d, M + 1, d):
            divs[x].append(d)
    return divs


def _divisors_by_scan(x):
    small = [d for d in range(1, isqrt(x) + 1) if x % d == 0]
    return sorted(set(small + [x // d for d in small]))


def _lattice_points(x, a_min=0):
    """#{(a, b): a >= b >= 0, a >= a_min, a^2 + b^2 = x}, by enumeration."""
    cnt = 0
    for b in range(isqrt(x // 2) + 1):
        a = isqrt(x - b * b)
        if a * a == x - b * b and a >= b and a >= a_min:
            cnt += 1
    return cnt


def _reference(N, divisors):
    """(per_family, achiral, self_mirror) of order N from divisor lists and
    lattice-point enumeration; divisors(x) lists the divisors of x >= 1."""
    def part(k):
        return N // k if N % k == 0 else 0

    def pairs(x, cond):
        return sum(1 for m in divisors(x) if cond(m, x // m)) if x else 0

    def sigma0(x):
        return len(divisors(x)) if x else 0

    def shifts(x):
        return sum((n + 1) // 2 if m % 2 else (n + 2) // 2
                   for m in divisors(x) for n in [x // m]) if x else 0

    def is_square(x):
        return x > 0 and isqrt(x) ** 2 == x

    def square_lattices(x):
        return is_square(x) + (x % 2 == 0 and is_square(x // 2))

    f = {"tor:1": shifts(N), "tor:.": shifts(part(2)) - (N in (2, 4))}
    swap = (pairs(part(4), lambda m, n: m >= 2 and n >= 2)
            + pairs(part(4), lambda m, n: m >= 2)
            + pairs(part(2), lambda m, n: m >= 3 and n >= 2 and (m - n) % 2 == 0))
    f["tor:\\"] = f["tor:/"] = swap
    f["tor:X"] = (4 * pairs(part(8), lambda m, n: m >= 2 and n >= 2)
                  + pairs(part(4), lambda m, n: m >= 3 and n >= 3 and (m - n) % 2 == 0))
    f["tor:|"] = 2 * sigma0(part(2)) + sigma0(part(4))
    f["tor:+"] = (2 * pairs(part(4), lambda m, n: m >= n and (m, n) != (1, 1))
                  + pairs(part(4), lambda m, n: (m, n) != (1, 1))
                  + pairs(part(8), lambda m, n: m >= n and (m, n) != (1, 1)))
    f["tor:L"] = (_lattice_points(part(4), a_min=2) - (N == 16)) if part(4) else 0
    f["tor:*"] = (2 * (is_square(part(8)) and part(8) >= 9)
                  + 2 * (is_square(part(16)) and part(16) >= 4))
    f["tubical"] = 2 * sum(1 for t in TUBICAL_FAMILIES.values()
                           if N % t.order_factor == 0 and N // t.order_factor >= t.n_min)
    poly = [p for p in POLYHEDRAL_FAMILIES.values() if p.order == N]
    axial = [a for a in AXIAL_FAMILIES.values() if a.order == N]
    f["polyhedral"], f["axial"] = len(poly), len(axial)
    achiral = (f["tor:|"] + f["tor:+"] + f["tor:L"] + f["tor:*"]
               + sum(not p.chiral for p in poly) + sum(not a.chiral for a in axial))

    def mirror_part(x, y):  # the type-1 terms on lattice size x, with y = x / 2 or 0
        return ((sigma0(x) + 1) // 2 + (sigma0(y) + 1) // 2
                + (_lattice_points(x) if x else 0) - (square_lattices(x) if x else 0))

    self_mirror = mirror_part(N, part(2))
    if part(2):
        self_mirror += mirror_part(part(2), part(4)) - (N in (2, 4))
    self_mirror += 2 * (is_square(part(8)) and part(8) >= 4) + (is_square(part(4)) and part(4) >= 9)
    return f, achiral, self_mirror


def _assert_matches_reference(N, divisors):
    f, achiral, self_mirror = _reference(N, divisors)
    c = count_order(N)
    assert c.per_family == f, N
    assert c.achiral == achiral, N
    assert count_self_mirror(N) == self_mirror, N


def test_census_matches_reference_small():
    sieve = _divisor_sieve(5000)
    for N in range(1, 5001):
        _assert_matches_reference(N, sieve.__getitem__)


def test_census_matches_reference_large():
    rng = random.Random(20260809)
    for i in range(20):
        N = rng.randrange(5001, 10**6 + 1)
        if i % 2:  # every other one a multiple of 16, for the N/4 and N/8 families
            N -= N % 16
        _assert_matches_reference(N, _divisors_by_scan)
    # 6,720 divisors, and large powers of 2, beyond the random orders
    for N in (963761198400, 3 * 2**40, 2**30 * 3**2 * 5 * 7):
        _assert_matches_reference(N, _divisors_by_scan)


# ---------------------------------------------------------------------------
# factorization

def _is_prime_by_trial(p):
    return p >= 2 and all(p % d for d in range(2, min(p, isqrt(p) + 1)))


def _is_mersenne_prime(p):
    """Lucas-Lehmer: 2**k - 1 with k an odd prime."""
    k = p.bit_length()
    assert p == 2**k - 1 and _is_prime_by_trial(k)
    s = 4
    for _ in range(k - 2):
        s = (s * s - 2) % p
    return s == 0


def _check_factorization(x, is_prime=_is_prime_by_trial):
    f = _factor(x)
    assert prod(p**e for p, e in f.items()) == x
    assert all(e >= 1 and is_prime(p) for p, e in f.items()), f
    return f


def test_factor_hard_inputs():
    for p in (999999999989, 1000000000039):  # the primes either side of 10**12
        assert _check_factorization(p) == {p: 1}
    for p in (999983, 1000003):
        assert _check_factorization(p * p) == {p: 2}
    assert _check_factorization(561) == {3: 1, 11: 1, 17: 1}
    assert _check_factorization(41041) == {7: 1, 11: 1, 13: 1, 41: 1}
    assert _check_factorization(825265) == {5: 1, 7: 1, 17: 1, 19: 1, 73: 1}
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert _check_factorization(3215031751) == {151: 1, 751: 1, 28351: 1}
    for k in range(80):
        assert _check_factorization(2**k) == ({2: k} if k else {})


def test_factor_mersenne_products():
    m31, m61 = 2**31 - 1, 2**61 - 1
    assert _is_prime_by_trial(m31) and _is_mersenne_prime(m61)
    assert _factor(m61) == {m61: 1}
    assert _factor(m31 * m61) == {m31: 1, m61: 1}
    assert _factor(3 * 5**4 * m31**2) == {3: 1, 5: 4, m31: 2}


def test_factor_random_against_trial_division():
    rng = random.Random(7)
    for _ in range(300):
        x = rng.randrange(1, 10**9)
        _check_factorization(x)


def test_miller_rabin_bound_is_psi12():
    # psi_12 passes all 12 bases, so orders from there on are refused
    psi12 = 318665857834031151167461
    assert 399165290221 * 798330580441 == psi12
    assert counting._PSI12 == psi12 and counting._is_prime(psi12)
    with pytest.raises(ValueError):
        count_order(psi12)
    assert count_order(psi12 - 1).total > 0


@pytest.mark.parametrize("fn", [count_order, count_self_mirror])
@pytest.mark.parametrize("N", [-8, -4, 0, 1.0, 12.5, "12", True, None,
                               318665857834031151167461])
def test_bad_orders_are_refused(fn, N):
    with pytest.raises(OrderError) as exc:
        fn(N)
    assert isinstance(exc.value, ValueError)
    assert fn.__name__ in str(exc.value) and repr(N) in str(exc.value)
