"""Closed-form counts of the point groups of a given order.

The toroidal families dominate: the torus translation groups contribute one
group per divisor pair N = m*n and admissible shift s, with ceil(n/2) shifts
for odd m and ceil((n+1)/2) for even m.  Tubical, polyhedral and axial
groups contribute finitely many per order.  Enantiomorphic pairs count as
two groups throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

from .catalog import (
    AXIAL_FAMILIES,
    POLYHEDRAL_FAMILIES,
    TOROIDAL_FAMILIES,
    TUBICAL_FAMILIES,
    _axial_chiral,
    _axial_order,
    build,
    spec_order,
)
from .group import equals, is_chiral


@dataclass
class OrderCensus:
    order: int
    per_family: dict = field(default_factory=dict)
    achiral_poly: int = 0
    achiral_axial: int = 0

    @property
    def chiral_toroidal(self) -> int:
        return sum(v for k, v in self.per_family.items()
                   if k.startswith("tor") and k not in _TOR_ACHIRAL_KEYS)

    @property
    def achiral_toroidal(self) -> int:
        return sum(v for k, v in self.per_family.items() if k in _TOR_ACHIRAL_KEYS)

    @property
    def tubical(self) -> int:
        return self.per_family.get("tubical", 0)

    @property
    def polyhedral(self) -> int:
        return self.per_family.get("polyhedral", 0)

    @property
    def axial(self) -> int:
        return self.per_family.get("axial", 0)

    @property
    def total(self) -> int:
        return sum(self.per_family.values())

    @property
    def achiral(self) -> int:
        return self.achiral_toroidal + self.achiral_poly + self.achiral_axial

    @property
    def chiral(self) -> int:
        return self.total - self.achiral

    def as_dict(self):
        d = {k: v for k, v in self.per_family.items() if v}
        d.update(order=self.order, total=self.total,
                 chiral=self.chiral, achiral=self.achiral)
        return d


# census keys "tor:" + family[0] of the achiral toroidal families
_TOR_ACHIRAL_KEYS = frozenset(
    "tor:" + f.family[0] for f in TOROIDAL_FAMILIES.values() if not f.chiral)


def _divisors(x: int):
    return [d for d in range(1, x + 1) if x % d == 0]


def _part(N: int, k: int) -> int:
    """N // k when k divides N, else 0; the counting helpers give 0 at 0."""
    return N // k if N % k == 0 else 0


def _sigma0(x: int) -> int:
    if x < 1:
        return 0
    return len(_divisors(x))


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def _s_count(m: int, n: int) -> int:
    """Number of admissible shifts: ceil(n/2) for odd m, ceil((n+1)/2) for even."""
    return _ceil_half(n) if m % 2 else _ceil_half(n + 1)


def _count_type1(N: int) -> int:
    return sum(_s_count(m, N // m) for m in _divisors(N))


def _count_flip(N: int) -> int:
    if N % 2:
        return 0
    half = N // 2
    total = sum(_s_count(m, half // m) for m in _divisors(half))
    if N == 2:
        total -= 1  # (m, n) = (1, 1) excluded
    if N == 4:
        total -= 1  # (m, n) = (2, 1) excluded
    return total


def _count_pairs(total: int, cond) -> int:
    if total < 1:
        return 0
    return sum(1 for m in _divisors(total) if cond(m, total // m))


def count_order(N: int) -> OrderCensus:
    """Exact per-family census of the 4-dimensional point groups of order N."""
    c = OrderCensus(N)
    f = c.per_family
    f["tor:1"] = _count_type1(N)
    f["tor:."] = _count_flip(N)
    # swap groups; the / counts mirror the \ counts
    pm = _count_pairs(_part(N, 4), lambda m, n: m >= 2 and n >= 2)
    pg = _count_pairs(_part(N, 4), lambda m, n: m >= 2 and n >= 1)
    cm = _count_pairs(_part(N, 2), lambda m, n: m >= 3 and n >= 2 and (m - n) % 2 == 0)
    f["tor:\\"] = pm + pg + cm
    f["tor:/"] = pm + pg + cm
    f["tor:X"] = (
        4 * _count_pairs(_part(N, 8), lambda m, n: m >= 2 and n >= 2)
        + _count_pairs(_part(N, 4), lambda m, n: m >= 3 and n >= 3 and (m - n) % 2 == 0)
    )
    f["tor:|"] = 2 * _sigma0(_part(N, 2)) + _sigma0(_part(N, 4))
    p2mm = _count_pairs(_part(N, 4), lambda m, n: m >= n >= 1 and (m, n) != (1, 1))
    p2mg = _count_pairs(_part(N, 4), lambda m, n: (m, n) != (1, 1))
    p2gg = p2mm
    c2mm = _count_pairs(_part(N, 8), lambda m, n: m >= n >= 1 and (m, n) != (1, 1))
    f["tor:+"] = p2mm + p2mg + p2gg + c2mm
    f["tor:L"] = _count_swapturn(N)
    f["tor:*"] = _count_full_torus(N)
    f["tubical"] = _count_tubical(N)
    f["polyhedral"] = sum(1 for p in POLYHEDRAL_FAMILIES.values() if p.order == N)
    f["axial"] = sum(1 for fam in AXIAL_FAMILIES if _axial_order(fam) == N)
    c.achiral_poly = sum(1 for p in POLYHEDRAL_FAMILIES.values()
                         if p.order == N and not p.chiral)
    c.achiral_axial = sum(1 for fam in AXIAL_FAMILIES
                          if _axial_order(fam) == N and not _axial_chiral(fam))
    return c


def _count_swapturn(N: int) -> int:
    if N % 4:
        return 0
    c2 = N // 4
    cnt = 0
    for b in range(isqrt(c2 // 2) + 1):
        a2 = c2 - b * b
        a = isqrt(a2)
        if a * a == a2 and a >= b and a >= 2 and (a, b) != (2, 0):
            cnt += 1
    return cnt


def _count_full_torus(N: int) -> int:
    cnt = 0
    if N % 8 == 0:
        k = isqrt(N // 8)
        if 8 * k * k == N and k >= 3:
            cnt += 2  # p4mmU and p4gmU
    if N % 16 == 0:
        k = isqrt(N // 16)
        if 16 * k * k == N and k >= 2:
            cnt += 2  # p4mmS and p4gmS
    return cnt


def _count_tubical(N: int) -> int:
    cnt = 0
    for info in TUBICAL_FAMILIES.values():
        if N % info.order_factor == 0 and N // info.order_factor >= info.n_min:
            cnt += 2  # left and right variants
    return cnt


# ---------------------------------------------------------------------------
# self-mirror counting (chiral toroidal groups equal to their own mirror)

def _unordered_factorizations(x: int) -> int:
    return _ceil_half(_sigma0(x))


def _circle_points(x: int) -> int:
    """#{(a, b): a >= b >= 0, a^2 + b^2 = x}."""
    if x < 1:
        return 0
    cnt = 0
    for b in range(isqrt(x // 2) + 1):
        a2 = x - b * b
        a = isqrt(a2)
        if a * a == a2 and a >= b:
            cnt += 1
    return cnt


def _square_lattices(x: int) -> int:
    """Upright (x = k^2) plus slanted (x = 2 k^2) square lattices."""
    if x < 1:
        return 0
    cnt = 0
    k = isqrt(x)
    if k * k == x:
        cnt += 1
    if x % 2 == 0:
        k = isqrt(x // 2)
        if 2 * k * k == x:
            cnt += 1
    return cnt


def count_self_mirror(N: int) -> int:
    """Chiral toroidal groups of order N that equal their own mirror image."""
    # type 1: lattices with a reflection (rectangular/rhombic) or swapturn symmetry
    t1 = (_unordered_factorizations(N) + _unordered_factorizations(_part(N, 2))
          + _circle_points(N) - _square_lattices(N))
    # torus flip groups: same with lattice size N/2
    if N % 2 == 0:
        t2 = (_unordered_factorizations(_part(N, 2)) + _unordered_factorizations(_part(N, 4))
              + _circle_points(_part(N, 2)) - _square_lattices(_part(N, 2)))
        if N == 2:
            t2 -= 1  # the excluded flip group on the trivial lattice
        if N == 4:
            t2 -= 1  # the excluded flip group on the (2,1) lattice
    else:
        t2 = 0
    # full swap groups need m = n
    tx = 0
    if N % 8 == 0:
        k = isqrt(N // 8)
        if 8 * k * k == N and 2 * k >= 4:
            tx += 2  # X/p2mm and X/p2gg at labels (2k, 2k)
    if N % 4 == 0:
        k = isqrt(N // 4)
        if 4 * k * k == N and k >= 3:
            tx += 1  # X/c2mm at (k, k)
    return t1 + t2 + tx


def brute_force_census(N: int) -> OrderCensus:
    """Oracle: enumerate catalog specs of order N, build, check distinctness."""
    if N > 32:
        raise ValueError("brute-force census is limited to N <= 32")
    from .catalog import list_catalog
    specs = [sp for sp in list_catalog(N) if spec_order(sp) == N]
    groups = [(sp, build(sp)) for sp in specs]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if equals(groups[i][1], groups[j][1]):
                raise AssertionError(
                    f"catalog duplicates: {groups[i][0]} equals {groups[j][0]}")
    c = OrderCensus(N)
    for sp, G in groups:
        if sp.kind == "toroidal":
            key = "tor:" + sp.family[0]
        else:
            key = sp.kind
        c.per_family[key] = c.per_family.get(key, 0) + 1
        # chirality of the finite groups from the built elements, not the records
        if sp.kind == "polyhedral" and not is_chiral(G):
            c.achiral_poly += 1
        elif sp.kind == "axial" and not is_chiral(G):
            c.achiral_axial += 1
    return c
