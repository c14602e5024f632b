"""Closed-form counts of the point groups of a given order.

The toroidal families dominate.  ``count_order`` reads each family's range
from its ``TOROIDAL_FAMILIES`` row and counts it in closed form from one
factorization of N: sigma0 of the lattice size, after halving both parameters
of an "even" or "same" family; sigma1 for the two families with a shift,
since a lattice (m, n) has (n + c)/2 shifts with c = 1, 0, 2, 1 for m, n
odd-odd, odd-even, even-even, even-odd; the points on the circle
a^2 + b^2 = x from the primes 1 and 3 mod 4; a square test for the full torus
groups; less the few small pairs below a minimum or excluded.
``count_self_mirror`` reads the same decomposition N = 2^e y and the rows of
the ``1``, ``.`` and full swap families.  Tubical, polyhedral and axial groups
are counted from the per-order spec list that ``list_catalog`` reads, and
enantiomorphic pairs count as two groups.

The factorization is exact for N below psi_12 ~ 3.2e23, and larger orders are
refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

from .catalog import (
    TOROIDAL_FAMILIES,
    _other_specs_of_order,
    _s_range,
    _toroidal_specs_of_order,
    build,
    spec_chiral,
)
from .group import equals, is_chiral


class OrderError(ValueError):
    """An order the census cannot count: not an int, below 1, or >= psi_12."""


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


# the census keys ("tor:" + family[0] in row order, then the other kinds),
# and those of the achiral toroidal families
_KEYS = [*dict.fromkeys("tor:" + f.family[0] for f in TOROIDAL_FAMILIES.values()),
         "tubical", "polyhedral", "axial"]
_TOR_ACHIRAL_KEYS = frozenset(
    "tor:" + f.family[0] for f in TOROIDAL_FAMILIES.values() if not f.chiral)

# the toroidal rows grouped by order factor and range, each group with the
# census keys of its rows: one evaluation per group and call
_TOR_GROUPS = {}
for _row in TOROIDAL_FAMILIES.values():
    _key = (_row.order_factor, _row.param_names, _row.mins, _row.parity,
            _row.descending, _row.excluded)
    _TOR_GROUPS.setdefault(_key, (_row.order_factor.bit_length() - 1, _row, []))[2].append(
        "tor:" + _row.family[0])


# ---------------------------------------------------------------------------
# factorization

# psi_12 (Sorenson & Webster): the least strong pseudoprime to all of the
# first 12 prime bases, so Miller-Rabin with those bases is exact below it
_PSI12 = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 1000


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37, exact for n < _PSI12."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard rho, Brent's cycle search)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(x: int) -> dict:
    """Prime factorization {p: e} of x >= 1.

    Trial division by 2, 3 and 6k +- 1 up to _TRIAL_BOUND; a cofactor above
    _TRIAL_BOUND**2 is split by Pollard rho and its parts tested by
    Miller-Rabin, which is exact while each part is below _PSI12.
    """
    f = {}
    for p in (2, 3):
        while x % p == 0:
            f[p] = f.get(p, 0) + 1
            x //= p
    p = 5
    while p <= _TRIAL_BOUND and p * p <= x:
        for q in (p, p + 2):
            while x % q == 0:
                f[q] = f.get(q, 0) + 1
                x //= q
        p += 6
    if p * p > x:  # no factor below p is left, so x is 1 or prime
        if x > 1:
            f[x] = f.get(x, 0) + 1
        return f
    stack = [x]
    while stack:
        y = stack.pop()
        if _is_prime(y):
            f[y] = f.get(y, 0) + 1
        else:
            d = _rho(y)
            stack += (d, y // d)
    return f


def _odd_part(N: int) -> tuple:
    """(e, odd) for N = 2^e y with y odd, where odd = (sigma0(y), sigma1(y),
    y is a square, factorization of y): one factorization of N."""
    f = _factor(N)
    e = f.pop(2, 0)
    s0 = s1 = odd_square = 1
    for p, k in f.items():
        s0 *= k + 1
        s1 *= (p ** (k + 1) - 1) // (p - 1)
        odd_square &= k % 2 == 0
    return e, (s0, s1, odd_square, f)


# ---------------------------------------------------------------------------
# per-family counts

def _count_row(row, x: int, e: int, odd) -> int:
    """In-range parameter tuples of ``row`` with lattice size x = 2^e y, y odd;
    odd = (sigma0(y), sigma1(y), y is a square, factorization of y)."""
    s0, s1, odd_square, fy = odd
    mins = row.mins
    if len(mins) == 1:  # x = n^2
        n = isqrt(x)
        return int(n * n == x and row.in_range(n))
    if row.param_names == ("a", "b"):  # a >= b >= 0 on a^2 + b^2 = x, as many as for y,
        # less those with a below its minimum and the excluded ones
        small = {(a, b) for a in range(mins[0]) for b in range(a + 1)}.union(row.excluded)
        return _circle_points(fy, odd_square) - sum(a * a + b * b == x for a, b in small)
    # m n = x: both parameters even (halved) for "even", and for "same" unless x is odd
    h = 2 if row.parity == "even" or row.parity == "same" and e else 1
    if h == 2:
        if e < 2:
            return 0
        e -= 2
        x >>= 2
    shift = len(row.param_names) == 3  # then parity is None and h = 1
    if shift:  # sum of (n + c) / 2 over m n = x; c sums to sigma0(x) for odd x,
        # else to (0 + 2 (e - 1) + 1) sigma0(y) over the powers 2^0 .. 2^e in m
        count = (((2 << e) - 1) * s1 + (2 * e - 1 if e else 1) * s0) // 2
    elif row.descending:
        count = ((e + 1) * s0 + (odd_square and e % 2 == 0)) // 2
    else:
        count = (e + 1) * s0
    # less the pairs below a minimum and the excluded pairs, in halved parameters
    small = []
    for d in range(1, -(-mins[0] // h)):
        if x % d == 0:
            small.append((d, x // d))
    for d in range(1, -(-mins[1] // h)):
        if x % d == 0 and h * (x // d) >= mins[0]:
            small.append((x // d, d))
    for m, n in row.excluded:
        if (m * n == h * h * x and m % h == 0 and n % h == 0
                and m >= mins[0] and n >= mins[1]):
            small.append((m // h, n // h))
    for m, n in small:
        if m >= n or not row.descending:
            count -= len(_s_range(h * m, h * n)) if shift else 1
    return count


def _check_order(fn: str, N) -> None:
    if isinstance(N, bool) or not isinstance(N, int) or not 1 <= N < _PSI12:
        raise OrderError(f"{fn}({N!r}): N must be an int with 1 <= N < {_PSI12}")


def count_order(N: int) -> OrderCensus:
    """Exact per-family census of the 4-dimensional point groups of order N.

    Costs one factorization of N; raises OrderError unless 1 <= N < _PSI12.
    """
    _check_order("count_order", N)
    e2, odd = _odd_part(N)
    c = OrderCensus(N)
    per_family = c.per_family = dict.fromkeys(_KEYS, 0)
    for j, row, keys in _TOR_GROUPS.values():
        if j <= e2:
            count = _count_row(row, N >> j, e2 - j, odd)
            for key in keys:
                per_family[key] += count
    for sp in _other_specs_of_order(N):
        per_family[sp.kind] += 1
        if sp.kind == "polyhedral":
            c.achiral_poly += not spec_chiral(sp)
        elif sp.kind == "axial":
            c.achiral_axial += not spec_chiral(sp)
    return c


# ---------------------------------------------------------------------------
# self-mirror counting (chiral toroidal groups equal to their own mirror)

# the full swap rows whose group on a square lattice (k, k) is its own mirror
# image; the mirror swaps X/p2mg and X/p2gm
_SQUARE_SELF_MIRROR_ROWS = tuple(TOROIDAL_FAMILIES[f] for f in ("X/p2mm", "X/p2gg", "X/c2mm"))


def _circle_points(fy, odd_square) -> int:
    """#{(a, b): a >= b >= 0, a^2 + b^2 = x}, as many as for the odd part y
    of x: from the factorization fy of y and whether y is a square.

    Half of (B + [x = k^2 or 2 k^2]), where B = prod(e + 1) over the primes
    p = 1 mod 4 counts the representations with a > 0, b >= 0, and is 0 when
    a prime p = 3 mod 4 divides x to an odd power.
    """
    B = 1
    for p, e in fy.items():
        if p % 4 == 1:
            B *= e + 1
        elif p % 4 == 3 and e % 2:
            return 0
    return (B + odd_square) // 2


def count_self_mirror(N: int) -> int:
    """Chiral toroidal groups of order N that equal their own mirror image.

    Costs one factorization of N; raises OrderError unless 1 <= N < _PSI12.
    """
    _check_order("count_self_mirror", N)
    e, (s0, _, odd_square, fy) = _odd_part(N)
    # the lattices of size x = 2^k y with a reflection or swapturn symmetry,
    # for the 1 row (x = N) and the . row (x = N/2): rectangular (m >= n,
    # m n = x), rhombic (m >= n, m n = x/2) and the circle points, less the
    # one on an axis or diagonal (a square lattice, already counted as
    # rectangular or rhombic); both rows start at (1, 1), so only their
    # excluded pairs drop out
    swapturn = _circle_points(fy, odd_square) - odd_square
    count = 0
    for row in (TOROIDAL_FAMILIES["1"], TOROIDAL_FAMILIES["."]):
        j = row.order_factor.bit_length() - 1
        if j <= e:
            k = e - j
            count += (((k + 1) * s0 + 1) // 2 + (k * s0 + 1) // 2 + swapturn
                      - sum(m * n == N >> j for m, n in row.excluded))
    for row in _SQUARE_SELF_MIRROR_ROWS:
        size, rem = divmod(N, row.order_factor)
        k = isqrt(size)
        count += not rem and k * k == size and row.in_range(k, k)
    return count


def brute_force_census(N: int) -> OrderCensus:
    """Oracle: enumerate catalog specs of order N, build, check distinctness."""
    if N > 32:
        raise ValueError("brute-force census is limited to N <= 32")
    specs = _toroidal_specs_of_order(N) + _other_specs_of_order(N)
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
