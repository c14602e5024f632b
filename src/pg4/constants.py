"""Named quaternions and the finite groups of quaternions.

The binary groups are 2I = <i_I, w>, 2O = <i_O, w>, 2T = <i, w>,
2D_2n = <e_n, j>, 2C_n = <e_n>, with

    w   = (-1 + i + j + k) / 2
    i_O = (j + k) / sqrt2
    i_I = (i + (sqrt5-1)/2 j + (sqrt5+1)/2 k) / 2
    e_n = cos(pi/n) + i sin(pi/n)

plus the dagger/prime variants of i_I obtained by flipping the sign of
sqrt5, used by the simplex groups.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import I as QI, J as QJ, K as QK
from .algebra import MINUS_ONE, ONE, CycloQuat, FieldElem, HALF, SQRT2, SQRT5, exp_i, quat
from .group import quat_closure

F = FieldElem
Q = Fraction

OMEGA = quat(Q(-1, 2), Q(1, 2), Q(1, 2), Q(1, 2))
OMEGA_BAR = quat(Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2))
I_O = quat(0, 0, HALF * SQRT2, HALF * SQRT2)
I_I = quat(0, Q(1, 2), (SQRT5 - 1) * Q(1, 4), (SQRT5 + 1) * Q(1, 4))
I_I_DAG = quat(0, Q(1, 2), (-SQRT5 - 1) * Q(1, 4), (F(1) - SQRT5) * Q(1, 4))
I_I_PRIME = quat(0, (F(1) - SQRT5) * Q(1, 4), (-SQRT5 - 1) * Q(1, 4), Q(1, 2))

MINUS_J = CycloQuat(1, 1)
MINUS_K = CycloQuat(Q(3, 2), 1)


def e_n(n: int) -> CycloQuat:
    """e_n = exp(i pi / n), of order 2n."""
    return exp_i(Q(1, n))


NAMED = {
    "w": OMEGA,
    "wb": OMEGA_BAR,
    "iO": I_O,
    "iI": I_I,
    "iIdag": I_I_DAG,
    "iI'": I_I_PRIME,
    "i": QI,
    "j": QJ,
    "k": QK,
    "1": ONE,
    "-1": MINUS_ONE,
}


@lru_cache(maxsize=None)
def two_I() -> frozenset:
    return quat_closure([I_I, OMEGA])


@lru_cache(maxsize=None)
def two_O() -> frozenset:
    return quat_closure([I_O, OMEGA])


@lru_cache(maxsize=None)
def two_T() -> frozenset:
    return quat_closure([QI, OMEGA])


@lru_cache(maxsize=None)
def quaternion_Q8() -> frozenset:
    """2D_4 = {±1, ±i, ±j, ±k}, the only normal subgroup of order 8."""
    return quat_closure([QI, QJ])


@lru_cache(maxsize=None)
def two_C(n: int) -> frozenset:
    return quat_closure([e_n(n)])


@lru_cache(maxsize=None)
def two_D(n: int) -> frozenset:
    """2D_2n = <e_n, j>, of order 4n."""
    return quat_closure([e_n(n), QJ])
