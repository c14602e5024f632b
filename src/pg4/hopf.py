"""Great circles, Hopf maps and bundles, Clifford tori.

A great circle K_p^q (p, q pure unit quaternions) is the fixpoint set of the
half-turn [p, q]; equivalently the set of rotations of the 2-sphere mapping
p to q.  Circles with fixed q form the left Hopf bundle H^q with Hopf map
x -> x q x̄.  Everything here is floating point (tolerance 1e-9); exactness
lives in the group layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, sin

import numpy as np

from .transform import Transform4, _mul4
from .algebra import quat_float4

TOL = 1e-9


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < TOL:
        raise ValueError("zero vector")
    return v / n


def _qmul(a, b):
    return np.array(_mul4(a, b))


def _conj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


def _pure(v):
    return np.array([0.0, v[0], v[1], v[2]])


def _exp_pure(p, theta: float):
    """exp(p*theta) = cos(theta) + p sin(theta) for a pure unit 3-vector p."""
    return np.concatenate(([cos(theta)], sin(theta) * np.asarray(p)))


def rotate_s2(x4, p):
    """[x] p = conj(x) p x on the 2-sphere."""
    q = _qmul(_qmul(_conj(x4), _pure(p)), x4)
    return q[1:]


@dataclass(frozen=True)
class GreatCircle:
    """The oriented great circle K_p^q: (p, q) and (-p, -q) are two circles."""

    p: tuple
    q: tuple

    @staticmethod
    def make(p, q) -> "GreatCircle":
        p, q = _unit(p), _unit(q)
        return GreatCircle(tuple(p), tuple(q))

    def base_point(self) -> np.ndarray:
        """Half-turn quaternion about unit(p+q); deterministic fallback at p=-q."""
        p, q = np.array(self.p), np.array(self.q)
        axis = p + q
        if np.linalg.norm(axis) < 1e-12:
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1.0
                u = e - np.dot(e, p) * p
                if np.linalg.norm(u) > 1e-9:
                    return _pure(_unit(u))
            raise ValueError("degenerate circle")
        return _pure(_unit(axis))

    def sample(self, theta: float) -> np.ndarray:
        """Point x0 * exp(q theta) on the circle."""
        return _qmul(self.base_point(), _exp_pure(self.q, theta))

    def contains(self, x, tol: float = TOL) -> bool:
        """x is fixed by the half-turn [p, q], which moves a point by twice
        its distance from the circle's plane."""
        return 2 * circle_residual(x, self) < tol


def circle_sample(K: GreatCircle, theta: float) -> np.ndarray:
    return K.sample(theta)


def circle_basis(K: GreatCircle):
    """Orthonormal pair spanning the circle's plane."""
    x0 = K.base_point()
    return x0, _qmul(x0, _pure(K.q))


def hopf_map(x, q0) -> np.ndarray:
    """Left Hopf map h^{q0}: x -> x q0 x̄ (a point of S^2)."""
    x = np.asarray(x, dtype=float)
    q = _qmul(_qmul(x, _pure(_unit(q0))), _conj(x))
    return q[1:]


def transform_circle(g: Transform4, K: GreatCircle) -> GreatCircle:
    """[l,r] K_p^q = K_{[l]p}^{[r]q};  * K⃗_p^q = K⃗_{-q}^{-p}."""
    p, q = np.array(K.p), np.array(K.q)
    if g.star:
        p, q = -q, -p
    lp = rotate_s2(np.array(quat_float4(g.l)), p)
    rq = rotate_s2(np.array(quat_float4(g.r)), q)
    return GreatCircle.make(lp, rq)


def circle_distance(K1: GreatCircle, K2: GreatCircle) -> float:
    """dist(K_p^q, K_r^q) = dist(p, r) / 2 for circles of a common bundle."""
    if np.allclose(K1.q, K2.q, atol=TOL):
        a, b = np.array(K1.p), np.array(K2.p)
    elif np.allclose(K1.p, K2.p, atol=TOL):
        a, b = np.array(K1.q), np.array(K2.q)
    else:
        raise ValueError("circles do not lie in a common Hopf bundle")
    return acos(max(-1.0, min(1.0, float(np.dot(a, b))))) / 2.0


def circle_residual(x, K: GreatCircle) -> float:
    """Distance from x to the circle's plane (well-conditioned membership test)."""
    u1, u2 = circle_basis(K)
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - np.dot(x, u1) * u1 - np.dot(x, u2) * u2))


def point_circle_distance(x, K: GreatCircle) -> float:
    u1, u2 = circle_basis(K)
    x = np.asarray(x, dtype=float)
    r = np.hypot(np.dot(x, u1), np.dot(x, u2))
    return acos(max(-1.0, min(1.0, r)))


@dataclass(frozen=True)
class CliffordTorus:
    """T_p^q, the points at distance pi/4 from K_p^q (signs immaterial)."""

    p: tuple
    q: tuple

    @staticmethod
    def make(p, q) -> "CliffordTorus":
        p, q = _unit(p), _unit(q)
        if tuple(p) < tuple(-p):
            p = -p
        if tuple(q) < tuple(-q):
            q = -q
        return CliffordTorus(tuple(p), tuple(q))

    def circle(self) -> GreatCircle:
        return GreatCircle.make(self.p, self.q)


def torus_distance(x, T: CliffordTorus) -> float:
    """|dist(x, K_p^q) - pi/4|; zero exactly on the torus."""
    return abs(point_circle_distance(x, T.circle()) - np.pi / 4)


def stabilizer_rotation_angle(phi: float, theta: float) -> float:
    """[exp p phi, exp q theta] rotates the oriented circle K_p^q by theta - phi."""
    return theta - phi


def tangential_slice_map(v) -> np.ndarray:
    """(x, y, z) -> (y/(1+x), z/(1+x)), the radial-contraction + projection map."""
    x, y, z = (float(c) for c in v)
    if x <= -1 + 1e-12:
        raise ValueError("south pole is not in the domain of the slice map")
    return np.array([y / (1 + x), z / (1 + x)])
