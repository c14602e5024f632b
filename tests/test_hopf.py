import random
from math import pi

import numpy as np
import pytest

from pg4.constants import two_I
from pg4.hopf import (
    CliffordTorus,
    GreatCircle,
    circle_basis,
    circle_distance,
    circle_residual,
    circle_sample,
    hopf_map,
    tangential_slice_map,
    torus_distance,
    transform_circle,
)
from pg4.transform import Transform4, apply

rng = np.random.default_rng(7)


def rand_s2():
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_fixpoint_characterization():
    for _ in range(60):
        p, q = rand_s2(), rand_s2()
        K = GreatCircle.make(p, q)
        for th in rng.uniform(0, 2 * pi, 6):
            x = K.sample(th)
            assert abs(np.linalg.norm(x) - 1) < 1e-12
            assert K.contains(x, 1e-9)


def test_circle_sample_walks_the_circle_basis():
    for _ in range(20):
        K = GreatCircle.make(rand_s2(), rand_s2())
        x0, x1 = circle_basis(K)
        for th in rng.uniform(0, 2 * pi, 4):
            x = circle_sample(K, th)
            assert np.allclose(x, np.cos(th) * x0 + np.sin(th) * x1, atol=1e-12)
            assert K.contains(x, 1e-9)


def test_sample_periodicity():
    K = GreatCircle.make(rand_s2(), rand_s2())
    assert np.allclose(K.sample(0.7), K.sample(0.7 + 2 * pi), atol=1e-12)


def test_hopf_map_values():
    assert np.allclose(hopf_map([1, 0, 0, 0], [1, 0, 0, 0]), [1, 0, 0])
    # h^i(j) = j i (-j) = -i
    assert np.allclose(hopf_map([0, 0, 1, 0], [1, 0, 0, 0]), [-1, 0, 0])


def test_fiber_constancy():
    for _ in range(40):
        p, q0 = rand_s2(), rand_s2()
        K = GreatCircle.make(p, q0)
        for th in rng.uniform(0, 2 * pi, 10):
            assert np.allclose(hopf_map(K.sample(th), q0), p, atol=1e-9)


def test_bundle_partition():
    q0 = rand_s2()
    p1, p2 = rand_s2(), rand_s2()
    K1, K2 = GreatCircle.make(p1, q0), GreatCircle.make(p2, q0)
    y = K2.sample(1.2)
    same = np.allclose(hopf_map(K1.sample(0.3), q0), hopf_map(y, q0), atol=1e-9)
    assert same == np.allclose(p1, p2)


def test_left_rotation_preserves_left_bundle():
    pool = list(two_I())
    q0 = np.array([1.0, 0, 0])
    for _ in range(50):
        g = Transform4(False, random.choice(pool), random.choice(pool))
        gl = Transform4(False, g.l, __import__("pg4.algebra", fromlist=["ONE"]).ONE)
        K = GreatCircle.make(rand_s2(), q0)
        K2 = transform_circle(gl, K)
        assert np.allclose(K2.q, q0, atol=1e-9)


def test_right_rotation_rotates_fibers():
    from pg4.hopf import _exp_pure, _qmul
    q0 = rand_s2()
    phi = 0.83
    r = _exp_pure(q0, phi)
    K = GreatCircle.make(rand_s2(), q0)
    for th in rng.uniform(0, 2 * pi, 8):
        x = K.sample(th)
        y = _qmul(x, r)  # [1, exp(q0 phi)]: x -> x r
        assert np.allclose(y, K.sample(th + phi), atol=1e-9)


def test_reversing_transform_circle():
    star = Transform4(True, __import__("pg4.algebra", fromlist=["ONE"]).ONE,
                      __import__("pg4.algebra", fromlist=["ONE"]).ONE)
    p, q = rand_s2(), rand_s2()
    K2 = transform_circle(star, GreatCircle.make(p, q))
    assert np.allclose(K2.p, -q) and np.allclose(K2.q, -p)


def test_transform_circle_numeric():
    pool = list(two_I())
    for _ in range(30):
        g = Transform4(random.random() < 0.5, random.choice(pool), random.choice(pool))
        K = GreatCircle.make(rand_s2(), rand_s2())
        K2 = transform_circle(g, K)
        for th in rng.uniform(0, 2 * pi, 8):
            assert circle_residual(apply(g, K.sample(th)), K2) < 1e-9


def test_distance_halving():
    q = rand_s2()
    for _ in range(50):
        p, r = rand_s2(), rand_s2()
        d = circle_distance(GreatCircle.make(p, q), GreatCircle.make(r, q))
        assert d == pytest.approx(np.arccos(np.clip(np.dot(p, r), -1, 1)) / 2, abs=1e-12)


def test_distance_against_sampled_minimum():
    q = rand_s2()
    p, r = rand_s2(), rand_s2()
    K1, K2 = GreatCircle.make(p, q), GreatCircle.make(r, q)
    ths = np.linspace(0, 2 * pi, 360, endpoint=False)
    P1 = np.array([K1.sample(t) for t in ths])
    P2 = np.array([K2.sample(t) for t in ths])
    dmin = np.arccos(np.clip(P1 @ P2.T, -1, 1)).min()
    assert circle_distance(K1, K2) == pytest.approx(dmin, abs=1e-3)


def test_absolutely_orthogonal():
    p, q = rand_s2(), rand_s2()
    K = GreatCircle.make(p, q)
    Kp = GreatCircle.make(p, -q)
    for _ in range(20):
        u = K.sample(rng.uniform(0, 2 * pi))
        w = Kp.sample(rng.uniform(0, 2 * pi))
        assert abs(np.dot(u, w)) < 1e-9


def test_torus_distance():
    p, q = rand_s2(), rand_s2()
    T = CliffordTorus.make(p, q)
    K = GreatCircle.make(p, q)
    assert torus_distance(K.sample(0.4), T) == pytest.approx(pi / 4, abs=1e-12)
    Kp = GreatCircle.make(p, -q)
    x = np.cos(pi / 4) * K.sample(0.1) + np.sin(pi / 4) * Kp.sample(2.0)
    assert torus_distance(x, T) < 1e-9


def test_stabilizer_rotation_angle():
    from pg4.hopf import stabilizer_rotation_angle
    assert stabilizer_rotation_angle(0.25, 0.25) == 0
    assert stabilizer_rotation_angle(0.25, 1.0) == 0.75


def test_tangential_slice_map():
    assert np.allclose(tangential_slice_map([1, 0, 0]), [0, 0])
    c0 = 1.0
    for t in np.linspace(-5, 5, 100):
        v = np.array([1.0, c0, t])
        v /= np.linalg.norm(v)
        y, z = tangential_slice_map(v)
        assert (y + 1 / c0) ** 2 + z ** 2 == pytest.approx((c0 ** 2 + 1) / c0 ** 2, abs=1e-9)
    with pytest.raises(ValueError):
        tangential_slice_map([-1, 0, 0])


def test_slice_map_is_contraction_plus_projection():
    # radial contraction toward (1,0,0) followed by central projection
    for _ in range(40):
        v = rand_s2()
        if v[0] <= -0.99:
            continue
        th = np.arccos(np.clip(v[0], -1, 1))
        if th < 1e-9:
            continue
        d = v - np.array([np.cos(th), 0, 0]) * 0  # direction in the (y,z) part
        p = v[1:] / np.sin(th)
        contracted = np.concatenate(([np.cos(th / 2)], np.sin(th / 2) * p))
        projected = contracted[1:] / contracted[0]
        assert np.allclose(tangential_slice_map(v), projected, atol=1e-9)
