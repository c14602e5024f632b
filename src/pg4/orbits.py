"""Orbits, induced 3D groups, orbit circles, screw angles, and polar cells.

The cell of the polar orbit polytope at an orbit point v is the halfspace
intersection {x : <x,v> = 1, <x,u> <= 1 for u in the orbit}, a convex
3-polytope in the tangent hyperplane at v.  Faces correspond to the orbit
neighbors whose halfspaces are tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import pi, sqrt

import numpy as np
from scipy.spatial import HalfspaceIntersection, QhullError, cKDTree

from .algebra import AngleFraction, CycloQuat, angle_of, quat_float4, quat_neg, quat_sign_flip
from .catalog import GroupSpec, TUBICAL_FAMILIES, build, tubical_base
from .group import PointGroup
from .hopf import GreatCircle, circle_residual, rotate_s2
from .transform import apply_columns

GOLDEN = (1 + sqrt(5)) / 2

# fixed generic starting point, for reproducibility
GENERIC_START = np.array([0.9, 0.31, 0.23, 0.17]) / np.linalg.norm([0.9, 0.31, 0.23, 0.17])


@dataclass(frozen=True)
class Orbit:
    base: tuple
    points: tuple  # of 4-vectors (tuples)

    def array(self) -> np.ndarray:
        return np.array(self.points)

    def __len__(self):
        return len(self.points)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows kept by the greedy keep-first rule, ascending.

    Row j is dropped when ``np.linalg.norm`` puts it closer than ``tol`` to an
    earlier kept row.  A row bitwise equal to an earlier one shares its fate,
    so only the first copies go on.  A kd-tree finds their candidate pairs at
    twice the tolerance, and the rule runs over the close pairs in order of
    the later row, when the earlier row's fate is already known.
    """
    points = np.ascontiguousarray(points, dtype=float)
    rows = points.view(np.dtype((np.void, points.itemsize * points.shape[1]))).ravel()
    first = np.sort(np.unique(rows, return_index=True)[1])
    points = points[first]
    earlier, later = cKDTree(points).query_pairs(2 * tol, output_type="ndarray").T
    diff = points[later] - points[earlier]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # the norm of one vector may differ in the last bits: recompute it near tol
    near = np.flatnonzero(np.abs(dist - tol) <= 1e-12 * tol)
    close = dist < tol
    close[near] = [np.linalg.norm(diff[k]) < tol for k in near]
    earlier, later = earlier[close], later[close]
    by_later = np.argsort(later)
    keep = np.ones(len(points), dtype=bool)
    for i, j in zip(earlier[by_later].tolist(), later[by_later].tolist()):
        if keep[i]:
            keep[j] = False
    return first[keep]


def unit_vector(v) -> np.ndarray:
    """v / |v|; a ValueError when |v| is zero, not finite, or out of float range."""
    v = np.asarray(v, dtype=float)
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise ValueError(f"start point {v.tolist()} has no finite nonzero norm")
    return v / norm


def orbit(G: PointGroup, v) -> Orbit:
    v = unit_vector(v)
    pts = apply_columns(*G.float_columns, v)
    pts = pts[_dedup(pts, 1e-7)]
    return Orbit(tuple(v), tuple(tuple(p) for p in pts))


# ---------------------------------------------------------------------------
# induced 3D group of a tubical group

@dataclass(frozen=True)
class Induced3D:
    """Image of a tubical group on the Hopf sphere: pairs (l, improper)."""

    elements: frozenset  # of (quat, improper) with canonical sign
    name: str
    order: int


def _canon_sign(q):
    return quat_neg(q) if quat_sign_flip(q) else q


def induced_group(G: PointGroup) -> Induced3D:
    """[l, e_m^s] -> [l] and [l, j e_m^s] -> -[l]; kernel <[1, e_n]>."""
    els = set()
    for g in G.elements:
        if g.star:
            raise ValueError("tubical groups are chiral")
        if not isinstance(g.r, CycloQuat):
            raise ValueError("group does not preserve the standard Hopf bundle")
        els.add((_canon_sign(g.l), g.r.jbit))
    proper = frozenset(q for q, imp in els if not imp)
    improper = frozenset(q for q, imp in els if imp)
    name = _induced_name(proper, improper)
    return Induced3D(frozenset(els), name, len(els))


def _induced_name(proper, improper) -> str:
    from .constants import two_T
    base = {12: "T", 24: "O", 60: "I"}[len(proper)]
    if not improper:
        return "+" + base
    if base == "T" and len(improper) == 12:
        twoT_half = {_canon_sign(q) for q in two_T()}
        return "+-T" if improper <= twoT_half else "TO"
    return "+-" + base


# ---------------------------------------------------------------------------
# rotation centers of the induced groups

def _center_point(induced: str, kind: str) -> np.ndarray:
    I3 = {
        "5-fold": np.array([0.0, 1.0, GOLDEN]),
        "3-fold": np.array([1.0, 1.0, 1.0]),
        "2-fold": np.array([1.0, 0.0, 0.0]),
    }
    O3 = {
        "4-fold": np.array([0.0, 1.0, 0.0]),
        "3-fold": np.array([1.0, 1.0, 1.0]),
        "2-fold": np.array([0.0, 1.0, 1.0]),
    }
    T3 = {
        "3-fold": np.array([1.0, 1.0, 1.0]),
        "3-fold-I": np.array([-1.0, -1.0, -1.0]),
        "3-fold-II": np.array([1.0, 1.0, 1.0]),
        "2-fold": np.array([1.0, 0.0, 0.0]),
    }
    base = "T" if induced == "TO" else induced[-1]
    table = {"I": I3, "O": O3, "T": T3}[base]
    if kind not in table:
        raise ValueError(f"{kind} is not a rotation center of {induced}")
    p = table[kind]
    return p / np.linalg.norm(p)


def center_of(spec: GroupSpec, kind: str) -> np.ndarray:
    if spec.kind != "tubical":
        raise ValueError(f"{spec.spec_string()} is not tubical: rotation centers "
                         "are those of a tubical group's induced 3D group")
    base = tubical_base(spec.family)
    induced = TUBICAL_FAMILIES[base].induced
    return _center_point(induced, kind)


def orbit_circle_polygon(G: PointGroup, spec: GroupSpec, kind: str) -> int:
    """Number of orbit points on the orbit circle over a rotation center."""
    p = center_of(spec, kind)
    if spec.family != tubical_base(spec.family):  # right variant: mirror bundle
        raise ValueError("orbit_circle_polygon expects a left tubical group")
    K = GreatCircle.make(p, [1.0, 0.0, 0.0])
    v = K.sample(0.05)
    orb = orbit(G, v).array()
    on_circle = sum(1 for x in orb if circle_residual(x, K) < 1e-7)
    return on_circle


def circle_angle_data(G: PointGroup, p) -> set:
    """Exact (along, around) angle pairs (in units of pi) of the subgroup
    preserving the oriented orbit circle over p."""
    out = set()
    for g in G.elements:
        if g.star:
            continue
        if not isinstance(g.r, CycloQuat) or g.r.jbit:
            continue
        lf = np.array(quat_float4(g.l))
        if np.linalg.norm(rotate_s2(lf, p) - p) > 1e-9:
            continue
        u = angle_of(g.l).t
        if u != 0 and u != 1:
            s = lf[1] * p[0] + lf[2] * p[1] + lf[3] * p[2]
            a = u if s > 0 else -u
        else:
            a = u
        b = g.r.t
        out.add(((b - a) % 2, (b + a) % 2))
    return out


def circle_polygon_exact(G: PointGroup, p) -> int:
    """Polygon size on the orbit circle from the exact angle data."""
    return len({al for al, ar in circle_angle_data(G, p)})


def screw_angles(G: PointGroup, spec: GroupSpec, kind: str) -> list:
    """Exact screw angles (fractions of a full turn) between adjacent cells."""
    p = center_of(spec, kind)
    data = circle_angle_data(G, p)
    npoly = len({al for al, ar in data})
    step = Fraction(2, npoly)
    angles = sorted({(ar / 2) % 1 for al, ar in data if al == step})
    return [AngleFraction(a * 2) for a in angles]


# ---------------------------------------------------------------------------
# polar orbit polytope cells

@dataclass(frozen=True)
class Mesh:
    vertices: tuple   # of 3-vectors (tuples)
    faces: tuple      # of index cycles

    def counts(self):
        V = len(self.vertices)
        F = len(self.faces)
        E = sum(len(f) for f in self.faces) // 2
        return V, F, E


class DegenerateOrbitError(ValueError):
    pass


def _tangent_basis(at: np.ndarray) -> np.ndarray:
    """Orthonormal 3x4 basis of the hyperplane orthogonal to at."""
    M = np.eye(4) - np.outer(at, at)
    q, _ = np.linalg.qr(M[:, :])
    # pick the three columns orthogonal to at
    cols = [q[:, k] for k in range(4) if abs(np.dot(q[:, k], at)) < 1e-8]
    B = np.array(cols[:3])
    if B.shape != (3, 4):
        raise DegenerateOrbitError("could not build tangent basis")
    return B


def polar_cell(orb: Orbit, at) -> Mesh:
    """The polar-orbit-polytope cell at an orbit point."""
    at = np.asarray(at, dtype=float)
    at = at / np.linalg.norm(at)
    pts = orb.array()
    if np.linalg.matrix_rank(pts, tol=1e-8) < 4:
        raise DegenerateOrbitError("orbit does not span R^4")
    B = _tangent_basis(at)
    rows = []
    for u in pts:
        b = 1.0 - float(np.dot(at, u))
        if b < 1e-9:
            continue  # the point at itself (and near-duplicates)
        n = B @ u
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            if b < 0:
                raise DegenerateOrbitError("antipodal point makes the cell empty")
            continue
        rows.append((n / norm, b / norm))
    if not rows:
        raise DegenerateOrbitError("no bounding halfspaces")
    # dedupe parallel halfspaces, keeping the tightest
    uniq = {}
    for n, b in rows:
        key = tuple(np.round(n * 1e8).astype(np.int64))
        if key not in uniq or b < uniq[key][1]:
            uniq[key] = (n, b)
    A = np.array([n for n, b in uniq.values()])
    bvec = np.array([b for n, b in uniq.values()])
    try:
        hs = HalfspaceIntersection(np.hstack([A, -bvec[:, None]]), np.zeros(3))
    except (QhullError, ValueError) as exc:
        raise DegenerateOrbitError(f"unbounded or degenerate cell: {exc}") from exc
    verts = hs.intersections[_dedup(hs.intersections, 1e-9)]
    faces = []
    for i in range(len(A)):
        tight = [k for k, v in enumerate(verts) if abs(np.dot(A[i], v) - bvec[i]) < 1e-6]
        if len(tight) >= 3:
            faces.append(_order_face(verts, tight, A[i]))
    mesh = Mesh(tuple(tuple(v) for v in verts), tuple(faces))
    V, F, E = mesh.counts()
    if V - E + F != 2:
        raise DegenerateOrbitError(f"cell fails the Euler check: V={V} F={F} E={E}")
    return mesh


def lift_to_hyperplane(at, vertices) -> np.ndarray:
    """Map tangent-plane cell vertices back to points of the hyperplane <x,at>=1."""
    at = np.asarray(at, dtype=float)
    at = at / np.linalg.norm(at)
    B = _tangent_basis(at)
    return np.array([at + B.T @ np.asarray(z, dtype=float) for z in vertices])


def _order_face(verts, idx, normal):
    pts = np.array([verts[i] for i in idx])
    c = pts.mean(axis=0)
    e1 = pts[0] - c
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    ang = np.arctan2((pts - c) @ e2, (pts - c) @ e1)
    order = np.argsort(ang)
    return tuple(idx[k] for k in order)


def face_regularity(mesh: Mesh, face) -> float:
    """Max deviation of edge lengths from their mean (0 for regular polygons)."""
    pts = [np.array(mesh.vertices[i]) for i in face]
    edges = [np.linalg.norm(pts[i] - pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    m = np.mean(edges)
    return max(abs(e - m) for e in edges)


def face_planarity(mesh: Mesh, face) -> float:
    pts = np.array([mesh.vertices[i] for i in face])
    c = pts.mean(axis=0)
    _, s, _ = np.linalg.svd(pts - c)
    return s[-1] if len(s) == 3 else 0.0


def color_orbits(G: PointGroup, points) -> list:
    """Partition of a G-closed point set into G-orbits (lists of indices)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 4)
    gens = G.generators or tuple(G.elements)
    images = np.concatenate([
        apply_columns(g.star, quat_float4(g.l), quat_float4(g.r), pts.T) for g in gens])
    dist, where = cKDTree(pts).query(images)
    if np.any(dist >= 1e-6):
        raise ValueError("point set is not closed under the group")
    # label each point by the least index it reaches; that is constant on an orbit
    perms = where.reshape(len(gens), len(pts))
    labels = np.arange(len(pts))
    while True:
        reached = np.minimum(labels, labels[perms].min(axis=0))
        if np.array_equal(reached, labels):
            break
        labels = reached
    classes = {}
    for i, c in enumerate(labels.tolist()):
        classes.setdefault(c, []).append(i)
    return sorted(classes.values(), key=len, reverse=True)


# ---------------------------------------------------------------------------
# mesh export

def export_mesh(mesh: Mesh, fmt: str = "OFF") -> bytes:
    fmt = fmt.upper()
    V, F, E = mesh.counts()
    lines = []
    if fmt == "OFF":
        lines.append("OFF")
        lines.append(f"{V} {F} {E}")
        for v in mesh.vertices:
            lines.append(" ".join(f"{c:.12g}" for c in v))
        for f in mesh.faces:
            lines.append(f"{len(f)} " + " ".join(str(i) for i in f))
    elif fmt == "OBJ":
        for v in mesh.vertices:
            lines.append("v " + " ".join(f"{c:.12g}" for c in v))
        for f in mesh.faces:
            lines.append("f " + " ".join(str(i + 1) for i in f))
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    return ("\n".join(lines) + "\n").encode()


def parse_off(data: bytes) -> Mesh:
    lines = [ln for ln in data.decode().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "OFF":
        raise ValueError("not an OFF mesh: missing OFF header")
    V, F, _ = (int(x) for x in lines[1].split())
    verts = tuple(tuple(float(c) for c in lines[2 + i].split()) for i in range(V))
    faces = []
    for i in range(F):
        parts = lines[2 + V + i].split()
        faces.append(tuple(int(x) for x in parts[1:1 + int(parts[0])]))
    return Mesh(verts, tuple(faces))
