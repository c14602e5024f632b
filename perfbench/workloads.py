"""The benchmark's workloads: inputs made from a seed, timed ops and checks.

Each workload function takes a ``random.Random``, a size table and its
fixture, and returns the list of ops of one cold run; it runs in set-up
time, after the sample's first ``import pg4``.  An op's ``fn`` is
timed; its ``check`` runs after the timed region and compares the output with
an independent source or with a value recorded in ``fixtures/``.  A changed
input is not re-sampled: it raises ``InputChanged`` and the run fails.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class InputChanged(RuntimeError):
    """An input differs from the one recorded when the benchmark was defined."""


class Op(NamedTuple):
    kind: str  # ops of one kind share a latency distribution in the report
    name: str
    fn: Callable[[], Any]
    check: Callable[[Any], bool]


def load_fixture(workload: str) -> dict:
    return json.loads((FIXTURES / f"{workload}.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stratified(items: list, k: int, rng) -> list:
    """One item from each of k equal slices of ``items``.

    Slices of a list sorted by cost keep the sample's total cost nearly the
    same for every seed, so seeds change inputs without changing the load.
    """
    n = len(items)
    return [items[rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]


def _spec_is(want: str, got) -> bool:
    return got.spec_string() == want


# ---------------------------------------------------------------------------
# E1: classification round trips through two front doors

def toroidal_digest(specs) -> str:
    return sha256("\n".join(sp.spec_string() for sp in specs).encode())


def _roundtrip(sp):
    """Catalog door: classify(build(sp))."""
    from pg4.catalog import build
    from pg4.classify import classify
    return classify(build(sp))


def _classify_lines(lines):
    """Generator-file door, the `pg4 classify --generators` path."""
    from pg4.classify import classify
    from pg4.group import generate
    from pg4.transform import transform_from_json
    return classify(generate([transform_from_json(json.loads(ln)) for ln in lines]))


def max_param(text: str) -> int:
    return max(int(v) for v in re.findall(r"=(-?\d+)", text))


def e1_roundtrip(rng, size, fx) -> list[Op]:
    from pg4.catalog import list_catalog, parse_spec, spec_order

    tor = [sp for sp in list_catalog(200) if sp.kind == "toroidal"]
    if len(tor) != fx["toroidal_count"] or toroidal_digest(tor) != fx["toroidal_digest"]:
        raise InputChanged("toroidal specs of list_catalog(200) differ from the fixture")
    specs = stratified(tor, size["toroidal"], rng)
    # tubical (family, n <= 8) pairs by order; one side, left or mirrored, of each pick
    pairs = sorted(fx["tubical_pairs"], key=lambda pair: spec_order(parse_spec(pair[0])))
    specs += [parse_spec(rng.choice(pair)) for pair in stratified(pairs, size["tubical"], rng)]
    ops = [Op("catalog", sp.spec_string(), partial(_roundtrip, sp),
              partial(_spec_is, sp.spec_string())) for sp in specs]
    # duplication_rows(max_param): the rows whose parameters are all <= max_param
    ops += [Op("generators", r["spec"], partial(_classify_lines, r["generators"]),
               partial(_spec_is, r["expected"]))
            for r in fx["rows"] if max_param(r["spec"]) <= size["max_param"]]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# E2: the Q(sqrt2, sqrt5) field path, run cold

def _cli_build_and_classify(text):
    from pg4 import cli
    from pg4.catalog import build, parse_spec
    from pg4.classify import classify
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["build", text])
    return rc, out.getvalue(), classify(build(parse_spec(text))).spec_string()


def _cli_ok(row, got) -> bool:
    return got == (0, row["cli_stdout"], row["spec"])


def _build_fp_classify(text):
    from pg4.catalog import build, parse_spec
    from pg4.classify import classify
    from pg4.group import fingerprint
    G = build(parse_spec(text))
    return str(fingerprint(G)), classify(G).spec_string()


def _fp_ok(row, got) -> bool:
    return got == (row["fingerprint"], row["spec"])


def e2_polyhedral(rng, size, fx) -> list[Op]:
    rows = {r["spec"]: r for r in fx["groups"]}
    first = rows[size["cli_spec"]]
    ops = [Op("cli", first["spec"], partial(_cli_build_and_classify, first["spec"]),
              partial(_cli_ok, first))]
    rest = [r for r in fx["groups"] if r is not first and r["spec"] not in size["skip"]]
    rest = rest[:size["groups"]]
    ops += [Op("finite", r["spec"], partial(_build_fp_classify, r["spec"]), partial(_fp_ok, r))
            for r in rest]
    return ops


# ---------------------------------------------------------------------------
# E3: closed-form census

def _census(N, self_mirror):
    from pg4.counting import count_order, count_self_mirror
    c = count_order(N)
    out = {"total": c.total, "chiral": c.chiral, "achiral": c.achiral,
           "per_family": dict(c.per_family)}
    if self_mirror:
        out["self_mirror"] = count_self_mirror(N)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _sweep_ok(N, M, fx, spec_counts, got) -> bool:
    """Independent sources: spec enumeration, brute force, test values, primes."""
    if not spec_counts:  # built on the first check, outside the timed region
        from collections import Counter

        from pg4.catalog import list_catalog, spec_order
        spec_counts.update(Counter(spec_order(sp) for sp in list_catalog(M)))
    if got["total"] != spec_counts.get(N, 0):
        return False
    if N <= 32:
        from pg4.counting import brute_force_census
        brute = brute_force_census(N)
        if brute.total != got["total"] or any(
                got["per_family"].get(k, 0) != v for k, v in brute.per_family.items()):
            return False
    if N > 2 and is_prime(N) and got["total"] != (N + 3) // 2:
        return False
    want = dict(fx["c04"].get(str(N), {}))
    families = want.pop("per_family", {})
    return (all(got[k] == v for k, v in want.items())
            and all(got["per_family"][f] == n for f, n in families.items()))


def _large_ok(want, got) -> bool:
    return all(got[k] == v for k, v in want.items())


def e3_census(rng, size, fx) -> list[Op]:
    M = size["sweep"]
    spec_counts: dict = {}
    ops = [Op("sweep", f"N={N}", partial(_census, N, True),
              partial(_sweep_ok, N, M, fx, spec_counts)) for N in range(1, M + 1)]
    for N in fx["fixed"]:
        ops.append(Op("large", f"N={N}", partial(_census, N, False),
                      partial(_large_ok, fx["values"][str(N)])))
    for mag in size["magnitudes"]:
        p = _next_prime(mag + rng.randrange(mag // 100))
        ops.append(Op("large", f"prime N={p}", partial(_census, p, False),
                      partial(_large_ok, {"total": (p + 3) // 2})))
        N = rng.choice(fx["pool"][str(mag)])
        ops.append(Op("large", f"N={N}", partial(_census, N, False),
                      partial(_large_ok, fx["values"][str(N)])))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# E4: float geometry

def _nearest(pts, v):
    import numpy as np
    return pts[int(np.argmin(((pts - v) ** 2).sum(axis=1)))]


def _export_cell(G, p):
    """One case of scripts/export_cells.py: orbit -> polar_cell -> OFF bytes."""
    from collections import Counter

    from pg4.hopf import GreatCircle
    from pg4.orbits import export_mesh, orbit, polar_cell
    v = GreatCircle.make(p, [1.0, 0.0, 0.0]).sample(0.05)
    orb = orbit(G, v)
    cell = polar_cell(orb, _nearest(orb.array(), v))
    census = Counter(len(f) for f in cell.faces)
    return {"orbit": len(orb), "vfe": list(cell.counts()),
            "faces": {str(k): n for k, n in sorted(census.items())},
            "off": export_mesh(cell, "OFF")}


def _unit_cell(G):
    from pg4.orbits import orbit, polar_cell
    orb = orbit(G, [1, 0, 0, 0])
    at = next(p for p in orb.points if abs(p[0] - 1) < 1e-9)
    return polar_cell(orb, at), at


def _polar_cell(G):
    """test_c10: the polar cell at [1,0,0,0]."""
    return _unit_cell(G)[0]


def _coloring(G_cell, G_big):
    """test_c11: orbit classes of G_cell on the vertex orbit of G_big."""
    import numpy as np

    from pg4.orbits import color_orbits, lift_to_hyperplane, orbit
    cell, at = _unit_cell(G_cell)
    v4 = lift_to_hyperplane(at, cell.vertices)
    verts = orbit(G_big, v4[0] / np.linalg.norm(v4[0]))
    classes = color_orbits(G_cell, verts.points)
    return {"vertices": len(verts), "classes": sorted(len(c) for c in classes)}


def _orbit_size(G, v):
    from pg4.orbits import orbit
    return len(orbit(G, v))


def _cell_ok(want, cell) -> bool:
    from pg4.orbits import face_planarity, face_regularity
    if list(cell.counts()) != want["vfe"] or sorted(len(f) for f in cell.faces) != want["sizes"]:
        return False
    return all(face_planarity(cell, f) < 1e-6
               and (not want["regular"] or face_regularity(cell, f) < 1e-6)
               for f in cell.faces)


def _equal(want, got) -> bool:
    return got == want


def _export_ok(want, got) -> bool:
    return {**got, "off": sha256(got["off"])} == want


def e4_geometry(rng, size, fx) -> list[Op]:
    import numpy as np

    from pg4.catalog import build, parse_spec, tubical_spec
    from pg4.orbits import center_of

    groups = {}

    def group(text):
        if text not in groups:
            groups[text] = build(parse_spec(text))
        return groups[text]

    ops = []
    for case in fx["export_cells"][:size["export_cells"]]:
        spec = tubical_spec(case["family"], case["n"])
        center = center_of(spec, case["kind"])
        ops.append(Op("export", f"{spec} {case['kind']}",
                      partial(_export_cell, group(spec.spec_string()), center),
                      partial(_export_ok, case["expected"])))
    for case in fx["polar_cells"][:size["polar_cells"]]:
        ops.append(Op("cell", case["spec"], partial(_polar_cell, group(case["spec"])),
                      partial(_cell_ok, case)))
    for case in fx["colorings"][:size["colorings"]]:
        ops.append(Op("coloring", f"{case['cell']} on {case['big']}",
                      partial(_coloring, group(case["cell"]), group(case["big"])),
                      partial(_equal, case["expected"])))
    big = fx["orbit_group"][size["orbit_group"]]
    for _ in range(size["orbits"]):
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(4)])
        ops.append(Op("orbit", big["spec"], partial(_orbit_size, group(big["spec"]), v),
                      partial(_equal, big["order"])))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "e1_roundtrip": e1_roundtrip,
    "e2_polyhedral": e2_polyhedral,
    "e3_census": e3_census,
    "e4_geometry": e4_geometry,
}

# Sizes of one cold run.  "tiny" is the self-test's size.
SIZES = {
    "e1_roundtrip": {"full": {"toroidal": 200, "tubical": 16, "max_param": 6},
                     "tiny": {"toroidal": 20, "tubical": 3, "max_param": 2}},
    "e2_polyhedral": {"full": {"cli_spec": "poly:+-[OxO].2", "skip": ["poly:+-[IxI].2"],
                               "groups": 46},
                      "tiny": {"cli_spec": "poly:+-[TxT]", "skip": [], "groups": 6}},
    "e3_census": {"full": {"sweep": 200, "magnitudes": [100_000, 1_000_000, 3_000_000]},
                  "tiny": {"sweep": 34, "magnitudes": [10_000]}},
    "e4_geometry": {"full": {"export_cells": 8, "polar_cells": 3, "colorings": 2,
                             "orbit_group": "full", "orbits": 2},
                    "tiny": {"export_cells": 2, "polar_cells": 1, "colorings": 0,
                             "orbit_group": "tiny", "orbits": 1}},
}
