"""Record the benchmark's fixtures from the library as it is now.

The fixtures hold the inputs that must stay identical between the two
commits of a comparison (the toroidal catalog digest, the generator files)
and the outputs recorded when the benchmark was defined (fingerprints, CLI
stdout, OFF digests, census values).  Outputs must stay byte-identical, so a
change to the library never re-records them.

Usage, from the repository root: PYTHONPATH=src python3 perfbench/record_fixtures.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "scripts")]

from export_cells import CASES as EXPORT_CASES  # noqa: E402
from workloads import FIXTURES, SIZES, _export_cell, sha256, toroidal_digest  # noqa: E402

from pg4 import cli  # noqa: E402
from pg4.catalog import (  # noqa: E402
    AXIAL_FAMILIES,
    POLYHEDRAL_ORDERS,
    TUBICAL_FAMILIES,
    TUBICAL_LEFT,
    GroupSpec,
    build,
    build_unchecked,
    list_catalog,
    polyhedral_spec,
    spec_order,
    tubical_spec,
)
from pg4.counting import count_order  # noqa: E402
from pg4.group import fingerprint  # noqa: E402
from pg4.orbits import center_of  # noqa: E402
from pg4.toroidal import canonicalize_duplicates, duplication_rows  # noqa: E402
from pg4.transform import transform_to_json  # noqa: E402

# tests/test_acceptance.py, test_c10 and test_c11
POLAR_CELLS = [
    {"spec": "tub:+-[IxC]:n=1", "vfe": [20, 12, 30], "sizes": [5] * 12, "regular": True},
    {"spec": "tub:+-[OxC]:n=1", "vfe": [24, 14, 36], "sizes": [3] * 8 + [8] * 6,
     "regular": False},
    {"spec": "tub:+-[TxC]:n=1", "vfe": [6, 8, 12], "sizes": [3] * 8, "regular": True},
]
COLORINGS = [
    {"cell": "tub:+-[IxC]:n=1", "big": "poly:+-[IxI]",
     "expected": {"vertices": 600, "classes": [120] * 5}},
    {"cell": "tub:+-[OxC]:n=1", "big": "poly:+-[OxO]",
     "expected": {"vertices": 288, "classes": [48] * 6}},
]

# tests/test_acceptance.py, test_c04
C04 = {
    "100": {"total": 192, "self_mirror": 16,
            "per_family": {"tor:1": 113, "tor:.": 48, "tor:\\": 3, "tor:/": 3, "tor:X": 1,
                           "tor:|": 15, "tor:+": 7, "tor:L": 2}},
}
C04_7200 = {"chiral": 19342, "achiral": 216}

POOL_SIZE = 8


def write(name: str, obj) -> None:
    (FIXTURES / f"{name}.json").write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def e1_roundtrip():
    tor = [sp for sp in list_catalog(200) if sp.kind == "toroidal"]
    pairs = [[tubical_spec(fam, n).spec_string(),
              tubical_spec(TUBICAL_FAMILIES[fam].mirror_name, n).spec_string()]
             for fam in TUBICAL_LEFT for n in range(TUBICAL_FAMILIES[fam].n_min, 9)]
    rows = [{"spec": sp.spec_string(),
             "generators": [json.dumps(transform_to_json(g), sort_keys=True)
                            for g in build_unchecked(sp).generators],
             "expected": canonicalize_duplicates(sp).spec_string()}
            for sp in duplication_rows(20)]
    write("e1_roundtrip", {"toroidal_count": len(tor), "toroidal_digest": toroidal_digest(tor),
                           "tubical_pairs": pairs, "rows": rows})


def e2_polyhedral():
    specs = [polyhedral_spec(n) for n in POLYHEDRAL_ORDERS]
    specs += [GroupSpec("axial", f) for f in AXIAL_FAMILIES]
    specs.sort(key=lambda s: (spec_order(s), s.kind, s.family, s.params))  # list_catalog order
    groups = []
    for sp in specs:
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["build", sp.spec_string()])
        groups.append({"spec": sp.spec_string(), "order": spec_order(sp),
                       "fingerprint": str(fingerprint(build(sp))), "cli_stdout": out.getvalue()})
    write("e2_polyhedral", {"groups": groups})


def e3_census():
    values = {"7200": C04_7200}
    pool = {}
    mags = {m for size in SIZES["e3_census"].values() for m in size["magnitudes"]}
    for mag in sorted(mags):
        # multiples of 8 within 1% of the magnitude: the same branches, nearly the same cost
        step = 8 * max(1, mag // (8 * 100 * POOL_SIZE))
        pool[str(mag)] = [mag - mag % 8 + step * k for k in range(POOL_SIZE)]
        for N in pool[str(mag)]:
            c = count_order(N)
            values[str(N)] = {"total": c.total, "chiral": c.chiral, "achiral": c.achiral}
    write("e3_census", {"c04": C04, "fixed": [7200], "values": values, "pool": pool})


def e4_geometry():
    cells = []
    for fam, n, kind in EXPORT_CASES:
        spec = tubical_spec(fam, n)
        got = _export_cell(build(spec), center_of(spec, kind))
        got["off"] = sha256(got["off"])
        cells.append({"family": fam, "n": n, "kind": kind, "expected": got})
    orbit_group = {"full": {"spec": "poly:+-[IxI].2", "order": 14400},
                   "tiny": {"spec": "poly:+-[OxO]", "order": 1152}}
    write("e4_geometry", {"export_cells": cells, "polar_cells": POLAR_CELLS,
                          "colorings": COLORINGS, "orbit_group": orbit_group})


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for record in (e1_roundtrip, e2_polyhedral, e3_census, e4_geometry):
        record()
        print("recorded", record.__name__)
