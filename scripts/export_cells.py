"""Export polar-orbit-polytope cells for a sweep of tubical groups.

Writes one OFF file per (family, n, center) combination into the output
directory and prints the face census of each cell, reproducing the small-n
decompositions (120-cell dodecahedra, 48-cell truncated cubes, 24-cell
octahedra) and the tube slices for larger n.

Usage: python scripts/export_cells.py [OUTDIR]
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

from pg4.catalog import build, tubical_spec
from pg4.orbits import center_start, export_mesh, orbit, polar_cell

CASES = [
    ("+-[IxC]", 1, "5-fold"),
    ("+-[IxC]", 2, "5-fold"),
    ("+-[IxC]", 3, "5-fold"),
    ("+-[OxC]", 1, "4-fold"),
    ("+-[OxC]", 2, "4-fold"),
    ("+-[TxC]", 1, "3-fold"),
    ("+-1/2[OxC2]", 3, "4-fold"),
    ("+-1/3[TxC3]", 2, "3-fold-I"),
]


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("cells")
    outdir.mkdir(parents=True, exist_ok=True)
    for fam, n, kind in CASES:
        spec = tubical_spec(fam, n)
        G = build(spec)
        v = center_start(spec, kind)
        orb = orbit(G, v)
        pts = orb.array()
        at = pts[int(np.argmin(((pts - v) ** 2).sum(axis=1)))]
        cell = polar_cell(orb, at)
        census = Counter(len(f) for f in cell.faces)
        slug = fam.replace("/", "").replace("[", "").replace("]", "")
        path = outdir / f"{slug}_n{n}_{kind}.off"
        path.write_bytes(export_mesh(cell, "OFF"))
        V, F, E = cell.counts()
        print(f"{fam} n={n} {kind}: orbit {len(orb):5d}, cell V={V} F={F} E={E},"
              f" faces {dict(sorted(census.items()))} -> {path}")


if __name__ == "__main__":
    main()
