"""Print the fingerprint and the classification of every catalog spec.

One tab-separated line per ``list_catalog(N)`` spec: the spec string, its
order, the fingerprint of the built group, and the spec string of
``classify(build(spec))``.  Two revisions that agree on the library's exact
core print identical output, so a diff of two runs guards a change to it.

Usage: python scripts/catalog_digest.py --max-order N
"""

import argparse

from pg4.catalog import build, list_catalog
from pg4.classify import classify
from pg4.group import fingerprint


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", dest="max_order", type=int, required=True)
    args = ap.parse_args()
    for sp in list_catalog(args.max_order):
        G = build(sp)
        print(f"{sp}\t{len(G)}\t{fingerprint(G)}\t{classify(G)}")


if __name__ == "__main__":
    main()
