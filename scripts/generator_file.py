"""Print a catalog group's generators as a generator file for
``pg4 classify --generators``: one JSON transform per line.

The generators are those of ``build_unchecked``, so a spec outside the
overview table's parameter ranges is written too.

Usage: python scripts/generator_file.py SPEC
"""

import json
import sys

from pg4.catalog import build_unchecked, parse_spec
from pg4.transform import transform_to_json


def main():
    G = build_unchecked(parse_spec(sys.argv[1]))
    print("\n".join(json.dumps(transform_to_json(g)) for g in G.generators))


if __name__ == "__main__":
    main()
