"""Command-line interface.

Subcommands: build, fingerprint, classify, count, orbit, cell, catalog.
JSON goes to stdout (schema pg4/1), meshes to --out files.  Exit codes:
0 success, 1 parse error, 2 domain error, 141 (128 + SIGPIPE) when the
reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .catalog import ParseError, SpecError, build, cs_name_type1, list_catalog, parse_spec, spec_order
from .classify import classify
from .counting import count_order, count_self_mirror
from .group import ClosureCapExceeded, fingerprint, is_chiral, order
from .transform import transform_from_json

SCHEMA = "pg4/1"


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _cmd_build(args):
    G = build(parse_spec(args.spec))
    _emit({
        "schema": SCHEMA,
        "spec": args.spec,
        "order": order(G),
        "chiral": is_chiral(G),
        "fingerprint": str(fingerprint(G)),
    })


def _cmd_fingerprint(args):
    G = build(parse_spec(args.spec))
    sys.stdout.write(str(fingerprint(G)) + "\n")


def _cmd_classify(args):
    gens = []
    with open(args.generators) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    gens.append(transform_from_json(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
    from .group import generate
    G = generate(gens)
    spec = classify(G)
    _emit({
        "schema": SCHEMA,
        "spec": spec.spec_string(),
        "order": order(G),
        "fingerprint": str(fingerprint(G)),
    })


def _cmd_count(args):
    c = count_order(args.N)
    out = {"schema": SCHEMA, "order": args.N, "total": c.total,
           "chiral": c.chiral, "achiral": c.achiral}
    if args.breakdown:
        out["families"] = {k: v for k, v in sorted(c.per_family.items()) if v}
    if args.self_mirror:
        out["self_mirror"] = count_self_mirror(args.N)
    _emit(out)


def _resolve_start(args, spec):
    from .orbits import GENERIC_START, center_start, unit_vector

    if args.point:
        try:
            v = [float(x) for x in args.point.split(",")]
        except ValueError:
            v = []
        if len(v) != 4:
            raise SpecError("--point: needs four comma-separated coordinates")
        try:
            return unit_vector(v)
        except ValueError:
            raise SpecError(f"--point: {args.point} has no finite nonzero norm") from None
    if args.center:
        return center_start(spec, args.center)
    return GENERIC_START


def _cmd_orbit(args):
    from .orbits import orbit

    spec = parse_spec(args.spec)
    G = build(spec)
    v = _resolve_start(args, spec)
    orb = orbit(G, v)
    for p in orb.points:
        _emit({"point": [round(c, 12) for c in p]})


def _cmd_cell(args):
    import numpy as np

    from .orbits import export_mesh, orbit, polar_cell

    spec = parse_spec(args.spec)
    G = build(spec)
    v = _resolve_start(args, spec)
    orb = orbit(G, v)
    pts = orb.array()
    mesh = polar_cell(orb, pts[int(np.argmin(((pts - v) ** 2).sum(axis=1)))])
    data = export_mesh(mesh, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
        V, F, E = mesh.counts()
        _emit({"schema": SCHEMA, "out": args.out, "vertices": V, "faces": F, "edges": E})
    else:
        sys.stdout.buffer.write(data)


def _cmd_catalog(args):
    for sp in list_catalog(args.max_order):
        row = {"spec": sp.spec_string(), "order": spec_order(sp)}
        if sp.kind == "toroidal" and sp.family == "1" and args.cs_names:
            row["cs_name"] = cs_name_type1(sp)
        if sp.kind == "polyhedral":
            row["coxeter"] = catalog.family_row(sp).coxeter
        _emit(row)


def _start_options(p):
    start = p.add_mutually_exclusive_group()
    start.add_argument("--point")
    start.add_argument("--center")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pg4", description="4-dimensional point groups")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct a group and print its summary")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("fingerprint", help="print the canonical fingerprint string")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("classify", help="classify a generator file (JSON lines)")
    p.add_argument("--generators", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("count", help="census of groups of a given order")
    p.add_argument("N", type=int)
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--self-mirror", dest="self_mirror", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("orbit", help="orbit of a point, one JSON object per line")
    p.add_argument("spec")
    _start_options(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("cell", help="polar orbit polytope cell as OFF/OBJ")
    p.add_argument("spec")
    _start_options(p)
    p.add_argument("--format", choices=["off", "obj"], default="off")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("catalog", help="list catalog specs up to an order bound")
    p.add_argument("--max-order", dest="max_order", type=int, required=True)
    p.add_argument("--cs-names", dest="cs_names", action="store_true")
    p.set_defaults(func=_cmd_catalog)

    args = ap.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except ParseError as exc:
        sys.stderr.write(f"error: {args.cmd}: {exc}\n")
        return 1
    except BrokenPipeError:
        # the reader has gone (``| head``); send what is still buffered to
        # devnull, so the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {args.cmd}: {exc}\n")
        return 2
    except ClosureCapExceeded as exc:
        sys.stderr.write(f"error: {args.cmd}: group closure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
