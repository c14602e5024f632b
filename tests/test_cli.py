import json
import subprocess
import sys

import pytest


def run(*args, **kw):
    return subprocess.run([sys.executable, "-m", "pg4.cli", *args],
                          capture_output=True, text=True, **kw)


def test_count():
    r = run("count", "100", "--breakdown", "--self-mirror")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["schema"] == "pg4/1"
    assert d["total"] == 192 and d["self_mirror"] == 16
    assert d["families"]["tor:1"] == 113


@pytest.mark.parametrize("N", ["-4", "0", "318665857834031151167461"])
def test_count_refuses_bad_orders(N):
    r = run("count", "--", N)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: count: count_order(") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


def test_build_and_fingerprint():
    r = run("build", "tub:+-[IxC]:n=5")
    d = json.loads(r.stdout)
    assert d["order"] == 600 and d["chiral"]
    r = run("fingerprint", "tor:|/pg:m=2,n=4")
    assert r.stdout.strip() == "0|0:2 0|1:2 1|1/4:4 1|3/4:4 1|1/2:4 *1/2:16"


def test_deterministic_output():
    a = run("build", "poly:+-[TxT]").stdout
    b = run("build", "poly:+-[TxT]").stdout
    assert a == b


def test_cell_off(tmp_path):
    out = tmp_path / "cell.off"
    r = run("cell", "tub:+-[IxC]:n=1", "--format", "off", "--out", str(out))
    d = json.loads(r.stdout)
    assert (d["vertices"], d["faces"], d["edges"]) == (20, 12, 30)
    lines = out.read_text().splitlines()
    assert lines[0] == "OFF" and lines[1] == "20 12 30"


@pytest.mark.parametrize("spec,center,vfe", [
    ("tub:+-[IxC]:n=5", "5-fold", (20, 12, 30)),
    ("tub:+-[CxI]:n=5", "5-fold", (20, 12, 30)),
    ("tub:+-[OxC]:n=3", "3-fold", (24, 14, 36)),
    ("tub:+-[CxO]:n=3", "3-fold", (24, 14, 36)),
])
def test_cell_center_right_variant(tmp_path, spec, center, vfe):
    # a right variant is the mirror image of its left variant: the same cell
    r = run("cell", spec, "--center", center, "--out", str(tmp_path / "cell.off"))
    d = json.loads(r.stdout)
    assert (d["vertices"], d["faces"], d["edges"]) == vfe


def test_orbit_points():
    r = run("orbit", "tub:+-[TxC]:n=1", "--point", "1,0,0,0")
    lines = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert len(lines) == 24
    assert all(len(d["point"]) == 4 for d in lines)


def test_classify_generator_file(tmp_path):
    from pg4.catalog import build, parse_spec
    from pg4.transform import transform_to_json
    G = build(parse_spec("tor:1:m=2,n=5,s=1"))
    path = tmp_path / "gens.jsonl"
    path.write_text("\n".join(json.dumps(transform_to_json(g)) for g in G.generators))
    r = run("classify", "--generators", str(path))
    assert json.loads(r.stdout)["spec"] == "tor:1:m=2,n=5,s=1"


def test_catalog_listing():
    r = run("catalog", "--max-order", "12", "--cs-names")
    rows = [json.loads(ln) for ln in r.stdout.strip().splitlines()]
    assert all(rows[i]["order"] <= rows[i + 1]["order"] for i in range(len(rows) - 1))
    t1 = [row for row in rows if row["spec"].startswith("tor:1:")]
    assert all("cs_name" in row for row in t1)


def test_error_exit_codes():
    r = run("build", "tub:nope:n=3")
    assert r.returncode == 1 and r.stderr.startswith("error: build: ")
    # a repeated or unknown parameter name, or a digit outside ASCII, does not parse
    for text, message in (("tub:+-[IxC]:n=3,n=1", "parameter 'n' given twice"),
                          ("tor:1:m=1,n=1,s=0,x=3", "unknown parameter 'x'"),
                          ("tor:1:m=\u0663,n=1,s=0", "bad integer in 'm=\u0663'")):
        r = run("build", text)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith(f"error: build: {message}") and r.stderr.count("\n") == 1
        assert "Traceback" not in r.stderr
    r = run("build", "tor:X/c2mm:m=1,n=5")
    assert r.returncode == 2 and r.stderr.startswith("error: build: ")
    assert "\n" not in r.stderr.strip()
    r = run("classify", "--generators", "no/such/file.jsonl")
    assert r.returncode == 2 and r.stderr.startswith("error: classify: ")
    r = run("fingerprint", "tor:L:a=1,b=0")
    assert r.returncode == 2 and r.stderr.startswith("error: fingerprint: ")
    r = run("orbit", "tor:1:m=3,n=5,s=1", "--center", "cyclic")
    assert r.returncode == 2 and r.stderr.startswith("error: orbit: tor:1:m=3,n=5,s=1 ")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr
    # --point and --center name the start twice: a usage error, before any build
    for cmd in ("orbit", "cell"):
        r = run(cmd, "poly:+-[TxT]", "--point", "1,0,0,0", "--center", "cyclic")
        assert r.returncode == 2 and r.stdout == "" and "Traceback" not in r.stderr
        assert r.stderr.startswith("usage: pg4 ") and "not allowed with argument" in r.stderr


_IDENTITY = {"cyc": {"t": "0", "j": False}}
_ZERO = ["0", "0", "0", "0"]


@pytest.mark.parametrize("line, message", [
    (json.dumps({"star": False, "l": _IDENTITY}), "a transformation is "),
    ("[1,2]", "a transformation is "),
    (json.dumps({"star": False, "l": {"alg": [["1", "0", "0", "0"], ["1", "0", "0", "0"],
                                              _ZERO, _ZERO]}, "r": _IDENTITY}),
     "AlgQuat"),  # 1 + i: not a unit
    (json.dumps({"star": False, "l": {"alg": [["3/5", "0", "0", "0"], ["4/5", "0", "0", "0"],
                                              _ZERO, _ZERO]}, "r": _IDENTITY}),
     "AlgQuat"),  # 3/5 + 4/5 i: a unit of infinite order
], ids=["no-r", "not-an-object", "not-unit", "infinite-order"])
def test_bad_generator_file_is_a_one_line_error(tmp_path, line, message):
    path = tmp_path / "gens.jsonl"
    first = json.dumps({"star": False, "l": _IDENTITY, "r": _IDENTITY})
    path.write_text(first + "\n" + line + "\n")
    r = run("classify", "--generators", str(path), timeout=10)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error: classify: line 2: {message}") and r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("cmd", ["orbit", "cell"])
@pytest.mark.parametrize("point", ["0,0,0,0", "nan,0,0,1", "1,inf,0,0", "1,2,3", "a,b,c,d"])
def test_bad_start_point_is_a_one_line_error(cmd, point):
    r = run(cmd, "tub:+-[TxC]:n=1", "--point", point)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith(f"error: {cmd}: --point: ") and r.stderr.count("\n") == 1
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def test_closure_cap_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    from functools import partial

    from pg4 import cli, group
    from pg4.catalog import build, parse_spec
    from pg4.transform import transform_to_json
    G = build(parse_spec("tub:+-[TxC]:n=2"))
    path = tmp_path / "gens.jsonl"
    path.write_text("\n".join(json.dumps(transform_to_json(g)) for g in G.generators))
    monkeypatch.setattr(group, "generate", partial(group.generate, cap=10))
    assert cli.main(["classify", "--generators", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: classify: group closure:") and err.count("\n") == 1
    monkeypatch.setattr(group, "DEFAULT_CAP", 100)  # order 110: refused before closure
    assert cli.main(["build", "tor:1:m=10,n=11,s=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: build: group closure: tor:1:m=10,n=11,s=0 has order 110")


def test_over_cap_toroidal_file_is_refused_before_closure(tmp_path, monkeypatch, capsys):
    """A CycloQuat generator file is refused from the order its torus form
    counts, with the sweep's message, before any closure."""
    from pg4 import cli, group
    from pg4.catalog import family_row, parse_spec
    from pg4.transform import transform_to_json
    gens = family_row(parse_spec("tor:1:m=1,n=3000000,s=0")).generators(1, 3_000_000, 0)
    path = tmp_path / "gens.jsonl"
    path.write_text("\n".join(json.dumps(transform_to_json(g)) for g in gens))

    def no_sweep(*args, **kwargs):
        raise AssertionError("closure sweep started")

    monkeypatch.setattr(group, "_close_indexed", no_sweep)
    assert cli.main(["classify", "--generators", str(path)]) == 2
    assert capsys.readouterr().err == "error: classify: group closure: not closed within cap 2000000\n"


_EXACT_LAYER_SCRIPT = """
import contextlib, io, json, sys
import pg4
from pg4 import cli
from pg4.catalog import build_unchecked, parse_spec
from pg4.transform import transform_to_json

G = build_unchecked(parse_spec("tor:X/c2mm:m=6,n=2"))
with open(sys.argv[1], "w") as fh:
    fh.writelines(json.dumps(transform_to_json(g)) + "\\n" for g in G.generators)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    for argv in (["count", "7200", "--breakdown", "--self-mirror"],
                 ["build", "poly:+-[TxT]"], ["fingerprint", "tub:+-[IxC]:n=3"],
                 ["classify", "--generators", sys.argv[1]], ["catalog", "--max-order", "12"]):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


def test_exact_layers_import_no_numpy(tmp_path):
    """``import pg4`` and the CLI commands without geometry load neither numpy
    nor scipy; only the float layer (``pg4.orbits``, ``pg4.hopf``) does."""
    r = subprocess.run([sys.executable, "-c", _EXACT_LAYER_SCRIPT, str(tmp_path / "gens.jsonl")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


# pg4.__all__ before the float layer became lazy
_PUBLIC_NAMES = [
    "AlgQuat", "AngleFraction", "Category", "ClassificationError", "CliffordTorus",
    "CycloQuat", "ElementCode", "FieldElem", "Fingerprint", "GoursatData", "GreatCircle",
    "GroupSpec", "Mesh", "NAMED", "Orbit", "OrderCensus", "OrderError", "PointGroup",
    "Rational", "SpecError", "TorusLattice", "Transform4", "algebra", "angle_of", "apply",
    "brute_force_census", "build", "canonicalize_duplicates", "catalog", "category",
    "circle_distance", "circle_sample", "classify", "classify_toroidal", "color_orbits",
    "compose", "conjugate", "constants", "contains", "count_order", "count_self_mirror",
    "counting", "cs_name_type1", "e_n", "element_code", "equals", "export_mesh",
    "extend_achiral", "fingerprint", "generate", "goursat_group", "group", "hopf",
    "hopf_map", "induced_group", "inverse", "is_chiral", "left_right_groups",
    "list_catalog", "normalize_lattice", "orbit", "orbit_circle_polygon", "orbits", "order",
    "parse_spec", "polar_cell", "polyhedral_spec", "quat", "quat_conj", "quat_mul",
    "quat_real", "right_variant", "screw_angles", "spec_order", "stabilizer_rotation_angle",
    "tangential_slice_map", "to_matrix", "to_torus_rep", "toroidal", "toroidal_spec",
    "torus_distance", "transform", "transform_circle", "tubical_spec",
]


def test_public_names_unchanged():
    import pg4
    from pg4 import orbits

    assert pg4.__all__ == _PUBLIC_NAMES
    assert set(_PUBLIC_NAMES) <= set(dir(pg4))
    assert pg4.orbit is orbits.orbit and pg4.GreatCircle is pg4.hopf.GreatCircle
    namespace = {}
    exec("from pg4 import *", namespace)
    assert set(_PUBLIC_NAMES) <= set(namespace)
    with pytest.raises(AttributeError):
        pg4.no_such_name


def test_closed_stdout_exits_quietly():
    """``pg4 orbit … | head -1``: the reader closes the pipe after one line."""
    p = subprocess.Popen([sys.executable, "-m", "pg4.cli", "orbit", "tor:1:m=30,n=50,s=1",
                          "--point", "1,0,0,0"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    p.stdout.close()
    err = p.stderr.read()
    assert p.wait(timeout=60) == 141
    assert err == "" and len(json.loads(line)["point"]) == 4
