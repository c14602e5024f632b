"""``group.generate`` against the plain closure sweep on ``Transform4`` values.

``generate`` runs its breadth-first sweep on integer codes.  The oracle below
is the same sweep written with ``compose`` and a set of ``Transform4``s; the
element frozensets must agree in content and iteration order, since orbit,
mesh and construction-order outputs follow that order.
"""

import random

import pytest

from pg4.algebra import AlgQuat, CycloQuat, RepresentationError
from pg4.catalog import (
    AXIAL_FAMILIES,
    POLYHEDRAL_FAMILIES,
    TUBICAL_FAMILIES,
    GroupSpec,
    build,
    list_catalog,
    parse_spec,
    polyhedral_spec,
    tubical_spec,
)
from pg4.constants import OMEGA, QI, e_n
from pg4.group import DEFAULT_CAP, ClosureCapExceeded, PointGroup, generate
from pg4.transform import IDENTITY, compose, reflection, rotation


def compose_closure(gens, cap=DEFAULT_CAP) -> PointGroup:
    gens = list(gens)
    seen = {IDENTITY}
    queue = [IDENTITY]
    i = 0
    while i < len(queue):
        g = queue[i]
        i += 1
        for h in gens:
            gh = compose(g, h)
            if gh not in seen:
                if len(seen) >= cap:
                    raise ClosureCapExceeded(f"not closed within cap {cap}")
                seen.add(gh)
                queue.append(gh)
    return PointGroup(frozenset(seen), tuple(gens))


def _outcome(closure, gens, cap=DEFAULT_CAP):
    try:
        G = closure(gens, cap)
    except (ClosureCapExceeded, RepresentationError) as exc:
        return type(exc), str(exc)
    return list(G.elements), G.generators, len(G)


def check_closure(gens, rng=None):
    """Same elements in the same order, same generators; and, given an rng,
    the same refusal at a few caps below the order."""
    want = _outcome(compose_closure, gens)
    assert _outcome(generate, gens) == want
    if rng is not None and isinstance(want[0], list) and len(want[0]) > 1:
        n = len(want[0])
        for cap in {1, rng.randrange(1, n), n - 1}:
            refusal = _outcome(compose_closure, gens, cap)
            assert refusal == (ClosureCapExceeded, f"not closed within cap {cap}")
            assert _outcome(generate, gens, cap) == refusal
        assert _outcome(generate, gens, n) == want
    return want


def _lists(G, rng):
    """1-3 random elements of G, and G's generators shuffled."""
    pool = sorted(G.elements, key=lambda g: g._hash)
    shuffled = list(G.generators)
    rng.shuffle(shuffled)
    return [rng.sample(pool, rng.randint(1, min(3, len(pool)))), shuffled]


def _is_cyclo(g):
    return type(g.l) is CycloQuat and type(g.r) is CycloQuat


# one spec per toroidal tag set, of orders 432 to 896
_TAG_SET_SPECS = ("tor:1:m=1,n=696,s=271", "tor:.:m=1,n=392,s=8", "tor:|/pm:m=1,n=438",
                  "tor://cm:m=2,n=224", "tor:X/p2gg:m=6,n=36", "tor:+/p2mg:m=6,n=30",
                  "tor:L:a=11,b=10", "tor:*/p4gmS:n=6")


def test_toroidal_lists_match_oracle():
    rng = random.Random(1101)
    specs = [sp for sp in list_catalog(200) if sp.kind == "toroidal"]
    for sp in rng.sample(specs, 120):
        for gens in _lists(build(sp), rng):
            assert all(_is_cyclo(g) for g in gens)
            check_closure(gens, rng)
    for text in _TAG_SET_SPECS:
        gens = build(parse_spec(text)).generators
        assert all(_is_cyclo(g) for g in gens)
        check_closure(gens, rng)


def test_tubical_lists_match_oracle():
    rng = random.Random(1102)
    specs = []
    for fam in TUBICAL_FAMILIES.values():
        for n in range(fam.n_min, 9):
            specs += [tubical_spec(fam.name, n), tubical_spec(fam.mirror_name, n)]
    for sp in rng.sample(specs, 24):
        for gens in _lists(build(sp), rng):
            check_closure(gens, rng)


@pytest.mark.parametrize("kind", ["polyhedral", "axial"])
def test_finite_lists_match_oracle(kind):
    rng = random.Random(f"1103/{kind}")
    if kind == "polyhedral":
        specs = [polyhedral_spec(name) for name in POLYHEDRAL_FAMILIES]
    else:
        specs = [GroupSpec("axial", fam) for fam in AXIAL_FAMILIES]
    for sp in specs:
        G = build(sp)
        for gens in _lists(G, rng):
            check_closure(gens, rng if len(G) <= 1152 else None)


def test_mixed_lists_match_oracle():
    """A CycloQuat-only element beside an AlgQuat one, with reversing elements."""
    rng = random.Random(1104)
    groups = [build(polyhedral_spec(name)) for name in ("+-[OxO].2", "+-1/2[OxO].2", "+-[TxT].2")]
    groups += [build(tubical_spec("+-[OxC]", n)) for n in (2, 3)]
    groups += [build(GroupSpec("axial", "prism:TO"))]
    for G in groups:
        pool = sorted(G.elements, key=lambda g: g._hash)
        cyclo = [g for g in pool if _is_cyclo(g) and g != IDENTITY]
        alg = [g for g in pool if type(g.l) is AlgQuat or type(g.r) is AlgQuat]
        star = [g for g in pool if g.star]
        for _ in range(4):
            gens = [rng.choice(cyclo), rng.choice(alg)] + rng.sample(star, min(len(star), 1))
            rng.shuffle(gens)
            check_closure(gens, rng)


def test_unpromotable_mix_is_refused_alike():
    """exp(πi/5) times an AlgQuat has no exact form; both sweeps stop at the
    same product with the same error."""
    gens = [rotation(e_n(5), QI), reflection(OMEGA, e_n(5))]
    refusal = check_closure(gens)
    assert refusal[0] is RepresentationError


def test_trivial_lists():
    for gens, n in (([], 1), ([IDENTITY], 1), ([rotation(QI, QI)] * 2, 2)):
        assert check_closure(gens, random.Random(1105))[2] == n
