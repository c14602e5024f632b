"""The machine's momentary speed, from a fixed pure-Python loop.

On a shared machine every process can drop to half speed, in bursts of a
second to phases of minutes.  A sample times this loop after set-up and
between ops; an op's speed factor is ``NOMINAL_S`` over the mean of the loop
times just before and just after it.  Times multiplied by their factor are
seconds on the quiet machine, and such scaled times vary far less between
runs than raw ones.

The loop mixes integer arithmetic with a pointer chase through a 2 MB array
in random order, because the library's work slows with both: when the
machine was busy, a pure arithmetic loop slowed by 1.4x, a pure pointer chase
by 2.3x, the library's ops by 1.7-1.8x and this loop by 1.7x.
"""

from __future__ import annotations

import random
import time
from array import array
from functools import cache

ITERATIONS = 15_000
REPEATS = 3
TABLE_SIZE = 1 << 18
# The loop's time on the machine the benchmark was defined on (2-vCPU x86_64
# VM, Python 3.11.7) when that machine is quiet.
NOMINAL_S = 0.0017
EVERY_S = 0.1  # op time between two loop timings

@cache
def _cycle() -> array:
    """A random cyclic permutation of range(TABLE_SIZE) (Sattolo's algorithm)."""
    rng = random.Random(0)
    t = array("l", range(TABLE_SIZE))
    for i in range(TABLE_SIZE - 1, 0, -1):
        j = rng.randrange(i)
        t[i], t[j] = t[j], t[i]
    return t


def loop_s() -> float:
    """Shortest of REPEATS timings of the loop."""
    nxt = _cycle()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        i = acc = 0
        for _ in range(ITERATIONS):
            i = nxt[i]
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def setup_factor(sample: dict) -> float:
    """Speed factor of set-up: the loop timed before ``import pg4`` and after set-up."""
    return NOMINAL_S / ((sample["ref_start_s"] + sample["ref_s"][0]) / 2)


def op_factors(sample: dict) -> list:
    """Speed factor of each op, from the loop timings just before and after it."""
    refs = sample["ref_s"]
    return [NOMINAL_S / ((refs[i] + refs[i + 1]) / 2) for i in sample["op_ref"]]
