"""One cold run of one workload, in a fresh single-threaded interpreter.

run.py starts this file once per sample; nothing imports it.  The first
``import pg4`` happens here, inside set-up time, which runs from the moment
run.py spawned the process (``--spawned``, a ``time.monotonic`` reading) to
the first timed op, less the first speed-loop timing.  Outputs are checked
after the timed region.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402
from caches import lru_sizes  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    t0 = time.monotonic()
    ref_start = speed.loop_s()
    not_setup_s = time.monotonic() - t0  # the first loop timing builds its table
    import pg4  # noqa: F401

    warm = {name: n for name, n in lru_sizes().items() if n}
    if warm:
        sys.stderr.write(f"caches not empty after import: {warm}\n")
        return 3
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    rng = random.Random(f"{args.workload}/{args.seed}/{args.rep}")
    ops = workloads.WORKLOADS[args.workload](
        rng, workloads.SIZES[args.workload][args.size], workloads.load_fixture(args.workload))

    setup_s = time.monotonic() - args.spawned - not_setup_s
    # The speed loop runs between ops, outside their timings; wall_s is the
    # sum of the op timings.
    refs = [speed.loop_s()]
    latencies, cpu, ref_index, outputs = [], [], [], []
    since_ref = 0.0
    for op in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outputs.append((op.fn(), None))
        except Exception:  # a failed op is counted and the run goes on
            outputs.append((None, traceback.format_exc()))
        latencies.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        ref_index.append(len(refs) - 1)
        since_ref += latencies[-1]
        if since_ref >= speed.EVERY_S or op is ops[-1]:
            refs.append(speed.loop_s())
            since_ref = 0.0
    layers = tracer.report() if tracer else None

    failed = []
    for op, (out, err) in zip(ops, outputs):
        if err is None:
            try:
                if op.check(out):
                    continue
                err = f"wrong output: {out!r:.300}"
            except Exception:
                err = traceback.format_exc()
        failed.append(op.name)
        sys.stderr.write(f"FAILED {args.workload} {op.kind} {op.name}: {err}\n")

    scipy = sys.modules.get("scipy")
    numpy = sys.modules.get("numpy")
    print(json.dumps({
        "setup_s": setup_s,
        "ref_start_s": ref_start,
        "wall_s": sum(latencies),
        "cpu_s": sum(cpu),
        "op_s": latencies,
        "ref_s": refs,
        "op_ref": ref_index,
        "op_kind": [op.kind for op in ops],
        "attempted": len(ops),
        "failed": len(failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "versions": {"python": platform.python_version(),
                     "numpy": getattr(numpy, "__version__", None),
                     "scipy": getattr(scipy, "__version__", None)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
