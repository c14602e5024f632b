"""The pg4 benchmark: cold runs of one workload, checked, with medians.

Usage, from the repository root:

    python3 perfbench/run.py --workload e2_polyhedral --seed 1 --seconds 30 --trace 0

Each sample is one fresh single-threaded interpreter (child.py), so the
library's process-global caches start cold, as they do for a CLI call.
Samples run one after another until the next one would overrun
``--seconds``; there is always at least one.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates traced and untraced samples and
prints the per-layer metrics of the traced ones plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s


def quantile(values, q):
    """Harrell-Davis quantile: a beta-weighted mean of all order statistics.

    The ops of one workload are a fixed mix of unlike operations, so their
    latencies cluster with gaps between the clusters.  A single order
    statistic jumps across a gap on small timing noise; this estimate moves
    smoothly.
    """
    from scipy.stats import beta

    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    cdf = beta.cdf([i / n for i in range(n + 1)], (n + 1) * q, (n + 1) * (1 - q))
    return float(sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], x)))


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # e4 calls numpy qr and matmul
    env["PYTHONHASHSEED"] = "0"  # the same set iteration order in every sample
    return env


def run_child(args, rep: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--trace", str(trace),
           "--size", args.size, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"sample {rep} did not finish within {RUN_LIMIT_S} s of the run")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"sample {rep} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(args) -> tuple[list, list]:
    """Samples until the budget is spent: (measured samples, untraced references)."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    measured, reference, durations = [], [], []
    rep = 0
    while True:
        # With --trace 1, even reps are traced and each odd rep is the untraced
        # reference on the same inputs.
        trace = args.trace and rep % 2 == 0
        t0 = time.monotonic()
        sample = run_child(args, rep // 2 if args.trace else rep, int(trace), deadline)
        durations.append(time.monotonic() - t0)
        (measured if trace or not args.trace else reference).append(sample)
        rep += 1
        elapsed = time.monotonic() - start
        if args.trace and not reference:
            continue
        if elapsed + statistics.median(durations) > args.seconds:
            return measured, reference


def ops_by_kind(samples) -> dict:
    """Op latencies in ms by kind (e.g. the two doors of e1), for the report."""
    out = {}
    for s in samples:
        for kind, t in zip(s["op_kind"], s["op_s"]):
            out.setdefault(kind, []).append(t * 1000)
    return out


def op_times(sample, scaled=True) -> list:
    """A sample's op times in quiet-machine seconds (see speed.py) or raw."""
    if not scaled:
        return sample["op_s"]
    return [t * k for t, k in zip(sample["op_s"], speed.op_factors(sample))]


def end_to_end(samples, scaled=True) -> dict:
    """The metrics, times in quiet-machine seconds or raw."""
    ops_ms = [t * 1000 for s in samples for t in op_times(s, scaled)]
    setup = [s["setup_s"] * (speed.setup_factor(s) if scaled else 1.0) for s in samples]
    return {
        "setup_s": (statistics.median(setup), "s", len(samples)),
        "wall_s": (statistics.median(sum(op_times(s, scaled)) for s in samples), "s",
                   len(samples)),
        "op_ms.p50": (quantile(ops_ms, 0.50), "ms", len(ops_ms)),
        "op_ms.p90": (quantile(ops_ms, 0.90), "ms", len(ops_ms)),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB", len(samples)),
    }


def per_layer(samples, reference, units) -> dict:
    out = {}
    for name, unit in units.items():
        values = [s["layers"][name] for s in samples if name in s["layers"]]
        if values:  # a function gone from the library leaves its metrics out
            out[name] = (statistics.median(values), unit, len(values))
    overhead = (statistics.median(sum(op_times(s)) for s in samples)
                - statistics.median(sum(op_times(s)) for s in reference))
    out["trace.overhead_s"] = (overhead, "s", len(samples) + len(reference))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pg4" / "__init__.py").is_file():
        sys.stderr.write(f"no pg4 sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload}\n")
        return 2

    measured, reference = collect(args)
    attempted = sum(s["attempted"] for s in measured + reference)
    failed = sum(s["failed"] for s in measured + reference)
    if args.trace:
        metrics = per_layer(measured, reference, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        metrics = end_to_end(measured)

    versions = measured[0]["versions"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(measured)} samples, revision {git_revision()}, python {versions['python']}, "
          f"numpy {versions['numpy']}, scipy {versions['scipy']}, nproc {os.cpu_count()}, "
          f"{platform.machine()}")
    wall = statistics.median(s["wall_s"] for s in measured)
    cpu = statistics.median(s["cpu_s"] for s in measured)
    print(f"  timed region: wall {wall:.4f} s, process cpu {cpu:.4f} s (medians)")
    print(f"  fail_ratio {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for kind, ms in ops_by_kind(measured).items():
        tail = f" p99 {quantile(ms, 0.99):.4g}" if len(ms) >= 1000 else ""
        print(f"  op_ms[{kind}] p50 {quantile(ms, 0.50):.4g} p90 {quantile(ms, 0.90):.4g}"
              f"{tail} max {max(ms):.4g} ms (n={len(ms)})")
    factor = statistics.median(k for s in measured for k in speed.op_factors(s))
    print(f"  machine speed factor (speed.py) {factor:.4f}, median over ops")
    raw = {} if args.trace else end_to_end(measured, scaled=False)
    for name, (value, unit, n) in metrics.items():
        note = f", raw {raw[name][0]:.6g}" if name in raw and unit != "MB" else ""
        print(f"  {name} {value:.6g} {unit} (n={n}{note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
