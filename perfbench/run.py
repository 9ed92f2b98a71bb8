"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass serves the seed's request list in
fresh processes (``worker.py``).  Passes repeat until ``--seconds`` of
serving time are measured, and at least twice.  Every request is timed in
every pass, at the reference machine's speed (see ``worker.py``), and a
request's time is its median over the passes.  ``wall_s``, ``cpu_s`` and
the latency percentiles are taken over these per-request times.  With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` passes alternate
untraced and traced, and it holds the per-layer metrics and
``trace.overhead_frac``.  Human-readable lines with every metric, its unit
and its sample count come first.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_scratch"
TIME_LIMIT_S = 165  # whole run, so it exits well within 180 s


class Budget:
    """Time left before the whole run must end."""

    def __init__(self):
        self.start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def left(self) -> float:
        return TIME_LIMIT_S - self.elapsed()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same set and dict orders in every pass
    return env


def run_child(args: list, budget: Budget) -> dict:
    """Run worker.py with args; its last output line is its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          capture_output=True, text=True, env=child_env(),
                          timeout=max(budget.left(), 1), cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cold_pass(seed: int, index: int, trace: bool, scratch: Path, budget: Budget) -> dict:
    """One pass of cohomology_cold: every job in its own fresh process."""
    by_job = {}
    for i, name in enumerate(workloads.cold_order(seed, index)):
        outdir = Path(tempfile.mkdtemp(prefix=f"job{i}-", dir=scratch))
        by_job[name] = run_child(["--job", name, "--outdir", str(outdir),
                                  "--trace", str(int(trace))], budget)
        shutil.rmtree(outdir, ignore_errors=True)
    parts = [by_job[name] for name in sorted(by_job)]  # latencies in job-name order
    merged = {
        "setup_s": sum(p["setup_s"] for p in parts),
        "wall_s": sum(p["wall_s"] for p in parts),
        "cpu_s": sum(p["cpu_s"] for p in parts),
        "latencies_s": [x for p in parts for x in p["latencies_s"]],
        "cpu_times_s": [x for p in parts for x in p["cpu_times_s"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "slowdown": statistics.median(p["slowdown"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failures_by_type(parts),
        "unexpected": [u for p in parts for u in p["unexpected"]],
    }
    if trace:
        merged["trace"] = tracing.empty_totals()
        for p in parts:
            tracing.add_totals(merged["trace"], p["trace"])
    return merged


def failures_by_type(results: list) -> dict:
    out: dict = {}
    for r in results:
        for k, v in r["failed"].items():
            out[k] = out.get(k, 0) + v
    return out


def parallel_check(scratch: Path, budget: Budget) -> str | None:
    """Reports must be byte-identical at --parallel 1 and 2 (untimed)."""
    reports = []
    for par in ("1", "2"):
        outdir = scratch / f"parallel{par}"
        subprocess.run([sys.executable, "-m", "hopfcyclic.cli", "--output", str(outdir),
                        "--parallel", par] + workloads.PARALLEL_CHECK_ARGV,
                       capture_output=True, env=child_env(), timeout=max(budget.left(), 1),
                       cwd=ROOT, check=True)
        reports.append(workloads.report_path(workloads.PARALLEL_CHECK_ARGV, outdir).read_bytes())
    return None if reports[0] == reports[1] else "reports differ between --parallel 1 and 2"


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description="hopfcyclic benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hopfcyclic" / "__init__.py").is_file():
        print(f"no hopfcyclic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    budget = Budget()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH))
    try:
        passes = run_passes(args, scratch, budget)
        problem = parallel_check(scratch, budget) if args.workload == "cohomology_cold" else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report(args, passes, problem)


def run_passes(args, scratch: Path, budget: Budget) -> list:
    """Passes until --seconds are measured and at least two ran untraced.

    With tracing, passes alternate untraced and traced.  A cohomology_cold
    pass runs its jobs in an order made from the seed and the pass number
    (a traced pass repeats the order of the untraced pass before it), so
    each job runs at different times of the run.
    """
    passes = []
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        index = len(passes) // 2 if args.trace else len(passes)
        t0 = perf_counter()
        if args.workload == "cohomology_cold":
            p = cold_pass(args.seed, index, traced, scratch, budget)
        else:
            p = run_child(["--workload", args.workload, "--seed", str(args.seed),
                           "--trace", str(int(traced))], budget)
        p["traced"] = traced
        passes.append(p)
        longest = max(longest, perf_counter() - t0)
        plain = [q["wall_s"] for q in passes if not q["traced"]]
        done = sum(plain) >= args.seconds and len(plain) >= 2
        if args.trace:
            done = done and passes[-1]["traced"]
        if done or budget.left() < 1.5 * longest:
            return passes


def per_request(passes: list, key: str) -> list:
    """Each request's median time over passes that served the same list."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def report(args, passes: list, problem: str | None) -> int:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = failures_by_type(passes)
    unexpected = [u for p in passes for u in p["unexpected"]]
    if problem:
        unexpected.append(problem)
    n_failed = sum(failed.values())
    request_s = per_request(plain, "latencies_s")
    lat_ms = [x * 1000.0 for x in request_s]
    e2e = {
        "wall_s": (sum(request_s), "s"),
        "cpu_s": (sum(per_request(plain, "cpu_times_s")), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "latency_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes, "
          f"{len(traced)} traced, {len(lat_ms)} requests per pass")
    per_request_how = f"over the {len(lat_ms)} requests' median times over {len(plain)} passes"
    how = {"wall_s": "sum " + per_request_how, "cpu_s": "sum of CPU times, as wall_s",
           "latency_p50_ms": per_request_how, "latency_p90_ms": per_request_how}
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit:<3} "
              f"({how.get(name, f'median over {len(plain)} passes')})")
    slow = sorted(p["slowdown"] for p in plain)
    print(f"  slowdown         {statistics.median(slow):12.4f}     (machine speed probe, median "
          f"over {len(plain)} passes, range {slow[0]:.3f}-{slow[-1]:.3f}; measured pass time "
          f"{statistics.median(p['wall_s'] for p in plain):.4f} s)")
    print(f"  failed_frac      {n_failed / max(attempted, 1):12.4f}     "
          f"({n_failed}/{attempted}; by type {failed or '{}'})")
    for u in unexpected[:5]:
        print(f"  unexpected failure: {u}")
    if args.trace:
        totals = tracing.empty_totals()
        for p in traced:
            tracing.add_totals(totals, p["trace"])
        metrics = tracing.layer_metrics(totals, len(traced))
        untraced_wall = sum(request_s)
        traced_wall = sum(per_request(traced, "latencies_s"))
        metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        print(f"  per layer, per pass (means over {len(traced)} traced passes):")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<40} {value:14.4f} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
