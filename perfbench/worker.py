"""One serving process of the benchmark; started by run.py, never imported.

Two modes, each printing one JSON result as its last line of output:

* ``--workload W --seed S``: one pass of a run, in a fresh process (set-up,
  closed-loop serving over the seed's request list, untimed checks).
* ``--job NAME --outdir DIR``: one ``cohomology_cold`` job in a fresh process.

``--trace 1`` installs the tracer before serving and adds its aggregates.
Run with ``src`` on ``PYTHONPATH``.

Before and after serving, and between requests (during a cold job, from a
timer signal), the process times a fixed speed probe that does not use
``hopfcyclic``.  The median time of the probes nearest to a moment, over
the probe's reference time, is the machine's slowdown at that moment.
Every time in the result except ``wall_s`` and ``cpu_s`` (the measured
serving span) is given at the reference machine's speed: each stretch of
it between probes is divided by the slowdown at the stretch's middle, and
the probes' own time is left out.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402


PROBE_EVERY_S = 0.1        # serving time between two probes
PROBES_AROUND = 9          # probes before and after serving
PROBE_WINDOW = 9           # probes whose median gives the slowdown at a moment
REFERENCE_PROBE_S = 0.008  # the probe's median time on the reference machine


def probe() -> float:
    """Time one run of the speed probe: Fraction arithmetic and a dict of
    tuples, the operations hopfcyclic spends its time in, with the cyclic
    garbage collector off so the size of the program's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        x, table = Fraction(1, 3), {}
        for i in range(1500):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
            table[(i, i % 13)] = x.numerator % 1000
            if x.denominator > 10**30:
                x = Fraction(1, 3)
        sorted(table.items())
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe times of one process, and the slowdown they give at a moment."""

    def __init__(self):
        self.samples: list = []  # (start, probe time), in time order
        self.last = perf_counter()

    def run(self) -> None:
        self.samples.append((perf_counter(), probe()))
        self.last = perf_counter()

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self.run()

    def between(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    @contextmanager
    def on_timer(self):
        """Probe every PROBE_EVERY_S from a timer signal, for a span that has
        no points between requests (a whole CLI job)."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.run())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t: float) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:PROBE_WINDOW]
        return statistics.median(d for _, d in near) / REFERENCE_PROBE_S

    def at_reference_speed(self, start: float, wall: float, cpu: float) -> tuple:
        """Wall and CPU time of the span (start, start + wall) at reference
        speed, without the probes run inside it."""
        end, t, ref, probing = start + wall, start, 0.0, 0.0
        for s, d in self.samples:
            if start <= s < end:
                ref += (s - t) / self.slowdown((t + s) / 2)
                probing += d
                t = s + d
        ref += (end - t) / self.slowdown((t + end) / 2)
        net = wall - probing
        return ref, (cpu - probing) * ref / net if net > 0 else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Failure accounting for one pass: counts by exception type or check."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict = {}   # reason -> count
        self.unexpected = []     # descriptions of failures that make the run incorrect

    def fail(self, reason: str, detail: str, expected: bool) -> None:
        self.failed[reason] = self.failed.get(reason, 0) + 1
        if not expected:
            self.unexpected.append(detail[:300])

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "unexpected": self.unexpected[:5], "correct": not self.unexpected}


def known_error(req, expected: dict) -> str | None:
    """Exception type recorded for this request on the seed commit, if any."""
    if req[0] in ("hochschild", "cyclic", "goncarova"):
        return expected.get(workloads.query_key(req), {}).get("error")
    return None


def serve_pass(workload: str, seed: int, trace: bool) -> dict:
    reqs = workloads.requests(workload, seed)
    t0 = perf_counter()
    workloads.setup(workload)
    setup_s = perf_counter() - t0
    expected = workloads.load_expected()
    prepared = workloads.prepare(workload, reqs)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    answers, spans = [], []
    speed = SpeedProbe()
    speed.around()
    cpu0, w0 = process_time(), perf_counter()
    for req in prepared:
        speed.between()
        c = process_time()
        t = perf_counter()
        try:
            ans = tracer.span(tracing.REQUEST, workloads.serve, req) if tracer else workloads.serve(req)
        except Exception as exc:  # serving boundary: record and keep serving
            ans = exc
        spans.append((t, perf_counter() - t, process_time() - c))
        answers.append(ans)
    wall_s, cpu_s = perf_counter() - w0, process_time() - cpu0
    rss = peak_rss_mb()
    speed.around()
    if tracer:
        tracer.active = False
    outcome = Outcome()
    for req, ans in zip(prepared, answers):
        outcome.attempted += 1
        if isinstance(ans, Exception):
            name = type(ans).__name__
            outcome.fail(name, f"{req[0]}: {name}: {ans}", known_error(req, expected) == name)
            continue
        try:
            problem = workloads.check(req, ans, expected)
        except Exception as exc:  # a check that cannot run counts the answer as wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            outcome.fail("wrong_answer", f"{req[0]}: {problem}", False)
    ref = [speed.at_reference_speed(*span) for span in spans]
    result = {"setup_s": setup_s / speed.slowdown(t0), "wall_s": wall_s, "cpu_s": cpu_s,
              "latencies_s": [w for w, _ in ref], "cpu_times_s": [c for _, c in ref],
              "slowdown": speed.slowdown(w0 + wall_s / 2), "peak_rss_mb": rss,
              **outcome.to_json()}
    if tracer:
        result["trace"] = tracer.dump()
        tracer.uninstall()
    return result


def run_job(name: str, outdir: Path, trace: bool) -> dict:
    spec, engine_calls = workloads.COLD_JOBS[name]
    t0 = perf_counter()
    import hopfcyclic  # noqa: F401
    from hopfcyclic import bicomplex, cli

    for call in engine_calls:
        bicomplex.engine(*call)
    setup_s = perf_counter() - t0
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
        tracer.active = True
    outcome = Outcome()
    outcome.attempted = 1
    answer = error = status = None
    speed = SpeedProbe()
    speed.around()
    cpu0, w0 = process_time(), perf_counter()
    try:
        with speed.on_timer():
            if isinstance(spec, list):
                argv = ["--output", str(outdir)] + spec
                main = cli.main  # looked up after install, so the traced binding is used
                status = tracer.span(tracing.REQUEST, main, argv) if tracer else main(argv)
            else:
                answer = (tracer.span(tracing.REQUEST, workloads.run_query, spec) if tracer
                          else workloads.run_query(spec))
    except Exception as exc:  # a job boundary: record the type and report
        error = exc
    wall_s, cpu_s = perf_counter() - w0, process_time() - cpu0
    rss = peak_rss_mb()
    speed.around()
    if tracer:
        tracer.active = False
    if error is not None:
        outcome.fail(type(error).__name__, f"{name}: {type(error).__name__}: {error}", False)
    elif isinstance(spec, list) and status != 0:
        outcome.fail("exit_status", f"{name}: exit status {status}", False)
    else:
        if isinstance(spec, list):
            answer = json.loads(workloads.report_path(spec, outdir).read_text())
        problem = workloads.check_cohomology(name, workloads.summarize(answer),
                                             workloads.load_expected())
        if problem:
            outcome.fail("wrong_answer", f"{name}: {problem}", False)
    ref_wall, ref_cpu = speed.at_reference_speed(w0, wall_s, cpu_s)
    result = {"setup_s": setup_s / speed.slowdown(t0), "wall_s": wall_s, "cpu_s": cpu_s,
              "latencies_s": [ref_wall], "cpu_times_s": [ref_cpu],
              "slowdown": speed.slowdown(w0 + wall_s / 2), "peak_rss_mb": rss,
              **outcome.to_json()}
    if tracer:
        tracer.counters["cli.report_bytes"] += sum(
            p.stat().st_size for p in outdir.iterdir() if p.is_file())
        result["trace"] = tracer.dump()
        tracer.uninstall()
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w in workloads.WORKLOADS if w != "cohomology_cold"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--job", choices=sorted(workloads.COLD_JOBS))
    ap.add_argument("--outdir", type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.job:
        args.outdir.mkdir(parents=True, exist_ok=True)
        result = run_job(args.job, args.outdir, bool(args.trace))
    elif args.workload:
        result = serve_pass(args.workload, args.seed, bool(args.trace))
    else:
        ap.error("give --workload or --job")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
