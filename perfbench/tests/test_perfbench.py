"""Tests of the benchmark itself: trace bindings, tracing off when timed,
times at reference speed, seeded inputs and the refusal to run without
sources.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    try:
        yield tr
    finally:
        tr.active = False
        tr.uninstall()


def test_install_patches_every_binding(tracer):
    from hopfcyclic import bicomplex, chern, cyclic, faa, linalg

    for owner, name in [(linalg, "rank"), (bicomplex, "rank"), (chern, "rank"),
                        (bicomplex, "rank_and_kernel"), (bicomplex, "membership"),
                        (faa, "membership"), (cyclic, "membership"), (faa, "compose"),
                        (faa, "infinitesimal_action"), (bicomplex, "context"),
                        (chern, "engine"), (bicomplex, "wedge_normalize")]:
        assert tracing.is_traced(getattr(owner, name)), f"{owner.__name__}.{name}"
    from hopfcyclic.poly import Poly

    assert tracing.is_traced(Poly.__mul__) and tracing.is_traced(Poly.__rmul__)


def test_uninstall_restores_originals():
    from hopfcyclic import bicomplex, linalg

    before = (linalg.rank, bicomplex.rank)
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert (linalg.rank, bicomplex.rank) == before
    assert tracing.installed_wrappers() == []


def test_traced_rank_calls_equal_an_independent_count(tracer, tmp_path):
    """Count calls into the original rank code object with a profile hook,
    on the same execution, and compare with the tracer's count."""
    from hopfcyclic import bicomplex, cli, linalg

    original = next(f for o, a, f in tracer._restore if o is linalg and a == "rank")
    counted = 0

    def profile(frame, event, arg):
        nonlocal counted
        if event == "call" and frame.f_code is original.__code__:
            counted += 1

    sys.setprofile(profile)
    try:
        # cli.cmd_hochschild imports rank inside its body; goncarova_check
        # uses bicomplex's by-name import
        assert cli.main(["--output", str(tmp_path), "hochschild", "--n", "1",
                         "--degree-max", "2", "--weight-max", "3"]) == 0
        bicomplex.goncarova_check(1, 3)
    finally:
        sys.setprofile(None)
    assert counted > 0
    assert tracer.calls["linalg.rank"] == counted


def test_self_times_partition_the_request_span(tracer):
    from hopfcyclic import bicomplex

    t0 = perf_counter()
    tracer.span(tracing.REQUEST, bicomplex.total_cohomology, 1, 1, 2)
    elapsed = perf_counter() - t0
    assert tracer.calls[tracing.REQUEST] == 1
    assert tracer.calls["bicomplex.total_matrix"] > 0 and tracer.calls["linalg.rank"] > 0
    assert all(v >= 0 for v in tracer.self_s.values())
    # each span's self time excludes its children, so the self times add up
    # to the request span's duration, which the outer timer contains
    total = sum(tracer.self_s.values())
    assert 0.9 * elapsed < total <= elapsed


def test_tracing_is_off_while_timed(monkeypatch):
    monkeypatch.setattr(workloads, "JETS_COUNT", 36)
    seen = []
    serve = workloads.serve

    def spy(req):
        seen.append(tracing.installed_wrappers())
        return serve(req)

    monkeypatch.setattr(workloads, "serve", spy)
    result = worker.serve_pass("jets_faa", seed=3, trace=False)
    assert seen and all(w == [] for w in seen)
    assert "trace" not in result and result["correct"]


def test_pass_times_are_divided_by_the_slowdown(monkeypatch):
    monkeypatch.setattr(workloads, "JETS_COUNT", 36)
    monkeypatch.setattr(worker, "probe", lambda: 2 * worker.REFERENCE_PROBE_S)
    result = worker.serve_pass("jets_faa", seed=3, trace=False)
    assert result["slowdown"] == 2
    assert 0 < 2 * sum(result["latencies_s"]) <= result["wall_s"]


def test_untraced_run_starts_only_untraced_passes(monkeypatch):
    calls = []

    def fake_child(args, budget):
        calls.append(args)
        return {"wall_s": 1.0}

    monkeypatch.setattr(run, "run_child", fake_child)
    args = SimpleNamespace(workload="hopf_rewriting", seed=1, seconds=3, trace=0)
    run.run_passes(args, Path("."), run.Budget())
    assert len(calls) == 3
    assert all(a[a.index("--trace") + 1] == "0" and a[a.index("--seed") + 1] == "1"
               for a in calls)


def test_request_times_are_medians_over_passes():
    passes = [{"latencies_s": [1.0, 4.0]}, {"latencies_s": [3.0, 2.0]}, {"latencies_s": [2.0, 3.0]}]
    assert run.per_request(passes, "latencies_s") == [2.0, 3.0]


def test_requests_follow_the_seed():
    for make in (workloads.stream_requests, workloads.hopf_requests, workloads.jets_requests):
        assert make(7) == make(7)
        assert make(7) != make(8)
    assert workloads.cold_order(7, 0) == workloads.cold_order(7, 0)
    assert workloads.cold_order(7, 0) != workloads.cold_order(7, 1)
    # the stream's popularity counts are fixed; only the order follows the seed
    assert sorted(map(str, workloads.stream_requests(7))) == sorted(
        map(str, workloads.stream_requests(8)))


def test_traced_passes_alternate_with_untraced(monkeypatch):
    calls = []

    def fake_child(args, budget):
        calls.append(args[args.index("--trace") + 1])
        return {"wall_s": 1.0}

    monkeypatch.setattr(run, "run_child", fake_child)
    args = SimpleNamespace(workload="jets_faa", seed=1, seconds=2, trace=1)
    run.run_passes(args, Path("."), run.Budget())
    assert calls == ["0", "1", "0", "1"]


def test_request_kinds_have_equal_shares():
    from collections import Counter

    def equal(reqs, param):
        by_kind = Counter(r[0] for r in reqs)
        by_param = Counter((r[0], param(r)) for r in reqs)
        assert len(set(by_kind.values())) == 1
        for kind in by_kind:
            assert len({c for (k, _), c in by_param.items() if k == kind}) == 1

    equal(workloads.hopf_requests(5),
          lambda r: r[2] if r[0] in workloads.COCYCLIC_KINDS else r[1])
    jets = workloads.jets_requests(5)
    suite = [r[1:] for r in jets if r[0] == "matched_pair"]
    assert sorted(suite) == sorted(workloads.MATCHED_PAIR_CUTS)
    stream = [r for r in jets if r[0] != "matched_pair"]
    equal(stream, lambda r: r[1])
    # within a kind and n, each jet order's share differs from another's by at most one
    by_order = Counter((r[0], r[1], r[2]) for r in stream)
    for kind, n in {(k, n) for k, n, _ in by_order}:
        counts = [c for (k, m, _), c in by_order.items() if (k, m) == (kind, n)]
        lo, hi = (workloads.JET_ORDERS if kind in workloads.JET_KINDS else workloads.FN_ORDERS)[n]
        assert len(counts) == hi - lo + 1 and max(counts) - min(counts) <= 1


@pytest.mark.parametrize("spec,calls", [
    (workloads.COLD_JOBS["chern n=2"][0], workloads.COLD_JOBS["chern n=2"][1]),
    (["cyclic", "--n", "1", "--degree-max", "1", "--weight-max", "3"], [(1, 3)]),
    (["hochschild", "--n", "1", "--degree-max", "1", "--weight-max", "3"], [(1, 3)]),
    (("goncarova", 1, 3), workloads.query_engine_calls(("goncarova", 1, 3))),
    (("cyclic", 1, 1, 3, "absolute"), workloads.query_engine_calls(("cyclic", 1, 1, 3, "absolute"))),
    (("hochschild", 2, 1, 2, "relative"),
     workloads.query_engine_calls(("hochschild", 2, 1, 2, "relative"))),
])
def test_setup_builds_the_engines_the_entry_point_uses(spec, calls, tmp_path):
    """bicomplex.engine is an lru_cache keyed on the call form: after set-up,
    serving the job must not build another engine."""
    from hopfcyclic import bicomplex, cli

    bicomplex.engine.cache_clear()
    for call in calls:
        bicomplex.engine(*call)
    built = bicomplex.engine.cache_info().misses
    if isinstance(spec, list):
        assert cli.main(["--output", str(tmp_path)] + spec) == 0
    else:
        workloads.run_query(spec)
    assert bicomplex.engine.cache_info().misses == built


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "jets_faa",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
