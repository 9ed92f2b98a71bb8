"""Per-layer tracing from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
replaces every binding of each original object in the loaded ``hopfcyclic``
modules (module globals, names imported by other modules, class attributes
and their aliases), so calls through ``from .linalg import rank`` are traced
too.  Nothing inside ``src/`` is edited.

Each wrapped call is a span.  Spans nest on one stack; a span's self time is
its duration minus the time covered by its child spans.  Spans are
aggregated in memory per function (calls and self time), and hooks add the
work counts of a few layers.  Functions marked ``count`` only count calls,
so wrapping hot methods does not swamp the trace; their time stays in the
enclosing span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (metric name, module, attribute path, mode)
TRACED = [
    ("linalg.rank", "hopfcyclic.linalg", "rank", "span"),
    ("linalg.rank_and_kernel", "hopfcyclic.linalg", "rank_and_kernel", "span"),
    ("linalg.membership", "hopfcyclic.linalg", "membership", "span"),
    ("linalg.matmul", "hopfcyclic.linalg", "SparseMatrix.matmul", "span"),
    ("linalg.Quotient", "hopfcyclic.linalg", "Quotient.__init__", "span"),
    ("bicomplex.matrix", "hopfcyclic.bicomplex", "Engine.matrix", "span"),
    ("bicomplex.total_matrix", "hopfcyclic.bicomplex", "Engine.total_matrix", "span"),
    ("bicomplex.engine", "hopfcyclic.bicomplex", "engine", "span"),
    ("faa.context", "hopfcyclic.faa", "context", "span"),
    ("faa.f_coproduct_eta", "hopfcyclic.faa", "FContext.f_coproduct_eta", "span"),
    ("faa.f_coproduct", "hopfcyclic.faa", "FContext.f_coproduct", "span"),
    ("faa.f_antipode", "hopfcyclic.faa", "FContext.f_antipode", "span"),
    ("faa.act_eta", "hopfcyclic.faa", "FContext.act_eta", "span"),
    ("faa.alpha_mono_to_eta", "hopfcyclic.faa", "FContext.alpha_mono_to_eta", "span"),
    ("faa.check_matched_pair", "hopfcyclic.faa", "check_matched_pair", "span"),
    ("jets.compose", "hopfcyclic.jets", "compose", "span"),
    ("jets.invert", "hopfcyclic.jets", "invert", "span"),
    ("jets.kac_factorize", "hopfcyclic.jets", "kac_factorize", "span"),
    ("jets.right_action", "hopfcyclic.jets", "right_action", "span"),
    ("jets.infinitesimal_action", "hopfcyclic.jets", "infinitesimal_action", "span"),
    ("hopf.normal_form", "hopfcyclic.hopf", "HopfAlgebra.normal_form", "span"),
    ("hopf.product", "hopfcyclic.hopf", "HopfAlgebra.product", "span"),
    ("hopf.coproduct", "hopfcyclic.hopf", "HopfAlgebra.coproduct", "span"),
    ("hopf.antipode", "hopfcyclic.hopf", "HopfAlgebra.antipode", "span"),
    ("hopf.antipode_inv", "hopfcyclic.hopf", "HopfAlgebra.antipode_inv", "span"),
    ("hopf.s_tilde", "hopfcyclic.hopf", "HopfAlgebra.s_tilde", "span"),
    ("cyclic.tau", "hopfcyclic.cyclic", "StandardModule.tau", "span"),
    ("cyclic.b", "hopfcyclic.cyclic", "StandardModule.b", "span"),
    ("cyclic.B", "hopfcyclic.cyclic", "StandardModule.B", "span"),
    ("chern.verify_relative_classes", "hopfcyclic.chern", "verify_relative_classes", "span"),
    ("chern.theta_span_report", "hopfcyclic.chern", "theta_span_report", "span"),
    ("symbols.LinComb.add", "hopfcyclic.symbols", "LinComb.__add__", "count"),
    ("symbols.wedge_normalize", "hopfcyclic.symbols", "wedge_normalize", "count"),
    ("poly.Poly.mul", "hopfcyclic.poly", "Poly.__mul__", "count"),
    ("cli.main", "hopfcyclic.cli", "main", "span"),
]

SPAN_NAMES = [name for name, _, _, mode in TRACED if mode == "span"]
COUNT_NAMES = [name for name, _, _, mode in TRACED if mode == "count"]
LAYERS = ["linalg", "bicomplex", "faa", "jets", "hopf", "cyclic", "chern", "cli"]
REQUEST = "request"  # span around each request, opened by the serving loop

# raw per-process counters; ratios are formed after summing over processes
COUNTERS = ["linalg.nnz_in", "linalg.pivots", "linalg.pivot_room",
            "bicomplex.matrix.nnz", "bicomplex.matrix.distinct", "hopf.result_terms",
            "cli.report_bytes"]

WRAPPED_MARK = "__perfbench_traced__"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


# ------------------------------------------------------------------ hooks
# hook(tracer, args, result) adds the work counts of one call


def _rank_hook(tr, args, result):
    m = args[0]
    tr.counters["linalg.nnz_in"] += len(m.entries)
    tr.counters["linalg.pivots"] += result if isinstance(result, int) else result[0]
    tr.counters["linalg.pivot_room"] += min(m.rows, m.cols)


def _membership_hook(tr, args, result):
    v, span = args[0], args[1]
    tr.counters["linalg.nnz_in"] += len(v) + sum(len(w) for w in span)


def _quotient_hook(tr, args, result):
    quot, dim, relations = args[0], args[1], args[2]
    tr.counters["linalg.nnz_in"] += sum(len(r) for r in relations)
    tr.counters["linalg.pivots"] += dim - len(quot.basis)
    tr.counters["linalg.pivot_room"] += min(sum(1 for r in relations if r), dim)


def _matrix_hook(tr, args, result):
    eng, op, m, w = args[0], args[1], args[2], args[3]
    tr.counters["bicomplex.matrix.nnz"] += len(result.entries)
    key = (eng.n, eng.w_max, eng.kind, eng.J, op, m, w)
    if key not in tr.matrix_keys:
        tr.matrix_keys.add(key)
        tr.counters["bicomplex.matrix.distinct"] += 1


def _hopf_hook(tr, args, result):
    tr.counters["hopf.result_terms"] += len(result.terms)


HOOKS = {
    "linalg.rank": _rank_hook,
    "linalg.rank_and_kernel": _rank_hook,
    "linalg.membership": _membership_hook,
    "linalg.Quotient": _quotient_hook,
    "bicomplex.matrix": _matrix_hook,
    **{name: _hopf_hook for name in SPAN_NAMES if name.startswith("hopf.")},
}


class Tracer:
    """Aggregated spans and work counts for one process."""

    def __init__(self):
        self.calls = {name: 0 for name in SPAN_NAMES + COUNT_NAMES + [REQUEST]}
        self.self_s = {name: 0.0 for name in SPAN_NAMES + [REQUEST]}
        self.counters = {name: 0 for name in COUNTERS}
        self.matrix_keys: set = set()
        self.active = False
        self._stack: list = []  # child time covered, one entry per open span
        self._restore: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn as a span called name; used by the wrappers and the serving loop."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            self.calls[name] += 1
            self.self_s[name] += dt - child

    def _span_wrapper(self, name: str, orig):
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            result = tracer.span(name, orig, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def _count_wrapper(self, name: str, orig):
        calls = self.calls
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return orig(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function in loaded hopfcyclic modules."""
        for _, module, _, _ in TRACED:
            importlib.import_module(module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hopfcyclic" or name.startswith("hopfcyclic.")]
        for name, module, path, mode in TRACED:
            owner, orig = _resolve(module, path)
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapper = make(name, orig)
            setattr(wrapper, WRAPPED_MARK, name)
            namespaces = modules if isinstance(owner, type(sys)) else [owner]
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}


def is_traced(obj) -> bool:
    return hasattr(obj, WRAPPED_MARK)


def installed_wrappers() -> list:
    """Names of traced wrappers currently bound anywhere in hopfcyclic."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name != "hopfcyclic" and not name.startswith("hopfcyclic."):
            continue
        for attr, value in vars(module).items():
            if is_traced(value):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type):
                found.extend(f"{name}.{attr}.{a}" for a, v in vars(value).items() if is_traced(v))
    return found


# ------------------------------------------------------------------ metrics


def empty_totals() -> dict:
    return Tracer().dump()


def add_totals(total: dict, part: dict) -> None:
    for section in ("calls", "self_s", "counters"):
        for k, v in part[section].items():
            total[section][k] = total[section].get(k, 0) + v


def layer_metrics(totals: dict, passes: int) -> dict:
    """Per-layer metrics, per pass over a request list, from dumps summed over passes."""
    calls, self_s, c = totals["calls"], totals["self_s"], totals["counters"]
    per = 1.0 / max(passes, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] * per, "count")
        out[f"{name}.self_s"] = (self_s[name] * per, "s")
    for name in COUNT_NAMES:
        out[f"{name}.calls"] = (calls[name] * per, "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer) * per, "s")
    out["request.self_s"] = (self_s[REQUEST] * per, "s")
    out["linalg.nnz_in"] = (c["linalg.nnz_in"] * per, "count")
    out["linalg.pivot_frac"] = (
        c["linalg.pivots"] / c["linalg.pivot_room"] if c["linalg.pivot_room"] else 0.0, "ratio")
    out["bicomplex.matrix.nnz"] = (c["bicomplex.matrix.nnz"] * per, "count")
    out["bicomplex.matrix.distinct_frac"] = (
        c["bicomplex.matrix.distinct"] / calls["bicomplex.matrix"]
        if calls["bicomplex.matrix"] else 0.0, "ratio")
    out["hopf.result_terms"] = (c["hopf.result_terms"] * per, "count")
    out["cli.report_bytes"] = (c["cli.report_bytes"] * per, "bytes")
    return out
