"""The four benchmark workloads: seeded request lists, handlers and checks.

A request list is made from the seed alone, before ``hopfcyclic`` is
imported, as plain tuples; every pass of a run serves the same list.
``prepare`` turns them into library objects after set-up (untimed),
``serve`` runs one request (the timed part) and ``check`` verifies its
answer by an exact identity or against the answers recorded in
``expected.json`` (untimed).

Workloads:

* ``cohomology_cold``  the README computations, one fresh process per job.
* ``cohomology_stream`` HH / HC / Goncarova queries in one warm process.
* ``hopf_rewriting``   single H_n requests on random PBW words, plus
  cocyclic-module requests on random words of the H_1 module.
* ``jets_faa``         jet and F(N) requests on random rational N-jets, plus
  the matched-pair suite.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("cohomology_cold", "cohomology_stream", "hopf_rewriting", "jets_faa")

# ---------------------------------------------------------------------------
# cohomology queries (shared by the cold jobs and the stream)
#
# A query is ("hochschild" | "cyclic", n, degree_max, w_max, kind) or
# ("goncarova", k_max, w_max).


def query_key(q) -> str:
    if q[0] == "goncarova":
        return f"goncarova k<={q[1]} w<={q[2]}"
    kind, n, d, w, rel = q
    return f"{kind} n={n} d<={d} w<={w} {rel}"


def run_query(q):
    """Serve one cohomology query through the library API."""
    from hopfcyclic import bicomplex

    if q[0] == "goncarova":
        return bicomplex.goncarova_check(q[1], q[2])
    kind, n, d, w, rel = q
    if kind == "hochschild":
        return bicomplex.hochschild_dims(n, d, w, rel)
    return bicomplex.total_cohomology(n, d, w, rel)


def summarize(report: dict) -> dict:
    """Canonical, JSON-comparable answer of a cohomology report."""
    if "relative_classes" in report:  # chern
        rc = report["relative_classes"]
        return {
            "passed": bool(rc["passed"] and report["theta_span"]["passed"]
                           and report["sign_invariance"]["passed"]),
            "classes": [c["label"] for c in rc["classes"]],
            "dims": rc["cohomology_dims_weight_n"],
        }
    blocks = report["blocks"]
    if "k_max" in report:  # goncarova
        return {
            "passed": bool(report["passed"]),
            "dims": {str(b["k"]): b["dims_by_weight"] for b in blocks},
        }
    out = {"dims": [[b["degree"], b["weight"], b["dim"]] for b in blocks]}
    if any("certificates" in b for b in blocks):
        out["labels"] = [[b["degree"], b["weight"], [c["label"] for c in b["certificates"]]]
                         for b in blocks]
    return out


# Headline numbers stated in the README (n = 1), checked independently of
# the recorded answers.
README_HH_WEIGHTS = {0: [0], 1: [0, 1, 2], 2: [1, 2, 2, 3, 5, 7]}
README_HC_DIMS = {0: 1, 1: 2, 2: 5}
README_HC_DEG1 = {1: "godbillon-vey", 2: "schwarzian"}
README_GONCAROVA = {"1": {"1": 1, "2": 1}, "2": {"5": 1, "7": 1}}
README_CHERN_N2 = ["C[0;()]", "C[1;1]", "C[2;2]", "C[2;1,1]"]


def readme_problems(key: str, s: dict) -> list:
    """Disagreements with the README numbers (empty when consistent).

    Absolute n = 1 answers are compared on the degrees and weights that the
    query covers; Goncarova and Chern answers are compared whole.
    """
    bad = []
    if key.startswith("goncarova"):
        k_max, w_max = _gon_params(key)
        for k, dims in README_GONCAROVA.items():
            if int(k) <= k_max:
                want = {w: d for w, d in dims.items() if int(w) <= w_max}
                if s["dims"].get(k) != want:
                    bad.append(f"goncarova k={k}: {s['dims'].get(k)} != {want}")
        if not s["passed"]:
            bad.append("goncarova check failed")
        return bad
    if key.startswith("chern n=2"):
        if s["classes"] != README_CHERN_N2 or not s["passed"]:
            bad.append(f"chern classes {s['classes']} passed={s['passed']}")
        return bad
    parts = key.split()
    if parts[1] != "n=1" or parts[-1] != "absolute":
        return bad
    d_max = int(parts[2][3:])
    w_max = int(parts[3][3:])
    weights: dict = {}
    for deg, w, dim in s["dims"]:
        weights.setdefault(deg, []).extend([w] * dim)
    if parts[0] == "hochschild":
        for deg, ws in README_HH_WEIGHTS.items():
            if deg <= d_max:
                want = [w for w in ws if w <= w_max]
                if sorted(weights.get(deg, [])) != want:
                    bad.append(f"HH^{deg} weights {sorted(weights.get(deg, []))} != {want}")
    else:
        labels = {(deg, w): ls for deg, w, ls in s.get("labels", [])}
        for w, name in README_HC_DEG1.items():
            if d_max >= 1 and w <= w_max and labels.get((1, w)) != [name]:
                bad.append(f"HC^1 weight {w} labels {labels.get((1, w))} != [{name}]")
        if w_max >= 7:
            for deg, dim in README_HC_DIMS.items():
                if deg <= d_max and len(weights.get(deg, [])) != dim:
                    bad.append(f"HC^{deg} dim {len(weights.get(deg, []))} != {dim}")
    return bad


def _gon_params(key: str):
    _, k, w = key.split()
    return int(k[3:]), int(w[3:])


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# ---------------------------------------------------------------------------
# cohomology_cold: the README computations, each in a fresh process

def query_engine_calls(q) -> list:
    """Arguments of the ``bicomplex.engine`` calls a library query makes.

    ``engine`` is an ``lru_cache``, which keys on the call form, so set-up
    repeats each call exactly as the entry point writes it.
    """
    if q[0] == "goncarova":
        return [(1, q[2], "absolute")]
    _, n, _, w, kind = q
    return [(n, w, kind, None)]


# name -> (CLI argv or library query, the bicomplex.engine calls it makes,
# in their call form, built during set-up)
COLD_JOBS = {
    "hochschild n=1 d<=2 w<=7 absolute": (
        ["hochschild", "--n", "1", "--degree-max", "2", "--weight-max", "7"],
        [(1, 7)]),
    "cyclic n=1 d<=2 w<=7 absolute": (
        ["cyclic", "--n", "1", "--degree-max", "2", "--weight-max", "7"],
        [(1, 7)]),
    "cyclic n=1 d<=3 w<=6 absolute": (
        ["cyclic", "--n", "1", "--degree-max", "3", "--weight-max", "6"],
        [(1, 6)]),
    "goncarova k<=2 w<=8": (
        ["goncarova", "--k-max", "2", "--weight-max", "8"],
        [(1, 8, "absolute")]),
    "chern n=2": (  # sign invariance (--sign-p-max 3) uses n = 1..3
        ["chern", "--n", "2"],
        [(2, 2, "relative", None), (1, 1, "relative"), (2, 2, "relative"),
         (3, 3, "relative")]),
    "cyclic n=2 d<=2 w<=2 absolute": (
        ["cyclic", "--n", "2", "--degree-max", "2", "--weight-max", "2"],
        [(2, 2)]),
    "cyclic n=2 d<=2 w<=3 relative": (
        ("cyclic", 2, 2, 3, "relative"),
        query_engine_calls(("cyclic", 2, 2, 3, "relative"))),
}

# report file the CLI writes for each command
CLI_REPORT = {"hochschild": "hochschild-n{n}.json", "cyclic": "cyclic-n{n}.json",
              "goncarova": "goncarova.json", "chern": "chern-n{n}.json"}

# the untimed --parallel 1 / --parallel 2 byte-identity check
PARALLEL_CHECK_ARGV = ["cyclic", "--n", "1", "--degree-max", "2", "--weight-max", "5"]


def cold_order(seed: int, index: int) -> list:
    names = sorted(COLD_JOBS)
    random.Random(f"cohomology_cold:{seed}:{index}").shuffle(names)
    return names


def report_path(argv: list, outdir: Path) -> Path:
    n = argv[argv.index("--n") + 1] if "--n" in argv else ""
    return outdir / CLI_REPORT[argv[0]].format(n=n)


# ---------------------------------------------------------------------------
# cohomology_stream: popular queries repeat more often (Zipf-like counts by
# popularity rank); the seed sets the arrival order.

STREAM_CATALOG = [  # most popular first
    ("hochschild", 1, 2, 5, "absolute"),
    ("cyclic", 1, 2, 4, "absolute"),
    ("cyclic", 1, 2, 6, "absolute"),
    ("cyclic", 1, 2, 5, "absolute"),
    ("hochschild", 2, 2, 2, "absolute"),
    ("hochschild", 1, 2, 6, "absolute"),
    ("cyclic", 2, 1, 3, "absolute"),      # n = 2 defect: KeyError
    ("goncarova", 2, 7),
    ("cyclic", 2, 2, 2, "absolute"),
    ("hochschild", 2, 1, 3, "absolute"),  # n = 2 defect: KeyError
    ("cyclic", 2, 2, 3, "relative"),
    ("goncarova", 2, 6),
    ("cyclic", 1, 3, 4, "absolute"),
    ("cyclic", 1, 3, 5, "absolute"),
]
STREAM_TOP_COUNT = 14


def stream_counts() -> list:
    return [max(1, round(STREAM_TOP_COUNT / rank)) for rank in range(1, len(STREAM_CATALOG) + 1)]


def stream_requests(seed: int) -> list:
    reqs = []
    for q, count in zip(STREAM_CATALOG, stream_counts()):
        reqs.extend([q] * count)
    random.Random(f"cohomology_stream:{seed}").shuffle(reqs)
    return reqs


def stream_contexts() -> list:
    return sorted({call for q in STREAM_CATALOG for call in query_engine_calls(q)}, key=str)


# ---------------------------------------------------------------------------
# random H_n data, generated without importing hopfcyclic.  Monomials use the
# package's PBW key format (deltas, X exponents, Y exponents) with Y pairs in
# row-major order.

HOPF_N = (1, 2, 3)
HOPF_WEIGHT_CAP = {1: 8, 2: 3, 3: 2}  # weight bound of random words
HOPF_DEGREE_CAP = {1: 4, 2: 3, 3: 3}  # PBW degree bound of random monomials
MODULE_CUT = (3, 2)                   # standard H_1 module: weight, PBW degree
MODULE_DEGREES = (1, 2, 3)            # cochain degrees m of cocyclic requests
HOPF_KINDS = ("normal_form", "product", "coproduct", "antipode")
COCYCLIC_KINDS = ("tau", "b", "B")
HOPF_COUNT = 4200                     # requests per pass, a multiple of 21


def _delta_keys(n: int, w: int) -> list:
    """Normal delta keys (i, (j, k), trailing) of weight exactly w."""
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                for tr in combinations_with_replacement(range(k, n + 1), w - 1):
                    out.append((i, (j, k), tr))
    return out


def _random_mono(rng, n: int, weight: int, d_cap: int):
    """A random PBW monomial of the given weight, or less when the PBW degree
    cap is reached first."""
    degree = 0
    deltas, x, y = [], [0] * n, [0] * (n * n)
    while weight > 0 and degree < d_cap:
        if rng.random() < 0.5:
            dw = rng.randint(1, weight)
            deltas.append(rng.choice(_delta_keys(n, dw)))
            weight -= dw
        else:
            x[rng.randrange(n)] += 1
            weight -= 1
        degree += 1
    while degree < d_cap and rng.random() < 0.5:
        y[rng.randrange(n * n)] += 1
        degree += 1
    return (tuple(sorted(deltas)), tuple(x), tuple(y))


def _random_element(rng, n: int, weight: int, w_cap: int, d_cap: int) -> dict:
    """A few random PBW monomials of one weight, small integer coefficients;
    the first is drawn at the given weight, the others at random weights up
    to w_cap and kept when they match it."""
    first = _random_mono(rng, n, weight, d_cap)
    target = sum(1 + len(d[2]) for d in first[0]) + sum(first[1])
    terms = {first: rng.choice((1, -1, 2, -2))}
    for _ in range(rng.randint(0, 2)):
        for _attempt in range(8):
            m = _random_mono(rng, n, rng.randint(0, w_cap), d_cap)
            if sum(1 + len(d[2]) for d in m[0]) + sum(m[1]) == target:
                terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
                break
    return {m: c for m, c in terms.items() if c} or {first: 1}


def _random_word(rng, n: int, weight: int) -> list:
    """A random generator word of the given weight with raw (unsorted) delta
    symbols."""
    word = []
    while weight > 0:
        r = rng.random()
        if r < 0.35:
            word.append(("X", rng.randint(1, n)))
            weight -= 1
        elif r < 0.7:
            dw = rng.randint(1, weight)
            idx = [rng.randint(1, n) for _ in range(dw + 1)]
            word.append(("D", rng.randint(1, n), (idx[0], idx[1]), tuple(idx[2:])))
            weight -= dw
        else:
            word.append(("Y", rng.randint(1, n), rng.randint(1, n)))
    for _ in range(rng.randint(0, 2)):
        word.insert(rng.randint(0, len(word)), ("Y", rng.randint(1, n), rng.randint(1, n)))
    return word


def _random_module_word(rng, m: int) -> tuple:
    """A degree-m word of the standard H_1 module within MODULE_CUT."""
    w_cut, d_cut = MODULE_CUT
    while True:
        word = tuple(_random_mono(rng, 1, rng.randint(0, w_cut), d_cut) for _ in range(m))
        if sum(sum(1 + len(d[2]) for d in mono[0]) + sum(mono[1]) for mono in word) <= w_cut:
            return word


def equal_shares(count: int, kinds: tuple, params: dict) -> list:
    """count (kind, value, sub-value) slots: equal shares per kind; within a
    kind, equal shares per value of params[kind] (n or degree); within a
    value, shares per sub-value params[kind][value] (weight or jet order)
    that differ by at most one."""
    slots = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        j = i // len(kinds)
        values = tuple(params[kind])
        value = values[j % len(values)]
        subs = params[kind][value]
        slots.append((kind, value, subs[(j // len(values)) % len(subs)]))
    return slots


def hopf_requests(seed: int) -> list:
    """Equal shares of each request kind and, within it, of each n (rewriting)
    or degree m (cocyclic); within a rewriting kind and n, shares differing by
    at most one of each weight of the word or element (the first term's);
    random data, seeded order."""
    rng = random.Random(f"hopf_rewriting:{seed}")
    kinds = HOPF_KINDS + COCYCLIC_KINDS
    params = {k: {m: (None,) for m in MODULE_DEGREES} for k in COCYCLIC_KINDS}
    for k in HOPF_KINDS:
        lowest = 1 if k == "normal_form" else 0
        params[k] = {n: tuple(range(lowest, HOPF_WEIGHT_CAP[n] + 1)) for n in HOPF_N}
    reqs = []
    for kind, n, weight in equal_shares(HOPF_COUNT, kinds, params):
        if kind in COCYCLIC_KINDS:
            reqs.append((kind, 1, n, _random_module_word(rng, n)))
            continue
        w_cap, d_cap = HOPF_WEIGHT_CAP[n], HOPF_DEGREE_CAP[n]
        if kind == "normal_form":
            reqs.append((kind, n, _random_word(rng, n, weight)))
        elif kind == "product":
            a = _random_element(rng, n, weight, w_cap, d_cap)
            b_cap = max(0, w_cap - 1)
            b = _random_element(rng, n, rng.randint(0, b_cap), b_cap, d_cap)
            reqs.append((kind, n, a, b))
        else:
            reqs.append((kind, n, _random_element(rng, n, weight, w_cap, d_cap)))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# random jets and F(N) data

JET_ORDERS = {1: (3, 8), 2: (3, 6), 3: (3, 5)}
FN_ORDERS = {1: (4, 6), 2: (3, 3)}     # F(N) contexts: jet order range per n
MATCHED_PAIR_CUTS = ((1, 4), (1, 5), (2, 3))
JET_KINDS = ("compose", "invert", "right_action")
FN_KINDS = ("fdb_coproduct", "f_antipode", "act_eta")
JETS_COUNT = 504                       # stream requests per pass, a multiple of 36


def _random_njet_data(rng, n: int, order: int) -> dict:
    """{(i, mono): Fraction} of an N-jet: identity linear part, sparse higher terms."""
    data = {(i, (i,)): Fraction(1) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for deg in range(2, order + 1):
            for mono in combinations_with_replacement(range(1, n + 1), deg):
                if rng.random() < 0.6:
                    c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if c:
                        data[(i, mono)] = c
    return data


def _random_matrix(rng, n: int) -> tuple:
    """A random invertible rational matrix (singular draws are redrawn)."""
    while True:
        rows = tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
                     for _ in range(n))
        if _det(rows) != 0:
            return rows


def _det(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _random_eta_mono(rng, n: int, w: int) -> tuple:
    """A sorted multiset of normal eta keys of total weight w."""
    out = []
    while w > 0:
        dw = rng.randint(1, w)
        out.append(rng.choice(_delta_keys(n, dw)))
        w -= dw
    return tuple(sorted(out))


def _g_generator(rng, n: int):
    if rng.random() < 0.4:
        return ("X", rng.randint(1, n))
    return ("Y", rng.randint(1, n), rng.randint(1, n))


def _orders(bounds: dict) -> dict:
    return {n: tuple(range(lo, hi + 1)) for n, (lo, hi) in bounds.items()}


def jets_requests(seed: int) -> list:
    """Equal shares of each jet and F(N) request kind, within it of each n,
    and within that of each jet order; random jets; the matched-pair suite
    once per cut; seeded order."""
    rng = random.Random(f"jets_faa:{seed}")
    params = ({k: _orders(JET_ORDERS) for k in JET_KINDS}
              | {k: _orders(FN_ORDERS) for k in FN_KINDS})
    reqs = [("matched_pair",) + cut for cut in MATCHED_PAIR_CUTS]
    for kind, n, order in equal_shares(JETS_COUNT, JET_KINDS + FN_KINDS, params):
        if kind in JET_KINDS:
            f = _random_njet_data(rng, n, order)
            if kind == "compose":
                reqs.append((kind, n, order, f, _random_njet_data(rng, n, order)))
            elif kind == "invert":
                reqs.append((kind, n, order, f))
            else:
                reqs.append((kind, n, order, f, _random_matrix(rng, n)))
        else:
            if kind == "act_eta":
                gen = _g_generator(rng, n)
                top = order - 1 - (1 if gen[0] == "X" else 0)
                emono = _random_eta_mono(rng, n, rng.randint(1, top))
                reqs.append((kind, n, order, gen, emono))
            else:
                emono = _random_eta_mono(rng, n, rng.randint(1, order - 1))
                reqs.append((kind, n, order, emono))
    rng.shuffle(reqs)
    return reqs


def jets_contexts() -> list:
    out = {(n, j) for n, (lo, hi) in FN_ORDERS.items() for j in range(lo, hi + 1)}
    out.update(MATCHED_PAIR_CUTS)
    return sorted(out)


# ---------------------------------------------------------------------------
# set-up, preparation, serving and checking (in the serving process)


def requests(workload: str, seed: int) -> list:
    """The request list every pass of a run with this seed serves."""
    if workload == "cohomology_stream":
        return stream_requests(seed)
    if workload == "hopf_rewriting":
        return hopf_requests(seed)
    if workload == "jets_faa":
        return jets_requests(seed)
    raise ValueError(workload)


def setup(workload: str) -> None:
    """Import hopfcyclic and build the contexts the workload uses."""
    import hopfcyclic  # noqa: F401
    from hopfcyclic import bicomplex, cyclic, faa, hopf

    if workload == "cohomology_stream":
        for call in stream_contexts():
            bicomplex.engine(*call)
    elif workload == "hopf_rewriting":
        for n in HOPF_N:
            hopf.algebra(n)
        cyclic.standard_h1_module(*MODULE_CUT)
    elif workload == "jets_faa":
        for n, j in jets_contexts():
            faa.context(n, j)


def prepare(workload: str, reqs: list) -> list:
    """Turn plain request data into library objects (untimed)."""
    if workload == "cohomology_stream":
        return reqs
    from hopfcyclic import faa
    from hopfcyclic.jets import AffineMap, Jet
    from hopfcyclic.symbols import LinComb

    out = []
    for r in reqs:
        kind = r[0]
        if kind in ("tau", "b", "B"):
            out.append((kind, r[1], r[2], LinComb.unit(r[3])))
        elif kind in ("normal_form", "matched_pair"):
            out.append(r)
        elif kind == "product":
            out.append((kind, r[1], LinComb(r[2]), LinComb(r[3])))
        elif kind in ("coproduct", "antipode"):
            out.append((kind, r[1], LinComb(r[2])))
        elif kind == "compose":
            out.append((kind, Jet(r[1], r[2], r[3]), Jet(r[1], r[2], r[4])))
        elif kind == "invert":
            out.append((kind, Jet(r[1], r[2], r[3])))
        elif kind == "right_action":
            n = r[1]
            out.append((kind, Jet(n, r[2], r[3]), AffineMap(r[4], (Fraction(0),) * n)))
        elif kind in ("fdb_coproduct", "f_antipode"):
            F = faa.context(r[1], r[2])
            out.append((kind, F, F.eta_mono_poly(r[3])))
        elif kind == "act_eta":
            out.append((kind, faa.context(r[1], r[2]), r[3], r[4]))
        else:
            raise ValueError(kind)
    return out


def serve(req):
    """Run one request and return its answer (the timed part)."""
    kind = req[0]
    if kind in ("hochschild", "cyclic", "goncarova"):
        return run_query(req)
    if kind in ("normal_form", "product", "coproduct", "antipode"):
        from hopfcyclic import hopf

        H = hopf.algebra(req[1])
        if kind == "normal_form":
            return H.normal_form(req[2])
        if kind == "product":
            return H.product(req[2], req[3])
        if kind == "coproduct":
            return H.coproduct(req[2])
        s = H.antipode(req[2])
        return s, H.antipode_inv(s)
    if kind in ("tau", "b", "B"):
        from hopfcyclic import cyclic

        module = cyclic.standard_h1_module(*MODULE_CUT)
        _, _, m, x = req
        if kind == "tau":
            for _ in range(m + 1):
                x = module.tau(x)
            return x
        return module.b(x, m) if kind == "b" else module.B(x, m)
    from hopfcyclic import faa, jets

    if kind == "compose":
        return jets.compose(req[1], req[2])
    if kind == "invert":
        return jets.invert(req[1])
    if kind == "right_action":
        return jets.right_action(req[1], req[2])
    if kind == "fdb_coproduct":
        return req[1].f_coproduct(req[2])
    if kind == "f_antipode":
        s = req[1].f_antipode(req[2])
        return s, req[1].f_antipode(s)
    if kind == "act_eta":
        return req[1].act_eta(req[2], req[3])
    if kind == "matched_pair":
        return faa.check_matched_pair(req[1], req[2])
    raise ValueError(kind)


def check(req, answer, expected: dict) -> str | None:
    """None when the answer is right, else a one-line description (untimed)."""
    kind = req[0]
    if kind in ("hochschild", "cyclic", "goncarova"):
        return check_cohomology(query_key(req), summarize(answer), expected)
    if kind in ("normal_form", "product", "coproduct", "antipode"):
        return _check_hopf(req, answer)
    if kind in ("tau", "b", "B"):
        return _check_cocyclic(req, answer)
    return _check_jets(req, answer)


def check_cohomology(key: str, s: dict, expected: dict) -> str | None:
    bad = readme_problems(key, s)
    want = expected.get(key)
    if want is None:
        bad.append("no recorded answer")
    elif want.get("error"):
        # the recorded answer is a known defect; a structurally valid answer
        # means it was fixed, and there is no reference to compare against
        if not _well_formed(s):
            bad.append("malformed answer")
    elif s != want:
        bad.append(f"differs from the recorded answer: {s} != {want}")
    return "; ".join(bad) or None


def _well_formed(s: dict) -> bool:
    return all(isinstance(d, int) and d > 0 for _, _, d in s.get("dims", []))


def _check_hopf(req, answer) -> str | None:
    from hopfcyclic import hopf
    from hopfcyclic.symbols import LinComb

    kind, n = req[0], req[1]
    H = hopf.algebra(n)
    if kind == "normal_form":
        # confluence: a different association order gives the same result
        word = req[2]
        cut = max(1, len(word) // 2)
        if len(word) > 1 and H.product(H.normal_form(word[:cut]), H.normal_form(word[cut:])) != answer:
            return "normal form depends on association order"
        return None
    if kind == "product":
        # the product of PBW elements is the normal form of the joined words
        want = LinComb.zero()
        for m1, c1 in req[2].terms.items():
            for m2, c2 in req[3].terms.items():
                want = want + H.normal_form(H.mono_factors(m1) + H.mono_factors(m2), c1 * c2)
        return None if want == answer else "product differs from the joined-word normal form"
    if kind == "coproduct":
        x, one = req[2], H.one_mono()
        left = LinComb({m2: c for (m1, m2), c in answer.terms.items() if m1 == one})
        right = LinComb({m1: c for (m1, m2), c in answer.terms.items() if m2 == one})
        return None if left == x and right == x else "counit axiom fails on the coproduct"
    return None if answer[1] == req[2] else "S^-1 S != id"


def _check_cocyclic(req, answer) -> str | None:
    from hopfcyclic import cyclic

    module = cyclic.standard_h1_module(*MODULE_CUT)
    kind, _, m, x = req
    if kind == "tau":
        return None if answer == x else "tau^(m+1) != 1"
    if kind == "b":
        return None if module.b(answer, m + 1).is_zero() else "b b != 0"
    if m == 0:
        return None if answer.is_zero() else "B != 0 in degree 0"
    return None if module.B(answer, m - 1).is_zero() else "B B != 0"


def _check_jets(req, answer) -> str | None:
    from hopfcyclic.jets import Jet

    kind = req[0]
    if kind == "compose":
        f, g = req[1], req[2]
        return None if _jet_dict(answer) == _compose_ref(f, g) else "composition differs from reference"
    if kind == "invert":
        f = req[1]
        ident = _jet_dict(Jet.identity(f.n, f.order))
        return None if _compose_ref(f, answer) == ident else "f o f^-1 != id"
    if kind == "right_action":
        psi, a = req[1], req[2]
        return None if _jet_dict(answer) == _right_action_ref(psi, a.matrix) else "right action differs from A^-1 psi A"
    if kind == "fdb_coproduct":
        f = req[2]
        left = {l: c for (l, r), c in answer.terms.items() if not r}
        right = {r: c for (l, r), c in answer.terms.items() if not l}
        return None if left == f.terms == right else "counit axiom fails on the Faa di Bruno coproduct"
    if kind == "f_antipode":
        return None if answer[1] == req[2] else "S_F^2 != id"
    if kind == "act_eta":
        F, gen, emono = req[1], req[2], req[3]
        jet_route = F.act_jet(gen, F.eta_mono_poly(emono))
        adj_route = F.eta_to_alpha(answer)
        return None if (jet_route - adj_route).is_zero() else "adjoint and jet routes disagree"
    if kind == "matched_pair":
        return None if answer["passed"] else "matched-pair suite failed"
    raise ValueError(kind)


# independent reference for jet composition: plain truncated power series


def _jet_dict(jet) -> dict:
    return {(i + 1, m): c for i, comp in enumerate(jet.comps) for m, c in comp.items() if c}


def _series_mul(a: dict, b: dict, order: int) -> dict:
    """Product of truncated power series {sorted index tuple: coefficient}."""
    b_items = sorted(b.items(), key=lambda t: len(t[0]))
    out: dict = {}
    for m1, c1 in a.items():
        room = order - len(m1)
        for m2, c2 in b_items:
            if len(m2) > room:
                break
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _compose_series(f_comps: list, g_comps: list, order: int) -> dict:
    powers = {(): {(): Fraction(1)}}  # products of g components, by sorted index tuple

    def power(mono: tuple) -> dict:
        if mono not in powers:
            powers[mono] = _series_mul(power(mono[:-1]), g_comps[mono[-1] - 1], order)
        return powers[mono]

    out = {}
    for i, comp in enumerate(f_comps):
        acc: dict = {}
        for mono, c in comp.items():
            for m, v in power(mono).items():
                acc[m] = acc.get(m, 0) + c * v
        out.update({(i + 1, m): v for m, v in acc.items() if v})
    return out


def _compose_ref(f, g) -> dict:
    return _compose_series(f.comps, g.comps, f.order)


def _right_action_ref(psi, matrix) -> dict:
    """A^-1 (psi o A) for a linear map A."""
    n, order = psi.n, psi.order
    lin = [{(j + 1,): Fraction(matrix[i][j]) for j in range(n) if matrix[i][j]} for i in range(n)]
    comp = _compose_series(psi.comps, lin, order)
    inv = _mat_inv(matrix)
    out: dict = {}
    for (j, m), v in comp.items():
        for i in range(n):
            if inv[i][j - 1]:
                out[(i + 1, m)] = out.get((i + 1, m), 0) + inv[i][j - 1] * v
    return {k: v for k, v in out.items() if v}


def _mat_inv(rows) -> list:
    n = len(rows)
    a = [list(map(Fraction, r)) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]
