"""Batch CLI: verification suites and cohomology computations.

Every command writes one JSON report (schema 1, rationals as strings) into
the output directory and prints a text summary that always includes the
truncation parameters, so every number is scoped.  Exit status: 0 all checks
passed, 1 a check failed (first counterexample in the report), 2 invalid
configuration.  Reports are byte-identical across runs.

Cohomology blocks run in order, one (degree, weight) block at a time, in
the same library drivers that ``bicomplex`` exposes.  ``--parallel`` is
still parsed and ignored, because ``perfbench/run.py`` checks that reports
are byte-identical at ``--parallel 1`` and ``2`` and needs both runs to
succeed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .errors import HopfCyclicError, InvalidConfig
from . import bicomplex, chern, cyclic, faa, hopf


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(x) for x in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


def _write_report(outdir: Path, name: str, payload: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    payload = dict(payload)
    payload.setdefault("schema", 1)
    path = outdir / f"{name}.json"
    path.write_text(json.dumps(_jsonify(payload), indent=2, sort_keys=True) + "\n")
    return path


def _scope_line(**params) -> str:
    return "  [" + ", ".join(f"{k}={v}" for k, v in params.items()) + "]"


def cmd_verify_hopf(args, outdir: Path) -> int:
    report = hopf.verify_hopf_axioms(args.n, args.weight, args.pbw)
    bianchi = hopf.bianchi_check(args.n)
    confluence = hopf.confluence_smoke_test(n_max=max(args.n, 2), words=args.words, seed=0)
    payload = {"axioms": report, "bianchi": bianchi, "confluence": confluence}
    _write_report(outdir, f"verify-hopf-n{args.n}", payload)
    ok = report["passed"] and bianchi["passed"] and confluence["passed"]
    print(f"verify-hopf: {'PASS' if ok else 'FAIL'}")
    print(_scope_line(n=args.n, weight_cut=args.weight, pbw_cut=args.pbw,
                      basis=report["basis_size"], confluence_words=args.words))
    for name, entry in report["checks"].items():
        line = f"  {name}: {'ok' if entry['passed'] else 'FAIL'} ({entry['checked']} checked)"
        if not entry["passed"]:
            line += f" first counterexample: {entry['first_counterexample']}"
        print(line)
    print(f"  bianchi instances: {bianchi['instances']} "
          f"{'ok' if bianchi['passed'] else 'FAIL'}")
    print(f"  confluence smoke: {'ok' if confluence['passed'] else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_matched_pair(args, outdir: Path) -> int:
    mp = faa.check_matched_pair(args.n, args.jet_cut, args.weight)
    routes = faa.two_route_coproduct_check(args.n, args.jet_cut, args.weight or args.jet_cut - 1)
    moda = faa.moda_check(args.n, args.jet_cut, args.weight or args.jet_cut - 2)
    bicr = faa.bicrossed_crosscheck(args.n, args.jet_cut, args.bicrossed_weight, args.pbw)
    payload = {"matched_pair": mp, "two_route_coproduct": routes,
               "action_two_routes": moda, "bicrossed": bicr}
    _write_report(outdir, f"verify-matched-pair-n{args.n}", payload)
    ok = mp["passed"] and routes["passed"] and moda["passed"] and bicr["passed"]
    print(f"verify-matched-pair: {'PASS' if ok else 'FAIL'}")
    print(_scope_line(n=args.n, jet_cut=args.jet_cut, weight_cut=mp["weight_cut"],
                      bicrossed_weight=args.bicrossed_weight, pbw_cut=args.pbw))
    for name, entry in mp["axioms"].items():
        print(f"  {name}: {'ok' if entry['passed'] else 'FAIL'} ({entry['checked']} checked"
              + (f", {entry['skipped_beyond_cut']} beyond cut" if entry.get("skipped_beyond_cut") else "")
              + ")")
    print(f"  coproduct two routes: {'ok' if routes['passed'] else 'FAIL'} ({routes['checked']})")
    print(f"  action two routes: {'ok' if moda['passed'] else 'FAIL'} ({moda['checked']})")
    for name, entry in bicr["checks"].items():
        print(f"  bicrossed {name}: {'ok' if entry['passed'] else 'FAIL'} ({entry['checked']})")
    return 0 if ok else 1


def cmd_verify_cocyclic(args, outdir: Path) -> int:
    module = cyclic.standard_h1_module(args.weight, args.pbw)
    ids = cyclic.check_cocyclic_identities(module, args.degree_max)
    mixed = cyclic.check_mixed_complex(module, args.degree_max)
    gv = cyclic.gv_cocycle_report(module)
    payload = {"identities": ids, "mixed_complex": mixed, "gv_cocycle": gv}
    _write_report(outdir, "verify-cocyclic", payload)
    ok = ids["passed"] and mixed["passed"] and gv["passed"]
    print(f"verify-cocyclic: {'PASS' if ok else 'FAIL'}")
    print(_scope_line(n=1, degree_max=args.degree_max, weight_cut=args.weight, pbw_cut=args.pbw))
    for name, entry in ids["identities"].items():
        print(f"  {name}: {'ok' if entry['passed'] else 'FAIL'} ({entry['checked']} checked)")
    for name, entry in mixed["identities"].items():
        print(f"  {name}: {'ok' if entry['passed'] else 'FAIL'} ({entry['checked']} checked)")
    print(f"  gv 1-cocycle: {'ok' if gv['passed'] else 'FAIL'}")
    return 0 if ok else 1


def cmd_cyclic(args, outdir: Path) -> int:
    report = bicomplex.total_cohomology(args.n, args.degree_max, args.weight_max)
    _write_report(outdir, f"cyclic-n{args.n}", report)
    dims = {}
    for b in report["blocks"]:
        dims[b["degree"]] = dims.get(b["degree"], 0) + b["dim"]
    print("cyclic cohomology (HC) dimensions by degree:", dims)
    print(_scope_line(n=args.n, degree_max=args.degree_max, w_max=args.weight_max,
                      jet_cut=report["jet_cut"]))
    for b in report["blocks"]:
        labels = [c["label"] for c in b["certificates"]]
        print(f"  HC^{b['degree']} weight {b['weight']}: dim {b['dim']}  {labels}")
    return 0


def cmd_hochschild(args, outdir: Path) -> int:
    report = bicomplex.hochschild_dims(args.n, args.degree_max, args.weight_max)
    _write_report(outdir, f"hochschild-n{args.n}", report)
    dims = {}
    weights = {}
    for b in report["blocks"]:
        dims[b["degree"]] = dims.get(b["degree"], 0) + b["dim"]
        weights.setdefault(b["degree"], []).extend([b["weight"]] * b["dim"])
    print("Hochschild cohomology dimensions by degree:", dims)
    print(_scope_line(n=args.n, degree_max=args.degree_max, w_max=args.weight_max,
                      jet_cut=report["jet_cut"]))
    for d in sorted(weights):
        print(f"  H^{d}: dim {dims[d]}, class weights {sorted(weights[d])}")
    return 0


def cmd_chern(args, outdir: Path) -> int:
    thm = chern.verify_relative_classes(args.n)
    theta = chern.theta_span_report(args.n, args.p_max, args.q_max)
    signs = chern.sign_invariance_report(args.sign_p_max)
    payload = {"relative_classes": thm, "theta_span": theta, "sign_invariance": signs}
    _write_report(outdir, f"chern-n{args.n}", payload)
    ok = thm["passed"] and theta["passed"] and signs["passed"]
    print(f"chern: {'PASS' if ok else 'FAIL'} "
          f"({len(thm['classes'])} classes, expected {thm['expected_count']})")
    print(_scope_line(n=args.n, jet_cut=thm["jet_cut"], weight=args.n,
                      sign_p_max=args.sign_p_max))
    for c in thm["classes"]:
        print(f"  {c['label']}: spot ({c['p']},{c['q']}), "
              f"{'cocycle' if c['beta_closed'] and c['del_closed'] else 'NOT CLOSED'}")
    print(f"  independent: {thm['independent']}; wrong parity zero: {thm['wrong_parity_zero']}")
    print(f"  dims at weight n: {thm['cohomology_dims_weight_n']}")
    print(f"  theta span: {'ok' if theta['passed'] else 'FAIL'}; "
          f"sign invariance: {'ok' if signs['passed'] else 'FAIL'}")
    return 0 if ok else 1


def cmd_goncarova(args, outdir: Path) -> int:
    rep = bicomplex.goncarova_check(args.k_max, args.weight_max)
    _write_report(outdir, "goncarova", rep)
    print(f"goncarova: {'PASS' if rep['passed'] else 'FAIL'}")
    print(_scope_line(n=1, k_max=args.k_max, w_max=args.weight_max))
    for b in rep["blocks"]:
        print(f"  k={b['k']}: dims {b['dims_by_weight']} expected at weights {b['expected_weights']}")
    return 0 if rep["passed"] else 1


def parse_word(text: str, n: int):
    """Parse the generator-word grammar: X1, Y12, d[i;j,k|l1,l2], ^ powers."""
    tokens = []
    for chunk in text.replace("·", " ").replace("*", " ").split():
        power = 1
        if "^" in chunk and not chunk.startswith("d["):
            chunk, pw = chunk.rsplit("^", 1)
            power = int(pw)
        elif chunk.startswith("d[") and "^" in chunk.split("]")[-1]:
            base, pw = chunk.rsplit("^", 1)
            chunk, power = base, int(pw)
        if chunk.startswith("d["):
            body = chunk[2:].rstrip("]")
            head, _, tail = body.partition("|")
            i_str, _, pair_str = head.partition(";")
            i = int(i_str)
            j, k = (int(x) for x in pair_str.split(","))
            trailing = tuple(int(x) for x in tail.split(",")) if tail else ()
            tok = ("D", i, (j, k), trailing)
        elif chunk.startswith("X"):
            tok = ("X", int(chunk[1:]) if chunk[1:] else 1)
        elif chunk.startswith("Y"):
            body = chunk[1:]
            if not body:
                tok = ("Y", 1, 1)
            elif len(body) == 2 and body.isdigit():
                tok = ("Y", int(body[0]), int(body[1]))
            else:
                i, j = (int(x) for x in body.split(","))
                tok = ("Y", i, j)
        else:
            raise InvalidConfig(f"cannot parse generator {chunk!r}")
        tokens.extend([tok] * power)
    return tokens


def cmd_normal_form(args, outdir: Path) -> int:
    H = hopf.algebra(args.n)
    word = parse_word(args.word, args.n)
    result = H.normal_form(word)
    rendered = H.render(result)
    _write_report(outdir, "normal-form", {
        "n": args.n, "input": args.word, "normal_form": rendered,
        "terms": [[str(c), H.render_mono(m)] for m, c in sorted(result.terms.items())],
    })
    print(f"normal form [n={args.n}]: {rendered}")
    return 0


def cmd_all(args, outdir: Path) -> int:
    status = 0
    ns = argparse.Namespace

    for n, w, d in ((1, 4, 3), (2, 2, 2)):
        status |= cmd_verify_hopf(ns(n=n, weight=w, pbw=d, words=1000), outdir)
    for n, j, bw, d in ((1, 5, 3, 3), (2, 3, 2, 2)):
        status |= cmd_verify_matched_pair(
            ns(n=n, jet_cut=j, weight=None, bicrossed_weight=bw, pbw=d), outdir)
    status |= cmd_verify_cocyclic(ns(degree_max=3, weight=4, pbw=2), outdir)
    status |= cmd_hochschild(ns(n=1, degree_max=2, weight_max=7), outdir)
    status |= cmd_cyclic(ns(n=1, degree_max=2, weight_max=7), outdir)
    status |= cmd_goncarova(ns(k_max=2, weight_max=8), outdir)
    status |= cmd_chern(ns(n=2, p_max=2, q_max=2, sign_p_max=3), outdir)
    print(f"all: {'PASS' if status == 0 else 'FAIL'}")
    return status


def _positive(kind, minimum):
    def conv(text):
        v = int(text)
        if v < minimum:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {minimum}")
        return v

    return conv


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="Verification suites and bounded-weight Hopf cyclic cohomology of H_n.",
    )
    ap.add_argument("--output", type=Path, default=Path("reports"),
                    help="directory for JSON reports (default: ./reports)")
    ap.add_argument("--parallel", type=_positive("parallel", 1), default=1,
                    help="ignored; blocks run in order (kept so existing command lines work)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-hopf", help="Hopf axiom property suite")
    p.add_argument("--n", type=_positive("n", 1), default=1)
    p.add_argument("--weight", type=_positive("weight", 1), default=4)
    p.add_argument("--pbw", type=_positive("pbw", 1), default=3)
    p.add_argument("--words", type=_positive("words", 1), default=1000,
                   help="confluence smoke-test word count")

    p = sub.add_parser("verify-matched-pair", help="matched pair and bicrossed product")
    p.add_argument("--n", type=_positive("n", 1), default=1)
    p.add_argument("--jet-cut", dest="jet_cut", type=_positive("jet-cut", 2), default=5)
    p.add_argument("--weight", type=int, default=None,
                   help="eta weight cut for generator pairs (default jet-cut - 2)")
    p.add_argument("--bicrossed-weight", dest="bicrossed_weight",
                   type=_positive("bicrossed-weight", 1), default=3)
    p.add_argument("--pbw", type=_positive("pbw", 1), default=3)

    p = sub.add_parser("verify-cocyclic", help="cocyclic identities on the standard H_1 module")
    p.add_argument("--degree-max", dest="degree_max", type=_positive("degree-max", 0), default=3)
    p.add_argument("--weight", type=_positive("weight", 1), default=4)
    p.add_argument("--pbw", type=_positive("pbw", 1), default=2)

    p = sub.add_parser("hochschild", help="Hochschild cohomology dimensions")
    p.add_argument("--n", type=_positive("n", 1), default=1)
    p.add_argument("--degree-max", dest="degree_max", type=_positive("degree-max", 0), default=2)
    p.add_argument("--weight-max", dest="weight_max", type=_positive("weight-max", 1), default=7)

    p = sub.add_parser("cyclic", help="cyclic cohomology (HC) dimensions and certificates")
    p.add_argument("--n", type=_positive("n", 1), default=1)
    p.add_argument("--degree-max", dest="degree_max", type=_positive("degree-max", 0), default=2)
    p.add_argument("--weight-max", dest="weight_max", type=_positive("weight-max", 1), default=7)

    p = sub.add_parser("chern", help="relative Chern cocycles and coinvariants")
    p.add_argument("--n", type=_positive("n", 1), default=2)
    p.add_argument("--p-max", dest="p_max", type=_positive("p-max", 0), default=2)
    p.add_argument("--q-max", dest="q_max", type=_positive("q-max", 0), default=2)
    p.add_argument("--sign-p-max", dest="sign_p_max", type=_positive("sign-p-max", 1), default=3)

    p = sub.add_parser("goncarova", help="row-complex cohomology dimensions")
    p.add_argument("--k-max", dest="k_max", type=_positive("k-max", 1), default=2)
    p.add_argument("--weight-max", dest="weight_max", type=_positive("weight-max", 1), default=8)

    p = sub.add_parser("normal-form", help="straighten a generator word")
    p.add_argument("--n", type=_positive("n", 1), default=1)
    p.add_argument("word", help='e.g. "Y11·X1·d[1;1,1|]" or "Y X d[1;1,1|]"')

    sub.add_parser("all", help="run every suite at acceptance-grade cuts")
    return ap


COMMANDS = {
    "verify-hopf": cmd_verify_hopf,
    "verify-matched-pair": cmd_verify_matched_pair,
    "verify-cocyclic": cmd_verify_cocyclic,
    "hochschild": cmd_hochschild,
    "cyclic": cmd_cyclic,
    "chern": cmd_chern,
    "goncarova": cmd_goncarova,
    "normal-form": cmd_normal_form,
    "all": cmd_all,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args, args.output)
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except HopfCyclicError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
