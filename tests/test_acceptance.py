"""Acceptance gate: one test per criterion, exact tolerances, pass/fail lines.

Every dimension is an integer computed over Q, so "tolerance" means exact
equality throughout; runtime budgets are asserted where stated.
"""

import time

import pytest

from hopfcyclic.bicomplex import goncarova_check, hochschild_dims, total_cohomology
from hopfcyclic.chern import sign_invariance_report, theta_span_report, verify_relative_classes
from hopfcyclic.cyclic import (
    check_cocyclic_identities,
    check_mixed_complex,
    gv_cocycle_report,
    standard_h1_module,
)
from hopfcyclic.faa import bicrossed_crosscheck, check_matched_pair, two_route_coproduct_check
from hopfcyclic.hopf import bianchi_check, confluence_smoke_test, verify_hopf_axioms


# digests of reports that every refactor must leave byte-identical
REPORT_SHA256 = {
    "total_cohomology(1, 2, 7)": "4d3cfe1280bbbec655185b3f433c9706d45866dec6cacc6e86c2886ab8d8cd98",
    "hochschild_dims(1, 2, 7)": "4f940516a9d96ecb05117e6614ef2f80d1b5fe369f84803d953f43a8777496b2",
    "goncarova_check(2, 8)": "ca733bf3cd46f3c55857e12c1e72956195e47a24963beb7d2ad91e2f9ccb9af4",
    "verify_relative_classes(2)": "c1d3543369b1c3b839c3aea8e73db19e045bbf8a42b9c1e51a11c19090d0cdf8",
    "sign_invariance_report(3)": "07c534e0bba186a1d422f4bced277050f8f88f8970c7567afc9b961fea526e69",
    "theta_span_report(2, 2, 2)": "95fecf135a6527216b83483b4fb4de2f9049e2bf07d43ddb0931c35f137ce4ab",
    "verify_hopf_axioms(1, 4, 3)": "131c8ce8f04b91246ada5abde3777bf457a98e5c4b08b931c5721e405ed5a26e",
    "verify_hopf_axioms(2, 2, 2)": "e769dfb63f852838ba5d599103d8a46d23ff5436a5dd92b696090b844df28d89",
    "check_matched_pair(1, 5)": "4dde793c0a88a245b52b25b584346ff78a0e8686ecea525d90395f63abe49c5c",
    "check_matched_pair(2, 3)": "a13a733785ebbd8158cca20ff1b6c290257a706ef1cf02101286e4cbb104122c",
    "check_cocyclic_identities(standard_h1_module(4, 2), 3)":
        "2ddd875377175a0745bd60b60ac521b1a99d44a0caf7b6c44adb05be81696aa3",
    "check_mixed_complex(standard_h1_module(4, 2), 3)":
        "4155f4bde510387d796ada892ce15bf28f0578082ce54e32b7f70ab168851a09",
}


def _line(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_hopf_axioms(report_sha256):
    t0 = time.time()
    r1 = verify_hopf_axioms(1, 4, 3)
    r2 = verify_hopf_axioms(2, 2, 2)
    elapsed = time.time() - t0
    ok = r1["passed"] and r2["passed"] and elapsed < 60
    _line(1, ok, f"Hopf axioms n=1 (W=4,D=3) and n=2 (W=2,D=2) in {elapsed:.1f}s")
    assert report_sha256(r1) == REPORT_SHA256["verify_hopf_axioms(1, 4, 3)"]
    assert report_sha256(r2) == REPORT_SHA256["verify_hopf_axioms(2, 2, 2)"]


def test_criterion_2_bianchi_and_confluence():
    t0 = time.time()
    b = bianchi_check(2)
    c = confluence_smoke_test(n_max=2, words=1000, max_len=5, seed=0)
    elapsed = time.time() - t0
    ok = b["passed"] and c["passed"] and elapsed < 60
    _line(2, ok, f"Bianchi n=2 ({b['instances']} instances) + confluence (1000 words) in {elapsed:.1f}s")


def test_criterion_3_matched_pair_and_bicrossed(report_sha256):
    t0 = time.time()
    mp1 = check_matched_pair(1, 5)
    mp2 = check_matched_pair(2, 3)
    bi1 = bicrossed_crosscheck(1, 5, 3, 3)
    bi2 = bicrossed_crosscheck(2, 5, 3, 2)
    elapsed = time.time() - t0
    ok = all(r["passed"] for r in (mp1, mp2, bi1, bi2)) and elapsed < 120
    _line(3, ok, f"matched pair mp1-mp5 (n=1 J=5, n=2 J=3) + bicrossed weight<=3 in {elapsed:.1f}s")
    assert report_sha256(mp1) == REPORT_SHA256["check_matched_pair(1, 5)"]
    assert report_sha256(mp2) == REPORT_SHA256["check_matched_pair(2, 3)"]


def test_criterion_4_two_route_coproduct():
    r1 = two_route_coproduct_check(1, 5, 4)
    r2 = two_route_coproduct_check(2, 3, 2)
    ok = r1["passed"] and r2["passed"]
    _line(4, ok, f"Faa-di-Bruno vs commutator coproduct, {r1['checked']}+{r2['checked']} generators, exact")


def test_criterion_5_cocyclic_identities(report_sha256):
    mod = standard_h1_module(4, 2)
    ids = check_cocyclic_identities(mod, 3)
    mixed = check_mixed_complex(mod, 3)
    ok = ids["passed"] and mixed["passed"]
    counts = {k: v["checked"] for k, v in ids["identities"].items()}
    _line(5, ok, f"cocyclic identities deg<=3 W<=4 incl. tau^(n+1)=1 and b/B relations ({counts})")
    assert report_sha256(ids) == REPORT_SHA256["check_cocyclic_identities(standard_h1_module(4, 2), 3)"]
    assert report_sha256(mixed) == REPORT_SHA256["check_mixed_complex(standard_h1_module(4, 2), 3)"]


def test_criterion_6_h1_cyclic_cohomology(report_sha256):
    t0 = time.time()
    r = total_cohomology(1, 2, 7)
    dims = {}
    by_weight = {}
    for b in r["blocks"]:
        dims[b["degree"]] = dims.get(b["degree"], 0) + b["dim"]
        by_weight.setdefault(b["degree"], set()).add(b["weight"])
    gv = [c for b in r["blocks"] for c in b["certificates"] if c["label"] == "godbillon-vey"]
    elapsed = time.time() - t0
    ok = (
        dims.get(0) == 1
        and dims.get(1) == 2
        and by_weight.get(1) == {1, 2}
        and dims.get(2) == 5
        and len(gv) == 1
        and gv[0]["cocycle_checked"]
        and gv[0]["non_coboundary_checked"]
        and gv[0]["representative"] == [["1", "1 ⊗ e[1;1,1|] ⊗ 1"]]
        and elapsed < 600
    )
    _line(6, ok, f"HC(H_1) dims {dims} at w_max=7, GV non-coboundary certified, {elapsed:.1f}s")
    assert report_sha256(r) == REPORT_SHA256["total_cohomology(1, 2, 7)"]


def test_criterion_7_h1_hochschild(report_sha256):
    r = hochschild_dims(1, 2, 7)
    dims, weights = {}, {}
    for b in r["blocks"]:
        dims[b["degree"]] = dims.get(b["degree"], 0) + b["dim"]
        weights.setdefault(b["degree"], []).extend([b["weight"]] * b["dim"])
    ok = (
        dims.get(0) == 1
        and dims.get(1) == 3
        and sorted(weights.get(1, [])) == [0, 1, 2]
        and dims.get(2) == 6
        and sorted(weights.get(2, [])) == [1, 2, 2, 3, 5, 7]
    )
    _line(7, ok, f"Hochschild(H_1) dims {dims}, class weights {dict(sorted(weights.items()))}")
    assert report_sha256(r) == REPORT_SHA256["hochschild_dims(1, 2, 7)"]


def test_criterion_8_goncarova(report_sha256):
    r = goncarova_check(2, 8)
    by_k = {b["k"]: b for b in r["blocks"]}
    ok = (
        r["passed"]
        and by_k[1]["dims_by_weight"] == {"1": 1, "2": 1}
        and by_k[2]["dims_by_weight"] == {"5": 1, "7": 1}
    )
    _line(8, ok, "row cohomology two-dimensional per degree at weights {1,2} and {5,7}, zero elsewhere <= 8")
    assert report_sha256(r) == REPORT_SHA256["goncarova_check(2, 8)"]


def test_criterion_9_relative_classes_n2(report_sha256):
    t0 = time.time()
    thm = verify_relative_classes(2)
    signs = sign_invariance_report(3)
    elapsed = time.time() - t0
    ok = (
        thm["passed"]
        and thm["expected_count"] == 4
        and len(thm["classes"]) == 4
        and all(c["beta_closed"] and c["del_closed"] for c in thm["classes"])
        and thm["independent"]
        and thm["wrong_parity_zero"]
        and signs["passed"]
        and elapsed < 600
    )
    _line(9, ok, f"relative Chern basis n=2: 4 classes, cocycles, independent, wrong parity 0, signs p<=3, {elapsed:.1f}s")
    assert report_sha256(thm) == REPORT_SHA256["verify_relative_classes(2)"]
    assert report_sha256(signs) == REPORT_SHA256["sign_invariance_report(3)"]


def test_criterion_10_gln_coinvariants(report_sha256):
    r = theta_span_report(2, 2, 2)
    ok = r["passed"] and all(
        b["theta_span_rank"] == b["coinvariant_dim"] and b["h_invariant"] for b in r["blocks"]
    )
    _line(10, ok, "theta(sigma,pi) span equals brute-force coinvariants for n=2, p<=2, q<=2")
    assert report_sha256(r) == REPORT_SHA256["theta_span_report(2, 2, 2)"]
