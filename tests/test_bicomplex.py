import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic.bicomplex import (
    block_cohomology,
    engine,
    engine_invariants,
    goncarova_check,
    hochschild_dims,
    representatives,
    total_cohomology,
)
from hopfcyclic.errors import CompositionNonzero, InfeasibleCut
from hopfcyclic.linalg import SparseMatrix, membership, rank, rank_and_kernel

ETA1 = (1, (1, 1), ())
ETA2 = (1, (1, 1), (1,))


def test_spot_bases_n1():
    eng = engine(1, 4)
    assert eng is engine(1, 4, "absolute", None)  # one Engine per set of cuts
    assert [w for w in eng.spot_basis(0, 0, 0)] == [((), ())]
    names = {eng.render_word(w) for w in eng.spot_basis(1, 0, 2)}
    assert names == {"1 ⊗ e[1;1,1|]^2 ⊗ 1", "1 ⊗ e[1;1,1|1] ⊗ 1"}
    # normalized: the only (2,1,2) word is eta1 (x) eta1 (x) Y
    assert eng.spot_basis(2, 1, 2) == [(((ETA1,), (ETA1,)), (("Y", 1, 1),))]


def test_spot_weight_guard():
    eng = engine(1, 3)
    with pytest.raises(InfeasibleCut):
        eng.spot_basis(1, 0, 5)


def test_del_g_anchor_values():
    eng = engine(1, 4)
    got = eng.del_g(((), (("Y", 1, 1),)))
    assert dict(got.terms) == {((), ()): 1}
    got = eng.del_g((((ETA1,),), (("X", 1),)))
    assert dict(got.terms) == {(((ETA2,),), ()): -1}
    assert eng.del_g(((), (("X", 1), ("Y", 1, 1)))).is_zero()


def test_beta_anchor_values():
    eng = engine(1, 4)
    got = eng.beta_f(((), (("X", 1),)))
    assert dict(got.terms) == {(((ETA1,),), (("Y", 1, 1),)): -1}
    got = eng.beta_f((((ETA2,),), ()))
    assert dict(got.terms) == {(((ETA1,), (ETA1,)), ()): Fraction(1)}
    assert eng.beta_f((((ETA1,),), ())).is_zero()  # eta1 primitive


def test_sigma2_certificate_is_cocycle():
    # eta1 (x) X - eta2 (x) Y is closed under both b and B at weight 2
    eng = engine(1, 4)
    from hopfcyclic.symbols import LinComb, madd

    sigma2 = LinComb({(((ETA1,),), (("X", 1),)): 1, (((ETA2,),), (("Y", 1, 1),)): -1})
    bimg, Bimg = {}, {}
    for word, c in sigma2.terms.items():
        for k, v in eng.beta_f(word).terms.items():
            madd(bimg, k, c * v)
        for k, v in eng.del_g(word).terms.items():
            madd(Bimg, k, c * v)
    assert not bimg and not Bimg


def test_engine_invariants(report_sha256):
    rep = engine_invariants(1, 3, 4)
    assert rep["passed"], rep
    # the report, byte for byte, covers the homotopy lemma and the spot maps
    assert report_sha256(rep) == "3c78ae32c54f1318bb5bb34b230b4bdf6c17cd49d2626087ab2392cb9801d294"


def test_hochschild_known_dims_small():
    r = hochschild_dims(1, 2, 3)
    dims = {(b["degree"], b["weight"]): b["dim"] for b in r["blocks"]}
    assert dims[(0, 0)] == 1
    assert dims[(1, 0)] == 1 and dims[(1, 1)] == 1 and dims[(1, 2)] == 1
    assert dims[(2, 1)] == 1 and dims[(2, 2)] == 2 and dims[(2, 3)] == 1


def test_cyclic_known_dims_small():
    r = total_cohomology(1, 2, 3)
    dims = {(b["degree"], b["weight"]): b["dim"] for b in r["blocks"]}
    assert dims[(0, 0)] == 1
    assert dims[(1, 1)] == 1 and dims[(1, 2)] == 1
    assert (1, 0) not in dims  # the Y-class dies in the cyclic theory
    labels = {
        c["label"]
        for b in r["blocks"]
        for c in b["certificates"]
    }
    assert "godbillon-vey" in labels and "schwarzian" in labels


def test_gv_certificate_representative():
    r = total_cohomology(1, 1, 1)
    gv = [c for b in r["blocks"] for c in b["certificates"] if c["label"] == "godbillon-vey"]
    assert len(gv) == 1
    assert gv[0]["non_coboundary_checked"] and gv[0]["cocycle_checked"]
    assert any("e[1;1,1|]" in w for _, w in [tuple(x) for x in gv[0]["representative"]])


def test_goncarova_k1():
    r = goncarova_check(1, 4)
    assert r["passed"], r


def test_relative_block_weight_concentration():
    # gl_n-coinvariants live only at weight n
    eng = engine(2, 2, "relative")
    assert eng.quotient(1, 0, 1).quotient_dim == 0
    assert eng.quotient(1, 1, 2).quotient_dim == 1
    assert eng.quotient(2, 0, 2).quotient_dim == 2
    assert eng.quotient(0, 2, 2).quotient_dim == 1


def greedy_representatives(d_now, d_prev):
    """Reference oracle: keep each RREF kernel vector of d_now that lies
    outside the span of the image of d_prev and the vectors kept so far."""
    _, kernel = rank_and_kernel(d_now)
    image = [col for col in (d_prev.column(c) for c in range(d_prev.cols)) if col]
    chosen = []
    for v in kernel:
        if membership(v, image + chosen) is None:
            chosen.append(v)
    return chosen


def random_complex(data, a: int, b: int, c: int):
    """Integer d_prev: Q^a -> Q^b and d_now: Q^b -> Q^c with d_now . d_prev = 0.

    Rows of d_now are random combinations of a left-kernel basis of d_prev,
    cleared of denominators."""
    small = st.integers(min_value=-2, max_value=2)
    d_prev = SparseMatrix(b, a, {(r, j): data.draw(small) for r in range(b) for j in range(a)})
    _, left = rank_and_kernel(d_prev.transpose())
    entries = {}
    for r in range(c):
        coeffs = [data.draw(small) for _ in left]
        row = [sum(k * v.get(j, 0) for k, v in zip(coeffs, left)) for j in range(b)]
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        entries.update({(r, j): x * scale for j, x in enumerate(row)})
    return d_prev, SparseMatrix(c, b, entries)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=5),
    st.data(),
)
def test_representatives_match_greedy_membership(a, b, c, data):
    d_prev, d_now = random_complex(data, a, b, c)
    assert d_now.matmul(d_prev).is_zero()
    expected = greedy_representatives(d_now, d_prev)
    _, kernel = rank_and_kernel(d_now)
    assert representatives(kernel, d_prev) == expected
    # the block routine gives the same vectors and the rank-count dimension
    mats = {0: d_prev, 1: d_now}
    ((m, w, dim, reps),) = block_cohomology(lambda m, w: mats[m], lambda m, w: mats[m].cols,
                                            [1], [0], "d")
    assert (m, w, reps) == (1, 0, expected)
    assert dim == b - rank(d_now) - rank(d_prev) == len(expected)


def test_block_cohomology_rejects_a_non_complex():
    ones = SparseMatrix(1, 1, {(0, 0): 1})
    with pytest.raises(CompositionNonzero):
        list(block_cohomology(lambda m, w: ones, lambda m, w: 1, [1], [0], "d"))
