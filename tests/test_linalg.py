from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic import linalg
from hopfcyclic.bicomplex import block_cohomology
from hopfcyclic.errors import CompositionNonzero, ShapeMismatch
from hopfcyclic.linalg import (
    Quotient,
    SparseMatrix,
    membership,
    rank,
    rank_and_kernel,
)


def dense_rank(data):
    """Brute-force row reduction oracle on dense rational rows."""
    rows = [[Fraction(x) for x in row] for row in data]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_identity_rank_kernel():
    m = SparseMatrix.from_dense([[1, 0], [0, 1]])
    r, ker = rank_and_kernel(m)
    assert r == 2 and ker == []


def test_rank_one_kernel():
    m = SparseMatrix.from_dense([[1, 2], [2, 4]])
    r, ker = rank_and_kernel(m)
    assert r == 1
    assert ker == [{0: Fraction(-2), 1: Fraction(1)}]


def test_zero_row_matrix_kernel_is_standard_basis():
    m = SparseMatrix(0, 3)
    r, ker = rank_and_kernel(m)
    assert r == 0
    assert ker == [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]


def test_kernel_vectors_annihilated():
    m = SparseMatrix.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    r, ker = rank_and_kernel(m)
    assert r == 2 and len(ker) == 1
    for v in ker:
        assert m.mul_vec(v) == {}


def cohomology_dim(d_in: SparseMatrix, d_out: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in) at the middle of d_in, d_out, through
    block_cohomology with d(0, w) = d_in and d(1, w) = d_out."""
    ds = {0: d_in, 1: d_out}
    ((_, _, dim, _),) = block_cohomology(lambda m, w: ds[m], lambda m, w: d_out.cols,
                                         (1,), (0,), "d")
    return dim


def test_cohomology_dim_cases():
    z3 = SparseMatrix(3, 3)
    assert cohomology_dim(z3, z3) == 3
    d_out = SparseMatrix.from_dense([[1, 0], [0, 0]])
    assert cohomology_dim(SparseMatrix(2, 2), d_out) == 1
    # exact sequence: d_in spans ker(d_out)
    d_in = SparseMatrix.from_dense([[0], [1]])
    assert cohomology_dim(d_in, d_out) == 0


def test_cohomology_dim_errors():
    d_in = SparseMatrix.from_dense([[1], [0]])
    d_out = SparseMatrix.from_dense([[1, 0]])
    with pytest.raises(CompositionNonzero):
        cohomology_dim(d_in, d_out)
    with pytest.raises(ShapeMismatch):
        cohomology_dim(SparseMatrix(3, 1), SparseMatrix(1, 2))


def test_membership():
    assert membership({}, [{0: Fraction(1)}]) == [Fraction(0)]
    got = membership({0: Fraction(1), 1: Fraction(1)}, [{0: Fraction(1)}, {1: Fraction(1)}])
    assert got == [Fraction(1), Fraction(1)]
    assert membership({0: Fraction(1)}, [{1: Fraction(1)}]) is None


rational = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_rank_matches_dense_oracle_and_transpose(nr, nc, data):
    rows = [[data.draw(rational) for _ in range(nc)] for _ in range(nr)]
    m = SparseMatrix.from_dense(rows)
    assert rank(m) == dense_rank(rows)
    assert rank(m) == rank(m.transpose())
    r, ker = rank_and_kernel(m)
    assert r + len(ker) == nc
    for v in ker:
        assert m.mul_vec(v) == {}


def test_cohomology_dim_matches_dense_oracle_50x50():
    # contract: agreement with brute-force row reduction up to 50x50
    import random

    rng = random.Random(2026)
    dim = 50
    # build d_out with known kernel structure, then d_in inside that kernel
    rows_out = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(30)]
    d_out = SparseMatrix.from_dense(rows_out)
    r_out, kernel = rank_and_kernel(d_out)
    assert r_out == dense_rank(rows_out)
    take = kernel[:20]
    d_in = SparseMatrix.from_columns(dim, [
        {k: sum((v[k] for v in take if k in v), Fraction(0)) for k in set().union(*take)}
        for _ in range(0)
    ]) if not take else SparseMatrix.from_columns(dim, take)
    got = cohomology_dim(d_in, d_out)
    dense_in = [[d_in[r, c] for c in range(d_in.cols)] for r in range(d_in.rows)]
    want = (dim - dense_rank(rows_out)) - dense_rank(dense_in)
    assert got == want


def test_quotient_projection():
    # Q^3 / span{(1,1,0)}: classes of e0 and e1 agree up to sign of relation
    q = Quotient(3, [{0: Fraction(1), 1: Fraction(1)}])
    assert q.quotient_dim == 2
    p0 = q.project({0: Fraction(1)})
    p1 = q.project({1: Fraction(1)})
    assert p0 == {k: -v for k, v in p1.items()}
    assert q.project({0: Fraction(1), 1: Fraction(1)}) == {}


def test_matmul_matches_dense_product():
    import random

    rng = random.Random(7)
    for _ in range(40):
        nr, nk, nc = rng.randint(0, 6), rng.randint(1, 6), rng.randint(0, 6)
        a = [[Fraction(rng.choice([0, 0, 1, -2, 3]), rng.choice([1, 2])) for _ in range(nk)]
             for _ in range(nr)]
        b = [[Fraction(rng.choice([0, 0, 1, -1, 5])) for _ in range(nc)] for _ in range(nk)]
        want = SparseMatrix(nr, nc)
        for r in range(nr):
            for c in range(nc):
                want[r, c] = sum((a[r][k] * b[k][c] for k in range(nk)), Fraction(0))
        ma = SparseMatrix(nr, nk, {(r, k): a[r][k] for r in range(nr) for k in range(nk)})
        mb = SparseMatrix(nk, nc, {(k, c): b[k][c] for k in range(nk) for c in range(nc)})
        assert ma.matmul(mb) == want


# entries of every size the modular path treats differently: small, beyond
# one prime's reconstruction bound, beyond 2^40, with and without denominators
entry = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(min_value=-(2**70), max_value=2**70).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-(2**45), max_value=2**45),
              st.integers(min_value=1, max_value=2**42)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=7), st.data())
def test_modular_rref_matches_fraction_elimination(nr, nc, data):
    rows = [{c: x for c in range(nc) if (x := data.draw(entry))} for _ in range(nr)]
    if nr >= 2 and data.draw(st.booleans()):  # a dependent row lowers the rank
        k = data.draw(st.integers(min_value=-3, max_value=3))
        extra = {c: rows[0].get(c, 0) + k * rows[1].get(c, 0) for c in range(nc)}
        rows.append({c: x for c, x in extra.items() if x})
    want = linalg._rref_fraction([dict(r) for r in rows], nc)
    assert linalg._rref([dict(r) for r in rows], nc) == want


def _record_primes(monkeypatch):
    primes, fallbacks = [], []
    rref_mod, rref_fraction = linalg._rref_mod, linalg._rref_fraction

    def recording_mod(rows, ncols, p):
        primes.append(p)
        return rref_mod(rows, ncols, p)

    def recording_fraction(rows, ncols):
        fallbacks.append(ncols)
        return rref_fraction(rows, ncols)

    monkeypatch.setattr(linalg, "_rref_mod", recording_mod)
    monkeypatch.setattr(linalg, "_rref_fraction", recording_fraction)
    return primes, fallbacks


def test_rank_drop_modulo_the_first_prime(monkeypatch):
    p = linalg._PRIMES[0]
    primes, fallbacks = _record_primes(monkeypatch)
    # rows agree modulo p: rank 1 there, rank 2 over Q
    m = SparseMatrix.from_dense([[1, 1, 2], [1, 1 + p, 2]])
    assert rank_and_kernel(m) == (2, [{0: Fraction(-2), 2: Fraction(1)}])
    assert primes == list(linalg._PRIMES[:2]) and not fallbacks
    primes.clear()
    assert rank_and_kernel(SparseMatrix.from_dense([[p, 0]])) == (1, [{1: Fraction(1)}])
    assert primes == list(linalg._PRIMES[:2]) and not fallbacks


def test_rref_beyond_one_prime_reaches_next_prime_or_fallback(monkeypatch):
    primes, fallbacks = _record_primes(monkeypatch)
    # RREF [1, b/a] with a > sqrt(p/2): one prime cannot reconstruct b/a
    a, b = 3**30, 2**45 + 1
    assert rank_and_kernel(SparseMatrix.from_dense([[a, b]])) == (1, [{0: Fraction(-b, a), 1: 1}])
    assert primes == list(linalg._PRIMES[:2]) and not fallbacks
    primes.clear()
    # beyond the reconstruction bound of all the primes together
    a, b = 3**90, 2**140 + 1
    pivots, echelon = linalg._rref([{0: Fraction(a), 1: Fraction(b)}], 2)
    assert pivots == [(0, 0)] and echelon == [{0: 1, 1: Fraction(b, a)}]
    assert primes == list(linalg._PRIMES) and fallbacks == [2]
