"""The standard Hopf cocyclic module of H_1 with the modular pair (delta, 1).

Degree-m cochains are tensor words over the PBW basis; all operators are
applied exactly (outputs are full elements, never silently truncated), so the
simplicial/cyclic identities are literal operator equalities on each word:

    d_0 = 1 (x) .        d_j = Delta at slot j       d_{m+1} = . (x) 1
    s_i = counit at slot i+1
    tau(h^1 (x) ... (x) h^m) = Delta^{m-1}(S~(h^1)) . (h^2 (x) ... (x) 1)

tau is built one tensor slot at a time.  With T(x, a^1 ... a^k) =
Delta^{k-1}(x) . (a^1 (x) ... (x) a^k), coassociativity gives

    T(x, a) = x a,      T(x, a^1 a^2 ... a^k) = sum x_(1) a^1 (x) T(x_(2), a^2 ... a^k)

and tau(h^1 (x) ... (x) h^m) = sum_s c_s T(s, h^2 ... h^m 1) over the terms c_s s
of S~(h^1); T is memoised on (monomial, suffix) for the inner suffixes.

b = alternating face sum, B = A . B_0 with B_0 = s_{m-1} tau (1 - (-1)^m tau)
and A = 1 + lambda + ... + lambda^{m-1}, lambda = (-1)^{m-1} tau (the original
sign convention; every sign-sensitive test references it).

Matrices of the operators on a (weight, degree-cut) block are available for
rank/membership work; a word whose exact image leaves the block is excluded
from the matrix and reported, never truncated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .errors import InvalidConfig
from .hopf import algebra
from .linalg import SparseMatrix, membership
from .symbols import LinComb, madd, record_check


class StandardModule:
    def __init__(self, n: int = 1, weight_cut: int = 4, pbw_cut: int = 3):
        self.H = algebra(n)
        self.weight_cut = weight_cut
        self.pbw_cut = pbw_cut
        self._tau_cache: dict = {}
        self._face_cache: dict = {}
        self._slot_cache: dict = {}
        self._basis = self.H.basis(weight_cut, pbw_cut)

    # -- blocks ------------------------------------------------------------

    def word_weight(self, w: tuple) -> int:
        return sum(self.H.mono_weight(m) for m in w)

    def words(self, m: int, weight: int | None = None):
        """Basis words of degree m with total weight <= cut (or == weight)."""
        out = [()]
        for _ in range(m):
            out = [
                w + (b,)
                for w in out
                for b in self._basis
                if self.word_weight(w) + self.H.mono_weight(b) <= self.weight_cut
            ]
        if weight is not None:
            out = [w for w in out if self.word_weight(w) == weight]
        return out

    # -- operators -----------------------------------------------------------

    def _face_word(self, i: int, w: tuple, m: int) -> LinComb:
        key = (i, w)
        cached = self._face_cache.get(key)
        if cached is None:
            one = self.H.one_mono()
            if i == 0:
                cached = LinComb.unit((one,) + w)
            elif i == m + 1:
                cached = LinComb.unit(w + (one,))
            else:
                cached = LinComb(
                    {w[: i - 1] + k + w[i:]: c
                     for k, c in self.H.coproduct_mono(w[i - 1]).terms.items()}
                )
            self._face_cache[key] = cached
        return cached

    def face(self, i: int, elem: LinComb, m: int) -> LinComb:
        acc: dict = {}
        for w, c in elem.terms.items():
            for k, v in self._face_word(i, w, m).terms.items():
                madd(acc, k, c * v)
        return LinComb.from_dict(acc)

    def degeneracy(self, i: int, elem: LinComb) -> LinComb:
        acc: dict = {}
        for w, c in elem.terms.items():
            cc = c * self.H.counit(LinComb.unit(w[i]))
            if cc:
                madd(acc, w[:i] + w[i + 1 :], cc)
        return LinComb.from_dict(acc)

    def _slots(self, x, suffix: tuple) -> LinComb:
        """T(x, suffix) = Delta^{k-1}(x) . suffix on a k-slot suffix, one slot
        at a time (keys are k-tuples)."""
        H = self.H
        if len(suffix) == 1:
            return LinComb.from_dict({(p,): c for p, c in H.mono_mul(x, suffix[0]).terms.items()})
        a, rest = suffix[0], suffix[1:]
        acc: dict = {}
        for (x1, x2), c in H.coproduct_mono(x).terms.items():
            key = (x2, rest)
            tail = self._slot_cache.get(key)
            if tail is None:
                tail = self._slot_cache[key] = self._slots(x2, rest)
            for p, cp in H.mono_mul(x1, a).terms.items():
                cc = c * cp
                for t, ct in tail.terms.items():
                    madd(acc, (p,) + t, cc * ct)
        return LinComb.from_dict(acc)

    def tau_word(self, w: tuple) -> LinComb:
        if not w:
            return LinComb.unit(w)
        cached = self._tau_cache.get(w)
        if cached is None:
            H = self.H
            suffix = w[1:] + (H.one_mono(),)
            acc: dict = {}
            for s, cs in H.s_tilde(LinComb.unit(w[0])).terms.items():
                for k, v in self._slots(s, suffix).terms.items():
                    madd(acc, k, cs * v)
            cached = self._tau_cache[w] = LinComb.from_dict(acc)
        return cached

    def tau(self, elem: LinComb) -> LinComb:
        return elem.map_keys(self.tau_word)

    def b(self, elem: LinComb, m: int) -> LinComb:
        acc: dict = {}
        for i in range(m + 2):
            sign = 1 if i % 2 == 0 else -1
            for k, v in self.face(i, elem, m).terms.items():
                madd(acc, k, sign * v)
        return LinComb.from_dict(acc)

    def B(self, elem: LinComb, m: int) -> LinComb:
        """B = A . B_0, B_0 = s_{m-1} tau (1 - (-1)^m tau), A = sum lambda^j.

        lambda = (-1)^{m-1} tau on the target C^{m-1}, summed over the full
        cyclic group there (m terms); fixed once, all sign-sensitive tests
        reference this convention.
        """
        if m == 0:
            return LinComb.zero()
        sign = (-1) ** m
        b0 = self.tau(elem)
        b0 = b0 - self.tau(b0).scale(sign)
        b0 = self.degeneracy(m - 1, b0)
        lam_sign = (-1) ** (m - 1)
        out: dict = {}
        acc = b0
        for j in range(m):
            for k, v in acc.terms.items():
                madd(out, k, v)
            if j < m - 1:
                acc = self.tau(acc).scale(lam_sign)
        return LinComb.from_dict(out)

    # -- matrices on a block ---------------------------------------------------

    def operator_matrix(self, op: str, m: int, weight: int, index: int | None = None):
        """Sparse matrix of an operator on the (degree m, weight) block.

        Returns (matrix, excluded) where excluded lists source words whose
        exact image leaves the block (never truncated).
        """
        src = self.words(m, weight)
        if op == "face":
            tgt_m = m + 1
            fn = lambda e: self.face(index, e, m)
        elif op == "degeneracy":
            tgt_m = m - 1
            fn = lambda e: self.degeneracy(index, e)
        elif op == "tau":
            tgt_m = m
            fn = self.tau
        elif op == "b":
            tgt_m = m + 1
            fn = lambda e: self.b(e, m)
        elif op == "B":
            tgt_m = m - 1
            fn = lambda e: self.B(e, m)
        else:
            raise InvalidConfig(f"unknown operator {op!r}")
        tgt = self.words(tgt_m, weight)
        tidx = {w: i for i, w in enumerate(tgt)}
        cols, excluded = [], []
        for w in src:
            img = fn(LinComb.unit(w))
            col = {}
            ok = True
            for ww, c in img.terms.items():
                if ww not in tidx:
                    ok = False
                    break
                col[tidx[ww]] = c
            if ok:
                cols.append(col)
            else:
                excluded.append(w)
                cols.append({})
        mat = SparseMatrix.from_columns(len(tgt), cols)
        return mat, excluded


def check_cocyclic_identities(module: StandardModule, degree_max: int) -> dict:
    """All simplicial/cyclic identities, as exact operator equalities."""
    report = {
        "degree_max": degree_max,
        "weight_cut": module.weight_cut,
        "pbw_cut": module.pbw_cut,
        "identities": {},
        "passed": True,
    }

    record = partial(record_check, report, "identities")

    H = module.H
    dd, ss, sd, td, ts, ce = [], [], [], [], [], []
    n_dd = n_ss = n_sd = n_td = n_ts = n_ce = 0
    for m in range(degree_max + 1):
        for w in module.words(m):
            e = LinComb.unit(w)
            # faces compose: d_j d_i = d_i d_{j-1}, i < j
            for j in range(m + 3):
                for i in range(j):
                    if i > m + 1 or j > m + 2:
                        continue
                    n_dd += 1
                    lhs = module.face(j, module.face(i, e, m), m + 1)
                    rhs = module.face(i, module.face(j - 1, e, m), m + 1)
                    if lhs != rhs:
                        dd.append((m, w, i, j))
            # degeneracies: s_j s_i = s_i s_{j+1}, i <= j
            for j in range(m - 1):
                for i in range(j + 1):
                    n_ss += 1
                    lhs = module.degeneracy(j, module.degeneracy(i, e))
                    rhs = module.degeneracy(i, module.degeneracy(j + 1, e))
                    if lhs != rhs:
                        ss.append((m, w, i, j))
            # mixed: s_j d_i
            for i in range(m + 2):
                for j in range(m + 1):
                    n_sd += 1
                    lhs = module.degeneracy(j, module.face(i, e, m))
                    if i < j:
                        rhs = module.face(i, module.degeneracy(j - 1, e), m - 1)
                    elif i in (j, j + 1):
                        rhs = e
                    else:
                        rhs = module.face(i - 1, module.degeneracy(j, e), m - 1)
                    if lhs != rhs:
                        sd.append((m, w, i, j))
            # tau d_i ; tau s_i ; tau^{m+1} = 1
            for i in range(m + 2):
                n_td += 1
                lhs = module.tau(module.face(i, e, m))
                if i == 0:
                    rhs = module.face(m + 1, e, m)
                else:
                    rhs = module.face(i - 1, module.tau(e), m)
                if lhs != rhs:
                    td.append((m, w, i))
            # tau_{m-1} s_i = s_{i-1} tau_m (1 <= i <= m-1); tau s_0 = s_{m-1} tau^2
            if m >= 1:
                for i in range(m):
                    n_ts += 1
                    lhs = module.tau(module.degeneracy(i, e))
                    if i == 0:
                        rhs = module.degeneracy(m - 1, module.tau(module.tau(e)))
                    else:
                        rhs = module.degeneracy(i - 1, module.tau(e))
                    if lhs != rhs:
                        ts.append((m, w, i))
            n_ce += 1
            acc = e
            for _ in range(m + 1):
                acc = module.tau(acc)
            if acc != e:
                ce.append((m, w))
    record("faces_compose", dd, n_dd)
    record("degeneracies_compose", ss, n_ss)
    record("mixed_face_degeneracy", sd, n_sd)
    record("tau_face", td, n_td)
    record("tau_degeneracy", ts, n_ts)
    record("cyclicity", ce, n_ce)
    return report


def check_mixed_complex(module: StandardModule, degree_max: int) -> dict:
    """b^2 = 0, B^2 = 0, bB + Bb = 0 on every word within the cuts."""
    report = {"degree_max": degree_max, "identities": {}, "passed": True}

    record = partial(record_check, report, "identities")

    bb, BB, anti = [], [], []
    n = 0
    for m in range(degree_max + 1):
        for w in module.words(m):
            n += 1
            e = LinComb.unit(w)
            if not module.b(module.b(e, m), m + 1).is_zero():
                bb.append((m, w))
            if not module.B(module.B(e, m), m - 1).is_zero():
                BB.append((m, w))
            s = module.b(module.B(e, m), m - 1) + module.B(module.b(e, m), m + 1)
            if not s.is_zero():
                anti.append((m, w))
    record("b_squared", bb, n)
    record("B_squared", BB, n)
    record("bB_plus_Bb", anti, n)
    return report


def gv_cocycle_report(module: StandardModule) -> dict:
    """delta_1 is a nonzero cyclic 1-cocycle: b-closed, (1+lambda)-closed,
    and not a coboundary within the weight-1 block."""
    H = module.H
    d1 = H.delta_gen(1, (1, 1))
    (d1m,), = [tuple(d1.terms)]
    word = (d1m,)
    e = LinComb.unit(word)
    b_closed = module.b(e, 1).is_zero()
    lam_closed = (e + module.tau(e)).is_zero()  # lambda = tau at m = 1
    tau_val = module.tau_word(word) == LinComb.unit(word, -1)
    # image of b: C^0 -> C^1 inside the weight-1 block
    src = module.words(0, 1)
    span = []
    tgt = module.words(1, 1)
    tidx = {w: i for i, w in enumerate(tgt)}
    for w in src:
        img = module.b(LinComb.unit(w), 0)
        span.append({tidx[k]: c for k, c in img.terms.items()})
    vec = {tidx[word]: Fraction(1)}
    not_coboundary = membership(vec, span) is None
    passed = b_closed and lam_closed and tau_val and not_coboundary
    return {
        "b_closed": b_closed,
        "lambda_closed": lam_closed,
        "tau_is_minus_id": tau_val,
        "not_coboundary": not_coboundary,
        "passed": passed,
    }


class MixedComplex:
    """b and B matrices per (degree, weight) block, relations checked on the
    verified sub-blocks (excluded words reported, never truncated)."""

    def __init__(self, module: StandardModule, degree_max: int, weight: int):
        self.module = module
        self.degree_max = degree_max
        self.weight = weight
        self.b = {}
        self.B = {}
        self.excluded = {}
        for m in range(degree_max + 1):
            bm, exb = module.operator_matrix("b", m, weight)
            Bm, exB = module.operator_matrix("B", m, weight)
            self.b[m] = bm
            self.B[m] = Bm
            self.excluded[m] = sorted(set(exb) | set(exB))

    def _ok_columns(self, first: str, second: str, m_first: int, m_second: int):
        """Columns of the first operator whose entire composition path stays
        on non-excluded words of the second (exclusions must not be silently
        composed through)."""
        src_words = self.module.words(m_first, self.weight)
        mid_words = self.module.words(m_second, self.weight)
        bad_first = set(self.excluded[m_first]) if first in ("b", "B") else set()
        bad_second = set(self.excluded[m_second])
        mat_first = (self.b if first == "b" else self.B)[m_first]
        out = []
        for c, w in enumerate(src_words):
            if w in bad_first:
                continue
            col = mat_first.column(c)
            if all(mid_words[r] not in bad_second for r in col):
                out.append(c)
        return out

    def relations_hold(self) -> bool:
        """b^2 = B^2 = bB + Bb = 0 on every fully in-block composition path."""
        for m in range(self.degree_max):
            prod = self.b[m + 1].matmul(self.b[m])
            for c in self._ok_columns("b", "b", m, m + 1):
                if prod.column(c):
                    return False
        for m in range(2, self.degree_max + 1):
            prod = self.B[m - 1].matmul(self.B[m])
            for c in self._ok_columns("B", "B", m, m - 1):
                if prod.column(c):
                    return False
        for m in range(1, self.degree_max):
            anti = self.b[m - 1].matmul(self.B[m])
            back = self.B[m + 1].matmul(self.b[m])
            good = set(self._ok_columns("B", "b", m, m - 1)) & set(
                self._ok_columns("b", "B", m, m + 1)
            )
            for c in sorted(good):
                col = dict(anti.column(c))
                for r, v in back.column(c).items():
                    madd(col, r, v)
                if col:
                    return False
        return True


def b_B_matrices(module: StandardModule, degree_max: int, weight: int) -> MixedComplex:
    return MixedComplex(module, degree_max, weight)


@lru_cache(maxsize=None)
def standard_h1_module(weight_cut: int, pbw_cut: int) -> StandardModule:
    return StandardModule(1, weight_cut, pbw_cut)
