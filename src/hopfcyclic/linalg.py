"""Exact rational sparse linear algebra.

Everything here is over Q (stdlib ``fractions.Fraction``); no floats anywhere.
Elimination uses deterministic leftmost-lowest pivoting so kernel bases and
every report derived from them are reproducible bit-for-bit.

Every rank, kernel, membership and quotient comes from one routine,
``_rref``, which returns the reduced row echelon form (RREF) with
``Fraction`` entries.  It scales each row to integers, eliminates modulo
2^61 - 1, and lifts each RREF entry to a rational by reconstruction.  The
lifted rows L are certified in integers: every input row a must equal
sum over pivot columns c of a[c] * L_c.  That puts the row space inside
span(L); L has unit pivots and rank_p <= rank_Q rows, so the spans are
equal and L is the rational RREF.  The RREF is unique, so the output is
the one a ``Fraction`` elimination gives, entry for entry.  While
reconstruction or the check fails, the next prime of ``_PRIMES`` is added
by CRT.  If no prime certifies (an entry beyond the reconstruction bound
of all the primes, or a rank that drops modulo each of them),
``_rref_fraction`` computes the RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional

from .errors import ShapeMismatch
from .symbols import madd

Rational = Fraction

#: sparse vector: {index: nonzero Fraction}
SparseVec = dict


class SparseMatrix:
    """Sparse matrix over Q; no stored zeros, indices range-checked."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[dict] = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __setitem__(self, rc, v):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ShapeMismatch(f"index {rc} out of range for {self.rows}x{self.cols}")
        v = Fraction(v)
        if v:
            self.entries[(r, c)] = v
        else:
            self.entries.pop((r, c), None)

    def __getitem__(self, rc) -> Rational:
        return self.entries.get(rc, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[SparseVec]) -> "SparseMatrix":
        columns = list(columns)
        m = cls(rows, len(columns))
        for c, col in enumerate(columns):
            for r, v in col.items():
                m[r, c] = v
        return m

    @classmethod
    def from_dense(cls, data) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                if v:
                    m[r, c] = Fraction(v)
        return m

    def column(self, c: int) -> SparseVec:
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def row_dicts(self) -> list:
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseMatrix":
        t = SparseMatrix(self.cols, self.rows)
        for (r, c), v in self.entries.items():
            t[c, r] = v
        return t

    def mul_vec(self, v: SparseVec) -> SparseVec:
        for k in v:
            if not 0 <= k < self.cols:
                raise ShapeMismatch(f"vector index {k} out of range for {self.cols} cols")
        out: SparseVec = {}
        for (r, c), a in self.entries.items():
            x = v.get(c)
            if x:
                s = out.get(r, Fraction(0)) + a * x
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        """Row-by-row (Gustavson) product: row r of the result accumulates
        self[r, k] * (row k of other) over the nonzeros of row r of self."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        other_rows: dict = {}
        for (k, c), w in other.entries.items():
            other_rows.setdefault(k, []).append((c, w))
        acc_rows: dict = {}
        for (r, k), v in self.entries.items():
            orow = other_rows.get(k)
            if orow:
                acc = acc_rows.setdefault(r, {})
                for c, w in orow:
                    madd(acc, c, v * w)
        out = SparseMatrix(self.rows, other.cols)
        for r, acc in acc_rows.items():
            for c, s in acc.items():
                out.entries[(r, c)] = s
        return out

    def is_zero(self) -> bool:
        return not self.entries


#: word-size primes for the modular path, 2^61 - 1 first
_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45, 2**61 - 229)


def _rref(rows_in: list, ncols: int):
    """Row-reduce sparse row dicts to RREF.

    Returns (pivots, echelon) where pivots is a list of (col, echelon_index)
    in column order and echelon rows are fully reduced with unit leading
    coefficient and ``Fraction`` entries.  Computed modulo the primes of
    ``_PRIMES`` and certified, or by ``_rref_fraction`` when no prime
    certifies (see the module docstring).
    """
    rows = _integer_rows(rows_in)
    if not rows:
        return [], []
    pivots: list = []
    residues: list = []
    modulus = 1
    for p in _PRIMES:
        piv_p, red_p = _rref_mod(rows, ncols, p)
        if modulus > 1 and piv_p == pivots:
            residues = [_crt(a, modulus, b, p) for a, b in zip(residues, red_p)]
            modulus *= p
        elif modulus == 1 or (-len(piv_p), piv_p) < (-len(pivots), pivots):
            pivots, residues, modulus = piv_p, red_p, p
        else:
            continue  # fewer or later pivots than a previous prime: p is unlucky
        lifted = _lift(residues, modulus)
        if lifted is not None and _certified(rows, pivots, lifted):
            return (
                [(c, k) for k, c in enumerate(pivots)],
                [{c: Fraction(n, d) for c, n, d in entries} for entries, _, _ in lifted],
            )
    return _rref_fraction(rows_in, ncols)


def _integer_rows(rows_in: list) -> list:
    """Each nonzero row times the lcm of its denominators (same row space)."""
    out = []
    for row in rows_in:
        den = 1
        for v in row.values():
            if v.denominator != 1:
                den = lcm(den, v.denominator)
        irow = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        if irow:
            out.append(irow)
    return out


def _rref_mod(rows: list, ncols: int, p: int):
    """RREF of integer rows modulo p: (pivot columns, reduced rows as residues)."""
    remaining = []
    for row in rows:
        r = {c: v % p for c, v in row.items() if v % p}
        if r:
            remaining.append(r)
    echelon: list = []  # (pivot_col, row dict)
    for col in range(ncols):
        if not remaining:
            break
        pivot = None
        for pos, row in enumerate(remaining):
            if col in row:
                pivot = pos
                break
        if pivot is None:
            continue
        prow = remaining.pop(pivot)
        inv = pow(prow[col], -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        for row in remaining + [erow for _, erow in echelon]:
            x = row.get(col)
            if x:
                for c, v in prow.items():
                    s = (row.get(c, 0) - x * v) % p
                    if s:
                        row[c] = s
                    else:
                        del row[c]
        echelon.append((col, prow))
        remaining = [r for r in remaining if r]
    return [c for c, _ in echelon], [row for _, row in echelon]


def _crt(a: dict, m: int, b: dict, p: int) -> dict:
    """Residue rows mod m and mod p combined into one row mod m*p."""
    minv = pow(m, -1, p)
    out = {}
    for c in a.keys() | b.keys():
        x = a.get(c, 0)
        out[c] = x + m * ((b.get(c, 0) - x) * minv % p)
    return out


def _lift(residues: list, m: int) -> Optional[list]:
    """Rational reconstruction of residue rows mod m.

    Returns per row (entries [(col, num, den)] in column order, integer row
    num * (den_row / den), den_row), or None if an entry has no rational
    with numerator and denominator at most sqrt(m/2).
    """
    bound = isqrt(m // 2)
    out = []
    for row in residues:
        entries = []
        den_row = 1
        for c in sorted(row):
            a = row[c]
            if a <= bound:
                entries.append((c, a, 1))
            elif m - a <= bound:
                entries.append((c, a - m, 1))
            else:
                nd = _ratrecon(a, m, bound)
                if nd is None:
                    return None
                entries.append((c,) + nd)
                den_row = lcm(den_row, nd[1])
        out.append((entries, {c: n * (den_row // d) for c, n, d in entries}, den_row))
    return out


def _ratrecon(a: int, m: int, bound: int):
    """(num, den) with num = a * den mod m, |num|, den <= bound, or None."""
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if not r1 or s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _certified(rows: list, pivots: list, lifted: list) -> bool:
    """Whether every integer row a equals sum over pivots c of a[c] * L_c.

    L_c is the lifted row of pivot column c.  The check puts the row space
    inside span(L); the L_c have unit pivots and there are rank_p <= rank_Q
    of them, so the spans are equal and L is the rational RREF.  All
    arithmetic is in integers, over the common denominator of the L_c.
    """
    den = 1
    for _, _, d in lifted:
        den = lcm(den, d)
    scaled = {
        c: (num if d == den else {k: v * (den // d) for k, v in num.items()})
        for c, (_, num, d) in zip(pivots, lifted)
    }
    for row in rows:
        acc: dict = {}
        for c, x in row.items():
            lc = scaled.get(c)
            if lc is not None:
                for k, v in lc.items():
                    acc[k] = acc.get(k, 0) + x * v
        if len(acc) < len(row):
            return False
        for k, v in row.items():
            if acc.pop(k, 0) != v * den:
                return False
        if any(acc.values()):
            return False
    return True


def _rref_fraction(rows_in: list, ncols: int):
    """Row-reduce sparse row dicts to RREF in ``Fraction`` arithmetic.

    Pivoting is leftmost-lowest: columns scanned left to right, pivot taken in
    the lowest-index not-yet-used row.  Returns (pivots, echelon) where pivots
    is a list of (col, echelon_index) in column order and echelon rows are
    fully reduced with unit leading coefficient.
    """
    remaining = [(i, dict(r)) for i, r in enumerate(rows_in) if r]
    echelon: list = []  # (pivot_col, row dict)
    for col in range(ncols):
        pivot = None
        for pos, (idx, row) in enumerate(remaining):
            if row.get(col):
                pivot = pos
                break
        if pivot is None:
            continue
        _, prow = remaining.pop(pivot)
        inv = 1 / prow[col]
        prow = {c: v * inv for c, v in prow.items()}
        for _, row in remaining:
            x = row.get(col)
            if x:
                for c, v in prow.items():
                    s = row.get(c, Fraction(0)) - x * v
                    if s:
                        row[c] = s
                    else:
                        row.pop(c, None)
        for k, (pcol, erow) in enumerate(echelon):
            x = erow.get(col)
            if x:
                for c, v in prow.items():
                    s = erow.get(c, Fraction(0)) - x * v
                    if s:
                        erow[c] = s
                    else:
                        erow.pop(c, None)
        echelon.append((col, prow))
        remaining = [(i, r) for i, r in remaining if r]
    pivots = [(pcol, k) for k, (pcol, _) in enumerate(echelon)]
    return pivots, [row for _, row in echelon]


def rank(m: SparseMatrix) -> int:
    pivots, _ = _rref(m.row_dicts(), m.cols)
    return len(pivots)


def rank_and_kernel(m: SparseMatrix):
    """Rank and a kernel basis in RREF normal form.

    rank + len(kernel) == cols; kernel vectors are indexed by the free columns
    in increasing order, each with a 1 in its free column.
    """
    pivots, echelon = _rref(m.row_dicts(), m.cols)
    pivot_cols = {c: k for c, k in pivots}
    kernel = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        v: SparseVec = {free: Fraction(1)}
        for pcol, k in pivots:
            x = echelon[k].get(free)
            if x:
                v[pcol] = -x
        kernel.append(v)
    return len(pivots), kernel


def membership(v: SparseVec, span: list) -> Optional[list]:
    """Coefficients expressing v in span, or None if v is outside.

    Free coefficients are set to 0, making the answer deterministic.
    """
    dim_hint = 0
    for w in span:
        for k in w:
            dim_hint = max(dim_hint, k + 1)
    for k in v:
        dim_hint = max(dim_hint, k + 1)
    ncols = len(span) + 1
    rows = [dict() for _ in range(dim_hint)]
    for j, w in enumerate(span):
        for r, x in w.items():
            rows[r][j] = x
    for r, x in v.items():
        rows[r][len(span)] = x
    pivots, echelon = _rref(rows, ncols)
    coeffs = [Fraction(0)] * len(span)
    for pcol, k in pivots:
        if pcol == len(span):
            return None
        coeffs[pcol] = echelon[k].get(len(span), Fraction(0))
    return coeffs


class Quotient:
    """Quotient of Q^dim by the span of relation vectors.

    Carries a deterministic basis (the non-pivot coordinates) and a projection
    map; used for h-coinvariant spaces.
    """

    def __init__(self, dim: int, relations: list):
        self.dim = dim
        rows = [dict(r) for r in relations]
        pivots, echelon = _rref(rows, dim)
        self._pivot_rows = [(c, echelon[k]) for c, k in pivots]
        pivot_set = {c for c, _ in pivots}
        self.basis = [i for i in range(dim) if i not in pivot_set]
        self._pos = {c: i for i, c in enumerate(self.basis)}

    @property
    def quotient_dim(self) -> int:
        return len(self.basis)

    def project(self, v: SparseVec) -> SparseVec:
        """Coordinates of the class of v on the quotient basis."""
        v = dict(v)
        for pcol, row in self._pivot_rows:
            x = v.get(pcol)
            if x:
                for c, w in row.items():
                    s = v.get(c, Fraction(0)) - x * w
                    if s:
                        v[c] = s
                    else:
                        v.pop(c, None)
        out: SparseVec = {}
        for c, x in v.items():
            out[self._pos[c]] = x
        return out
