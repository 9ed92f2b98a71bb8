"""Exact rational sparse linear algebra.

Everything here is over Q (stdlib ``fractions.Fraction``); no floats anywhere.
Elimination uses deterministic leftmost-lowest pivoting so kernel bases and
every report derived from them are reproducible bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from .errors import CompositionNonzero, RankMismatch, ShapeMismatch

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
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = SparseMatrix(self.rows, other.cols)
        by_row = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, {})[c] = v
        by_col = {}
        for (r, c), v in other.entries.items():
            by_col.setdefault(c, {})[r] = v
        for r, rowd in by_row.items():
            for c, cold in by_col.items():
                s = Fraction(0)
                short, long_ = (rowd, cold) if len(rowd) < len(cold) else (cold, rowd)
                for k, v in short.items():
                    w = long_.get(k)
                    if w:
                        s += v * w
                if s:
                    out[r, c] = s
        return out

    def is_zero(self) -> bool:
        return not self.entries


def _rref(rows_in: list, ncols: int):
    """Row-reduce sparse row dicts to RREF.

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


def cohomology_dim(d_in: SparseMatrix, d_out: SparseMatrix) -> int:
    """dim ker(d_out) - rank(d_in) at the spot d_in -> V -> d_out."""
    if d_out.cols != d_in.rows:
        raise ShapeMismatch(
            f"composition shape: d_out has {d_out.cols} cols, d_in has {d_in.rows} rows"
        )
    if not d_out.matmul(d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0")
    r_out, kernel = rank_and_kernel(d_out)
    dim_ker = d_out.cols - r_out
    if dim_ker != len(kernel):
        raise RankMismatch(f"rank-nullity: {dim_ker} free columns, {len(kernel)} kernel vectors")
    return dim_ker - rank(d_in)


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
