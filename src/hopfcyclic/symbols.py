"""Finite linear combinations, tensor words and wedge words.

Keys are hashable, totally ordered canonical objects supplied by the owning
module (PBW monomials, eta-monomials, wedge tuples, ...).  A LinComb never
stores a zero coefficient.
"""

from __future__ import annotations

from typing import Callable, Iterable


def madd(d: dict, k, v) -> None:
    """d[k] += v, dropping zeros (the accumulation primitive)."""
    s = d.get(k)
    s = v if s is None else s + v
    if s:
        d[k] = s
    else:
        d.pop(k, None)


class LinComb:
    """Immutable-by-convention {key: Fraction} with vector-space operations."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # coefficients are exact numerics (int or Fraction); ints dominate in
        # practice and are kept as ints for speed
        self.terms = {}
        if terms:
            for k, v in (terms.items() if isinstance(terms, dict) else terms):
                if v:
                    madd(self.terms, k, v)

    @classmethod
    def from_dict(cls, d: dict) -> "LinComb":
        """Adopt an accumulation dict (no copy; caller must not reuse it)."""
        r = cls.__new__(cls)
        r.terms = d
        return r

    @classmethod
    def unit(cls, key, coeff=1) -> "LinComb":
        return cls({key: coeff} if coeff else {})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self.terms)
        for k, v in other.terms.items():
            madd(out, k, v)
        return LinComb.from_dict(out)

    def __sub__(self, other: "LinComb") -> "LinComb":
        acc = dict(self.terms)
        for k, v in other.terms.items():
            madd(acc, k, -v)
        return LinComb.from_dict(acc)

    def __neg__(self) -> "LinComb":
        return self.scale(-1)

    def scale(self, c) -> "LinComb":
        r = LinComb.__new__(LinComb)
        r.terms = {} if not c else {k: c * v for k, v in self.terms.items()}
        return r

    def map_keys(self, fn: Callable) -> "LinComb":
        """Linear extension of key -> LinComb (or key -> key)."""
        acc: dict = {}
        for k, v in self.terms.items():
            img = fn(k)
            if isinstance(img, LinComb):
                for ki, vi in img.terms.items():
                    madd(acc, ki, v * vi)
            else:
                madd(acc, img, v)
        return LinComb.from_dict(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, key):
        return self.terms.get(key, 0)

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({v})*{k}" for k, v in sorted(self.terms.items(), key=lambda t: repr(t[0])))


def lc_sum(items: Iterable[LinComb]) -> LinComb:
    acc: dict = {}
    for x in items:
        for k, v in x.terms.items():
            madd(acc, k, v)
    return LinComb.from_dict(acc)


def wedge_normalize(symbols, coeff=1) -> LinComb:
    """Sort a raw wedge word; repeated symbol kills it, transpositions sign it.

    Keys are tuples of strictly increasing symbols (the empty tuple is the
    scalar 1 of the exterior algebra).
    """
    symbols = list(symbols)
    if len(set(symbols)) != len(symbols):
        return LinComb.zero()
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(symbols)):
        j = i
        while j > 0 and symbols[j - 1] > symbols[j]:
            symbols[j - 1], symbols[j] = symbols[j], symbols[j - 1]
            sign = -sign
            j -= 1
    return LinComb({tuple(symbols): coeff * sign})


def perm_sign(perm) -> int:
    """Sign of a permutation given as a sequence, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def tensor(a: LinComb, b: LinComb) -> LinComb:
    """Bilinear tensor product; keys concatenate as tuples."""
    out = {}
    for ka, va in a.terms.items():
        ka_t = ka if isinstance(ka, tuple) else (ka,)
        for kb, vb in b.terms.items():
            kb_t = kb if isinstance(kb, tuple) else (kb,)
            madd(out, ka_t + kb_t, va * vb)
    return LinComb.from_dict(out)


def tensor_many(factors) -> LinComb:
    factors = list(factors)
    if not factors:
        return LinComb.unit(())
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out
