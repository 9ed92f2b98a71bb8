"""The Hopf algebra H_n of the general pseudogroup as a rewriting system.

Generators: X_k (k=1..n), Y_i^j (i lower, j upper), and delta symbols
d[i; j,k | l1..lr] with j <= k (pair symmetry), sorted trailing indices
(flatness), and k <= l1 for basis-normal symbols.  PBW-normal monomials are
delta-part . X-part . Y-part, each internally sorted; these form the linear
basis, and every product is straightened onto it:

    [Y_i^j, Y_k^l] = d^j_k Y_i^l - d^l_i Y_k^j
    [Y_i^j, X_k]   = d^j_k X_i
    [X_k, X_l]     = 0,  deltas commute
    [X_l, d[i;..]] = d[i;..|..l]  (append a trailing index)
    [Y_i^j, d[a;L]] = sum_s [L_s=j] d[a; L with s -> i] - [a=i] d[j; L]

plus the quadratic swap rule that restores k <= l1 (an expression of the
flatness of the underlying connection).  Rewriting preserves the weight
grading wt(X)=1, wt(Y)=0, wt(delta)=1+r.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations

from .errors import InvariantViolation, TruncationOverflow
from .symbols import LinComb, lc_sum, madd, record_check

# generator tokens: ("X", k), ("Y", i, j), ("D", i, (j, k), trailing)
# delta key: (i, (j, k), trailing) with j <= k <= trailing[0] (if any)

EMPTY = ()


def delta_weight(key) -> int:
    return 1 + len(key[2])


def _split_multiset(ms: tuple):
    """(sub, rest, multiplicity) splittings of a sorted multiset.

    Multiplicity counts the position subsets realizing the same value split;
    it is the multinomial factor of the iterated-Leibniz expansion and must
    not be dropped when trailing indices repeat.
    """
    counts: dict = {}
    idx = range(len(ms))
    for r in range(len(ms) + 1):
        for pick in combinations(idx, r):
            sub = tuple(ms[i] for i in pick)
            counts[sub] = counts.get(sub, 0) + 1
    out = []
    for sub, mult in counts.items():
        rest = list(ms)
        for x in sub:
            rest.remove(x)
        out.append((sub, tuple(rest), mult))
    return out


class HopfAlgebra:
    """H_n with optional weight cap on delta-symbol creation."""

    def __init__(self, n: int, weight_cap: int | None = None):
        self.n = n
        self.weight_cap = weight_cap
        self.y_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        self.y_index = {p: k for k, p in enumerate(self.y_pairs)}
        self._gen_times_cache: dict = {}
        self._mono_mul_cache: dict = {}
        self._bianchi_cache: dict = {}
        self._cop_cache: dict = {}
        self._cop_mono_cache: dict = {}
        self._s_tilde_cache: dict = {}
        self._s_inv_cache: dict = {}
        self._y_straighten_cache: dict = {}

    # -- monomials ----------------------------------------------------------

    def one_mono(self):
        return (EMPTY, (0,) * self.n, (0,) * (self.n * self.n))

    def one(self) -> LinComb:
        return LinComb.unit(self.one_mono())

    def mono_weight(self, m) -> int:
        deltas, x, _ = m
        return sum(delta_weight(d) for d in deltas) + sum(x)

    def mono_degree(self, m) -> int:
        deltas, x, y = m
        return len(deltas) + sum(x) + sum(y)

    def weight(self, elem: LinComb):
        """Common weight of a homogeneous element (None for 0)."""
        ws = {self.mono_weight(m) for m in elem.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise InvariantViolation(f"element not weight-homogeneous: {sorted(ws)}")
        return ws.pop()

    def x_gen(self, k) -> LinComb:
        x = [0] * self.n
        x[k - 1] = 1
        return LinComb.unit((EMPTY, tuple(x), (0,) * (self.n * self.n)))

    def y_gen(self, i, j) -> LinComb:
        y = [0] * (self.n * self.n)
        y[self.y_index[(i, j)]] = 1
        return LinComb.unit((EMPTY, (0,) * self.n, tuple(y)))

    def delta_key(self, i, pair, trailing):
        j, k = sorted(pair)
        trailing = tuple(sorted(trailing))
        key = (i, (j, k), trailing)
        if self.weight_cap is not None and delta_weight(key) > self.weight_cap:
            raise TruncationOverflow(
                f"delta symbol of weight {delta_weight(key)} above cap {self.weight_cap}"
            )
        return key

    def delta_gen(self, i, pair, trailing=()) -> LinComb:
        """Element of H_n for a possibly non-normal delta symbol."""
        return self.delta_monomials(i, pair, trailing).map_keys(
            lambda dt: (dt, (0,) * self.n, (0,) * (self.n * self.n))
        )

    # -- delta normalization --------------------------------------------------

    def delta_monomials(self, i, pair, trailing) -> LinComb:
        """Normalize a raw delta symbol to a LinComb over tuples of normal keys.

        The swap rule d[i;j,k|l,T] = d[i;j,l|k,T-sorted] - ad_T(d[s;j,k] d[i;s,l])
        + ad_T(d[s;j,l] d[i;s,k]) is applied until k <= min(trailing); the
        measure (len(trailing), #{t in trailing: t < max(pair)}) decreases.
        """
        j, k = sorted(pair)
        trailing = tuple(sorted(trailing))
        ck = (i, (j, k), trailing)
        cached = self._bianchi_cache.get(ck)
        if cached is not None:
            return cached
        if not trailing or k <= trailing[0]:
            out = LinComb.unit((self.delta_key(i, (j, k), trailing),))
        else:
            ell, rest = trailing[0], trailing[1:]
            out = self.delta_monomials(i, (j, ell), (k,) + rest)
            for sub, other, mult in _split_multiset(rest):
                for s in range(1, self.n + 1):
                    out = out - self._dm_product(
                        self.delta_monomials(s, (j, k), sub),
                        self.delta_monomials(i, (s, ell), other),
                    ).scale(mult)
                    out = out + self._dm_product(
                        self.delta_monomials(s, (j, ell), sub),
                        self.delta_monomials(i, (s, k), other),
                    ).scale(mult)
        self._bianchi_cache[ck] = out
        return out

    @staticmethod
    def _dm_product(a: LinComb, b: LinComb) -> LinComb:
        acc: dict = {}
        for ta, ca in a.terms.items():
            for tb, cb in b.terms.items():
                madd(acc, tuple(sorted(ta + tb)), ca * cb)
        return LinComb.from_dict(acc)

    # -- straightening --------------------------------------------------------

    def y_straighten(self, seq: tuple) -> LinComb:
        """Sort a word of Y-pairs, inserting [Y,Y] corrections."""
        cached = self._y_straighten_cache.get(seq)
        if cached is not None:
            return cached
        desc = next((t for t in range(len(seq) - 1) if seq[t] > seq[t + 1]), None)
        if desc is None:
            out = LinComb.unit(seq)
        else:
            p, h = seq[desc], seq[desc + 1]
            swapped = seq[:desc] + (h, p) + seq[desc + 2 :]
            out = self.y_straighten(swapped)
            # [Y_p, Y_h] with p=(i,j), h=(k,l): d^j_k Y_i^l - d^l_i Y_k^j
            (i, j), (k, l) = p, h
            if j == k:
                out = out + self.y_straighten(seq[:desc] + ((i, l),) + seq[desc + 2 :])
            if i == l:
                out = out - self.y_straighten(seq[:desc] + ((k, j),) + seq[desc + 2 :])
        self._y_straighten_cache[seq] = out
        return out

    def _y_tuple_from_pairs(self, pairs: tuple):
        y = [0] * (self.n * self.n)
        for p in pairs:
            y[self.y_index[p]] += 1
        return tuple(y)

    def _pairs_from_y_tuple(self, y: tuple):
        out = []
        for idx, e in enumerate(y):
            out.extend([self.y_pairs[idx]] * e)
        return tuple(out)

    def gen_times_mono(self, g, m) -> LinComb:
        key = (g, m)
        cached = self._gen_times_cache.get(key)
        if cached is not None:
            return cached
        deltas, x, y = m
        if g[0] == "D":
            out = LinComb.unit((tuple(sorted(deltas + (g[1:],))), x, y))
        elif g[0] == "X":
            k = g[1]
            xv = list(x)
            xv[k - 1] += 1
            terms = [LinComb.unit((deltas, tuple(xv), y))]
            for s, dk in enumerate(deltas):
                di, pair, tr = dk
                red = self.delta_monomials(di, pair, tr + (k,))
                others = deltas[:s] + deltas[s + 1 :]
                terms.append(
                    red.map_keys(lambda dt, o=others: (tuple(sorted(o + dt)), x, y))
                )
            out = lc_sum(terms)
        else:
            _, i, j = g
            terms = []
            # through the delta part
            for s, dk in enumerate(deltas):
                a, pair, tr = dk
                lowers = pair + tr
                others = deltas[:s] + deltas[s + 1 :]
                for t, low in enumerate(lowers):
                    if low == j:
                        newl = lowers[:t] + (i,) + lowers[t + 1 :]
                        red = self.delta_monomials(a, newl[:2], newl[2:])
                        terms.append(
                            red.map_keys(lambda dt, o=others: (tuple(sorted(o + dt)), x, y))
                        )
                if a == i:
                    red = self.delta_monomials(j, pair, tr)
                    terms.append(
                        red.map_keys(lambda dt, o=others: (tuple(sorted(o + dt)), x, y)).scale(-1)
                    )
            # through the X part: [Y_i^j, X_k] = d^j_k X_i
            if x[j - 1] > 0:
                xv = list(x)
                xv[j - 1] -= 1
                xv[i - 1] += 1
                terms.append(LinComb.unit((deltas, tuple(xv), y), x[j - 1]))
            # into the Y word
            pairs = ((i, j),) + self._pairs_from_y_tuple(y)
            terms.append(
                self.y_straighten(pairs).map_keys(
                    lambda ps: (deltas, x, self._y_tuple_from_pairs(ps))
                )
            )
            out = lc_sum(terms)
        self._gen_times_cache[key] = out
        return out

    def mono_factors(self, m):
        """Generator tokens of a normal monomial, left to right."""
        deltas, x, y = m
        out = [("D",) + dk for dk in deltas]
        for k in range(1, self.n + 1):
            out.extend([("X", k)] * x[k - 1])
        for p in self._pairs_from_y_tuple(y):
            out.append(("Y",) + p)
        return out

    def mono_split(self, m):
        """(head, rest) for a normal monomial m != 1: head is the monomial of
        the first generator of ``mono_factors(m)`` and rest the PBW suffix,
        itself a normal monomial with head·rest = m exactly."""
        deltas, x, y = m
        n = self.n
        if deltas:
            return ((deltas[0],), (0,) * n, (0,) * (n * n)), (deltas[1:], x, y)
        xy = list(x + y)
        k = next(k for k, e in enumerate(xy) if e)
        head = [0] * len(xy)
        head[k] = 1
        xy[k] -= 1
        return (EMPTY, tuple(head[:n]), tuple(head[n:])), (EMPTY, tuple(xy[:n]), tuple(xy[n:]))

    def mono_mul(self, m1, m2) -> LinComb:
        key = (m1, m2)
        cached = self._mono_mul_cache.get(key)
        if cached is None:
            acc = LinComb.unit(m2)
            for g in reversed(self.mono_factors(m1)):
                acc = acc.map_keys(lambda m, gg=g: self.gen_times_mono(gg, m))
            cached = self._mono_mul_cache[key] = acc
        return cached

    def product(self, a: LinComb, b: LinComb) -> LinComb:
        acc: dict = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                c = c1 * c2
                for m, cm in self.mono_mul(m1, m2).terms.items():
                    madd(acc, m, c * cm)
        return LinComb.from_dict(acc)

    def normal_form(self, word, coeff=1) -> LinComb:
        """Straighten a word of generator tokens into the PBW basis.

        Delta tokens are ("D", i, (j,k), trailing) with arbitrary index order;
        they are symmetrized and Bianchi-reduced on the way in.
        """
        acc = LinComb.unit(self.one_mono(), coeff)
        for g in reversed(list(word)):
            if g[0] == "D":
                _, i, pair, trailing = g
                red = self.delta_monomials(i, tuple(pair), tuple(trailing))
                new = LinComb.zero()
                for dt, c in red.terms.items():
                    part = acc
                    for dk in reversed(dt):
                        part = part.map_keys(
                            lambda m, kk=dk: self.gen_times_mono(("D",) + kk, m)
                        )
                    new = new + part.scale(c)
                acc = new
            else:
                acc = acc.map_keys(lambda m, gg=g: self.gen_times_mono(gg, m))
        return acc

    # -- coalgebra ------------------------------------------------------------

    def t_product(self, a: LinComb, b: LinComb) -> LinComb:
        """Componentwise product on tensor keys (tuples of monomials)."""
        acc: dict = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                slots = [self.mono_mul(x1, x2) for x1, x2 in zip(ka, kb)]
                term = LinComb.unit((), ca * cb)
                for s in slots:
                    term = self._t_extend(term, s)
                for k, v in term.terms.items():
                    madd(acc, k, v)
        return LinComb.from_dict(acc)

    @staticmethod
    def _t_extend(t: LinComb, s: LinComb) -> LinComb:
        acc: dict = {}
        for kt, ct in t.terms.items():
            for ks, cs in s.terms.items():
                madd(acc, kt + (ks,), ct * cs)
        return LinComb.from_dict(acc)

    def t_commutator(self, a: LinComb, b: LinComb) -> LinComb:
        return self.t_product(a, b) - self.t_product(b, a)

    def coproduct_gen(self, g) -> LinComb:
        """Delta of a generator token as a LinComb over (mono, mono)."""
        one = self.one_mono()
        if g[0] == "Y":
            m = self.y_gen(g[1], g[2]).terms
            (ym, _), = m.items()
            return LinComb({(ym, one): 1, (one, ym): 1})
        if g[0] == "X":
            k = g[1]
            (xm, _), = self.x_gen(k).terms.items()
            out = LinComb({(xm, one): 1, (one, xm): 1})
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    dk = self.delta_key(i, (j, k), ())
                    dm = ((dk,), (0,) * self.n, (0,) * (self.n * self.n))
                    (ym, _), = self.y_gen(i, j).terms.items()
                    out = out + LinComb.unit((dm, ym))
            return out
        # delta keys: primitive at height 0, commutator recursion above
        key = g[1:]
        cached = self._cop_cache.get(key)
        if cached is not None:
            return cached
        i, pair, trailing = key
        if not trailing:
            dm = ((key,), (0,) * self.n, (0,) * (self.n * self.n))
            out = LinComb({(dm, self.one_mono()): 1, (self.one_mono(), dm): 1})
        else:
            ell = trailing[-1]
            base = (i, pair, trailing[:-1])
            out = self.t_commutator(self.coproduct_gen(("X", ell)), self.coproduct_gen(("D",) + base))
        self._cop_cache[key] = out
        return out

    def coproduct_mono(self, m) -> LinComb:
        cached = self._cop_mono_cache.get(m)
        if cached is None:
            out = LinComb.unit((self.one_mono(), self.one_mono()))
            for g in self.mono_factors(m):
                out = self.t_product(out, self.coproduct_gen(g))
            cached = self._cop_mono_cache[m] = out
        return cached

    def coproduct(self, elem: LinComb) -> LinComb:
        acc: dict = {}
        for m, c in elem.terms.items():
            for k, v in self.coproduct_mono(m).terms.items():
                madd(acc, k, c * v)
        return LinComb.from_dict(acc)

    def counit(self, elem: LinComb):
        return elem.coefficient(self.one_mono())

    def apply_slot(self, t: LinComb, slot: int, fn) -> LinComb:
        """Apply fn: mono -> LinComb over tuples-of-monomials at one tensor slot."""
        acc: dict = {}
        for k, c in t.terms.items():
            for ki, ci in fn(k[slot]).terms.items():
                madd(acc, k[:slot] + ki + k[slot + 1 :], c * ci)
        return LinComb.from_dict(acc)

    # -- characters and antipodes ----------------------------------------------

    def modular_char_mono(self, m) -> int:
        deltas, x, y = m
        if deltas or any(x):
            return 0
        for idx, e in enumerate(y):
            if e and self.y_pairs[idx][0] != self.y_pairs[idx][1]:
                return 0
        return 1

    def modular_char(self, elem: LinComb):
        return sum(c * self.modular_char_mono(m) for m, c in elem.terms.items())

    def modular_char_inv_mono(self, m) -> int:
        base = self.modular_char_mono(m)
        if not base:
            return 0
        return (-1) ** sum(m[2])

    def _anti_hom(self, elem: LinComb, memo: dict, gen_image) -> LinComb:
        """Linear extension of the anti-homomorphism A with generator images
        ``gen_image``, memoised per PBW monomial in ``memo``.

        A(g·rest) = A(rest)·A(g), where g is the first generator of a PBW
        monomial and rest its PBW suffix (``mono_split``); A(g) is itself the
        memo entry of g's monomial.  A single monomial with coefficient 1
        returns the memo entry itself, never a copy.
        """
        if len(elem.terms) == 1:
            (m, c), = elem.terms.items()
            if c == 1:
                return self._anti_hom_mono(m, memo, gen_image)
        acc: dict = {}
        for m, c in elem.terms.items():
            for k, v in self._anti_hom_mono(m, memo, gen_image).terms.items():
                madd(acc, k, c * v)
        return LinComb.from_dict(acc)

    def _anti_hom_mono(self, m, memo: dict, gen_image) -> LinComb:
        out = memo.get(m)
        if out is None:
            if m == self.one_mono():
                out = self.one()
            else:
                head, rest = self.mono_split(m)
                if rest == self.one_mono():
                    out = gen_image(self.mono_factors(m)[0])
                else:
                    out = self.product(self._anti_hom_mono(rest, memo, gen_image),
                                       self._anti_hom_mono(head, memo, gen_image))
            memo[m] = out
        return out

    def s_tilde_gen(self, g) -> LinComb:
        if g[0] == "Y":
            _, i, j = g
            out = self.y_gen(i, j).scale(-1)
            if i == j:
                out = out + self.one()
            return out
        if g[0] == "X":
            k = g[1]
            out = self.x_gen(k).scale(-1)
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    out = out + self.product(self.delta_gen(i, (j, k)), self.y_gen(i, j))
            return out
        i, pair, trailing = g[1:]
        if not trailing:
            return self.delta_gen(i, pair).scale(-1)
        sb = self.s_tilde(self.delta_gen(i, pair, trailing[:-1]))
        sx = self.s_tilde(self.x_gen(trailing[-1]))
        return self.product(sb, sx) - self.product(sx, sb)

    def s_tilde(self, elem: LinComb) -> LinComb:
        return self._anti_hom(elem, self._s_tilde_cache, self.s_tilde_gen)

    def antipode_inv_gen(self, g) -> LinComb:
        if g[0] == "Y":
            return self.y_gen(g[1], g[2]).scale(-1)
        if g[0] == "X":
            k = g[1]
            out = self.x_gen(k).scale(-1)
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    out = out + self.product(self.y_gen(i, j), self.delta_gen(i, (j, k)))
            return out
        i, pair, trailing = g[1:]
        if not trailing:
            return self.delta_gen(i, pair).scale(-1)
        sb = self.antipode_inv(self.delta_gen(i, pair, trailing[:-1]))
        sx = self.antipode_inv(self.x_gen(trailing[-1]))
        return self.product(sb, sx) - self.product(sx, sb)

    def antipode_inv(self, elem: LinComb) -> LinComb:
        return self._anti_hom(elem, self._s_inv_cache, self.antipode_inv_gen)

    def antipode(self, elem: LinComb) -> LinComb:
        """S = (modular char inverse) * (twisted antipode), by convolution."""
        acc: dict = {}
        for m, c in elem.terms.items():
            for (m1, m2), cc in self.coproduct_mono(m).terms.items():
                w = self.modular_char_inv_mono(m1)
                if w:
                    for k, v in self.s_tilde(LinComb.unit(m2)).terms.items():
                        madd(acc, k, c * cc * w * v)
        return LinComb.from_dict(acc)

    # -- basis enumeration ------------------------------------------------------

    def delta_keys_upto(self, w: int):
        out = []
        for wt in range(1, w + 1):
            r = wt - 1
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    for k in range(j, self.n + 1):
                        for tr in self._sorted_tuples(k, r):
                            out.append((i, (j, k), tr))
        return sorted(out)

    def _sorted_tuples(self, lo: int, r: int):
        if r == 0:
            yield ()
            return
        for first in range(lo, self.n + 1):
            for rest in self._sorted_tuples(first, r - 1):
                yield (first,) + rest

    def basis(self, max_weight: int, max_degree: int):
        """All PBW monomials with weight <= max_weight and degree <= max_degree."""
        dkeys = self.delta_keys_upto(max_weight)

        delta_parts = [((), 0, 0)]  # (tuple, weight, count)
        def extend(prefix, start, wt, cnt):
            for idx in range(start, len(dkeys)):
                dk = dkeys[idx]
                w2 = wt + delta_weight(dk)
                if w2 > max_weight or cnt + 1 > max_degree:
                    continue
                tup = prefix + (dk,)
                delta_parts.append((tup, w2, cnt + 1))
                extend(tup, idx, w2, cnt + 1)

        extend((), 0, 0, 0)

        x_parts = []
        def xrec(pos, acc, wt, cnt):
            if pos == self.n:
                x_parts.append((tuple(acc), wt, cnt))
                return
            for e in range(0, max_weight - wt + 1):
                if cnt + e > max_degree:
                    break
                xrec(pos + 1, acc + [e], wt + e, cnt + e)

        xrec(0, [], 0, 0)

        y_parts = []
        def yrec(pos, acc, cnt):
            if pos == self.n * self.n:
                y_parts.append((tuple(acc), cnt))
                return
            for e in range(0, max_degree - cnt + 1):
                yrec(pos + 1, acc + [e], cnt + e)

        yrec(0, [], 0)

        out = []
        for dt, dw, dc in delta_parts:
            for xt, xw, xc in x_parts:
                if dw + xw > max_weight or dc + xc > max_degree:
                    continue
                for yt, yc in y_parts:
                    if dc + xc + yc <= max_degree:
                        out.append((dt, xt, yt))
        return sorted(out, key=lambda m: (self.mono_weight(m), self.mono_degree(m), m))

    # -- rendering ----------------------------------------------------------------

    def render_mono(self, m) -> str:
        deltas, x, y = m
        bits = []
        i = 0
        while i < len(deltas):
            j = i
            while j < len(deltas) and deltas[j] == deltas[i]:
                j += 1
            dk = deltas[i]
            s = f"d[{dk[0]};{dk[1][0]},{dk[1][1]}|{','.join(map(str, dk[2]))}]"
            bits.append(s if j - i == 1 else f"{s}^{j - i}")
            i = j
        for k in range(1, self.n + 1):
            e = x[k - 1]
            if e:
                name = "X" if self.n == 1 else f"X{k}"
                bits.append(name if e == 1 else f"{name}^{e}")
        for idx, e in enumerate(y):
            if e:
                i_, j_ = self.y_pairs[idx]
                name = "Y" if self.n == 1 else f"Y{i_}{j_}"
                bits.append(name if e == 1 else f"{name}^{e}")
        return "·".join(bits) if bits else "1"

    def render(self, elem: LinComb) -> str:
        if elem.is_zero():
            return "0"
        bits = []
        for m, c in sorted(elem.terms.items()):
            cs = "" if c == 1 else ("-" if c == -1 else f"{c}·")
            bits.append(f"{cs}{self.render_mono(m)}")
        return " + ".join(bits)


@lru_cache(maxsize=None)
def algebra(n: int, weight_cap=None) -> HopfAlgebra:
    """Shared per-(n, cap) instance so rewrite caches are reused."""
    return HopfAlgebra(n, weight_cap)


def verify_hopf_axioms(n: int, weight_cut: int, pbw_cut: int) -> dict:
    """Check the Hopf axioms on every basis monomial within the cuts.

    Coassociativity, the counit axiom, both twisted-antipode identities,
    involutivity of the twisted antipode, and the antipode convolution
    identity; plus multiplicativity of the coproduct and weight preservation
    on a deterministic sample of products.  Returns a report dict with the
    first counterexample per failing check.
    """
    H = algebra(n)
    basis = H.basis(weight_cut, pbw_cut)
    report = {
        "n": n,
        "weight_cut": weight_cut,
        "pbw_cut": pbw_cut,
        "basis_size": len(basis),
        "checks": {},
        "passed": True,
    }

    record = partial(record_check, report, "checks", render=None)

    one = H.one()

    fails = {k: [] for k in (
        "coassociativity", "counit", "twisted_antipode_1", "twisted_antipode_2",
        "s_tilde_involutive", "antipode_left", "antipode_right",
    )}
    for m in basis:
        elem = LinComb.unit(m)
        cop = H.coproduct_mono(m)
        name = H.render_mono(m)
        left = H.apply_slot(cop, 0, H.coproduct_mono)
        right = H.apply_slot(cop, 1, H.coproduct_mono)
        if not (left - right).is_zero():
            fails["coassociativity"].append(name)
        eps_l = LinComb({m2: c * H.counit(LinComb.unit(m1)) for (m1, m2), c in cop.terms.items()})
        eps_r = LinComb({m1: c * H.counit(LinComb.unit(m2)) for (m1, m2), c in cop.terms.items()})
        if eps_l != elem or eps_r != elem:
            fails["counit"].append(name)
        # S~ = delta * S forces the convolution identities to carry S~ on
        # the left factor of the product, in both coproduct-leg orders.
        tw1 = lc_sum(
            H.product(H.s_tilde(LinComb.unit(m1, c)), LinComb.unit(m2))
            for (m1, m2), c in cop.terms.items()
        )
        if tw1 != one.scale(H.modular_char(elem)):
            fails["twisted_antipode_1"].append(name)
        tw2 = lc_sum(
            H.product(H.s_tilde(LinComb.unit(m2, c)), LinComb.unit(m1))
            for (m1, m2), c in cop.terms.items()
        )
        if tw2 != one.scale(H.modular_char(elem)):
            fails["twisted_antipode_2"].append(name)
        if H.s_tilde(H.s_tilde(elem)) != elem:
            fails["s_tilde_involutive"].append(name)
        anti_l = lc_sum(
            H.product(H.antipode(LinComb.unit(m1, c)), LinComb.unit(m2))
            for (m1, m2), c in cop.terms.items()
        )
        anti_r = lc_sum(
            H.product(LinComb.unit(m1, c), H.antipode(LinComb.unit(m2)))
            for (m1, m2), c in cop.terms.items()
        )
        target = one.scale(H.counit(elem))
        if anti_l != target:
            fails["antipode_left"].append(name)
        if anti_r != target:
            fails["antipode_right"].append(name)
    for k, v in fails.items():
        record(k, v, len(basis))

    # coproduct is an algebra map + weight additivity, on a deterministic sample
    sample = basis[: min(len(basis), 12)]
    mult_fails, weight_fails = [], []
    for m1 in sample:
        for m2 in sample:
            prod = H.mono_mul(m1, m2)
            lhs = H.coproduct(prod)
            rhs = H.t_product(H.coproduct_mono(m1), H.coproduct_mono(m2))
            if lhs != rhs:
                mult_fails.append((H.render_mono(m1), H.render_mono(m2)))
            w = H.mono_weight(m1) + H.mono_weight(m2)
            if any(H.mono_weight(mm) != w for mm in prod.terms):
                weight_fails.append((H.render_mono(m1), H.render_mono(m2)))
    record("coproduct_multiplicative", mult_fails, len(sample) ** 2)
    record("weight_additive", weight_fails, len(sample) ** 2)
    return report


def bianchi_check(n: int) -> dict:
    """normal_form of every instance of the flatness identity must vanish."""
    H = algebra(n)
    failures = []
    count = 0
    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for ell in rng:
                    count += 1
                    acc = H.normal_form([("D", i, (j, ell), (k,))])
                    acc = acc - H.normal_form([("D", i, (j, k), (ell,))])
                    for s in rng:
                        acc = acc - H.normal_form(
                            [("D", s, (j, k), ()), ("D", i, (s, ell), ())]
                        )
                        acc = acc + H.normal_form(
                            [("D", s, (j, ell), ()), ("D", i, (s, k), ())]
                        )
                    if not acc.is_zero():
                        failures.append((i, j, k, ell))
    return {"n": n, "instances": count, "failures": failures, "passed": not failures}


def confluence_smoke_test(n_max: int = 2, words: int = 1000, max_len: int = 5, seed: int = 0) -> dict:
    """Random words straightened in shuffled association orders must agree."""
    import random

    rng = random.Random(seed)
    failures = []
    for trial in range(words):
        n = rng.randint(1, n_max)
        H = algebra(n)
        length = rng.randint(1, max_len)
        word = []
        for _ in range(length):
            kind = rng.choice(["X", "Y", "D", "D"])
            if kind == "X":
                word.append(("X", rng.randint(1, n)))
            elif kind == "Y":
                word.append(("Y", rng.randint(1, n), rng.randint(1, n)))
            else:
                r = rng.randint(0, 2)
                idx = [rng.randint(1, n) for _ in range(2 + r)]
                word.append(("D", rng.randint(1, n), (idx[0], idx[1]), tuple(idx[2:])))

        def nf_random(w):
            if len(w) <= 1:
                return H.normal_form(w)
            cut = rng.randint(1, len(w) - 1)
            return H.product(nf_random(w[:cut]), nf_random(w[cut:]))

        std = H.normal_form(word)
        for _ in range(2):
            if nf_random(word) != std:
                failures.append(word)
                break
    return {"words": words, "failures": failures[:3], "passed": not failures}
