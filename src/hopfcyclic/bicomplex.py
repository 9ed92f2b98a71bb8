"""Weight-graded bicomplex engine for the Hopf cyclic cohomology of H_n.

Spots are C_delta (x) F^{(x)p} (x) Lambda^q g (absolute) or, relative to
gl_n, gl_n-coinvariants of C_delta (x) F^{(x)p} (x) Lambda^q V.  Everything
is normalized (no unit tensor factors) and weight-homogeneous, so every
(degree, weight) block is finite and exactly computable.

Differentials:

* del_g: Chevalley-Eilenberg homology boundary of g with coefficients in
  C_delta (x) F^{(x)p}, right action m <| Z = delta(Z) m - Z |> m (diagonal
  U(g)-action on tensor factors); lowers q.
* beta_F: coalgebra cohomology coboundary of F, inner reduced-coproduct
  insertions with signs (-1)^{j+1} plus the wedge coaction term with sign
  (-1)^p; raises p.  This sign convention is pinned by beta^2 = 0, D^2 = 0
  and the anchored samples (del(1(x)1(x)Y) = 1(x)1, normalized
  beta(1(x)X) = -1(x)eta1(x)Y, the homotopy display with positive sign).

The mixed complex is (C, b, B) with C^m = sum of spots p+q=m, b = beta_F and
B = (-1)^p del_g; HC^m comes from the (b,B)-double complex total
Tot^m = sum_k C^{m-2k}, Hochschild cohomology from b alone.

Each spot (p, q, w) has three ``Engine`` methods, and every caller goes
through them: ``coordinates`` (words -> rows of the spot, one cached index
per spot), ``spot_map`` (the columns of b or B on the spot's words) and
``gl_relation`` (the gl_n relation the relative kind divides out).  Block
matrices, the Goncarova row complex, the homotopy lemma and the Chern checks
are built from them, so a per-block memo or a split of each spot by torus
weight acts in these three places only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .errors import CompositionNonzero, InfeasibleCut, InvariantViolation, RankMismatch
from .faa import FContext, context
from .linalg import Quotient, SparseMatrix, membership, rank, rank_and_kernel
from .symbols import LinComb, madd, perm_sign, record_check, wedge_normalize

X_WEIGHT = 1
Y_WEIGHT = 0


def gen_weight(g) -> int:
    return X_WEIGHT if g[0] == "X" else Y_WEIGHT


class Engine:
    """Bicomplex engine; kind is 'absolute' (Lambda g) or 'relative' (Lambda V mod gl_n).

    Per spot: ``coordinates`` (the spot's word -> row index), ``spot_map``
    (b or B columns into the target spot) and ``gl_relation`` (the relative
    kind's relations).  ``matrix`` assembles blocks from them; a block memo
    or a torus-weight split of the spots attaches to these methods.
    """

    def __init__(self, n: int, w_max: int, kind: str = "absolute", jet_order: int | None = None):
        if kind not in ("absolute", "relative"):
            raise ValueError(kind)
        self.n = n
        self.w_max = w_max
        self.kind = kind
        self.J = jet_order if jet_order is not None else max(w_max + 1, 2)
        if self.J < w_max + 1:
            raise InfeasibleCut(f"jet order {self.J} cannot host weight {w_max}")
        self.F: FContext = context(n, self.J)
        self.H = self.F.H
        self.x_syms = [("X", k) for k in range(1, n + 1)]
        self.y_syms = [("Y", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        self.wedge_syms = self.x_syms + (self.y_syms if kind == "absolute" else [])
        self._spot_cache: dict = {}
        self._index_cache: dict = {}
        self._quotient_cache: dict = {}
        self._act_cache: dict = {}
        self._redcop_cache: dict = {}
        self._fmono_cache: dict = {}

    # ----------------------------------------------------------------- bases

    def fmonos_of_weight(self, w: int):
        if w not in self._fmono_cache:
            self._fmono_cache[w] = self.F.eta_monos_of_weight(w)
        return self._fmono_cache[w]

    def wedges(self, q: int):
        from itertools import combinations

        return list(combinations(self.wedge_syms, q))

    def spot_basis(self, p: int, q: int, w: int):
        """Ordered basis of the full (unreduced) spot: (fword, wedge) pairs."""
        key = (p, q, w)
        if key in self._spot_cache:
            return self._spot_cache[key]
        if w > self.w_max:
            raise InfeasibleCut(f"weight {w} above engine cut {self.w_max}")
        out = []
        for wedge in self.wedges(q):
            wq = sum(gen_weight(g) for g in wedge)
            rem = w - wq
            if rem < 0 or (p == 0 and rem != 0) or (p > 0 and rem < p):
                continue
            for fword in self._fwords(p, rem):
                out.append((fword, wedge))
        out.sort()
        self._spot_cache[key] = out
        return out

    def _fwords(self, p: int, total: int):
        if p == 0:
            return [()] if total == 0 else []
        out = []

        def rec(prefix, rem, slots):
            if slots == 1:
                for m in self.fmonos_of_weight(rem):
                    out.append(prefix + (m,))
                return
            for w1 in range(1, rem - slots + 2):
                for m in self.fmonos_of_weight(w1):
                    rec(prefix + (m,), rem - w1, slots - 1)

        rec((), total, p)
        return out

    # ------------------------------------------------------------- operators

    def _act(self, gen, fmono) -> LinComb:
        key = (gen, fmono)
        if key not in self._act_cache:
            self._act_cache[key] = self.F.act_eta(gen, fmono)
        return self._act_cache[key]

    def _act_fword(self, gen, fword: tuple) -> LinComb:
        """Action of 1 >< gen on the F-tensor word through Delta_H.

        Y_i^j acts diagonally; X_k additionally carries the cross terms
        (Y_i^j |> at slot s) . (eta^i_jk multiplied into slot t) for s < t,
        coming from Delta(1 >< X_k) = (1><X)(x)1 + (1><Y_i^j)(x)(eta^i_jk><1)
        + 1(x)(1><X).  On a single factor this is the plain |> action.
        """
        acc: dict = {}
        p = len(fword)
        for s in range(p):
            for m, c in self._act(gen, fword[s]).terms.items():
                madd(acc, fword[:s] + (m,) + fword[s + 1 :], c)
        if gen[0] == "X":
            k = gen[1]
            for s in range(p):
                for t in range(s + 1, p):
                    for i in range(1, self.n + 1):
                        for j in range(1, self.n + 1):
                            eta = (i, tuple(sorted((j, k))), ())
                            mult = tuple(sorted(fword[t] + (eta,)))
                            for m, c in self._act(("Y", i, j), fword[s]).terms.items():
                                madd(
                                    acc,
                                    fword[:s] + (m,) + fword[s + 1 : t] + (mult,) + fword[t + 1 :],
                                    c,
                                )
        return LinComb.from_dict(acc)

    def _delta_char(self, gen) -> int:
        return 1 if (gen[0] == "Y" and gen[1] == gen[2]) else 0

    def _bracket(self, a, b) -> LinComb:
        """[a, b] in g on generator symbols."""
        if a[0] == "X" and b[0] == "X":
            return LinComb.zero()
        if a[0] == "Y" and b[0] == "X":
            # [Y_i^j, X_k] = d^j_k X_i
            _, i, j = a
            k = b[1]
            return LinComb.unit(("X", i)) if j == k else LinComb.zero()
        if a[0] == "X" and b[0] == "Y":
            return self._bracket(b, a).scale(-1)
        # [Y_i^j, Y_k^l] = d^j_k Y_i^l - d^l_i Y_k^j
        (_, i, j), (_, k, l) = a, b
        out = LinComb.zero()
        if j == k:
            out = out + LinComb.unit(("Y", i, l))
        if i == l:
            out = out - LinComb.unit(("Y", k, j))
        return out

    def del_g(self, word) -> LinComb:
        """CE boundary on one (fword, wedge) word; keys (fword, wedge)."""
        fword, wedge = word
        acc: dict = {}
        q = len(wedge)
        for a in range(q):
            sign = (-1) ** a
            rest = wedge[:a] + wedge[a + 1 :]
            z = wedge[a]
            dz = self._delta_char(z)
            if dz:
                madd(acc, (fword, rest), sign * dz)
            for fm, c in self._act_fword(z, fword).terms.items():
                madd(acc, (fm, rest), -sign * c)
        for a in range(q):
            for b in range(a + 1, q):
                sign = (-1) ** (a + b)
                rest = wedge[:a] + wedge[a + 1 : b] + wedge[b + 1 :]
                br = self._bracket(wedge[a], wedge[b])
                for sym, c in br.terms.items():
                    if self.kind == "relative" and sym[0] == "Y":
                        continue
                    for wkey, cw in wedge_normalize((sym,) + rest).terms.items():
                        madd(acc, (fword, wkey), sign * c * cw)
        return LinComb.from_dict(acc)

    def _reduced_cop(self, fmono) -> LinComb:
        """Delta-bar on one eta monomial: both legs weight >= 1."""
        if fmono not in self._redcop_cache:
            full = self.F.f_coproduct_eta(fmono)
            self._redcop_cache[fmono] = LinComb(
                {k: c for k, c in full.terms.items() if k[0] and k[1]}
            )
        return self._redcop_cache[fmono]

    def beta_f(self, word) -> LinComb:
        """Coalgebra coboundary on one word; keys (fword, wedge)."""
        from itertools import combinations

        fword, wedge = word
        p = len(fword)
        acc: dict = {}
        for j in range(1, p + 1):
            sign = (-1) ** (j + 1)
            for (l, r), c in self._reduced_cop(fword[j - 1]).terms.items():
                madd(acc, (fword[: j - 1] + (l, r) + fword[j:], wedge), sign * c)
        # coaction term at the right end, sign (-1)^p; corrections replace
        # X_k by Y_i^j and multiply in S(eta^i_jk) = -eta^i_jk
        xpos = [a for a, g in enumerate(wedge) if g[0] == "X"]
        csign = (-1) ** p
        for r in range(1, len(xpos) + 1):
            for chosen in combinations(xpos, r):
                self._coaction_terms(acc, fword, wedge, chosen, csign * ((-1) ** r))
        return LinComb.from_dict(acc)

    def _coaction_terms(self, acc, fword, wedge, chosen, sign):
        n = self.n
        slots = []
        for a in chosen:
            k = wedge[a][1]
            opts = []
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    eta = (i, tuple(sorted((j, k))), ())
                    opts.append((eta, ("Y", i, j)))
            slots.append(opts)

        def rec(idx, etas, repl):
            if idx == len(chosen):
                if self.kind == "relative":
                    return  # replaced Y's project to zero in Lambda V
                new_wedge = list(wedge)
                for a, sym in zip(chosen, repl):
                    new_wedge[a] = sym
                fm = tuple(sorted(etas))
                for wkey, cw in wedge_normalize(new_wedge).terms.items():
                    madd(acc, (fword + (fm,), wkey), sign * cw)
                return
            for eta, sym in slots[idx]:
                rec(idx + 1, etas + [eta], repl + [sym])

        rec(0, [], [])

    # ------------------------------------------------------------ per spot

    @staticmethod
    def target(op: str, p: int, q: int):
        """The spot that b (op 'b') or B (op 'B') maps spot (p, q) into."""
        return (p + 1, q) if op == "b" else (p, q - 1)

    def coordinates(self, terms: dict, p: int, q: int, w: int, scale=1) -> dict:
        """scale * {word: coefficient} as {row: Fraction} in the full spot (p, q, w).

        The word -> row index of each spot is built once."""
        if not terms:
            return {}
        key = (p, q, w)
        idx = self._index_cache.get(key)
        if idx is None:
            idx = self._index_cache[key] = {b: i for i, b in enumerate(self.spot_basis(p, q, w))}
        out = {}
        for word, c in terms.items():
            row = idx.get(word)
            if row is None:
                raise InvariantViolation(f"image left the block: {word}")
            out[row] = Fraction(c if scale == 1 else scale * c)  # Fraction times 1 costs a gcd
        return out

    def spot_map(self, op: str, p: int, q: int, w: int, words=None) -> list:
        """Columns of b (beta_F) or B ((-1)^p del_g) on the given words of spot
        (p, q, w) (default: all of them), in the target spot's full coordinates."""
        if words is None:
            words = self.spot_basis(p, q, w)
        tp, tq = self.target(op, p, q)
        fn, sign = (self.beta_f, 1) if op == "b" else (self.del_g, (-1) ** p)
        return [self.coordinates(fn(word).terms, tp, tq, w, sign) for word in words]

    def gl_relation(self, word, ysym) -> dict:
        """(m <| Y) (x) v - m (x) ad_Y(v) for the word m (x) v and Y = Y_i^j,
        as {word: coefficient}; its span is what the relative kind divides out."""
        fword, wedge = word
        rel: dict = {}
        dz = self._delta_char(ysym)
        if dz:
            madd(rel, word, dz)
        for fm, c in self._act_fword(ysym, fword).terms.items():
            madd(rel, (fm, wedge), -c)
        for a, sym in enumerate(wedge):
            for s2, c in self._bracket(ysym, sym).terms.items():
                if s2[0] == "Y":
                    continue
                for wkey, cw in wedge_normalize(wedge[:a] + (s2,) + wedge[a + 1 :]).terms.items():
                    madd(rel, (fword, wkey), -c * cw)
        return rel

    # --------------------------------------------------------- block assembly

    def spots_of_degree(self, m: int, w: int):
        out = []
        for q in range(0, len(self.wedge_syms) + 1):
            p = m - q
            if p < 0:
                continue
            basis = self.spot_basis(p, q, w)
            if basis:
                out.append((p, q))
        return out

    def quotient(self, p: int, q: int, w: int) -> Quotient | None:
        """gl_n-coinvariant quotient of the spot (relative kind only)."""
        key = (p, q, w)
        if key not in self._quotient_cache:
            basis = self.spot_basis(p, q, w)
            relations = [rel for word in basis for ysym in self.y_syms
                         if (rel := self.coordinates(self.gl_relation(word, ysym), p, q, w))]
            self._quotient_cache[key] = Quotient(len(basis), relations)
        return self._quotient_cache[key]

    def block(self, m: int, w: int):
        """Coordinate description of C^m_w: list of (p, q, basis, offset[, quotient])."""
        out = []
        offset = 0
        for (p, q) in self.spots_of_degree(m, w):
            basis = self.spot_basis(p, q, w)
            if self.kind == "relative":
                quot = self.quotient(p, q, w)
                dim = quot.quotient_dim
                out.append((p, q, basis, offset, quot))
            else:
                dim = len(basis)
                out.append((p, q, basis, offset, None))
            offset += dim
        return out, offset

    def matrix(self, op: str, m: int, w: int) -> SparseMatrix:
        """b (=beta_F) or B (=(-1)^p del_g) as a block matrix C^m_w -> C^{m'}_w."""
        src, src_dim = self.block(m, w)
        tgt, tgt_dim = self.block(m + 1 if op == "b" else m - 1, w)
        tspots = {(p, q): (offset, quot) for (p, q, _, offset, quot) in tgt}
        mat = SparseMatrix(tgt_dim, src_dim)
        for (p, q, basis, offset, quot) in src:
            words = basis if quot is None else [basis[i] for i in quot.basis]
            cols = self.spot_map(op, p, q, w, words)
            for i, col in enumerate(cols):
                if not col:
                    continue
                toff, tquot = tspots[self.target(op, p, q)]
                for r, v in (col if tquot is None else tquot.project(col)).items():
                    mat[toff + r, offset + i] = v
        return mat

    def total_layout(self, m: int, w: int):
        """Levels of Tot^m_w: [(degree, offset, dim)] for degrees m, m-2, ..."""
        out, off = [], 0
        deg = m
        while deg >= 0:
            _, d = self.block(deg, w)
            out.append((deg, off, d))
            off += d
            deg -= 2
        return out, off

    def total_matrix(self, m: int, w: int):
        """D: Tot^m_w -> Tot^{m+1}_w for the (b,B)-double complex."""
        src_layout, src_dim = self.total_layout(m, w)
        tgt_layout, tgt_dim = self.total_layout(m + 1, w)
        tgt_offs = {deg: off for deg, off, _ in tgt_layout}
        mat = SparseMatrix(tgt_dim, src_dim)
        for deg, soff, _ in src_layout:
            bmat = self.matrix("b", deg, w)
            for (r, c), v in bmat.entries.items():
                mat[tgt_offs[deg + 1] + r, soff + c] = v
            if deg - 1 >= 0:
                Bmat = self.matrix("B", deg, w)
                for (r, c), v in Bmat.entries.items():
                    mat[tgt_offs[deg - 1] + r, soff + c] = v
        return mat, src_dim, tgt_dim

    # ------------------------------------------------------------- rendering

    def render_fmono(self, fm: tuple) -> str:
        if not fm:
            return "1"
        bits = []
        i = 0
        while i < len(fm):
            j = i
            while j < len(fm) and fm[j] == fm[i]:
                j += 1
            k = fm[i]
            s = f"e[{k[0]};{k[1][0]},{k[1][1]}|{','.join(map(str, k[2]))}]"
            bits.append(s if j - i == 1 else f"{s}^{j - i}")
            i = j
        return "·".join(bits)

    def render_gen(self, g) -> str:
        if g[0] == "X":
            return "X" if self.n == 1 else f"X{g[1]}"
        return "Y" if self.n == 1 else f"Y{g[1]}{g[2]}"

    def render_word(self, word) -> str:
        fword, wedge = word
        fpart = " ⊗ ".join(self.render_fmono(f) for f in fword) if fword else "1"
        wpart = "∧".join(self.render_gen(g) for g in wedge) if wedge else "1"
        return f"1 ⊗ {fpart} ⊗ {wpart}"


@dataclass
class ClassCertificate:
    degree: int
    weight: int
    label: str
    representative: list  # [(coefficient string, rendered word)]
    cocycle_checked: bool = True
    non_coboundary_checked: bool = True
    raw: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "weight": self.weight,
            "label": self.label,
            "representative": [[c, wrd] for c, wrd in self.representative],
            "cocycle_checked": self.cocycle_checked,
            "non_coboundary_checked": self.non_coboundary_checked,
        }


KNOWN_H1_CLASSES = {
    (0, 0): "unit",
    (1, 1): "godbillon-vey",
    (1, 2): "schwarzian",
    (2, 1): "transverse-fundamental",
    (2, 2): "sigma_2",
    (2, 3): "sigma_2'",
    (2, 5): "tau_2",
    (2, 7): "tau_2'",
}


@lru_cache(maxsize=None)
def _engine(n: int, w_max: int, kind: str, jet_order: int | None) -> Engine:
    return Engine(n, w_max, kind, jet_order)


def engine(n: int, w_max: int, kind: str = "absolute", jet_order: int | None = None) -> Engine:
    """The shared Engine for one set of cuts, whichever defaults the call spells out."""
    return _engine(n, w_max, kind, jet_order)


# the cache stays inspectable and resettable under the public name
engine.cache_info, engine.cache_clear = _engine.cache_info, _engine.cache_clear


def _tot_coordinate_words(eng: Engine, m: int, w: int):
    """Flat coordinate -> (degree, rendered word) map for Tot^m_w."""
    out = []
    layout, _ = eng.total_layout(m, w)
    for deg, _, _ in layout:
        blocks, _ = eng.block(deg, w)
        for (p, q, basis, _, quot) in blocks:
            if quot is None:
                for word in basis:
                    out.append((deg, eng.render_word(word)))
            else:
                for full_idx in quot.basis:
                    out.append((deg, eng.render_word(basis[full_idx]) + " [coinv]"))
    return out


def representatives(kernel: list, d_prev: SparseMatrix) -> list:
    """Kernel vectors that stay independent modulo the image of d_prev.

    ``kernel`` is an RREF kernel basis (``rank_and_kernel``) of a d_now with
    d_now . d_prev = 0.  The answer is what a greedy scan gives that keeps
    each vector outside the span of the image and of the vectors kept before
    it.  Each v has a 1 in its free column max(v) (its other keys are pivot
    columns to the left) and no entry in another free column, so kernel
    coordinates are the free-column entries, and v is kept iff no vector in
    the span of the image has its last nonzero coordinate at v.  With the
    coordinates listed in reverse, "last" becomes the leading pivot of one
    ``Quotient``.
    """
    last = len(kernel) - 1
    pos = {max(v): last - i for i, v in enumerate(kernel)}
    relations: dict = {}
    for (r, c), x in d_prev.entries.items():
        if r in pos:
            relations.setdefault(c, {})[pos[r]] = x
    quot = Quotient(len(kernel), list(relations.values()))
    return [kernel[last - j] for j in reversed(quot.basis)]


def block_cohomology(d, src_dim, degrees, weights, name: str):
    """Cohomology ker d(m, w) / im d(m-1, w) of a weight-graded complex, block by block.

    ``d(m, w)`` is the differential C^m_w -> C^{m+1}_w and ``src_dim(m, w)``
    the dimension of C^m_w, which lets empty blocks be skipped unbuilt.
    Yields ``(m, w, dim, reps)`` in degree-major order for every nonempty
    block.  A wrong shape or d^2 != 0 raises, and so does a dimension that
    differs from the number of representatives.  Each matrix is built and
    eliminated once: ``rank_and_kernel`` for d(m, w), whose rank a memo
    keeps for block (m+1, w); ``rank`` only for a d(m-1, w) not in the memo,
    whose source block is empty or below ``degrees``.  The memo lives for
    one call.
    """
    ranked: dict = {}
    for m in degrees:
        for w in weights:
            prev = ranked.pop((m - 1, w), None)
            if not src_dim(m, w):
                continue
            d_now = d(m, w)
            r_now, kernel = rank_and_kernel(d_now)
            if prev is None:
                d_prev = d(m - 1, w) if m else SparseMatrix(d_now.cols, 0)
                prev = d_prev, rank(d_prev)
            d_prev, r_prev = prev
            if not d_now.matmul(d_prev).is_zero():
                raise CompositionNonzero(f"{name}^2 != 0 at degree {m}, weight {w}")
            reps = representatives(kernel, d_prev)
            dim = (d_now.cols - r_now) - r_prev
            if dim != len(reps):
                raise RankMismatch(f"degree {m}, weight {w}: dimension {dim}, "
                                   f"{len(reps)} representatives")
            ranked[m, w] = d_now, r_now
            yield m, w, dim, reps


def total_blocks(eng: Engine, degrees, weights):
    """``block_cohomology`` of the (b,B)-total complex of an engine."""
    return block_cohomology(lambda m, w: eng.total_matrix(m, w)[0],
                            lambda m, w: eng.total_layout(m, w)[1], degrees, weights, "D")


def total_cohomology(n: int, degree_max: int, w_max: int, kind: str = "absolute",
                     jet_order: int | None = None) -> dict:
    """HC dimensions per (degree, weight) from the (b,B)-total complex."""
    eng = engine(n, w_max, kind, jet_order)
    known = KNOWN_H1_CLASSES if n == 1 and kind == "absolute" else {}
    blocks = []
    for m, w, dim, reps in total_blocks(eng, range(degree_max + 1), range(w_max + 1)):
        if dim == 0:
            continue
        words = _tot_coordinate_words(eng, m, w)
        certs = []
        for idx, v in enumerate(reps):
            label = known.get((m, w), "")
            if not label:
                label = f"HC^{m}[w={w}]#{idx}"
            elif len(reps) > 1:
                label = f"{label}#{idx}"
            rep = [(str(c), words[i][1]) for i, c in sorted(v.items())]
            certs.append(ClassCertificate(m, w, label, rep))
        blocks.append({"degree": m, "weight": w, "dim": dim,
                       "certificates": [c.to_json() for c in certs]})
    return {
        "schema": 1,
        "n": n,
        "kind": kind,
        "jet_cut": eng.J,
        "w_max": w_max,
        "degree_max": degree_max,
        "blocks": blocks,
    }


def hochschild_dims(n: int, degree_max: int, w_max: int, kind: str = "absolute",
                    jet_order: int | None = None) -> dict:
    """Hochschild (b-only) cohomology dimensions per (degree, weight)."""
    eng = engine(n, w_max, kind, jet_order)
    found = block_cohomology(lambda m, w: eng.matrix("b", m, w), lambda m, w: eng.block(m, w)[1],
                             range(degree_max + 1), range(w_max + 1), "b")
    blocks = [{"degree": m, "weight": w, "dim": dim} for m, w, dim, _ in found if dim]
    return {"schema": 1, "n": n, "kind": kind, "jet_cut": eng.J, "w_max": w_max,
            "degree_max": degree_max, "blocks": blocks}


def goncarova_check(k_max: int, w_max: int, n: int = 1) -> dict:
    """Row-complex (q=0) cohomology: two classes per degree k at the
    predicted weights {k + 3k(k-1)/2, 2k + 3k(k-1)/2}, zero elsewhere."""
    eng = engine(n, w_max, "absolute")

    def beta_matrix(p: int, w: int) -> SparseMatrix:
        return SparseMatrix.from_columns(len(eng.spot_basis(p + 1, 0, w)), eng.spot_map("b", p, 0, w))

    degrees = range(1, k_max + 1)
    dims: dict = {k: {} for k in degrees}
    for k, w, dim, _ in block_cohomology(beta_matrix, lambda k, w: len(eng.spot_basis(k, 0, w)),
                                         degrees, range(1, w_max + 1), "beta"):
        if dim:
            dims[k][w] = dim
    blocks = []
    passed = True
    for k in degrees:
        expected = {k + 3 * k * (k - 1) // 2, 2 * k + 3 * k * (k - 1) // 2}
        ok = all(dims[k].get(w, 0) == 1 for w in expected if w <= w_max) and all(
            w in expected for w in dims[k]
        )
        passed = passed and ok
        blocks.append({"k": k, "expected_weights": sorted(expected),
                       "dims_by_weight": {str(w): d for w, d in sorted(dims[k].items())},
                       "passed": ok})
    return {"schema": 1, "n": n, "k_max": k_max, "w_max": w_max,
            "blocks": blocks, "passed": passed}


def engine_invariants(n: int, degree_max: int, w_max: int, kind: str = "absolute") -> dict:
    """Matrix-level invariants: b^2 = 0, B^2 = 0, bB + Bb = 0 per block, plus
    the antisymmetrization round trip and the homotopy-lemma identity."""
    eng = engine(n, w_max, kind)
    report = {"n": n, "kind": kind, "checks": {}, "passed": True}

    record = partial(record_check, report, "checks")

    sq_b, sq_B, anti = [], [], []
    checked = 0
    for m in range(degree_max + 1):
        for w in range(w_max + 1):
            _, dim = eng.block(m, w)
            if dim == 0:
                continue
            checked += 1
            b_now = eng.matrix("b", m, w)
            b_next = eng.matrix("b", m + 1, w)
            if not b_next.matmul(b_now).is_zero():
                sq_b.append((m, w))
            B_now = eng.matrix("B", m, w)
            if m >= 1:
                B_down = eng.matrix("B", m - 1, w)
                if not B_down.matmul(B_now).is_zero():
                    sq_B.append((m, w))
            # bB + Bb = 0 : C^m -> C^m
            B_up = eng.matrix("B", m + 1, w)
            lhs = eng.matrix("b", m - 1, w).matmul(B_now) if m >= 1 else None
            rhs = B_up.matmul(b_now)
            if lhs is None:
                total = rhs
            else:
                total = SparseMatrix(rhs.rows, rhs.cols)
                for (r, c), v in rhs.entries.items():
                    total[r, c] = v
                for (r, c), v in lhs.entries.items():
                    total[r, c] = total[r, c] + v
            if not total.is_zero():
                anti.append((m, w))
    record("b_squared", sq_b, checked)
    record("B_squared", sq_B, checked)
    record("bB_plus_Bb", anti, checked)

    # antisymmetrization alpha~ followed by its left inverse mu is the identity
    from itertools import permutations

    fails = []
    count = 0
    for q in range(0, min(len(eng.wedge_syms), 3) + 1):
        for wedge in eng.wedges(q):
            count += 1
            acc: dict = {}
            denom = 1
            for perm in permutations(range(q)):
                sign = perm_sign(perm)
                madd(acc, tuple(wedge[i] for i in perm), Fraction(sign))
            total = LinComb.zero()
            for tup, c in acc.items():
                total = total + wedge_normalize(tup, c)
            import math

            if total != wedge_normalize(wedge, math.factorial(q)):
                fails.append(wedge)
    record("antisym_roundtrip", fails, count)

    # homotopy lemma: every beta-cocycle f~ of weight >= 1 at q=0 satisfies
    # f~ (x) eta1 = (1/|f~|) beta(X |> f~); verified with membership too
    if n == 1:
        fails = []
        count = 0
        eta1 = (1, (1, 1), ())
        for p in range(1, min(degree_max, 3) + 1):
            for w in range(1, w_max):
                src = eng.spot_basis(p, 0, w)
                if not src:
                    continue
                bmat = SparseMatrix.from_columns(len(eng.spot_basis(p + 1, 0, w)),
                                                 eng.spot_map("b", p, 0, w))
                _, kernel = rank_and_kernel(bmat)
                # beta on spot (p, 0, w+1), where X.f~ lives; its columns span
                # the coboundaries gamma(f~) must lie in
                full_b = eng.spot_map("b", p, 0, w + 1)
                span_cols = [c for c in full_b if c]
                for v in kernel:
                    count += 1
                    # gamma(f~) = f~ (x) eta1 as a vector in spot (p+1, 0, w+1);
                    # witness X.f~ = (-1)^{p+1} (1 >< X)-action (sign from the
                    # commuting square), scaled by 1/|f~|
                    fwords = [(src[col][0], coeff) for col, coeff in v.items()]
                    gamma = eng.coordinates({(fw + ((eta1,),), ()): c for fw, c in fwords},
                                            p + 1, 0, w + 1)
                    xf = LinComb.zero()
                    for fword, coeff in fwords:
                        xf = xf + eng._act_fword(("X", 1), fword).scale((-1) ** (p + 1) * coeff)
                    beta_xf: dict = {}
                    xcoords = eng.coordinates({(fw, ()): c for fw, c in xf.terms.items()}, p, 0, w + 1)
                    for row, c in xcoords.items():
                        for k, cc in full_b[row].items():
                            madd(beta_xf, k, c * cc / w)
                    if beta_xf != gamma:
                        fails.append((p, w))
                    if membership(gamma, span_cols) is None:
                        fails.append(("membership", p, w))
        record("homotopy_lemma", fails, count)
    return report

