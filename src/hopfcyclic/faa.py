"""The commutative Hopf algebra F(N) of jet coordinates and the matched pair.

Two coordinate systems coexist:

* alpha coordinates a[i;S] (|S| >= 2, fully symmetric): free commutative
  generators of F(N); canonical ground representation as Poly objects.
* eta coordinates e[i;j,k|T]: values at the identity frame of the curvature
  cocycle; they satisfy the same quadratic swap identities as the delta
  symbols upstairs, and the second-kind eta monomials form a second basis.

Coproduct, antipode and the U(g)-action on F are computed from symbolic jets
(composition, inversion, dual-number flows); the same structure maps are also
available through the delta-side structure constants, and the two routes are
cross-checked by tests and verification reports.

U(g) is realized as the delta-free subalgebra of H_n (same straightening);
its coproduct here is the primitive one.  The bicrossed product F >< U with
its product/coproduct/antipode closes the circle back to H_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import TruncationOverflow
from .hopf import HopfAlgebra, algebra, delta_weight
from .jets import (
    Jet,
    alpha_var,
    compose,
    infinitesimal_action,
    invert,
    mono_factorial,
    monomials_upto,
    symbolic_njet,
)
from .linalg import SparseMatrix, membership
from .poly import ONE_MONO, Poly
from .symbols import LinComb

PSI = "a"  # canonical variable family; "L"/"R" are reserved for coproduct legs


def _series_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) > order:
                continue
            m = tuple(sorted(m1 + m2))
            prev = out.get(m)
            out[m] = c1 * c2 if prev is None else prev + c1 * c2
    return {m: c for m, c in out.items() if not c.is_zero()}


def _series_sum(ss: list) -> dict:
    out: dict = {}
    for s in ss:
        for m, c in s.items():
            prev = out.get(m)
            out[m] = c if prev is None else prev + c
    return {m: c for m, c in out.items() if not c.is_zero()}


def _series_dx(series: dict, j: int) -> dict:
    out: dict = {}
    for m, c in series.items():
        cnt = m.count(j)
        if cnt:
            mm = list(m)
            mm.remove(j)
            key = tuple(mm)
            prev = out.get(key)
            term = Poly.const(cnt) * c
            out[key] = term if prev is None else prev + term
    return out


def alpha_weight(var) -> int:
    return len(var[3]) - 1


def mono_weight_alpha(mono: tuple) -> int:
    return sum(alpha_weight(v) * e for v, e in mono)


class FContext:
    """F(N) for ambient dimension n at jet truncation order J."""

    def __init__(self, n: int, jet_order: int):
        if jet_order < 2:
            raise TruncationOverflow("jet order must be >= 2 for F(N)")
        self.n = n
        self.J = jet_order
        self.H: HopfAlgebra = algebra(n)
        self._eta_series_cache: dict = {}
        self._eta_poly_cache: dict = {}
        self._cop_alpha_cache: dict = {}
        self._antipode_alpha_cache: dict = {}
        self._coaction_cache: dict = {}
        self._ucop_cache: dict = {}
        self._convert_cache: dict = {}
        self._eta_cop_cache: dict = {}
        self._inv_jacobian = None
        self._psi = symbolic_njet(n, jet_order, PSI)
        self._composite = None
        self._inverse = None

    # ------------------------------------------------------------------ eta

    def _inverse_jacobian(self):
        """(psi'(x))^{-1} as a matrix of truncated series in x (Neumann sum)."""
        if self._inv_jacobian is not None:
            return self._inv_jacobian
        n, order = self.n, self.J - 1
        dpsi = [[_series_dx(self._psi.comps[i], j + 1) for j in range(n)] for i in range(n)]
        a = [[dict(dpsi[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            c = a[i][i].get(ONE_MONO, Poly.const(0)) - Poly.const(1)
            if c.is_zero():
                a[i][i].pop(ONE_MONO, None)
            else:
                a[i][i][ONE_MONO] = c
        ident = [[({ONE_MONO: Poly.const(1)} if i == j else {}) for j in range(n)] for i in range(n)]
        inv = [row[:] for row in ident]
        powa = [row[:] for row in ident]
        sign = -1
        for _ in range(order):
            powa = [
                [_series_sum([_series_mul(powa[i][l], a[l][j], order) for l in range(n)]) for j in range(n)]
                for i in range(n)
            ]
            inv = [
                [_series_sum([inv[i][j], {m: Poly.const(sign) * c for m, c in powa[i][j].items()}]) for j in range(n)]
                for i in range(n)
            ]
            sign = -sign
        self._inv_jacobian = inv
        return inv

    def _eta_series(self, i: int, j: int, k: int) -> dict:
        key = (i, j, k)
        if key not in self._eta_series_cache:
            inv = self._inverse_jacobian()
            order = self.J - 1
            djk = [_series_dx(_series_dx(self._psi.comps[nu], j), k) for nu in range(self.n)]
            self._eta_series_cache[key] = _series_sum(
                [_series_mul(inv[i - 1][nu], djk[nu], order) for nu in range(self.n)]
            )
        return self._eta_series_cache[key]

    def eta_poly(self, key) -> Poly:
        """e[i;j,k|T] as a polynomial in the free alpha coordinates."""
        i, pair, trailing = key
        pair = tuple(sorted(pair))
        trailing = tuple(sorted(trailing))
        ck = (i, pair, trailing)
        if ck not in self._eta_poly_cache:
            if delta_weight(ck) > self.J - 1:
                raise TruncationOverflow(
                    f"eta symbol of weight {delta_weight(ck)} needs jet order > {self.J}"
                )
            s = self._eta_series(i, pair[0], pair[1])
            self._eta_poly_cache[ck] = s.get(trailing, Poly.const(0)) * Fraction(
                mono_factorial(trailing)
            )
        return self._eta_poly_cache[ck]

    def eta_mono_poly(self, mono: tuple) -> Poly:
        out = Poly.const(1)
        for key in mono:
            out = out * self.eta_poly(key)
        return out

    # -------------------------------------------------------- basis / convert

    def eta_keys_of_weight(self, w: int):
        return [k for k in self.H.delta_keys_upto(w) if delta_weight(k) == w]

    def eta_monos_of_weight(self, w: int):
        keys = [k for k in self.H.delta_keys_upto(w)]
        out = []

        def rec(prefix, start, rem):
            if rem == 0:
                out.append(tuple(prefix))
                return
            for idx in range(start, len(keys)):
                dw = delta_weight(keys[idx])
                if dw <= rem:
                    rec(prefix + [keys[idx]], idx, rem - dw)

        rec([], 0, w)
        return sorted(out)

    def alpha_vars_of_weight(self, w: int):
        return [
            alpha_var(i, S, PSI)
            for i in range(1, self.n + 1)
            for S in monomials_upto(self.n, w + 1, min_deg=w + 1)
        ]

    def alpha_monos_of_weight(self, w: int):
        gens = []
        for wt in range(1, w + 1):
            gens.extend((v, wt) for v in self.alpha_vars_of_weight(wt))
        out = []

        def rec(prefix, start, rem):
            if rem == 0:
                out.append(tuple(prefix))
                return
            for idx in range(start, len(gens)):
                v, wt = gens[idx]
                if wt <= rem:
                    ext = prefix[:]
                    if ext and ext[-1][0] == v:
                        ext[-1] = (v, ext[-1][1] + 1)
                    else:
                        ext.append((v, 1))
                    rec(ext, idx, rem - wt)

        rec([], 0, w)
        return sorted(out)

    def _conversion(self, w: int):
        """Per-weight tables between alpha monomials and eta monomials."""
        if w in self._convert_cache:
            return self._convert_cache[w]
        amonos = self.alpha_monos_of_weight(w)
        emonos = self.eta_monos_of_weight(w)
        if len(amonos) != len(emonos):
            raise AssertionError(f"basis size mismatch at weight {w}")
        aidx = {m: i for i, m in enumerate(amonos)}
        cols = []
        for em in emonos:
            p = self.eta_mono_poly(em)
            col = {}
            for mono, c in p.terms.items():
                col[aidx[mono]] = c
            cols.append(col)
        mat = SparseMatrix.from_columns(len(amonos), cols)
        entry = {"amonos": amonos, "emonos": emonos, "aidx": aidx, "cols": cols, "mat": mat, "a2e": {}}
        self._convert_cache[w] = entry
        return entry

    def alpha_mono_to_eta(self, mono: tuple) -> LinComb:
        w = mono_weight_alpha(mono)
        if w == 0:
            return LinComb.unit(())
        entry = self._conversion(w)
        if mono not in entry["a2e"]:
            target = {entry["aidx"][mono]: Fraction(1)}
            coeffs = membership(target, entry["cols"])
            if coeffs is None:
                raise AssertionError("alpha monomial outside eta-monomial span")
            entry["a2e"][mono] = LinComb(
                {entry["emonos"][i]: c for i, c in enumerate(coeffs) if c}
            )
        return entry["a2e"][mono]

    def alpha_to_eta(self, poly: Poly) -> LinComb:
        out = LinComb.zero()
        for mono, c in poly.terms.items():
            out = out + self.alpha_mono_to_eta(mono).scale(c)
        return out

    def eta_to_alpha(self, lc: LinComb) -> Poly:
        out = Poly.const(0)
        for mono, c in lc.terms.items():
            out = out + Poly.const(c) * self.eta_mono_poly(mono)
        return out

    def eta_alpha_convert(self, value, direction: str):
        """Triangular change of variables, either direction (round trip = id)."""
        if direction == "eta_to_alpha":
            return self.eta_to_alpha(value)
        if direction == "alpha_to_eta":
            return self.alpha_to_eta(value)
        raise ValueError(f"unknown direction {direction!r}")

    # ------------------------------------------------------------- coalgebra

    def _check_order(self, poly: Poly):
        for v in poly.variables():
            if len(v[3]) > self.J:
                raise TruncationOverflow(f"coordinate {v} beyond jet order {self.J}")

    def _composite_jet(self) -> Jet:
        if self._composite is None:
            l = symbolic_njet(self.n, self.J, "L")
            r = symbolic_njet(self.n, self.J, "R")
            self._composite = compose(l, r)
        return self._composite

    def _inverse_jet(self) -> Jet:
        if self._inverse is None:
            self._inverse = invert(self._psi)
        return self._inverse

    def _cop_alpha_var(self, var) -> LinComb:
        """Delta of one alpha coordinate as a LinComb over (amono, amono)."""
        if var not in self._cop_alpha_cache:
            _, _, i, S = var
            comp = self._composite_jet()
            p = comp.alpha(i, S)
            out = LinComb.zero()
            for mono, c in p.terms.items():
                lpart, rpart = [], []
                for v, e in mono:
                    fam = v[1]
                    tgt = (lpart if fam == "L" else rpart)
                    tgt.append((alpha_var(v[2], v[3], PSI), e))
                out = out + LinComb.unit((tuple(sorted(lpart)), tuple(sorted(rpart))), c)
            self._cop_alpha_cache[var] = out
        return self._cop_alpha_cache[var]

    def f_coproduct(self, poly: Poly) -> LinComb:
        """Faa-di-Bruno coproduct; keys are (alpha monomial, alpha monomial)."""
        self._check_order(poly)
        out = LinComb.zero()
        for mono, c in poly.terms.items():
            term = LinComb.unit(((), ()), c)
            for v, e in mono:
                dv = self._cop_alpha_var(v)
                for _ in range(e):
                    term = self._ff_product(term, dv)
            out = out + term
        return out

    @staticmethod
    def _ff_product(a: LinComb, b: LinComb) -> LinComb:
        from .poly import mono_mul

        out = LinComb.zero()
        for (l1, r1), c1 in a.terms.items():
            for (l2, r2), c2 in b.terms.items():
                out = out + LinComb.unit((mono_mul(l1, l2), mono_mul(r1, r2)), c1 * c2)
        return out

    def f_antipode(self, poly: Poly) -> Poly:
        self._check_order(poly)
        inv = self._inverse_jet()
        sub = {}
        for v in poly.variables():
            if v not in self._antipode_alpha_cache:
                self._antipode_alpha_cache[v] = inv.alpha(v[2], v[3])
            sub[v] = self._antipode_alpha_cache[v]
        return poly.subst(sub)

    @staticmethod
    def f_counit(poly: Poly) -> Fraction:
        return poly.const_part()

    def f_coproduct_eta(self, emono: tuple) -> LinComb:
        """Reduced-friendly coproduct on the eta-monomial basis (cached)."""
        if emono not in self._eta_cop_cache:
            cop = self.f_coproduct(self.eta_mono_poly(emono))
            out = LinComb.zero()
            for (l, r), c in cop.terms.items():
                le = self.alpha_mono_to_eta(l) if l else LinComb.unit(())
                re = self.alpha_mono_to_eta(r) if r else LinComb.unit(())
                for kl, cl in le.terms.items():
                    for kr, cr in re.terms.items():
                        out = out + LinComb.unit((kl, kr), c * cl * cr)
            self._eta_cop_cache[emono] = out
        return self._eta_cop_cache[emono]

    # ------------------------------------------------------------ U(g) action

    def act_jet(self, gen, poly: Poly) -> Poly:
        """Group-action route: dual-number derivative of the <| flow."""
        return infinitesimal_action(gen, poly, self.n, self.J)

    def _act_eta_key(self, gen, key) -> LinComb:
        """Adjoint route on one eta symbol; output on the eta-monomial basis."""
        i, pair, trailing = key
        if gen[0] == "X":
            return self.H.delta_monomials(i, pair, trailing + (gen[1],))
        _, yi, yj = gen
        lowers = pair + trailing
        out = LinComb.zero()
        for t, low in enumerate(lowers):
            if low == yj:
                newl = lowers[:t] + (yi,) + lowers[t + 1 :]
                out = out + self.H.delta_monomials(i, newl[:2], newl[2:])
        if i == yi:
            out = out - self.H.delta_monomials(yj, pair, trailing)
        return out

    def act_eta(self, gen, emono: tuple) -> LinComb:
        """Derivation action of one g-generator on an eta monomial."""
        out = LinComb.zero()
        for s, key in enumerate(emono):
            rest = emono[:s] + emono[s + 1 :]
            img = self._act_eta_key(gen, key)
            out = out + img.map_keys(lambda dt, r=rest: tuple(sorted(r + dt)))
        return out

    # ---------------------------------------------------------------- U(g)

    def u_one(self):
        return self.H.one_mono()

    def u_gen_mono(self, gen):
        if gen[0] == "X":
            (m,), = [tuple(self.H.x_gen(gen[1]).terms)]
        else:
            (m,), = [tuple(self.H.y_gen(gen[1], gen[2]).terms)]
        return m

    def u_mul(self, m1, m2) -> LinComb:
        out = self.H.mono_mul(m1, m2)
        assert all(not m[0] for m in out.terms), "U(g) product left the delta-free subalgebra"
        return out

    def u_mul_lc(self, a: LinComb, b: LinComb) -> LinComb:
        out = LinComb.zero()
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                out = out + self.u_mul(m1, m2).scale(c1 * c2)
        return out

    def u_coproduct(self, umono) -> LinComb:
        """Primitive-multiplicative coproduct of U(g) (not the H_n one)."""
        if umono not in self._ucop_cache:
            out = LinComb.unit((self.u_one(), self.u_one()))
            for g in self.H.mono_factors(umono):
                gm = self.u_gen_mono(g)
                prim = LinComb({(gm, self.u_one()): 1, (self.u_one(), gm): 1})
                nxt = LinComb.zero()
                for (a1, a2), c1 in out.terms.items():
                    for (b1, b2), c2 in prim.terms.items():
                        left = self.u_mul(a1, b1)
                        right = self.u_mul(a2, b2)
                        for l, cl in left.terms.items():
                            for r, cr in right.terms.items():
                                nxt = nxt + LinComb.unit((l, r), c1 * c2 * cl * cr)
                out = nxt
            self._ucop_cache[umono] = out
        return self._ucop_cache[umono]

    def u_antipode(self, umono) -> LinComb:
        factors = self.H.mono_factors(umono)
        acc = LinComb.unit(self.u_one(), Fraction(-1) ** len(factors))
        for g in factors:
            gm = self.u_gen_mono(g)
            acc = acc.map_keys(lambda m, gg=gm: self.u_mul(gg, m))
        return acc

    def u_act_poly(self, umono, poly: Poly) -> Poly:
        """Left action of a PBW monomial of U(g) on F (generators composed)."""
        out = poly
        for g in reversed(self.H.mono_factors(umono)):
            out = self.act_jet(g, out)
        return out

    # --------------------------------------------------------------- coaction

    def coaction_gen(self, gen) -> LinComb:
        """Coaction of one g-generator: keys (umono, alpha monomial)."""
        gm = self.u_gen_mono(gen)
        out = LinComb.unit((gm, ()))
        if gen[0] == "X":
            k = gen[1]
            for i in range(1, self.n + 1):
                for j in range(1, self.n + 1):
                    ym = self.u_gen_mono(("Y", i, j))
                    av = alpha_var(i, tuple(sorted((j, k))), PSI)
                    out = out + LinComb.unit((ym, ((av, 1),)))
        return out

    def _u_peel(self, umono):
        """Split off the leading generator: umono = g . rest."""
        factors = self.H.mono_factors(umono)
        g = factors[0]
        _, x, y = umono
        x, y = list(x), list(y)
        if g[0] == "X":
            x[g[1] - 1] -= 1
        else:
            y[self.H.y_index[(g[1], g[2])]] -= 1
        return g, ((), tuple(x), tuple(y))

    def coaction(self, umono) -> LinComb:
        """Right coaction on U(g), built from generators by multiplicativity."""
        if umono in self._coaction_cache:
            return self._coaction_cache[umono]
        if umono == self.u_one():
            out = LinComb.unit((self.u_one(), ()))
        else:
            g, rest = self._u_peel(umono)
            tail = self.coaction(rest)
            gco = self.coaction_gen(g)
            from .poly import mono_mul

            out = LinComb.zero()
            # (g^(0) v^(0)) (x) (g^(1) v^(1))
            for (g0, g1), c1 in gco.terms.items():
                for (v0, fm), c2 in tail.terms.items():
                    prod = self.u_mul(g0, v0)
                    for m, cm in prod.terms.items():
                        out = out + LinComb.unit((m, mono_mul(g1, fm)), c1 * c2 * cm)
            # v^(0) (x) (g |> v^(1))
            for (v0, fm), c2 in tail.terms.items():
                acted = self.act_jet(g, Poly({fm: Fraction(1)}))
                for m, cm in acted.terms.items():
                    out = out + LinComb.unit((v0, m), c2 * cm)
        self._coaction_cache[umono] = out
        return out

    # ------------------------------------------------------- bicrossed product

    def fu_product(self, a: LinComb, b: LinComb) -> LinComb:
        """(f >< u)(g >< v) = f (u_(1) |> g) >< u_(2) v on (amono, umono) keys."""
        from .poly import mono_mul

        out = LinComb.zero()
        for (f, u), c1 in a.terms.items():
            ucop = self.u_coproduct(u)
            for (g, v), c2 in b.terms.items():
                for (u1, u2), cu in ucop.terms.items():
                    acted = self.u_act_poly(u1, Poly({g: Fraction(1)}))
                    u2v = self.u_mul(u2, v)
                    for gm, cg in acted.terms.items():
                        fg = mono_mul(f, gm)
                        for m, cm in u2v.terms.items():
                            out = out + LinComb.unit((fg, m), c1 * c2 * cu * cg * cm)
        return out

    def fu_coproduct(self, a: LinComb) -> LinComb:
        """Keys ((amono, umono), (amono, umono))."""
        from .poly import mono_mul

        out = LinComb.zero()
        for (f, u), c in a.terms.items():
            fcop = self.f_coproduct(Poly({f: Fraction(1)}))
            ucop = self.u_coproduct(u)
            for (f1, f2), cf in fcop.terms.items():
                for (u1, u2), cu in ucop.terms.items():
                    for (u10, u11), cc in self.coaction(u1).terms.items():
                        out = out + LinComb.unit(
                            ((f1, u10), (mono_mul(f2, u11), u2)), c * cf * cu * cc
                        )
        return out

    def fu_antipode(self, a: LinComb) -> LinComb:
        """S(f >< u) = (1 >< S(u^(0))) (S(f u^(1)) >< 1)."""
        from .poly import mono_mul

        out = LinComb.zero()
        for (f, u), c in a.terms.items():
            for (u0, u1), cc in self.coaction(u).terms.items():
                su = self.u_antipode(u0)
                sf = self.f_antipode(Poly({mono_mul(f, u1): Fraction(1)}))
                left = LinComb({( (), m): cv for m, cv in su.terms.items()})
                right = LinComb({(m, self.u_one()): cv for m, cv in sf.terms.items()})
                out = out + self.fu_product(left, right).scale(c * cc)
        return out

    def iso_I(self, hmono) -> LinComb:
        """I(delta_K Z_I) = iota(delta_K) >< Z_I in (amono, umono) keys."""
        deltas, x, y = hmono
        fpoly = Poly.const(1)
        for dk in deltas:
            fpoly = fpoly * self.eta_poly(dk)
        umono = ((), x, y)
        return LinComb({(m, umono): c for m, c in fpoly.terms.items()})


@lru_cache(maxsize=None)
def context(n: int, jet_order: int) -> FContext:
    return FContext(n, jet_order)


def _g_generators(n: int):
    gens = [("X", k) for k in range(1, n + 1)]
    gens += [("Y", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return gens


def two_route_coproduct_check(n: int, jet_order: int, weight_cut: int) -> dict:
    """Faa-di-Bruno Delta on F vs the commutator-recursion Delta on H_ab.

    The Hopf iso iota: H_ab^cop -> F(N) transports delta-keys to eta-keys and
    flips tensor legs; both routes must agree exactly.
    """
    F = context(n, jet_order)
    failures = []
    keys = [k for k in F.H.delta_keys_upto(weight_cut)]
    for key in keys:
        lhs = F.f_coproduct(F.eta_poly(key))
        hcop = F.H.coproduct_gen(("D",) + key)
        rhs = LinComb.zero()
        for (m1, m2), c in hcop.terms.items():
            assert not any(m1[1]) and not any(m1[2]), "coproduct of delta left H_ab"
            p1 = F.eta_mono_poly(m1[0])
            p2 = F.eta_mono_poly(m2[0])
            for mo2, c2 in p2.terms.items():
                for mo1, c1 in p1.terms.items():
                    rhs = rhs + LinComb.unit((mo2, mo1), c * c1 * c2)  # tensor flip
        if lhs != rhs:
            failures.append(key)
    return {"n": n, "jet_order": jet_order, "weight_cut": weight_cut,
            "checked": len(keys), "failures": failures, "passed": not failures}


def moda_check(n: int, jet_order: int, weight_cut: int) -> dict:
    """Group-action route == transported adjoint route for the g-action on F."""
    F = context(n, jet_order)
    failures = []
    checked = 0
    for gen in _g_generators(n):
        raises = 1 if gen[0] == "X" else 0
        for key in F.H.delta_keys_upto(weight_cut):
            if delta_weight(key) + raises > jet_order - 1:
                continue
            checked += 1
            jet_route = F.act_jet(gen, F.eta_poly(key))
            adj = F._act_eta_key(gen, key)
            adj_route = Poly.const(0)
            for dt, c in adj.terms.items():
                adj_route = adj_route + Poly.const(c) * F.eta_mono_poly(dt)
            if not (jet_route - adj_route).is_zero():
                failures.append((gen, key))
    return {"n": n, "checked": checked, "failures": failures, "passed": not failures}


def check_matched_pair(n: int, jet_order: int, weight_cut: int | None = None) -> dict:
    """mp1-mp5 on all generator pairs and on degree-2 products, within cuts."""
    from .poly import mono_mul

    F = context(n, jet_order)
    W = weight_cut if weight_cut is not None else jet_order - 2
    gens = _g_generators(n)
    eta_fs = [k for k in F.H.delta_keys_upto(W)]
    report = {"n": n, "jet_order": jet_order, "weight_cut": W, "axioms": {}, "passed": True}

    def record(name, failures, checked):
        entry = {"checked": checked, "passed": not failures}
        if failures:
            entry["first_counterexample"] = repr(failures[0])
            report["passed"] = False
        report["axioms"][name] = entry

    # mp1
    fails = []
    for g in gens:
        for key in eta_fs:
            if g[0] == "X" and delta_weight(key) + 1 > jet_order - 1:
                continue
            if F.f_counit(F.act_jet(g, F.eta_poly(key))) != 0:
                fails.append((g, key))
    record("mp1", fails, len(gens) * len(eta_fs))

    # mp2: Delta(u |> f) = u(1)^(0) |> f(1) (x) u(1)^(1) (u(2) |> f(2))
    fails = []
    checked = 0
    for g in gens:
        gco = F.coaction_gen(g)
        for key in eta_fs:
            if g[0] == "X" and delta_weight(key) + 1 > jet_order - 1:
                continue
            checked += 1
            f = F.eta_poly(key)
            lhs = F.f_coproduct(F.act_jet(g, f))
            rhs = LinComb.zero()
            for (f1, f2), c in F.f_coproduct(f).terms.items():
                # u1 = g, u2 = 1
                for (g0, g1), cc in gco.terms.items():
                    acted = F.u_act_poly(g0, Poly({f1: Fraction(1)}))
                    for m1, c1 in acted.terms.items():
                        rhs = rhs + LinComb.unit((m1, mono_mul(g1, f2)), c * cc * c1)
                # u1 = 1, u2 = g
                acted2 = F.act_jet(g, Poly({f2: Fraction(1)}))
                for m2, c2 in acted2.terms.items():
                    rhs = rhs + LinComb.unit((f1, m2), c * c2)
            if lhs != rhs:
                fails.append((g, key))
    record("mp2", fails, checked)

    # mp3
    record("mp3", [] if F.coaction(F.u_one()) == LinComb.unit((F.u_one(), ())) else ["nabla(1)"], 1)

    # mp4 on degree-<=2 x degree-<=1 products; instances whose exact value
    # needs coordinates beyond the jet order are skipped and reported
    umonos_1 = [F.u_gen_mono(g) for g in gens]
    umonos_2 = []
    for a in umonos_1:
        for b in umonos_1:
            for m, c in F.u_mul(a, b).terms.items():
                if F.H.mono_degree(m) == 2 and m not in umonos_2:
                    umonos_2.append(m)
    fails = []
    checked = skipped = 0
    for u in umonos_1 + umonos_2:
        for v in umonos_1:
            try:
                lhs = LinComb.zero()
                for m, c in F.u_mul(u, v).terms.items():
                    lhs = lhs + F.coaction(m).scale(c)
                rhs = LinComb.zero()
                vco = F.coaction(v)
                for (u1, u2), cu in F.u_coproduct(u).terms.items():
                    for (u10, u11), cc in F.coaction(u1).terms.items():
                        for (v0, v1), cv in vco.terms.items():
                            acted = F.u_act_poly(u2, Poly({v1: Fraction(1)}))
                            prod_u = F.u_mul(u10, v0)
                            for am, ca in acted.terms.items():
                                fm = mono_mul(u11, am)
                                for pm, cp in prod_u.terms.items():
                                    rhs = rhs + LinComb.unit((pm, fm), cu * cc * cv * ca * cp)
            except TruncationOverflow:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                fails.append((u, v))
    record("mp4", fails, checked)
    report["axioms"]["mp4"]["skipped_beyond_cut"] = skipped

    # mp5: u(2)^(0) (x) (u(1) |> f) u(2)^(1) = u(1)^(0) (x) u(1)^(1) (u(2) |> f)
    fails = []
    checked = skipped = 0
    for u in umonos_1 + umonos_2:
        ucop = F.u_coproduct(u)
        for key in eta_fs:
            try:
                f = F.eta_poly(key)
                lhs = LinComb.zero()
                rhs = LinComb.zero()
                for (u1, u2), cu in ucop.terms.items():
                    acted1 = F.u_act_poly(u1, f)
                    for (u20, u21), cc in F.coaction(u2).terms.items():
                        for am, ca in acted1.terms.items():
                            lhs = lhs + LinComb.unit((u20, mono_mul(am, u21)), cu * cc * ca)
                    acted2 = F.u_act_poly(u2, f)
                    for (u10, u11), cc in F.coaction(u1).terms.items():
                        for am, ca in acted2.terms.items():
                            rhs = rhs + LinComb.unit((u10, mono_mul(u11, am)), cu * cc * ca)
            except TruncationOverflow:
                skipped += 1
                continue
            checked += 1
            if lhs != rhs:
                fails.append((u, key))
    record("mp5", fails, checked)
    report["axioms"]["mp5"]["skipped_beyond_cut"] = skipped

    # comodule axioms for the coaction
    fails = []
    for u in umonos_1 + umonos_2:
        co = F.coaction(u)
        counit_side = LinComb.zero()
        for (u0, fm), c in co.terms.items():
            if fm == ():
                counit_side = counit_side + LinComb.unit(u0, c)
        if counit_side != LinComb.unit(u):
            fails.append(("counit", u))
            continue
        lhs = LinComb.zero()
        for (u0, fm), c in co.terms.items():
            for (u00, fm2), c2 in F.coaction(u0).terms.items():
                lhs = lhs + LinComb.unit((u00, fm2, fm), c * c2)
        rhs = LinComb.zero()
        for (u0, fm), c in co.terms.items():
            for (f1, f2), c2 in F.f_coproduct(Poly({fm: Fraction(1)})).terms.items():
                rhs = rhs + LinComb.unit((u0, f1, f2), c * c2)
        if lhs != rhs:
            fails.append(("coassoc", u))
    record("comodule", fails, len(umonos_1 + umonos_2))
    return report


def bicrossed_crosscheck(n: int, jet_order: int, weight_cut: int, pbw_cut: int) -> dict:
    """H^cop == F >< U through I(delta_K Z_I) = iota(delta_K) >< Z_I.

    Checks coproduct (with the co-opposite flip applied on the H side),
    product against all generator multiplications, and the antipode.
    """
    F = context(n, jet_order)
    H = F.H
    basis = [m for m in H.basis(weight_cut, pbw_cut)]
    report = {"n": n, "jet_order": jet_order, "weight_cut": weight_cut,
              "pbw_cut": pbw_cut, "basis_size": len(basis), "checks": {}, "passed": True}

    def record(name, failures, checked):
        entry = {"checked": checked, "passed": not failures}
        if failures:
            entry["first_counterexample"] = failures[0]
            report["passed"] = False
        report["checks"][name] = entry

    def iso_lc(elem: LinComb) -> LinComb:
        out = LinComb.zero()
        for m, c in elem.terms.items():
            out = out + F.iso_I(m).scale(c)
        return out

    # coproduct
    fails = []
    for m in basis:
        lhs = F.fu_coproduct(F.iso_I(m))
        rhs = LinComb.zero()
        for (m1, m2), c in H.coproduct_mono(m).terms.items():
            left = F.iso_I(m2)   # co-opposite flip
            right = F.iso_I(m1)
            for kl, cl in left.terms.items():
                for kr, cr in right.terms.items():
                    rhs = rhs + LinComb.unit((kl, kr), c * cl * cr)
        if lhs != rhs:
            fails.append(H.render_mono(m))
    record("coproduct", fails, len(basis))

    # product: all (generator, basis monomial) pairs
    gens = [("X", k) for k in range(1, n + 1)]
    gens += [("Y", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    gens += [("D",) + k for k in H.delta_keys_upto(1)]
    fails = []
    checked = 0
    for g in gens:
        gel = H.normal_form([g])
        for m in basis:
            if H.weight(gel) + H.mono_weight(m) > jet_order - 1:
                continue
            checked += 1
            lhs = iso_lc(H.product(gel, LinComb.unit(m)))
            rhs = F.fu_product(iso_lc(gel), F.iso_I(m))
            if lhs != rhs:
                fails.append((g, H.render_mono(m)))
    record("product", fails, checked)

    # antipode: S_{F><U}(I(m)) == I(S_H^{-1}(m))
    fails = []
    for m in basis:
        lhs = F.fu_antipode(F.iso_I(m))
        rhs = iso_lc(H.antipode_inv(LinComb.unit(m)))
        if lhs != rhs:
            fails.append(H.render_mono(m))
    record("antipode", fails, len(basis))
    return report
