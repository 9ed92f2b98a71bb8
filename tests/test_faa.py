from fractions import Fraction

import pytest

from hopfcyclic.errors import InvariantViolation, TruncationOverflow
from hopfcyclic.faa import (
    FContext,
    bicrossed_crosscheck,
    check_matched_pair,
    context,
    moda_check,
    two_route_coproduct_check,
)
from hopfcyclic.jets import alpha_var
from hopfcyclic.linalg import membership
from hopfcyclic.poly import Poly
from hopfcyclic.symbols import LinComb

F1 = context(1, 5)


def eta(k):
    """n=1 chain eta_k (weight k)."""
    return (1, (1, 1), (1,) * (k - 1))


def avar(order):
    return alpha_var(1, (1,) * order, "a")


def test_eta_alpha_base_identity():
    # eta^i_jk = alpha^i_jk
    assert F1.eta_poly(eta(1)) == Poly.var(avar(2))


def test_eta2_is_schwarzian_style():
    # eta_2 = alpha_3 - alpha_2^2
    a2, a3 = Poly.var(avar(2)), Poly.var(avar(3))
    assert F1.eta_poly(eta(2)) == a3 - a2 * a2


def test_eta_alpha_roundtrip():
    # round trip on a mixed weight-3 polynomial
    p = Poly.var(avar(4)) * Fraction(3) + Poly.var(avar(2)) * Poly.var(avar(3))
    assert F1.eta_to_alpha(F1.alpha_to_eta(p)) == p
    lc = LinComb({tuple(sorted((eta(2), eta(1)))): Fraction(2), (eta(3),): 1})
    assert F1.alpha_to_eta(F1.eta_to_alpha(lc)) == lc


@pytest.mark.parametrize("n, jet_order, weights", [(1, 6, 5), (2, 4, 2), (3, 3, 2)])
def test_alpha_to_eta_table_matches_membership(n, jet_order, weights):
    # the oracle: one membership per alpha monomial in the eta-monomial span
    F = context(n, jet_order)
    for w in range(1, weights + 1):
        emonos = F.eta_monos_of_weight(w)
        cols = [{} for _ in emonos]
        amonos = F.alpha_monos_of_weight(w)
        aidx = {m: i for i, m in enumerate(amonos)}
        for j, em in enumerate(emonos):
            for mono, c in F.eta_mono_poly(em).terms.items():
                cols[j][aidx[mono]] = c
        for mono in amonos:
            coeffs = membership({aidx[mono]: Fraction(1)}, cols)
            want = LinComb({emonos[j]: c for j, c in enumerate(coeffs) if c})
            assert F.alpha_mono_to_eta(mono) == want
            assert F.eta_to_alpha(want) == Poly({mono: Fraction(1)})


def test_singular_conversion_raises(monkeypatch):
    F = FContext(1, 5)
    emonos = F.eta_monos_of_weight(2)
    first = F.eta_mono_poly(emonos[0])
    monkeypatch.setattr(F, "eta_mono_poly", lambda em: first)  # two equal columns
    with pytest.raises(InvariantViolation, match="outside the eta-monomial span"):
        F.alpha_mono_to_eta(F.alpha_monos_of_weight(2)[0])


def test_f_coproduct_alpha_primitive():
    # Delta(alpha^i_jk) = alpha (x) 1 + 1 (x) alpha
    cop = F1.f_coproduct(Poly.var(avar(2)))
    v = ((avar(2), 1),)
    assert cop == LinComb({(v, ()): 1, ((), v): 1})


def test_f_coproduct_eta2():
    cop = F1.f_coproduct_eta((eta(2),))
    want = LinComb(
        {
            ((eta(2),), ()): 1,
            ((), (eta(2),)): 1,
            ((eta(1),), (eta(1),)): 1,
        }
    )
    assert cop == want


def test_f_coproduct_unit():
    assert F1.f_coproduct(Poly.const(1)) == LinComb.unit(((), ()), 1)


def test_f_antipode():
    a2 = Poly.var(avar(2))
    assert F1.f_antipode(a2) == -a2
    assert F1.f_antipode(Poly.const(1)) == Poly.const(1)
    # m(S (x) id) Delta(eta_2) = eps(eta_2) 1 = 0
    acc = Poly.const(0)
    for (l, r), c in F1.f_coproduct(F1.eta_poly(eta(2))).terms.items():
        acc = acc + Poly.const(c) * F1.f_antipode(Poly({l: Fraction(1)})) * Poly({r: Fraction(1)})
    assert acc.is_zero()


def test_f_coproduct_truncation_guard():
    with pytest.raises(TruncationOverflow):
        F1.f_coproduct(Poly.var(avar(7)))


def test_action_weight_and_shift():
    # Y |> eta_1 = eta_1 (weight one), X |> eta_1 = eta_2
    e1 = F1.eta_poly(eta(1))
    assert F1.act_jet(("Y", 1, 1), e1) == e1
    assert F1.act_jet(("X", 1), e1) == F1.eta_poly(eta(2))
    # X |> eta_k = eta_{k+1} along the chain
    for k in (1, 2, 3):
        assert F1.act_jet(("X", 1), F1.eta_poly(eta(k))) == F1.eta_poly(eta(k + 1))


def test_act_eta_matches_jets():
    r = moda_check(1, 5, 3)
    assert r["passed"], r


def test_two_route_coproduct_n1():
    r = two_route_coproduct_check(1, 5, 4)
    assert r["passed"], r


def test_coaction_generators():
    ym = F1.u_gen_mono(("Y", 1, 1))
    xm = F1.u_gen_mono(("X", 1))
    assert F1.coaction(ym) == LinComb.unit((ym, ()))
    want = LinComb({(xm, ()): 1, (ym, ((avar(2), 1),)): 1})
    assert F1.coaction(xm) == want


def test_coaction_x_squared():
    xm = F1.u_gen_mono(("X", 1))
    x2 = next(iter(F1.u_mul(xm, xm).terms))
    ym = F1.u_gen_mono(("Y", 1, 1))
    xy = next(iter(F1.u_mul(xm, ym).terms))  # X.Y normal
    yx = F1.u_mul(ym, xm)  # = X.Y + X
    y2 = next(iter(F1.u_mul(ym, ym).terms))
    a2 = ((avar(2), 1),)
    a2sq = ((avar(2), 2),)
    want = LinComb({(x2, ()): 1, (y2, a2sq): 1, (ym, ((avar(3), 1),)): 1})
    # (XY + YX) (x) eta1 = (2 X.Y + X) (x) eta1
    want = want + LinComb.unit((xy, a2), 2)
    want = want + LinComb.unit((xm, a2), 1)
    # X |> eta1 = eta2 = a3 - a2^2 contributes Y (x) (a3 - a2^2)
    want = want + LinComb.unit((ym, a2sq), -1)
    assert F1.coaction(x2) == want


def test_matched_pair_n1():
    r = check_matched_pair(1, 5)
    assert r["passed"], r


def test_bicrossed_crosscheck_n1_small():
    r = bicrossed_crosscheck(1, 5, 2, 2)
    assert r["passed"], r


def test_eta_alpha_convert_directions():
    from hopfcyclic.poly import Poly

    p = Poly.var(avar(3)) + Poly.var(avar(2)) * Poly.var(avar(2))
    lc = F1.eta_alpha_convert(p, "alpha_to_eta")
    back = F1.eta_alpha_convert(lc, "eta_to_alpha")
    assert back == p
    with pytest.raises(ValueError):
        F1.eta_alpha_convert(p, "sideways")
