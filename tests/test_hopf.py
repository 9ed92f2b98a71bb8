from fractions import Fraction

import pytest

from hopfcyclic.errors import InvariantViolation, TruncationOverflow
from hopfcyclic.hopf import HopfAlgebra, algebra, bianchi_check, confluence_smoke_test, verify_hopf_axioms
from hopfcyclic.symbols import LinComb


H1 = algebra(1)
H2 = algebra(2)


def X(H, k=1):
    return H.x_gen(k)


def Y(H, i=1, j=1):
    return H.y_gen(i, j)


def d1(H, k=1):
    """n=1 chain delta_k = d[1;1,1|1,...,1] with k-1 trailing ones."""
    return H.delta_gen(1, (1, 1), (1,) * (k - 1))


def test_normal_form_single_generator():
    assert H1.normal_form([("X", 1)]) == X(H1)


def test_normal_form_yx():
    got = H1.normal_form([("Y", 1, 1), ("X", 1)])
    assert got == H1.product(X(H1), Y(H1)) + X(H1)


def test_normal_form_x_delta():
    got = H1.normal_form([("X", 1), ("D", 1, (1, 1), ())])
    assert got == H1.product(d1(H1), X(H1)) + d1(H1, 2)


def test_bianchi_rewrite_n2():
    got = H2.normal_form([("D", 1, (1, 2), (1,))])
    want = H2.normal_form([("D", 1, (1, 1), (2,))])
    for s in (1, 2):
        want = want + H2.product(H2.delta_gen(s, (1, 1)), H2.delta_gen(1, (s, 2)))
        want = want - H2.product(H2.delta_gen(s, (1, 2)), H2.delta_gen(1, (s, 1)))
    assert got == want


def test_deltas_commute():
    assert H1.product(d1(H1), d1(H1, 2)) == H1.product(d1(H1, 2), d1(H1))


def test_product_unit():
    a = H1.product(Y(H1), X(H1))
    assert H1.product(H1.one(), a) == a


def test_y_delta_weight_relation():
    # [Y, delta_k] = k delta_k at n=1
    for k in (1, 2, 3, 4):
        dk = d1(H1, k)
        comm = H1.product(Y(H1), dk) - H1.product(dk, Y(H1))
        assert comm == dk.scale(k)


def test_weight_grading():
    assert H1.weight(d1(H1)) == 1
    assert H1.weight(d1(H1, 2)) == 2
    assert H1.weight(H1.product(X(H1), Y(H1))) == 1


def test_coproduct_x():
    one = H1.one_mono()
    (xm,), = [tuple(X(H1).terms)]
    (ym,), = [tuple(Y(H1).terms)]
    (dm,), = [tuple(d1(H1).terms)]
    want = LinComb({(xm, one): 1, (one, xm): 1, (dm, ym): 1})
    assert H1.coproduct(X(H1)) == want


def test_coproduct_delta2():
    one = H1.one_mono()
    (dm,), = [tuple(d1(H1).terms)]
    (d2m,), = [tuple(d1(H1, 2).terms)]
    want = LinComb({(d2m, one): 1, (one, d2m): 1, (dm, dm): 1})
    assert H1.coproduct(d1(H1, 2)) == want


def test_coproduct_delta_pair_primitive_general_n():
    one = H2.one_mono()
    el = H2.delta_gen(2, (1, 2))
    (dm,), = [tuple(el.terms)]
    assert H2.coproduct(el) == LinComb({(dm, one): 1, (one, dm): 1})


def test_counit():
    assert H1.counit(H1.one()) == 1
    assert H1.counit(X(H1)) == 0
    assert H1.counit(Y(H1)) == 0
    assert H1.counit(d1(H1)) == 0
    assert H1.counit(H1.one().scale(3) + H1.product(X(H1), Y(H1)).scale(2)) == 3


def test_twisted_antipode_generators():
    assert H1.s_tilde(H1.one()) == H1.one()
    assert H1.s_tilde(X(H1)) == X(H1).scale(-1) + H1.product(d1(H1), Y(H1))
    assert H1.s_tilde(Y(H1)) == Y(H1).scale(-1) + H1.one()
    assert H1.s_tilde(d1(H1)) == d1(H1).scale(-1)


def test_twisted_antipode_involutive_on_x():
    assert H1.s_tilde(H1.s_tilde(X(H1))) == X(H1)


def test_antipode_values():
    assert H1.antipode(Y(H1)) == Y(H1).scale(-1)
    assert H1.antipode(X(H1)) == X(H1).scale(-1) + H1.product(d1(H1), Y(H1))
    assert H1.antipode(d1(H1)) == d1(H1).scale(-1)


def test_antipode_inverse_roundtrip():
    for elem in (X(H1), Y(H1), d1(H1), d1(H1, 3), H1.product(X(H1), d1(H1, 2))):
        assert H1.antipode(H1.antipode_inv(elem)) == elem
        assert H1.antipode_inv(H1.antipode(elem)) == elem


def test_modular_character():
    assert H1.modular_char(Y(H1)) == 1
    assert H2.modular_char(Y(H2, 1, 2)) == 0
    assert H2.modular_char(Y(H2, 2, 2)) == 1
    assert H1.modular_char(X(H1)) == 0
    assert H1.modular_char(d1(H1)) == 0
    # multiplicative on a sample
    ab = H1.product(Y(H1), Y(H1))
    assert H1.modular_char(ab) == 1


def test_weight_cap_overflow():
    capped = HopfAlgebra(1, weight_cap=2)
    with pytest.raises(TruncationOverflow):
        capped.normal_form([("X", 1), ("D", 1, (1, 1), (1,))])  # needs weight 3


def test_basis_counts_n1():
    basis = H1.basis(2, 2)
    # weights 0..2, degree <= 2 over {delta1, delta2, X, Y}
    names = {H1.render_mono(m) for m in basis}
    assert "1" in names and "d[1;1,1|]·X" in names and "Y^2" in names
    for m in basis:
        assert H1.mono_weight(m) <= 2 and H1.mono_degree(m) <= 2


def test_verify_hopf_axioms_small_n1():
    report = verify_hopf_axioms(1, 3, 2)
    assert report["passed"], report


def test_bianchi_check_n2():
    report = bianchi_check(2)
    assert report["passed"], report


def test_confluence_smoke_small():
    report = confluence_smoke_test(n_max=2, words=60, max_len=4, seed=1)
    assert report["passed"], report


# -- the antipodes' per-monomial memo against the plain word product ----------

ANTIPODE_CUTS = ((1, 4, 3), (2, 2, 2), (3, 2, 2))  # (n, weight cut, PBW cut)


def _s_tilde_gen_oracle(H, g):
    """S~ on a generator token, with the commutator recursion on deltas."""
    if g[0] == "Y":
        _, i, j = g
        return H.y_gen(i, j).scale(-1) + (H.one() if i == j else LinComb.zero())
    if g[0] == "X":
        k = g[1]
        out = H.x_gen(k).scale(-1)
        for i in range(1, H.n + 1):
            for j in range(1, H.n + 1):
                out = out + H.product(H.delta_gen(i, (j, k)), H.y_gen(i, j))
        return out
    i, pair, trailing = g[1:]
    if not trailing:
        return H.delta_gen(i, pair).scale(-1)
    sb = _s_tilde_gen_oracle(H, ("D", i, pair, trailing[:-1]))
    sx = _s_tilde_gen_oracle(H, ("X", trailing[-1]))
    return H.product(sb, sx) - H.product(sx, sb)


def _s_inv_gen_oracle(H, g):
    """S^-1 on a generator token, with the commutator recursion on deltas."""
    if g[0] == "Y":
        return H.y_gen(g[1], g[2]).scale(-1)
    if g[0] == "X":
        k = g[1]
        out = H.x_gen(k).scale(-1)
        for i in range(1, H.n + 1):
            for j in range(1, H.n + 1):
                out = out + H.product(H.y_gen(i, j), H.delta_gen(i, (j, k)))
        return out
    i, pair, trailing = g[1:]
    if not trailing:
        return H.delta_gen(i, pair).scale(-1)
    sb = _s_inv_gen_oracle(H, ("D", i, pair, trailing[:-1]))
    sx = _s_inv_gen_oracle(H, ("X", trailing[-1]))
    return H.product(sb, sx) - H.product(sx, sb)


def _anti_hom_oracle(H, m, gen_image):
    """A(g_1 ... g_r) = A(g_r) ... A(g_1) over the whole PBW word, no memo."""
    acc = H.one()
    for g in reversed(H.mono_factors(m)):
        acc = H.product(acc, gen_image(H, g))
    return acc


@pytest.mark.parametrize("n,w,d", ANTIPODE_CUTS)
def test_antipode_memos_match_word_product(n, w, d):
    H = algebra(n)
    for m in H.basis(w, d):
        assert H.s_tilde(LinComb.unit(m)) == _anti_hom_oracle(H, m, _s_tilde_gen_oracle), m
        assert H.antipode_inv(LinComb.unit(m)) == _anti_hom_oracle(H, m, _s_inv_gen_oracle), m
    # a general element goes through the same memo, scaled and summed
    elem = LinComb({m: c for c, m in enumerate(H.basis(w, d)[:5], start=-2)})
    want = LinComb.zero()
    for m, c in elem.terms.items():
        want = want + _anti_hom_oracle(H, m, _s_tilde_gen_oracle).scale(c)
    assert H.s_tilde(elem) == want


@pytest.mark.parametrize("n,w,d", ANTIPODE_CUTS)
def test_mono_split_is_first_generator_times_pbw_suffix(n, w, d):
    H = algebra(n)
    for m in H.basis(w, d):
        if m == H.one_mono():
            continue
        head, rest = H.mono_split(m)
        g, = H.mono_factors(head)
        assert H.mono_factors(m) == [g] + H.mono_factors(rest)
        assert H.normal_form([g] + H.mono_factors(rest)) == LinComb.unit(m)


def test_weight_of_inhomogeneous_element_is_an_invariant_violation():
    with pytest.raises(InvariantViolation):
        H1.weight(X(H1) + Y(H1))
