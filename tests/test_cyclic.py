from fractions import Fraction

import pytest

from hopfcyclic.cyclic import (
    StandardModule,
    check_cocyclic_identities,
    check_mixed_complex,
    gv_cocycle_report,
    standard_h1_module,
)
from hopfcyclic.errors import InvalidConfig
from hopfcyclic.symbols import LinComb


MOD = standard_h1_module(3, 2)
H = MOD.H


def d1m():
    (m,), = [tuple(H.delta_gen(1, (1, 1)).terms)]
    return m


def test_face_zero_prepends_unit():
    e = LinComb.unit((d1m(),))
    got = MOD.face(0, e, 1)
    assert got == LinComb.unit((H.one_mono(), d1m()))


def test_tau1_on_delta1():
    assert MOD.tau_word((d1m(),)) == LinComb.unit((d1m(),), -1)


def test_b_delta1_vanishes():
    e = LinComb.unit((d1m(),))
    assert MOD.b(e, 1).is_zero()


def test_B_degree0_is_zero():
    assert MOD.B(LinComb.unit(()), 0).is_zero()


def test_tau_squared_identity_weight1():
    for w in MOD.words(1, 1):
        e = LinComb.unit(w)
        assert MOD.tau(MOD.tau(e)) == e


def test_tau_cubed_identity_degree2():
    for w in MOD.words(2):
        if MOD.word_weight(w) <= 2:
            e = LinComb.unit(w)
            assert MOD.tau(MOD.tau(MOD.tau(e))) == e


def test_cocyclic_identities_small():
    rep = check_cocyclic_identities(StandardModule(1, 2, 2), 2)
    assert rep["passed"], rep


def test_mixed_complex_small():
    rep = check_mixed_complex(StandardModule(1, 2, 2), 2)
    assert rep["passed"], rep


def test_gv_cocycle():
    rep = gv_cocycle_report(MOD)
    assert rep["passed"], rep


def test_operator_matrix_b_squared_blockwise():
    mod = StandardModule(1, 3, 2)
    b1, excl1 = mod.operator_matrix("b", 1, 2)
    b2, excl2 = mod.operator_matrix("b", 2, 2)
    # on non-excluded columns the matrices compose to zero
    prod = b2.matmul(b1)
    src = mod.words(1, 2)
    for j, w in enumerate(src):
        if w in excl1:
            continue
        col = prod.column(j)
        assert col == {}


def test_b_B_matrices_mixed_complex():
    from hopfcyclic.cyclic import b_B_matrices

    mod = StandardModule(1, 3, 2)
    mc = b_B_matrices(mod, 3, 2)
    assert mc.relations_hold()
    # B on degree 0 is the zero map
    assert mc.B[0].is_zero()


def test_b_and_B_preserve_weight():
    mod = StandardModule(1, 3, 2)
    for m in (1, 2):
        for w in mod.words(m):
            wt = mod.word_weight(w)
            e = LinComb.unit(w)
            for out in (mod.b(e, m), mod.B(e, m), mod.tau(e)):
                for ww in out.terms:
                    assert mod.word_weight(ww) == wt


def _tau_full_expansion(mod, w):
    """tau(w) as Delta^{m-1}(S~(h^1)) expanded into full m-tuples, then
    multiplied slot by slot against (h^2, ..., h^m, 1)."""
    H = mod.H
    rest = w[1:] + (H.one_mono(),)
    out = LinComb.zero()
    for s, cs in H.s_tilde(LinComb.unit(w[0])).terms.items():
        cop = LinComb.unit((s,))
        for slot in range(len(w) - 1):
            cop = H.apply_slot(cop, slot, H.coproduct_mono)
        for tup, c in cop.terms.items():
            term = LinComb.unit((), cs * c)
            for a, b in zip(tup, rest):
                term = H._t_extend(term, H.mono_mul(a, b))
            out = out + term
    return out


def test_tau_slot_recursion_matches_full_expansion():
    words = [w for m in (1, 2, 3) for w in MOD.words(m)]
    moved = 0
    for w in words:
        got = MOD.tau_word(w)
        assert got == _tau_full_expansion(MOD, w), w
        moved += got != LinComb.unit(w)
    assert (len(words), moved) == (1105, 1100)


def test_operator_matrix_unknown_operator_is_invalid_config():
    with pytest.raises(InvalidConfig):
        MOD.operator_matrix("lambda", 1, 1)
