from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic.bicomplex import engine, gen_weight
from hopfcyclic.hopf import algebra, delta_weight
from hopfcyclic import chern
from hopfcyclic.symbols import LinComb, perm_sign, tensor, tensor_many, wedge_normalize


def test_wedge_repeated_symbol_dies():
    assert wedge_normalize(["X", "X"]).is_zero()


def test_wedge_transposition_sign():
    assert wedge_normalize(["Y", "X"]) == LinComb({("X", "Y"): -1})


def test_wedge_three_letter_sign():
    # X2 ^ X1 ^ Y  ->  -(X1 ^ X2 ^ Y) in the order X1 < X2 < Y
    got = wedge_normalize([("X", 2), ("X", 1), ("Y", 1, 1)])
    assert got == LinComb({(("X", 1), ("X", 2), ("Y", 1, 1)): -1})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=5))
def test_wedge_idempotent_on_normal_words(symbols):
    first = wedge_normalize(symbols)
    for word, c in first.terms.items():
        again = wedge_normalize(word)
        assert again == LinComb({word: 1})
        assert c in (1, -1)


def test_perm_sign():
    assert perm_sign(()) == perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == perm_sign((1, 3, 2)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert chern.perm_sign is perm_sign


def test_tensor_bilinear():
    x = LinComb.unit("x")
    y = LinComb.unit("y")
    u = LinComb.unit("u")
    v = LinComb.unit("v")
    assert tensor(LinComb.zero(), u).is_zero()
    got = tensor(x + y.scale(2), u - v)
    want = LinComb({("x", "u"): 1, ("x", "v"): -1, ("y", "u"): 2, ("y", "v"): -2})
    assert got == want


def test_tensor_associative_flattening():
    a, b, c = (LinComb.unit(k) for k in "abc")
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c)) == tensor_many([a, b, c])


def test_weights_match_spec_examples():
    H = algebra(1)
    # weight(delta_1) = 1, weight(delta_2) = 2
    assert delta_weight((1, (1, 1), ())) == 1
    assert delta_weight((1, (1, 1), (1,))) == 2
    # weight(X . Y) = 1
    assert H.weight(H.product(H.x_gen(1), H.y_gen(1, 1))) == 1
    # weight(eta1 (x) eta2 (x) X ^ Y) = 1 + 2 + 1 + 0 = 4
    eng = engine(1, 4)
    eta1, eta2 = (1, (1, 1), ()), (1, (1, 1), (1,))
    word = (((eta1,), (eta2,)), (("X", 1), ("Y", 1, 1)))
    w = sum(delta_weight(k) for fm in word[0] for k in fm) + sum(gen_weight(g) for g in word[1])
    assert w == 4
    assert word in eng.spot_basis(2, 2, 4)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(0, 8), st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5),
    st.dictionaries(st.integers(0, 8), st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5),
)
def test_lincomb_vector_axioms(d1, d2):
    a, b = LinComb(d1), LinComb(d2)
    assert a + b == b + a
    assert (a + b) - b == a
    assert a.scale(2) + a.scale(-2) == LinComb.zero()
