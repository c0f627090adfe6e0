import pytest
from hypothesis import given
from hypothesis import strategies as st

from klcat.laurent import LaurentPoly, ONE, V, V_INV, ZERO, v_power

sparse_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-20, max_value=20), max_size=6
).map(LaurentPoly)


def test_add_examples():
    assert V + V_INV == LaurentPoly({1: 1, -1: 1})
    assert V + LaurentPoly({1: -1}) == ZERO
    assert LaurentPoly({0: 1, 2: 1}) + LaurentPoly({2: 1}) == LaurentPoly({0: 1, 2: 2})


def test_mul_examples():
    vv = V + V_INV
    assert vv * vv == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert (V_INV - V) * V == LaurentPoly({0: 1, 2: -1})
    p = LaurentPoly({-3: 4, 5: -2})
    assert p * ONE == p


def test_bar_examples():
    assert LaurentPoly({2: 1, -1: 1}).bar() == LaurentPoly({-2: 1, 1: 1})
    assert ONE.bar() == ONE
    p = v_power(5, 3)
    assert p.bar().bar() == p


def test_coefficient_examples():
    p = LaurentPoly({3: 1, 1: 1})
    assert p.coefficient(1) == 1
    assert p.coefficient(0) == 0
    assert LaurentPoly({0: 2, 1: 1}).coefficient(0) == 2


def test_shift_examples():
    assert LaurentPoly({0: 1, 2: 1}).shift(-1) == LaurentPoly({-1: 1, 1: 1})
    assert ZERO.shift(5) == ZERO
    assert V.shift(1) == v_power(2)


def test_in_positive_part_examples():
    assert LaurentPoly({1: 1, 3: 1}).in_positive_part()
    assert not LaurentPoly({0: 1, 1: 1}).in_positive_part()
    assert ZERO.in_positive_part()


def test_zero_pruning_structural_equality():
    assert LaurentPoly({2: 0, 1: 1}) == V
    assert not LaurentPoly({4: 0})
    assert hash(LaurentPoly({1: 1, 5: 0})) == hash(V)


def test_render():
    assert (V + v_power(3)).render() == "1*v^1+1*v^3"
    assert (ONE - v_power(2)).render("q") == "1*q^0-1*q^2"
    assert ZERO.render() == "0"


def test_json_round_trip():
    p = LaurentPoly({-2: 3, 0: -1, 7: 5})
    assert LaurentPoly.from_json_obj(p.to_json_obj()) == p
    assert ZERO.to_json_obj() == {}
    assert list(p.to_json_obj()) == ["-2", "0", "7"]


@pytest.mark.parametrize(
    "obj",
    [{"2": 1.7}, {"2": 1.0}, {"2": True}, {"0_2": 1}, {" +2 ": 1}, {"+2": 1}, {"02": 1}, {"-0": 1}, {"2": 0}, {"x": 1}],
)
def test_json_decode_is_strict(obj):
    with pytest.raises(ValueError):
        LaurentPoly.from_json_obj(obj)


@given(sparse_polys)
def test_bar_is_involution(p):
    assert p.bar().bar() == p


@given(sparse_polys, sparse_polys)
def test_bar_is_ring_morphism(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


@given(sparse_polys, sparse_polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(sparse_polys, sparse_polys, sparse_polys)
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(sparse_polys, st.integers(min_value=-5, max_value=5))
def test_shift_matches_monomial_multiplication(p, k):
    assert p.shift(k) == p * v_power(k)


@given(sparse_polys, st.integers(min_value=-8, max_value=8))
def test_coefficient_reads_terms(p, k):
    assert p.coefficient(k) == dict(p.items()).get(k, 0)


@given(sparse_polys, st.integers(min_value=-5, max_value=5))
def test_trusted_constructions_match_the_pruning_constructor(p, k):
    terms = p.items()
    cases = [
        (p.shift(k), {e + k: c for e, c in terms}),
        (p.bar(), {-e: c for e, c in terms}),
        (-p, {e: -c for e, c in terms}),
        (LaurentPoly._from_pruned(dict(terms)), dict(terms)),  # the KL table's intern-miss path
    ]
    for got, coeffs in cases:
        assert got == LaurentPoly(coeffs)
        assert 0 not in got._coeffs.values()
