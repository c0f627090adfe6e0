import pytest

from klcat.branch import (
    GrothendieckVector,
    build_res,
    derive_kl_recursion,
    res_cell_class,
    verify_branching,
    verify_restriction_counts,
)
from klcat.coxeter import all_reduced_words, build_group, evaluate_word, preset_matrix
from klcat.kl import compute_kl
from klcat.laurent import LaurentPoly, ONE, V, v_power


def all_words(table, max_len=None):
    for w in table.elements:
        if max_len is not None and table.length[w] > max_len:
            continue
        for word in sorted(all_reduced_words(table, w)):
            if word:
                yield word


def test_build_res_single_letter(a2, kl_a2):
    res = build_res(kl_a2, (0,))
    s, e = a2.elements[1], a2.identity
    assert res.domain == [s] and res.codomain == [e]
    assert res.columns[s].coord(e) == ONE


def test_build_res_two_letters(a2, kl_a2):
    res = build_res(kl_a2, (0, 1))
    st, t = evaluate_word(a2, (0, 1)), a2.elements[2]
    assert res.domain == [st] and res.codomain == [t]
    assert res.columns[st].coord(t) == ONE


def test_res_cell_class_examples(a2, kl_a2):
    st, t, e = evaluate_word(a2, (0, 1)), a2.elements[2], a2.identity
    image = res_cell_class(kl_a2, (0, 1), st)
    assert image.coords == {t: ONE}
    image = res_cell_class(kl_a2, (0, 1), t)
    assert image.coords == {t: V}
    image = res_cell_class(kl_a2, (0,), e)
    assert image.coords == {e: V}


def test_rejects_non_reduced_or_empty(kl_a2, a2):
    with pytest.raises(ValueError):
        build_res(kl_a2, (0, 0))
    with pytest.raises(ValueError):
        build_res(kl_a2, ())
    with pytest.raises(ValueError):
        res_cell_class(kl_a2, (), a2.identity)


def test_vector_rejects_coordinates_outside_basis(a2):
    s, e = a2.elements[1], a2.identity
    with pytest.raises(ValueError):
        GrothendieckVector.make((e,), {s: ONE})


def test_branching_single_letter(a2, kl_a2):
    records = verify_branching(kl_a2, (0,))
    assert all(r["pass"] for r in records)
    chars = {(r["x"]): r for r in records if r["identity"] == "branching_characters"}
    assert chars["e"]["lhs"] == "1*v^1"


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_branching_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        records = verify_branching(kl, word)
        assert records and all(r["pass"] for r in records), word


def test_restriction_counts_examples(a2, kl_a2):
    records = verify_restriction_counts(kl_a2, (0, 1))
    by_key = {(r["x"], r["u"]): r for r in records}
    assert by_key[("s1.s2", "s2")]["lhs"] == "1*v^0"
    assert by_key[("s1.s2", "s2")]["pass"]
    records = verify_restriction_counts(kl_a2, (0,))
    by_key = {(r["x"], r["u"]): r for r in records}
    assert by_key[("e", "e")]["lhs"] == "1*v^1"
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_restriction_counts_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        assert all(r["pass"] for r in verify_restriction_counts(kl, word)), word


def test_res_is_linear_on_cell_vectors(a3, kl_a3):
    # pushing the decomposition vector through the matrix of Res must agree
    # with the direct image of the cell class
    from klcat.coxeter import bruhat_interval

    for word in [(1, 0, 2, 1), (0, 1, 0), (0, 1, 2), (2, 1, 0)]:
        res = build_res(kl_a3, word)
        w = evaluate_word(a3, word)
        for x in bruhat_interval(a3, w):
            vector = {y: kl_a3.kl_poly(x, y) for y in res.domain if kl_a3.kl_poly(x, y)}
            assert res.apply(vector) == res_cell_class(kl_a3, word, x)


def test_derive_recursion_examples(a2, a3, kl_a2, kl_a3):
    x = a3.elements[2]
    lhs, rhs, ok = derive_kl_recursion(kl_a3, (1, 0, 2, 1), x)
    assert ok and lhs == rhs == LaurentPoly({1: 1, 3: 1})
    lhs, rhs, ok = derive_kl_recursion(kl_a2, (0, 1, 0), a2.identity)
    assert ok and lhs == v_power(3)
    w = evaluate_word(a2, (0, 1, 0))
    lhs, rhs, ok = derive_kl_recursion(kl_a2, (0, 1, 0), w)
    assert ok and lhs == ONE


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 9)])
def test_derive_recursion_exhaustive(name):
    from klcat.coxeter import bruhat_interval

    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        w = evaluate_word(table, word)
        for x in bruhat_interval(table, w):
            lhs, rhs, ok = derive_kl_recursion(kl, word, x)
            assert ok, (word, x, lhs.render(), rhs.render())
