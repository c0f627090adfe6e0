import pytest

from klcat.branch import (
    GrothendieckVector,
    build_res,
    derive_kl_recursion,
    res_cell_class,
    restriction_counts,
    verify_branching,
    verify_restriction_counts,
)
from klcat.cells import build_cell_datum
from klcat.coxeter import all_reduced_words, build_group, evaluate_word, preset_matrix
from klcat.kl import compute_kl
from klcat.laurent import LaurentPoly, ONE, V, v_power

import oracles


def all_words(table, max_len=None):
    for w in table.elements:
        if max_len is not None and table.length[w] > max_len:
            continue
        for word in sorted(all_reduced_words(table, w)):
            if word:
                yield word


def branching(kl, word):
    """The cell data of ``word`` and of its tail."""
    tail = build_cell_datum(kl, word[1:])
    return build_cell_datum(kl, word, tail), tail


def images(kl, datum, tail):
    return {x: res_cell_class(datum, tail, x) for x in datum.interval}


def restriction_records(kl, datum, tail, image):
    counts = restriction_counts(build_res(kl, datum, tail), datum)
    return verify_restriction_counts(datum, tail, counts, image)


def test_build_res_single_letter(a2, kl_a2):
    res = build_res(kl_a2, *branching(kl_a2, (0,)))
    s, e = a2.elements[1], a2.identity
    assert res.domain == [s] and res.codomain == [e]
    assert res.columns[s].coord(e) == ONE


def test_build_res_two_letters(a2, kl_a2):
    res = build_res(kl_a2, *branching(kl_a2, (0, 1)))
    st, t = evaluate_word(a2, (0, 1)), a2.elements[2]
    assert res.domain == [st] and res.codomain == [t]
    assert res.columns[st].coord(t) == ONE


def test_res_cell_class_examples(a2, kl_a2):
    st, t, e = evaluate_word(a2, (0, 1)), a2.elements[2], a2.identity
    image = res_cell_class(*branching(kl_a2, (0, 1)), st)
    assert image.coords == {t: ONE}
    image = res_cell_class(*branching(kl_a2, (0, 1)), t)
    assert image.coords == {t: V}
    image = res_cell_class(*branching(kl_a2, (0,)), e)
    assert image.coords == {e: V}


def test_rejects_non_reduced_or_empty(kl_a2, a2):
    with pytest.raises(ValueError):
        branching(kl_a2, (0, 0))
    empty = build_cell_datum(kl_a2, ())
    with pytest.raises(ValueError):
        build_res(kl_a2, empty, empty)
    with pytest.raises(ValueError):
        res_cell_class(empty, empty, a2.identity)
    # a datum paired with something other than its tail
    datum, _ = branching(kl_a2, (0, 1))
    with pytest.raises(ValueError):
        verify_branching(datum, empty)


def test_vector_rejects_coordinates_outside_basis(a2):
    s, e = a2.elements[1], a2.identity
    with pytest.raises(ValueError):
        GrothendieckVector.make((e,), {s: ONE})


def test_branching_single_letter(a2, kl_a2):
    records = verify_branching(*branching(kl_a2, (0,)))
    assert all(r["pass"] for r in records)
    chars = {(r["x"]): r for r in records if r["identity"] == "branching_characters"}
    assert chars["e"]["lhs"] == "1*v^1"


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_branching_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        records = verify_branching(*branching(kl, word))
        assert records and all(r["pass"] for r in records), word


def test_restriction_counts_examples(a2, kl_a2):
    datum, tail = branching(kl_a2, (0, 1))
    records = restriction_records(kl_a2, datum, tail, images(kl_a2, datum, tail))
    by_key = {(r["x"], r["u"]): r for r in records}
    assert by_key[("s1.s2", "s2")]["lhs"] == "1*v^0"
    assert by_key[("s1.s2", "s2")]["pass"]
    datum, tail = branching(kl_a2, (0,))
    records = restriction_records(kl_a2, datum, tail, images(kl_a2, datum, tail))
    by_key = {(r["x"], r["u"]): r for r in records}
    assert by_key[("e", "e")]["lhs"] == "1*v^1"
    assert all(r["pass"] for r in records)


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_restriction_counts_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        datum, tail = branching(kl, word)
        records = restriction_records(kl, datum, tail, images(kl, datum, tail))
        assert all(r["pass"] for r in records), word


def test_res_is_linear_on_cell_vectors(a3, kl_a3):
    # pushing the decomposition vector through the matrix of Res must agree
    # with the direct image of the cell class
    from klcat.coxeter import bruhat_interval

    for word in [(1, 0, 2, 1), (0, 1, 0), (0, 1, 2), (2, 1, 0)]:
        datum, tail = branching(kl_a3, word)
        res = build_res(kl_a3, datum, tail)
        w = evaluate_word(a3, word)
        for x in bruhat_interval(a3, w):
            vector = {y: kl_a3.kl_poly(x, y) for y in res.domain if kl_a3.kl_poly(x, y)}
            assert res.apply(vector) == res_cell_class(datum, tail, x)


def test_derive_recursion_examples(a2, a3, kl_a2, kl_a3):
    x = a3.elements[2]
    datum, tail = branching(kl_a3, (1, 0, 2, 1))
    lhs, rhs = derive_kl_recursion(kl_a3, datum, images(kl_a3, datum, tail))[x]
    assert lhs == rhs == LaurentPoly({1: 1, 3: 1})
    datum, tail = branching(kl_a2, (0, 1, 0))
    derived = derive_kl_recursion(kl_a2, datum, images(kl_a2, datum, tail))
    lhs, rhs = derived[a2.identity]
    assert lhs == rhs == v_power(3)
    lhs, rhs = derived[evaluate_word(a2, (0, 1, 0))]
    assert lhs == rhs == ONE


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 9)])
def test_derive_recursion_exhaustive(name):
    from klcat.coxeter import bruhat_interval

    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        datum, tail = branching(kl, word)
        derived = derive_kl_recursion(kl, datum, images(kl, datum, tail))
        assert set(derived) == set(bruhat_interval(table, evaluate_word(table, word)))
        for x, (lhs, rhs) in derived.items():
            assert lhs == rhs, (word, x, lhs.render(), rhs.render())


@pytest.mark.parametrize("name", ["A3", "I2(7)"])
def test_branch_pieces_match_per_word_oracles(ladder, name):
    # restricted cell classes and derived recursions against the versions
    # that rebuild every ingredient from the word alone
    table, kl = ladder(name)
    for word in all_words(table):
        datum, tail = branching(kl, word)
        image = images(kl, datum, tail)
        derived = derive_kl_recursion(kl, datum, image)
        for x in datum.interval:
            assert image[x].coords == oracles.res_cell_class(kl, word, x), (word, x)
            assert derived[x] == oracles.derive_kl_recursion(kl, word, x), (word, x)


def test_failing_records_render_both_sides(a3, kl_a3):
    # a perturbed word character and a perturbed image show up as FAIL
    # records whose lhs is the perturbed side, rendered in full
    import dataclasses

    datum, tail = branching(kl_a3, (1, 0, 2, 1))
    x = a3.elements[2]
    bad = dataclasses.replace(datum, cell_chars={**datum.cell_chars, x: datum.cell_chars[x] + V})
    failed = [r for r in verify_branching(bad, tail) if not r["pass"]]
    assert [(r["identity"], r["x"]) for r in failed] == [("branching_characters", "s2")]
    assert failed[0]["lhs"] == "2*v^1+1*v^3" and failed[0]["rhs"] == "1*v^1+1*v^3"
    image = images(kl_a3, datum, tail)
    u = tail.simple_support[-1]
    image[x] = GrothendieckVector.make(tail.simple_support, {**image[x].coords, u: image[x].coord(u) + V})
    failed = [r for r in restriction_records(kl_a3, datum, tail, image) if not r["pass"]]
    assert [(r["x"], r["u"]) for r in failed] == [("s2", a3.names[u])]
    assert failed[0]["rhs"] == (image[x].coord(u)).render() != failed[0]["lhs"]
