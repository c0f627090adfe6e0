from dataclasses import fields

import pytest

from klcat.cells import CellDatum, build_cell_datum, decomposition_sides, verify_decomposition_identity
from klcat.coxeter import bruhat_interval, build_group, evaluate_word, preset_matrix
from klcat.hecke import bott_samelson_class
from klcat.kl import KLTable, canonical_json, compute_kl
from klcat.laurent import LaurentPoly, ONE, V, ZERO, v_power

import oracles
from oracles import (
    all_reduced_words,
    bruhat_leq,
    cell_character,
    decomposition,
    expand_in_kl_basis,
    reduced_words_in_order,
)


def test_single_letter_datum(a2, kl_a2):
    datum = build_cell_datum(kl_a2, (0,))
    s, e = a2.elements[1], a2.identity
    assert list(datum.simple_gdims) == [s]
    assert datum.simple_gdims[s] == ONE
    assert datum.cell_chars == {e: V, s: ONE}
    assert decomposition(datum, e, s) == V
    assert decomposition(datum, s, s) == ONE


def test_two_letter_datum(a2, kl_a2):
    datum = build_cell_datum(kl_a2, (0, 1))
    st = evaluate_word(a2, (0, 1))
    assert list(datum.simple_gdims) == [st]
    assert datum.simple_gdims[st] == ONE


def test_braid_word_datum_has_two_simples(a2, kl_a2):
    # (s1, s2, s1) decomposes: the top element and the bottom generator both appear
    datum = build_cell_datum(kl_a2, (0, 1, 0))
    sts = evaluate_word(a2, (0, 1, 0))
    s = a2.elements[1]
    assert list(datum.simple_gdims) == [s, sts]
    assert datum.simple_gdims[s] == ONE
    assert datum.simple_gdims[sts] == ONE


def test_a3_chain_word_is_indecomposable(a3, kl_a3):
    # expanding the fourfold product C_s2 C_s1 C_s3 C_s2 in the KL basis
    # leaves exactly the class of the product: no extra simple appears
    datum = build_cell_datum(kl_a3, (1, 0, 2, 1))
    w = evaluate_word(a3, (1, 0, 2, 1))
    assert list(datum.simple_gdims) == [w]
    assert datum.simple_gdims[w] == ONE
    x = a3.elements[2]
    assert datum.cell_chars[x] == LaurentPoly({1: 1, 3: 1})


def test_rejects_non_reduced_word(kl_a2, kl_a3):
    with pytest.raises(ValueError, match=r"word s1\.s1 is not reduced"):
        build_cell_datum(kl_a2, (0, 0))
    # the failing pair inside the word: the message still names the whole word
    with pytest.raises(ValueError, match=r"word s1\.s2\.s2 is not reduced"):
        build_cell_datum(kl_a3, (0, 1, 1))


def test_char_cell_via_hecke_examples(a2, kl_a2):
    st = evaluate_word(a2, (0, 1))
    assert bott_samelson_class(a2, (0,))[a2.identity] == V
    assert bott_samelson_class(a2, (0, 1))[st] == ONE
    assert bott_samelson_class(a2, (0, 1))[a2.identity] == v_power(2)
    assert build_cell_datum(kl_a2, (0, 1)).cell_chars == bott_samelson_class(a2, (0, 1))


def test_decomposition_identity_single_letter(kl_a2, a2):
    report = verify_decomposition_identity(build_cell_datum(kl_a2, (0,)))
    assert report["pass"]
    by_x = {c["x"]: c for c in report["checks"]}
    assert by_x["e"]["lhs"] == {"1": 1}


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_decomposition_identity_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for w in table.elements:
        for word in sorted(all_reduced_words(table, w)):
            datum = build_cell_datum(kl, word)
            assert verify_decomposition_identity(datum)["pass"], word
            # leaf characters agree with the Hecke-side characters
            for x in datum.interval:
                assert datum.cell_chars[x] == bott_samelson_class(table, word).get(x, ZERO)
            # the top element always carries a one-dimensional simple
            assert datum.simple_gdims[w] == ONE
            for y, g in datum.simple_gdims.items():
                assert g.bar() == g and g.is_nonnegative()


def test_triangularity(a3, kl_a3):
    datum = build_cell_datum(kl_a3, (0, 1, 0, 2))
    for y in datum.simple_gdims:
        assert decomposition(datum, y, y) == ONE
        for x in datum.interval:
            if decomposition(datum, x, y):
                assert bruhat_leq(a3, x, y)


def test_cell_chars_match_leaf_module(a2, kl_a2):
    datum = build_cell_datum(kl_a2, (0, 1, 0))
    for x in datum.interval:
        assert datum.cell_chars[x] == cell_character(a2, (0, 1, 0), x)


@pytest.mark.parametrize("name", ["A3", "B3", "I2(7)", "triangle4-0-3"])
def test_datum_from_tail_equals_datum_from_scratch(ladder, name):
    # the one-step characters and the O(1) reducedness test agree with a
    # datum assembled from scratch by other code, on every reduced word, tails
    # from the previous layer, and with the build from no tail
    table, kl = ladder(name)
    built = {}
    for word in reduced_words_in_order(table, kl.complete_up_to):
        datum = built[word] = build_cell_datum(kl, word, built.get(word[1:]) if word else None)
        w = evaluate_word(table, word)
        assert table.length[w] == len(word), word
        chars = bott_samelson_class(table, word)
        scratch = CellDatum(kl, word, w, bruhat_interval(table, w), chars, expand_in_kl_basis(kl, chars))
        assert datum == scratch, word
        assert build_cell_datum(kl, word) == scratch, word
        # the table's memoized interval itself, not a copy per datum
        assert datum.interval is bruhat_interval(table, datum.top), word
        # the right-to-left leaf walk's characters, over the explicit paths
        assert datum.cell_chars == oracles.character_map(table, word, "rl")


def test_datum_without_tail_expands_once(ladder, monkeypatch):
    # a length-16 B4 word: only the whole word's characters are expanded in the KL basis
    _, kl = ladder("B4")
    word = (0, 1, 0, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 3, 2, 3)
    stepped = None
    for k in range(len(word) - 1, -1, -1):
        stepped = build_cell_datum(kl, word[k:], stepped)
    expand = KLTable.expand_in_kl_basis
    calls = []

    def counted(self, h):
        calls.append(h)
        return expand(self, h)

    monkeypatch.setattr(KLTable, "expand_in_kl_basis", counted)
    datum = build_cell_datum(kl, word)
    assert len(calls) == 1
    assert datum == stepped
    report = canonical_json(verify_decomposition_identity(datum))
    assert report == canonical_json(verify_decomposition_identity(stepped))


def test_datum_keeps_no_leaf_count_chain_or_decomposition_dict(kl_a3):
    # the characters are the only per-word dict of coordinates: d_{x,y} is a
    # view of the KL table, and the final-level split lives only while a word is checked
    datum = build_cell_datum(kl_a3, (0, 1, 0, 2))
    assert [f.name for f in fields(datum)] == [
        "kl", "word", "top", "interval", "cell_chars", "simple_gdims"
    ]
    for f in fields(datum):
        value = getattr(datum, f.name)
        if isinstance(value, dict):
            assert all(isinstance(k, int) and isinstance(c, LaurentPoly) for k, c in value.items()), f.name
    y = datum.top
    assert decomposition(datum, datum.interval[0], y) is kl_a3.kl_poly(datum.interval[0], y)


def test_datum_from_tail_rejects_bad_extensions(a2, kl_a2):
    tail = build_cell_datum(kl_a2, (0,))
    with pytest.raises(ValueError, match="not reduced"):
        build_cell_datum(kl_a2, (0, 0), tail)
    with pytest.raises(ValueError, match="not the tail"):
        build_cell_datum(kl_a2, (0, 1), tail)
    with pytest.raises(ValueError, match="not the tail"):
        build_cell_datum(kl_a2, (), tail)


def test_decomposition_sides_match_the_report(a3, kl_a3):
    datum = build_cell_datum(kl_a3, (0, 1, 0, 2))
    report = verify_decomposition_identity(datum)
    sides = decomposition_sides(datum)
    assert [check["x"] for check in report["checks"]] == [a3.names[x] for x, _, _ in sides]
    for check, (_, lhs, rhs) in zip(report["checks"], sides):
        assert check["lhs"] == lhs.to_json_obj() and check["rhs"] == rhs.to_json_obj()
        assert check["pass"] and lhs == rhs
