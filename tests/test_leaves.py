from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klcat.coxeter import (
    bruhat_interval,
    build_group,
    evaluate_word,
    mult_gen,
    preset_matrix,
)
from klcat.hecke import bott_samelson_class
from klcat.laurent import LaurentPoly, ONE, V, V_INV, ZERO, v_power
from klcat.leaves import character_map, leaf_step

import oracles
from oracles import (
    all_reduced_words,
    bruhat_leq,
    cell_character,
    enumerate_leaves,
    leafset_to_json_obj,
    reduced_words_in_order,
    split_top_generator,
)


def final_level(table, word):
    """x -> (movers, stayers): one leaf_step from the tail's right-to-left characters."""
    return leaf_step(table, oracles.character_map(table, word[1:], "rl"), word[0])


def oracle_final_level(table, word):
    """The same split, tallied over the explicit paths by their last bit."""
    acc = {}
    for (x, d, bit), n in oracles.leaf_counts(table, word).items():
        acc.setdefault(x, ({}, {}))[1 - bit][d] = n
    return {x: (LaurentPoly(movers), LaurentPoly(stayers)) for x, (movers, stayers) in acc.items()}


def all_sides(table, word):
    """x -> the (sub, quot) degree polynomials of the final-level split at x."""
    out = {}
    for x, (movers, stayers) in final_level(table, word).items():
        sx = mult_gen(table, x, word[0], "left")
        out[x] = (movers, stayers) if table.length[sx] < table.length[x] else (stayers, movers)
    return out


def sides(table, word, x):
    return all_sides(table, word).get(x, (ZERO, ZERO))


def oracle_sides(table, word):
    """The same split, tallied over the explicit paths."""
    return {
        x: tuple(oracles.degree_tally(part) for part in parts)
        for x, parts in split_top_generator(table, word).items()
    }


def leaf_total(polys):
    """Number of leaves behind some degree polynomials: every coefficient counts leaves."""
    return sum(k for c in polys for _, k in c.items())


def test_single_letter_word(a2):
    s, e = a2.elements[1], a2.identity
    assert character_map(a2, (0,)) == {e: V, s: ONE}
    assert leaf_step(a2, {e: ONE}, 0) == {s: (ONE, ZERO), e: (ZERO, V)}
    assert oracles.leaf_counts(a2, (0,)) == {(s, 0, 1): 1, (e, 1, 0): 1}
    assert [p.bits for p in enumerate_leaves(a2, (0,)).paths] == [(0,), (1,)]


def test_empty_word(a2):
    assert character_map(a2, ()) == {a2.identity: ONE}
    assert oracles.leaf_counts(a2, ()) == {(a2.identity, 0, 0): 1}
    ls = enumerate_leaves(a2, ())
    assert len(ls.paths) == 1
    assert ls.paths[0].endpoint == a2.identity and ls.paths[0].degree == 0


def test_repeated_letter_word(a2):
    # cross-checked against the standard coefficients of (C_s)^2
    s, e = a2.elements[1], a2.identity
    tally = Counter()
    for (x, d, _), n in oracles.leaf_counts(a2, (0, 0)).items():
        tally[(a2.names[x], d)] += n
    assert tally == Counter({("s1", 1): 1, ("e", 2): 1, ("s1", -1): 1, ("e", 0): 1})
    sq = bott_samelson_class(a2, (0, 0))
    chars = character_map(a2, (0, 0))
    assert chars[s] == sq[s] == LaurentPoly({1: 1, -1: 1})
    assert chars[e] == sq[e] == LaurentPoly({0: 1, 2: 1})
    # the final level: s1 is reached by moving from e and by staying at s1 (down)
    assert final_level(a2, (0, 0)) == {s: (V, V_INV), e: (ONE, v_power(2))}


def test_leaf_count_is_power_of_two(a3):
    for word in [(), (0,), (0, 1), (1, 0, 2, 1), (0, 0, 1), (2, 2, 2)]:
        assert leaf_total(character_map(a3, word).values()) == 2 ** len(word)
        if word:
            assert leaf_total(p for parts in final_level(a3, word).values() for p in parts) == 2 ** len(word)
        assert len(enumerate_leaves(a3, word).paths) == 2 ** len(word)


def test_paths_are_bit_lexicographic(a3):
    paths = enumerate_leaves(a3, (1, 0, 2, 1)).paths
    assert [p.bits for p in paths] == sorted(p.bits for p in paths)


def test_cell_character_examples(a2):
    assert cell_character(a2, (0,), a2.identity) == V
    assert cell_character(a2, (0, 0), a2.elements[1]) == LaurentPoly({1: 1, -1: 1})
    ts = evaluate_word(a2, (1, 0))
    assert cell_character(a2, (0, 1), ts) == ZERO


@pytest.mark.parametrize("name", ["A2", "A3", "I2(4)", "I2(6)"])
def test_characters_match_hecke_coefficients(name):
    table = build_group(preset_matrix(name), 1000)
    for w in table.elements:
        for word in sorted(all_reduced_words(table, w)):
            bs = bott_samelson_class(table, word)
            # the left-to-right walk, and the right-to-left one over the explicit paths
            walks = {"lr": character_map(table, word), "rl": oracles.character_map(table, word, "rl")}
            for direction, chars in walks.items():
                for x in table.elements:
                    assert chars.get(x, ZERO) == bs.get(x, ZERO), (word, x, direction)


def test_characters_match_hecke_on_non_reduced_words(a2):
    for word in [(0, 0), (0, 1, 1), (1, 1, 1), (0, 1, 0, 1)]:
        bs = bott_samelson_class(a2, word)
        for chars in (character_map(a2, word), oracles.character_map(a2, word, "rl")):
            for x in a2.elements:
                assert chars.get(x, ZERO) == bs.get(x, ZERO)


def test_support_is_the_bruhat_interval(a3):
    for w in a3.elements:
        for word in sorted(all_reduced_words(a3, w)):
            chars = character_map(a3, word)
            assert list(chars) == sorted(bruhat_interval(a3, w))
            for x, c in chars.items():
                assert bruhat_leq(a3, x, w) and c.is_nonnegative() and c


def test_direction_independence(a3):
    words = [(1, 0, 2, 1), (0, 1, 0), (0, 0, 1), (2, 1, 0, 2, 1)]
    for w in a3.elements:
        words.extend(sorted(all_reduced_words(a3, w)))
    for word in words:
        # the left-to-right walk against the right-to-left paths and their recurrence, the chain product
        chars = character_map(a3, word)
        assert chars == oracles.character_map(a3, word, "rl") == bott_samelson_class(a3, word), word


def test_split_single_letter(a2):
    s = a2.elements[1]
    assert sides(a2, (0,), s) == (ONE, ZERO)
    # up case: the stayer carries the shifted tail character; the quotient side
    # would need a tail leaf at s1, and the empty word has none
    assert sides(a2, (0,), a2.identity) == (V, ZERO)


def test_split_two_letter_word(a2):
    # leaves of (s1, s2): one lands on each interval element
    t = a2.elements[2]
    assert sides(a2, (0, 1), t) == (V, ZERO)


def test_split_partitions_everything(a3):
    for word in [(1, 0, 2, 1), (0, 1, 0), (0, 1, 2)]:
        parts = final_level(a3, word)
        chars = oracles.character_map(a3, word, "rl")
        assert set(parts) == set(chars)
        for x, (movers, stayers) in parts.items():
            assert movers + stayers == chars[x]
        assert leaf_total(p for pair in parts.values() for p in pair) == 2 ** len(word)


def test_split_rejects_empty_word(a2):
    with pytest.raises(ValueError):
        split_top_generator(a2, ())


def test_split_degree_bookkeeping_against_tail(a3):
    # sub/quot degree multisets must be the tail multisets, shifted on one side
    for w in a3.elements:
        for word in sorted(all_reduced_words(a3, w)):
            if not word:
                continue
            s = word[0]
            tail_sets = {}
            for p in enumerate_leaves(a3, word[1:]).paths:
                tail_sets.setdefault(p.endpoint, Counter())[p.degree] += 1
            for x in bruhat_interval(a3, w):
                sub, quot = sides(a3, word, x)
                sx = evaluate_word(a3, (s,) + a3.words[x])
                if a3.length[sx] < a3.length[x]:
                    want_sub = tail_sets.get(sx, Counter())
                    want_quot = Counter({d - 1: n for d, n in tail_sets.get(x, Counter()).items()})
                else:
                    want_sub = Counter({d + 1: n for d, n in tail_sets.get(x, Counter()).items()})
                    want_quot = tail_sets.get(sx, Counter())
                assert sub == LaurentPoly(want_sub)
                assert quot == LaurentPoly(want_quot)


def test_leafset_json_export(a2):
    obj = leafset_to_json_obj(a2, enumerate_leaves(a2, (0, 1)))
    assert obj["word"] == [0, 1]
    assert len(obj["paths"]) == 4
    assert obj["paths"][0]["bits"] == [0, 0]
    assert [p["endpoint"] for p in obj["paths"]] == [[], [0], [1], [0, 1]]
    assert {"bits", "endpoint", "degree"} <= set(obj["paths"][0])


@pytest.mark.parametrize("name", ["A3", "B3", "affineA2", "triangle4-0-3"])
def test_leaf_counts_match_explicit_paths(ladder, name):
    # every reduced word of length <= 10: the left-to-right walk and the final-level split
    table, _ = ladder(name)
    for word in reduced_words_in_order(table, 10):
        chars = character_map(table, word)
        want = oracles.character_map(table, word, "lr")
        assert chars == want and list(chars) == list(want), word
        if word:
            assert final_level(table, word) == oracle_final_level(table, word), word
            assert all_sides(table, word) == oracle_sides(table, word), word


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["A3", "B3", "I2(7)"]),
    word=st.lists(st.integers(min_value=0, max_value=2), max_size=9),
)
def test_leaf_counts_match_explicit_paths_on_any_word(ladder, name, word):
    table, _ = ladder(name)
    word = tuple(s for s in word if s < table.rank)
    assert character_map(table, word) == oracles.character_map(table, word, "lr")
    if word:
        assert final_level(table, word) == oracle_final_level(table, word)
