from collections import Counter

import pytest

from klcat.coxeter import (
    all_reduced_words,
    bruhat_interval,
    bruhat_leq,
    build_group,
    evaluate_word,
    preset_matrix,
)
from klcat.hecke import bott_samelson_class
from klcat.laurent import LaurentPoly, ONE, V, ZERO
from klcat.leaves import (
    cell_character,
    character_map,
    enumerate_leaves,
    leafset_to_json_obj,
    split_top_generator,
)


def leaf_multiset(table, word):
    return Counter((table.names[p.endpoint], p.degree) for p in enumerate_leaves(table, word).paths)


def test_single_letter_word(a2):
    ls = enumerate_leaves(a2, (0,))
    assert leaf_multiset(a2, (0,)) == Counter({("s1", 0): 1, ("e", 1): 1})
    assert [p.bits for p in ls.paths] == [(0,), (1,)]


def test_empty_word(a2):
    ls = enumerate_leaves(a2, ())
    assert len(ls.paths) == 1
    assert ls.paths[0].endpoint == a2.identity and ls.paths[0].degree == 0


def test_repeated_letter_word(a2):
    # cross-checked against the standard coefficients of (C_s)^2
    assert leaf_multiset(a2, (0, 0)) == Counter(
        {("s1", 1): 1, ("e", 2): 1, ("s1", -1): 1, ("e", 0): 1}
    )
    sq = bott_samelson_class(a2, (0, 0))
    chars = character_map(a2, (0, 0))
    assert chars[a2.elements[1]] == sq.coeff(a2.elements[1]) == LaurentPoly({1: 1, -1: 1})
    assert chars[a2.identity] == sq.coeff(a2.identity) == LaurentPoly({0: 1, 2: 1})


def test_leaf_count_is_power_of_two(a3):
    for word in [(), (0,), (0, 1), (1, 0, 2, 1), (0, 0, 1), (2, 2, 2)]:
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
            chars = character_map(table, word)
            bs = bott_samelson_class(table, word)
            for x in table.elements:
                assert chars.get(x, ZERO) == bs.coeff(x), (word, x)


def test_characters_match_hecke_on_non_reduced_words(a2):
    for word in [(0, 0), (0, 1, 1), (1, 1, 1), (0, 1, 0, 1)]:
        chars = character_map(a2, word)
        bs = bott_samelson_class(a2, word)
        for x in a2.elements:
            assert chars.get(x, ZERO) == bs.coeff(x)


def test_support_is_the_bruhat_interval(a3):
    for w in a3.elements:
        for word in sorted(all_reduced_words(a3, w)):
            chars = character_map(a3, word)
            assert set(chars) == set(bruhat_interval(a3, w))
            for x, c in chars.items():
                assert bruhat_leq(a3, x, w) and c.is_nonnegative() and c


def test_direction_independence(a3):
    words = [(1, 0, 2, 1), (0, 1, 0), (0, 0, 1), (2, 1, 0, 2, 1)]
    for w in a3.elements:
        words.extend(sorted(all_reduced_words(a3, w)))
    for word in words:
        assert character_map(a3, word, direction="lr") == character_map(a3, word)


def test_enumerate_rejects_bad_direction(a2):
    with pytest.raises(ValueError):
        enumerate_leaves(a2, (0,), direction="up")


def test_split_single_letter(a2):
    s = a2.elements[1]
    sub, quot = split_top_generator(a2, (0,)).get(s, ([], []))
    assert [(a2.names[p.endpoint], p.degree) for p in sub] == [("s1", 0)]
    assert quot == []
    sub, quot = split_top_generator(a2, (0,)).get(a2.identity, ([], []))
    # up case: the stayer carries the shifted tail character; the quotient side
    # would need a tail leaf at s1, and the empty word has none
    assert [(a2.names[p.endpoint], p.degree) for p in sub] == [("e", 1)]
    assert quot == []


def test_split_two_letter_word(a2):
    # leaves of (s1, s2): one lands on each interval element
    t = a2.elements[2]
    sub, quot = split_top_generator(a2, (0, 1)).get(t, ([], []))
    assert [(a2.names[p.endpoint], p.degree) for p in sub] == [("s2", 1)]
    assert quot == []


def test_split_partitions_everything(a3):
    for word in [(1, 0, 2, 1), (0, 1, 0), (0, 1, 2)]:
        total = 0
        seen = set()
        for x in a3.elements:
            sub, quot = split_top_generator(a3, word).get(x, ([], []))
            for p in sub + quot:
                assert p.endpoint == x
                assert p not in seen
                seen.add(p)
            total += len(sub) + len(quot)
        assert total == 2 ** len(word)


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
                sub, quot = split_top_generator(a3, word).get(x, ([], []))
                sx = evaluate_word(a3, (s,) + a3.words[x])
                if a3.length[sx] < a3.length[x]:
                    want_sub = tail_sets.get(sx, Counter())
                    want_quot = Counter({d - 1: n for d, n in tail_sets.get(x, Counter()).items()})
                else:
                    want_sub = Counter({d + 1: n for d, n in tail_sets.get(x, Counter()).items()})
                    want_quot = tail_sets.get(sx, Counter())
                assert Counter(p.degree for p in sub) == want_sub
                assert Counter(p.degree for p in quot) == want_quot


def test_leafset_json_export(a2):
    obj = leafset_to_json_obj(a2, enumerate_leaves(a2, (0, 1)))
    assert obj["word"] == [0, 1]
    assert len(obj["paths"]) == 4
    assert obj["paths"][0]["bits"] == [0, 0]
    assert [p["endpoint"] for p in obj["paths"]] == [[], [0], [1], [0, 1]]
    assert {"bits", "endpoint", "degree"} <= set(obj["paths"][0])
