import itertools

import pytest

from klcat.coxeter import (
    CoxeterMatrix,
    IncompleteTableError,
    below_with_descent,
    bruhat_interval,
    build_group,
    descents,
    evaluate_word,
    is_reduced,
    mult_gen,
    parse_word,
    preset_matrix,
    word_name,
)

from oracles import (
    LADDER,
    SymmetricGroupModel,
    all_reduced_words,
    braid_closure,
    braid_saturation_tables,
    bruhat_leq,
    bruhat_leq_subword_oracle,
    brute_force_reduced_words,
    normal_form,
    perm_left_mult,
    perm_right_mult,
)

INFINITE_DIHEDRAL = CoxeterMatrix.from_rows([[1, 0], [0, 1]])
H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
D4 = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
AFFINE_A2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
F4 = [[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]]
H4 = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[2, 3], [3, 1]])  # bad diagonal
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 1], [1, 1]])  # off-diagonal below 2
    with pytest.raises(ValueError):
        CoxeterMatrix.from_json_obj({"rank": 3, "m": [[1, 3], [3, 1]]})


def test_matrix_json_round_trip():
    m = preset_matrix("B3")
    assert CoxeterMatrix.from_json_obj(m.to_json_obj()) == m


def test_preset_errors():
    for bad in ("Z9", "I2(1)", "B1", "A0", "", "A\u0663", "A03", "I2(\u0663)", "I2( 3)", "I2(+3)"):
        with pytest.raises(ValueError):
            preset_matrix(bad)


def test_build_group_orders(a2, a3, i2):
    assert a2.order == 6 and not a2.partial
    assert a3.order == 24 and a3.complete_length == 6
    assert i2(4).order == 8 and i2(4).complete_length == 4
    for m in range(2, 9):
        assert i2(m).order == 2 * m


def test_build_group_rejects_zero_cap():
    with pytest.raises(ValueError):
        build_group(preset_matrix("A2"), 0)


def test_partial_table_truncates_by_length():
    t = build_group(INFINITE_DIHEDRAL, 50)
    assert t.partial
    assert t.order == 49  # 1 + 2*24 elements through length 24
    assert t.complete_length == 24
    assert t.counts_by_length() == [1] + [2] * 24
    boundary = [w for w in t.elements if t.length[w] == 24][0]
    ups = [s for s in range(2) if s not in descents(t, boundary, "right")]
    with pytest.raises(IncompleteTableError):
        mult_gen(t, boundary, ups[0], "right")


def test_mult_gen_examples(a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    assert mult_gen(a2, e, 0, "left") == s
    assert mult_gen(a2, s, 0, "left") == e
    st = mult_gen(a2, t, 0, "left")
    assert a2.words[st] == (0, 1)
    sts = mult_gen(a2, st, 0, "right")
    assert a2.length[sts] == 3 and a2.words[sts] == (0, 1, 0)


def test_length_changes_by_one_everywhere(a3):
    for w in a3.elements:
        for s in range(a3.rank):
            for side in ("left", "right"):
                assert abs(a3.length[mult_gen(a3, w, s, side)] - a3.length[w]) == 1


def test_evaluate_examples(a2):
    assert evaluate_word(a2, ()) == a2.identity
    assert evaluate_word(a2, (0, 0)) == a2.identity
    assert a2.length[evaluate_word(a2, (0, 1, 0))] == 3


def test_is_reduced_examples(a2):
    assert is_reduced(a2, (0, 1, 0))
    assert not is_reduced(a2, (0, 0))
    assert is_reduced(a2, ())


def test_descents_examples(a2):
    assert descents(a2, a2.identity, "left") == ()
    sts = evaluate_word(a2, (0, 1, 0))
    assert descents(a2, sts, "left") == (0, 1)
    st = evaluate_word(a2, (0, 1))
    assert descents(a2, st, "left") == (0,)
    assert descents(a2, st, "right") == (1,)


def test_bruhat_examples(a2):
    s, t = a2.elements[1], a2.elements[2]
    ts = evaluate_word(a2, (1, 0))
    st = evaluate_word(a2, (0, 1))
    assert bruhat_leq(a2, s, ts)
    assert not bruhat_leq(a2, st, ts)
    for w in a2.elements:
        assert bruhat_leq(a2, a2.identity, w)
        assert bruhat_leq(a2, w, w)


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 9)])
def test_bruhat_agrees_with_subword_oracle(name):
    t = build_group(preset_matrix(name), 1000)
    for x in t.elements:
        for w in t.elements:
            assert bruhat_leq(t, x, w) == bruhat_leq_subword_oracle(t, x, w), (x, w)


def test_bruhat_is_partial_order(a3):
    els = a3.elements
    for x in els:
        for w in els:
            if bruhat_leq(a3, x, w) and bruhat_leq(a3, w, x):
                assert x == w
    import random

    rng = random.Random(7)
    for _ in range(3000):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        if bruhat_leq(a3, x, y) and bruhat_leq(a3, y, z):
            assert bruhat_leq(a3, x, z)


def test_bruhat_interval_examples(a2):
    assert bruhat_interval(a2, a2.identity) == (a2.identity,)
    st = evaluate_word(a2, (0, 1))
    assert [a2.names[x] for x in bruhat_interval(a2, st)] == ["e", "s1", "s2", "s1.s2"]
    sts = evaluate_word(a2, (0, 1, 0))
    assert len(bruhat_interval(a2, sts)) == 6


@pytest.mark.parametrize("name", LADDER)
def test_bruhat_interval_is_the_lower_set(name):
    rows, cap = LADDER[name]
    t = build_group(CoxeterMatrix.from_rows(rows), cap)
    for w in t.elements:
        interval = bruhat_interval(t, w)
        assert interval == tuple(x for x in t.elements if bruhat_leq(t, x, w))
        assert bruhat_interval(t, w) is interval  # the one memoized tuple, on every call


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(7)", "triangle4-0-3"])
def test_below_with_descent_is_its_definition(name):
    # {z : z < u, l(sz) < l(z)} in id order, for every (s, u)
    rows, cap = LADDER[name]
    t = build_group(CoxeterMatrix.from_rows(rows), cap)
    for u in t.elements:
        below = [z for z in t.elements if z != u and bruhat_leq(t, z, u)]
        for s in range(t.rank):
            want = [z for z in below if t.length[mult_gen(t, z, s, "left")] < t.length[z]]
            assert below_with_descent(t, s, u) == want


def test_all_reduced_words_examples(a2, a3):
    assert all_reduced_words(a2, a2.identity) == frozenset({()})
    sts = evaluate_word(a2, (0, 1, 0))
    assert all_reduced_words(a2, sts) == frozenset({(0, 1, 0), (1, 0, 1)})
    w0 = [w for w in a3.elements if a3.length[w] == 6][0]
    assert len(all_reduced_words(a3, w0)) == 16


@pytest.mark.parametrize("name", ["A3", "I2(6)"])
def test_reduced_words_match_brute_force(name):
    t = build_group(preset_matrix(name), 1000)
    for w in t.elements:
        assert all_reduced_words(t, w) == frozenset(brute_force_reduced_words(t, w))


def test_reduced_words_are_braid_closure(a3):
    for w in a3.elements:
        assert all_reduced_words(a3, w) == braid_closure(a3.matrix, a3.words[w])


def test_deep_truncated_table_needs_no_recursion():
    # length 1200 is far beyond the default recursion limit
    t = build_group(INFINITE_DIHEDRAL, 2401)
    w = t.elements[-1]
    assert t.partial and t.length[w] == 1200
    assert all(bruhat_leq(t, x, w) for x in t.elements[:3])  # e, s1, s2
    assert bruhat_interval(t, w) == (*t.elements[:-2], w)  # every shorter element, and w
    assert all_reduced_words(t, w) == frozenset({t.words[w]})


ORACLE_CASES = (
    [(name, preset_matrix(name), 1000) for name in ("A3", "B3", "A4")]
    + [("H3", CoxeterMatrix.from_rows(H3), 1000), ("D4", CoxeterMatrix.from_rows(D4), 1000)]
    + [(f"I2({m})", preset_matrix(f"I2({m})"), 1000) for m in range(2, 10)]
    + [("I2(inf)", INFINITE_DIHEDRAL, 50), ("affineA2", CoxeterMatrix.from_rows(AFFINE_A2), 300)]
    + [("A1", preset_matrix("A1"), cap) for cap in (1, 10)]
    + [("A3", preset_matrix("A3"), 5)]
    + [
        (f"triangle{a}-{b}-{c}", CoxeterMatrix.from_rows([[1, a, b], [a, 1, c], [b, c, 1]]), 300)
        for a, b, c in itertools.combinations_with_replacement((3, 4, 5, 6, 0), 3)
    ]
)


@pytest.mark.parametrize(
    "matrix, cap", [pytest.param(m, cap, id=f"{name}-cap{cap}") for name, m, cap in ORACLE_CASES]
)
def test_build_matches_braid_saturation(matrix, cap):
    t = build_group(matrix, cap)
    words, right, left, partial = braid_saturation_tables(matrix, cap)
    assert t.words == words
    assert t._right == right and t._left == left
    assert t.partial == partial and t.complete_length == len(words[-1])
    for w, word in enumerate(words):
        for side, table in (("right", right), ("left", left)):
            down = tuple(s for s, j in enumerate(table[w]) if j is not None and len(words[j]) < len(word))
            assert descents(t, w, side) == down


def q_integer_product(degrees) -> list[int]:
    """Coefficients of the product of [d]_q = 1 + q + ... + q^(d-1)."""
    coeffs = [1]
    for d in degrees:
        product = [0] * (len(coeffs) + d - 1)
        for n, c in enumerate(coeffs):
            for i in range(d):
                product[n + i] += c
        coeffs = product
    return coeffs


@pytest.mark.parametrize(
    "matrix, cap, degrees",
    [
        (preset_matrix("A5"), 1000, range(2, 7)),
        (preset_matrix("A6"), 10000, range(2, 8)),
        (preset_matrix("B5"), 10000, (2, 4, 6, 8, 10)),
        (CoxeterMatrix.from_rows(F4), 10000, (2, 6, 8, 12)),
        (CoxeterMatrix.from_rows(H4), 20000, (2, 12, 20, 30)),
    ],
    ids=["A5", "A6", "B5", "F4", "H4"],
)
def test_length_distribution_matches_degrees(matrix, cap, degrees):
    t = build_group(matrix, cap)
    assert not t.partial
    assert t.counts_by_length() == q_integer_product(degrees)
    gens = range(t.rank)
    for w in t.elements:
        for s in gens:
            sw = mult_gen(t, w, s, "left")
            assert mult_gen(t, sw, s, "left") == w
            for u in gens:
                assert mult_gen(t, sw, u, "right") == mult_gen(t, mult_gen(t, w, u, "right"), s, "left")


def test_normal_form_detects_non_reduced(a2):
    reduced, canon = normal_form(a2.matrix, (0, 1, 0, 1))
    assert not reduced and canon == (1, 0)
    reduced, canon = normal_form(a2.matrix, (1, 0, 1))
    assert reduced and canon == (0, 1, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_matches_permutation_backend(n):
    table = build_group(preset_matrix(f"A{n - 1}"), 1000)
    model = SymmetricGroupModel(n)
    assert table.order == len(model.perms)
    assert {table.words[w] for w in table.elements} == set(model.words)
    for w in table.elements:
        p = model.words[table.words[w]]
        for i in range(n - 1):
            assert table.words[mult_gen(table, w, i, "right")] == model.canonical[perm_right_mult(p, i)]
            assert table.words[mult_gen(table, w, i, "left")] == model.canonical[perm_left_mult(p, i)]


def test_word_helpers():
    assert word_name(()) == "e"
    assert word_name((1, 0, 2)) == "s2.s1.s3"
    assert parse_word("s2,s1,s3", 3) == (1, 0, 2)
    assert parse_word("e", 3) == ()
    with pytest.raises(ValueError):
        parse_word("s4", 3)
    with pytest.raises(ValueError):
        parse_word("x1", 3)
    for bad in ("s01", "s\u0663"):  # only canonical ASCII decimals name a generator
        with pytest.raises(ValueError):
            parse_word(bad, 3)
