import pytest

from klcat.branch import branching_sides, derive_kl_recursion, res_cell_class, restriction_counts
from klcat.cells import build_cell_datum
from klcat.coxeter import build_group, evaluate_word, preset_matrix
from klcat.kl import compute_kl
from klcat.laurent import LaurentPoly, ONE, V, ZERO, v_power
from klcat.verify import RecordList, _branch_word_checks

import oracles
from oracles import all_reduced_words, damaged_table, decomposition
from test_verify import DAMAGED, DAMAGED_IDS


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
    return res_cell_class(datum, tail)


def restriction_mismatches(kl, datum, tail, image):
    """(z, u, count through structure constants, coordinate of the image) wherever the two differ."""
    counts = restriction_counts(datum, tail)
    return [
        (z, u, counts[z].get(u, ZERO), image[z].get(u, ZERO))
        for z in datum.interval
        for u in tail.simple_gdims
        if counts[z].get(u, ZERO) != image[z].get(u, ZERO)
    ]


def assert_vector(vec):
    # ids ascending, no zero coordinate: the form the rendered vectors rely on
    assert list(vec) == sorted(vec) and all(vec.values()), vec


def test_restriction_single_letter(a2, kl_a2):
    # the matrix of Res on simple classes, read through the image of the
    # word's top simple class, whose decomposition row is its own basis vector
    datum, tail = branching(kl_a2, (0,))
    s, e = a2.elements[1], a2.identity
    assert list(datum.simple_gdims) == [s] and list(tail.simple_gdims) == [e]
    assert {y: decomposition(datum, s, y) for y in datum.simple_gdims} == {s: ONE}
    assert restriction_counts(datum, tail)[s] == {e: ONE}


def test_restriction_two_letters(a2, kl_a2):
    datum, tail = branching(kl_a2, (0, 1))
    st, t = evaluate_word(a2, (0, 1)), a2.elements[2]
    assert list(datum.simple_gdims) == [st] and list(tail.simple_gdims) == [t]
    assert {y: decomposition(datum, st, y) for y in datum.simple_gdims} == {st: ONE}
    assert restriction_counts(datum, tail)[st] == {t: ONE}


def test_res_cell_class_examples(a2, kl_a2):
    st, t, e = evaluate_word(a2, (0, 1)), a2.elements[2], a2.identity
    image = res_cell_class(*branching(kl_a2, (0, 1)))[st]
    assert image == {t: ONE}
    image = res_cell_class(*branching(kl_a2, (0, 1)))[t]
    assert image == {t: V}
    image = res_cell_class(*branching(kl_a2, (0,)))[e]
    assert image == {e: V}


def test_rejects_non_reduced_or_empty(kl_a2, a2):
    with pytest.raises(ValueError):
        branching(kl_a2, (0, 0))
    empty = build_cell_datum(kl_a2, ())
    with pytest.raises(ValueError):
        restriction_counts(empty, empty)
    with pytest.raises(ValueError):
        res_cell_class(empty, empty)
    # a datum paired with something other than its tail
    datum, _ = branching(kl_a2, (0, 1))
    with pytest.raises(ValueError):
        branching_sides(datum, empty)


def assert_sides_agree(sides):
    for x, lhs, rhs, got, want in sides:
        assert lhs == rhs and got == want, x


def test_branching_single_letter(a2, kl_a2):
    sides = branching_sides(*branching(kl_a2, (0,)))
    assert_sides_agree(sides)
    chars = {a2.names[x]: lhs for x, lhs, _, _, _ in sides}
    assert chars["e"].render() == "1*v^1"


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_branching_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        sides = branching_sides(*branching(kl, word))
        assert sides, word
        assert_sides_agree(sides)


def test_restriction_counts_examples(a2, kl_a2):
    datum, tail = branching(kl_a2, (0, 1))
    st, t = evaluate_word(a2, (0, 1)), a2.elements[2]
    assert restriction_counts(datum, tail)[st][t].render() == "1*v^0"
    assert not restriction_mismatches(kl_a2, datum, tail, images(kl_a2, datum, tail))
    datum, tail = branching(kl_a2, (0,))
    e = a2.identity
    assert restriction_counts(datum, tail)[e][e].render() == "1*v^1"
    assert not restriction_mismatches(kl_a2, datum, tail, images(kl_a2, datum, tail))


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 7)])
def test_restriction_counts_exhaustive(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        datum, tail = branching(kl, word)
        assert not restriction_mismatches(kl, datum, tail, images(kl, datum, tail)), word


def test_res_is_linear_on_cell_vectors(a3, kl_a3):
    # pushing the decomposition vector through the matrix of Res must agree
    # with the direct image of the cell class
    from klcat.coxeter import bruhat_interval

    for word in [(1, 0, 2, 1), (0, 1, 0), (0, 1, 2), (2, 1, 0)]:
        datum, tail = branching(kl_a3, word)
        counts = restriction_counts(datum, tail)
        image = res_cell_class(datum, tail)
        w = evaluate_word(a3, word)
        for x in bruhat_interval(a3, w):
            vector = {y: kl_a3.kl_poly(x, y) for y in datum.simple_gdims if kl_a3.kl_poly(x, y)}
            assert {y: d for y in datum.interval if (d := decomposition(datum, x, y))} == vector
            assert counts[x] == image[x]


def test_derive_recursion_examples(a2, a3, kl_a2, kl_a3):
    x = a3.elements[2]
    datum, tail = branching(kl_a3, (1, 0, 2, 1))
    lhs, rhs, alt = derive_kl_recursion(datum, images(kl_a3, datum, tail))[x]
    assert lhs == rhs == alt == LaurentPoly({1: 1, 3: 1})
    datum, tail = branching(kl_a2, (0, 1, 0))
    derived = derive_kl_recursion(datum, images(kl_a2, datum, tail))
    lhs, rhs, alt = derived[a2.identity]
    assert lhs == rhs == alt == v_power(3)
    lhs, rhs, alt = derived[evaluate_word(a2, (0, 1, 0))]
    assert lhs == rhs == alt == ONE


@pytest.mark.parametrize("name", ["A2", "A3"] + [f"I2({m})" for m in range(3, 9)])
def test_derive_recursion_exhaustive(name):
    from klcat.coxeter import bruhat_interval

    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for word in all_words(table):
        datum, tail = branching(kl, word)
        derived = derive_kl_recursion(datum, images(kl, datum, tail))
        assert set(derived) == set(bruhat_interval(table, evaluate_word(table, word)))
        for x, (lhs, rhs, alt) in derived.items():
            assert lhs == rhs == alt, (word, x, lhs.render(), rhs.render(), alt.render())


@pytest.mark.parametrize(
    "name, damage",
    [(name, None) for name in ("A3", "I2(7)", "triangle4-0-3")] + [(group, rest) for group, *rest in DAMAGED],
    ids=["A3", "I2(7)", "triangle4-0-3", *DAMAGED_IDS],
)
def test_branch_pieces_match_per_word_oracles(ladder, name, damage):
    # restricted cell classes and derived recursions against the versions
    # that rebuild every ingredient from the word alone, one x at a time: the
    # full rungs for the finite groups, length 5 for the truncated one, and
    # every damaged table of the word-suite oracle tests
    table, kl = ladder(name)
    if table.partial:
        kl = compute_kl(table, min(5, table.complete_length))
    if damage is not None:
        wword, xword, change = damage
        kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    for word in all_words(table, kl.complete_up_to):
        datum, tail = branching(kl, word)
        image = images(kl, datum, tail)
        assert tuple(image) == datum.interval, word
        counts = restriction_counts(datum, tail)
        derived = derive_kl_recursion(datum, image)
        for x in datum.interval:
            assert_vector(image[x])
            assert_vector(counts[x])
            assert image[x] == oracles.res_cell_class(kl, word, x), (word, x)
            assert derived[x][:2] == oracles.derive_kl_recursion(kl, word, x), (word, x)
            assert derived[x][2] == oracles.correction_index_alt(kl, word, x), (word, x)


def branch_records(kl, datum, tail, image):
    records = RecordList()
    _branch_word_checks(datum, tail, image, records)
    return records.records


def test_failing_records_render_both_sides(a3, kl_a3):
    # a perturbed word character and a perturbed image show up as FAIL
    # records whose lhs is the perturbed side, rendered in full
    import dataclasses

    datum, tail = branching(kl_a3, (1, 0, 2, 1))
    x = a3.elements[2]
    bad = dataclasses.replace(datum, cell_chars={**datum.cell_chars, x: datum.cell_chars[x] + V})
    failed = [r for r in branch_records(kl_a3, bad, tail, images(kl_a3, datum, tail)) if not r["pass"]]
    assert [(r["identity"], r["x"]) for r in failed] == [("branching_characters", "s2")]
    assert failed[0]["lhs"] == "2*v^1+1*v^3" and failed[0]["rhs"] == "1*v^1+1*v^3"
    assert list(failed[0]) == ["identity", "word", "x", "lhs", "rhs", "pass"]
    image = images(kl_a3, datum, tail)
    u = max(tail.simple_gdims)  # the largest id, so the ids stay ascending
    image[x] = {**image[x], u: image[x].get(u, ZERO) + V}
    failed = [r for r in branch_records(kl_a3, datum, tail, image) if not r["pass"]]
    assert [(r["identity"], r["x"], r.get("u")) for r in failed] == [
        ("restriction_counts", "s2", a3.names[u]),
        ("res_linear_map", "s2", None),
    ]
    assert list(failed[0]) == ["identity", "word", "x", "u", "lhs", "rhs", "pass"]
    assert failed[0]["rhs"] == image[x][u].render() != failed[0]["lhs"]
