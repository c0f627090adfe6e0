import io
import json
import random
from collections import Counter

import pytest

import klcat.cli
import klcat.hecke
import klcat.kl
from klcat.coxeter import (
    IncompleteTableError,
    bruhat_interval,
    build_group,
    descents,
    evaluate_word,
    mult_gen,
    preset_matrix,
)
from klcat.hecke import _to_vector, bar_invariant, bar_involution, left_mul_kl
from klcat.kl import (
    CacheMismatchError,
    canonical_json,
    classical_recursion_column,
    compute_kl,
    kl_from_json_obj,
    kl_to_csv,
    kl_to_json_obj,
    kl_to_json_text,
    recursion_column,
    to_classical,
)
from klcat.laurent import LaurentPoly, ONE, V, ZERO, v_power
from klcat.verify import FailRecords, JsonStream, RecordList, Sink, run_suite

from oracles import (
    LADDER,
    add,
    bruhat_leq,
    classical_recursion,
    compute_kl_by_subtraction,
    damaged_table,
    dihedral_kl_candidate,
    expand_in_kl_basis,
    generator_products,
    interval_kl_csv,
    kl_element_records,
    kl_suite_records,
    mu_structure_records,
    recursion_kl_poly,
    satisfies_kl_conditions,
    scale,
)
from test_verify import DAMAGED, DAMAGED_IDS, text_report


def test_first_kl_elements(a2, kl_a2):
    e, s = a2.identity, a2.elements[1]
    assert kl_a2.kl_element(e) == {e: ONE}
    assert kl_a2.kl_element(s) == {s: ONE, e: V}


def test_a2_length_two_element(a2, kl_a2):
    st = evaluate_word(a2, (0, 1))
    s, t, e = a2.elements[1], a2.elements[2], a2.identity
    assert kl_a2.kl_element(st) == {st: ONE, s: V, t: V, e: v_power(2)}


def test_a3_smallest_non_monomial(a3, kl_a3):
    w = evaluate_word(a3, (1, 0, 2, 1))
    x = a3.elements[2]
    assert a3.names[x] == "s2"
    assert kl_a3.kl_poly(x, w) == LaurentPoly({1: 1, 3: 1})
    assert to_classical(kl_a3.kl_poly(x, w), a3.length[x], a3.length[w]) == LaurentPoly({0: 1, 1: 1})


def test_kl_poly_edge_cases(a2, kl_a2):
    sts = evaluate_word(a2, (0, 1, 0))
    st = evaluate_word(a2, (0, 1))
    ts = evaluate_word(a2, (1, 0))
    assert kl_a2.kl_poly(sts, sts) == ONE
    assert kl_a2.kl_poly(st, ts) == ZERO


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_dihedral_tables_are_monomial(m, i2, kl_i2):
    table, kl = i2(m), kl_i2(m)
    for w in table.elements:
        candidate = dihedral_kl_candidate(table, w)
        assert satisfies_kl_conditions(table, w, candidate)
        assert kl.kl_element(w) == candidate
        for x in bruhat_interval(table, w):
            assert kl.kl_poly(x, w) == v_power(table.length[w] - table.length[x])


def test_mu_examples(a2, a3, kl_a2, kl_a3):
    # codimension one always gives mu = 1
    for w in a3.elements:
        for z in bruhat_interval(a3, w):
            if a3.length[w] - a3.length[z] == 1:
                assert kl_a3.mu(z, w) == 1
    sts = evaluate_word(a2, (0, 1, 0))
    assert kl_a2.kl_poly(a2.identity, sts) == v_power(3)
    assert kl_a2.mu(a2.identity, sts) == 0
    ts = evaluate_word(a2, (1, 0))
    st = evaluate_word(a2, (0, 1))
    assert kl_a2.mu(st, ts) == 0


def test_to_classical_examples():
    assert to_classical(v_power(3), 0, 3) == ONE
    assert to_classical(LaurentPoly({1: 1, 3: 1}), 1, 4) == LaurentPoly({0: 1, 1: 1})
    assert to_classical(ZERO, 0, 3) == ZERO
    with pytest.raises(ValueError):
        to_classical(v_power(2), 0, 3)  # parity break
    with pytest.raises(ValueError):
        to_classical(v_power(5), 0, 3)  # exponent above l(w) - l(x)


@pytest.mark.parametrize("name", LADDER)
def test_table_classical_matches_to_classical(ladder, name):
    table, kl = ladder(name)
    length = table.length
    for w in kl.stored_elements():
        for x, h in kl.kl_element(w).items():
            p = kl.classical(x, w)
            assert p == to_classical(h, length[x], length[w])
            assert kl.classical(x, w) is p  # memoized


def test_table_classical_is_none_off_parity(a3):
    # v^2 breaks the parity of h_{s2,s1s2}; a stored value changed after a
    # conversion is converted afresh, since the memo holds the old value
    w, x = evaluate_word(a3, (0, 1)), evaluate_word(a3, (1,))
    kl = compute_kl(a3, a3.complete_length)
    assert kl.classical(x, w) == ONE
    kl._kl[w] = {**kl.kl_element(w), x: v_power(2)}
    assert kl.classical(x, w) is None
    assert kl.classical(a3.identity, w) == ONE
    assert damaged_table(a3, w, x, lambda c: v_power(2)).classical(x, w) is None


@pytest.mark.parametrize("name", ["A4", "B3"])
def test_kl_suite_converts_each_q_form_once(ladder, monkeypatch, name):
    # work-count guard: over a whole run, to_classical sees each (polynomial, length gap) pair once
    table, _ = ladder(name)
    kl = compute_kl(table, table.complete_length)  # a fresh table, its memo empty
    calls = Counter()
    original = klcat.kl.to_classical

    def counted(h, lx, lw):
        calls[tuple(h.items()), lw - lx] += 1
        return original(h, lx, lw)

    monkeypatch.setattr(klcat.kl, "to_classical", counted)
    assert run_suite(kl, "kl")["pass"]
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", ["A2"] + [f"I2({m})" for m in range(3, 9)])
def test_recursion_matches_table_everywhere(name):
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for w in table.elements:
        for s in descents(table, w, "left"):
            column = recursion_column(kl, w, s)
            columnq = classical_recursion_column(kl, w, s)
            for x in table.elements:
                assert column.get(x, ZERO) == kl.kl_poly(x, w)
                want = (
                    to_classical(kl.kl_poly(x, w), table.length[x], table.length[w])
                    if bruhat_leq(table, x, w)
                    else ZERO
                )
                assert columnq.get(x, ZERO) == want


def test_recursion_on_the_a3_example(a3, kl_a3):
    w = evaluate_word(a3, (1, 0, 2, 1))
    x = a3.elements[2]
    assert recursion_column(kl_a3, w, 1)[x] == LaurentPoly({1: 1, 3: 1})
    assert recursion_column(kl_a3, w, 1)[w] == ONE
    assert classical_recursion_column(kl_a3, w, 1)[x] == LaurentPoly({0: 1, 1: 1})
    assert classical_recursion_column(kl_a3, w, 1)[w] == ONE


def test_recursion_rejects_non_descent(a2, kl_a2):
    st = evaluate_word(a2, (0, 1))
    with pytest.raises(ValueError):
        recursion_column(kl_a2, st, 1)
    with pytest.raises(ValueError):
        classical_recursion_column(kl_a2, st, 1)


@pytest.mark.parametrize("name", LADDER)
def test_recursion_columns_match_per_x_oracles(ladder, name):
    table, kl = ladder(name)
    stored = kl.stored_elements()
    for w in stored:
        for s in descents(table, w, "left"):
            column = recursion_column(kl, w, s)
            columnq = classical_recursion_column(kl, w, s)
            for x in stored:
                assert column.get(x, ZERO) == recursion_kl_poly(kl, x, w, s)
                assert columnq.get(x, ZERO) == classical_recursion(kl, x, w, s)


@pytest.mark.parametrize("name", LADDER)
def test_expansion_matches_oracle(ladder, name):
    _, kl = ladder(name)
    for u in kl.stored_elements():
        cu = kl.kl_element(u)
        assert kl.expand_in_kl_basis(cu) == expand_in_kl_basis(kl, cu) == {u: ONE}
    for h in generator_products(kl):
        assert kl.expand_in_kl_basis(h) == expand_in_kl_basis(kl, h)


@pytest.mark.parametrize("diagonal", [2, 0], ids=["two", "zero"])
def test_expansion_rejects_a_non_unit_diagonal(a2, diagonal):
    # the back-substitution cannot clear s1 when the stored h_{s1,s1} is not 1
    s1 = a2.elements[1]
    kl = damaged_table(a2, s1, s1, lambda c: LaurentPoly({0: diagonal}) if diagonal else None)
    with pytest.raises(ValueError, match=r"h_\{s1,s1\} is (2\*v\^0|0), not 1"):
        kl.expand_in_kl_basis(left_mul_kl(a2, 0, {a2.identity: ONE}))
    with pytest.raises(ValueError, match=r"s1 comes up for clearing twice"):
        expand_in_kl_basis(kl, left_mul_kl(a2, 0, {a2.identity: ONE}))


def _counted_expansions(monkeypatch) -> Counter:
    """Count the calls of ``KLTable.expand_in_kl_basis`` from now on, under the key None."""
    calls = Counter()
    original = klcat.kl.KLTable.expand_in_kl_basis

    def counted(self, h):
        calls[None] += 1
        return original(self, h)

    monkeypatch.setattr(klcat.kl.KLTable, "expand_in_kl_basis", counted)
    return calls


def test_expansion_rejects_a_coordinate_that_feeds_back(monkeypatch, a3):
    # C_{s1.s2} stored with v at s1.s2.s3: clearing s1.s2 feeds s1.s2.s3, and
    # clearing s1.s2.s3 feeds s1.s2 again, so the back-substitution never ends
    s2, s1s2, s1s2s3 = (evaluate_word(a3, word) for word in ((1,), (0, 1), (0, 1, 2)))
    kl = damaged_table(a3, s1s2, s1s2s3, lambda c: V)
    message = r"cannot clear s1\.s2: a stored coordinate above it feeds it back"
    with pytest.raises(ValueError, match=message):
        kl.expand_in_kl_basis(left_mul_kl(a3, 0, kl.kl_element(s2)))
    with pytest.raises(ValueError, match=r"s1\.s2 comes up for clearing twice"):
        expand_in_kl_basis(kl, left_mul_kl(a3, 0, kl.kl_element(s2)))
    # the kl suite fails the structure records of that product and goes on; no
    # recursion column proves those products, so the back-substitution runs
    expansions = _counted_expansions(monkeypatch)
    records = run_suite(kl, "kl")["records"]
    assert expansions[None] >= 1
    undefined = [r for r in records if r.get("lhs") == "undefined" and r["identity"] == "mu_structure_constants"]
    assert ("s2", "s1") in {(r["word"], r["s"]) for r in undefined}
    assert not any(r["pass"] for r in undefined)
    assert records == kl_suite_records(kl)


@pytest.mark.parametrize("name", LADDER)
def test_kl_suite_expands_no_product_of_an_intact_table(monkeypatch, ladder, name):
    # work-count guard: every structure record of an intact table is proved from a recursion
    # column the element checks already summed, so the structure checks form no product
    # C_s * C_u, on codes or on polynomials, and no structure constant goes through the
    # back-substitution
    table, _ = ladder(name)
    kl = compute_kl(table, table.complete_length)  # a fresh table, no structure constant memoized
    expansions = _counted_expansions(monkeypatch)
    products, inside = Counter(), []
    checks = klcat.verify._mu_structure_checks

    def tracked(*args):
        inside.append(None)
        try:
            return checks(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(klcat.verify, "_mu_structure_checks", tracked)
    for product in ("left_mul_codes", "left_mul_kl"):

        def counted(*args, product=product, original=getattr(klcat.kl, product), **kwargs):
            products[product, bool(inside)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(klcat.kl, product, counted)
    assert run_suite(kl, "kl", FailRecords())["pass"]
    assert expansions[None] == 0
    # only the element checks form products: each v-column is one left_mul_codes step
    assert set(products) == {("left_mul_codes", False)}


def _counted_bar_walks(monkeypatch) -> list:
    """The elements whose bar ``hecke._bar_codes`` walks from now on, in call order."""
    walked = []
    original = klcat.hecke._bar_codes

    def counted(table, h):
        walked.append(h)
        return original(table, h)

    monkeypatch.setattr(klcat.hecke, "_bar_codes", counted)
    return walked


def _counted_decodes(monkeypatch) -> Counter:
    """Count the calls of the two decoders of ``kl.RecursionColumns`` from now on, by method name."""
    calls = Counter()
    for name in ("column", "classical_column"):
        original = getattr(klcat.kl.RecursionColumns, name)

        def counted(self, name=name, original=original):
            calls[name] += 1
            return original(self)

        monkeypatch.setattr(klcat.kl.RecursionColumns, name, counted)
    return calls


@pytest.mark.parametrize("name", LADDER)
def test_kl_suite_walks_no_bar_of_an_intact_table(monkeypatch, ladder, name):
    # work-count guard: every C_w of an intact table is proved bar-invariant from its
    # recursion over C_y already proved, in id order, so the bar is never walked; and
    # the text report counts the records of a (w, s) whose two columns equal C_w as
    # codes in bulk, so no column is decoded
    _, kl = ladder(name)
    walked = _counted_bar_walks(monkeypatch)
    decodes = _counted_decodes(monkeypatch)
    assert run_suite(kl, "kl", FailRecords())["pass"]
    assert walked == []
    assert decodes == Counter()


def _counted_column_work(monkeypatch) -> Counter:
    """Count the recursion's work in ``klcat.kl`` from now on.

    ``("index", s, sw)`` counts the index sets {z : sz < z < sw} built
    for (s, sw), and ``"v-step"`` the C_s steps of a v-column, the only
    :func:`~klcat.hecke.left_mul_codes` calls that read an sy beyond a
    truncated table as longer.
    """
    calls = Counter()
    below, step = klcat.kl.below_with_descent, klcat.kl.left_mul_codes

    def counted_below(table, s, sw):
        calls["index", s, sw] += 1
        return below(table, s, sw)

    def counted_step(table, s, pairs, shift, beyond_longer=False):
        calls["v-step"] += beyond_longer
        return step(table, s, pairs, shift, beyond_longer)

    monkeypatch.setattr(klcat.kl, "below_with_descent", counted_below)
    monkeypatch.setattr(klcat.kl, "left_mul_codes", counted_step)
    return calls


@pytest.mark.parametrize("sink", ["text", "list", "json"])
@pytest.mark.parametrize("case", ["A4", "A3-extra-term"])
def test_kl_suite_sums_each_recursion_column_once(monkeypatch, ladder, case, sink):
    # work-count guard: each (w, s) of the kl suite builds its index set once and sums
    # its v-column once, and the q-column in the same pass over that index, in every
    # sink; on the damaged table the text report decodes and walks the failing columns
    kl = _bar_case(ladder, case)
    table = kl.table
    pairs = {
        ("index", s, mult_gen(table, w, s, "left"))
        for w in kl.stored_elements()[1:]
        for s in descents(table, w, "left")
    }
    target = {"text": FailRecords(), "list": RecordList(), "json": JsonStream(io.StringIO(), "kl")}[sink]
    work = _counted_column_work(monkeypatch)
    report = run_suite(kl, "kl", target)
    assert report["pass"] == (case in LADDER)
    if case not in LADDER:
        assert report["summary"]["recursion_agreement"]["fail"] > 0
    assert work == Counter({**dict.fromkeys(pairs, 1), "v-step": len(pairs)})


# B3: s2.s3.s2 has the one left descent s2, and its recursion is C_s2 C_{s3.s2} - C_s2,
# as mu(s2, s3.s2) = 1; C_s2 gets a term that breaks its bar-invariance, and
# C_{s2.s3.s2} is intact
CORRECTION_TERM_DAMAGE = ("B3", (1,), (), lambda c: c + v_power(3))

# case -> (group, w, x, change of h_{x,w}, the word whose C_w is then reset to its recursion
# column, so that the v-column holds there but reads a damaged C_y)
EXTRA_BAR_CASES = {
    "B3-s2-correction-term": (*CORRECTION_TERM_DAMAGE, None),
    "B3-s2-carried-up": (*CORRECTION_TERM_DAMAGE, (1, 2, 1)),
    "B3-s3s2-carried-up": ("B3", (2, 1), (), lambda c: c + v_power(3), (1, 2, 1)),
    # the column reads h_{w,w} as 1
    "A3-s1s2-diagonal": ("A3", (0, 1), (0, 1), lambda c: c * 2, None),
    # mu(s3, s1s2) = 1 outside [e, s1s2]: the column of s3.s1.s2 holds, but its correction
    # sum runs over z < s1s2, and the expected expansion of C_s3 C_s1s2 over z < s3.s1.s2
    "A3-s1s2-outside-s3-carried-up": ("A3", (0, 1), (2,), lambda c: c + V, (2, 0, 1)),
}


def _bar_case(ladder, case):
    """A fresh KL table, nothing above e proved: a LADDER rung, a ``DAMAGED`` table or an ``EXTRA_BAR_CASES`` one."""
    if case in LADDER:
        table, _ = ladder(case)
        return compute_kl(table, table.complete_length)
    if case in EXTRA_BAR_CASES:
        group, wword, xword, change, carried = EXTRA_BAR_CASES[case]
    else:
        (group, wword, xword, change), carried = DAMAGED[DAMAGED_IDS.index(case)], None
    table, _ = ladder(group)
    kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    if carried is not None:
        w = evaluate_word(table, carried)
        kl._kl[w] = dict(sorted(recursion_column(kl, w, carried[0]).items()))
        kl._codes = None  # the column was summed on the view of the old C_w
    return kl


BAR_CASES = [*LADDER, *DAMAGED_IDS, *EXTRA_BAR_CASES]


@pytest.mark.parametrize("case", BAR_CASES)
def test_bar_records_equal_the_walk(ladder, case):
    # fast path against slow path: each w's bar record, proved from the recursion or
    # walked, is bar_invariant(table, C_w)
    kl = _bar_case(ladder, case)
    table = kl.table
    stored = kl.stored_elements()
    report = run_suite(kl, "kl", FailRecords())
    failed = [rec["word"] for rec in report["records"].records if rec["identity"] == "bar_invariance"]
    want = [table.names[w] for w in stored[1:] if not bar_invariant(table, kl.kl_element(w))]
    assert failed == want
    assert report["summary"]["bar_invariance"] == {"pass": len(stored) - 1 - len(want), "fail": len(want)}
    if case.startswith("B3-") and case.endswith("carried-up"):  # C_{s2.s3.s2} carries the damaged C_s2 up
        assert "s2.s3.s2" in failed


@pytest.mark.parametrize("case", BAR_CASES)
def test_structure_records_equal_the_expansion(ladder, case):
    # fast path against slow path: each structure record, proved from a recursion column
    # or computed by back-substitution, is the oracle's expansion of C_s * C_u
    kl = _bar_case(ladder, case)
    structure = {"structure_positivity", "mu_structure_constants"}
    records = [rec for rec in run_suite(kl, "kl")["records"] if rec["identity"] in structure]
    assert records == mu_structure_records(kl)


@pytest.mark.parametrize("case", ["A3", "B3", *DAMAGED_IDS, "A3-diagonal-value-at-odd-gap"])
def test_value_records_are_decided_once_per_value_and_gap(monkeypatch, ladder, case):
    # positive_degrees, exponent_parity and positivity read each stored h_{x,w} only through
    # its value and l(w) - l(x), so each (value, gap) is decided once, with the per-coordinate
    # records unchanged; the last case stores the table's own h_{s1,s1} = 1 as h_{e,s1} too,
    # one value at gaps 0 and 1
    if case == "A3-diagonal-value-at-odd-gap":
        table, _ = ladder("A3")
        kl = compute_kl(table, table.complete_length)
        s1 = evaluate_word(table, (0,))
        kl._kl[s1] = {**kl.kl_element(s1), table.identity: kl.kl_element(s1)[s1]}
    else:
        kl = _bar_case(ladder, case)
    length = kl.table.length
    calls = Counter()
    original = LaurentPoly.in_positive_part

    def counted(self):
        calls[None] += 1
        return original(self)

    monkeypatch.setattr(LaurentPoly, "in_positive_part", counted)
    records = run_suite(kl, "kl")["records"]
    monkeypatch.undo()
    stored = kl.stored_elements()
    pairs = {(id(h), length[w] - length[x]) for w in stored[1:] for x, h in kl.kl_element(w).items()}
    coordinates = sum(len(kl.kl_element(w)) for w in stored[1:])
    assert calls[None] == len(pairs) < coordinates
    value = {"positive_degrees", "exponent_parity", "positivity"}
    assert [r for r in records if r["identity"] in value] == [
        r for r in kl_element_records(kl) if r["identity"] in value
    ]


def test_a_damaged_correction_term_leaves_w_to_the_walk(monkeypatch, ladder):
    # C_s2 is not bar-invariant, so no recursion of s2.s3.s2 proves its bar: the walk
    # decides the record, and it passes, as C_{s2.s3.s2} is intact
    kl = _bar_case(ladder, "B3-s2-correction-term")
    names = kl.table.names
    walked = _counted_bar_walks(monkeypatch)
    records = run_suite(kl, "kl")["records"]
    bar = {r["word"]: r["pass"] for r in records if r["identity"] == "bar_invariance"}
    assert (bar["s2"], bar["s2.s3.s2"]) == (False, True)
    # no column that reads the damaged C_s2 proves a bar, so s1.s2 and s3.s2 are walked
    # too; s2.s3.s2 passes its walk and joins the proved C_y, so nothing above it is walked
    walked_names = [names[w] for h in walked for w in kl.stored_elements() if kl.kl_element(w) is h]
    assert walked_names == ["s2", "s1.s2", "s3.s2", "s2.s3.s2"]
    assert records == kl_suite_records(kl)


def test_kl_support_fails_on_a_coordinate_not_below_w(a3):
    # v at s2.s3 in C_s1: longer than s1 and not below it, so the whole
    # stored support, not only its part up to l(w), must be [e, w]
    s1, s2s3 = (evaluate_word(a3, word) for word in ((0,), (1, 2)))
    kl = damaged_table(a3, s1, s2s3, lambda c: V)
    records = run_suite(kl, "kl")["records"]
    assert [r["word"] for r in records if r["identity"] == "kl_support" and not r["pass"]] == ["s1"]
    assert records == kl_suite_records(kl)


@pytest.mark.parametrize("name", LADDER)
def test_combine_inverts_the_expansion(ladder, name):
    # sum a_y C_y over the structure constants of C_s * C_u is C_s * C_u, and
    # over (w, 1) is C_w; the same sums one whole element at a time agree
    table, kl = ladder(name)
    stored = kl.stored_elements()
    for w in stored:
        assert _to_vector(kl.combine([(w, ONE)])) == kl.kl_element(w)
    for u in stored:
        for s in range(table.rank):
            try:
                su = mult_gen(table, u, s, "left")
            except IncompleteTableError:
                continue
            if table.length[su] > kl.complete_up_to:
                continue
            coeffs = kl.structure_constants(s, u).items()
            product = left_mul_kl(table, s, kl.kl_element(u))
            assert _to_vector(kl.combine(coeffs)) == product
            whole = {}
            for y, a in coeffs:
                whole = add(whole, scale(kl.kl_element(y), a))
            assert whole == product


def _q_oracle(kl, x, w, s):
    try:
        return classical_recursion(kl, x, w, s)
    except ValueError:
        return None


@pytest.mark.parametrize("name", ["A3", "triangle4-0-3"])
@pytest.mark.parametrize("damage", ["diagonal", "entry-above"])
def test_columns_match_per_x_oracles_on_damaged_entries(ladder, name, damage):
    # h_{w,w} = 2 (read as 1 by both paths), or h_{x,w} = v for a top-length x not
    # below w, which the recursions read as mu(x, w) and, in the truncated table,
    # has left products beyond it
    table, _ = ladder(name)
    top = table.complete_length
    w = max(x for x in table.elements if table.length[x] == top - 1)
    if damage == "diagonal":
        kl = damaged_table(table, w, w, lambda c: LaurentPoly({0: 2}))
    else:
        kl = damaged_table(table, w, max(table.elements), lambda c: V)
    stored = kl.stored_elements()
    for u in stored:
        for s in descents(table, u, "left"):
            column = recursion_column(kl, u, s)
            columnq = classical_recursion_column(kl, u, s)
            for y in stored:
                assert column.get(y, ZERO) == recursion_kl_poly(kl, y, u, s)
                assert columnq.get(y, ZERO) == _q_oracle(kl, y, u, s)


# (group, word of w, word of x, change): a changed value keeps the parity,
# and the changed mu is at an odd length difference
DAMAGES = {
    "A3-value": ("A3", (1, 0, 2, 1), (1,), lambda c: c + c.shift(-2)),
    "A3-dropped": ("A3", (1, 0, 2, 1), (), lambda c: None),
    "A3-mu": ("A3", (0, 1, 0), (), lambda c: c + V),
    "A4-value": ("A4", (1, 0, 2, 1, 3, 2), (2,), lambda c: c + c.shift(-2)),
    "A4-dropped": ("A4", (1, 0, 2, 1, 3), (1,), lambda c: None),
    "A4-mu": ("A4", (0, 1, 2, 1, 0), (1,), lambda c: c + V),
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_damaged_table_records_match_oracle(a3, a4, damage):
    group, wword, xword, change = DAMAGES[damage]
    table = {"A3": a3, "A4": a4}[group]
    w, x = evaluate_word(table, wword), evaluate_word(table, xword)
    assert table.words[w] == wword and bruhat_leq(table, x, w) and x != w
    kl = damaged_table(table, w, x, change)
    report = run_suite(kl, "kl")
    failed = {r["identity"] for r in report["records"] if not r["pass"]}
    assert {"recursion_agreement", "classical_recursion_agreement"} <= failed
    assert report["records"] == kl_suite_records(kl)


# v^2 breaks the parity of h_{e,s1}, and of h_{s2,s1s2}, which the q-form of
# s2s1s2 reads as its mu(s2, s1s2)
@pytest.mark.parametrize("wword, xword", [((0,), ()), ((0, 1), (1,))], ids=["e-s1", "s2-s1s2"])
def test_kl_suite_fails_on_a_non_classical_coefficient(a3, wword, xword):
    w, x = evaluate_word(a3, wword), evaluate_word(a3, xword)
    kl = damaged_table(a3, w, x, lambda c: v_power(2))
    report = run_suite(kl, "kl")
    assert report["pass"] is False
    undefined = [
        r
        for r in report["records"]
        if r["identity"] == "classical_recursion_agreement" and "undefined" in (r["lhs"], r["rhs"])
    ]
    assert undefined and not any(r["pass"] for r in undefined)
    assert report["records"] == kl_suite_records(kl)


class _FullWalk(RecordList):
    """A sink that keeps passes, so the kl suite walks every stored x, but holds only the FAIL records."""

    def keep(self, rec):
        if not rec["pass"]:
            super().keep(rec)


def _cli_kl(monkeypatch, kl, *fmt):
    """(exit code, stdout, text sink or None) of ``klcat verify --suite kl`` run on ``kl``."""
    sinks = []

    class Kept(FailRecords):
        def __init__(self):
            super().__init__()
            sinks.append(self)

    monkeypatch.setattr(klcat.cli, "_group_from_args", lambda args: ("G", kl.table))
    monkeypatch.setattr(klcat.cli, "compute_kl", lambda table, bound: kl)
    monkeypatch.setattr(klcat.cli, "FailRecords", Kept)
    out = io.StringIO()
    code = klcat.cli.main(["verify", "--suite", "kl", *fmt], out=out)
    return code, out.getvalue(), sinks[0] if sinks else None


def _head(table):
    return f"group: G (order {'>= ' if table.partial else ''}{table.order})"


@pytest.mark.parametrize("case", [*LADDER, *DAMAGES])
def test_bulk_counted_text_report_matches_the_full_walk(monkeypatch, ladder, a3, a4, case):
    # the text report walks only the live x; a pass-keeping sink walks them all
    if case in DAMAGES:
        group, wword, xword, change = DAMAGES[case]
        table = {"A3": a3, "A4": a4}[group]
        kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    else:
        table, kl = ladder(case)
    full = _FullWalk()
    run_suite(kl, "kl", full)
    code, text, sink = _cli_kl(monkeypatch, kl)
    assert sink.summary() == full.summary()
    assert len(sink) == len(full)
    assert sink.records == full.records
    report = {"suite": "kl", "summary": full.summary(), "records": full.records, "pass": full.passed()}
    assert (code, text) == (0 if full.passed() else 1, text_report(report, _head(table)))
    assert bool(full.records) == (case in DAMAGES)


def test_a_dropped_diagonal_keeps_w_live(a3):
    # kl_poly(w, w) reads 1 without a stored h_{w,w}, so both sinks walk x = w; a C_s C_u with
    # no KL-basis expansion fails its structure records, lhs undefined, and the run goes on
    w = evaluate_word(a3, (1, 0, 2, 1))
    kl = damaged_table(a3, w, w, lambda c: None)
    full, text = RecordList(), FailRecords()
    for sink in (full, text):
        run_suite(kl, "kl", sink)
    assert full.records == kl_suite_records(kl)
    element = kl_element_records(kl)
    assert full.records[: len(element)] == element
    structure, last = full.records[len(element) : -1], full.records[-1]
    assert {rec["identity"] for rec in structure} == {"structure_positivity", "mu_structure_constants"}
    assert last["identity"] == "descent_choice_independence" and not last["pass"]
    undefined = set()
    for rec in structure:
        s, u = int(rec["s"][1:]) - 1, a3.names.index(rec["word"])
        try:
            expand_in_kl_basis(kl, left_mul_kl(a3, s, kl.kl_element(u)))
        except ValueError:
            undefined.add((rec["word"], rec["s"]))
    # C_s times the damaged C_w itself may expand, to the wrong vector
    own = {(rec["word"], rec["s"]) for rec in structure if rec["word"] == a3.names[w]}
    assert undefined and own - undefined
    assert {(rec["word"], rec["s"]) for rec in structure if not rec["pass"]} == undefined | own
    for rec in structure:
        if rec["identity"] == "mu_structure_constants" and not rec["pass"]:
            assert (rec["lhs"] == "undefined") == ((rec["word"], rec["s"]) in undefined)
            assert rec["rhs"] != "undefined"
    assert not full.passed() and text.summary() == full.summary() and len(text) == len(full)
    assert text.records == [rec for rec in full.records if not rec["pass"]]


@pytest.mark.parametrize("xword", [(2,), (1, 2, 1)], ids=["s3", "s2s3s2"])
def test_a_coordinate_outside_the_interval_matches_oracle_in_both_formats(monkeypatch, a3, xword):
    # h_{x,s1s2} = v for an x neither below nor above s1s2 (one above would feed the expansion
    # back): the recursions above s1s2 read s3 as mu(s3, s1s2) = 1, and the text report walks
    # both as stored coordinates
    w, x = evaluate_word(a3, (0, 1)), evaluate_word(a3, xword)
    assert not bruhat_leq(a3, x, w) and not bruhat_leq(a3, w, x)
    kl = damaged_table(a3, w, x, lambda c: V)
    report = run_suite(kl, "kl")
    assert not report["pass"]
    assert report["records"] == kl_suite_records(kl)
    assert _cli_kl(monkeypatch, kl, "--format", "json")[:2] == (1, canonical_json(report))
    assert _cli_kl(monkeypatch, kl)[:2] == (1, text_report(report, _head(a3)))


def test_text_sink_is_called_once_per_live_check(monkeypatch, ladder):
    # on an intact table both columns of every (w, s) equal C_w as codes, so no x is live:
    # the text sink takes no recursion record and counts them all in bulk, while the
    # pass-keeping sink still takes one call per stored x
    table, kl = ladder("A4")
    calls, bulk = Counter(), Counter()
    original_call, original_add = Sink.__call__, Sink.add_passes

    def counted(self, identity, *args, **kwargs):
        calls[identity] += 1
        return original_call(self, identity, *args, **kwargs)

    def added(self, identity, n):
        bulk[identity] += n
        return original_add(self, identity, n)

    monkeypatch.setattr(Sink, "__call__", counted)
    monkeypatch.setattr(Sink, "add_passes", added)
    recursion = ("recursion_agreement", "classical_recursion_agreement")
    for sink in (FailRecords(), RecordList()):
        calls.clear()
        bulk.clear()
        run_suite(kl, "kl", sink)
        for identity, counts in sink.summary().items():
            walked = 0 if identity in recursion and not sink.keeps_passes else counts["pass"] + counts["fail"]
            assert calls[identity] == walked, identity
            assert calls[identity] + bulk[identity] == counts["pass"] + counts["fail"], identity
        assert sum(calls[identity] + bulk[identity] for identity in recursion) == 57_600
        assert sum(bulk[identity] for identity in recursion) == (0 if sink.keeps_passes else 57_600)
    assert sum(calls.values()) == len(sink)  # the pass-keeping sink, run last


def test_descent_choice_independence(a3, kl_a3):
    other = compute_kl(a3, 6, descent_choice="max")
    for w in a3.elements:
        assert other.kl_element(w) == kl_a3.kl_element(w)


def test_bar_invariance_and_degree_conditions(a3, kl_a3):
    for w in a3.elements:
        elt = kl_a3.kl_element(w)
        assert bar_involution(a3, elt) == elt
        for x, c in elt.items():
            if x != w:
                assert c.in_positive_part()
            assert c.is_nonnegative()
            assert all((e - (a3.length[w] - a3.length[x])) % 2 == 0 for e in c.exponents())


def test_expand_in_kl_basis(a2, kl_a2):
    s = a2.elements[1]
    for w in a2.elements:
        assert kl_a2.expand_in_kl_basis(kl_a2.kl_element(w)) == {w: ONE}
    cs = {s: ONE, a2.identity: V}
    assert kl_a2.expand_in_kl_basis(cs) == {s: ONE}
    assert kl_a2.expand_in_kl_basis(left_mul_kl(a2, 0, cs)) == {s: LaurentPoly({1: 1, -1: 1})}


def test_expand_round_trips_random_vectors(a3, kl_a3):
    rng = random.Random(11)
    for _ in range(10):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            y = rng.choice(a3.elements)
            coeffs[y] = LaurentPoly({rng.randint(-2, 2): rng.randint(-4, 4)})
        coeffs = {y: c for y, c in coeffs.items() if c}
        assembled = {}
        for y, c in coeffs.items():
            assembled = add(assembled, scale(kl_a3.kl_element(y), c))
        assert kl_a3.expand_in_kl_basis(assembled) == dict(sorted(coeffs.items()))


def test_structure_constants_examples(a2, kl_a2):
    e, s, t = a2.identity, a2.elements[1], a2.elements[2]
    st = evaluate_word(a2, (0, 1))
    assert kl_a2.structure_constants(0, e) == {s: ONE}
    assert kl_a2.structure_constants(0, s) == {s: LaurentPoly({1: 1, -1: 1})}
    assert kl_a2.structure_constants(0, t) == {st: ONE}


@pytest.mark.parametrize("name", ["A2", "A3", "I2(5)", "I2(8)"])
def test_mu_structure_identity(name):
    # C_s C_u = C_su + sum of mu(z, u) C_z over z with a left descent at s
    table = build_group(preset_matrix(name), 1000)
    kl = compute_kl(table, table.complete_length)
    for u in table.elements:
        for s in range(table.rank):
            if s in descents(table, u, "left"):
                continue
            su = evaluate_word(table, (s,) + table.words[u])
            expected = {su: ONE}
            for z in bruhat_interval(table, su):
                if z != su and s in descents(table, z, "left"):
                    m = kl.mu(z, u)
                    if m:
                        expected[z] = LaurentPoly({0: m})
            assert kl.structure_constants(s, u) == dict(sorted(expected.items()))


@pytest.mark.parametrize("choice", ["min", "max"])
@pytest.mark.parametrize("name", [*LADDER, "A5"])
def test_compute_kl_matches_subtraction_oracle(ladder, name, choice):
    table = build_group(preset_matrix(name), 1000) if name == "A5" else ladder(name)[0]
    kl = compute_kl(table, table.complete_length, descent_choice=choice)
    want = compute_kl_by_subtraction(table, table.complete_length, descent_choice=choice)
    assert kl._kl.keys() == want._kl.keys()
    for w, elt in want._kl.items():
        assert kl._kl[w] == elt
        _assert_stored_form(kl.kl_element(w))
    assert len(kl._polys) == len(want._polys)
    assert len(set(kl._polys)) == len(kl._polys)
    interned = {id(h) for h in kl._polys}
    for elt in kl._kl.values():
        for c in elt.values():
            assert id(c) in interned


def _assert_stored_form(elt):
    """A stored C_w is a dict with no zero value, ids ascending."""
    assert all(elt.values())
    assert list(elt) == sorted(elt)


def test_compute_kl_subtracts_in_place(ladder, monkeypatch):
    # one LaurentPoly per distinct stored value, each decoded once; on B4 and A5
    # the largest coefficient passes 1, so the code width grows mid-table and
    # both memos are rebuilt
    calls = Counter()
    widths = []

    def count(owner, name, record=None):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if record is not None:
                record.append(out)
            return out

        monkeypatch.setattr(owner, name, counted)

    count(LaurentPoly, "__init__")
    count(LaurentPoly, "_from_pruned")  # bound to the class, so the wrapper needs no classmethod
    count(klcat.kl, "_digits")
    count(klcat.kl, "_code_width", widths)
    count(klcat.kl, "_code")
    for name in ("B3", "B4", "A5"):
        table = build_group(preset_matrix(name), 1000) if name == "A5" else ladder(name)[0]
        calls.clear()
        widths.clear()
        kl = compute_kl(table, table.complete_length)
        assert calls["__init__"] + calls["_from_pruned"] <= len(kl._polys) + 2, name
        assert calls["_digits"] == len(kl._polys), name
        assert widths == sorted(widths), name
        # each rebuild encodes every value interned so far once
        assert calls["_code"] <= len(kl._polys) * (len(set(widths)) - 1), name
        assert (len(set(widths)) > 1) == (calls["_code"] > 0) == (name != "B3"), name
        top = max(abs(k) for h in kl._polys for _, k in h.items())
        assert widths[-1] == (2 * top * (1 + len(kl.stored_elements()) * top)).bit_length() + 1, name


def test_compute_kl_rejects_bad_arguments(a2):
    with pytest.raises(ValueError):
        compute_kl(a2, -1)
    with pytest.raises(ValueError):
        compute_kl(a2, 3, descent_choice="middle")


def test_csv_export(a2, a3, kl_a2, kl_a3):
    csv = kl_to_csv(kl_a2)
    lines = csv.strip().splitlines()
    assert lines[0] == "x,w,h,P,mu"
    # all dihedral-style entries in A2 are monomials with P = 1
    for line in lines[1:]:
        _, _, h, p, _ = line.split(",")
        assert "+" not in h and p == "1*q^0"
    row = "s2,s2.s1.s3.s2,1*v^1+1*v^3,1*q^0+1*q^1,1"
    assert row in kl_to_csv(kl_a3).splitlines()


def test_json_round_trip_is_identity(a3, kl_a3):
    obj = kl_to_json_obj(kl_a3)
    text = canonical_json(obj)
    assert kl_to_json_text(kl_a3) == text
    # the document, as an object and as json.loads reads its text back, is the table's own
    for doc in (obj, json.loads(text)):
        assert kl_from_json_obj(kl_a3, doc) is None
    doc = json.loads(text)
    doc["body"]["kl"][4][1][0][1] = {"2": 2}  # h_{e,s1.s2} = 2v^2 for v^2
    with pytest.raises(CacheMismatchError, match="differs from the computed table"):
        kl_from_json_obj(kl_a3, doc)


@pytest.mark.parametrize("name", LADDER)
def test_json_text_matches_object_reference(ladder, name):
    _, kl = ladder(name)
    assert kl_to_json_text(kl) == canonical_json(kl_to_json_obj(kl))


def test_json_text_matches_object_reference_on_a_damaged_table(a3):
    # a negative exponent and a coefficient beyond 64 bits pin how keys and ints are written
    w, x = evaluate_word(a3, (1, 0, 2, 1)), evaluate_word(a3, (1,))
    kl = damaged_table(a3, w, x, lambda c: LaurentPoly({-3: 2**70 + 1, 2: -(2**65)}))
    text = kl_to_json_text(kl)
    assert text == canonical_json(kl_to_json_obj(kl))
    assert '[[1],{"-3":1180591620717411303425,"2":-36893488147419103232}]' in text


@pytest.mark.parametrize("name", LADDER)
def test_csv_matches_interval_oracle(ladder, name):
    _, kl = ladder(name)
    assert kl_to_csv(kl) == interval_kl_csv(kl)
    for w in kl.stored_elements():
        _assert_stored_form(kl.kl_element(w))


@pytest.mark.parametrize("name", LADDER)
def test_coefficients_are_interned(ladder, name):
    _, kl = ladder(name)
    coeffs = [c for w in kl.stored_elements() for _, c in kl.kl_element(w).items()]
    assert len({id(c) for c in coeffs}) == len(set(coeffs))
