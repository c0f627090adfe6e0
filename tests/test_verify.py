import pytest

from klcat.verify import SUITES, run_suite


def test_unknown_suite_rejected(kl_a2):
    with pytest.raises(ValueError):
        run_suite(kl_a2, "everything")


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "all"])
def test_each_suite_passes_and_reports(kl_a2, suite):
    report = run_suite(kl_a2, suite)
    assert report["pass"] and report["records"]
    assert report["suite"] == suite
    for rec in report["records"]:
        assert {"identity", "word", "pass"} <= set(rec)
    total = sum(c["pass"] + c["fail"] for c in report["summary"].values())
    assert total == len(report["records"])


def test_all_is_the_union_of_the_suites(kl_a2):
    merged = []
    for suite in SUITES:
        if suite != "all":
            merged.extend(run_suite(kl_a2, suite)["records"])
    assert run_suite(kl_a2, "all")["records"] == merged


def test_repeated_runs_give_equal_reports(kl_a3):
    assert run_suite(kl_a3, "branch") == run_suite(kl_a3, "branch")


from collections import Counter

import klcat
from klcat.coxeter import evaluate_word
from klcat.kl import compute_kl
from klcat.laurent import v_power

from oracles import word_suite_records

WORD_SUITES = ("leaves", "branch", "recursion")


@pytest.mark.parametrize("name", ["A3", "B3", "I2(7)", "affineA2", "triangle4-0-3"])
def test_word_suites_match_per_word_oracles(ladder, name):
    # the full rungs for the finite groups, length 5 for the truncated ones
    table, kl = ladder(name)
    if table.partial:
        kl = compute_kl(table, min(5, table.complete_length))
    for suite in WORD_SUITES:
        assert run_suite(kl, suite)["records"] == word_suite_records(kl, suite), suite


def _damaged(table, wword, xword, change):
    """A KL table of ``table`` whose h_{x,w} is ``change(h_{x,w})``."""
    kl = compute_kl(table, table.complete_length)
    w, x = evaluate_word(table, wword), evaluate_word(table, xword)
    coeffs = dict(kl.kl_element(w))
    coeffs[x] = change(coeffs[x])
    kl._kl[w] = coeffs
    return kl


@pytest.mark.parametrize(
    "group, wword, xword, change",
    [
        ("A3", (0, 1, 0, 2, 1, 0), (2,), lambda c: c + v_power(3)),
        ("A3", (0, 1, 0, 2, 1, 0), (0, 1), lambda c: c * 2),
        ("B3", (0, 1, 0, 2, 1, 0, 2, 1, 2), (1,), lambda c: c + v_power(3)),
        # below the longest element: a damaged lower C_w makes some structure
        # constant escape a word's simple support
        ("A3", (0, 1, 0), (0,), lambda c: c + v_power(3)),
        ("A3", (0, 1, 0), (0,), lambda c: c * 2),
        ("A3", (1, 0, 2, 1), (1,), lambda c: c + v_power(3)),
        ("A3", (1, 0, 2, 1, 0), (1,), lambda c: c * 2),
    ],
    ids=[
        "A3-extra-term",
        "A3-doubled",
        "B3-extra-term",
        "A3-s1s2s1-extra-term",
        "A3-s1s2s1-doubled",
        "A3-s2s1s3s2-extra-term",
        "A3-s2s1s3s2s1-doubled",
    ],
)
def test_word_suites_match_oracles_on_a_damaged_table(ladder, group, wword, xword, change):
    # failing records must carry the same lhs/rhs strings as the oracle's
    table, _ = ladder(group)
    kl = _damaged(table, wword, xword, change)
    failed = 0
    for suite in WORD_SUITES:
        records = run_suite(kl, suite)["records"]
        assert records == word_suite_records(kl, suite), suite
        failed += sum(not rec["pass"] for rec in records)
    assert failed


@pytest.mark.parametrize("suite", ["branch", "recursion"])
def test_word_suites_compute_each_quantity_once(monkeypatch, ladder, suite):
    # work-count guard: one restricted cell class per (word, x), one
    # reducedness test and one chain-product step per word
    table, kl = ladder("B3")
    calls = Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name, key(args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(klcat.branch, "res_cell_class", lambda args: (args[0].word, args[2]))
    original_is_reduced = klcat.coxeter.is_reduced
    for module in (klcat.coxeter, klcat.cells, klcat.branch, klcat.verify):
        if getattr(module, "is_reduced", None) is original_is_reduced:
            counting(module, "is_reduced", lambda args: tuple(args[1]))
    counting(klcat.hecke, "left_mul_kl", lambda args: None)  # the steps of bott_samelson_class
    counting(klcat.cells, "left_mul_kl", lambda args: None)  # the one step from the tail's chain
    report = run_suite(kl, suite)
    assert report["pass"]
    words = [w for w in klcat.verify.reduced_words_in_order(table) if len(w) <= kl.complete_up_to]
    per_word = Counter(name for name, _ in calls)
    assert max(n for (name, _), n in calls.items() if name == "res_cell_class") == 1
    assert per_word["res_cell_class"] == sum(
        len(klcat.coxeter.bruhat_interval(table, evaluate_word(table, w))) for w in words if w
    )
    assert all(n == 1 for (name, _), n in calls.items() if name == "is_reduced")
    assert per_word["is_reduced"] <= len(words)
    assert calls["left_mul_kl", None] <= len(words)
