import io
import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

import klcat
import klcat.cells
import klcat.cli
from klcat.cli import main
from klcat.coxeter import IncompleteTableError, build_group, evaluate_word, preset_matrix, word_name
from klcat.kl import canonical_json, compute_kl
from klcat.laurent import V, v_power
from klcat.verify import SUITES, FailRecords, JsonStream, RecordList, run_suite

from oracles import LADDER, commutation_class, damaged_table, reduced_words_in_order, word_suite_records


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


WORD_SUITES = ("leaves", "branch", "recursion")
# rungs whose per-word oracle runs to length 5 only: the truncated ones, and
# those with over a thousand reduced words (B4 has 103 k)
BOUNDED_RUNGS = ("H3", "D4", "A4", "B4", "affineA2", "triangle4-0-3")


def oracle_reports(kl):
    """Every suite's report, each word-suite record from the per-word oracle ``word_suite_records``.

    The kl suite, which the oracle does not cover, is the production run.
    """
    words = {suite: word_suite_records(kl, suite) for suite in WORD_SUITES}
    kl_records = run_suite(kl, "kl")["records"]
    reports = {}
    for suite in SUITES:
        records = list(kl_records) if suite in ("kl", "all") else []
        for name in WORD_SUITES:
            if suite in (name, "all"):
                records += words[name]
        counts = {}
        for rec in records:
            counts.setdefault(rec["identity"], Counter())[rec["pass"]] += 1
        summary = {identity: {"pass": c[True], "fail": c[False]} for identity, c in sorted(counts.items())}
        reports[suite] = {"suite": suite, "records": records, "summary": summary, "pass": all(r["pass"] for r in records)}
    return reports


def assert_reports_match(kl, group_args, head, reports):
    # the list report, and both output formats of cmd_verify, against the oracle's
    for suite, report in reports.items():
        assert run_suite(kl, suite) == report, suite
        code, text = _cli(["verify", *group_args, "--suite", suite, "--format", "json"])
        assert (code, text) == (0 if report["pass"] else 1, canonical_json(report)), suite
        code, text = _cli(["verify", *group_args, "--suite", suite])
        assert (code, text) == (0 if report["pass"] else 1, text_report(report, head)), suite


@pytest.mark.parametrize("name", LADDER)
def test_word_suites_match_per_word_oracles(ladder, name):
    # each word suite runs once per key (first letter, commutation class of the
    # tail) and each word takes the key's records; the oracle walks every word
    table, kl = ladder(name)
    rows, cap = LADDER[name]
    group_args = ["--matrix", json.dumps({"rank": table.rank, "m": rows}), "--cap", str(cap)]
    if name in BOUNDED_RUNGS:
        kl = compute_kl(table, min(5, table.complete_length))
        group_args += ["--max-length", str(kl.complete_up_to)]
    head = f"group: custom (order {'>= ' if table.partial else ''}{table.order})"
    assert_reports_match(kl, group_args, head, oracle_reports(kl))


DAMAGED = [
    ("A3", (0, 1, 0, 2, 1, 0), (2,), lambda c: c + v_power(3)),
    ("A3", (0, 1, 0, 2, 1, 0), (0, 1), lambda c: c * 2),
    ("B3", (0, 1, 0, 2, 1, 0, 2, 1, 2), (1,), lambda c: c + v_power(3)),
    ("A3", (0, 1, 0), (0,), lambda c: c + v_power(3)),
    ("A3", (0, 1, 0), (0,), lambda c: c * 2),
    ("A3", (1, 0, 2, 1), (1,), lambda c: c + v_power(3)),
    ("A3", (1, 0, 2, 1, 0), (1,), lambda c: c * 2),
    # new coordinates outside [e, w]
    ("A3", (0, 1), (1, 0), lambda c: c + v_power(3)),
    ("A3", (0, 1, 0), (2,), lambda c: c + v_power(3)),
    ("B3", (0, 1, 0, 2, 1), (2, 1, 2), lambda c: c + v_power(3)),
    # s2.s1.s3 and s2.s3.s1 are one key: s2, and the class of s1.s3
    ("A3", (1, 0, 2), (1,), lambda c: c + v_power(3)),
    # a structure constant of s3 times a simple of s1.s2 outside the simple support of s3.s1.s2
    ("A3", (0, 1), (), lambda c: c + V),
]
DAMAGED_IDS = [
    "A3-extra-term",
    "A3-doubled",
    "B3-extra-term",
    "A3-s1s2s1-extra-term",
    "A3-s1s2s1-doubled",
    "A3-s2s1s3s2-extra-term",
    "A3-s2s1s3s2s1-doubled",
    "A3-s1s2-outside-s2s1",
    "A3-s1s2s1-outside-s3",
    "B3-s1s2s1s3s2-outside-s3s2s3",
    "A3-s2s1s3-extra-term",
    "A3-s1s2-sc-outside-s3s1s2",
]


# Both sides of these records come from the characters by two routes (for
# decomposition_identity, the characters and the combine of their KL-basis
# expansion), so they read no KL data and no damaged table fails them.
KL_BLIND = (
    "branching_characters", "leaf_partition", "decomposition_identity",
    "char_leaves_vs_hecke", "char_support", "direction_independence", "leaf_count",
)


@pytest.mark.parametrize("group, wword, xword, change", DAMAGED, ids=DAMAGED_IDS)
def test_character_side_records_pass_on_a_damaged_table(ladder, group, wword, xword, change):
    table, _ = ladder(group)
    kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    summary = run_suite(kl, "all")["summary"]
    for identity in KL_BLIND:
        assert summary[identity]["pass"] and not summary[identity]["fail"], identity
    assert any(counts["fail"] for counts in summary.values())


def word_keys(table, words):
    """The (first letter, commutation class of the tail) of every nonempty word."""
    classes = {}
    for word in words:
        if word[1:] not in classes:
            classes[word[1:]] = commutation_class(word[1:], table.matrix)
    return [(word[0], classes[word[1:]]) for word in words if word]


@pytest.mark.parametrize("suite", ["branch", "recursion"])
def test_word_suites_compute_each_quantity_once(monkeypatch, ladder, suite):
    # work-count guard: one restriction map per nonempty key (first letter,
    # commutation class of the tail), one character step per nonempty key
    # (reducedness is read off its length, no is_reduced), and in the branch
    # suite one final-level leaf step per nonempty key
    calls = Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name, key(args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    key_of = {}
    counting(klcat.branch, "res_cell_class", lambda args: key_of[args[0].word])
    original_is_reduced = klcat.coxeter.is_reduced
    for module in (klcat.coxeter, klcat.cells, klcat.branch, klcat.verify):
        if getattr(module, "is_reduced", None) is original_is_reduced:
            counting(module, "is_reduced", lambda args: tuple(args[1]))
    counting(klcat.hecke, "left_mul_kl", lambda args: "hecke")  # the steps of bott_samelson_class
    counting(klcat.cells, "left_mul_kl", lambda args: "cells")  # the one step from the tail's characters
    counting(klcat.branch, "leaf_step", lambda args: None)  # the key's final-level split, from the tail's characters
    for group in ("B3", "triangle4-0-3", "affineA2"):
        table, kl = ladder(group)
        if table.partial:
            kl = compute_kl(table, 5)
        words = reduced_words_in_order(table, kl.complete_up_to)
        keys = word_keys(table, words)
        key_of.clear()
        key_of.update(zip((word for word in words if word), keys))
        calls.clear()
        report = run_suite(kl, suite)
        assert report["pass"], group
        per_key = Counter(name for name, _ in calls)
        assert {key for name, key in calls if name == "res_cell_class"} == set(keys), group
        assert max(n for (name, _), n in calls.items() if name == "res_cell_class") == 1, group
        assert per_key["is_reduced"] == 0, group
        assert calls["left_mul_kl", "cells"] == len(set(keys)), group
        assert calls["left_mul_kl", "hecke"] == 0, group
        assert calls["leaf_step", None] == (len(set(keys)) if suite == "branch" else 0), group
        # no two letters commute in the truncated groups, so each key has one word
        assert (len(set(keys)) == len(keys)) == table.partial, group


@pytest.mark.parametrize("suite", ["branch", "recursion", "all"])
def test_text_word_suites_form_each_restriction_column_once(monkeypatch, ladder, suite):
    # work-count guard: a run whose sink keeps no passes decides each key from the memoized
    # structure constants of C_s C_u, u over the tail's simple support, so it expands each
    # (s, u) once, and forms each derived-recursion verdict once per (s, tail top); an
    # intact table takes the per-key path for no key
    calls, keys = Counter(), []
    for name in ("recursion_sides", "res_cell_class", "restriction_counts", "derive_kl_recursion"):
        original = getattr(klcat.branch, name)

        def counted(*args, _name=name, _original=original):
            calls[_name, args[1:3] if _name == "recursion_sides" else None] += 1
            return _original(*args)

        monkeypatch.setattr(klcat.branch, name, counted)
    key_checks = klcat.verify._key_checks

    def listed(datum, tail, *args):
        if tail is not None:
            keys.append((datum.word[0], tail))
        return key_checks(datum, tail, *args)

    monkeypatch.setattr(klcat.verify, "_key_checks", listed)
    for group in ("B3", "A4", "triangle4-0-3", "affineA2"):
        table, _ = ladder(group)
        kl = compute_kl(table, 5 if table.partial else table.complete_length)  # an empty structure-constant memo
        calls.clear()
        keys.clear()
        assert run_suite(kl, suite, FailRecords())["pass"], group
        pairs = {(s, u) for s, tail in keys for u in tail.simple_gdims}
        tops = {(s, tail.top) for s, tail in keys}
        verdicts = {key: n for (name, key), n in calls.items() if name == "recursion_sides"}
        assert verdicts == (dict.fromkeys(tops, 1) if suite != "branch" else {}), group
        # the kl suite of ``all`` proves every structure record, so it expands no product
        assert kl._sc_memo.keys() == (tops if suite == "recursion" else pairs), group
        for name in ("res_cell_class", "restriction_counts", "derive_kl_recursion"):
            assert calls[name, None] == 0, (group, name)
        if group == "B3" and suite == "branch":
            assert (len(keys), sum(len(tail.simple_gdims) for _, tail in keys), len(kl._sc_memo)) == (117, 392, 99)


def test_a_key_outside_a_reused_column_takes_the_per_key_path(monkeypatch, ladder):
    # in A3-s1s2-sc-outside-s3s1s2 the structure constants of s3 times a simple of s1.s2
    # leave the simple support of s3.s1.s2, so that key alone builds its restriction map,
    # and its records fail there as in the list report
    group, wword, xword, change = DAMAGED[DAMAGED_IDS.index("A3-s1s2-sc-outside-s3s1s2")]
    table, _ = ladder(group)
    kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    walked = []
    original = klcat.branch.res_cell_class

    def counted(datum, tail):
        walked.append(word_name(datum.word))
        return original(datum, tail)

    monkeypatch.setattr(klcat.branch, "res_cell_class", counted)
    sink = FailRecords()
    run_suite(kl, "branch", sink)
    assert walked == ["s3.s1.s2"]
    report = run_suite(kl, "branch")
    assert {rec["word"] for rec in sink.records} == {"s3.s1.s2"}
    assert sink.records == [rec for rec in report["records"] if not rec["pass"]]
    assert sink.summary() == report["summary"]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_word_suites_build_each_record_once_per_key(monkeypatch, ladder, name):
    # work-count guard: a key's records are built, and their sides rendered,
    # once, under its first word; its later words take renamed copies
    table, kl = ladder(name)
    built = Counter()
    original = klcat.verify.build_record

    def counted(identity, word, *args):
        built[word] += 1
        return original(identity, word, *args)

    monkeypatch.setattr(klcat.verify, "build_record", counted)
    sink = RecordList()
    klcat.verify._word_suite_checks(kl, list(WORD_SUITES), sink)
    words = reduced_words_in_order(table, kl.complete_up_to)
    keys = word_keys(table, words)
    assert len(set(keys)) < len(keys), name
    firsts = {}
    for word, key in zip(words[1:], keys):
        firsts.setdefault(key, word_name(word))
    first = {word_name(()), *firsts.values()}
    assert sum(built.values()) == sum(rec["word"] in first for rec in sink.records), name
    assert set(built) <= first, name


@pytest.mark.parametrize("name, bound", [(name, None) for name in LADDER] + [("A4", 4)])
def test_word_suites_walk_every_reduced_word_in_order(monkeypatch, ladder, name, bound):
    # each cell datum is stubbed to its word and product (B4 alone has 103 k
    # reduced words), so this checks the word order at the point where each
    # word takes its key's records, and the tails handed on
    table, kl = ladder(name)
    if bound is not None:
        kl = compute_kl(table, bound)
    walked = []

    def light_datum(kl, word, tail=None):
        assert tail is None if not word else tail.word == word[1:]
        return SimpleNamespace(word=word, top=evaluate_word(table, word))

    monkeypatch.setattr(klcat.cells, "build_cell_datum", light_datum)
    monkeypatch.setattr(klcat.verify, "_leaves_word_checks", lambda datum, sink: None)
    monkeypatch.setattr(klcat.verify.Sink, "take", lambda sink, checks, word: walked.append(word))
    run_suite(kl, "leaves")
    assert walked == [word_name(word) for word in reduced_words_in_order(table, kl.complete_up_to)]


def test_a_bounded_run_lists_no_word_above_its_bound():
    # A5 has 1.1 M reduced words, all but a few hundred longer than 3
    table = build_group(preset_matrix("A5"), 1000)
    kl = compute_kl(table, 3)
    tracemalloc.start()
    try:
        report = run_suite(kl, "leaves")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"]
    assert peak < 16 * 2**20, peak


# tracemalloc peaks of the three word suites in one text-mode pass, measured
# on the per-word walk that the keyed one replaced (it kept one cell datum per
# reduced word of a layer); the keyed walk peaks at 0.8 and 6.2 MiB
PER_WORD_PEAKS = {"B3": 1_686_040, "A4": 58_896_728}


@pytest.mark.parametrize("name", PER_WORD_PEAKS)
def test_word_suites_peak_no_higher_than_the_per_word_walk(ladder, name):
    table, kl = ladder(name)
    tracemalloc.start()
    try:
        klcat.verify._word_suite_checks(kl, list(WORD_SUITES), FailRecords())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_WORD_PEAKS[name], peak


# -- sinks: the streamed JSON and the text report against the list report -----


def _cli(argv):
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


def streamed_json(kl, suite):
    out = io.StringIO()
    stream = JsonStream(out, suite)
    run_suite(kl, suite, stream)
    stream.finish()
    return out.getvalue()


def text_report(report, head):
    """The text report rendered from a list report: summary, then FAIL lines in record order."""
    lines = [head, f"suite: {report['suite']}"]
    for identity, counts in report["summary"].items():
        lines.append(f"check {identity}: {counts['pass']}/{counts['pass'] + counts['fail']} pass")
    for rec in report["records"]:
        if not rec["pass"]:
            spot = ",".join(f"{k}={rec[k]}" for k in ("word", "x", "u", "s") if k in rec)
            lines.append(f"FAIL {rec['identity']} [{spot}] lhs={rec.get('lhs')} rhs={rec.get('rhs')}")
    lines.append(f"RESULT: {'PASS' if report['pass'] else 'FAIL'}")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("name", ["A3", "B3", "I2(7)", "affineA2", "triangle4-0-3"])
def test_streamed_json_matches_the_list_report(ladder, name):
    table, kl = ladder(name)
    if table.partial:
        kl = compute_kl(table, min(5, table.complete_length))
    for suite in SUITES:
        assert streamed_json(kl, suite) == canonical_json(run_suite(kl, suite)), suite


def test_spools_append_in_order_when_the_stream_is_still_empty():
    # a spool that opens the record list drops the comma it wrote before its first batch
    def feed(sink):
        spools = [sink.spool(), sink.spool()]
        spools[1]("second", "e", False, ("0", "1"), None)
        spools[0]("first", "e", True, x="s1")
        for spool in spools:
            sink.extend(spool)
        return {"suite": "all", "records": sink, "summary": sink.summary(), "pass": sink.passed()}

    records = RecordList()
    report = {**feed(records), "records": records.records}
    out = io.StringIO()
    stream = JsonStream(out, "all")
    feed(stream)
    stream.finish()
    assert out.getvalue() == canonical_json(report)
    assert [rec["identity"] for rec in report["records"]] == ["first", "second"]


@pytest.mark.parametrize("group, wword, xword, change", DAMAGED, ids=DAMAGED_IDS)
def test_cli_reports_match_the_list_report_on_a_damaged_table(monkeypatch, ladder, group, wword, xword, change):
    # both output formats of cmd_verify, with the damaged table in place of the computed one
    table, _ = ladder(group)
    kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    monkeypatch.setattr(klcat.cli, "compute_kl", lambda table, bound: kl)
    reports = oracle_reports(kl)
    assert_reports_match(kl, ["--type", group], f"group: {group} (order {table.order})", reports)
    assert not reports["all"]["pass"]
    assert any(not rec["pass"] for suite in WORD_SUITES for rec in reports[suite]["records"])


def test_each_word_of_a_failing_key_prints_its_own_fail_lines(monkeypatch, ladder):
    # the key's checks are made once, on s2.s1.s3, and taken under s2.s1.s3 and s2.s3.s1
    group, wword, xword, change = DAMAGED[DAMAGED_IDS.index("A3-s2s1s3-extra-term")]
    table, _ = ladder(group)
    kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    monkeypatch.setattr(klcat.cli, "compute_kl", lambda table, bound: kl)
    code, text = _cli(["verify", "--type", group, "--suite", "recursion"])
    assert code == 1
    fails = {}
    for line in text.splitlines():
        if line.startswith("FAIL "):
            word = line.split("[word=", 1)[1].split(",", 1)[0]
            fails.setdefault(word, []).append(line.replace(f"[word={word},", "[word=*,"))
    want = ["FAIL correction_index_consistency [word=*,x=s2] lhs=1*v^2 rhs=1*v^2+1*v^3"]
    assert fails["s2.s1.s3"] == fails["s2.s3.s1"] == want
    # and s1 in front of that class
    assert len(fails["s1.s2.s1.s3"]) == 4 and fails["s1.s2.s1.s3"] == fails["s1.s2.s3.s1"]


@pytest.mark.parametrize("damaged", [False, True], ids=["intact", "damaged"])
def test_fail_records_keep_only_the_failures(ladder, damaged):
    table, kl = ladder("A3")
    if damaged:
        _, wword, xword, change = DAMAGED[0]
        kl = damaged_table(table, evaluate_word(table, wword), evaluate_word(table, xword), change)
    for suite in SUITES:
        report = run_suite(kl, suite)
        sink = FailRecords()
        streamed = run_suite(kl, suite, sink)
        # the benchmark's tracer reads len(report["records"]) as the number of records checked
        assert len(streamed["records"]) == len(sink) == len(report["records"]), suite
        assert sink.summary() == streamed["summary"] == report["summary"], suite
        assert streamed["pass"] == report["pass"], suite
        assert sink.records == [rec for rec in report["records"] if not rec["pass"]], suite
        assert damaged or not sink.records, suite
    assert bool(sink.records) == damaged  # the last suite is all


@pytest.mark.parametrize("suite, check", [("kl", "_mu_structure_checks"), ("all", "_recursion_word_checks")])
def test_incomplete_table_mid_stream_exits_4(monkeypatch, capsys, suite, check):
    # the JSON head and some records are already written when the check raises
    original = getattr(klcat.verify, check)
    calls = []

    def raising(*args):
        calls.append(None)
        if len(calls) == 5:
            raise IncompleteTableError("table too short for this check")
        return original(*args)

    monkeypatch.setattr(klcat.verify, check, raising)
    capsys.readouterr()
    code, text = _cli(["verify", "--type", "A3", "--suite", suite, "--format", "json"])
    assert code == 4
    assert text.startswith(f'{{"suite":"{suite}","records":[{{"identity":')
    with pytest.raises(ValueError):
        json.loads(text)
    err = capsys.readouterr().err
    assert err == "klcat: table too short for this check\n"
